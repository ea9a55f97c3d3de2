"""Tests for the online serving stack: registry, daemon, wire protocol.

The invariants under test are the serving layer's contract:

* hot swap is zero-downtime — a request in flight keeps the engine it
  resolved, new requests route to the new one, and decisions stay
  bit-identical to a sequential engine on *whichever* snapshot answered;
* admission control rejects with an actionable retry hint instead of
  queueing unboundedly, and refuses outright a request that could never
  be admitted;
* each admitted request is one job on the daemon's single scoring lane,
  run in arrival order, and its decisions equal a standalone engine
  scoring it alone;
* each request is its own trace: its engine run's spans nest under its
  ``serve.request`` span.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.data import Entity, EntityPair
from repro.pipeline import ERPipeline
from repro.serve import (BackpressureError, DaemonBusy, DaemonClient,
                         DaemonConfig, DaemonError, ModelRegistry, ScoreCache,
                         ScoreRequest, SequentialScorer, ServeDaemon,
                         UnknownDomain, as_request, start_daemon_thread)
from repro.serve.daemon import MAX_RETRY_AFTER, MIN_RETRY_AFTER
from repro.telemetry import TRACER, TelemetrySession


def _pairs(texts, tag=""):
    return [EntityPair(Entity(f"l{tag}{i}", {"name": text}),
                       Entity(f"r{tag}{i}", {"name": text[::-1]}))
            for i, text in enumerate(texts)]


def _build_snapshot(tmp_path_factory, tiny_lm, seed, label):
    from repro.matcher import MlpMatcher
    from repro.pretrain import fresh_copy
    extractor = fresh_copy(tiny_lm[0], seed=seed)
    extractor.eval()
    matcher = MlpMatcher(extractor.feature_dim, np.random.default_rng(seed))
    matcher.eval()
    pipeline = ERPipeline(extractor, matcher)
    directory = tmp_path_factory.mktemp(f"daemon_{label}") / "pipeline"
    pipeline.save(directory)
    return pipeline, directory


@pytest.fixture(scope="module")
def snapshot_a(tmp_path_factory, tiny_lm):
    return _build_snapshot(tmp_path_factory, tiny_lm, seed=0, label="a")


@pytest.fixture(scope="module")
def snapshot_b(tmp_path_factory, tiny_lm):
    """A second snapshot with different weights (and therefore digest)."""
    return _build_snapshot(tmp_path_factory, tiny_lm, seed=7, label="b")


class TestModelRegistry:
    def test_publish_resolve_roundtrip(self, snapshot_a):
        pipeline, directory = snapshot_a
        with ModelRegistry() as registry:
            digest = registry.publish("prod", directory)
            assert digest == pipeline.manifest_digest
            assert "prod" in registry and len(registry) == 1
            assert registry.domains() == {"prod": digest}
            engine = registry.resolve("prod")
            assert isinstance(engine, SequentialScorer)
            assert engine.snapshot_digest == digest
            pairs = _pairs(["registry row %d" % i for i in range(6)])
            got = engine.score_request(as_request(pairs))
            assert got.snapshot_digest == digest
            assert len(got.decisions) == 6
        # Closing unpublishes every tenant and refuses further publishes.
        assert len(registry) == 0
        with pytest.raises(RuntimeError, match="closed"):
            registry.publish("prod", directory)

    def test_unknown_domain_is_actionable(self, snapshot_a):
        __, directory = snapshot_a
        with ModelRegistry() as registry:
            registry.publish("only", directory)
            with pytest.raises(UnknownDomain) as err:
                registry.resolve("absent")
            assert err.value.known == ["only"]

    def test_hot_swap_pins_inflight_lease_on_old_snapshot(
            self, snapshot_a, snapshot_b):
        pipeline_a, dir_a = snapshot_a
        pipeline_b, dir_b = snapshot_b
        assert pipeline_a.manifest_digest != pipeline_b.manifest_digest
        pairs = _pairs(["swap row %d" % i for i in range(8)])
        expected = {
            pipeline_a.manifest_digest:
                SequentialScorer(pipeline_a).score_pairs(pairs),
            pipeline_b.manifest_digest:
                SequentialScorer(pipeline_b).score_pairs(pairs),
        }
        with ModelRegistry() as registry:
            registry.publish("prod", dir_a)
            engine = registry.resolve("prod")  # request "in flight" ...
            registry.publish("prod", dir_b)    # ... while the swap lands
            # The engine it resolved still answers on the old snapshot,
            # bit-identically.
            assert engine.snapshot_digest == pipeline_a.manifest_digest
            old = engine.score_request(as_request(pairs))
            assert old.decisions == expected[pipeline_a.manifest_digest]
            # New resolutions land on the new snapshot.
            fresh = registry.resolve("prod")
            assert fresh.snapshot_digest == pipeline_b.manifest_digest
            new = fresh.score_request(as_request(pairs))
            assert new.decisions == expected[pipeline_b.manifest_digest]

    def test_hot_swap_under_load_is_bit_identical(
            self, snapshot_a, snapshot_b):
        """Worker threads score nonstop while the snapshot republishes:
        every single response must match the sequential reference for the
        snapshot it names — no torn generation, ever."""
        pipeline_a, dir_a = snapshot_a
        pipeline_b, dir_b = snapshot_b
        pairs = _pairs(["load row %d" % i for i in range(10)])
        expected = {
            pipeline_a.manifest_digest:
                SequentialScorer(pipeline_a).score_pairs(pairs),
            pipeline_b.manifest_digest:
                SequentialScorer(pipeline_b).score_pairs(pairs),
        }
        registry = ModelRegistry(cache=ScoreCache(capacity=4096))
        registry.publish("prod", dir_a)
        started = threading.Event()
        errors, seen = [], set()
        seen_lock = threading.Lock()

        def worker():
            try:
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    response = registry.resolve("prod").score_request(
                        as_request(pairs))
                    digest = response.snapshot_digest
                    assert response.decisions == expected[digest]
                    started.set()
                    with seen_lock:
                        seen.add(digest)
                    if digest == pipeline_b.manifest_digest:
                        return  # observed the swap; done
                errors.append(AssertionError("never observed the swap"))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker) for __ in range(4)]
        for thread in threads:
            thread.start()
        assert started.wait(60)  # old generation served at least once
        registry.publish("prod", dir_b)
        for thread in threads:
            thread.join()
        registry.close()
        assert errors == []
        assert seen == {pipeline_a.manifest_digest,
                        pipeline_b.manifest_digest}


class TestDaemonAdmission:
    def test_backpressure_rejects_past_high_water(self, snapshot_a):
        __, directory = snapshot_a
        pairs = _pairs(["admission row %d" % i for i in range(8)], tag="q")
        config = DaemonConfig(max_queued_pairs=10)

        async def scenario():
            from repro.serve import ServeDaemon
            registry = ModelRegistry()
            registry.publish("default", directory)
            daemon = ServeDaemon(registry, config)
            first = asyncio.ensure_future(
                daemon.submit(ScoreRequest(pairs=tuple(pairs))))
            await asyncio.sleep(0)  # first request is now queued (8/10)
            with pytest.raises(BackpressureError) as err:
                await daemon.submit(ScoreRequest(pairs=tuple(pairs)))
            assert MIN_RETRY_AFTER <= err.value.retry_after \
                <= MAX_RETRY_AFTER
            response = await first  # the admitted request still completes
            assert len(response.decisions) == len(pairs)
            stats = daemon.snapshot_stats()
            assert stats["rejected"] == 1 and stats["responses"] == 1
            assert stats["pending_pairs"] == 0
            await daemon.aclose()

        asyncio.run(asyncio.wait_for(scenario(), timeout=120))

    def test_request_larger_than_the_budget_is_refused_not_retried(
            self, snapshot_a):
        """A request that can never fit is a bad request, not backpressure:
        telling its client to retry would only repeat the rejection."""
        __, directory = snapshot_a
        pairs = _pairs(["oversize row %d" % i for i in range(40)], tag="o")
        config = DaemonConfig(max_queued_pairs=32)

        async def scenario():
            registry = ModelRegistry()
            registry.publish("default", directory)
            daemon = ServeDaemon(registry, config)
            with pytest.raises(ValueError, match="40.*32"):
                await daemon.submit(ScoreRequest(pairs=tuple(pairs)))
            stats = daemon.snapshot_stats()
            await daemon.aclose()
            return stats

        stats = asyncio.run(asyncio.wait_for(scenario(), timeout=120))
        assert stats["rejected"] == 0 and stats["pending_pairs"] == 0

        registry = ModelRegistry()
        registry.publish("default", directory)
        with start_daemon_thread(registry, config) as handle:
            with DaemonClient(*handle.address, max_retries=5) as client:
                with pytest.raises(DaemonError) as err:
                    client.score(pairs)
                assert not isinstance(err.value, DaemonBusy)
                assert err.value.code == "bad-request"
                stats = client.stats()
        # One exchange: the client did not retry a request that never fits.
        assert stats["requests"] == 1 and stats["rejected"] == 0


def _submit_behind_held_lane(monkeypatch, registry, requests, fail=False,
                             cancel=None):
    """Hold the first engine run on the scoring lane (and make it raise if
    ``fail``), submit each ``(domain, pairs)`` request a loop step apart,
    cancel the caller of request ``cancel`` if given, then release the
    lane.  Returns every request's result, the submission indices in the
    order the lane ran them, the daemon's stats while the lane was held,
    and its stats once every caller returned."""
    release = threading.Event()
    ran = []

    def hold_first_run(engine):
        score_request = engine.score_request

        def gated(request):
            ran.append(request.request_id)
            if len(ran) == 1:
                assert release.wait(60), "the lane was never released"
                if fail:
                    raise RuntimeError("engine failed")
            return score_request(request)

        monkeypatch.setattr(engine, "score_request", gated)

    for domain in registry.domains():
        hold_first_run(registry.resolve(domain))

    async def scenario():
        daemon = ServeDaemon(registry, DaemonConfig())
        ids, tasks = [], []
        try:
            for domain, pairs in requests:
                request = ScoreRequest(pairs=tuple(pairs), domain=domain)
                ids.append(request.request_id)
                tasks.append(asyncio.ensure_future(daemon.submit(request)))
                await asyncio.sleep(0)  # submit ran up to its await
            if cancel is not None:
                tasks[cancel].cancel()
                await asyncio.sleep(0)
            held = daemon.snapshot_stats()
        finally:
            release.set()
        results = await asyncio.gather(*tasks, return_exceptions=True)
        stats = daemon.snapshot_stats()
        await daemon.aclose()
        return results, [ids.index(i) for i in ran], held, stats

    return asyncio.run(asyncio.wait_for(scenario(), timeout=120))


class TestDaemonDispatch:
    """One lane job per admitted request, run in arrival order."""

    @staticmethod
    def _chunks(tag, count, size=4):
        pairs = _pairs([f"{tag} row {i}" for i in range(count * size)],
                       tag=tag)
        return [pairs[i:i + size] for i in range(0, count * size, size)]

    def test_lone_request_dispatches_at_once(self, snapshot_a):
        __, directory = snapshot_a
        (chunk,) = self._chunks("lone", 1)

        async def scenario():
            registry = ModelRegistry()
            registry.publish("default", directory)
            daemon = ServeDaemon(registry, DaemonConfig())
            task = asyncio.ensure_future(
                daemon.submit(ScoreRequest(pairs=tuple(chunk))))
            await asyncio.sleep(0)  # submit ran up to its await
            stats = daemon.snapshot_stats()
            answered = task.done()
            await task
            await daemon.aclose()
            return stats, answered

        stats, answered = asyncio.run(
            asyncio.wait_for(scenario(), timeout=120))
        assert not answered
        assert stats["flushes"] == 1
        assert stats["pending_pairs"] == len(chunk)

    def test_lane_runs_requests_in_arrival_order_across_tenants(
            self, snapshot_a, snapshot_b, monkeypatch):
        pipeline_a, dir_a = snapshot_a
        pipeline_b, dir_b = snapshot_b
        a1, a2, a3 = self._chunks("tenant a", 3)
        (b1,) = self._chunks("tenant b", 1)
        requests = [("a", a1), ("a", a2), ("b", b1), ("a", a3)]
        pipelines = {"a": pipeline_a, "b": pipeline_b}
        # The contract: each reply is bit-identical to a standalone
        # sequential engine scoring that request ALONE on its snapshot.
        expected = [SequentialScorer(pipelines[domain]).score_pairs(pairs)
                    for domain, pairs in requests]
        registry = ModelRegistry()
        registry.publish("a", dir_a)
        registry.publish("b", dir_b)
        results, order, held, stats = _submit_behind_held_lane(
            monkeypatch, registry, requests)
        # A1 holds the lane; A2, B1 and A3 wait in the order they came.
        assert held["pending_pairs"] == 16
        assert order == [0, 1, 2, 3]
        assert [r.decisions for r in results] == expected
        assert [r.snapshot_digest for r in results] == [
            pipelines[domain].manifest_digest for domain, __ in requests]
        assert stats["flushes"] == stats["merged_requests"] == 4
        assert stats["responses"] == 4 and stats["pending_pairs"] == 0

    def test_failed_flush_still_dispatches_what_queued_behind_it(
            self, snapshot_a, monkeypatch):
        pipeline, directory = snapshot_a
        chunks = self._chunks("fail", 3)
        expected = [SequentialScorer(pipeline).score_pairs(chunk)
                    for chunk in chunks[1:]]
        registry = ModelRegistry()
        registry.publish("default", directory)
        results, order, held, stats = _submit_behind_held_lane(
            monkeypatch, registry, [("default", c) for c in chunks],
            fail=True)
        assert held["pending_pairs"] == 12
        assert isinstance(results[0], RuntimeError)
        assert [r.decisions for r in results[1:]] == expected
        assert stats["failed"] == 1 and stats["responses"] == 2
        assert stats["pending_pairs"] == 0

    def test_cancelled_caller_leaves_its_job_on_the_lane(
            self, snapshot_a, monkeypatch):
        """Cancelling a caller neither cancels its queued job nor drops it
        from the counts, and the requests around it are answered."""
        pipeline, directory = snapshot_a
        chunks = self._chunks("cancel", 3)
        expected = [SequentialScorer(pipeline).score_pairs(chunk)
                    for chunk in chunks]
        registry = ModelRegistry()
        registry.publish("default", directory)
        results, order, held, stats = _submit_behind_held_lane(
            monkeypatch, registry, [("default", c) for c in chunks],
            cancel=1)
        assert held["pending_pairs"] == 12
        assert isinstance(results[1], asyncio.CancelledError)
        assert [results[0].decisions, results[2].decisions] == [
            expected[0], expected[2]]
        assert order == [0, 1, 2]  # the cancelled request still ran
        assert stats["pending_pairs"] == 0
        assert stats["responses"] == 3 and stats["failed"] == 0


class TestDaemonTracing:
    def test_each_request_is_its_own_trace(self, snapshot_a, tmp_path):
        """Sequential requests from one task are siblings, not a chain,
        and each engine run's spans nest under their own request."""
        __, directory = snapshot_a

        async def scenario():
            registry = ModelRegistry()
            registry.publish("default", directory)
            daemon = ServeDaemon(registry, DaemonConfig())
            for size in (1, 2, 3):
                await daemon.submit(ScoreRequest(pairs=tuple(
                    _pairs([f"trace row {i}" for i in range(size)],
                           tag=str(size)))))
            await daemon.aclose()

        with TelemetrySession("daemon-trace", trace_dir=tmp_path):
            asyncio.run(asyncio.wait_for(scenario(), timeout=120))
            spans = {r["id"]: r for r in TRACER.records()
                     if r["type"] == "span"}

        def named(name):
            return [r for r in spans.values() if r["name"] == name]

        requests, runs = named("serve.request"), named("serve.run")
        assert len(requests) == len(runs) == 3
        assert [r["parent"] for r in requests] == [None, None, None]
        for run in runs:
            request = spans[run["parent"]]
            assert request["name"] == "serve.request"
            assert request["attrs"]["num_pairs"] == run["attrs"]["num_pairs"]
        assert {run["parent"] for run in runs} == {r["id"] for r in requests}
        batches = named("serve.batch")
        assert batches and all(
            spans[b["parent"]]["name"] == "serve.run" for b in batches)


class TestDaemonEndToEnd:
    """Full TCP path: N concurrent clients against an in-process daemon."""

    def test_concurrent_clients_bit_identical_with_hot_swap(
            self, snapshot_a, snapshot_b):
        pipeline_a, dir_a = snapshot_a
        pipeline_b, dir_b = snapshot_b
        num_clients = 8
        pairs = _pairs(["wire row %d" % i for i in range(6)], tag="w")
        expected = {
            pipeline_a.manifest_digest:
                SequentialScorer(pipeline_a).score_pairs(pairs),
            pipeline_b.manifest_digest:
                SequentialScorer(pipeline_b).score_pairs(pairs),
        }
        registry = ModelRegistry(cache=ScoreCache(capacity=4096))
        registry.publish("default", dir_a)
        config = DaemonConfig()
        errors = []
        served = []
        barrier = threading.Barrier(num_clients)

        def client_worker(host, port, phase_swap):
            try:
                with DaemonClient(host, port) as client:
                    for phase in range(2):
                        barrier.wait()
                        reply = client.score(pairs)
                        assert reply.decisions == expected[reply.digest]
                        served.append(reply.digest)
                        if phase == 1:
                            # after the swap barrier everyone is on B
                            assert reply.digest == \
                                pipeline_b.manifest_digest
                        if phase_swap and phase == 0:
                            client.publish("default", str(dir_b))
                        barrier.wait()
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        with start_daemon_thread(registry, config) as handle:
            host, port = handle.address
            threads = [
                threading.Thread(target=client_worker,
                                 args=(host, port, index == 0))
                for index in range(num_clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            with DaemonClient(host, port) as probe:
                stats = probe.stats()
        assert errors == []
        assert stats["failed"] == 0  # the swap dropped zero requests
        assert stats["responses"] == 2 * num_clients
        # both snapshot generations actually served traffic
        assert len(expected) == 2 and set(served) == set(expected)
        # Every request was its own lane job.
        assert stats["flushes"] == stats["merged_requests"] == 16

    def test_wire_errors_and_introspection_ops(self, snapshot_a):
        __, directory = snapshot_a
        registry = ModelRegistry()
        digest = registry.publish("default", directory)
        with start_daemon_thread(registry, DaemonConfig()) as handle:
            with DaemonClient(*handle.address) as client:
                assert client.ping()
                assert client.domains() == {"default": digest}
                with pytest.raises(DaemonError) as err:
                    client.score(_pairs(["x"]), domain="nope")
                assert err.value.code == "unknown-domain"
                assert err.value.reply["known"] == ["default"]
                bad = client.call({"op": "frobnicate"})
                assert bad["error"] == "unknown-op"
                garbage = client.call({"op": "score", "pairs": "not-a-list"})
                assert garbage["ok"] is False
                reply = client.score(_pairs(["alpha", "beta"]),
                                     request_id="my-id-42")
                assert reply.request_id == "my-id-42"
                assert reply.digest == digest
                assert reply.latency_seconds > 0.0

    def test_shutdown_drains_cleanly(self, snapshot_a):
        __, directory = snapshot_a
        registry = ModelRegistry()
        registry.publish("default", directory)
        handle = start_daemon_thread(registry, DaemonConfig())
        with DaemonClient(*handle.address) as client:
            assert len(client.score(_pairs(["final row"])).decisions) == 1
            client.shutdown()
        handle.stop()  # joins; raises if the daemon died uncleanly
