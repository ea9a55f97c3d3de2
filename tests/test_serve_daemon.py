"""Tests for the online serving stack: registry, daemon, wire protocol.

The invariants under test are the serving layer's contract:

* hot swap is zero-downtime — leases pin the old generation, new requests
  route to the new one, and decisions stay bit-identical to a sequential
  engine on *whichever* snapshot answered;
* admission control rejects with an actionable retry hint instead of
  queueing unboundedly;
* dispatch is work-conserving: a request reaches an idle scoring lane
  at once, only requests queued behind a busy lane merge, and merging
  never changes a single decision bit;
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
from repro.serve import (BackpressureError, DaemonClient, DaemonConfig,
                         DaemonError, ModelRegistry, ScoreCache,
                         ScoreRequest, SequentialScorer, ServeDaemon,
                         UnknownDomain, as_request, start_daemon_thread)
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
            with registry.resolve("prod") as lease:
                assert lease.digest == digest
                pairs = _pairs(["registry row %d" % i for i in range(6)])
                got = lease.engine.score_request(as_request(pairs))
                assert got.snapshot_digest == digest
                assert len(got.decisions) == 6

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
            lease = registry.resolve("prod")  # request "in flight" ...
            registry.publish("prod", dir_b)   # ... while the swap lands
            # The lease still answers on the old snapshot, bit-identically.
            assert lease.digest == pipeline_a.manifest_digest
            old = lease.engine.score_request(as_request(pairs))
            assert old.decisions == expected[pipeline_a.manifest_digest]
            lease.release()
            # New resolutions land on the new generation.
            with registry.resolve("prod") as fresh:
                assert fresh.digest == pipeline_b.manifest_digest
                new = fresh.engine.score_request(as_request(pairs))
                assert new.decisions == expected[pipeline_b.manifest_digest]

    def test_retired_threaded_tenant_joins_its_threads(
            self, snapshot_a, snapshot_b):
        __, dir_a = snapshot_a
        pipeline_b, dir_b = snapshot_b
        pairs = _pairs(["thread row %d" % i for i in range(40)])
        before = set(threading.enumerate())

        def score_threads():
            return [t for t in set(threading.enumerate()) - before
                    if t.name.startswith("repro-score")]

        with ModelRegistry(max_batch_pairs=4) as registry:
            registry.publish("prod", dir_a, num_workers=2)
            with registry.resolve("prod") as lease:
                lease.engine.score_request(as_request(pairs))
                old_threads = score_threads()
                assert old_threads
                registry.publish("prod", dir_b, num_workers=2)
                # The lease pins the retired engine and its threads.
                assert all(t.is_alive() for t in old_threads)
            # Last lease released: the retired engine joined its threads.
            assert not any(t.is_alive() for t in old_threads)
            with registry.resolve("prod") as fresh:
                expected = SequentialScorer(
                    pipeline_b, fresh.engine.scheduler).score_pairs(pairs)
                got = fresh.engine.score_request(as_request(pairs))
                assert got.decisions == expected
        assert score_threads() == []

    def test_hot_swap_under_load_is_bit_identical(
            self, snapshot_a, snapshot_b):
        """Worker threads score nonstop while the snapshot republishes:
        every single response must match the sequential reference for the
        digest its lease pinned — no torn generation, ever."""
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
                    with registry.resolve("prod") as lease:
                        response = lease.engine.score_request(
                            as_request(pairs))
                        assert response.decisions == expected[lease.digest]
                    started.set()
                    with seen_lock:
                        seen.add(lease.digest)
                    if lease.digest == pipeline_b.manifest_digest:
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
        config = DaemonConfig(max_queued_pairs=10, max_batch_pairs=100)

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
            assert config.min_retry_after <= err.value.retry_after \
                <= config.max_retry_after
            response = await first  # the admitted request still completes
            assert len(response.decisions) == len(pairs)
            stats = daemon.snapshot_stats()
            assert stats["rejected"] == 1 and stats["responses"] == 1
            assert stats["queued_pairs"] == 0
            await daemon.aclose()

        asyncio.run(asyncio.wait_for(scenario(), timeout=120))


def _submit_behind_held_lane(monkeypatch, directory, chunks, config,
                             fail=False):
    """Hold the first engine run on the scoring lane (and make it raise if
    ``fail``), submit one request per chunk a loop step apart, then release
    the lane.  Returns every request's result, the daemon's stats while the
    lane was held, and its stats once every request was answered."""

    async def scenario():
        registry = ModelRegistry()
        registry.publish("default", directory)
        with registry.resolve("default") as lease:
            engine = lease.engine
        score_request = engine.score_request
        release = threading.Event()
        calls = []

        def gated(request):
            calls.append(request.request_id)
            if len(calls) == 1:
                assert release.wait(60), "the lane was never released"
                if fail:
                    raise RuntimeError("engine failed")
            return score_request(request)

        monkeypatch.setattr(engine, "score_request", gated)
        daemon = ServeDaemon(registry, config)
        try:
            tasks = []
            for chunk in chunks:
                tasks.append(asyncio.ensure_future(
                    daemon.submit(ScoreRequest(pairs=tuple(chunk)))))
                await asyncio.sleep(0)  # submit ran up to its await
            held = daemon.snapshot_stats()
        finally:
            release.set()
        results = await asyncio.gather(*tasks, return_exceptions=True)
        stats = daemon.snapshot_stats()
        await daemon.aclose()
        return results, held, stats

    return asyncio.run(asyncio.wait_for(scenario(), timeout=120))


class TestDaemonDispatch:
    """Work-conserving dispatch: an idle lane takes a request at once, and
    only what queues behind a busy lane merges."""

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
        assert stats["flushes"] == 1 and stats["queued_pairs"] == 0
        assert stats["inflight_pairs"] == len(chunk)

    def test_requests_behind_a_busy_lane_share_the_next_flush(
            self, snapshot_a, monkeypatch):
        pipeline, directory = snapshot_a
        chunks = self._chunks("merge", 4)
        # The contract: a merged request's decisions are bit-identical to a
        # standalone sequential engine scoring that request ALONE.
        expected = [SequentialScorer(pipeline).score_pairs(chunk)
                    for chunk in chunks]
        results, held, stats = _submit_behind_held_lane(
            monkeypatch, directory, chunks, DaemonConfig(max_batch_pairs=256))
        assert held["flushes"] == 1 and held["queued_pairs"] == 12
        assert [r.decisions for r in results] == expected
        # The three queued requests shared the second flush.
        assert stats["flushes"] == 2 and stats["merged_requests"] == 4
        assert stats["merge_efficiency"] == pytest.approx(2 / 4)

    def test_full_collector_flushes_without_waiting_for_the_lane(
            self, snapshot_a, monkeypatch):
        pipeline, directory = snapshot_a
        chunks = self._chunks("cap", 4)
        expected = [SequentialScorer(pipeline).score_pairs(chunk)
                    for chunk in chunks]
        results, held, stats = _submit_behind_held_lane(
            monkeypatch, directory, chunks, DaemonConfig(max_batch_pairs=8))
        # Requests 2 and 3 reached the 8-pair cap and flushed behind the
        # held lane; request 4 waited for the lane to go idle.
        assert held["flushes"] == 2 and held["queued_pairs"] == 4
        assert [r.decisions for r in results] == expected
        assert stats["flushes"] == 3 and stats["merged_requests"] == 4

    def test_failed_flush_still_dispatches_what_queued_behind_it(
            self, snapshot_a, monkeypatch):
        pipeline, directory = snapshot_a
        chunks = self._chunks("fail", 3)
        expected = [SequentialScorer(pipeline).score_pairs(chunk)
                    for chunk in chunks[1:]]
        results, held, stats = _submit_behind_held_lane(
            monkeypatch, directory, chunks, DaemonConfig(), fail=True)
        assert held["queued_pairs"] == 8
        assert isinstance(results[0], RuntimeError)
        assert [r.decisions for r in results[1:]] == expected
        assert stats["failed"] == 1 and stats["responses"] == 2
        assert stats["queued_pairs"] == 0 and stats["inflight_pairs"] == 0


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
        # Concurrent same-digest requests shared flushes.
        assert stats["flushes"] < stats["responses"]
        assert stats["merge_efficiency"] > 0.0

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
