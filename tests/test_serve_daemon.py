"""Tests for the online serving stack: registry, daemon, wire protocol.

The invariants under test are the serving layer's contract:

* hot swap is zero-downtime — leases pin the old generation, new requests
  route to the new one, and decisions stay bit-identical to a sequential
  engine on *whichever* snapshot answered;
* admission control rejects with an actionable retry hint instead of
  queueing unboundedly;
* cross-request micro-batching merges concurrent requests without
  changing a single decision bit.
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
                         ScoreRequest, SequentialScorer, UnknownDomain,
                         as_request, start_daemon_thread)


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
        config = DaemonConfig(max_queued_pairs=10, max_batch_pairs=100,
                              flush_interval=0.02)

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

    def test_merges_concurrent_requests_into_one_flush(self, snapshot_a):
        pipeline, directory = snapshot_a
        all_pairs = _pairs(["merge row %d" % i for i in range(12)], tag="m")
        chunks = [all_pairs[i:i + 4] for i in range(0, 12, 4)]
        # The contract: a merged request's decisions are bit-identical to a
        # standalone sequential engine scoring that request ALONE — the
        # flush amortizes overhead, it never changes batch composition.
        expected = [SequentialScorer(pipeline).score_pairs(chunk)
                    for chunk in chunks]
        config = DaemonConfig(max_batch_pairs=256, flush_interval=0.25)

        async def scenario():
            from repro.serve import ServeDaemon
            registry = ModelRegistry()
            registry.publish("default", directory)
            daemon = ServeDaemon(registry, config)
            responses = await asyncio.gather(*[
                daemon.submit(ScoreRequest(pairs=tuple(chunk)))
                for chunk in chunks])
            got = [r.decisions for r in responses]
            stats = daemon.snapshot_stats()
            await daemon.aclose()
            return got, stats

        got, stats = asyncio.run(asyncio.wait_for(scenario(), timeout=120))
        assert got == expected  # merged scoring is bit-identical
        assert stats["flushes"] == 1  # all three requests shared one batch
        assert stats["merged_requests"] == 3
        assert stats["requests_per_flush"] == 3.0
        assert stats["merge_efficiency"] == pytest.approx(2 / 3)


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
        config = DaemonConfig(flush_interval=0.02)
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
