"""Risk routing through the serving stack, and the serving satellites.

The load-bearing invariant: turning risk routing ON must not move a
single decision bit — in the sequential engine, in the parallel engine,
and across the daemon's wire protocol.  Routing annotates; it never
decides.  Plus the two serving satellites riding this PR: the
``_retry_after`` cold-start fix and the client's transparent reconnect
with its idempotency guard.
"""

import json
import socket
import threading

import numpy as np
import pytest

from repro.data import ERDataset
from repro.pipeline import ERPipeline
from repro.risk import (AUTO_MATCH, AUTO_NON_MATCH, REVIEW, ReviewQueue,
                        RiskBand, RiskRouter, calibrate_snapshot)
from repro.serve import (DaemonClient, DaemonConfig, DaemonError,
                         ModelRegistry, ParallelScorer, SequentialScorer,
                         ServeDaemon, as_request, start_daemon_thread,
                         synthetic_candidates)


def _build_snapshot(tmp_path_factory, tiny_lm, seed, label):
    from repro.matcher import MlpMatcher
    from repro.pretrain import fresh_copy
    extractor = fresh_copy(tiny_lm[0], seed=seed)
    extractor.eval()
    matcher = MlpMatcher(extractor.feature_dim, np.random.default_rng(seed))
    matcher.eval()
    pipeline = ERPipeline(extractor, matcher)
    directory = tmp_path_factory.mktemp(f"risk_{label}") / "pipeline"
    pipeline.save(directory)
    return directory


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory, tiny_lm):
    """A calibrated snapshot: calibration.json persisted before any engine
    loads it, so every engine in this module sees the same digest."""
    directory = _build_snapshot(tmp_path_factory, tiny_lm, seed=11,
                                label="serve")
    pairs = synthetic_candidates(32, seed=13)
    valid = ERDataset("valid", "bench", [
        p.with_label(int(p.left.attributes == p.right.attributes))
        for p in pairs])
    calibrate_snapshot(directory, valid)
    return directory


@pytest.fixture(scope="module")
def workload():
    return synthetic_candidates(24, seed=17)


def _router(tmp_path, name="q"):
    # A band this wide guarantees some review traffic from a tiny matcher.
    return RiskRouter(band=RiskBand(0.05, 0.95),
                      queue=ReviewQueue(tmp_path / name))


class TestEngineBitIdentity:
    def test_sequential_routing_is_bit_identical(self, snapshot, workload,
                                                 tmp_path):
        pipeline = ERPipeline.load(snapshot)
        plain = SequentialScorer(pipeline).score_pairs(workload)
        router = _router(tmp_path)
        routed_engine = SequentialScorer.from_directory(snapshot,
                                                        router=router)
        routed = routed_engine.score_pairs(workload)
        assert routed == plain  # same bits, routing on or off
        response = routed_engine.score_request(as_request(workload))
        assert response.routing is not None
        assert len(response.routing) == len(workload)
        assert router.stats()["counts"]  # something actually routed

    def test_parallel_routing_is_bit_identical(self, snapshot, workload,
                                               tmp_path):
        plain = SequentialScorer(ERPipeline.load(snapshot)
                                 ).score_pairs(workload)
        with ParallelScorer(snapshot, num_workers=2,
                            router=_router(tmp_path)) as scorer:
            routed = scorer.score_pairs(workload)
        assert routed == plain

    def test_engines_agree_on_review_rate(self, snapshot, workload,
                                          tmp_path):
        # Both engines load the same calibration.json, so the same pairs
        # must land in the band regardless of execution strategy.
        sequential = _router(tmp_path, "seq")
        SequentialScorer.from_directory(
            snapshot, router=sequential).score_pairs(workload)
        parallel = _router(tmp_path, "par")
        with ParallelScorer(snapshot, num_workers=2,
                            router=parallel) as scorer:
            scorer.score_pairs(workload)
        assert sequential.stats()["counts"] == parallel.stats()["counts"]


class TestDaemonRouting:
    def test_wire_carries_routing_and_stays_bit_identical(
            self, snapshot, workload, tmp_path):
        plain = SequentialScorer(ERPipeline.load(snapshot)
                                 ).score_pairs(workload)
        router = _router(tmp_path)
        registry = ModelRegistry(router=router)
        registry.publish("default", snapshot)
        with start_daemon_thread(registry, DaemonConfig()) as handle:
            with DaemonClient(*handle.address) as client:
                reply = client.score(workload)
                stats = client.stats()
                client.shutdown()
        assert reply.decisions == plain  # the wire moved zero bits
        assert reply.routing is not None
        assert len(reply.routing) == len(workload)
        for annotation in reply.routing:
            assert annotation["decision"] in (AUTO_MATCH, AUTO_NON_MATCH,
                                              REVIEW)
            assert 0.0 <= annotation["confidence"] <= 1.0
        assert stats["risk"]["band"] == [0.05, 0.95]
        assert stats["risk"]["counts"] == router.stats()["counts"]
        reviews = sum(1 for a in reply.routing
                      if a["decision"] == REVIEW)
        assert router.queue.stats()["pending"] == reviews

    def test_routing_off_reply_has_no_annotations(self, snapshot, workload):
        registry = ModelRegistry()
        registry.publish("default", snapshot)
        with start_daemon_thread(registry, DaemonConfig()) as handle:
            with DaemonClient(*handle.address) as client:
                reply = client.score(workload[:4])
                stats = client.stats()
                client.shutdown()
        assert reply.routing is None
        assert stats["risk"] is None


class TestRetryAfterColdStart:
    def _daemon(self):
        return ServeDaemon(ModelRegistry())

    def test_cold_hint_is_monotone_in_backlog(self):
        # Regression: before the fix, a daemon with no completed job
        # handed every rejected client the flat floor, inviting them all
        # back at once regardless of backlog depth.
        daemon = self._daemon()
        hints = []
        for backlog in (0, 100, 1000, 4000):
            daemon._pending_pairs = backlog
            hints.append(daemon._retry_after())
        assert hints == sorted(hints)
        assert hints[-1] > hints[0]  # deep backlog waits strictly longer
        assert all(0.01 <= h <= 5.0 for h in hints)

    def test_warm_hint_uses_measured_rate(self):
        daemon = self._daemon()
        daemon._pending_pairs = 500
        daemon._pairs_per_second = 1000.0
        assert daemon._retry_after() == pytest.approx(0.5)

    def test_hint_respects_ceiling(self):
        daemon = self._daemon()
        daemon._pending_pairs = 10_000
        daemon._pairs_per_second = 0.5
        assert daemon._retry_after() == 5.0


class _FlakyServer:
    """A stub daemon whose first reply dies mid-line.

    Connection 1 answers the first request with HALF a reply and closes —
    the wire death a real daemon crash or reset produces.  Subsequent
    connections answer properly, echoing each request's id.
    """

    def __init__(self, truncate_first=True, truncate_always=False,
                 answer_id=None):
        self.truncate_first = truncate_first
        self.truncate_always = truncate_always
        self.answer_id = answer_id  # force a wrong id (stale-reply test)
        self.connections = 0
        self.requests_seen = []
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(4)
        self.address = self._listener.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, __ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            first_of_connection = self.connections == 1
            with conn:
                reader = conn.makefile("rb")
                for line in reader:
                    message = json.loads(line)
                    self.requests_seen.append(message)
                    reply = {"ok": True, "op": "score",
                             "id": (self.answer_id if self.answer_id
                                    is not None else message.get("id")),
                             "domain": "default", "digest": "stub",
                             "latency_seconds": 0.001,
                             "decisions": [{"left_id": "l0",
                                            "right_id": "r0",
                                            "probability": 0.9,
                                            "is_match": True}]}
                    payload = json.dumps(reply).encode() + b"\n"
                    if self.truncate_always or (self.truncate_first
                                                and first_of_connection):
                        conn.sendall(payload[:len(payload) // 2])
                        reader.close()  # release the fd so FIN is sent now
                        try:
                            conn.shutdown(socket.SHUT_RDWR)
                        except OSError:
                            pass
                        break  # died mid-reply
                    conn.sendall(payload)

    def close(self):
        self._listener.close()


class TestClientReconnect:
    def test_reconnects_through_mid_reply_death(self):
        server = _FlakyServer(truncate_first=True)
        try:
            client = DaemonClient(*server.address, timeout=10.0,
                                  max_reconnects=3)
            reply = client.call({"op": "score", "id": "req-1", "pairs": []})
            client.close()
        finally:
            server.close()
        # The truncated reply was discarded, the client reconnected once,
        # resent, and applied exactly one full reply for the right id.
        assert reply["ok"] and reply["id"] == "req-1"
        assert client.reconnects == 1
        assert server.connections == 2
        assert [m["id"] for m in server.requests_seen] == ["req-1", "req-1"]

    def test_reconnect_budget_is_bounded(self):
        # Every connection dies mid-reply: after max_reconnects attempts
        # the transport error surfaces instead of looping forever.
        server = _FlakyServer(truncate_always=True)
        try:
            client = DaemonClient(*server.address, timeout=10.0,
                                  max_reconnects=2)
            with pytest.raises(ConnectionError):
                client.call({"op": "score", "id": "req-2", "pairs": []})
            client.close()
        finally:
            server.close()
        assert client.reconnects == 2

    def test_stale_reply_rejected_not_applied(self):
        server = _FlakyServer(truncate_first=False, answer_id="ghost-id")
        try:
            client = DaemonClient(*server.address)
            with pytest.raises(DaemonError) as err:
                client.call({"op": "score", "id": "req-3", "pairs": []})
            client.close()
        finally:
            server.close()
        assert err.value.code == "stale-reply"
        assert "req-3" in str(err.value)

    def test_shutdown_is_never_resent(self):
        server = _FlakyServer(truncate_first=True)
        try:
            client = DaemonClient(*server.address, timeout=10.0,
                                  max_reconnects=3)
            with pytest.raises(ConnectionError):
                client.call({"op": "shutdown", "id": "req-4"},
                            retry_transport=False)
            client.close()
        finally:
            server.close()
        assert client.reconnects == 0
        assert len(server.requests_seen) == 1  # exactly one send, ever
