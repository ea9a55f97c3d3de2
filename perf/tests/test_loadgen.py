"""Open-loop latency is counted from each request's due time."""

import json
import socket
import threading

import pytest

from perf.loadgen import open_loop
from repro.serve import DaemonClient

STALL_S = 0.3
RATE = 50.0  # one request due every 20 ms


class StallingServer:
    """Speaks the daemon's JSON-lines ``score`` reply; stalls on the
    first request only."""

    def __init__(self):
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.address = self.sock.getsockname()[:2]
        self.stalled = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        conn, __ = self.sock.accept()
        with conn, conn.makefile("rb") as reader:
            for line in reader:
                message = json.loads(line)
                if not self.stalled.is_set():
                    self.stalled.set()
                    threading.Event().wait(STALL_S)
                reply = {"ok": True, "id": message["id"],
                         "latency_seconds": 0.0, "decisions": []}
                conn.sendall(json.dumps(reply).encode() + b"\n")

    def close(self):
        self.sock.close()
        self.thread.join(timeout=5)


@pytest.fixture()
def server():
    stub = StallingServer()
    yield stub
    stub.close()


def test_latency_counts_the_stall_from_due_time(server):
    samples = open_loop(lambda: DaemonClient(*server.address),
                        [[] for __ in range(8)], RATE, connections=1)
    assert all(s.ok for s in samples)
    first, second, last = samples[0], samples[1], samples[-1]
    assert first.latency >= STALL_S
    # Request 1 was due 20 ms in but could only be sent after the stall:
    # its latency includes the wait, and the generator reports it late.
    assert second.late >= STALL_S - 1 / RATE - 0.01
    assert second.latency >= STALL_S - 1 / RATE - 0.01
    assert second.done - second.sent < STALL_S / 2
    # Later requests still carry what remains of the backlog.
    assert last.latency >= STALL_S - len(samples) / RATE - 0.01
    assert [s.index for s in samples] == list(range(len(samples)))


def test_refused_connection_raises():
    port = socket.create_server(("127.0.0.1", 0))
    address = port.getsockname()[:2]
    port.close()
    with pytest.raises(OSError):
        open_loop(lambda: DaemonClient(*address), [[]], RATE)
