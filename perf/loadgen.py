"""Open-loop load generation against a ``repro serve`` daemon process.

Requests are *due* on a fixed schedule (request ``i`` at ``start + i /
rate``) whatever the daemon does, like independent users; each one is
timed from its due time, so a stall that delays later requests is charged
to them, and the generator reports how late it sent each one.  One
process drives the load from ``connections`` threads, each owning one
blocking connection.
"""

from __future__ import annotations

import contextvars
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.serve import DaemonClient, DaemonError

_LISTENING = re.compile(r"listening on ([0-9.]+):(\d+)")

#: Seconds a daemon may take from spawn to its listening line.
START_TIMEOUT_S = 60.0


@dataclass
class Sample:
    """One request of an open-loop step."""

    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    ok: bool = False
    #: The reply (``ScoredReply``) when ``ok``; the error otherwise.
    reply: Any = None

    @property
    def latency(self) -> float:
        """Seconds from due time to reply; ``inf`` for a failed request,
        which misses every latency limit."""
        return self.done - self.due if self.ok else float("inf")

    @property
    def late(self) -> float:
        """Seconds the generator sent the request after it was due."""
        return self.sent - self.due


def open_loop(connect: Callable[[], DaemonClient], payloads: Sequence[Any],
              rate: float, connections: int = 2) -> List[Sample]:
    """Send ``payloads[i]`` at ``start + i / rate``; returns one sample each.

    ``connect()`` opens one client per thread, closed afterwards; each
    request is one ``client.score(payload)``.  A
    :class:`~repro.serve.DaemonError` or transport error marks the sample
    failed; the loop goes on.
    """
    if rate <= 0 or connections < 1:
        raise ValueError("rate and connections must be positive")
    start = time.perf_counter() + 0.02
    samples = [Sample(i, start + i / rate) for i in range(len(payloads))]
    next_index = iter(range(len(payloads)))
    lock = threading.Lock()
    errors: List[BaseException] = []

    def worker() -> None:
        try:
            client = connect()
        except OSError as error:
            errors.append(error)
            return
        with client:
            while True:
                with lock:
                    index = next(next_index, None)
                if index is None:
                    return
                sample = samples[index]
                wait = sample.due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                with telemetry.span("perf.request", index=index, rate=rate):
                    sample.sent = time.perf_counter()
                    try:
                        sample.reply = client.score(payloads[index])
                        sample.ok = True
                    except (DaemonError, OSError) as error:
                        sample.reply = error
                    sample.done = time.perf_counter()

    # Each thread runs in a copy of the caller's context, so a traced
    # caller's open span parents every request span.
    threads = [threading.Thread(target=contextvars.copy_context().run,
                                args=(worker,), name=f"perf-loadgen-{n}")
               for n in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return samples


class DaemonProcess:
    """``python -m repro serve`` in its own process, with its default
    settings, one snapshot published as ``default`` on an ephemeral port.

    :meth:`start` returns once the daemon prints its listening line;
    :meth:`stop` asks it to shut down and waits for the process, killing it
    if it does not end in time.
    """

    def __init__(self, snapshot: Path, log_path: Path):
        self.snapshot = snapshot
        self.log_path = log_path
        self.address: Optional[Tuple[str, int]] = None
        self._proc: Optional[subprocess.Popen] = None
        self._reader: Optional[threading.Thread] = None
        self._ready = threading.Event()

    def start(self) -> Tuple[str, int]:
        self._log = self.log_path.open("a")
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--snapshot", f"default={self.snapshot}", "--port", "0"],
            stdout=subprocess.PIPE, stderr=self._log, text=True)
        self._reader = threading.Thread(target=self._drain,
                                        name="perf-daemon-stdout")
        self._reader.start()
        if not self._ready.wait(START_TIMEOUT_S) or self.address is None:
            self.stop()
            raise RuntimeError(
                f"daemon did not start listening within {START_TIMEOUT_S:.0f}"
                f"s (log: {self.log_path})")
        return self.address

    def _drain(self) -> None:
        """Read the daemon's stdout to EOF, noting the listening address."""
        assert self._proc is not None and self._proc.stdout is not None
        for line in self._proc.stdout:
            self._log.write(line)
            match = _LISTENING.search(line)
            if match and self.address is None:
                self.address = (match.group(1), int(match.group(2)))
                self._ready.set()
        self._ready.set()

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set (``VmHWM``), in MiB."""
        assert self._proc is not None
        status = Path(f"/proc/{self._proc.pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
        if match is None:
            raise RuntimeError("VmHWM missing from /proc status")
        return int(match.group(1)) / 1024.0

    def client(self) -> DaemonClient:
        assert self.address is not None
        return DaemonClient(*self.address)

    def stop(self) -> None:
        if self._proc is None:
            return
        if self._proc.poll() is None:
            if self.address is None:  # never came up: nothing to ask
                self._proc.kill()
            else:
                try:
                    with self.client() as client:
                        client.shutdown()
                except (OSError, DaemonError):
                    self._proc.kill()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        if self._reader is not None:
            self._reader.join()
        self._log.close()
        self._proc = None

