"""Blocking client for the ``repro serve`` daemon.

Speaks the JSON-lines protocol from :mod:`repro.serve.daemon` over a plain
TCP socket — no async machinery on the caller's side, so tests, the bench,
and batch scripts can hammer a daemon from ordinary threads.

Two failure modes are part of the contract, not errors:

* **Backpressure.**  When the daemon rejects with ``retry_after``,
  :meth:`DaemonClient.score` sleeps and retries (bounded by
  ``max_retries``), re-raising :class:`DaemonBusy` only once the budget is
  exhausted.  Callers that want their own shedding pass ``max_retries=0``.
* **Transport death.**  A connection reset, broken pipe, or a reply
  truncated mid-line (the daemon died, a proxy dropped us, the socket was
  reset between send and receive) triggers a **transparent reconnect**
  with capped, seeded-jitter backoff
  (:class:`~repro.resilience.BackoffPolicy` — deterministic schedules, per
  the repo's no-wall-clock-randomness policy) and a bounded number of
  resends.  An **idempotency guard** makes the retry safe: every exchange
  is tagged with a client-chosen ``id`` that the daemon echoes, a reply
  whose id does not match the in-flight request is discarded instead of
  applied, and a reconnect abandons the old socket — so a reply can never
  be double-applied no matter where the connection died.  Scoring the same
  pairs twice server-side is harmless (decisions are deterministic);
  applying a reply twice client-side would not be, and cannot happen.
"""

from __future__ import annotations

import itertools
import json
import socket
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..data import EntityPair
from ..pipeline import MatchDecision
from ..resilience import BackoffPolicy
from .daemon import decision_from_wire, pair_to_wire

#: Exceptions (beyond a truncated reply) that mean "the transport died".
TRANSPORT_ERRORS = (ConnectionResetError, BrokenPipeError, ConnectionError,
                    socket.timeout)

_client_ids = itertools.count(1)


class DaemonError(RuntimeError):
    """The daemon answered with an error reply."""

    def __init__(self, reply: Dict[str, Any]):
        super().__init__(reply.get("detail") or reply.get("error")
                         or "daemon error")
        self.reply = reply
        self.code = reply.get("error")


class DaemonBusy(DaemonError):
    """Backpressure rejection that survived every retry."""

    def __init__(self, reply: Dict[str, Any]):
        super().__init__(reply)
        self.retry_after = float(reply.get("retry_after", 0.0))


class ScoredReply:
    """One successful ``score`` reply: decisions plus serving metadata."""

    __slots__ = ("request_id", "domain", "digest", "latency_seconds",
                 "decisions", "retries", "routing")

    def __init__(self, reply: Dict[str, Any], retries: int):
        self.request_id = reply.get("id", "")
        self.domain = reply.get("domain", "")
        self.digest = reply.get("digest")
        self.latency_seconds = float(reply.get("latency_seconds", 0.0))
        self.decisions: List[MatchDecision] = [
            decision_from_wire(d) for d in reply["decisions"]]
        #: Per-decision routing annotations (``decision`` / ``confidence``
        #: / ``calibrated`` dicts) when the daemon serves with risk
        #: routing on; ``None`` otherwise.
        self.routing: Optional[List[Dict[str, Any]]] = (
            [{"decision": d.get("decision"),
              "confidence": d.get("confidence"),
              "calibrated": d.get("calibrated")}
             for d in reply["decisions"]]
            if reply.get("routed") else None)
        self.retries = retries  # backpressure retries before acceptance


class DaemonClient:
    """One connection to a running daemon.

    Thread-compatibility: one client per thread — a single socket carries
    one request/reply exchange at a time.  Cheap to construct; the bench
    opens eight.

    ``max_reconnects`` bounds transparent reconnect-and-resend attempts
    per call; ``backoff`` spaces them (defaults to a small seeded-jitter
    schedule).  ``client.reconnects`` counts reconnects over the client's
    lifetime, so tests and the bench can assert recovery happened.
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0,
                 max_retries: int = 50, max_reconnects: int = 3,
                 backoff: Optional[BackoffPolicy] = None):
        self.address: Tuple[str, int] = (host, port)
        self.timeout = timeout
        self.max_retries = max_retries
        self.max_reconnects = max_reconnects
        self.backoff = backoff or BackoffPolicy(base=0.02, cap=0.5, seed=0)
        self.reconnects = 0
        self._connect()

    # -- plumbing ------------------------------------------------------------ #
    def _connect(self) -> None:
        self._sock = socket.create_connection(self.address,
                                              timeout=self.timeout)
        self._reader = self._sock.makefile("rb")

    def _reconnect(self) -> None:
        # Abandoning the old socket is half of the idempotency guard: any
        # reply the daemon sent for the failed exchange dies with it and
        # can never be mis-applied to a later request.
        try:
            self.close()
        except OSError:  # pragma: no cover - already-dead socket teardown
            pass
        self._connect()
        self.reconnects += 1

    def _exchange(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self._sock.sendall(json.dumps(message).encode() + b"\n")
        line = self._reader.readline()
        if not line or not line.endswith(b"\n"):
            # Empty read = daemon closed; a partial line = it died (or the
            # connection was cut) mid-reply.  Either way the reply is
            # unusable and must NOT be applied — surface as transport
            # death so call() reconnects and resends.
            raise ConnectionError("daemon closed the connection mid-reply")
        return json.loads(line)

    def call(self, message: Dict[str, Any],
             retry_transport: bool = True) -> Dict[str, Any]:
        """One request/reply exchange with transparent reconnect.

        ``retry_transport=False`` disables the reconnect-and-resend loop
        for operations that must not be re-issued blindly (``shutdown``).
        The other half of the idempotency guard lives here: a reply
        carrying a different ``id`` than the in-flight message is stale by
        definition and is rejected rather than applied.
        """
        attempts = 0
        while True:
            try:
                reply = self._exchange(message)
            except TRANSPORT_ERRORS:
                if not retry_transport or attempts >= self.max_reconnects:
                    raise
                self.backoff.sleep(attempts)
                attempts += 1
                self._reconnect()
                continue
            expected = message.get("id")
            got = reply.get("id")
            if expected is not None and got and got != expected:
                raise DaemonError({"error": "stale-reply",
                                   "detail": f"reply for request {got!r} "
                                             f"while {expected!r} was in "
                                             f"flight"})
            return reply

    # -- operations ---------------------------------------------------------- #
    def ping(self) -> bool:
        return bool(self.call({"op": "ping"}).get("ok"))

    def domains(self) -> Dict[str, str]:
        reply = self.call({"op": "domains"})
        if not reply.get("ok"):
            raise DaemonError(reply)
        return dict(reply["domains"])

    def stats(self) -> Dict[str, Any]:
        reply = self.call({"op": "stats"})
        if not reply.get("ok"):
            raise DaemonError(reply)
        return dict(reply["stats"])

    def publish(self, domain: str, directory: str) -> str:
        """Hot-swap ``domain`` to the snapshot at ``directory``."""
        reply = self.call({"op": "publish", "domain": domain,
                           "directory": str(directory)})
        if not reply.get("ok"):
            raise DaemonError(reply)
        return str(reply["digest"])

    def score(self, pairs: Sequence[EntityPair], domain: str = "default",
              request_id: Optional[str] = None) -> ScoredReply:
        """Score ``pairs`` on ``domain``, retrying through backpressure.

        Always sends an explicit request id (generating one when the
        caller supplied none) so the idempotency guard in :meth:`call`
        can match every reply to its request across reconnects.
        """
        message = {"op": "score", "domain": domain,
                   "id": request_id or f"cli-{next(_client_ids)}",
                   "pairs": [pair_to_wire(p) for p in pairs]}
        retries = 0
        while True:
            reply = self.call(message)
            if reply.get("ok"):
                return ScoredReply(reply, retries)
            if reply.get("error") != "backpressure":
                raise DaemonError(reply)
            if retries >= self.max_retries:
                raise DaemonBusy(reply)
            retries += 1
            import time
            time.sleep(float(reply.get("retry_after", 0.01)))

    def shutdown(self) -> None:
        """Ask the daemon to drain and exit (never blindly re-sent)."""
        self.call({"op": "shutdown"}, retry_transport=False)

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["DaemonBusy", "DaemonClient", "DaemonError", "ScoredReply",
           "TRANSPORT_ERRORS"]
