"""`repro serve` — the online, multi-tenant entity-resolution daemon.

Everything before this module is call-and-return: one caller hands an
engine a pairs list and waits.  A service for "heavy traffic from millions
of users" is a different shape — many small concurrent requests, a
long-lived process, snapshots that republish underneath it — and this
module is that shape:

* **Admission control + backpressure.**  Every request is admitted against
  a bounded budget of pending pairs, admitted but not yet answered
  (``DaemonConfig.max_queued_pairs``).  Past the high-water mark the daemon
  rejects with :class:`BackpressureError` carrying a ``retry_after``
  estimated from the recent scoring rate — clients shed load by retrying
  later instead of piling onto an unbounded queue.  A request larger than
  the whole budget could never be admitted, so it is refused outright
  with a ``ValueError`` (a ``bad-request`` reply), not told to retry.
* **One lane job per request.**  An admitted request becomes one job on
  a single scoring lane, the lane's executor queue keeps arrival order,
  and each job is one engine run — so a request's decisions are
  bit-identical to a standalone :class:`~repro.serve.SequentialScorer`
  scoring it alone, whatever else is in flight
  (``tests/test_serve_daemon.py`` asserts this across a mid-run hot swap).
* **Multi-tenant routing + zero-downtime hot swap.**  Requests name a
  domain; a :class:`~repro.serve.registry.ModelRegistry` resolves it to
  that domain's engine.  Republishing a snapshot swaps atomically: a
  request in flight holds the engine it resolved and finishes on that
  snapshot, new requests score on the new one, and the content-addressed
  cache invalidates by construction.
* **Observability.**  Every request runs under a ``serve.request`` span
  (admission → lane job → response) that records its
  ``latency_seconds``, and its engine run's ``serve.run`` and
  ``serve.batch`` spans nest under it.  :attr:`ServeDaemon.stats` (the
  ``stats`` wire reply) counts requests, rejections, failures, responses
  and SLO misses for this daemon alone; each hot swap logs one INFO line.

Scoring runs on one dedicated executor thread — the numerics stay on the
deterministic single-threaded BLAS path — while the event loop keeps
admitting and answering.  The score cache's lock, the tracer's contextvars
span stacks and the meters' per-run cache accounting make that
concurrency safe.

The wire protocol is JSON lines over TCP (one object per line, ``op`` =
``score`` | ``publish`` | ``domains`` | ``stats`` | ``ping`` |
``shutdown``); :class:`~repro.serve.client.DaemonClient` speaks it, and
:func:`start_daemon_thread` hosts a daemon in-process for tests.
"""

from __future__ import annotations

import asyncio
import contextvars
import dataclasses
import functools
import json
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set, Tuple

from .. import telemetry
from ..data import Entity, EntityPair
from ..pipeline import MatchDecision
from ..telemetry import Span
from .registry import ModelRegistry, UnknownDomain
from .request import ScoreRequest, ScoreResponse, next_request_id

logger = logging.getLogger("repro.serve")

#: Request-latency SLO; responses slower than this bump
#: ``stats["slo_misses"]``.
SLO_SECONDS = 2.0
#: Floor and ceiling of the backpressure retry hint (seconds).
MIN_RETRY_AFTER = 0.01
MAX_RETRY_AFTER = 5.0
#: Pairs per backlog step of the cold-start retry hint.
COLD_HINT_PAIRS = 256


class BackpressureError(RuntimeError):
    """Admission rejected: the daemon is past its high-water mark.

    ``retry_after`` (seconds) estimates when capacity frees up, derived
    from the pending depth and the recent scoring rate.
    """

    def __init__(self, retry_after: float, queued_pairs: int, limit: int):
        super().__init__(
            f"daemon at capacity ({queued_pairs}/{limit} pairs queued); "
            f"retry in {retry_after:.3f}s")
        self.retry_after = retry_after
        self.queued_pairs = queued_pairs
        self.limit = limit


@dataclass(frozen=True)
class DaemonConfig:
    """Where the daemon listens and how many pairs it admits."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is reported at startup
    #: Admission high-water mark: pending pairs past this reject, and a
    #: request of more pairs than this is refused as a bad request.
    max_queued_pairs: int = 4096

    def __post_init__(self) -> None:
        if self.max_queued_pairs <= 0:
            raise ValueError("max_queued_pairs must be positive")


class ServeDaemon:
    """The asyncio request loop: admission → lane job → answer.

    Construct with a :class:`~repro.serve.registry.ModelRegistry` that
    already has (or will receive) published snapshots, then either
    :meth:`submit` requests directly from coroutines, or wrap it in the TCP
    front-end via :func:`serve_forever` / :func:`start_daemon_thread`.
    """

    def __init__(self, registry: ModelRegistry,
                 config: Optional[DaemonConfig] = None):
        self.registry = registry
        self.config = config or DaemonConfig()
        # One dedicated scoring lane: numerics stay single-threaded (the
        # determinism contract), the loop stays free to admit and answer.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-score")
        self._pending_pairs = 0  # admitted, not yet answered
        self._jobs: Set["asyncio.Future"] = set()  # lane jobs not yet done
        self._pairs_per_second = 0.0  # EMA of engine-run throughput
        self._accepting = True
        self._closed = False
        # "flushes" and "merged_requests" both count requests handed to
        # the lane; the benchmark's serve_online workload reads both.
        self.stats = {
            "requests": 0, "rejected": 0, "failed": 0, "responses": 0,
            "flushes": 0, "merged_requests": 0, "slo_misses": 0,
        }

    # -- admission ----------------------------------------------------------- #
    def _retry_after(self) -> float:
        rate = self._pairs_per_second
        backlog = max(1, self._pending_pairs)
        if rate > 0:
            estimate = backlog / rate
        else:
            # Cold start: no job has completed yet, so there is no
            # measured rate to divide by.  A flat MIN_RETRY_AFTER here
            # invited every rejected client back immediately no matter how
            # deep the backlog was; scale the floor by the backlog
            # instead, so the hint stays monotone in backlog from the very
            # first request.  The first completed job seeds the EMA (see
            # _settle) and takes over from this estimate.
            estimate = MIN_RETRY_AFTER * (1.0 + backlog / COLD_HINT_PAIRS)
        return float(min(MAX_RETRY_AFTER, max(MIN_RETRY_AFTER, estimate)))

    async def submit(self, request: ScoreRequest) -> ScoreResponse:
        """Admit, score, and answer one request.

        Raises :class:`BackpressureError` past the high-water mark,
        ``ValueError`` for a request larger than the whole budget,
        :class:`~repro.serve.registry.UnknownDomain` for unroutable
        domains, and re-raises scoring failures.
        """
        limit = self.config.max_queued_pairs
        num_pairs = request.num_pairs
        self.stats["requests"] += 1
        if not self._accepting:
            raise RuntimeError("daemon is shutting down")
        if num_pairs > limit:
            raise ValueError(
                f"a {num_pairs}-pair request can never be admitted: "
                f"max_queued_pairs is {limit}")
        if self._pending_pairs + num_pairs > limit:
            self.stats["rejected"] += 1
            raise BackpressureError(self._retry_after(), self._pending_pairs,
                                    limit)
        engine = self.registry.resolve(request.domain)  # may raise
        span = telemetry.span("serve.request", domain=request.domain,
                              request_id=request.request_id,
                              num_pairs=num_pairs)
        # The engine run executes in a copy of this context, taken with the
        # request's span open, so its spans nest under the request.
        job = asyncio.get_running_loop().run_in_executor(
            self._executor, contextvars.copy_context().run,
            engine.score_request, request)
        self._pending_pairs += num_pairs
        self.stats["flushes"] += 1
        self.stats["merged_requests"] += 1
        self._jobs.add(job)
        job.add_done_callback(functools.partial(self._settle, num_pairs, span))
        try:
            # Shielded: a cancelled caller leaves its job on the lane, and
            # _settle still counts it when it completes.
            response = await asyncio.shield(job)
        finally:
            span.finish()  # in this task, so it leaves this task's span stack
        # _settle ran before this task resumed and stamped the latency.
        return dataclasses.replace(
            response, latency_seconds=span.attributes["latency_seconds"])

    def _settle(self, num_pairs: int, span: Span,
                job: "asyncio.Future") -> None:
        """Loop-side bookkeeping for one completed lane job, whether or not
        its caller is still waiting."""
        self._jobs.discard(job)
        self._pending_pairs -= num_pairs
        latency = span.duration
        span.set(latency_seconds=latency)
        error = job.exception()
        if error is not None:
            span.set(error=str(error))
            self.stats["failed"] += 1
            return
        self.stats["responses"] += 1
        if latency > SLO_SECONDS:
            self.stats["slo_misses"] += 1
        wall = job.result().metrics.wall_seconds
        if wall > 0:
            rate = num_pairs / wall
            self._pairs_per_second = (
                rate if self._pairs_per_second == 0.0
                else 0.8 * self._pairs_per_second + 0.2 * rate)

    # -- hot swap ------------------------------------------------------------ #
    async def publish(self, domain: str, directory: str) -> str:
        """Load and hot-swap a snapshot without blocking the request loop.

        Loading happens on the default executor (not the scoring lane, which
        may be busy); the registry swap itself is atomic.  Requests that
        already resolved the old engine finish on it.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, self.registry.publish, domain, directory)

    # -- introspection ------------------------------------------------------- #
    def snapshot_stats(self) -> Dict[str, Any]:
        router = getattr(self.registry, "router", None)
        return {
            "risk": router.stats() if router is not None else None,
            **self.stats,
            "pending_pairs": self._pending_pairs,
            "pairs_per_second_ema": self._pairs_per_second,
            "domains": self.registry.domains(),
        }

    # -- lifecycle ----------------------------------------------------------- #
    async def drain(self, timeout: float = 30.0) -> None:
        """Stop admitting and wait for every lane job to finish."""
        self._accepting = False
        if self._jobs:
            __, pending = await asyncio.wait(set(self._jobs),
                                             timeout=timeout)
            if pending:
                raise TimeoutError(
                    f"daemon drain timed out with {len(pending)} "
                    f"request(s) on the lane")

    async def aclose(self) -> None:
        """Drain, then tear down the executor and the registry."""
        if self._closed:
            return
        self._closed = True
        await self.drain()
        self._executor.shutdown(wait=True)
        self.registry.close()


# --------------------------------------------------------------------------- #
# wire protocol (JSON lines over TCP)
# --------------------------------------------------------------------------- #

def entity_to_wire(entity: Entity) -> Dict[str, Any]:
    return {"id": entity.entity_id, "attributes": dict(entity.attributes)}

def entity_from_wire(obj: Dict[str, Any]) -> Entity:
    return Entity(str(obj["id"]),
                  {str(k): (None if v is None else str(v))
                   for k, v in dict(obj["attributes"]).items()})

def pair_to_wire(pair: EntityPair) -> Dict[str, Any]:
    return {"left": entity_to_wire(pair.left),
            "right": entity_to_wire(pair.right)}

def pair_from_wire(obj: Dict[str, Any]) -> EntityPair:
    return EntityPair(entity_from_wire(obj["left"]),
                      entity_from_wire(obj["right"]))

def decision_to_wire(decision: MatchDecision) -> Dict[str, Any]:
    return {"left_id": decision.left_id, "right_id": decision.right_id,
            "probability": decision.probability,
            "is_match": decision.is_match}

def decision_from_wire(obj: Dict[str, Any]) -> MatchDecision:
    return MatchDecision(str(obj["left_id"]), str(obj["right_id"]),
                         float(obj["probability"]))


class DaemonServer:
    """TCP front-end: one JSON object per line in, one per line out."""

    def __init__(self, daemon: ServeDaemon):
        self.daemon = daemon
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()
        self.address: Optional[Tuple[str, int]] = None

    async def start(self) -> Tuple[str, int]:
        config = self.daemon.config
        self._server = await asyncio.start_server(
            self._handle_connection, config.host, config.port)
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        logger.info("repro serve listening on %s:%d", *self.address)
        return self.address

    async def serve_until_shutdown(self) -> None:
        await self._shutdown.wait()
        self._server.close()
        await self._server.wait_closed()
        await self.daemon.aclose()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    message = json.loads(line)
                except json.JSONDecodeError as error:
                    await self._send(writer, {"ok": False,
                                              "error": "bad-json",
                                              "detail": str(error)})
                    continue
                reply = await self._dispatch(message)
                await self._send(writer, reply)
                if message.get("op") == "shutdown":
                    break
        except (ConnectionResetError, BrokenPipeError):  # client went away
            pass
        except asyncio.CancelledError:  # loop teardown at shutdown
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                pass

    @staticmethod
    async def _send(writer: asyncio.StreamWriter,
                    payload: Dict[str, Any]) -> None:
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()

    async def _dispatch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        op = message.get("op")
        request_id = message.get("id", "")
        try:
            if op == "ping":
                return {"ok": True, "op": "ping"}
            if op == "stats":
                return {"ok": True, "stats": self.daemon.snapshot_stats()}
            if op == "domains":
                return {"ok": True,
                        "domains": self.daemon.registry.domains()}
            if op == "publish":
                digest = await self.daemon.publish(
                    str(message["domain"]), str(message["directory"]))
                return {"ok": True, "domain": message["domain"],
                        "digest": digest}
            if op == "shutdown":
                self.request_shutdown()
                return {"ok": True, "op": "shutdown"}
            if op == "score":
                request = ScoreRequest(
                    pairs=tuple(pair_from_wire(p)
                                for p in message["pairs"]),
                    request_id=str(request_id) or next_request_id(),
                    domain=str(message.get("domain", "default")))
                response = await self.daemon.submit(request)
                decisions = [decision_to_wire(d)
                             for d in response.decisions]
                if response.routing is not None:
                    # Risk routing on: each decision carries its routing
                    # verdict; "review" means the daemon refused to
                    # auto-decide and durably queued the pair.
                    for obj, routed in zip(decisions, response.routing):
                        obj.update(routed.to_wire())
                return {"ok": True, "id": response.request_id,
                        "domain": response.domain,
                        "digest": response.snapshot_digest,
                        "latency_seconds": response.latency_seconds,
                        "routed": response.routing is not None,
                        "decisions": decisions}
            return {"ok": False, "id": request_id, "error": "unknown-op",
                    "detail": f"unknown op {op!r}"}
        except BackpressureError as error:
            return {"ok": False, "id": request_id, "error": "backpressure",
                    "retry_after": error.retry_after,
                    "queued_pairs": error.queued_pairs}
        except UnknownDomain as error:
            return {"ok": False, "id": request_id, "error": "unknown-domain",
                    "detail": str(error), "known": error.known}
        except (KeyError, TypeError, ValueError) as error:
            return {"ok": False, "id": request_id, "error": "bad-request",
                    "detail": f"{type(error).__name__}: {error}"}
        except Exception as error:  # scoring failure: report, keep serving
            logger.exception("daemon request failed")
            return {"ok": False, "id": request_id, "error": "internal",
                    "detail": f"{type(error).__name__}: {error}"}


async def serve_forever(registry: ModelRegistry,
                        config: Optional[DaemonConfig] = None,
                        ready: Optional["asyncio.Future"] = None) -> None:
    """Run a daemon until a ``shutdown`` op arrives (the CLI entry point)."""
    daemon = ServeDaemon(registry, config)
    server = DaemonServer(daemon)
    address = await server.start()
    if ready is not None and not ready.done():
        ready.set_result(address)
    await server.serve_until_shutdown()


# --------------------------------------------------------------------------- #
# in-process hosting (tests, bench)
# --------------------------------------------------------------------------- #

class DaemonHandle:
    """A daemon running on its own thread + event loop.

    ``address`` is the bound (host, port); :meth:`stop` requests shutdown
    and joins the thread.  Context-manager friendly.
    """

    def __init__(self, registry: ModelRegistry,
                 config: Optional[DaemonConfig] = None):
        self.registry = registry
        self.config = config or DaemonConfig()
        self.address: Optional[Tuple[str, int]] = None
        self.daemon: Optional[ServeDaemon] = None
        self._server: Optional[DaemonServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serve-daemon",
                                        daemon=True)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # surface startup/teardown failures
            self._error = error
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.daemon = ServeDaemon(self.registry, self.config)
        self._server = DaemonServer(self.daemon)
        self.address = await self._server.start()
        self._ready.set()
        await self._server.serve_until_shutdown()

    def start(self, timeout: float = 30.0) -> Tuple[str, int]:
        if not self._thread.is_alive() and not self._ready.is_set():
            self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("daemon failed to start in time")
        if self._error is not None:
            raise RuntimeError("daemon failed to start") from self._error
        return self.address

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(self._server.request_shutdown)
            except RuntimeError:
                pass  # loop already closed: a client shut the daemon down
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError("daemon failed to stop in time")
        if self._error is not None:
            raise RuntimeError("daemon died") from self._error

    def __enter__(self) -> "DaemonHandle":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_daemon_thread(registry: ModelRegistry,
                        config: Optional[DaemonConfig] = None,
                        ) -> DaemonHandle:
    """Host a daemon in-process; returns a started :class:`DaemonHandle`."""
    handle = DaemonHandle(registry, config)
    handle.start()
    return handle
