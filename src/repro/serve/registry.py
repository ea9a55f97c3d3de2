"""Multi-tenant model registry: many domain-adapted snapshots, one router.

The paper's setting is inherently multi-tenant — every (source→target)
domain pair gets its own adapted matcher — and the production framing
(DAME's many-source→one-target routing, Chen et al.'s risk-aware serving)
assumes all of them live behind one endpoint.  :class:`ModelRegistry` is
that routing table:

* :meth:`publish` loads a pipeline snapshot (sequential in-process engine,
  or a thread-parallel :class:`~repro.serve.engine.ParallelScorer` for
  heavy tenants)
  and installs it under a domain key.  Publishing over an existing domain
  is a **zero-downtime hot swap**: the new engine is fully loaded *before*
  the atomic swap, requests that already resolved the old generation finish
  on it (leases pin the engine and its manifest digest), and the old engine
  is closed only when its last lease is released.
* :meth:`resolve` hands out a :class:`TenantLease` — engine + digest under
  a reference count.  The digest gives safe snapshot identity for free:
  score-cache keys embed it, so a swapped snapshot can never serve stale
  probabilities, and responses carry it as proof of *which* model answered.

The registry is thread-safe (one re-entrant lock around the routing table
and lease counts) because the daemon resolves on its event loop while
scoring — and therefore lease release — happens on executor threads.
"""

from __future__ import annotations

import logging
import threading
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..telemetry import REGISTRY
from .cache import ScoreCache
from .engine import ParallelScorer, RequestScorer, SequentialScorer

logger = logging.getLogger("repro.serve")


class UnknownDomain(KeyError):
    """Raised when a request routes to a domain no snapshot was published
    for.  Carries the known domains so the error is actionable."""

    def __init__(self, domain: str, known: List[str]):
        super().__init__(domain)
        self.domain = domain
        self.known = sorted(known)

    def __str__(self) -> str:
        return (f"no snapshot published for domain {self.domain!r} "
                f"(published: {self.known or 'none'})")


class _Generation:
    """One published (engine, digest) pair under a lease refcount."""

    __slots__ = ("engine", "digest", "directory", "leases", "retired")

    def __init__(self, engine: RequestScorer, digest: Optional[str],
                 directory: Path):
        self.engine = engine
        self.digest = digest
        self.directory = directory
        self.leases = 0
        self.retired = False


class TenantLease:
    """A pinned (engine, digest) for the duration of one request.

    Usable as a context manager; :meth:`release` is idempotent.  The lease
    is what makes hot swap safe: a generation is only closed once it is
    both retired *and* lease-free, so in-flight requests always finish on
    the snapshot they resolved.
    """

    __slots__ = ("domain", "_registry", "_generation", "_released")

    def __init__(self, domain: str, registry: "ModelRegistry",
                 generation: _Generation):
        self.domain = domain
        self._registry = registry
        self._generation = generation
        self._released = False

    @property
    def engine(self) -> RequestScorer:
        return self._generation.engine

    @property
    def digest(self) -> Optional[str]:
        return self._generation.digest

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._registry._release(self._generation)

    def __enter__(self) -> "TenantLease":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class ModelRegistry:
    """Routing table from domain keys to warm, lease-counted engines.

    Parameters
    ----------
    cache:
        Optional :class:`~repro.serve.cache.ScoreCache` shared by every
        tenant engine.  Safe by construction: cache keys embed each
        snapshot's manifest digest, so tenants (and generations of one
        tenant) can never read each other's probabilities.
    router:
        Optional :class:`~repro.risk.RiskRouter` shared by every tenant
        engine, so routing rates and the review queue are global across
        domains and generations; each engine pairs it with its *own*
        snapshot's calibrator.
    scheduler_kwargs:
        Forwarded to engines built by :meth:`publish`.
    """

    def __init__(self, cache: Optional[ScoreCache] = None,
                 router=None, **scheduler_kwargs):
        self.cache = cache
        self.router = router
        self.scheduler_kwargs = dict(scheduler_kwargs)
        self._lock = threading.RLock()
        self._tenants: Dict[str, _Generation] = {}
        self._closed = False

    # -- publishing --------------------------------------------------------- #
    def _build_engine(self, directory: Path,
                      num_workers: int) -> RequestScorer:
        if num_workers > 0:
            return ParallelScorer(directory, num_workers=num_workers,
                                  cache=self.cache, router=self.router,
                                  **self.scheduler_kwargs)
        return SequentialScorer.from_directory(directory, cache=self.cache,
                                               router=self.router,
                                               **self.scheduler_kwargs)

    def publish(self, domain: str, directory: Union[str, Path],
                num_workers: int = 0) -> str:
        """Load ``directory`` and install it under ``domain``; returns the
        snapshot's manifest digest.

        The engine is fully loaded *before* the routing table changes, so a
        republish never leaves the domain unroutable — new requests resolve
        the new generation the instant the swap happens, in-flight leases
        keep the old one alive until they release.
        """
        if not domain:
            raise ValueError("domain must be non-empty")
        with self._lock:
            if self._closed:
                raise RuntimeError("ModelRegistry is closed")
        directory = Path(directory)
        engine = self._build_engine(directory, num_workers)
        generation = _Generation(engine, engine.snapshot_digest, directory)
        with self._lock:
            if self._closed:  # closed while loading: don't leak the engine
                engine.close()
                raise RuntimeError("ModelRegistry is closed")
            previous = self._tenants.get(domain)
            self._tenants[domain] = generation
            REGISTRY.counter("serve.registry.publish").inc()
            REGISTRY.gauge("serve.registry.tenants").set(len(self._tenants))
            if previous is not None:
                previous.retired = True
                REGISTRY.counter("serve.registry.hot_swap").inc()
                logger.info(
                    "hot-swapped domain %r: %s... -> %s... (%d lease(s) "
                    "still on the old snapshot)", domain,
                    (previous.digest or "")[:12],
                    (generation.digest or "")[:12], previous.leases)
                self._maybe_close(previous)
        return generation.digest or ""

    # -- routing ------------------------------------------------------------ #
    def resolve(self, domain: str) -> TenantLease:
        """Pin the current generation of ``domain`` for one request."""
        with self._lock:
            generation = self._tenants.get(domain)
            if generation is None:
                raise UnknownDomain(domain, list(self._tenants))
            generation.leases += 1
            return TenantLease(domain, self, generation)

    def _release(self, generation: _Generation) -> None:
        with self._lock:
            generation.leases -= 1
            self._maybe_close(generation)

    def _maybe_close(self, generation: _Generation) -> None:
        # Callers hold the lock.  close() is idempotent on both engines.
        if generation.retired and generation.leases <= 0:
            generation.engine.close()

    # -- introspection / lifecycle ------------------------------------------ #
    def domains(self) -> Dict[str, str]:
        """Routable domains and the digest currently serving each."""
        with self._lock:
            return {domain: generation.digest or ""
                    for domain, generation in sorted(self._tenants.items())}

    def __contains__(self, domain: str) -> bool:
        with self._lock:
            return domain in self._tenants

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)

    def close(self) -> None:
        """Retire every tenant and close every engine; safe to call twice.

        Engines with live leases are closed anyway — shutdown beats
        stragglers — which is safe because
        :meth:`~repro.serve.engine.ParallelScorer.close` is idempotent and
        lets batches already submitted finish.
        """
        with self._lock:
            self._closed = True
            tenants, self._tenants = list(self._tenants.values()), {}
            for generation in tenants:
                generation.retired = True
                generation.engine.close()
            REGISTRY.gauge("serve.registry.tenants").set(0)

    def __enter__(self) -> "ModelRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
