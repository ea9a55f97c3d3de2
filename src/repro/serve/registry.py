"""Multi-tenant model registry: many domain-adapted snapshots, one router.

The paper's setting is inherently multi-tenant — every (source→target)
domain pair gets its own adapted matcher — and the production framing
(DAME's many-source→one-target routing, Chen et al.'s risk-aware serving)
assumes all of them live behind one endpoint.  :class:`ModelRegistry` is
that routing table:

* :meth:`publish` loads a pipeline snapshot into a
  :class:`~repro.serve.engine.SequentialScorer` and installs it under a
  domain key.  Publishing over an existing domain is a **zero-downtime hot
  swap**: the new engine is fully loaded *before* the atomic swap, and a
  request that already resolved the old engine holds a reference to it and
  finishes on that snapshot.
* :meth:`resolve` returns the domain's current engine.  Its snapshot
  digest gives safe snapshot identity for free: score-cache keys embed it,
  so a swapped snapshot can never serve stale probabilities, and responses
  carry it as proof of *which* model answered.

The registry is thread-safe (one lock around the routing table) because
the daemon resolves on its event loop while publishes load on executor
threads.
"""

from __future__ import annotations

import logging
import threading
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..telemetry import REGISTRY
from .cache import ScoreCache
from .engine import SequentialScorer

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


class ModelRegistry:
    """Routing table from domain keys to warm engines.

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
    """

    def __init__(self, cache: Optional[ScoreCache] = None, router=None):
        self.cache = cache
        self.router = router
        self._lock = threading.Lock()
        self._engines: Dict[str, SequentialScorer] = {}
        self._closed = False

    def publish(self, domain: str, directory: Union[str, Path]) -> str:
        """Load ``directory`` and install it under ``domain``; returns the
        snapshot's manifest digest.

        The engine is fully loaded *before* the routing table changes, so a
        republish never leaves the domain unroutable — new requests resolve
        the new engine the instant the swap happens.
        """
        if not domain:
            raise ValueError("domain must be non-empty")
        engine = SequentialScorer.from_directory(directory, cache=self.cache,
                                                 router=self.router)
        with self._lock:
            if self._closed:
                raise RuntimeError("ModelRegistry is closed")
            previous = self._engines.get(domain)
            self._engines[domain] = engine
            REGISTRY.counter("serve.registry.publish").inc()
            REGISTRY.gauge("serve.registry.tenants").set(len(self._engines))
        if previous is not None:
            REGISTRY.counter("serve.registry.hot_swap").inc()
            logger.info("hot-swapped domain %r: %s... -> %s...", domain,
                        (previous.snapshot_digest or "")[:12],
                        (engine.snapshot_digest or "")[:12])
        return engine.snapshot_digest or ""

    def resolve(self, domain: str) -> SequentialScorer:
        """The engine currently published under ``domain``."""
        with self._lock:
            engine = self._engines.get(domain)
            if engine is None:
                raise UnknownDomain(domain, list(self._engines))
            return engine

    # -- introspection / lifecycle ------------------------------------------ #
    def domains(self) -> Dict[str, str]:
        """Routable domains and the digest currently serving each."""
        with self._lock:
            return {domain: engine.snapshot_digest or ""
                    for domain, engine in sorted(self._engines.items())}

    def __contains__(self, domain: str) -> bool:
        with self._lock:
            return domain in self._engines

    def __len__(self) -> int:
        with self._lock:
            return len(self._engines)

    def close(self) -> None:
        """Unpublish every tenant and refuse further publishes; safe to
        call twice."""
        with self._lock:
            self._closed = True
            self._engines.clear()
            REGISTRY.gauge("serve.registry.tenants").set(0)

    def __enter__(self) -> "ModelRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
