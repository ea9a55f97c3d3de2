"""Throughput instrumentation for the scoring engines.

Every engine run produces a :class:`ServeMetrics` record — pairs scored,
batches, wall and busy time, and per-run cache counters.  ``python -m
perf run`` reads ``busy_seconds`` for its forward-time layer metric.

Timekeeping is delegated to :mod:`repro.telemetry`: the meter's wall clock
is a ``serve.run`` span (so every scoring run shows up in exported traces
for free) and each recorded batch feeds the global registry's
``serve.pairs`` / ``serve.batches`` counters and ``serve.batch_seconds``
histogram, which every trace export embeds.

Concurrency: one meter belongs to one run, and only the thread that runs
the request touches it — :class:`~repro.serve.ParallelScorer` collects its
worker threads' batches on the calling thread, and the daemon runs one
lane job at a time.  A meter's mutations are still lock-guarded and
:meth:`ThroughputMeter.finalize` is idempotent.  Per-run cache statistics
are accumulated *on the meter* by the engine that caused them — never
computed by diffing the shared :class:`~repro.serve.cache.ScoreCache`
counters, which any other run scoring through the same cache (another
tenant, another thread) moves as well.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..telemetry import REGISTRY, span


@dataclass(frozen=True)
class ServeMetrics:
    """Aggregate throughput counters for one scoring run."""

    engine: str
    num_pairs: int
    num_batches: int
    num_workers: int
    wall_seconds: float
    busy_seconds: float  # summed per-batch compute time across workers
    #: Per-run score-cache counters (hits/misses/hit_rate...); empty when
    #: the engine ran without a :class:`repro.serve.cache.ScoreCache`.
    cache: Dict[str, Any] = field(default_factory=dict)

    @property
    def pairs_per_second(self) -> float:
        return self.num_pairs / self.wall_seconds if self.wall_seconds else 0.0


class ThroughputMeter:
    """Counts a run's batches and busy time, and finalizes to metrics.

    The run's wall clock *is* a ``serve.run`` telemetry span (opened at
    construction, finished by :meth:`finalize`), and every recorded batch
    also lands in the global metrics registry — there is no second
    ``perf_counter`` bookkeeping path.

    One meter describes **one run** and is touched only by the thread that
    runs it; every mutation still takes the meter's lock.  Cache
    hits/misses/evictions are recorded here by the engine as they happen
    (:meth:`record_cached`, :meth:`record_misses`,
    :meth:`record_evictions`) so per-run cache stats stay per-run even
    when several runs share one :class:`~repro.serve.cache.ScoreCache`.
    """

    def __init__(self, engine: str, num_workers: int = 1):
        self.engine = engine
        self.num_workers = num_workers
        self._lock = threading.Lock()
        self._batches = 0
        self._busy = 0.0
        self._pairs = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_evictions = 0
        self._metrics: Optional[ServeMetrics] = None
        self._span = span("serve.run", engine=engine,
                          num_workers=num_workers)

    def record_batch(self, num_pairs: int, seconds: float) -> None:
        with self._lock:
            self._batches += 1
            self._busy += seconds
            self._pairs += num_pairs
        REGISTRY.counter("serve.pairs").inc(num_pairs)
        REGISTRY.counter("serve.batches").inc()
        REGISTRY.histogram("serve.batch_seconds").observe(seconds)

    def record_cached(self, num_pairs: int) -> None:
        """Count pairs served straight from the score cache (no batch)."""
        if num_pairs:
            with self._lock:
                self._pairs += num_pairs
                self._cache_hits += num_pairs
            REGISTRY.counter("serve.pairs").inc(num_pairs)

    def record_misses(self, num_pairs: int) -> None:
        """Count this run's cache misses (pairs that needed scoring)."""
        if num_pairs:
            with self._lock:
                self._cache_misses += num_pairs

    def record_evictions(self, num_evicted: int) -> None:
        """Count LRU evictions caused by this run's admissions."""
        if num_evicted:
            with self._lock:
                self._cache_evictions += num_evicted

    def cache_stats(self, entries: int) -> Dict[str, Any]:
        """This run's cache counters (``entries`` is the cache's current
        size, the only genuinely global number in the record)."""
        with self._lock:
            hits, misses = self._cache_hits, self._cache_misses
            evictions = self._cache_evictions
        total = hits + misses
        return {"hits": hits, "misses": misses, "evictions": evictions,
                "hit_rate": hits / total if total else 0.0,
                "entries": entries}

    def finalize(self, cache: Optional[Dict[str, Any]] = None
                 ) -> ServeMetrics:
        with self._lock:
            if self._metrics is not None:  # idempotent under racing callers
                return self._metrics
            self._span.set(num_pairs=self._pairs,
                           num_batches=self._batches).finish()
            self._metrics = ServeMetrics(
                engine=self.engine, num_pairs=self._pairs,
                num_batches=self._batches,
                num_workers=self.num_workers,
                wall_seconds=self._span.duration,
                busy_seconds=self._busy,
                cache=dict(cache or {}))
            return self._metrics
