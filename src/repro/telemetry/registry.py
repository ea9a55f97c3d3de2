"""Process-local metrics: named counters, gauges, and fixed-bucket histograms.

Before this module every layer kept its own numbers its own way — resilience
recovery counts in :class:`repro.resilience.Events` dataclass fields, serve
latencies in ad-hoc lists inside ``ThroughputMeter`` — and nothing could
export "the state of the process" in one call.  :class:`MetricsRegistry`
is that single export path: components get-or-create named instruments,
increments are cheap and thread-safe, and :meth:`MetricsRegistry.snapshot`
renders everything to one JSON-serializable dict (embedded into trace
files by the tracer's exporter and into ``BENCH_scenarios.json`` by
``repro scenarios``).

Instruments are deliberately minimal:

* :class:`Counter` — monotonically increasing float/int total;
* :class:`Gauge` — last-written value (e.g. pool size, learning rate);
* :class:`Histogram` — numpy-backed fixed upper-edge buckets plus running
  count/sum/min/max, so latency distributions survive aggregation without
  keeping every observation.

There is one process-global :data:`REGISTRY`; private registries can be
created for isolation (tests do).  Nothing here imports the rest of the
repo, so any layer may depend on it without cycles.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Optional, Union

import numpy as np

Number = Union[int, float]

#: Default latency buckets (seconds): ~100us to 2min, geometric.
DEFAULT_BUCKETS = (0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3,
                   1.0, 3.0, 10.0, 30.0, 120.0)


class Counter:
    """A monotonically increasing named total."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._value = 0.0
        self._lock = lock

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def to_value(self) -> float:
        value = self._value
        return int(value) if float(value).is_integer() else float(value)


class Gauge:
    """A named last-written value."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._value = 0.0
        self._lock = lock

    def set(self, value: Number) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def to_value(self) -> float:
        return float(self._value)


class Histogram:
    """Fixed-bucket histogram with running count/sum/min/max.

    ``buckets`` are inclusive upper edges; one implicit overflow bucket
    catches everything beyond the last edge.  Bucket counts are a numpy
    int64 array, so observing is one ``searchsorted`` plus an increment.
    """

    __slots__ = ("name", "edges", "counts", "count", "total",
                 "minimum", "maximum", "_lock")

    def __init__(self, name: str, lock: threading.Lock,
                 buckets: Iterable[Number] = DEFAULT_BUCKETS):
        edges = np.asarray(sorted(float(b) for b in buckets),
                           dtype=np.float64)
        if edges.size == 0:
            raise ValueError("histogram needs at least one bucket edge")
        if np.unique(edges).size != edges.size:
            raise ValueError("histogram bucket edges must be distinct")
        self.name = name
        self.edges = edges
        self.counts = np.zeros(edges.size + 1, dtype=np.int64)
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self._lock = lock

    def observe(self, value: Number) -> None:
        value = float(value)
        slot = int(np.searchsorted(self.edges, value, side="left"))
        with self._lock:
            self.counts[slot] += 1
            self.count += 1
            self.total += value
            self.minimum = min(self.minimum, value)
            self.maximum = max(self.maximum, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_value(self) -> Dict[str, object]:
        buckets = {f"le_{edge:g}": int(n)
                   for edge, n in zip(self.edges, self.counts[:-1])}
        buckets["overflow"] = int(self.counts[-1])
        return {
            "count": int(self.count),
            "sum": float(self.total),
            "mean": float(self.mean),
            "min": float(self.minimum) if self.count else 0.0,
            "max": float(self.maximum) if self.count else 0.0,
            "buckets": buckets,
        }


class MetricsRegistry:
    """Get-or-create named instruments; render them all with one call.

    Names are dotted paths (``serve.batch_seconds``,
    ``resilience.retries``).  Re-requesting a name returns the existing
    instrument; requesting it as a different kind raises — a name means one
    thing for the life of the process.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, kind: type, **kwargs):
        if not name:
            raise ValueError("instrument name must be non-empty")
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = kind(name, self._lock, **kwargs)
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {kind.__name__}")
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str,
                  buckets: Optional[Iterable[Number]] = None) -> Histogram:
        if buckets is None:
            return self._get(name, Histogram)
        return self._get(name, Histogram, buckets=buckets)

    def snapshot(self) -> Dict[str, object]:
        """All instruments as one sorted, JSON-serializable dict."""
        with self._lock:
            items = list(self._instruments.items())
        return {name: instrument.to_value()
                for name, instrument in sorted(items)}

    def reset(self) -> None:
        """Drop every instrument (tests and fresh benchmark runs)."""
        with self._lock:
            self._instruments.clear()

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)


#: The process-global registry every layer reports into by default.
REGISTRY = MetricsRegistry()
