"""repro.telemetry — unified tracing, metrics, and autograd profiling.

One observability layer for the whole stack, zero dependencies beyond
numpy:

* :mod:`~repro.telemetry.trace` — nested span tracing (context manager or
  explicit finish), monotonic timing, thread/process-safe buffering, and an
  atomic JSONL exporter (one ``traces/<run>.trace.jsonl`` per run, written
  through :mod:`repro.artifacts`).  Wired into the trainers (per-epoch,
  per-phase, per-step) and the serve engines (per-run, scheduler,
  per-batch).
* :mod:`~repro.telemetry.registry` — process-local named counters, gauges,
  and numpy-backed fixed-bucket histograms with one ``snapshot()`` export
  path; the resilience :class:`~repro.resilience.Events` counters and the
  serve throughput meter both report into the global :data:`REGISTRY`.
* :mod:`~repro.telemetry.profiler` — the opt-in autograd profiler: per-op
  forward/backward wall time and bytes over :class:`repro.nn.Tensor`'s
  tape, with a guaranteed-zero-overhead fast path when off and
  bit-identical numerics when on.
* :mod:`~repro.telemetry.report` — the ``repro trace-summary`` renderer.

:class:`TelemetrySession` bundles the three for a CLI run::

    with TelemetrySession("adapt-fz", profile=True) as session:
        result = adapt(source, target)
    path = session.export()          # traces/adapt-fz.trace.jsonl

See ``DESIGN.md`` §9 ("Telemetry") for the span model, registry semantics,
and the profiler's overhead contract.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from .profiler import PROFILER, AutogradProfiler, OpStat
from .registry import (DEFAULT_BUCKETS, REGISTRY, Counter, Gauge, Histogram,
                       MetricsRegistry)
from .report import (format_ops_table, format_trace, load_trace,
                     resolve_trace_path, span_tree_depth, summarize)
from .trace import (DEFAULT_TRACE_DIR, SCHEMA_VERSION, TRACE_SUFFIX, TRACER,
                    Span, Tracer, event, get_tracer, span)

__all__ = [
    "Span", "Tracer", "TRACER", "span", "event", "get_tracer",
    "SCHEMA_VERSION", "TRACE_SUFFIX", "DEFAULT_TRACE_DIR",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "REGISTRY",
    "DEFAULT_BUCKETS",
    "AutogradProfiler", "OpStat", "PROFILER",
    "load_trace", "format_trace", "format_ops_table", "summarize",
    "resolve_trace_path", "span_tree_depth",
    "TelemetrySession",
]


class TelemetrySession:
    """Enable tracing (and optionally profiling) for one run, then export.

    Entering resets and enables the global tracer (plus the shared
    :data:`PROFILER` when ``profile=True``); exiting disables them again so
    library callers never pay for a CLI flag they did not pass.
    :meth:`export` writes the span buffer, the profiler's op aggregates,
    and a registry snapshot into one atomic trace file.
    """

    def __init__(self, run_id: str,
                 trace_dir: Union[str, Path] = DEFAULT_TRACE_DIR,
                 profile: bool = False, top_k: int = 10):
        self.run_id = run_id
        self.trace_dir = Path(trace_dir)
        self.profile = profile
        self.top_k = top_k
        self.trace_path: Optional[Path] = None

    def __enter__(self) -> "TelemetrySession":
        TRACER.reset()
        TRACER.enable()
        if self.profile:
            PROFILER.reset()
            PROFILER.install()
        return self

    def __exit__(self, *exc_info) -> None:
        if self.profile:
            PROFILER.uninstall()
        TRACER.disable()

    def export(self) -> Path:
        """Write ``<trace_dir>/<run_id>.trace.jsonl`` and return its path."""
        extra = PROFILER.records() if self.profile else []
        extra = list(extra)
        extra.append({"type": "metrics", "metrics": REGISTRY.snapshot()})
        self.trace_path = TRACER.export(self.run_id, self.trace_dir,
                                        extra_records=extra)
        return self.trace_path

    def summary(self) -> str:
        """Render the exported trace (exports first if needed)."""
        if self.trace_path is None:
            self.export()
        return format_trace(load_trace(self.trace_path), top_k=self.top_k)
