"""Span tracing: nested, attributed, monotonic-clock timing with JSONL export.

A *span* is one timed region of a run — the run itself, one epoch, one
scheduled batch, one autograd op.  Spans nest: each records its parent's id
(tracked per thread), so the exporter's output reconstructs the full tree
``run → epoch → phase → step`` that ``python -m repro trace-summary``
renders.

Design constraints, in order:

1. **Cheap when idle.** Tracing is off by default.  A span opened while the
   tracer is disabled still measures its own duration (callers like
   :class:`repro.serve.metrics.ThroughputMeter` use span durations as their
   clock), but touches no shared state: no lock, no buffering, no parent
   bookkeeping.  The cost is one small object and two ``perf_counter``
   calls — negligible at batch/epoch granularity.  (Per-*op* timing has a
   stricter zero-overhead contract and lives in
   :mod:`repro.telemetry.profiler`, which patches methods in rather than
   checking a flag.)
2. **Thread, task, and process safe.**  The finished-span buffer is
   lock-guarded; parent tracking lives in a :mod:`contextvars` context
   variable, so it is isolated per thread *and* per asyncio task — two
   requests interleaving on one event-loop thread (the serving daemon's
   steady state) each keep their own span tree instead of mis-parenting
   into whichever span the other request happens to have open.  Plain
   threaded and synchronous callers see the exact per-thread behavior the
   old thread-local stack gave them.  Span ids embed the pid so records
   from different processes can never collide.
3. **Crash-safe export.**  Traces are written as JSONL (one record per
   line) through :mod:`repro.artifacts` — atomic publish, checksummed in
   the trace directory's manifest — one file per run:
   ``<run_id>.trace.jsonl``.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

#: Format version stamped into every exported trace header.
SCHEMA_VERSION = 1

TRACE_SUFFIX = ".trace.jsonl"

#: Default directory traces are exported into (gitignored).
DEFAULT_TRACE_DIR = "traces"

_ids = itertools.count(1)

#: Open-span stack of the *current execution context* — an immutable tuple
#: of span ids.  ``contextvars`` gives every thread its own value (exactly
#: the old ``threading.local`` behavior) and additionally snapshots it into
#: every asyncio task at creation, so concurrent tasks sharing one
#: event-loop thread cannot mis-parent each other's spans.  The tuple is
#: replaced, never mutated: a mutable list would be *shared* by the copied
#: contexts and reintroduce the cross-task race.
_SPAN_STACK: "contextvars.ContextVar[tuple]" = contextvars.ContextVar(
    "repro_span_stack", default=())


def _json_safe(value: Any) -> Any:
    """Coerce numpy scalars and other exotics to plain JSON types."""
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        try:
            return value.item()
        except (ValueError, TypeError):
            pass
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return str(value)


class Span:
    """One timed region.  Created (and started) by :meth:`Tracer.span`.

    Usable as a context manager or via explicit :meth:`finish` for regions
    whose start and end live in different methods (the throughput meter).
    ``duration`` is always valid after finish, whether or not the tracer
    buffered the record.
    """

    __slots__ = ("name", "span_id", "parent_id", "attributes", "start_s",
                 "end_s", "pid", "_tracer", "_finished")

    def __init__(self, name: str, tracer: Optional["Tracer"],
                 parent_id: Optional[str], attributes: Dict[str, Any]):
        self.name = name
        self.span_id = f"{os.getpid()}-{next(_ids)}" if tracer else ""
        self.parent_id = parent_id
        self.attributes = attributes
        self.pid = os.getpid()
        self.start_s = time.perf_counter()
        self.end_s: Optional[float] = None
        self._tracer = tracer
        self._finished = False

    @property
    def duration(self) -> float:
        """Seconds from start to finish (to *now* while still open)."""
        end = self.end_s if self.end_s is not None else time.perf_counter()
        return end - self.start_s

    def set(self, **attributes: Any) -> "Span":
        """Attach/overwrite attributes; chainable."""
        self.attributes.update(attributes)
        return self

    def finish(self) -> "Span":
        """Stop the clock and (when recording) buffer the span record."""
        if self._finished:
            return self
        self._finished = True
        self.end_s = time.perf_counter()
        if self._tracer is not None:
            self._tracer._finish(self)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info) -> None:
        self.finish()

    def to_record(self) -> Dict[str, Any]:
        return {
            "type": "span",
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "start": self.start_s,
            "duration": self.duration,
            "pid": self.pid,
            "attrs": _json_safe(self.attributes),
        }


class Tracer:
    """Buffers finished spans; one global instance drives the whole repo.

    ``enable()`` starts recording, ``disable()`` stops it; spans opened
    while disabled still time themselves but leave no record.  Parent/child
    linkage comes from a per-context (thread × asyncio task) stack of open
    *recorded* spans — see :data:`_SPAN_STACK`.
    """

    def __init__(self) -> None:
        self._records: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._enabled = False

    # -- state ------------------------------------------------------------- #
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def reset(self) -> None:
        """Drop buffered records (the open-span stacks are left alone)."""
        with self._lock:
            self._records = []

    @staticmethod
    def _stack() -> tuple:
        return _SPAN_STACK.get()

    # -- span lifecycle ----------------------------------------------------- #
    def span(self, name: str, **attributes: Any) -> Span:
        """Open (and start timing) a span.

        When the tracer is disabled this allocates a bare stopwatch object
        and nothing else — no id, no lock, no stack entry.
        """
        if not self._enabled:
            return Span(name, None, None, attributes)
        stack = _SPAN_STACK.get()
        parent = stack[-1] if stack else None
        span = Span(name, self, parent, attributes)
        _SPAN_STACK.set(stack + (span.span_id,))
        return span

    def _finish(self, span: Span) -> None:
        stack = _SPAN_STACK.get()
        if span.span_id in stack:  # tolerate out-of-order finishes
            _SPAN_STACK.set(tuple(s for s in stack if s != span.span_id))
        if self._enabled:
            with self._lock:
                self._records.append(span.to_record())

    def event(self, name: str, **attributes: Any) -> None:
        """Record an instantaneous occurrence (a zero-duration span)."""
        if not self._enabled:
            return
        stack = _SPAN_STACK.get()
        now = time.perf_counter()
        record = {
            "type": "event",
            "name": name,
            "id": f"{os.getpid()}-{next(_ids)}",
            "parent": stack[-1] if stack else None,
            "start": now,
            "duration": 0.0,
            "pid": os.getpid(),
            "attrs": _json_safe(attributes),
        }
        with self._lock:
            self._records.append(record)

    # -- export ------------------------------------------------------------- #
    def records(self) -> List[Dict[str, Any]]:
        """A copy of the buffered records, in finish order."""
        with self._lock:
            return list(self._records)

    def export(self, run_id: str,
               trace_dir: Union[str, Path] = DEFAULT_TRACE_DIR,
               extra_records: Optional[List[Dict[str, Any]]] = None) -> Path:
        """Write ``<trace_dir>/<run_id>.trace.jsonl`` atomically.

        The file starts with one header record, then every buffered span in
        finish order, then any ``extra_records`` (the CLI passes profiler
        op aggregates so one file tells the whole story of a run).
        """
        from ..artifacts import ArtifactStore
        records = self.records()
        header = {"type": "header", "schema": SCHEMA_VERSION, "run": run_id,
                  "pid": os.getpid(), "unix_time": time.time(),
                  "num_spans": len(records)}
        lines = [json.dumps(_json_safe(record))
                 for record in [header] + records + list(extra_records or [])]
        store = ArtifactStore(trace_dir)
        return store.write(f"{run_id}{TRACE_SUFFIX}",
                           lambda tmp: tmp.write_text("\n".join(lines) + "\n"))


#: The process-global tracer used by every instrumented layer.
TRACER = Tracer()


def get_tracer() -> Tracer:
    return TRACER


def span(name: str, **attributes: Any) -> Span:
    """Open a span on the global tracer (the usual entry point)."""
    return TRACER.span(name, **attributes)


def event(name: str, **attributes: Any) -> None:
    """Record an instantaneous event on the global tracer."""
    TRACER.event(name, **attributes)
