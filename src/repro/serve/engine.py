"""Batched sequential and thread-parallel scoring engines.

Two engines drive an :class:`~repro.pipeline.ERPipeline` at throughput:

* :class:`SequentialScorer` — batches formed by the length-bucketing,
  deduplicating :class:`~repro.serve.scheduler.BatchScheduler` instead of
  the oracle's fixed-stride/full-padding loop, scored one after another in
  the calling thread;
* :class:`ParallelScorer` — the same scheduler, its batches fanned out over
  a pool of worker threads that share one loaded pipeline.  numpy releases
  the GIL inside the GEMMs and ufunc loops that dominate a forward pass, so
  the threads overlap; ``no_grad`` and the span stack are context
  variables, so every batch runs in a copy of its request's context.

Every batch runs the one inference forward,
:meth:`~repro.pipeline.ERPipeline.probabilities`, which is batch-invariant:
a pair's probability depends only on the pair and the snapshot.  Both
engines therefore return :class:`~repro.pipeline.MatchDecision` lists
**bit-identical** to :meth:`~repro.pipeline.ERPipeline.score_pairs`,
whatever the scheduler configuration, cache state or worker count.  A
batch whose forward pass raises fails its whole request with a
``RuntimeError`` naming the batch's positions — no partial decision list is
ever returned — and the engine serves the next request normally.  Every run
records :class:`~repro.serve.metrics.ServeMetrics` (pairs, batches, wall
and busy time, per-run cache counters).

Both engines optionally front their scheduler with a content-addressed
:class:`~repro.serve.cache.ScoreCache` keyed by ``(manifest digest, token
ids)``: hits are scattered straight into the decision vector, only misses
are batched, and the probability vector is NaN-initialized with a
full-coverage assertion after the scatter loop so a scheduling bug can
never surface as an uninitialized "probability".

Both engines take a :class:`~repro.serve.request.ScoreRequest` as their
unit of work (``score_request``); ``score_pairs`` wraps one anonymous
request.  :class:`SequentialScorer` owns the whole run shape — meter,
cache lookup, scheduling, coverage assertion, per-run cache stats — and
:class:`ParallelScorer` overrides only
:meth:`SequentialScorer._score_batches`, the part that moves floats.
"""

from __future__ import annotations

import contextvars
import logging
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import telemetry
from ..artifacts import ArtifactStore
from ..blocking import CandidateStream
from ..data import Entity, EntityPair
from ..pipeline import ERPipeline, MatchDecision
from .cache import ScoreCache, pair_key
from .metrics import ServeMetrics, ThroughputMeter
from .request import ScoreRequest, ScoreResponse, as_request
from .scheduler import BatchScheduler, ScheduledBatch

logger = logging.getLogger("repro.serve")

#: Default number of candidate pairs buffered per streaming window.
STREAM_WINDOW = 2048


def _decisions(pairs: Sequence[EntityPair],
               probabilities: np.ndarray) -> List[MatchDecision]:
    return [MatchDecision(pair.left.entity_id, pair.right.entity_id, float(p))
            for pair, p in zip(pairs, probabilities)]


def _preview(positions: np.ndarray) -> str:
    """The first few request positions, for error messages."""
    shown = ", ".join(str(i) for i in positions[:8].tolist())
    return shown + (", ..." if positions.size > 8 else "")


def _assert_covered(probabilities: np.ndarray, engine: str) -> None:
    """Refuse to emit any position the scatter loop never filled.

    The probability vector starts as all-NaN; a scheduler or dedup bug that
    skips a pair must surface as a loud error here, never as an
    uninitialized-memory "probability" in a decision list.
    """
    missing = np.flatnonzero(np.isnan(probabilities))
    if missing.size:
        raise RuntimeError(
            f"{engine} scoring left {missing.size} of {probabilities.size} "
            f"pairs unscored (positions {_preview(missing)})")


def _cache_lookup(cache: ScoreCache, digest: str,
                  encoded: Sequence[Sequence[int]],
                  probabilities: np.ndarray,
                  meter: ThroughputMeter) -> Tuple[np.ndarray, List[str]]:
    """Fill cache hits into ``probabilities``; returns (miss positions, keys)."""
    with telemetry.span("serve.cache.lookup", num_pairs=len(encoded)):
        keys = [pair_key(seq) for seq in encoded]
        cached = cache.lookup(digest, keys)
    hit = np.isfinite(cached)
    probabilities[hit] = cached[hit]
    meter.record_cached(int(hit.sum()))
    meter.record_misses(int((~hit).sum()))
    return np.flatnonzero(~hit), keys


def _snapshot_calibrator(directory: Union[str, Path]):
    """The snapshot's persisted risk calibrator, or ``None`` (logged)."""
    from ..risk.calibration import load_calibrator  # lazy: avoids a cycle
    calibrator = load_calibrator(ArtifactStore(Path(directory)))
    if calibrator is None:
        logger.warning(
            "snapshot %s carries no calibration.json; risk routing will "
            "band raw matcher probabilities", directory)
    return calibrator


def _load_pipeline(source: Union[ERPipeline, str, Path], router):
    """``(pipeline, calibrator)`` for a live pipeline or a snapshot directory.

    A live pipeline routes raw probabilities; a snapshot's persisted
    calibrator is loaded only when a router will use it.
    """
    if isinstance(source, ERPipeline):
        return source, None
    calibrator = _snapshot_calibrator(source) if router is not None else None
    return ERPipeline.load(source), calibrator


def _scheduler(pipeline: ERPipeline, **scheduler_kwargs) -> BatchScheduler:
    return BatchScheduler(pipeline.extractor.vocab,
                          pipeline.extractor.max_len, **scheduler_kwargs)


class SequentialScorer:
    """In-process scoring through the length-bucketing scheduler.

    With ``cache`` set, every request consults the content-addressed
    :class:`~repro.serve.cache.ScoreCache` before batch formation — only
    misses are encoded into batches — and newly scored probabilities are
    admitted back.  The pipeline must carry a ``manifest_digest`` (any
    pipeline saved or loaded through :class:`ERPipeline` does), because the
    snapshot identity is half of every cache key.  With ``router`` set (a
    :class:`repro.risk.RiskRouter`), every response carries per-decision
    routing annotations and uncertain pairs land on the router's review
    queue; the decision list is computed before routing and never modified
    by it.  ``calibrator`` (a :class:`repro.risk.Calibrator` loaded from
    the snapshot's ``calibration.json``) is what the router bands; ``None``
    routes raw probabilities.
    """

    #: Engine label and worker-thread count stamped into metrics and spans.
    engine_name = "sequential"
    num_workers = 1

    def __init__(self, pipeline: ERPipeline,
                 scheduler: Optional[BatchScheduler] = None,
                 cache: Optional[ScoreCache] = None,
                 router=None, calibrator=None):
        self.pipeline = pipeline
        self.scheduler = scheduler or _scheduler(pipeline)
        self.cache = cache
        self.router = router
        self.calibrator = calibrator
        self._digest = getattr(pipeline, "manifest_digest", None)
        if cache is not None and self._digest is None:
            raise ValueError(
                "a ScoreCache needs the pipeline's snapshot identity; save "
                "or load the pipeline through ERPipeline so it carries a "
                "manifest_digest")
        self.last_metrics: Optional[ServeMetrics] = None

    @classmethod
    def from_directory(cls, directory: Union[str, Path],
                       cache: Optional[ScoreCache] = None, router=None,
                       **scheduler_kwargs) -> "SequentialScorer":
        pipeline, calibrator = _load_pipeline(directory, router)
        return cls(pipeline, _scheduler(pipeline, **scheduler_kwargs),
                   cache=cache, router=router, calibrator=calibrator)

    @property
    def threshold(self) -> float:
        """The snapshot's match threshold."""
        return self.pipeline.threshold

    def close(self) -> None:
        """Nothing to tear down; present so ``score_tables`` can close
        either engine."""

    def __enter__(self) -> "SequentialScorer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def snapshot_digest(self) -> Optional[str]:
        """Manifest digest of the snapshot this engine scores with."""
        return self._digest

    def score_request(self, request: ScoreRequest) -> ScoreResponse:
        """Score one request; decisions come back in request order."""
        meter = ThroughputMeter(self.engine_name,
                                num_workers=self.num_workers)
        pairs = request.pairs
        if not pairs:  # zero work: never touch (or start) any worker
            self.last_metrics = meter.finalize()
            return ScoreResponse(request_id=request.request_id,
                                 domain=request.domain, decisions=[],
                                 snapshot_digest=self._digest,
                                 metrics=self.last_metrics,
                                 routing=([] if self.router is not None
                                          else None))
        probabilities = np.full(len(pairs), np.nan, dtype=np.float64)
        encoded = self.scheduler.encode(pairs)
        keys: List[str] = []
        if self.cache is not None:
            positions, keys = _cache_lookup(self.cache, self._digest, encoded,
                                            probabilities, meter)
            encoded = [encoded[i] for i in positions]
        else:
            positions = None
        try:
            self._score_batches(encoded, positions, keys, probabilities,
                                meter)
            _assert_covered(probabilities, self.engine_name)
        except BaseException:
            # Close the run's span so the next request on this context
            # does not nest under a failed one; a failed run has no metrics.
            meter.finalize()
            raise
        cache_stats = (meter.cache_stats(len(self.cache))
                       if self.cache is not None else None)
        self.last_metrics = meter.finalize(cache=cache_stats)
        decisions = _decisions(pairs, probabilities)
        routing = None
        if self.router is not None:
            # Annotate-only: the decision list above is already final, so
            # routing (and any fault inside it) can never move a
            # probability — the bit-identity contract the risk tier pins.
            routing = self.router.route(pairs, decisions, self.calibrator,
                                        self._digest, request.domain)
        return ScoreResponse(request_id=request.request_id,
                             domain=request.domain,
                             decisions=decisions,
                             snapshot_digest=self._digest,
                             metrics=self.last_metrics,
                             routing=routing)

    def score_pairs(self, pairs: Sequence[EntityPair]) -> List[MatchDecision]:
        """Score ``pairs`` as one anonymous request; decisions only."""
        return self.score_request(as_request(pairs)).decisions

    def _forward(self, batch: ScheduledBatch) -> Tuple[np.ndarray, float]:
        """One batch's match probabilities and its forward-pass seconds."""
        with telemetry.span("serve.batch", engine=self.engine_name,
                            num_pairs=batch.num_pairs,
                            padded_length=batch.padded_length) as sp:
            probs = self.pipeline.probabilities(batch.ids, batch.mask)
        return probs, sp.duration

    def _collect(self, batch: ScheduledBatch, probs: np.ndarray,
                 seconds: float, keys: List[str], probabilities: np.ndarray,
                 meter: ThroughputMeter) -> None:
        meter.record_batch(batch.num_covered, seconds)
        batch.scatter(probabilities, probs)
        if self.cache is not None:  # evictions count against this run
            meter.record_evictions(self.cache.put_many(
                self._digest,
                [keys[i] for i in batch.row_positions.tolist()], probs))

    def _score_batches(self, encoded, positions, keys, probabilities,
                       meter) -> None:
        """Score every scheduled batch into ``probabilities``."""
        for batch in self.scheduler.schedule_encoded(encoded, positions):
            probs, seconds = self._forward(batch)
            self._collect(batch, probs, seconds, keys, probabilities, meter)

    def score_tables(self, left_table: Iterable[Entity],
                     right_table: Iterable[Entity],
                     window: int = STREAM_WINDOW,
                     blocker: Optional[CandidateStream] = None
                     ) -> Iterator[MatchDecision]:
        """Stream decisions for every blocked candidate pair.

        Blocks lazily and scores in bounded windows — O(window) memory.
        ``blocker`` overrides the snapshot's own overlap blocker — any
        :class:`~repro.blocking.CandidateStream` works, e.g. a
        :class:`repro.scale.ShardedBlocker` streaming entity chunks.
        """
        if window <= 0:
            raise ValueError("window must be positive")
        blocker = blocker or self.pipeline.blocker
        buffer: List[EntityPair] = []
        for pair in blocker.iter_candidates(left_table, right_table):
            buffer.append(pair)
            if len(buffer) >= window:
                yield from self.score_pairs(buffer)
                buffer = []
        if buffer:
            yield from self.score_pairs(buffer)

    def match_tables(self, left_table: Iterable[Entity],
                     right_table: Iterable[Entity]) -> List[Tuple[str, str]]:
        """Blocked + matched id pairs above the snapshot's threshold."""
        return [(d.left_id, d.right_id)
                for d in self.score_tables(left_table, right_table)
                if d.probability >= self.threshold]


class ParallelScorer(SequentialScorer):
    """Fan scheduled batches out over ``num_workers`` threads.

    Parameters
    ----------
    pipeline:
        A live :class:`ERPipeline` or a snapshot directory written by
        :meth:`ERPipeline.save`, loaded once and shared by every thread.
    num_workers:
        Worker threads; must be >= 1.
    cache / router:
        As for :class:`SequentialScorer`.
    scheduler_kwargs:
        Forwarded to :class:`BatchScheduler` (caps, bucket rounding...).

    Threads start lazily on the first request that has batches to score;
    zero-work requests and fully cached requests start none.  Use as a
    context manager (or call :meth:`close`) so the threads are joined
    deterministically.  A closed scorer refuses further work.
    """

    engine_name = "parallel"

    def __init__(self, pipeline: Union[ERPipeline, str, Path],
                 num_workers: int = 4,
                 cache: Optional[ScoreCache] = None, router=None,
                 **scheduler_kwargs):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        pipeline, calibrator = _load_pipeline(pipeline, router)
        super().__init__(pipeline, _scheduler(pipeline, **scheduler_kwargs),
                         cache=cache, router=router, calibrator=calibrator)
        self.num_workers = num_workers
        self._lock = threading.Lock()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._closed = False

    def close(self) -> None:
        """Join every worker thread; safe to call twice or on error.

        Batches already submitted finish first, so a request in flight
        completes; any later request is refused.
        """
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def _submit(self, batches: List[ScheduledBatch]) -> List[Future]:
        with self._lock:
            if self._closed:
                raise RuntimeError(
                    "ParallelScorer is closed; construct a new scorer "
                    "instead of reusing one whose threads were joined")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    self.num_workers, thread_name_prefix="repro-score")
            # One context copy per batch (a context runs in one thread at
            # a time): the batch's span nests under this request's run.
            return [self._executor.submit(contextvars.copy_context().run,
                                          self._forward, batch)
                    for batch in batches]

    def _score_batches(self, encoded, positions, keys, probabilities,
                       meter) -> None:
        with telemetry.span("serve.schedule", num_pairs=len(encoded)):
            batches = list(self.scheduler.schedule_encoded(encoded, positions))
        if not batches:  # a fully cached request starts no thread
            return
        futures = self._submit(batches)
        try:
            # Collected in schedule order, so cache admissions (and LRU
            # evictions) happen exactly as in the sequential engine.
            for batch, future in zip(batches, futures):
                try:
                    probs, seconds = future.result()
                except Exception as error:
                    raise RuntimeError(
                        f"{self.engine_name} scoring failed on the batch "
                        f"covering positions {_preview(batch.indices)}: "
                        f"{error}") from error
                self._collect(batch, probs, seconds, keys, probabilities,
                              meter)
        finally:
            # No batch of this request outlives it: drop the queued ones
            # and wait out the running ones.
            for future in futures:
                if not future.cancel():
                    future.exception()


# --------------------------------------------------------------------------- #
# streaming API
# --------------------------------------------------------------------------- #

def score_tables(pipeline: Union[ERPipeline, str, Path],
                 left_table: Iterable[Entity],
                 right_table: Iterable[Entity],
                 num_workers: int = 0,
                 window: int = STREAM_WINDOW,
                 cache: Optional[ScoreCache] = None,
                 router=None,
                 blocker: Optional[CandidateStream] = None,
                 **scheduler_kwargs) -> Iterator[MatchDecision]:
    """Stream a :class:`MatchDecision` for every blocked candidate pair.

    ``pipeline`` is either a live :class:`ERPipeline` or a snapshot
    directory.  ``num_workers=0`` scores in-process through the batched
    :class:`SequentialScorer`; ``num_workers >= 1`` fans each window's
    batches out over that many :class:`ParallelScorer` threads.  Decisions
    stream in blocker order with at most ``window`` candidates buffered, so
    two large tables never materialize their full candidate set.  Filter on
    ``d.probability`` (or ``d.is_match``) to keep matches only.  ``cache``
    memoizes probabilities across windows and calls — overlapping candidate
    sets are scored once.  ``router`` (a :class:`repro.risk.RiskRouter`)
    annotates every window as it streams — uncertain pairs land on the
    router's review queue — while the yielded decisions stay bit-identical
    to a router-less run.  ``blocker`` substitutes any
    :class:`~repro.blocking.CandidateStream` for the snapshot's built-in
    overlap blocker — the scale pipeline passes a
    :class:`repro.scale.ShardedBlocker` here, with both tables as lazy
    entity streams.
    """
    if num_workers > 0:
        scorer = ParallelScorer(pipeline, num_workers=num_workers,
                                cache=cache, router=router,
                                **scheduler_kwargs)
    else:
        pipeline, calibrator = _load_pipeline(pipeline, router)
        scorer = SequentialScorer(pipeline,
                                  _scheduler(pipeline, **scheduler_kwargs),
                                  cache=cache, router=router,
                                  calibrator=calibrator)
    with scorer:
        yield from scorer.score_tables(left_table, right_table,
                                       window=window, blocker=blocker)
