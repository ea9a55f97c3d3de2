"""The benchmark's four workloads, their input gates and output gates.

Every workload drives the program through public calls only, and wraps
each call into a layer in a ``perf.*`` span: per chunk read
(``perf.data.read``), per blocker window pulled (``perf.blocker``), per
``score_pairs`` call (``perf.engine``), per cluster fold
(``perf.cluster``), per cache flush (``perf.cache.flush``) and per daemon
request (``perf.request``).  Untraced, those spans are plain stopwatches;
inside a :class:`repro.telemetry.TelemetrySession` they are recorded, the
program's own spans nest under them, and the exported trace attributes
the pass's wall time layer by layer (:func:`perf.stats.self_times`).

Work the benchmark does for itself — generating inputs, checking
outputs — runs outside the timed calls (checks under ``perf.check``
spans), so it never counts toward a measured number.

An untraced run measures for at least ``seconds`` and at least
:data:`MIN_SAMPLES` latency samples.  Inputs come from the seed only:
synthetic scale corpora (:func:`repro.scale.generate_scale_corpus`) and,
for the workloads that do not block, candidate pairs built from the
ground-truth ids (:func:`id_paired`), never by the blocker, so a blocker
change cannot alter another workload's input.
"""

from __future__ import annotations

import itertools
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import telemetry
from repro.data import Entity, EntityPair, iter_entity_table
from repro.scale import (ShardedBlocker, TransitiveClusterer,
                         cluster_quality, generate_scale_corpus,
                         true_cluster_of)
from repro.scale.bench import BENCH_BLOCKER, BENCH_DIRT
from repro.serve import STREAM_WINDOW, ScoreCache, SequentialScorer
from repro.serve.scheduler import BatchScheduler

from .loadgen import DaemonProcess, Sample, open_loop
from .stats import (MIN_BEYOND, f1_score, percentile, percentile_or_zero,
                    ratio, self_times, spans_under)

#: Catalog spec every corpus renders (the snapshot is trained on it too).
SPEC = "fodors_zagats"

#: A run keeps going until it has this many latency samples, the fewest
#: that support a median under :data:`perf.stats.MIN_BEYOND`.
MIN_SAMPLES = 2 * MIN_BEYOND

#: Input gates: refuse inputs the model mostly cannot see ([UNK]) and, for
#: score_bulk, inputs that dedup would collapse instead of scoring.
MAX_UNK_SHARE = 0.2
MIN_UNIQUE_SHARE = 0.5

#: Output gates.
MIN_RECALL = 0.99
BULK_GATE_PAIRS = 512
BULK_GATE_TOLERANCE = 1e-9
MIN_WARM_HIT_RATE = 0.9
SERVE_GATE_REPLIES = 64

#: serve_online traffic: open-loop rate steps (req/s), pairs per request,
#: load-generator threads (one connection each) and the latency limit: a
#: request answered later than it misses, and a step whose p90 misses it
#: is not sustained.
RATES = (40, 80, 120)
REQUEST_PAIRS = 8
CONNECTIONS = 2
WARMUP_REQUESTS = 10
LIMIT_MS = 50.0

#: rescore_cached is a synthetic cache-stress point: no producer in the
#: program repeats pairs.  Every distinct pair appears this many times, so
#: three of four cold-pass lookups hit the filling cache and the cold pass
#: runs both the hit path and miss -> score -> put.
RESCORE_REPEATS = 4


@dataclass(frozen=True)
class Size:
    """Input sizes; ``full`` is the benchmark, ``tiny`` a smoke run."""

    resolve_records: int  # records per resolved table pair
    shard_size: int       # blocker left-shard rows and right-window rows
    resolve_window: int   # candidates per scoring window in resolve
    window: int           # pairs per scoring window in the other workloads
    batch_records: int    # records per generated input corpus
    rescore_distinct: int  # distinct pairs per rescore_cached cycle
    setup_repeats: int


SIZES = {
    # resolve: ~10.7k left rows in 6 shards x ~5.3k right rows in 3 windows
    # per table pair, the shard x window structure of the 1M-record run at
    # a sixtieth of its records.  Windows are half of STREAM_WINDOW so a
    # 15 s run of every batch workload holds well over MIN_SAMPLES.
    "full": Size(resolve_records=16000, shard_size=2048,
                 resolve_window=STREAM_WINDOW // 2,
                 window=STREAM_WINDOW // 2,
                 batch_records=8000, rescore_distinct=4096,
                 setup_repeats=9),
    "tiny": Size(resolve_records=1500, shard_size=256, resolve_window=64,
                 window=64, batch_records=1500, rescore_distinct=128,
                 setup_repeats=1),
}


class GateError(RuntimeError):
    """An input or output gate failed: the run reports nothing."""


@dataclass
class Context:
    """What one workload run needs: arguments, paths, the warm engine."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    size: Size
    snapshot: Path
    work: Path
    scorer: SequentialScorer = field(init=False)

    def __post_init__(self) -> None:
        self.scorer = SequentialScorer.from_directory(self.snapshot)
        self._corpora = itertools.count()

    def corpus(self, records: int):
        """The next seeded corpus of this run (a fresh one every call)."""
        index = next(self._corpora)
        return generate_scale_corpus(
            self.work / "inputs" / f"corpus{index:03d}", records, spec=SPEC,
            seed=self.seed * 1000 + index, dirt=BENCH_DIRT)


# --------------------------------------------------------------------------- #
# inputs and input gates
# --------------------------------------------------------------------------- #

def id_paired(corpus) -> List[EntityPair]:
    """Labeled candidates built from ground-truth ids, in right-table order.

    Each right record is paired with every left record of its own cluster
    (label 1) and with the first left record of its sibling cluster
    (label 0).  Clusters ``2k`` and ``2k+1`` are one world family, so the
    sibling is a hard negative.
    """
    left: Dict[str, List[Entity]] = {}
    for chunk in iter_entity_table(corpus.left_path):
        for entity in chunk:
            left.setdefault(true_cluster_of(entity.entity_id),
                            []).append(entity)
    pairs = []
    for chunk in iter_entity_table(corpus.right_path):
        for right in chunk:
            cluster = true_cluster_of(right.entity_id)
            for partner in left.get(cluster, ()):
                pairs.append(EntityPair(partner, right, 1))
            sibling = left.get(f"{int(cluster) ^ 1:08d}")
            if sibling:
                pairs.append(EntityPair(sibling[0], right, 0))
    return pairs


class InputShares:
    """[UNK] token share and distinct-encoding share of a workload's
    inputs, measured with the public :meth:`BatchScheduler.encode`."""

    def __init__(self, scheduler: BatchScheduler,
                 min_unique: Optional[float] = None):
        self.scheduler = scheduler
        self.min_unique = min_unique
        self.tokens = self.unk = self.pairs = 0
        # Hashes, not the sequences: the benchmark's own memory shows in
        # peak_rss_mb.
        self.distinct: set = set()

    def add(self, pairs: Sequence[EntityPair]) -> List[List[int]]:
        encoded = self.scheduler.encode(pairs)
        unk_id = self.scheduler.vocab.unk_id
        self.tokens += sum(len(seq) for seq in encoded)
        self.unk += sum(seq.count(unk_id) for seq in encoded)
        self.pairs += len(encoded)
        self.distinct.update(hash(tuple(seq)) for seq in encoded)
        self.check()
        return encoded

    @property
    def unk_share(self) -> float:
        return ratio(self.unk, self.tokens)

    @property
    def unique_share(self) -> float:
        return ratio(len(self.distinct), self.pairs)

    def check(self) -> None:
        if self.unk_share > MAX_UNK_SHARE:
            raise GateError(
                f"input gate: {self.unk_share:.1%} of tokens encode to "
                f"[UNK] (limit {MAX_UNK_SHARE:.0%}); the model would score "
                f"padding, not the inputs")
        if self.min_unique is not None and self.unique_share < self.min_unique:
            raise GateError(
                f"input gate: only {self.unique_share:.1%} of encodings are "
                f"distinct (minimum {self.min_unique:.0%}); dedup would skip "
                f"the model")

    def metrics(self) -> Dict[str, float]:
        return {"serve.engine.unk_share": self.unk_share,
                "serve.engine.unique_share": self.unique_share}


# --------------------------------------------------------------------------- #
# measured passes
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class Budget:
    """How long a time-boxed pass measures, and the fewest latency
    samples it must collect before it may stop."""

    seconds: float
    samples: int

    def spent(self, elapsed: float, samples: int) -> bool:
        return elapsed >= self.seconds and samples >= self.samples


def _unit_indices(budget: Optional[Budget], count: Optional[int],
                  progress: Callable[[], tuple]):
    """Indices of the units a pass runs: the first ``count`` on a
    replay, else until ``budget`` is spent (``progress()`` returns the
    measured seconds and latency samples so far)."""
    if count is not None:
        return iter(range(count))
    return itertools.takewhile(lambda __: not budget.spent(*progress()),
                               itertools.count())


def _measure(ctx: Context, run_pass: Callable[..., Dict[str, Any]]
             ) -> Dict[str, Any]:
    """Run ``run_pass`` untraced, or — with ``ctx.trace`` — untraced for
    half the time, then again traced over the same units of work.

    ``run_pass(budget, count)`` measures until the :class:`Budget` is
    spent when ``count`` is ``None`` and returns ``{"units": n,
    "measured_s": ..., ...}``; given ``count`` it replays its first
    ``count`` units.  A traced run reports no end-to-end percentile, so
    its first pass needs no minimum sample count.
    """
    if not ctx.trace:
        with telemetry.span("perf.run"):
            return run_pass(Budget(ctx.seconds, MIN_SAMPLES), None)
    with telemetry.span("perf.run"):
        plain = run_pass(Budget(ctx.seconds / 2, 0), None)
    trace_dir = ctx.work / "trace"
    with telemetry.TelemetrySession(f"{ctx.workload}-s{ctx.seed}",
                                    trace_dir=trace_dir) as session:
        with telemetry.span("perf.run"):
            traced = run_pass(None, plain["units"])
        path = session.export()
    records = telemetry.load_trace(path)["spans"]
    attribution = self_times(records, "perf.run")
    traced["trace"] = records
    traced["attribution"] = attribution
    traced["layers_common"] = {
        "perf.wall_s": attribution["wall"],
        "perf.unattributed_s": attribution["unattributed"],
        "perf.trace_overhead_s": traced["measured_s"] - plain["measured_s"],
    }
    return traced


def _batch_layers(records: Sequence[Dict[str, Any]], ancestor: str,
                  real_tokens: int) -> Dict[str, float]:
    """Batches, scored rows per batch and padding share of the
    ``serve.batch`` spans under ``ancestor`` spans."""
    batches = [r for r in spans_under(records, ancestor)
               if r["name"] == "serve.batch"]
    rows = sum(r["attrs"]["num_pairs"] for r in batches)
    padded = sum(r["attrs"]["num_pairs"] * r["attrs"]["padded_length"]
                 for r in batches)
    return {"serve.engine.batches": len(batches),
            "serve.engine.pairs_per_batch": ratio(rows, len(batches)),
            "serve.engine.pad_waste": 1.0 - ratio(real_tokens, padded)
            if padded else 0.0}


def _sum_named(records: Sequence[Dict[str, Any]], name: str) -> float:
    return sum(r["duration"] for r in records if r["name"] == name)


def _unique_tokens(encoded: Sequence[Sequence[int]]) -> int:
    """Real tokens a deduplicating window scores (one per distinct row)."""
    return sum(len(seq) for seq in {tuple(s) for s in encoded})


class _Counts:
    """Confusion counts of match decisions against ground truth."""

    def __init__(self) -> None:
        self.tp = self.fp = self.fn = 0

    def add(self, pairs: Sequence[EntityPair], decisions) -> None:
        for pair, decision in zip(pairs, decisions):
            if decision.is_match:
                if pair.label:
                    self.tp += 1
                else:
                    self.fp += 1
            elif pair.label:
                self.fn += 1

    @property
    def f1(self) -> float:
        return f1_score(self.tp, self.fp, self.fn)


def _check_ids(pairs: Sequence[EntityPair], decisions) -> None:
    if len(decisions) != len(pairs) or any(
            d.left_id != p.left.entity_id or d.right_id != p.right.entity_id
            for p, d in zip(pairs, decisions)):
        raise GateError("output gate: decisions do not match the candidates "
                        "they were asked for")


def _windows(pairs: Sequence[EntityPair], size: int):
    return [pairs[i:i + size] for i in range(0, len(pairs), size)]


# --------------------------------------------------------------------------- #
# resolve
# --------------------------------------------------------------------------- #

def resolve(ctx: Context) -> Dict[str, Any]:
    """Table pair in, clusters out: read → block → score → cluster."""
    size = ctx.size
    scorer = ctx.scorer
    shares = InputShares(scorer.scheduler)
    corpora: List[Any] = []

    def unit(corpus, index: int, stats: Dict[str, Any]) -> float:
        """Resolve one table pair; returns its measured seconds."""
        spill = ctx.work / "spill" / f"unit{index:03d}"
        # The blocker's default MinHash family: it is program
        # configuration, not input, so it does not follow the seed.
        blocker = ShardedBlocker(shard_size=size.shard_size,
                                 spill_dir=spill, **BENCH_BLOCKER)
        clusterer = TransitiveClusterer(threshold=scorer.pipeline.threshold)
        ids: List[str] = []

        def table(path: Path):
            chunks = iter_entity_table(path)
            while True:
                with telemetry.span("perf.data.read") as span:
                    chunk = next(chunks, None)
                    if chunk is not None:
                        ids.extend(e.entity_id for e in chunk)
                stats["read_s"] += span.duration
                if chunk is None:
                    return
                stats["rows"] += len(chunk)
                yield chunk

        candidates = blocker.iter_candidates(table(corpus.left_path),
                                             table(corpus.right_path))
        start = time.perf_counter()
        unchecked = 0.0
        decided = 0
        while True:
            with telemetry.span("perf.blocker") as span:
                window = list(itertools.islice(candidates,
                                               size.resolve_window))
            stats["block_s"] += span.duration
            if not window:
                break
            with telemetry.span("perf.engine") as engine:
                decisions = scorer.score_pairs(window)
            with telemetry.span("perf.cluster") as fold:
                for decision in decisions:
                    clusterer.add_decision(decision)
            stats["latencies"].append(engine.duration + fold.duration)
            stats["engine_s"] += engine.duration
            stats["forward_s"] += scorer.last_metrics.busy_seconds
            stats["cluster_s"] += fold.duration
            with telemetry.span("perf.check") as check:
                _check_ids(window, decisions)
                decided += len(decisions)
                stats["caught"] += sum(
                    1 for p in window if true_cluster_of(p.left.entity_id)
                    == true_cluster_of(p.right.entity_id))
                if ctx.trace:
                    stats["real_tokens"] += _unique_tokens(
                        scorer.scheduler.encode(window))
            unchecked += check.duration
        with telemetry.span("perf.cluster") as fold:
            clusterer.add_entities(ids)
            clusters = clusterer.clusters()
        stats["cluster_s"] += fold.duration
        measured = time.perf_counter() - start - unchecked
        with telemetry.span("perf.check"):
            block = blocker.last_stats
            if decided != block["candidates"]:
                raise GateError(f"output gate: {decided} decisions for "
                                f"{block['candidates']} candidates")
            if (len(clusters.assignments) != corpus.records
                    or set(clusters.assignments) != set(ids)):
                raise GateError("output gate: clusters do not cover every "
                                "record exactly once")
            truth = {i: true_cluster_of(i) for i in ids}
            stats["f1"].append(
                cluster_quality(clusters.assignments, truth).f1)
            stats["records"] += corpus.records
            stats["true_matches"] += corpus.true_matches
            stats["candidates"] += block["candidates"]
            stats["shards"] += block["num_shards"]
            stats["spilled_bytes"] += block["spilled_bytes"]
            stats["max_shard_bytes"] = max(stats["max_shard_bytes"],
                                           block["max_shard_bytes"])
            stats["merged_edges"] += clusters.merged_edges
            shutil.rmtree(spill)
        return measured

    def run_pass(budget: Optional[Budget], count: Optional[int]
                 ) -> Dict[str, Any]:
        stats: Dict[str, Any] = {
            "latencies": [], "f1": [], "read_s": 0.0, "rows": 0,
            "block_s": 0.0, "engine_s": 0.0, "forward_s": 0.0,
            "cluster_s": 0.0, "records": 0, "true_matches": 0,
            "candidates": 0, "caught": 0, "shards": 0, "spilled_bytes": 0,
            "max_shard_bytes": 0, "merged_edges": 0, "real_tokens": 0,
            "units": 0, "measured_s": 0.0}
        for index in _unit_indices(budget, count, lambda: (
                stats["measured_s"], len(stats["latencies"]))):
            if index == len(corpora):
                corpus = ctx.corpus(size.resolve_records)
                shares.add(id_paired(corpus))
                corpora.append(corpus)
            stats["measured_s"] += unit(corpora[index], index, stats)
            stats["units"] += 1
        return stats

    result = _measure(ctx, run_pass)
    recall = ratio(result["caught"], result["true_matches"])
    if recall < MIN_RECALL:
        raise GateError(f"output gate: blocking recall {recall:.4f} < "
                        f"{MIN_RECALL}")
    end_to_end = {} if ctx.trace else {
        "throughput_per_s": result["records"] / result["measured_s"],
        "latency_p50_ms": 1e3 * percentile(result["latencies"], 50),
        "quality_f1": statistics.fmean(result["f1"]),
    }
    layers = dict(shares.metrics())
    layers.update({
        "data.rows_per_s": ratio(result["rows"], result["read_s"]),
        "data.read_s": result["read_s"],
        "scale.blocker.candidates": result["candidates"],
        "scale.blocker.recall": recall,
        "scale.blocker.precision": ratio(result["caught"],
                                         result["candidates"]),
        "scale.blocker.shards": result["shards"],
        "scale.blocker.spilled_mb": result["spilled_bytes"] / 2 ** 20,
        "scale.blocker.max_shard_mb": result["max_shard_bytes"] / 2 ** 20,
        "serve.engine.busy_s": result["engine_s"],
        "serve.engine.forward_s": result["forward_s"],
        "serve.engine.prep_s": result["engine_s"] - result["forward_s"],
        "scale.cluster.busy_s": result["cluster_s"],
        "scale.cluster.merged_edges": result["merged_edges"],
        "scale.cluster.f1": statistics.fmean(result["f1"]),
    })
    if ctx.trace:
        records = result["trace"]
        own = result["attribution"]["self"]
        layers.update(result["layers_common"])
        layers.update({
            "scale.blocker.self_s": own.get("perf.blocker", 0.0),
            "scale.blocker.pass1_s": own.get("scale.block.pass1", 0.0),
            "scale.blocker.spill_s": _sum_named(records, "scale.block.spill"),
            "scale.blocker.probe_s": _sum_named(records, "scale.block.probe"),
        })
        layers.update(_batch_layers(records, "perf.engine",
                                    result["real_tokens"]))
    return {"attempted": len(result["latencies"]), "failed": 0,
            "end_to_end": end_to_end, "layers": layers,
            "samples": {"windows": len(result["latencies"]),
                        "table_pairs": result["units"]}}


# --------------------------------------------------------------------------- #
# score_bulk
# --------------------------------------------------------------------------- #

def score_bulk(ctx: Context) -> Dict[str, Any]:
    """Id-paired candidates scored window by window, no cache."""
    size = ctx.size
    scorer = ctx.scorer
    shares = InputShares(scorer.scheduler, min_unique=MIN_UNIQUE_SHARE)
    windows: List[List[EntityPair]] = []
    real_tokens: List[int] = []
    pending: List[EntityPair] = []

    def next_window() -> None:
        """Cut the next window off freshly generated pairs (never reused)."""
        nonlocal pending
        while len(pending) < size.window:
            pending += id_paired(ctx.corpus(size.batch_records))
        window, pending = pending[:size.window], pending[size.window:]
        real_tokens.append(_unique_tokens(shares.add(window)))
        windows.append(window)

    def run_pass(budget: Optional[Budget], count: Optional[int]
                 ) -> Dict[str, Any]:
        latencies: List[float] = []
        forward = 0.0
        pairs = tokens = 0
        counts = _Counts()
        gate: List[tuple] = []
        for index in _unit_indices(budget, count, lambda: (
                sum(latencies), len(latencies))):
            if index == len(windows):
                next_window()
            window = windows[index]
            with telemetry.span("perf.engine") as engine:
                decisions = scorer.score_pairs(window)
            latencies.append(engine.duration)
            forward += scorer.last_metrics.busy_seconds
            with telemetry.span("perf.check"):
                _check_ids(window, decisions)
                counts.add(window, decisions)
                room = BULK_GATE_PAIRS - len(gate)
                gate.extend(zip(window[:room], decisions[:room]))
                pairs += len(window)
                tokens += real_tokens[index]
                if not ctx.trace:  # only a traced run replays its windows
                    windows[index] = []
        return {"units": len(latencies), "measured_s": sum(latencies),
                "latencies": latencies, "forward_s": forward,
                "counts": counts, "gate": gate, "pairs": pairs,
                "real_tokens": tokens}

    result = _measure(ctx, run_pass)
    _reference_gate(scorer, result["gate"])
    engine_s = result["measured_s"]
    end_to_end = {} if ctx.trace else {
        "throughput_per_s": result["pairs"] / engine_s,
        "latency_p50_ms": 1e3 * percentile(result["latencies"], 50),
        "quality_f1": result["counts"].f1,
    }
    layers = dict(shares.metrics())
    layers.update({"serve.engine.busy_s": engine_s,
                   "serve.engine.forward_s": result["forward_s"],
                   "serve.engine.prep_s": engine_s - result["forward_s"]})
    if ctx.trace:
        layers.update(result["layers_common"])
        layers.update(_batch_layers(result["trace"], "perf.engine",
                                    result["real_tokens"]))
    return {"attempted": len(result["latencies"]), "failed": 0,
            "end_to_end": end_to_end, "layers": layers,
            "samples": {"windows": len(result["latencies"]),
                        "pairs": result["pairs"]}}


def _reference_gate(scorer: SequentialScorer, gate: Sequence[tuple]) -> None:
    """The engine's decisions on a fixed sample equal the reference
    ``ERPipeline.score_pairs`` (same verdicts, probabilities within 1e-9;
    batch composition differs, so bits may not)."""
    pairs = [pair for pair, __ in gate]
    reference = scorer.pipeline.score_pairs(pairs)
    for (pair, decision), expected in zip(gate, reference):
        if (decision.is_match != expected.is_match
                or abs(decision.probability - expected.probability)
                > BULK_GATE_TOLERANCE):
            raise GateError(
                f"output gate: engine scored {pair.left.entity_id}/"
                f"{pair.right.entity_id} {decision.probability!r}, reference "
                f"ERPipeline.score_pairs {expected.probability!r}")


# --------------------------------------------------------------------------- #
# rescore_cached
# --------------------------------------------------------------------------- #

def rescore_cached(ctx: Context) -> Dict[str, Any]:
    """One repeated-pair stream scored cold (cache filling from an empty
    directory, then flushed) and warm (a fresh cache over that directory)."""
    size = ctx.size
    pipeline = ctx.scorer.pipeline
    shares = InputShares(ctx.scorer.scheduler)
    streams: List[List[EntityPair]] = []

    def next_stream() -> None:
        distinct: List[EntityPair] = []
        while len(distinct) < size.rescore_distinct:
            distinct += id_paired(ctx.corpus(size.batch_records))
        distinct = distinct[:size.rescore_distinct]
        rng = np.random.default_rng((ctx.seed, len(streams)))
        order = rng.permutation(len(distinct) * RESCORE_REPEATS)
        stream = [distinct[i % len(distinct)] for i in order.tolist()]
        shares.add(stream)
        streams.append(stream)

    def score(stream, cache: ScoreCache, phase: str, stats: Dict[str, Any]):
        engine = SequentialScorer(pipeline, cache=cache)
        out = []
        for window in _windows(stream, size.window):
            with telemetry.span(f"perf.engine.{phase}") as span:
                decisions = engine.score_pairs(window)
            metrics = engine.last_metrics
            stats[f"{phase}_latencies"].append(span.duration)
            stats[f"{phase}_s"] += span.duration
            stats[f"forward_s.{phase}"] += metrics.busy_seconds
            stats[f"hits.{phase}"] += metrics.cache["hits"]
            stats[f"misses.{phase}"] += metrics.cache["misses"]
            out.append(decisions)
        return out

    def run_pass(budget: Optional[Budget], count: Optional[int]
                 ) -> Dict[str, Any]:
        stats: Dict[str, Any] = {
            "cold_latencies": [], "warm_latencies": [], "cold_s": 0.0,
            "warm_s": 0.0, "flush_s": 0.0, "forward_s.cold": 0.0,
            "forward_s.warm": 0.0, "hits.cold": 0, "misses.cold": 0,
            "hits.warm": 0, "misses.warm": 0, "shard_bytes": 0, "pairs": 0,
            "units": 0}
        counts = _Counts()

        def measured() -> float:
            return stats["cold_s"] + stats["flush_s"] + stats["warm_s"]

        for index in _unit_indices(budget, count, lambda: (
                measured(), len(stats["cold_latencies"]))):
            if index == len(streams):
                next_stream()
            stream = streams[index]
            directory = ctx.work / "cache" / f"cycle{index:03d}"
            cold_cache = ScoreCache(directory=directory)
            cold = score(stream, cold_cache, "cold", stats)
            with telemetry.span("perf.cache.flush") as flush:
                cold_cache.flush()
            stats["flush_s"] += flush.duration
            warm = score(stream, ScoreCache(directory=directory), "warm",
                         stats)
            with telemetry.span("perf.check"):
                if [[d.probability for d in w] for w in warm] != \
                        [[d.probability for d in w] for w in cold]:
                    raise GateError("output gate: warm decisions differ "
                                    "from the cold pass")
                for window, decisions in zip(_windows(stream, size.window),
                                             cold):
                    _check_ids(window, decisions)
                    counts.add(window, decisions)
                stats["shard_bytes"] += sum(
                    p.stat().st_size for p in directory.glob("scores-*.npz"))
                stats["pairs"] += len(stream)
                shutil.rmtree(directory)
                if not ctx.trace:  # only a traced run replays its streams
                    streams[index] = []
            stats["units"] += 1
        stats.update(counts=counts, measured_s=measured())
        return stats

    result = _measure(ctx, run_pass)
    warm_lookups = result["hits.warm"] + result["misses.warm"]
    warm_hit_rate = ratio(result["hits.warm"], warm_lookups)
    if result["misses.cold"] == 0:
        raise GateError("output gate: the cold pass never missed; it did "
                        "not start cold")
    if warm_hit_rate < MIN_WARM_HIT_RATE:
        raise GateError(f"output gate: warm hit rate {warm_hit_rate:.3f} < "
                        f"{MIN_WARM_HIT_RATE}")
    end_to_end = {} if ctx.trace else {
        "throughput_per_s": 2 * result["pairs"] / result["measured_s"],
        # Cold windows mix hits and misses as the cache fills.  (Warm
        # windows are all lookups; they are in throughput and
        # serve.cache.warm_pairs_per_s.)
        "latency_p50_ms": 1e3 * percentile(result["cold_latencies"], 50),
        "quality_f1": result["counts"].f1,
    }
    busy = result["cold_s"] + result["warm_s"]
    forward = result["forward_s.cold"] + result["forward_s.warm"]
    layers = dict(shares.metrics())
    layers.update({
        "serve.engine.busy_s": busy,
        "serve.engine.forward_s": forward,
        "serve.engine.prep_s": busy - forward,
        "serve.cache.hit_rate.warm": warm_hit_rate,
        "serve.cache.flush_s": result["flush_s"],
        "serve.cache.shard_mb": result["shard_bytes"] / 2 ** 20,
        "serve.cache.cold_pairs_per_s": ratio(
            result["pairs"], result["cold_s"] + result["flush_s"]),
        "serve.cache.warm_pairs_per_s": ratio(result["pairs"],
                                              result["warm_s"]),
    })
    for phase in ("cold", "warm"):
        layers.update({
            f"serve.engine.busy_s.{phase}": result[f"{phase}_s"],
            f"serve.engine.forward_s.{phase}": result[f"forward_s.{phase}"],
            f"serve.engine.prep_s.{phase}": (result[f"{phase}_s"]
                                             - result[f"forward_s.{phase}"]),
            f"serve.cache.hits.{phase}": result[f"hits.{phase}"],
            f"serve.cache.misses.{phase}": result[f"misses.{phase}"],
        })
    if ctx.trace:
        records = result["trace"]
        layers.update(result["layers_common"])
        for phase in ("cold", "warm"):
            layers[f"serve.cache.lookup_s.{phase}"] = _sum_named(
                spans_under(records, f"perf.engine.{phase}"),
                "serve.cache.lookup")
        # Each distinct encoding is scored exactly once, in the cold pass.
        layers.update(_batch_layers(
            records, "perf.engine.cold",
            sum(_unique_tokens(ctx.scorer.scheduler.encode(streams[i]))
                for i in range(result["units"]))))
    return {"attempted": len(result["cold_latencies"])
            + len(result["warm_latencies"]), "failed": 0,
            "end_to_end": end_to_end, "layers": layers,
            "samples": {"cold_windows": len(result["cold_latencies"]),
                        "cycles": result["units"]}}


# --------------------------------------------------------------------------- #
# serve_online
# --------------------------------------------------------------------------- #

def serve_online(ctx: Context) -> Dict[str, Any]:
    """Open-loop traffic at fixed rates against a ``repro serve`` process."""
    size = ctx.size
    scorer = ctx.scorer
    shares = InputShares(scorer.scheduler)
    pool: List[EntityPair] = []
    seen: set = set()

    def take(requests: int) -> List[List[EntityPair]]:
        """The next ``requests`` requests of pairs whose encodings never
        repeat, so the daemon's score cache never answers for one (a hit
        would carry another batch's ulp-level rounding)."""
        needed = requests * REQUEST_PAIRS
        while len(pool) < needed:
            fresh = id_paired(ctx.corpus(size.batch_records))
            for pair, encoded in zip(fresh, shares.add(fresh)):
                key = tuple(encoded)
                if key not in seen:
                    seen.add(key)
                    pool.append(pair)
        batch = pool[:needed]
        del pool[:needed]
        return [batch[i:i + REQUEST_PAIRS]
                for i in range(0, needed, REQUEST_PAIRS)]

    def start_daemon():
        """Spawn a daemon and wait until it listens and has answered the
        warm-up requests; returns it with the seconds that took."""
        warmups = take(WARMUP_REQUESTS)
        started = time.perf_counter()
        daemon = DaemonProcess(ctx.snapshot, ctx.work / "daemon.log")
        daemon.start()
        try:
            with daemon.client() as client:
                for request in warmups:
                    client.score(request)
        except BaseException:
            daemon.stop()
            raise
        return daemon, time.perf_counter() - started

    def run_pass(budget: Optional[Budget], count: Optional[int]
                 ) -> Dict[str, Any]:
        step_s = (budget.seconds if budget is not None
                  else ctx.seconds / 2) / len(RATES)
        with daemon.client() as client:
            before = client.stats()
        steps = {}
        for rate in RATES:
            requests = take(max(1, round(rate * step_s)))
            steps[rate] = (requests, open_loop(daemon.client, requests, rate,
                                               CONNECTIONS))
        with daemon.client() as client:
            after = client.stats()
        delta = {k: after[k] - before[k]
                 for k in ("flushes", "merged_requests", "rejected", "failed")}
        # Request time at the steady steps: the top step's backlog would
        # swamp any difference tracing makes.
        return {"units": len(RATES), "steps": steps, "daemon": delta,
                "measured_s": sum(s.latency for rate in RATES[:-1]
                                  for s in steps[rate][1] if s.ok)}

    setups: List[float] = []
    for __ in range(0 if ctx.trace else size.setup_repeats - 1):
        daemon, seconds = start_daemon()
        daemon.stop()
        setups.append(seconds)
    daemon, seconds = start_daemon()
    setups.append(seconds)
    try:
        result = _measure(ctx, run_pass)
        peak_rss_mb = daemon.peak_rss_mb()
    finally:
        daemon.stop()

    steps: Dict[int, Any] = result["steps"]
    samples = [s for __, step in steps.values() for s in step]
    failed = sum(1 for s in samples if not s.ok)
    with telemetry.span("perf.check"):
        _serve_gate(ctx, scorer, steps)
    counts = _Counts()
    for requests, step in steps.values():
        for request, sample in zip(requests, step):
            if sample.ok:
                counts.add(request, sample.reply.decisions)

    def ms(values: Sequence[float], q: float, strict: bool = False) -> float:
        scaled = [1e3 * v for v in values]
        return percentile(scaled, q) if strict else percentile_or_zero(
            scaled, q)

    sustained = [rate for rate, (__, step) in steps.items()
                 if _meets_limit(step)]
    # The steps below the top one: the load the daemon is expected to
    # carry (the top step is headroom, and may build a backlog).  Goodput
    # counts the top step too, so a faster daemon raises it there.
    steady = [steps[rate][1] for rate in RATES[:-1]]
    end_to_end = {} if ctx.trace else {
        "throughput_per_s": _goodput([step for __, step in steps.values()]),
        "latency_p50_ms": ms([s.latency for step in steady for s in step],
                             50, strict=True),
        "quality_f1": counts.f1,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
    }
    daemon_stats = result["daemon"]
    layers = dict(shares.metrics())
    layers.update({
        "serve.daemon.latency_p90_ms": ms([s.latency for s in samples], 90),
        "serve.daemon.max_ok_rate_rps": max(sustained) if sustained else 0,
        "serve.daemon.requests_per_flush": ratio(
            daemon_stats["merged_requests"], daemon_stats["flushes"]),
        "serve.daemon.merge_efficiency": ratio(
            daemon_stats["merged_requests"] - daemon_stats["flushes"],
            daemon_stats["merged_requests"]),
        "serve.daemon.rejected": daemon_stats["rejected"],
        "serve.daemon.failed": daemon_stats["failed"],
        "serve.client.retries": sum(s.reply.retries for s in samples
                                    if s.ok),
    })
    for rate, (__, step) in steps.items():
        ok = [s for s in step if s.ok]
        layers.update({
            f"serve.daemon.latency_p50_ms.r{rate}": ms(
                [s.latency for s in step], 50),
            f"serve.daemon.server_p50_ms.r{rate}": ms(
                [s.reply.latency_seconds for s in ok], 50),
            f"serve.client.wire_p50_ms.r{rate}": ms(
                [s.done - s.sent - s.reply.latency_seconds for s in ok], 50),
            f"perf.loadgen.late_p90_ms.r{rate}": ms(
                [s.late for s in step], 90),
        })
    if ctx.trace:
        layers.update(result["layers_common"])
    return {"attempted": len(samples), "failed": failed,
            "end_to_end": end_to_end, "layers": layers,
            "samples": {f"r{rate}": len(step)
                        for rate, (__, step) in steps.items()}}


def _meets_limit(step: Sequence[Sample]) -> bool:
    """A rate is sustained when nothing failed and both the request p90
    and the generator's lateness p90 stay within the limit."""
    if any(not s.ok for s in step):
        return False
    latency = percentile_or_zero([1e3 * s.latency for s in step], 90)
    late = percentile_or_zero([1e3 * s.late for s in step], 90)
    return 0.0 < latency <= LIMIT_MS and late <= LIMIT_MS


def _goodput(steps: Sequence[Sequence[Sample]]) -> float:
    """Pairs per second answered within the latency limit, over the time
    the steps ran (each from its first due time to its last answer)."""
    good = sum(len(s.reply.decisions) for step in steps for s in step
               if s.latency <= LIMIT_MS / 1e3)
    return ratio(good, sum(max(s.done for s in step)
                           - min(s.due for s in step) for step in steps))


def _serve_gate(ctx: Context, scorer: SequentialScorer,
                steps: Dict[int, Any]) -> None:
    """Sampled replies are bit-identical to the in-process engine on the
    same snapshot and name the published digest."""
    answered = [(request, sample) for requests, step in steps.values()
                for request, sample in zip(requests, step) if sample.ok]
    for request, sample in answered:
        if sample.reply.digest != scorer.snapshot_digest:
            raise GateError(f"output gate: reply from digest "
                            f"{sample.reply.digest!r}, published "
                            f"{scorer.snapshot_digest!r}")
    rng = np.random.default_rng(ctx.seed)
    picks = rng.choice(len(answered), size=min(SERVE_GATE_REPLIES,
                                               len(answered)), replace=False)
    for index in sorted(picks.tolist()):
        request, sample = answered[index]
        expected = scorer.score_pairs(request)
        _check_ids(request, sample.reply.decisions)
        got = [d.probability for d in sample.reply.decisions]
        want = [d.probability for d in expected]
        if got != want:
            raise GateError(
                f"output gate: a daemon reply differs from SequentialScorer "
                f"on the same snapshot by up to "
                f"{max(abs(g - w) for g, w in zip(got, want)):.3g}")


# --------------------------------------------------------------------------- #
# set-up
# --------------------------------------------------------------------------- #

def build_setup(workload: str, snapshot: Path, work: Path) -> None:
    """Construct what ``workload`` needs before its first input: the
    snapshot-loaded engine (with an empty persistent cache for
    rescore_cached) plus, for resolve, the blocker and clusterer."""
    if workload == "rescore_cached":
        SequentialScorer.from_directory(
            snapshot, cache=ScoreCache(directory=work / "setup-cache"))
        return
    scorer = SequentialScorer.from_directory(snapshot)
    if workload == "resolve":
        ShardedBlocker(shard_size=SIZES["full"].shard_size,
                       spill_dir=work / "setup-spill", **BENCH_BLOCKER)
        TransitiveClusterer(threshold=scorer.pipeline.threshold)


def measure_setup(ctx: Context) -> float:
    """Median wall time, over ``setup_repeats`` fresh processes, from
    process start to the workload's engine being ready (imports,
    snapshot load, engine construction)."""
    times = []
    for __ in range(ctx.size.setup_repeats):
        started = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, "-m", "perf.worker", "setup",
                 ctx.workload, str(ctx.snapshot), str(ctx.work)],
                stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {ctx.workload} failed "
                               f"(exit {proc.returncode})")
        times.append(elapsed)
    return statistics.median(times)


WORKLOADS: Dict[str, Callable[[Context], Dict[str, Any]]] = {
    "resolve": resolve,
    "score_bulk": score_bulk,
    "rescore_cached": rescore_cached,
    "serve_online": serve_online,
}


def run_workload(ctx: Context) -> Dict[str, Any]:
    """Run one workload; adds the process-level end-to-end metrics."""
    result = WORKLOADS[ctx.workload](ctx)
    end_to_end = result["end_to_end"]
    if not ctx.trace and "setup_s" not in end_to_end:
        end_to_end["setup_s"] = measure_setup(ctx)
        end_to_end["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


__all__ = ["Context", "GateError", "InputShares", "SIZES", "WORKLOADS",
           "build_setup", "id_paired", "run_workload"]
