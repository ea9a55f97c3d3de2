"""The end-to-end resolution benchmark behind ``python -m repro e2e-bench``.

Resolves a million-row synthetic corpus with the full scale pipeline —
generate → sharded block → streamed score → transitive cluster — and
writes per-stage throughput plus blocking/cluster quality to
``BENCH_e2e.json``.  Memory stays bounded: tables stream through
:func:`repro.data.iter_entity_table` chunks, the
:class:`~repro.scale.ShardedBlocker` spills signatures shard-by-shard, and
scoring windows through :func:`repro.serve.score_tables`; the report
records the largest shard actually held in memory.  That clusters are
bit-identical across engines, windows and shard layouts is asserted by the
``e2e`` pytest tier (``tests/test_scale_e2e.py``), not here.

Blocking recall is exact: ground truth travels in the synthetic entity
ids (:func:`~repro.scale.synth.true_cluster_of`) and the true-pair count
is tracked during generation, so recall needs no materialized pair set.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, Optional, Union

import numpy as np

from ..artifacts import atomic_write
from ..blocking import CandidateStream
from ..data import Entity, EntityPair, iter_entity_table, target_da_split
from ..datasets import load_dataset
from ..matcher import MlpMatcher
from ..pipeline import ERPipeline
from ..pretrain import fresh_copy, pretrained_lm
from ..serve import score_tables
from ..serve.bench import BENCH_LM
from ..telemetry import REGISTRY
from ..train import TrainConfig, train_source_only
from .blocker import ShardedBlocker
from .cluster import Clusters, TransitiveClusterer, cluster_quality
from .synth import ScaleCorpus, generate_scale_corpus, true_cluster_of

DEFAULT_OUTPUT = "BENCH_e2e.json"
DEFAULT_WORK_DIR = ".cache/e2e_bench"

#: Blocker operating point tuned on the scale corpus (dirt=0.05): 32x4
#: banding catches J >= ~0.42 with near-certainty, and the signature-byte
#: verify at 0.40 sits inside the measured gap between true-match Jaccard
#: (p1 ~ 0.50) and hard-sibling Jaccard (p99 ~ 0.29) — recall > 0.99 with
#: candidates only a hair above the true-match count.
BENCH_BLOCKER = dict(bands=32, rows=4, verify_threshold=0.40)

#: Corpus dirt for the bench (see :mod:`repro.scale.synth`): mild enough
#: that token Jaccard separates matches from hard siblings cleanly.
BENCH_DIRT = 0.05


class _TimedStream(CandidateStream):
    """Wrap a candidate stream, accumulating time spent inside it.

    The resolve pass interleaves blocking and scoring in one streaming
    loop; this wrapper attributes each ``next()`` on the blocker's
    generator to the block stage so the report can split the wall clock
    per stage without running blocking twice.
    """

    def __init__(self, inner: CandidateStream):
        self.inner = inner
        self.seconds = 0.0
        self.pairs = 0

    def config(self) -> Dict[str, Any]:
        return self.inner.config()

    def iter_candidates(self, left_table: Iterable[Entity],
                        right_table: Iterable[Entity]
                        ) -> Iterator[EntityPair]:
        stream = self.inner.iter_candidates(left_table, right_table)
        while True:
            start = time.perf_counter()
            try:
                pair = next(stream)
            except StopIteration:
                self.seconds += time.perf_counter() - start
                return
            self.seconds += time.perf_counter() - start
            self.pairs += 1
            yield pair


def _entities(path: Union[str, Path], chunk_size: int) -> Iterator[Entity]:
    """Flatten a chunked entity-table stream (one chunk in memory)."""
    for chunk in iter_entity_table(path, chunk_size=chunk_size):
        yield from chunk


def build_e2e_pipeline(directory: Union[str, Path], spec: str, seed: int,
                       epochs: int, train_scale: float,
                       lm_kwargs: Optional[dict] = None) -> Dict[str, Any]:
    """Train and persist the matcher snapshot the bench scores with.

    NoDA source-only training (:func:`repro.train.train_source_only`) on
    the benchmark spec's own labeled dataset: the scale corpus renders the
    same world through the same perturbation family, so the source task is
    the right supervision.  Returns the train record for the report.
    """
    extractor, __ = pretrained_lm(**(lm_kwargs or BENCH_LM))
    extractor = fresh_copy(extractor, seed=seed)
    matcher = MlpMatcher(extractor.feature_dim, np.random.default_rng(seed))
    source = load_dataset(spec, scale=train_scale, seed=seed)
    holdout = load_dataset(spec, scale=train_scale / 2, seed=seed + 1)
    valid, test = target_da_split(holdout, np.random.default_rng(seed))
    config = TrainConfig(epochs=epochs, seed=seed)
    result = train_source_only(extractor, matcher, source, valid, test,
                               config)
    extractor.eval()
    matcher.eval()
    pipeline = ERPipeline(extractor, matcher)
    pipeline.save(directory)
    return {
        "method": result.method,
        "epochs": epochs,
        "train_scale": train_scale,
        "source_pairs": len(source),
        "best_epoch": result.best_epoch,
        "best_valid_f1": result.best_valid_f1,
        "test_f1": result.test_metrics.f1,
    }


def _register_corpus(corpus: ScaleCorpus, chunk_size: int,
                     clusterer: TransitiveClusterer) -> Dict[str, str]:
    """Register every corpus entity as a singleton; return ground truth."""
    truth: Dict[str, str] = {}
    for path in (corpus.left_path, corpus.right_path):
        for chunk in iter_entity_table(path, chunk_size=chunk_size):
            for entity in chunk:
                clusterer.add_entity(entity.entity_id)
                truth[entity.entity_id] = true_cluster_of(entity.entity_id)
    return truth


def _resolve(corpus: ScaleCorpus, blocker: CandidateStream,
             pipeline: ERPipeline, num_workers: int, window: int,
             chunk_size: int) -> Dict[str, Any]:
    """One full block → score → cluster pass; returns clusters + timings."""
    timed = _TimedStream(blocker)
    clusterer = TransitiveClusterer(threshold=pipeline.threshold)
    register_start = time.perf_counter()
    truth = _register_corpus(corpus, chunk_size, clusterer)
    register_seconds = time.perf_counter() - register_start

    left = _entities(corpus.left_path, chunk_size)
    right = _entities(corpus.right_path, chunk_size)
    decisions = score_tables(pipeline, left, right, num_workers=num_workers,
                             window=window, blocker=timed)

    caught = 0
    cluster_seconds = 0.0
    pass_start = time.perf_counter()
    for decision in decisions:
        if truth[decision.left_id] == truth[decision.right_id]:
            caught += 1
        fold_start = time.perf_counter()
        clusterer.add_decision(decision)
        cluster_seconds += time.perf_counter() - fold_start
    pass_seconds = time.perf_counter() - pass_start
    finalize_start = time.perf_counter()
    clusters = clusterer.clusters()
    cluster_seconds += time.perf_counter() - finalize_start

    return {
        "clusters": clusters,
        "truth": truth,
        "caught": caught,
        "candidates": timed.pairs,
        "block_seconds": timed.seconds,
        "score_seconds": max(pass_seconds - timed.seconds - cluster_seconds,
                             0.0),
        "cluster_seconds": register_seconds + cluster_seconds,
        "wall_seconds": register_seconds + pass_seconds,
    }


def _scale_counters() -> Dict[str, Any]:
    return {name: value for name, value in REGISTRY.snapshot().items()
            if name.startswith("scale.")}


def _per_second(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def run_e2e_bench(records: int = 1_000_000, num_workers: int = 4,
                  shard_size: int = 65536, chunk_size: int = 4096,
                  window: int = 2048,
                  output: Union[str, Path] = DEFAULT_OUTPUT,
                  work_dir: Union[str, Path] = DEFAULT_WORK_DIR,
                  pipeline_dir: Optional[Union[str, Path]] = None,
                  spec: str = "fodors_zagats", seed: int = 0,
                  train_epochs: int = 8, train_scale: float = 1.0,
                  lm_kwargs: Optional[dict] = None) -> Dict[str, Any]:
    """Resolve ``records`` synthetic rows end to end; write ``output``.

    Stages (each timed separately, spill interleaving attributed per
    stage): train a matcher snapshot, generate the corpus straight to
    disk, then one streaming block → score → cluster pass —
    ``num_workers=0`` scores through the in-process sequential engine,
    ``>=1`` through that many parallel worker threads.  Returns the report dict (also persisted atomically to ``output``).
    """
    if records < 2:
        raise ValueError("records must be >= 2")
    work_dir = Path(work_dir)
    pipeline_dir = Path(pipeline_dir or work_dir / "pipeline")

    train_start = time.perf_counter()
    train_record = build_e2e_pipeline(pipeline_dir, spec, seed, train_epochs,
                                      train_scale, lm_kwargs)
    train_record["wall_seconds"] = time.perf_counter() - train_start
    pipeline = ERPipeline.load(pipeline_dir)

    # The registry is process-global: report only what this run adds.
    counters_before = _scale_counters()
    generate_start = time.perf_counter()
    corpus = generate_scale_corpus(work_dir / "corpus", records, spec=spec,
                                   seed=seed, dirt=BENCH_DIRT)
    generate_seconds = time.perf_counter() - generate_start

    blocker = ShardedBlocker(seed=seed, shard_size=shard_size,
                             chunk_size=chunk_size,
                             spill_dir=work_dir / "shards", **BENCH_BLOCKER)
    engine = "parallel" if num_workers > 0 else "sequential"
    resolve = _resolve(corpus, blocker, pipeline, num_workers, window,
                       chunk_size)
    clusters: Clusters = resolve["clusters"]
    quality = cluster_quality(clusters.assignments, resolve["truth"])
    recall = (resolve["caught"] / corpus.true_matches
              if corpus.true_matches else 1.0)
    block_stats = dict(blocker.last_stats or {})
    total_seconds = generate_seconds + resolve["wall_seconds"]

    report = {
        "benchmark": "e2e",
        "records": corpus.records,
        "seed": seed,
        "engine": engine,
        "num_workers": num_workers,
        "window": window,
        "platform": {"python": platform.python_version(),
                     "machine": platform.machine(),
                     "numpy": np.__version__},
        "corpus": corpus.describe(),
        "blocker": blocker.config(),
        "pipeline_digest": pipeline.manifest_digest,
        "train": train_record,
        "stages": {
            "generate": {
                "records": corpus.records,
                "wall_seconds": generate_seconds,
                "records_per_second": _per_second(corpus.records,
                                                  generate_seconds),
            },
            "block": {
                "records": corpus.records,
                "candidates": resolve["candidates"],
                "wall_seconds": resolve["block_seconds"],
                "records_per_second": _per_second(corpus.records,
                                                  resolve["block_seconds"]),
                "pairs_per_second": _per_second(resolve["candidates"],
                                                resolve["block_seconds"]),
                "num_shards": block_stats.get("num_shards", 0),
                "max_shard_rows": block_stats.get("max_shard_rows", 0),
                "max_shard_bytes": block_stats.get("max_shard_bytes", 0),
                "spilled_bytes": block_stats.get("spilled_bytes", 0),
            },
            "score": {
                "pairs": resolve["candidates"],
                "wall_seconds": resolve["score_seconds"],
                "pairs_per_second": _per_second(resolve["candidates"],
                                                resolve["score_seconds"]),
            },
            "cluster": {
                "entities": clusters.num_entities,
                "wall_seconds": resolve["cluster_seconds"],
                "records_per_second": _per_second(
                    clusters.num_entities, resolve["cluster_seconds"]),
            },
        },
        "end_to_end": {
            "wall_seconds": total_seconds,
            "records_per_second": _per_second(corpus.records, total_seconds),
        },
        "blocking": {
            "candidates": resolve["candidates"],
            "true_matches": corpus.true_matches,
            "caught_matches": resolve["caught"],
            "recall": recall,
            "candidate_fraction": (
                resolve["candidates"]
                / (corpus.left_rows * corpus.right_rows)
                if corpus.left_rows and corpus.right_rows else 0.0),
        },
        "clusters": clusters.describe(),
        "quality": quality.to_dict(),
        "telemetry": {
            "counters": {name: value - counters_before.get(name, 0)
                         for name, value in _scale_counters().items()},
        },
    }
    atomic_write(Path(output),
                 lambda tmp: tmp.write_text(json.dumps(report, indent=2)))
    return report


def format_e2e_report(report: Dict[str, Any]) -> str:
    """Human-readable summary of a :func:`run_e2e_bench` report."""
    stages = report["stages"]
    blocking = report["blocking"]
    clusters = report["clusters"]
    quality = report["quality"]
    lines = [
        f"e2e-bench: {report['records']} records resolved via "
        f"{report['engine']} ({report['num_workers']} workers)",
        f"  generate {stages['generate']['records_per_second']:9.0f} rec/s"
        f"   ({stages['generate']['wall_seconds']:.1f}s)",
        f"  block    {stages['block']['records_per_second']:9.0f} rec/s"
        f"   ({stages['block']['wall_seconds']:.1f}s, "
        f"{stages['block']['num_shards']} shards, "
        f"max {stages['block']['max_shard_rows']} rows/shard, "
        f"{blocking['candidates']} candidates)",
        f"  score    {stages['score']['pairs_per_second']:9.0f} pairs/s"
        f"  ({stages['score']['wall_seconds']:.1f}s)",
        f"  cluster  {stages['cluster']['records_per_second']:9.0f} ent/s"
        f"   ({stages['cluster']['wall_seconds']:.1f}s)",
        f"  blocking recall {blocking['recall']:.4f} "
        f"({blocking['caught_matches']}/{blocking['true_matches']} true "
        f"pairs, {blocking['candidate_fraction']:.2e} of the cross product)",
        f"  clusters {clusters['clusters']} "
        f"(largest {clusters['largest_cluster']}, "
        f"{clusters['singletons']} singletons)  pairwise P/R/F1 "
        f"{quality['precision']:.3f}/{quality['recall']:.3f}/"
        f"{quality['f1']:.3f}",
        f"  end-to-end {report['end_to_end']['records_per_second']:.0f} "
        f"rec/s ({report['end_to_end']['wall_seconds']:.1f}s)",
    ]
    return "\n".join(lines)
