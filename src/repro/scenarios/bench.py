"""The scenario benchmark behind ``python -m repro scenarios``.

Runs the full harness (six aligners x the 4x2 grid from one fixed seed),
then routes every grid cell's pair stream through the production serving
stack — :class:`~repro.serve.SequentialScorer`, a multi-worker
:class:`~repro.serve.ParallelScorer`, and an in-process daemon behind
:class:`~repro.serve.DaemonClient` — asserting each engine's decisions
**bit-identical** to a direct :meth:`ERPipeline.score_pairs` call with the
same scheduler configuration before anything is reported.  The reference
full-padding policy is raced too (agreement to 1e-9, identical threshold
decisions — the same contract ``serve-bench`` pins).

The result is ``BENCH_scenarios.json``: per-scenario precision/recall/F1
for every aligner, corpus + grid skew statistics, the serve equivalence
record per stream, and a telemetry counter snapshot.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path
from typing import Dict, Optional, Sequence

import numpy as np

from ..artifacts import atomic_write
from ..pipeline import ERPipeline
from ..serve import (BatchScheduler, DaemonClient, DaemonConfig,
                     ModelRegistry, ParallelScorer, SequentialScorer,
                     start_daemon_thread)
from ..telemetry import REGISTRY
from ..train import TrainConfig
from .grid import DEFAULT_PAIRS
from .harness import SCENARIO_ALIGNERS, ScenarioReport, run_harness

#: Reference-vs-bucketed probability tolerance (BLAS kernel selection is
#: not bit-stable across batch shapes; see DESIGN.md §6b).
REFERENCE_ATOL = 1e-9

DEFAULT_OUTPUT = "BENCH_scenarios.json"
DEFAULT_PIPELINE_DIR = ".cache/scenarios_pipeline"


def _decisions_equal(a, b) -> bool:
    """Bit-identical decision lists: ids and float probabilities exact."""
    return len(a) == len(b) and all(
        x.left_id == y.left_id and x.right_id == y.right_id
        and x.probability == y.probability for x, y in zip(a, b))


def _serve_streams(report: ScenarioReport, pipeline: ERPipeline,
                   directory: Path, num_workers: int) -> Dict[str, object]:
    """Route every grid cell through the serving stack; assert equivalence.

    Engines run cache-less on purpose: partial cache hits shrink the
    residual batch composition, and this pass pins *batch-for-batch*
    equality with the direct pipeline (the §6b scoped-neutrality finding).
    """
    scheduler = BatchScheduler(pipeline.extractor.vocab,
                               pipeline.extractor.max_len)
    sequential = SequentialScorer(pipeline)
    streams: Dict[str, object] = {}
    registry = ModelRegistry()
    registry.publish("default", directory)
    with ParallelScorer(directory, num_workers=num_workers) as parallel:
        with start_daemon_thread(registry, DaemonConfig(port=0)) as handle:
            host, port = handle.address
            with DaemonClient(host, port) as client:
                for cell in report.grid.values():
                    pairs = list(cell.dataset.pairs)
                    direct = pipeline.score_pairs(pairs, scheduler=scheduler)
                    reference = pipeline.score_pairs(pairs)
                    seq = sequential.score_pairs(pairs)
                    par = parallel.score_pairs(pairs)
                    daemon = client.score(pairs).decisions
                    for name, got in (("sequential", seq),
                                      ("parallel", par),
                                      ("daemon", daemon)):
                        if not _decisions_equal(direct, got):
                            raise AssertionError(
                                f"{name} engine deviates from the direct "
                                f"pipeline on stream {cell.key}")
                    deltas = np.array(
                        [abs(d.probability - r.probability)
                         for d, r in zip(direct, reference)])
                    decisions_match = all(
                        d.is_match == r.is_match
                        for d, r in zip(direct, reference))
                    if float(deltas.max()) > REFERENCE_ATOL:
                        raise AssertionError(
                            f"stream {cell.key}: bucketed scoring deviates "
                            f"from the reference policy by "
                            f"{float(deltas.max()):.3e} > {REFERENCE_ATOL}")
                    if not decisions_match:
                        raise AssertionError(
                            f"stream {cell.key}: threshold decisions "
                            f"disagree with the reference policy")
                    REGISTRY.counter("scenarios.streams_served").inc()
                    streams[cell.key] = {
                        "pairs": len(pairs),
                        "bit_identical": True,
                        "max_abs_delta_vs_reference": float(deltas.max()),
                        "decisions_match_reference": decisions_match,
                    }
    registry.close()
    return {
        "engines": ["direct", "sequential", f"parallel-{num_workers}",
                    "daemon"],
        "num_workers": num_workers,
        "pipeline_digest": pipeline.manifest_digest,
        "bit_identical_all_streams": True,
        "streams": streams,
    }


def run_scenarios_bench(target: str = "fodors_zagats", source: str = "books2",
                        aligners: Sequence[str] = SCENARIO_ALIGNERS,
                        num_families: int = 24, family_size: int = 3,
                        num_pairs: int = DEFAULT_PAIRS,
                        source_scale: float = 0.2, seed: int = 0,
                        epochs: int = 6, num_workers: int = 4,
                        serve: bool = True,
                        pipeline_dir: Optional[str] = None,
                        output: Optional[str] = DEFAULT_OUTPUT,
                        lm_kwargs: Optional[dict] = None) -> Dict[str, object]:
    """One full scenario-grid benchmark run; returns the report dict."""
    config = TrainConfig(epochs=epochs, seed=seed)
    report = run_harness(target=target, source=source, aligners=aligners,
                         num_families=num_families, family_size=family_size,
                         num_pairs=num_pairs, source_scale=source_scale,
                         seed=seed, config=config, lm_kwargs=lm_kwargs,
                         keep_results=True)
    stats = report.stats()
    payload: Dict[str, object] = {
        "config": {
            "target": target, "source": source,
            "aligners": list(aligners), "num_families": num_families,
            "family_size": family_size, "num_pairs": num_pairs,
            "source_scale": source_scale, "seed": seed, "epochs": epochs,
            "serve_workers": num_workers,
        },
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "corpus": stats["corpus"],
        "grid": stats["grid"],
        "adaptation_valid_f1": dict(report.adaptation_f1),
        "scores": report.scores(),
    }
    if serve:
        # Serve with the aligner that adapted best (deterministic
        # tie-break: aligner order), eval-mode and persisted so every
        # worker loads the identical snapshot.
        best = max(aligners,
                   key=lambda a: (report.adaptation_f1[a],
                                  -list(aligners).index(a)))
        result = report.results[best]  # type: ignore[attr-defined]
        result.extractor.eval()
        result.matcher.eval()
        pipeline = ERPipeline(result.extractor, result.matcher)
        directory = Path(pipeline_dir or DEFAULT_PIPELINE_DIR)
        pipeline.save(directory)
        served = _serve_streams(report, pipeline, directory, num_workers)
        served["aligner"] = best
        payload["serve"] = served
    payload["telemetry"] = {
        name: value for name, value in REGISTRY.snapshot().items()
        if name.startswith(("scenarios.", "serve."))}
    if output:
        atomic_write(Path(output), lambda tmp: tmp.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"))
    return payload


def format_scenarios_report(payload: Dict[str, object]) -> str:
    """Human-readable rendering of a ``BENCH_scenarios.json`` payload."""
    from ..experiments.tables import format_scenario_table
    lines = [format_scenario_table(payload["scores"])]
    corpus = payload["corpus"]
    lines.append("")
    lines.append(
        f"corpus: {corpus['entities']} entities in {corpus['clusters']} "
        f"clusters ({corpus['open_clusters']} open-world) across "
        f"{corpus['families']} hard-negative families")
    grid = payload["grid"]
    skew = ", ".join(f"{key} {cell['positive_rate']:.2f}"
                     for key, cell in grid.items())
    lines.append(f"positive rates: {skew}")
    serve = payload.get("serve")
    if serve:
        lines.append(
            f"serve: {', '.join(serve['engines'])} bit-identical on "
            f"{len(serve['streams'])} scenario streams "
            f"(aligner {serve['aligner']}, "
            f"digest {str(serve['pipeline_digest'])[:12]}...)")
    return "\n".join(lines)


__all__ = ["run_scenarios_bench", "format_scenarios_report",
           "REFERENCE_ATOL", "DEFAULT_OUTPUT", "DEFAULT_PIPELINE_DIR"]
