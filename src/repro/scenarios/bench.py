"""The scenario-grid evaluation behind ``python -m repro scenarios``.

Runs the full harness (six aligners x the 4x2 grid from one fixed seed)
and writes ``BENCH_scenarios.json``: per-scenario precision/recall/F1 for
every aligner, corpus + grid skew statistics, each aligner's adaptation
validation F1, and a telemetry counter snapshot.  Serving the grid's
streams bit-identically is pinned by ``tests/test_scenarios_serve.py``.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path
from typing import Dict, Optional, Sequence

from ..artifacts import atomic_write
from ..telemetry import REGISTRY
from ..train import TrainConfig
from .grid import DEFAULT_PAIRS
from .harness import SCENARIO_ALIGNERS, run_harness

DEFAULT_OUTPUT = "BENCH_scenarios.json"


def run_scenarios_bench(target: str = "fodors_zagats", source: str = "books2",
                        aligners: Sequence[str] = SCENARIO_ALIGNERS,
                        num_families: int = 24, family_size: int = 3,
                        num_pairs: int = DEFAULT_PAIRS,
                        source_scale: float = 0.2, seed: int = 0,
                        epochs: int = 6,
                        output: Optional[str] = DEFAULT_OUTPUT,
                        lm_kwargs: Optional[dict] = None) -> Dict[str, object]:
    """One full scenario-grid benchmark run; returns the report dict."""
    config = TrainConfig(epochs=epochs, seed=seed)
    report = run_harness(target=target, source=source, aligners=aligners,
                         num_families=num_families, family_size=family_size,
                         num_pairs=num_pairs, source_scale=source_scale,
                         seed=seed, config=config, lm_kwargs=lm_kwargs)
    stats = report.stats()
    payload: Dict[str, object] = {
        "config": {
            "target": target, "source": source,
            "aligners": list(aligners), "num_families": num_families,
            "family_size": family_size, "num_pairs": num_pairs,
            "source_scale": source_scale, "seed": seed, "epochs": epochs,
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
        "telemetry": {name: value
                      for name, value in REGISTRY.snapshot().items()
                      if name.startswith("scenarios.")},
    }
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
    return "\n".join(lines)


__all__ = ["run_scenarios_bench", "format_scenarios_report",
           "DEFAULT_OUTPUT"]
