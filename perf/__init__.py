"""The repository's benchmark: four workloads, per-layer attribution.

``python -m perf run`` measures the DADER serving and resolution stack
from outside, by timing calls into the public functions of each layer
(``repro.data``, ``repro.scale``, ``repro.serve``); ``python -m perf
compare`` checks two sets of recorded runs against the bounds in
``BENCHMARK.json``.  See ``perf/README.md``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

#: Repository root: ``BENCHMARK.json`` and ``src/`` live here.
ROOT = Path(__file__).resolve().parents[1]


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: workloads, metrics, units, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_names(spec: Dict[str, Any], trace: bool):
    """The metrics one run reports: per-layer when traced, else end-to-end."""
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
