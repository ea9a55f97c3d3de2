"""repro.scenarios — EMBer-style scenario-diverse evaluation.

Real ER workloads are not uniform pair classification: they are record
linking between two tables, cluster-focused matching on hard entity
boundaries, and open-world matching against entities no training split
ever saw — usually under heavy label skew.  This package derives exactly
that grid (4 scenarios x {balanced, imbalanced}, after the EMBer benchmark,
arXiv 2205.05889) from one cluster-structured synthetic corpus
(:func:`repro.datasets.generate_corpus`), scores every Table 1 aligner
across it (:func:`run_harness`), and reports the grid's scores
(:func:`run_scenarios_bench`, the ``repro scenarios`` CLI).

See ``DESIGN.md`` §12 for the corpus → grid → metrics derivation.
"""

from .bench import DEFAULT_OUTPUT, format_scenarios_report, run_scenarios_bench
from .grid import (DEFAULT_PAIRS, POSITIVE_RATE_TOLERANCE, POSITIVE_RATES,
                   SCENARIOS, VARIANTS, Scenario, adaptation_dataset,
                   build_grid, build_scenario, grid_stats)
from .harness import (SCENARIO_ALIGNERS, ScenarioCell, ScenarioReport,
                      evaluate_grid, run_harness)
from .regression import (SCENARIO_GOLDEN_EPOCHS, SCENARIO_GOLDEN_RECIPE,
                         compare_scenario_runs, load_scenario_golden,
                         scenario_golden_config, scenario_golden_path,
                         scenario_golden_run)

__all__ = [
    "SCENARIOS", "VARIANTS", "POSITIVE_RATES", "POSITIVE_RATE_TOLERANCE",
    "DEFAULT_PAIRS", "Scenario", "build_scenario", "build_grid",
    "adaptation_dataset", "grid_stats",
    "SCENARIO_ALIGNERS", "ScenarioCell", "ScenarioReport", "evaluate_grid",
    "run_harness",
    "SCENARIO_GOLDEN_RECIPE", "SCENARIO_GOLDEN_EPOCHS",
    "scenario_golden_config", "scenario_golden_run", "scenario_golden_path",
    "load_scenario_golden", "compare_scenario_runs",
    "run_scenarios_bench", "format_scenarios_report", "DEFAULT_OUTPUT",
]
