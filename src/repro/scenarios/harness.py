"""Score every aligner across the scenario grid.

The harness runs the paper's six aligners (plus optionally NoDA) through
:func:`repro.api.adapt` against a cluster-structured target, then evaluates
each adapted (F, M) snapshot on all eight grid cells with per-scenario
precision / recall / F1 — the EMBer-style complement to the paper's
Tables 3-5, reported through :func:`repro.experiments.format_scenario_table`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..data import ERDataset
from ..datasets import ClusterCorpus, generate_corpus, load_dataset, spec_for
from ..extractors import FeatureExtractor
from ..matcher import MlpMatcher
from ..train import TrainConfig
from ..train.metrics import evaluate
from ..train.regression import GOLDEN_ALIGNERS
from .grid import (DEFAULT_PAIRS, Scenario, adaptation_dataset, build_grid,
                   grid_stats)

#: The aligners the grid scores — the paper's full Table 1 design space.
SCENARIO_ALIGNERS = GOLDEN_ALIGNERS


@dataclass(frozen=True)
class ScenarioCell:
    """One (aligner, scenario, variant) score."""

    aligner: str
    scenario: str
    variant: str
    precision: float
    recall: float
    f1: float
    num_pairs: int
    num_matches: int

    @property
    def key(self) -> str:
        return f"{self.scenario}/{self.variant}"

    def as_dict(self) -> Dict[str, object]:
        return {"aligner": self.aligner, "scenario": self.scenario,
                "variant": self.variant, "precision": self.precision,
                "recall": self.recall, "f1": self.f1,
                "num_pairs": self.num_pairs,
                "num_matches": self.num_matches}


@dataclass
class ScenarioReport:
    """Everything one harness run produced."""

    corpus: ClusterCorpus
    grid: "Dict[Tuple[str, str], Scenario]"
    cells: List[ScenarioCell] = field(default_factory=list)
    #: The adapted pipelines' best validation F1 per aligner (context for
    #: reading the grid scores).
    adaptation_f1: Dict[str, float] = field(default_factory=dict)

    def cells_for(self, aligner: str) -> List[ScenarioCell]:
        return [c for c in self.cells if c.aligner == aligner]

    def scores(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """``{aligner: {scenario/variant: {precision, recall, f1}}}``."""
        out: Dict[str, Dict[str, Dict[str, float]]] = {}
        for cell in self.cells:
            out.setdefault(cell.aligner, {})[cell.key] = {
                "precision": cell.precision, "recall": cell.recall,
                "f1": cell.f1}
        return out

    def stats(self) -> Dict[str, object]:
        return {"corpus": self.corpus.describe(),
                "grid": grid_stats(self.grid)}


def evaluate_grid(aligner: str, extractor: FeatureExtractor,
                  matcher: MlpMatcher,
                  grid: "Dict[Tuple[str, str], Scenario]",
                  batch_size: int = 64) -> List[ScenarioCell]:
    """Per-cell precision/recall/F1 of one adapted (F, M) snapshot."""
    cells = []
    for cell in grid.values():
        metrics = evaluate(extractor, matcher, cell.dataset, batch_size)
        cells.append(ScenarioCell(
            aligner=aligner, scenario=cell.scenario, variant=cell.variant,
            precision=metrics.precision, recall=metrics.recall,
            f1=metrics.f1, num_pairs=cell.dataset.num_pairs,
            num_matches=cell.dataset.num_matches))
    return cells


def run_harness(target: str = "fodors_zagats", source: str = "books2",
                aligners: Sequence[str] = SCENARIO_ALIGNERS,
                num_families: int = 24, family_size: int = 3,
                num_pairs: int = DEFAULT_PAIRS,
                source_scale: float = 0.2, seed: int = 0,
                config: Optional[TrainConfig] = None,
                lm_kwargs: Optional[dict] = None) -> ScenarioReport:
    """Adapt every requested aligner and score it across the grid.

    One corpus, one fixed ``seed``, deterministic end to end: the corpus,
    the grid cells, the adaptation target, and every training run derive
    from it.
    """
    from ..api import adapt  # local: api imports repro.train at module load
    unknown = [a for a in aligners if a not in SCENARIO_ALIGNERS]
    if unknown:
        raise ValueError(f"unknown aligner(s) {unknown}; "
                         f"choose from {SCENARIO_ALIGNERS}")
    corpus = generate_corpus(spec_for(target), num_families=num_families,
                             family_size=family_size, seed=seed)
    grid = build_grid(corpus, num_pairs=num_pairs, seed=seed)
    target_train = adaptation_dataset(corpus, seed=seed)
    source_data: ERDataset = load_dataset(source, scale=source_scale,
                                          seed=seed)
    report = ScenarioReport(corpus=corpus, grid=grid)
    for aligner in aligners:
        result = adapt(source_data, target_train, aligner=aligner,
                       config=config, seed=seed, lm_kwargs=lm_kwargs)
        report.adaptation_f1[aligner] = result.best_valid_f1
        report.cells.extend(evaluate_grid(aligner, result.extractor,
                                          result.matcher, grid))
    return report
