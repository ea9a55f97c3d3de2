"""Million-row synthetic resolution corpora, streamed straight to disk.

:func:`generate_scale_corpus` turns one catalog :class:`~repro.datasets.
generator.DatasetSpec` (its world, renderers, and attribute schema) into a
two-table resolution problem of arbitrary size.  Records are organized as
clusters — one canonical world record rendered 1..k times, alternating
table sides — and written **during generation** to two entity-table CSVs
(:func:`repro.data.save_entity_table` format), so peak memory is one
cluster, not one corpus.

Ground truth travels in the entity id: ``"<cluster:08d>-<side><serial>"``.
Entity *text* never includes the id (:meth:`repro.data.Entity.text` walks
attribute values only), so the blocker and matcher cannot peek; the bench
recovers truth with :func:`true_cluster_of` to score blocking recall and
cluster quality at scales where materializing the true pair set as Python
objects would dwarf the tables themselves (the pair *count* is tracked
exactly, in :attr:`ScaleCorpus.true_matches`).

Perturbation is deliberately milder than the benchmark specs' own dirt
(``dirt=0.10`` per side by default): this corpus exists to exercise the
*pipeline* at scale with a tuned-for-recall LSH default, not to re-pose
the hardest matching problem — the scenario corpora in
:mod:`repro.scenarios` keep that job.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

import csv

import numpy as np

from .. import telemetry
from ..data import Entity
from ..datasets.catalog import spec_for
from ..datasets.perturb import Perturber

#: Default renderings-per-cluster range (inclusive): 1..3 renderings,
#: alternating sides, so about two thirds of clusters span both tables.
DEFAULT_RENDERINGS = (1, 3)


def true_cluster_of(entity_id: str) -> str:
    """The ground-truth cluster id embedded in a scale-corpus entity id."""
    cluster, sep, __ = entity_id.partition("-")
    if not sep or not cluster:
        raise ValueError(
            f"{entity_id!r} is not a scale-corpus entity id "
            f"(expected '<cluster>-<member>')")
    return cluster


@dataclass(frozen=True)
class ScaleCorpus:
    """Handle to one generated corpus: table paths plus exact statistics."""

    left_path: Path
    right_path: Path
    spec_key: str
    seed: int
    records: int
    left_rows: int
    right_rows: int
    clusters: int
    matched_clusters: int
    families: int
    #: Exact count of cross-side same-cluster pairs — the blocking-recall
    #: denominator, tracked during generation instead of materialized.
    true_matches: int

    def describe(self) -> Dict[str, Any]:
        return {
            "spec": self.spec_key, "seed": self.seed,
            "records": self.records,
            "left_rows": self.left_rows, "right_rows": self.right_rows,
            "clusters": self.clusters,
            "matched_clusters": self.matched_clusters,
            "families": self.families,
            "true_matches": self.true_matches,
        }


class _TableWriter:
    """Incremental writer for one entity-table CSV."""

    def __init__(self, path: Path):
        self.path = path
        path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = path.open("w", newline="")
        self._writer = csv.writer(self._handle)
        self._names: Optional[Tuple[str, ...]] = None
        self.rows = 0

    def add(self, entity: Entity) -> None:
        names = entity.attribute_names()
        if self._names is None:
            self._names = names
            self._writer.writerow(["id"] + list(names))
        elif names != self._names:
            raise ValueError(
                f"entity {entity.entity_id!r} schema {names} != table "
                f"schema {self._names}")
        self._writer.writerow(
            [entity.entity_id]
            + ["" if entity.attributes[a] is None
               else str(entity.attributes[a]) for a in names])
        self.rows += 1

    def close(self) -> None:
        self._handle.close()


def generate_scale_corpus(out_dir: Union[str, Path],
                          records: int,
                          spec: str = "fodors_zagats",
                          seed: int = 0,
                          renderings: Tuple[int, int] = DEFAULT_RENDERINGS,
                          family_size: int = 2,
                          dirt: float = 0.10,
                          null_rate: float = 0.02) -> ScaleCorpus:
    """Generate ``records`` entity rows into ``out_dir/{left,right}.csv``.

    Deterministic in every parameter.  Clusters are drawn in families of
    ``family_size`` hard-sibling world records (:meth:`World.family`), so
    near-miss non-matches exist at every scale; each cluster renders
    ``renderings[0]..renderings[1]`` times (uniform, inclusive),
    alternating sides ``a`` (left table) then ``b`` (right table).
    Generation may overshoot ``records`` by at most one family.
    """
    if records < 2:
        raise ValueError("records must be >= 2")
    low, high = renderings
    if not 1 <= low <= high:
        raise ValueError("renderings must satisfy 1 <= low <= high")
    if family_size < 1:
        raise ValueError("family_size must be >= 1")
    dataset_spec = spec_for(spec)
    perturber = Perturber(dirt, null_rate)
    rng = np.random.default_rng((dataset_spec.base_seed, seed, 0x5CA1E))
    out_dir = Path(out_dir)
    left = _TableWriter(out_dir / "left.csv")
    right = _TableWriter(out_dir / "right.csv")
    clusters = matched = families = true_matches = 0
    with telemetry.span("scale.synth", spec=dataset_spec.key,
                        records=records):
        try:
            while left.rows + right.rows < records:
                base = dataset_spec.world.generate(rng)
                families += 1
                for record in dataset_spec.world.family(base, family_size,
                                                        rng):
                    size = int(rng.integers(low, high + 1))
                    side_counts = {"a": 0, "b": 0}
                    for serial in range(size):
                        side = "a" if serial % 2 == 0 else "b"
                        renderer = (dataset_spec.render_left if side == "a"
                                    else dataset_spec.render_right)
                        attrs = perturber.apply(renderer(record, rng), rng)
                        entity = Entity(f"{clusters:08d}-{side}{serial}",
                                        attrs)
                        (left if side == "a" else right).add(entity)
                        side_counts[side] += 1
                    true_matches += side_counts["a"] * side_counts["b"]
                    if side_counts["a"] and side_counts["b"]:
                        matched += 1
                    clusters += 1
        finally:
            left.close()
            right.close()
    return ScaleCorpus(left_path=left.path, right_path=right.path,
                       spec_key=dataset_spec.key, seed=seed,
                       records=left.rows + right.rows,
                       left_rows=left.rows, right_rows=right.rows,
                       clusters=clusters, matched_clusters=matched,
                       families=families, true_matches=true_matches)


def true_assignments(corpus_ids: Iterator[str]) -> Dict[str, str]:
    """``{entity id -> true cluster id}`` for a stream of corpus ids."""
    return {entity_id: true_cluster_of(entity_id)
            for entity_id in corpus_ids}
