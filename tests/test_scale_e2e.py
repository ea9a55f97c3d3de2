"""End-to-end scale-resolution tier (``pytest -m e2e``).

One small but complete :func:`repro.scale.run_e2e_bench` run — synthetic
corpus, trained snapshot, sharded blocking, parallel scoring, transitive
clustering — asserting the report contract, then the engine equivalence
gate: one corpus resolved through the sequential engine, two worker
threads and an in-process daemon, each at its own scoring window, and
through a second shard layout, must give identical decision lists and
cluster assignments.
"""

import json
from itertools import islice

import pytest

from repro.data import iter_entity_table
from repro.pipeline import ERPipeline
from repro.scale import (ShardedBlocker, TransitiveClusterer,
                         generate_scale_corpus, run_e2e_bench)
from repro.scale.bench import BENCH_BLOCKER, BENCH_DIRT, format_e2e_report
from repro.serve import (DaemonClient, DaemonConfig, ModelRegistry,
                         score_tables, start_daemon_thread)

pytestmark = pytest.mark.e2e

#: Two (shard rows, chunk rows) layouts for the equivalence corpus: small
#: and co-prime-ish enough to force several shards and ragged chunks.
LAYOUTS = ((512, 128), (200, 77))


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("e2e_bench")
    output = tmp_path / "BENCH_e2e.json"
    work_dir = tmp_path / "work"
    report = run_e2e_bench(records=3000, num_workers=2, shard_size=1024,
                           chunk_size=512, window=512, output=output,
                           work_dir=work_dir, train_epochs=2)
    return report, output, work_dir


@pytest.fixture(scope="module")
def report_and_path(bench):
    report, output, __ = bench
    return report, output


class TestE2EBenchReport:
    def test_stage_throughput_keys(self, report_and_path):
        report, __ = report_and_path
        stages = report["stages"]
        assert stages["generate"]["records_per_second"] > 0
        assert stages["block"]["records_per_second"] > 0
        assert stages["block"]["pairs_per_second"] > 0
        assert stages["score"]["pairs_per_second"] > 0
        assert stages["cluster"]["records_per_second"] > 0
        assert report["end_to_end"]["records_per_second"] > 0

    def test_blocking_is_bounded_and_recalls(self, report_and_path):
        report, __ = report_and_path
        assert report["blocking"]["recall"] >= 0.95
        assert report["blocking"]["candidate_fraction"] < 0.01
        block = report["stages"]["block"]
        assert block["num_shards"] >= 2
        assert 0 < block["max_shard_rows"] <= 1024
        assert block["spilled_bytes"] > 0

    def test_cluster_sanity(self, report_and_path):
        report, __ = report_and_path
        clusters = report["clusters"]
        assert 0 < clusters["clusters"] <= clusters["entities"]
        assert clusters["entities"] == report["corpus"]["records"]
        quality = report["quality"]
        assert 0.0 <= quality["f1"] <= 1.0
        assert quality["precision"] > 0.9  # trained matcher, easy corpus

    def test_report_persisted_and_formats(self, report_and_path):
        report, output = report_and_path
        on_disk = json.loads(output.read_text())
        assert on_disk["records"] == report["records"]
        assert on_disk["pipeline_digest"] == report["pipeline_digest"]
        assert "equivalence" not in on_disk
        text = format_e2e_report(report)
        assert "blocking recall" in text and "end-to-end" in text

    def test_telemetry_counters_snapshot(self, report_and_path):
        report, __ = report_and_path
        counters = report["telemetry"]["counters"]
        assert counters.get("scale.synth.records", 0) == report["records"]
        assert counters.get("scale.block.candidates", 0) > 0
        assert counters.get("scale.cluster.entities", 0) > 0


def _entities(path, chunk_size):
    for chunk in iter_entity_table(path, chunk_size=chunk_size):
        yield from chunk


def _daemon_scores(registry, window):
    """A scorer that sends each ``window`` candidates as one request."""
    def score(blocker, left, right):
        candidates = blocker.iter_candidates(left, right)
        with start_daemon_thread(registry, DaemonConfig(port=0)) as handle:
            with DaemonClient(*handle.address) as client:
                while True:
                    chunk = list(islice(candidates, window))
                    if not chunk:
                        return
                    yield from client.score(chunk).decisions
    return score


def _table_scores(pipeline, num_workers, window):
    """A scorer streaming through :func:`repro.serve.score_tables`."""
    def score(blocker, left, right):
        return score_tables(pipeline, left, right, num_workers=num_workers,
                            window=window, blocker=blocker)
    return score


def _resolve(corpus, layout, threshold, score):
    """Block with ``layout``, score with ``score``, cluster."""
    shard_size, chunk_size = layout
    blocker = ShardedBlocker(shard_size=shard_size, chunk_size=chunk_size,
                             **BENCH_BLOCKER)
    decisions = list(score(blocker, _entities(corpus.left_path, chunk_size),
                           _entities(corpus.right_path, chunk_size)))
    clusterer = TransitiveClusterer(threshold=threshold)
    for path in (corpus.left_path, corpus.right_path):
        for entity in _entities(path, chunk_size):
            clusterer.add_entity(entity.entity_id)
    for decision in decisions:
        clusterer.add_decision(decision)
    return decisions, clusterer.clusters().assignments


def test_engines_windows_and_layouts_resolve_identically(bench):
    """Scoring is batch-invariant, so neither the engine, nor its window,
    nor the shard layout may move a probability or a cluster."""
    __, __, work_dir = bench
    pipeline_dir = work_dir / "pipeline"
    pipeline = ERPipeline.load(pipeline_dir)
    corpus = generate_scale_corpus(work_dir / "equivalence", 1500, seed=1,
                                   dirt=BENCH_DIRT)
    registry = ModelRegistry()
    registry.publish("default", str(pipeline_dir))
    try:
        runs = {
            "sequential": (LAYOUTS[0], _table_scores(pipeline, 0, 512)),
            "parallel-2": (LAYOUTS[0],
                           _table_scores(str(pipeline_dir), 2, 300)),
            "daemon": (LAYOUTS[0], _daemon_scores(registry, 128)),
            "sequential-resharded": (LAYOUTS[1],
                                     _table_scores(pipeline, 0, 777)),
        }
        results = {name: _resolve(corpus, layout, pipeline.threshold, score)
                   for name, (layout, score) in runs.items()}
    finally:
        registry.close()
    decisions, assignments = results["sequential"]
    assert len(decisions) > 300  # several windows at every size
    assert len(set(assignments.values())) < len(assignments)
    for name, (got_decisions, got_assignments) in results.items():
        assert got_decisions == decisions, name
        assert got_assignments == assignments, name
