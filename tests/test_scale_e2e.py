"""End-to-end scale-resolution tier (``pytest -m e2e``).

One small but complete :func:`repro.scale.run_e2e_bench` run — synthetic
corpus, trained snapshot, sharded blocking, parallel scoring, transitive
clustering, and the engine/shard-layout equivalence pass — asserting the
report contract CI smoke-checks on the full benchmark artifact.
"""

import json

import pytest

from repro.scale import run_e2e_bench
from repro.scale.bench import format_e2e_report

pytestmark = pytest.mark.e2e


@pytest.fixture(scope="module")
def report_and_path(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("e2e_bench")
    output = tmp_path / "BENCH_e2e.json"
    report = run_e2e_bench(records=3000, num_workers=2, shard_size=1024,
                           chunk_size=512, window=512, output=output,
                           work_dir=tmp_path / "work", train_epochs=2,
                           equivalence_records=1500)
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

    def test_equivalence_covers_engines_and_layouts(self, report_and_path):
        report, __ = report_and_path
        equivalence = report["equivalence"]
        assert equivalence["bit_identical"] is True
        assert set(equivalence["engines"]) == {
            "sequential", "parallel", "daemon", "sequential-resharded"}
        assert len(equivalence["shard_layouts"]) == 2

    def test_report_persisted_and_formats(self, report_and_path):
        report, output = report_and_path
        on_disk = json.loads(output.read_text())
        assert on_disk["records"] == report["records"]
        assert on_disk["pipeline_digest"] == report["pipeline_digest"]
        text = format_e2e_report(report)
        assert "blocking recall" in text and "bit-identical" in text

    def test_telemetry_counters_snapshot(self, report_and_path):
        report, __ = report_and_path
        counters = report["telemetry"]["counters"]
        # the headline run only: the equivalence pass feeds the same
        # process-global counters first
        assert counters.get("scale.synth.records", 0) == report["records"]
        assert counters.get("scale.block.candidates", 0) > 0
        assert counters.get("scale.cluster.entities", 0) > 0
