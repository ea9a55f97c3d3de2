"""The command line: a tiny run of every workload, refusal without the
program's sources, and ``compare`` against the bounds."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perf import ROOT, load_spec, metric_names

SMOKE_LIMIT_S = 90


def _perf(*args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, "-m", "perf", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_tiny_run_of_every_workload(tmp_path):
    # Build the shared snapshot first: it trains once per source tree and
    # is not part of the smoke budget.
    _perf("run", "--size", "tiny", "--workload", "score_bulk")
    started = time.perf_counter()
    done = _perf("run", "--size", "tiny", "--out", str(tmp_path))
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stderr[-2000:]
    assert elapsed < SMOKE_LIMIT_S
    spec = load_spec()
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    workloads = [w["name"] for w in spec["workloads"]]
    assert set(result["metrics"]) == {
        f"{w}.{m}" for w in workloads for m in metric_names(spec, False)}
    for value in result["metrics"].values():
        assert value["value"] > 0
    lines = [line for line in done.stdout.splitlines()
             if line.startswith("resolve.throughput_per_s ")]
    assert len(lines) == 1 and lines[0].endswith(" 1/s")
    assert len(list(tmp_path.glob("*.json"))) == len(workloads)


def test_without_program_sources_exits_nonzero_and_reports_nothing(
        tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = _perf("run", "--workload", "score_bulk", "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _record(workload, seed, **metrics):
    return {"workload": workload, "seed": seed, "trace": False,
            "metrics": metrics,
            "platform": {"nproc": 2, "python": "3", "numpy": "2"}}


def _write_set(directory: Path, scale: float, setup=lambda seed: 1.0):
    directory.mkdir()
    spec = load_spec()
    for workload in [w["name"] for w in spec["workloads"]]:
        for seed in range(3):
            metrics = {"setup_s": setup(seed), "peak_rss_mb": 100.0 + seed,
                       "throughput_per_s": 1000.0 * scale + seed,
                       "latency_p50_ms": 10.0, "quality_f1": 0.8}
            (directory / f"{workload}-s{seed}-0.json").write_text(
                json.dumps(_record(workload, seed, **metrics)))


@pytest.mark.parametrize("share, code", [(0.0, 0), (0.5, 0), (2.0, 1)])
def test_compare_checks_each_metric_against_its_bound(tmp_path, share,
                                                      code):
    """B's throughput is lower by ``share`` of the metric's bound."""
    bound = {m["name"]: m["bound"]
             for m in load_spec()["end_to_end"]}["throughput_per_s"]
    _write_set(tmp_path / "a", 1.0)
    _write_set(tmp_path / "b", 1.0 - share * bound)
    done = _perf("compare", str(tmp_path / "a"), str(tmp_path / "b"))
    assert done.returncode == code, done.stdout
    assert ("WORSE" in done.stdout) == bool(code)


@pytest.mark.parametrize("setup, verdict", [
    (lambda seed: 1.0 + seed, "unresolved"),   # 1-3 s against A's 1 s
    (lambda seed: 0.1 + 0.1 * seed, "ok"),     # every B run beats A
])
def test_compare_does_not_gate_a_metric_noisier_than_its_bound(
        tmp_path, setup, verdict):
    """B's set-up times spread far wider than the bound."""
    _write_set(tmp_path / "a", 1.0)
    _write_set(tmp_path / "b", 1.0, setup=setup)
    done = _perf("compare", str(tmp_path / "a"), str(tmp_path / "b"))
    assert done.returncode == 0, done.stdout
    setup_lines = [line for line in done.stdout.splitlines()
                   if line.strip().startswith("setup_s")]
    assert setup_lines and all(line.endswith(f"  {verdict}")
                               for line in setup_lines)
    assert "WORSE" not in done.stdout
