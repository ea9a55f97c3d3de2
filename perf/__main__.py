"""``python -m perf run | compare`` — the benchmark's command line.

``run`` measures workloads, one fresh process each, and prints every
metric as ``name value unit`` followed by one JSON line; ``compare``
checks two directories of recorded runs against the end-to-end bounds in
``BENCHMARK.json``.  This process never imports the program: it only
builds the shared snapshot (once per source tree) and starts workers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from . import ROOT, load_spec, metric_names
from .worker import SNAPSHOT_RECIPE

#: Every artifact a run leaves (snapshot, corpora, spills, caches, traces,
#: results) lives under here; git ignores it.
WORK = ROOT / "perf" / ".work"

#: Seconds one run measures with ``--size tiny`` (a smoke run).
TINY_SECONDS = 1.0

#: Wall-clock limits for child processes (the snapshot trains once).
WORKER_TIMEOUT_S = 170
SNAPSHOT_TIMEOUT_S = 600


def _child_env() -> Dict[str, str]:
    """The sources importable, one BLAS thread, temporary files kept in
    the work directory."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    env["TMPDIR"] = str(WORK)
    return env


def _call(command: List[str], timeout: float) -> int:
    """Run a child in its own process group; kill the group on timeout or
    interrupt so no daemon it started outlives the run."""
    proc = subprocess.Popen(command, cwd=ROOT, env=_child_env(),
                            stdout=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perf: {' '.join(command[2:5])} timed out after "
              f"{timeout:.0f}s", file=sys.stderr)
        return 124
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def _snapshot() -> Optional[Path]:
    """The shared NoDA snapshot, trained on first use and kept per source
    tree: the key hashes the recipe and every source file."""
    digest = hashlib.sha256(
        json.dumps(SNAPSHOT_RECIPE, sort_keys=True).encode())
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    directory = WORK / f"snapshot-{digest.hexdigest()[:16]}"
    if not (directory / "pipeline.json").exists():
        code = _call([sys.executable, "-m", "perf.worker", "snapshot",
                      str(directory)], SNAPSHOT_TIMEOUT_S)
        if code != 0:
            return None
    return directory


def _save(record: dict, out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-s{record['seed']}"
    index = 0
    while (out / f"{stem}-{index}.json").exists():
        index += 1
    path = out / f"{stem}-{index}.json"
    path.write_text(json.dumps(record, indent=2))
    return path


def run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    workloads = known if args.workload == "all" else [args.workload]
    if any(w not in known for w in workloads):
        print(f"perf: unknown workload {args.workload!r} (known: "
              f"{', '.join(known)})", file=sys.stderr)
        return 2
    seconds = args.seconds or (TINY_SECONDS if args.size == "tiny"
                               else spec["run_seconds"])
    WORK.mkdir(parents=True, exist_ok=True)
    snapshot = _snapshot()
    if snapshot is None:
        print("perf: building the snapshot failed", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    names = metric_names(spec, bool(args.trace))
    records = []
    for workload in workloads:
        work = WORK / str(args.seed) / workload
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        code = _call([sys.executable, "-m", "perf.worker", "run",
                      "--workload", workload, "--seed", str(args.seed),
                      "--seconds", repr(float(seconds)),
                      "--trace", str(args.trace), "--size", args.size,
                      "--snapshot", str(snapshot), "--work", str(work)],
                     WORKER_TIMEOUT_S)
        if code != 0:
            print(f"perf: workload {workload} failed (exit {code})",
                  file=sys.stderr)
            return code if code > 0 else 1
        record = json.loads((work / "result.json").read_text())
        if args.out:
            _save(record, Path(args.out))
        records.append(record)

    metrics = {}
    for record in records:
        prefix = "" if len(records) == 1 else f"{record['workload']}."
        print(f"# {record['workload']} seed={record['seed']} "
              f"samples={json.dumps(record['samples'])} "
              f"platform={json.dumps(record['platform'])}")
        for name in names:
            value = record["metrics"][name]
            print(f"{prefix}{name} {value!r} {units[name]}")
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics}))
    return 0


# --------------------------------------------------------------------------- #
# compare
# --------------------------------------------------------------------------- #

def _load_runs(directory: Path) -> Dict[str, List[dict]]:
    runs: Dict[str, List[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if "workload" in record and not record.get("trace"):
            runs.setdefault(record["workload"], []).append(record)
    return runs


def _quartiles(values: List[float]):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(args: argparse.Namespace) -> int:
    """Each workload x end-to-end metric: both sets' medians and
    quartiles, and whether B is within the metric's bound of A.

    A metric whose spread (interquartile range over median) exceeds its
    bound in either set is reported ``unresolved`` and not gated, since
    its noise is wider than the change it would have to detect, unless
    every run of B reads better than every run of A.
    """
    spec = load_spec()
    before, after = _load_runs(Path(args.a)), _load_runs(Path(args.b))
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in before or workload not in after:
            print(f"{workload}: missing from "
                  f"{args.a if workload not in before else args.b}")
            failures += 1
            continue
        a_runs, b_runs = before[workload], after[workload]
        print(f"{workload}: A {len(a_runs)} runs, B {len(b_runs)} runs "
              f"(nproc {a_runs[0]['platform']['nproc']} / "
              f"{b_runs[0]['platform']['nproc']}, python "
              f"{a_runs[0]['platform']['python']}, numpy "
              f"{a_runs[0]['platform']['numpy']})")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            # Signed so that a larger value is worse.
            sign = 1 if metric["better"] == "lower" else -1
            a_values = [r["metrics"][name] for r in a_runs]
            b_values = [r["metrics"][name] for r in b_runs]
            a, b = _quartiles(a_values), _quartiles(b_values)
            change = (b[1] - a[1]) / a[1] if a[1] else 0.0
            spreads = [(q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (a, b)]
            if max(spreads) <= metric["bound"]:
                verdict = ("ok" if sign * change <= metric["bound"]
                           else "WORSE")
            elif (max(sign * v for v in b_values)
                  < min(sign * v for v in a_values)):
                verdict = "ok"  # every run of B reads better than all of A
            else:
                verdict = "unresolved"
            failures += verdict == "WORSE"
            print(f"  {name:17s} A {a[1]:12.5g} [{a[0]:.5g}, {a[2]:.5g}] "
                  f"B {b[1]:12.5g} [{b[0]:.5g}, {b[2]:.5g}] "
                  f"{change:+7.2%}  spread A {spreads[0]:.2%} "
                  f"B {spreads[1]:.2%}  bound "
                  f"{metric['bound']:.0%}  {verdict}")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf",
                                     description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser(
        "run", help="measure workloads; prints every metric, then one JSON "
                    "line")
    run_parser.add_argument("--workload", default="all",
                            help="one workload name, or all (default)")
    run_parser.add_argument("--seed", type=int, default=0,
                            help="input seed (default 0)")
    run_parser.add_argument("--seconds", type=float, default=None,
                            help="measured seconds per run (default: "
                                 "BENCHMARK.json run_seconds)")
    run_parser.add_argument("--trace", type=int, nargs="?", const=1,
                            default=0, choices=(0, 1),
                            help="traced run: report per-layer metrics")
    run_parser.add_argument("--size", choices=("full", "tiny"),
                            default="full",
                            help="tiny is a seconds-long smoke run")
    run_parser.add_argument("--out", default=None,
                            help="also record each run's JSON in this "
                                 "directory (for compare)")
    compare_parser = commands.add_parser(
        "compare", help="check run set B against run set A")
    compare_parser.add_argument("a")
    compare_parser.add_argument("b")
    args = parser.parse_args(argv)
    return run(args) if args.command == "run" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
