"""Child-process entry points of the benchmark.

``python -m perf`` never imports the program itself; it starts this
module in a fresh process (one BLAS thread, the repository's ``src`` on
the path) for each job:

* ``run`` — one workload; writes ``result.json`` into its work directory;
* ``setup`` — build one workload's engine and print ``ready`` (the
  set-up time probe);
* ``snapshot`` — train and save the shared NoDA matcher snapshot.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path
from typing import List, Optional

#: The shared snapshot: NoDA source-only training on the corpus spec.
SNAPSHOT_RECIPE = {"spec": "fodors_zagats", "seed": 0, "epochs": 2,
                   "train_scale": 1.0}


def _run(args: argparse.Namespace) -> int:
    import numpy as np

    from . import load_spec, metric_names
    from .workloads import SIZES, Context, GateError, run_workload
    spec = load_spec()
    names = metric_names(spec, False) + metric_names(spec, True)
    work = Path(args.work)
    ctx = Context(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace),
                  size=SIZES[args.size], snapshot=Path(args.snapshot),
                  work=work)
    try:
        result = run_workload(ctx)
    except GateError as error:
        print(f"perf: {args.workload}: {error}", file=sys.stderr)
        return 3
    measured = {**result["end_to_end"], **result["layers"]}
    unknown = sorted(set(measured) - set(names))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": bool(args.trace),
        "size": args.size, "correct": True,
        "attempted": result["attempted"], "failed": result["failed"],
        # Layers a workload does not exercise read 0.0.
        "metrics": {name: float(measured.get(name, 0.0))
                    for name in names},
        "samples": result["samples"],
        "platform": {"nproc": len(os.sched_getaffinity(0)),
                     "python": platform.python_version(),
                     "numpy": np.__version__,
                     "machine": platform.machine()},
    }
    (work / "result.json").write_text(json.dumps(record, indent=2))
    return 0


def _setup(args: argparse.Namespace) -> int:
    from .workloads import build_setup
    build_setup(args.workload, Path(args.snapshot), Path(args.work))
    print("ready", flush=True)
    return 0


def _snapshot(args: argparse.Namespace) -> int:
    from repro.scale.bench import build_e2e_pipeline
    target = Path(args.directory)
    staging = target.with_name(target.name + ".building")
    shutil.rmtree(staging, ignore_errors=True)
    build_e2e_pipeline(staging, SNAPSHOT_RECIPE["spec"],
                       SNAPSHOT_RECIPE["seed"], SNAPSHOT_RECIPE["epochs"],
                       SNAPSHOT_RECIPE["train_scale"])
    staging.rename(target)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf.worker")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run")
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), required=True)
    run.add_argument("--size", required=True)
    run.add_argument("--snapshot", required=True)
    run.add_argument("--work", required=True)
    setup = commands.add_parser("setup")
    setup.add_argument("workload")
    setup.add_argument("snapshot")
    setup.add_argument("work")
    snapshot = commands.add_parser("snapshot")
    snapshot.add_argument("directory")
    args = parser.parse_args(argv)
    return {"run": _run, "setup": _setup, "snapshot": _snapshot}[
        args.command](args)


if __name__ == "__main__":
    sys.exit(main())
