"""Command-line interface.

Subcommands::

    python -m repro datasets                      # list the 13 benchmarks
    python -m repro generate fz out.csv --scale 0.2
    python -m repro table2
    python -m repro adapt dblp_acm dblp_scholar --aligner mmd --scale 0.1
    python -m repro distance books2 fodors_zagats
    python -m repro serve --snapshot prod=snapshots/prod --port 7461
    python -m repro serve --snapshot prod=snap --risk-band 0.25:0.75
    python -m repro risk-calibrate snapshots/prod --valid-csv valid.csv
    python -m repro risk-adapt snapshots/prod --queue review-queue \
        --valid-csv valid.csv --publish 127.0.0.1:7461
    python -m repro risk-report --queue review-queue --snapshot snapshots/prod
    python -m repro scenarios --aligners mmd,grl
    python -m repro trace-summary adapt_fz_am_mmd

Installed as the ``repro`` console script (``[project.scripts]``), which
enters here directly — so the BLAS single-thread guard from
``repro.__main__`` is replicated before numpy loads.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

# One process = one BLAS thread (see repro.__main__); the console-script
# entry point bypasses __main__.py, so the guard must also live here.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402  (env must be set before numpy loads)


def _add_lm_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lm-dim", type=int, default=32,
                        help="mini-LM width (default 32)")
    parser.add_argument("--lm-layers", type=int, default=1,
                        help="encoder layers (default 1)")
    parser.add_argument("--pretrain-steps", type=int, default=150,
                        help="MLM pre-training steps (default 150)")


def _lm_kwargs(args: argparse.Namespace) -> dict:
    heads = 2 if args.lm_dim % 2 == 0 else 1
    return dict(dim=args.lm_dim, num_layers=args.lm_layers, num_heads=heads,
                max_len=96, corpus_scale=0.01, steps=args.pretrain_steps)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DADER reproduction: domain adaptation for deep ER")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("datasets", help="list the benchmark datasets")

    generate = commands.add_parser(
        "generate", help="generate a benchmark dataset to a pair CSV")
    generate.add_argument("dataset", help="dataset key or alias (e.g. fz)")
    generate.add_argument("output", help="output CSV path")
    generate.add_argument("--scale", type=float, default=0.1)
    generate.add_argument("--seed", type=int, default=0)

    table2 = commands.add_parser("table2",
                                 help="print Table 2 dataset statistics")
    table2.add_argument("--scale", type=float, default=1.0)

    adapt = commands.add_parser(
        "adapt", help="adapt a matcher from a labeled source to a target")
    adapt.add_argument("source")
    adapt.add_argument("target")
    adapt.add_argument("--aligner", default="mmd",
                       help="mmd | k_order | grl | invgan | invgan_kd | ed "
                            "| cmd (default mmd)")
    adapt.add_argument("--scale", type=float, default=0.1)
    adapt.add_argument("--epochs", type=int, default=6)
    adapt.add_argument("--beta", type=float, default=0.1)
    adapt.add_argument("--seed", type=int, default=0)
    adapt.add_argument("--no-da", action="store_true",
                       help="run the NoDA baseline instead")
    adapt.add_argument("--telemetry", action="store_true",
                       help="trace the run (spans + autograd profiler) and "
                            "export <trace-dir>/<run>.trace.jsonl")
    adapt.add_argument("--trace-dir", default="traces",
                       help="trace export directory (default traces)")
    _add_lm_arguments(adapt)

    report = commands.add_parser(
        "report", help="render a paper-vs-measured report from stored "
                       "benchmark results")
    report.add_argument("--profile", default="fast",
                        help="profile whose results to report (default fast)")

    distance = commands.add_parser(
        "distance", help="MMD distance between two datasets (Finding 2)")
    distance.add_argument("source")
    distance.add_argument("target")
    distance.add_argument("--scale", type=float, default=0.1)
    _add_lm_arguments(distance)

    serve = commands.add_parser(
        "serve",
        help="run the online scoring daemon: admission control with "
             "backpressure, one scoring lane that scores each request in "
             "arrival order, multi-tenant snapshot routing with "
             "zero-downtime hot swap")
    serve.add_argument("--snapshot", action="append", default=[],
                       metavar="[DOMAIN=]DIR",
                       help="pipeline snapshot to publish at startup; "
                            "repeatable, one per domain (bare DIR publishes "
                            "as 'default')")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=7461,
                       help="TCP port; 0 picks an ephemeral port "
                            "(default 7461)")
    serve.add_argument("--max-queued-pairs", type=int, default=4096,
                       help="admission high-water mark in pairs; past it "
                            "requests are rejected with retry-after, and a "
                            "single request of more pairs than this is "
                            "refused as a bad request (default 4096)")
    serve.add_argument("--cache-capacity", type=int, default=262144,
                       help="shared score-cache entries (default 262144)")
    serve.add_argument("--risk-band", default=None, metavar="LOW:HIGH",
                       help="enable risk-aware routing: decisions whose "
                            "calibrated confidence falls inside the band "
                            "are queued for review instead of auto-decided "
                            "(auto decisions stay bit-identical)")
    serve.add_argument("--review-dir", default="review-queue",
                       help="durable review-queue directory used when "
                            "--risk-band is set (default review-queue)")

    risk_calibrate = commands.add_parser(
        "risk-calibrate",
        help="fit a Platt calibrator for a snapshot against labeled "
             "validation pairs and persist it inside the snapshot store "
             "(changes the manifest digest)")
    risk_calibrate.add_argument("snapshot", help="pipeline snapshot directory")
    risk_calibrate.add_argument("--valid-csv", required=True,
                                help="labeled pair CSV (repro generate "
                                     "format) used as the hold-out")
    risk_calibrate.add_argument("--bins", type=int, default=10,
                                help="ECE histogram bins (default 10)")

    risk_adapt = commands.add_parser(
        "risk-adapt",
        help="run the guardrailed re-adaptation worker: drain labeled "
             "review items, fine-tune a copy of the incumbent, promote "
             "through the registry only past the canary gate")
    risk_adapt.add_argument("snapshot",
                            help="incumbent pipeline snapshot directory")
    risk_adapt.add_argument("--queue", required=True,
                            help="review-queue directory to drain")
    risk_adapt.add_argument("--valid-csv", required=True,
                            help="labeled pair CSV for the canary gate")
    risk_adapt.add_argument("--workdir", default=None,
                            help="generations/archive/history directory "
                                 "(default <queue>/../risk-workdir)")
    risk_adapt.add_argument("--domain", default="default",
                            help="domain to publish promotions under")
    risk_adapt.add_argument("--publish", default=None, metavar="HOST:PORT",
                            help="hot-swap promotions into a running "
                                 "repro serve daemon (default: write the "
                                 "generation but publish nowhere)")
    risk_adapt.add_argument("--oracle-equality", action="store_true",
                            help="label drained items with the attribute-"
                                 "equality oracle instead of reviewer "
                                 "labels (tests/smoke)")
    risk_adapt.add_argument("--once", action="store_true",
                            help="run a single cycle and exit")
    risk_adapt.add_argument("--interval", type=float, default=1.0,
                            help="poll interval between cycles in seconds "
                                 "(default 1.0)")
    risk_adapt.add_argument("--min-items", type=int, default=8,
                            help="labeled items required per cycle "
                                 "(default 8)")
    risk_adapt.add_argument("--epochs", type=int, default=2,
                            help="fine-tune epochs per cycle (default 2)")
    risk_adapt.add_argument("--epsilon-f1", type=float, default=0.02,
                            help="canary F1 floor slack (default 0.02)")
    risk_adapt.add_argument("--epsilon-ece", type=float, default=0.02,
                            help="canary ECE ceiling slack (default 0.02)")

    risk_report = commands.add_parser(
        "risk-report",
        help="summarize the risk loop: review-queue state, snapshot "
             "calibration, re-adaptation history")
    risk_report.add_argument("--queue", required=True,
                             help="review-queue directory")
    risk_report.add_argument("--snapshot", default=None,
                             help="serving snapshot directory (adds digest "
                                  "+ calibration to the report)")
    risk_report.add_argument("--workdir", default=None,
                             help="re-adaptation workdir (adds promotion "
                                  "history to the report)")

    scenarios = commands.add_parser(
        "scenarios",
        help="score the aligners across the EMBer-style 4x2 scenario grid "
             "(vanilla / record linking / cluster-focused / open matching, "
             "balanced + imbalanced) and write BENCH_scenarios.json")
    scenarios.add_argument("--target", default="fodors_zagats",
                           help="dataset spec the cluster corpus renders "
                                "(default fodors_zagats)")
    scenarios.add_argument("--source", default="books2",
                           help="labeled source dataset (default books2)")
    scenarios.add_argument("--aligners", default=None,
                           help="comma-separated aligner subset "
                                "(default: all six Table 1 aligners)")
    scenarios.add_argument("--num-families", type=int, default=24,
                           help="hard-negative families in the corpus "
                                "(default 24)")
    scenarios.add_argument("--num-pairs", type=int, default=160,
                           help="pair budget per grid cell (default 160)")
    scenarios.add_argument("--source-scale", type=float, default=0.2,
                           help="source dataset scale (default 0.2)")
    scenarios.add_argument("--epochs", type=int, default=6)
    scenarios.add_argument("--seed", type=int, default=0)
    scenarios.add_argument("--output", default="BENCH_scenarios.json",
                           help="report path (default BENCH_scenarios.json)")
    _add_lm_arguments(scenarios)

    trace_summary = commands.add_parser(
        "trace-summary",
        help="render an exported trace: span tree, op table, per-name "
             "totals")
    trace_summary.add_argument(
        "run", help="run id (looked up under --trace-dir) or a path to a "
                    ".trace.jsonl file")
    trace_summary.add_argument("--trace-dir", default="traces",
                               help="trace directory (default traces)")
    trace_summary.add_argument("--top", type=int, default=10,
                               help="rows in the per-op table (default 10)")
    return parser


def cmd_datasets() -> int:
    from .datasets import CATALOG
    for key, spec in CATALOG.items():
        print(f"{key:16s} {spec.domain:10s} {spec.full_name}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    from .data import save_csv
    from .datasets import load_dataset
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    save_csv(dataset, args.output)
    print(f"wrote {dataset.num_pairs} pairs ({dataset.num_matches} matches) "
          f"to {args.output}")
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    from .experiments import format_table2
    print(format_table2(scale=args.scale))
    return 0


def cmd_adapt(args: argparse.Namespace) -> int:
    from .api import adapt, no_da
    from .datasets import load_dataset
    from .telemetry import PROFILER, TelemetrySession
    from .train import TrainConfig
    source = load_dataset(args.source, scale=args.scale, seed=args.seed)
    target = load_dataset(args.target, scale=args.scale, seed=args.seed)
    config = TrainConfig(epochs=args.epochs, beta=args.beta, seed=args.seed)
    method = "noda" if args.no_da else args.aligner
    session = (TelemetrySession(
        f"adapt_{args.source}_{args.target}_{method}",
        trace_dir=args.trace_dir, profile=True)
        if args.telemetry else None)
    if session is not None:
        session.__enter__()
    try:
        if args.no_da:
            result = no_da(source, target, config=config,
                           lm_kwargs=_lm_kwargs(args))
        else:
            result = adapt(source, target, aligner=args.aligner,
                           config=config, seed=args.seed,
                           lm_kwargs=_lm_kwargs(args))
    finally:
        if session is not None:
            session.__exit__(None, None, None)
    metrics = result.test_metrics
    print(f"method={result.method} best_epoch={result.best_epoch}")
    print(f"target F1={result.best_f1:.1f} "
          f"precision={metrics.precision:.3f} recall={metrics.recall:.3f}")
    if session is not None:
        path = session.export()
        print()
        print(PROFILER.format_top(10))
        print(f"trace written to {path}")
    return 0


def cmd_distance(args: argparse.Namespace) -> int:
    from .analysis import dataset_mmd
    from .datasets import load_dataset
    from .pretrain import pretrained_lm
    source = load_dataset(args.source, scale=args.scale, seed=0)
    target = load_dataset(args.target, scale=args.scale, seed=0)
    extractor, __ = pretrained_lm(**_lm_kwargs(args))
    value = dataset_mmd(extractor, source, target)
    print(f"MMD({args.source}, {args.target}) = {value:.4f}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import (DaemonConfig, ModelRegistry, ScoreCache,
                        serve_forever)
    router = None
    if args.risk_band:
        from .risk import ReviewQueue, RiskBand, RiskRouter
        router = RiskRouter(band=RiskBand.from_spec(args.risk_band),
                            queue=ReviewQueue(args.review_dir))
        print(f"risk routing on: band {args.risk_band}, review queue at "
              f"{args.review_dir}")
    registry = ModelRegistry(cache=ScoreCache(capacity=args.cache_capacity),
                             router=router)
    for spec in args.snapshot:
        domain, __, directory = spec.rpartition("=")
        domain = domain or "default"
        digest = registry.publish(domain, directory)
        print(f"published domain {domain!r} from {directory} "
              f"(digest {digest[:12]}...)")
    if not args.snapshot:
        print("no --snapshot given: daemon starts empty; publish over the "
              "wire with op=publish")
    config = DaemonConfig(host=args.host, port=args.port,
                          max_queued_pairs=args.max_queued_pairs)

    async def main() -> None:
        loop = asyncio.get_running_loop()
        ready = loop.create_future()

        async def announce() -> None:
            host, port = await ready
            print(f"repro serve listening on {host}:{port}", flush=True)

        await asyncio.gather(serve_forever(registry, config, ready=ready),
                             announce())

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("interrupted; daemon stopped")
        registry.close()
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    from .scenarios import (SCENARIO_ALIGNERS, format_scenarios_report,
                            run_scenarios_bench)
    aligners = (tuple(a.strip() for a in args.aligners.split(",") if a.strip())
                if args.aligners else SCENARIO_ALIGNERS)
    payload = run_scenarios_bench(
        target=args.target, source=args.source, aligners=aligners,
        num_families=args.num_families, num_pairs=args.num_pairs,
        source_scale=args.source_scale, seed=args.seed, epochs=args.epochs,
        output=args.output, lm_kwargs=_lm_kwargs(args))
    print(format_scenarios_report(payload))
    print(f"report written to {args.output}")
    return 0


def cmd_risk_calibrate(args: argparse.Namespace) -> int:
    from .data import load_csv
    from .risk import calibrate_snapshot
    valid = load_csv(args.valid_csv, name="valid")
    calibrator, digest = calibrate_snapshot(args.snapshot, valid,
                                            bins=args.bins)
    print(f"calibrated {args.snapshot} on {calibrator.num_pairs} pairs: "
          f"a={calibrator.a:.4f} b={calibrator.b:.4f} "
          f"ECE {calibrator.ece_before:.4f} -> {calibrator.ece_after:.4f}")
    print(f"new manifest digest {digest[:12]}... (republish to serve it)")
    return 0


def cmd_risk_adapt(args: argparse.Namespace) -> int:
    from .data import load_csv
    from .risk import (ReAdaptConfig, ReAdaptationWorker, ReviewQueue,
                       equality_oracle)
    valid = load_csv(args.valid_csv, name="valid")
    registry = None
    client = None
    if args.publish:
        from .serve import DaemonClient
        host, __, port = args.publish.rpartition(":")
        client = registry = DaemonClient(host or "127.0.0.1", int(port))
    config = ReAdaptConfig(min_items=args.min_items, epochs=args.epochs,
                           epsilon_f1=args.epsilon_f1,
                           epsilon_ece=args.epsilon_ece)
    worker = ReAdaptationWorker(
        ReviewQueue(args.queue), args.snapshot, valid,
        labeler=equality_oracle if args.oracle_equality else None,
        registry=registry, domain=args.domain, workdir=args.workdir,
        config=config)
    try:
        if args.once:
            entry = worker.run_once()
            print(f"cycle: {entry['status']}"
                  + (f" (gate: F1 {entry['candidate_f1']:.4f} vs floor "
                     f"{entry['f1_floor']:.4f}, ECE "
                     f"{entry['candidate_ece']:.4f} vs ceiling "
                     f"{entry['ece_ceiling']:.4f})"
                     if "candidate_f1" in entry else ""))
            return 0
        print(f"risk-adapt worker draining {args.queue} every "
              f"{args.interval:g}s (ctrl-C to stop)")
        try:
            cycles = worker.run_forever(interval=args.interval)
        except KeyboardInterrupt:
            cycles = len(worker.history())
            print("interrupted")
        print(f"{cycles} non-idle cycle(s) ran")
        return 0
    finally:
        if client is not None:
            client.close()


def cmd_risk_report(args: argparse.Namespace) -> int:
    from .risk import format_risk_report, risk_summary
    print(format_risk_report(risk_summary(args.queue,
                                          snapshot=args.snapshot,
                                          workdir=args.workdir)))
    return 0


def cmd_trace_summary(args: argparse.Namespace) -> int:
    from .telemetry import summarize
    try:
        print(summarize(args.run, trace_dir=args.trace_dir, top_k=args.top))
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "datasets":
        return cmd_datasets()
    if args.command == "generate":
        return cmd_generate(args)
    if args.command == "table2":
        return cmd_table2(args)
    if args.command == "adapt":
        return cmd_adapt(args)
    if args.command == "distance":
        return cmd_distance(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "scenarios":
        return cmd_scenarios(args)
    if args.command == "risk-calibrate":
        return cmd_risk_calibrate(args)
    if args.command == "risk-adapt":
        return cmd_risk_adapt(args)
    if args.command == "risk-report":
        return cmd_risk_report(args)
    if args.command == "trace-summary":
        return cmd_trace_summary(args)
    if args.command == "report":
        from .experiments import render_report
        print(render_report(profile_name=args.profile))
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
