"""The serve throughput benchmark behind ``python -m repro serve-bench``.

Builds a small pipeline snapshot, generates a >=10k-pair candidate workload,
and races three engines over identical inputs:

1. ``sequential-reference`` — ``ERPipeline.__call__`` with the legacy
   fixed-stride, full-``max_len``-padding batching (the pre-serve hot path);
2. ``sequential-bucketed``  — :class:`SequentialScorer` with the
   length-bucketing :class:`BatchScheduler`;
3. ``parallel``             — :class:`ParallelScorer` fanning batches out
   over worker threads.

Engines 2 and 3 share one scheduler configuration and must agree
**bit-for-bit**; both must agree with the reference to within 1e-9 (the
bucketed policy batches differently, and BLAS kernel selection is not
bit-stable across batch sizes) and decide identically at the match
threshold.  Only then is any number reported.  The result (per-engine
pairs/sec, batch-latency percentiles, worker utilization) is persisted to
``BENCH_serve.json`` so the perf trajectory of the scoring path is recorded
run over run.
"""

from __future__ import annotations

import json
import platform
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from ..artifacts import atomic_write
from ..data import Entity, EntityPair
from ..matcher import MlpMatcher
from ..pipeline import ERPipeline
from ..pretrain import fresh_copy, pretrained_lm
from ..telemetry import DEFAULT_TRACE_DIR, REGISTRY, TelemetrySession, span
from .cache import ScoreCache
from .engine import ParallelScorer, SequentialScorer
from .metrics import ServeMetrics, ThroughputMeter, percentile

#: Small-LM settings for the bench pipeline (matches the test suite's LM so
#: the checkpoint cache is shared with a normal test run).
BENCH_LM = dict(dim=32, num_layers=1, num_heads=2, max_len=96,
                corpus_scale=0.01, steps=80, seed=0)

#: Share of the cache-pass workload resampled from already-seen pairs — the
#: duplicate-heavy shape blocking emits across overlapping streaming windows.
CACHE_DUPLICATE_FRACTION = 0.75

_WORDS = ("acoustic", "baseline", "canonical", "digital", "electric",
          "fluent", "gradient", "harmonic", "ivory", "jasper", "kinetic",
          "luminous", "matrix", "nominal", "orbital", "prism", "quartz",
          "radiant", "solstice", "tandem", "umbra", "vector", "willow",
          "xenon", "yonder", "zephyr")


def synthetic_candidates(num_pairs: int, seed: int = 0,
                         tokens_per_side: int = 6,
                         duplicate_fraction: float = 0.0) -> List[EntityPair]:
    """Short product-style candidate pairs — the serving-traffic shape.

    Real blocked candidates are dominated by short serializations; keeping
    them well under ``max_len`` is what gives the bucketing scheduler its
    headroom over full-length padding.  ``duplicate_fraction`` resamples
    that share of the workload from the unique pairs (fresh entity ids,
    identical text) — the shape blocking emits across overlapping streaming
    windows, and what the score cache and dedup pass feed on.
    """
    if not 0.0 <= duplicate_fraction < 1.0:
        raise ValueError("duplicate_fraction must be in [0, 1)")
    rng = np.random.default_rng(seed)
    num_unique = max(1, int(round(num_pairs * (1.0 - duplicate_fraction))))
    attributes = []
    for __ in range(num_unique):
        base = rng.choice(_WORDS, size=tokens_per_side)
        noisy = base.copy()
        if rng.random() < 0.5:  # half the pairs perturb one token
            noisy[rng.integers(len(noisy))] = rng.choice(_WORDS)
        attributes.append(({"name": " ".join(base[:3]),
                            "maker": " ".join(base[3:])},
                           {"name": " ".join(noisy[:3]),
                            "maker": " ".join(noisy[3:])}))
    pairs = []
    for i in range(num_pairs):
        left_attrs, right_attrs = attributes[
            i if i < num_unique else int(rng.integers(num_unique))]
        pairs.append(EntityPair(Entity(f"l{i}", left_attrs),
                                Entity(f"r{i}", right_attrs)))
    return pairs


def build_bench_pipeline(directory: Union[str, Path], seed: int = 0,
                         lm_kwargs: Optional[dict] = None) -> Path:
    """Persist a small (pre-trained LM + fresh matcher) pipeline snapshot."""
    extractor, __ = pretrained_lm(**(lm_kwargs or BENCH_LM))
    extractor = fresh_copy(extractor, seed=seed)
    extractor.eval()
    matcher = MlpMatcher(extractor.feature_dim, np.random.default_rng(seed))
    matcher.eval()
    pipeline = ERPipeline(extractor, matcher)
    pipeline.save(directory)
    return Path(directory)


def _reference_metrics(pipeline: ERPipeline, pairs: List[EntityPair],
                       batch_size: int) -> ServeMetrics:
    """Time the legacy sequential path batch by batch."""
    meter = ThroughputMeter("sequential-reference", num_workers=1)
    for start in range(0, len(pairs), batch_size):
        batch = pairs[start:start + batch_size]
        with span("serve.batch", engine="sequential-reference",
                  num_pairs=len(batch)) as sp:
            pipeline(batch, batch_size=batch_size)
        meter.record_batch(len(batch), sp.duration)
    return meter.finalize()


def _timed_sequential(pipeline: ERPipeline, pairs: List[EntityPair],
                      score_cache: Optional[ScoreCache]):
    scorer = SequentialScorer(pipeline, cache=score_cache)
    return scorer.score_pairs(pairs), scorer.last_metrics


def _empty_cache_dir(directory: Path) -> None:
    """Delete a score-cache directory, refusing one that holds anything
    else (``--cache-dir .cache`` must not take the LM checkpoints along)."""
    if not directory.exists():
        return
    foreign = [p.name for p in directory.iterdir()
               if not (p.name.startswith("scores-")
                       or p.name in ("MANIFEST.json", ".locks"))]
    if foreign:
        raise ValueError(
            f"cache dir {directory} holds files that are not score-cache "
            f"shards ({', '.join(sorted(foreign)[:3])}); refusing to empty it")
    shutil.rmtree(directory)


def _run_cache_passes(pipeline: ERPipeline, pipeline_dir: Path,
                      num_pairs: int, num_workers: int, seed: int,
                      cache_dir: Optional[Union[str, Path]]) -> Dict:
    """Race uncached / cold-cached / warm-cached over duplicate-heavy traffic.

    Correctness gates every number: all three cached decision lists
    (sequential cold, sequential warm, parallel warm) must be bit-identical
    to the uncached run, the cold pass must miss, and the warm hit rate
    must clear 0.9 — a cache that changes a decision or barely hits must
    never report a speedup.  With ``cache_dir`` set, the directory is
    emptied first (a shard left by an earlier run would turn the cold pass
    warm), the cold pass is flushed to the persistent tier, and the warm
    pass starts from a **fresh** :class:`ScoreCache` instance, so the hits
    it reports are genuinely served by the on-disk shard.
    """
    dup_pairs = synthetic_candidates(
        num_pairs, seed=seed + 1,
        duplicate_fraction=CACHE_DUPLICATE_FRACTION)
    uncached_decisions, uncached_metrics = _timed_sequential(
        pipeline, dup_pairs, None)

    store_dir = Path(cache_dir) if cache_dir is not None else None
    if store_dir is not None:
        _empty_cache_dir(store_dir)
    cold_cache = ScoreCache(directory=store_dir)
    cold_decisions, cold_metrics = _timed_sequential(
        pipeline, dup_pairs, cold_cache)
    assert cold_decisions == uncached_decisions, \
        "cold cached decisions deviate bit-wise from the uncached run"
    assert cold_metrics.cache["misses"] > 0, \
        "the cold cache pass never missed: it did not start cold"

    if store_dir is not None:
        cold_cache.flush()
        warm_cache = ScoreCache(directory=store_dir)
    else:
        warm_cache = cold_cache
    warm_decisions, warm_metrics = _timed_sequential(
        pipeline, dup_pairs, warm_cache)
    assert warm_decisions == uncached_decisions, \
        "warm cached decisions deviate bit-wise from the uncached run"
    warm_hit_rate = warm_metrics.cache.get("hit_rate", 0.0)
    assert warm_hit_rate >= 0.9, \
        f"warm hit rate {warm_hit_rate:.3f} < 0.9 on duplicate-heavy traffic"

    # Same warm cache through the parallel engine: it must agree
    # bit-for-bit too (and, fully warm, never starts a thread).
    with ParallelScorer(pipeline_dir, num_workers=num_workers,
                        cache=warm_cache) as scorer:
        parallel_decisions = scorer.score_pairs(dup_pairs)
        parallel_metrics = scorer.last_metrics
    assert parallel_decisions == uncached_decisions, \
        "parallel cached decisions deviate bit-wise from the uncached run"

    def _pass(metrics: ServeMetrics) -> Dict:
        return {"pairs_per_second": metrics.pairs_per_second,
                "wall_seconds": metrics.wall_seconds,
                "num_batches": metrics.num_batches,
                **metrics.cache}

    cold_pps = cold_metrics.pairs_per_second
    warm_pps = warm_metrics.pairs_per_second
    uncached_pps = uncached_metrics.pairs_per_second
    return {
        "num_pairs": len(dup_pairs),
        "duplicate_fraction": CACHE_DUPLICATE_FRACTION,
        "persistent_dir": str(store_dir) if store_dir is not None else None,
        # asserted above, recorded for readers:
        "bit_identical_to_uncached": True,
        "uncached": {"pairs_per_second": uncached_pps,
                     "wall_seconds": uncached_metrics.wall_seconds},
        "cold": _pass(cold_metrics),
        "warm": _pass(warm_metrics),
        "parallel_warm": _pass(parallel_metrics),
        "warm_hit_rate": warm_hit_rate,
        "warm_speedup_vs_cold": warm_pps / cold_pps if cold_pps else 0.0,
        "warm_speedup_vs_uncached": (warm_pps / uncached_pps
                                     if uncached_pps else 0.0),
    }


def _run_daemon_bench(pipeline: ERPipeline, pipeline_dir: Path,
                      num_clients: int, requests_per_client: int,
                      pairs_per_request: int, seed: int,
                      lm_kwargs: Optional[dict]) -> Dict:
    """Drive a live daemon with concurrent clients and a mid-run hot swap.

    ``num_clients`` threads each send ``requests_per_client`` small
    requests over TCP; halfway through, the bench republishes the domain
    with a *different* snapshot (fresh matcher seed, new digest).  Three
    gates before any number is reported:

    * every response is bit-identical to a :class:`SequentialScorer` run
      of the same request on whichever snapshot answered it;
    * the swap drops zero requests (``failed == 0`` and both digests
      actually served);
    * responses outnumber flushes — concurrent requests genuinely merged.

    Reported: p50/p95/mean end-to-end request latency, merge efficiency,
    throughput, and the swap record.
    """
    import threading

    from .client import DaemonClient
    from .daemon import DaemonConfig, start_daemon_thread
    from .registry import ModelRegistry

    # A second snapshot with different weights (and therefore digest).
    swap_dir = pipeline_dir.parent / f"{pipeline_dir.name}_swapped"
    build_bench_pipeline(swap_dir, seed=seed + 1, lm_kwargs=lm_kwargs)
    swapped = ERPipeline.load(swap_dir)
    assert swapped.manifest_digest != pipeline.manifest_digest, \
        "swap snapshot must have a different digest"

    # A small pool of request templates; expected decisions precomputed per
    # snapshot so every reply can be checked against the digest it carries.
    num_templates = 8
    templates = [synthetic_candidates(pairs_per_request,
                                      seed=seed + 100 + t)
                 for t in range(num_templates)]
    expected = {
        pipe.manifest_digest: [
            SequentialScorer(pipe).score_pairs(template)
            for template in templates]
        for pipe in (pipeline, swapped)
    }

    # Cache-less on purpose: a shared cache serves partial hits, which
    # shrinks the residual batch a request scores and so changes its
    # composition — the bit-identity gate below must compare equal
    # compositions.  Cache equivalence has its own passes (``"cache"``).
    registry = ModelRegistry()
    registry.publish("default", pipeline_dir)
    config = DaemonConfig(flush_interval=0.005)
    latencies: List[float] = []
    served_digests: List[str] = []
    record_lock = threading.Lock()
    errors: List[BaseException] = []
    half = max(1, requests_per_client // 2)
    total_requests = num_clients * requests_per_client
    first_half_done = threading.Semaphore(0)
    swap_landed = threading.Event()
    start_barrier = threading.Barrier(num_clients + 1)

    def client_worker(host: int, port: int, client_index: int) -> None:
        try:
            with DaemonClient(host, port) as client:
                start_barrier.wait()
                for r in range(requests_per_client):
                    if r == half:
                        # Pause at the halfway mark until the controller has
                        # republished, so the swap provably lands mid-run
                        # with traffic on both sides of it.
                        first_half_done.release()
                        swap_landed.wait()
                    t = (client_index * requests_per_client + r) \
                        % num_templates
                    reply = client.score(templates[t])
                    assert reply.decisions == expected[reply.digest][t], \
                        "daemon reply deviates bit-wise from sequential"
                    with record_lock:
                        latencies.append(reply.latency_seconds)
                        served_digests.append(reply.digest)
        except BaseException as error:  # surfaced after join
            errors.append(error)
            first_half_done.release()  # never wedge the swap controller

    with start_daemon_thread(registry, config) as handle:
        host, port = handle.address
        threads = [threading.Thread(target=client_worker,
                                    args=(host, port, index))
                   for index in range(num_clients)]
        for thread in threads:
            thread.start()
        with span("serve.daemon_bench", num_clients=num_clients) as bench_sp:
            start_barrier.wait()
            for __ in range(num_clients):  # every client's first half lands
                first_half_done.acquire()
            with DaemonClient(host, port) as control:  # ...then hot-swap
                control.publish("default", str(swap_dir))
            swap_landed.set()
            for thread in threads:
                thread.join()
        with DaemonClient(host, port) as probe:
            stats = probe.stats()

    if errors:
        raise errors[0]
    assert stats["failed"] == 0, \
        f"hot swap dropped {stats['failed']} request(s)"
    served_old = served_digests.count(pipeline.manifest_digest)
    served_new = served_digests.count(swapped.manifest_digest)
    assert served_old and served_new, \
        "both snapshot generations must actually serve traffic"
    assert stats["flushes"] < stats["responses"], \
        "concurrent requests never merged into a shared flush"

    wall = bench_sp.duration
    total_pairs = total_requests * pairs_per_request
    return {
        "num_clients": num_clients,
        "requests_per_client": requests_per_client,
        "pairs_per_request": pairs_per_request,
        # asserted above, recorded for readers:
        "bit_identical_to_sequential": True,
        "failed_requests": 0,
        "latency": {
            "p50_seconds": percentile(latencies, 50.0),
            "p95_seconds": percentile(latencies, 95.0),
            "mean_seconds": sum(latencies) / len(latencies),
        },
        "merge": {
            "flushes": stats["flushes"],
            "merged_requests": stats["merged_requests"],
            "requests_per_flush": stats["requests_per_flush"],
            "merge_efficiency": stats["merge_efficiency"],
        },
        "hot_swap": {
            "old_digest": pipeline.manifest_digest,
            "new_digest": swapped.manifest_digest,
            "served_old": served_old,
            "served_new": served_new,
            "zero_downtime": True,
        },
        "backpressure_rejections": stats["rejected"],
        "wall_seconds": wall,
        "requests_per_second": total_requests / wall if wall else 0.0,
        "pairs_per_second": total_pairs / wall if wall else 0.0,
    }


def _run_risk_pass(pipeline_dir: Path, num_pairs: int, seed: int,
                   band_spec: str) -> Dict:
    """Measure risk routing: calibration, routing rates, queue throughput.

    The bench snapshot is calibrated against attribute-equality labels on a
    synthetic hold-out, then the same workload is scored twice — plain
    sequential vs a :class:`~repro.risk.RiskRouter` in front of a fresh
    durable :class:`~repro.risk.ReviewQueue`.  Gate before any number:
    the routed decision list must be **bit-identical** to the unrouted
    one (the router only annotates).  Reported: routing rates per band,
    calibration ECE before/after, and review-queue append/drain
    throughput.
    """
    import shutil
    import tempfile
    import time as _time

    from ..data import ERDataset
    from ..risk import (ReviewQueue, RiskBand, RiskRouter, calibrate_snapshot)
    from .request import ScoreRequest

    holdout = synthetic_candidates(max(64, num_pairs // 8), seed=seed + 31)
    valid = ERDataset("bench-valid", "bench",
                      [p.with_label(int(p.left.attributes
                                        == p.right.attributes))
                       for p in holdout])
    calibrator, digest = calibrate_snapshot(pipeline_dir, valid)

    workload = synthetic_candidates(num_pairs, seed=seed + 32)
    plain = SequentialScorer.from_directory(pipeline_dir)
    base_decisions = plain.score_pairs(workload)

    queue_dir = Path(tempfile.mkdtemp(prefix="risk_bench_queue_"))
    try:
        queue = ReviewQueue(queue_dir / "queue")
        router = RiskRouter(band=RiskBand.from_spec(band_spec), queue=queue)
        routed = SequentialScorer.from_directory(pipeline_dir, router=router)
        with span("serve.risk_pass", num_pairs=num_pairs) as sp:
            response = routed.score_request(
                ScoreRequest(pairs=tuple(workload)))
        assert response.decisions == base_decisions, \
            "routed decisions deviate bit-wise from the unrouted run"
        assert response.routing is not None \
            and len(response.routing) == len(workload)

        stats = router.stats()
        queued = stats["queue"]["pending"]
        drain_start = _time.perf_counter()
        drained = queue.pending()
        queue.ack(drained[-1].seq if drained else -1)
        drain_seconds = _time.perf_counter() - drain_start
        return {
            "band": stats["band"],
            "num_pairs": num_pairs,
            "calibration": {"digest": digest, **calibrator.to_json()},
            # asserted above, recorded for readers:
            "bit_identical_to_unrouted": True,
            "counts": stats["counts"],
            "review_rate": stats["review_rate"],
            "routed_pairs_per_second": (
                num_pairs / sp.duration if sp.duration else 0.0),
            "queue": {
                "appended": queued,
                "append_items_per_second": (
                    queued / sp.duration if sp.duration else 0.0),
                "drained": len(drained),
                "drain_items_per_second": (
                    len(drained) / drain_seconds if drain_seconds else 0.0),
                "corrupt_segments": stats["queue"]["corrupt_segments"],
            },
        }
    finally:
        shutil.rmtree(queue_dir, ignore_errors=True)


def run_serve_bench(num_pairs: int = 10000, num_workers: int = 4,
                    pipeline_dir: Optional[Union[str, Path]] = None,
                    output: Union[str, Path] = "BENCH_serve.json",
                    batch_size: int = 64, seed: int = 0,
                    lm_kwargs: Optional[dict] = None,
                    cache: bool = True,
                    cache_dir: Optional[Union[str, Path]] = None,
                    daemon: bool = False, num_clients: int = 8,
                    requests_per_client: int = 6,
                    pairs_per_request: int = 8,
                    risk: bool = False, risk_band: str = "0.25:0.75",
                    telemetry: bool = False,
                    trace_dir: Union[str, Path] = DEFAULT_TRACE_DIR) -> Dict:
    """Run the three-engine race and write ``BENCH_serve.json``.

    Returns the report dict (also persisted atomically to ``output``).
    Raises ``AssertionError`` if the engines' decisions deviate from each
    other or from the sequential reference — a wrong fast path must never
    report a number.

    With ``cache=True`` (the default) an extra set of passes races the
    content-addressed :class:`ScoreCache` on a duplicate-heavy workload —
    uncached vs cold-cached vs warm-cached, sequential and parallel — and
    records hit rates and warm-vs-cold speedup under the report's
    ``"cache"`` key.  ``cache_dir`` additionally exercises the persistent
    tier: the directory is emptied, the cold pass flushed to it, and the
    warm pass re-opens the shard from a fresh cache instance.  All cached
    decision lists are asserted bit-identical to the uncached run before
    any number is reported.

    With ``daemon=True`` a final pass starts a live ``repro serve`` daemon
    and drives it with ``num_clients`` concurrent TCP clients, hot-swapping
    the snapshot mid-run; request-latency percentiles, merge efficiency,
    and the zero-downtime swap record land under the report's ``"daemon"``
    key.  Every daemon response is asserted bit-identical to a sequential
    engine on the snapshot that served it.

    With ``risk=True`` a final pass calibrates the bench snapshot against
    attribute-equality labels, routes the workload through a
    :class:`~repro.risk.RiskRouter` backed by a durable review queue, and
    records routing rates, calibration ECE, and queue throughput under the
    report's ``"risk"`` key — after asserting the routed decisions are
    bit-identical to the unrouted run.  ``risk_band`` sets the review band
    as ``"LOW:HIGH"``.

    With ``telemetry=True`` the race runs inside a
    :class:`repro.telemetry.TelemetrySession`: every engine's spans are
    exported to ``<trace_dir>/serve_bench_<pairs>x<workers>.trace.jsonl``
    and the report gains a ``"telemetry"`` section embedding the registry
    snapshot (serve counters and histograms) and the trace path.
    """
    if num_pairs <= 0:
        raise ValueError("num_pairs must be positive")
    pipeline_dir = Path(pipeline_dir or Path(".cache") / "serve_bench_pipeline")
    build_bench_pipeline(pipeline_dir, seed=seed, lm_kwargs=lm_kwargs)
    pipeline = ERPipeline.load(pipeline_dir)
    pairs = synthetic_candidates(num_pairs, seed=seed)

    session = (TelemetrySession(f"serve_bench_{num_pairs}x{num_workers}",
                                trace_dir=trace_dir)
               if telemetry else None)
    if session is not None:
        session.__enter__()
    try:
        # 1. legacy sequential reference (ERPipeline.__call__)
        reference_metrics = _reference_metrics(pipeline, pairs, batch_size)
        reference = pipeline(pairs, batch_size=batch_size)

        # 2. batched sequential engine
        sequential = SequentialScorer(pipeline)
        sequential_decisions = sequential.score_pairs(pairs)

        # 3. parallel engine, same scheduler configuration
        with ParallelScorer(pipeline_dir, num_workers=num_workers) as scorer:
            parallel_decisions = scorer.score_pairs(pairs)
            parallel_metrics = scorer.last_metrics

        # Same scheduling policy => bit-identical, no tolerance.
        assert parallel_decisions == sequential_decisions, \
            "parallel engine deviates bit-wise from the sequential engine"
        # Different batching policy => within 1 ulp of the legacy reference.
        max_diff = max((abs(a.probability - b.probability)
                        for a, b in zip(sequential_decisions, reference)),
                       default=0.0)
        assert max_diff <= 1e-9, \
            f"bucketed policy drifts {max_diff} from the reference"
        assert [d.is_match for d in sequential_decisions] == \
            [d.is_match for d in reference], \
            "bucketed policy flips a match decision against the reference"

        metrics = [reference_metrics, sequential.last_metrics,
                   parallel_metrics]

        # 4. optional cache passes over duplicate-heavy traffic (uncached vs
        #    cold vs warm, sequential and parallel) — see _run_cache_passes.
        cache_record = None
        if cache:
            cache_record = _run_cache_passes(pipeline, pipeline_dir,
                                             num_pairs, num_workers, seed,
                                             cache_dir)

        # 5. optional daemon pass: N concurrent TCP clients against a live
        #    daemon, with a mid-run hot swap — see _run_daemon_bench.
        daemon_record = None
        if daemon:
            daemon_record = _run_daemon_bench(
                pipeline, pipeline_dir, num_clients=num_clients,
                requests_per_client=requests_per_client,
                pairs_per_request=pairs_per_request, seed=seed,
                lm_kwargs=lm_kwargs)

        # 6. optional risk pass: calibrate the snapshot, route the workload
        #    through a RiskRouter + durable review queue, record routing
        #    rates and queue throughput — see _run_risk_pass.  Runs last
        #    because calibration changes the snapshot's manifest digest.
        risk_record = None
        if risk:
            risk_record = _run_risk_pass(pipeline_dir, num_pairs, seed,
                                         risk_band)
    finally:
        if session is not None:
            session.__exit__(None, None, None)

    engines = {m.engine: m.to_dict() for m in metrics}
    baseline_pps = engines["sequential-reference"]["pairs_per_second"]
    for record in engines.values():
        record["speedup_vs_reference"] = (
            record["pairs_per_second"] / baseline_pps if baseline_pps else 0.0)

    report = {
        "benchmark": "serve",
        "num_pairs": num_pairs,
        "batch_size": batch_size,
        "num_workers": num_workers,
        "seed": seed,
        "platform": {"python": platform.python_version(),
                     "machine": platform.machine(),
                     "numpy": np.__version__},
        # asserted above, recorded for readers:
        "parallel_bit_identical_to_sequential": True,
        "max_abs_diff_vs_reference": max_diff,
        "engines": engines,
    }
    if cache_record is not None:
        report["cache"] = cache_record
    if daemon_record is not None:
        report["daemon"] = daemon_record
    if risk_record is not None:
        report["risk"] = risk_record
    if session is not None:
        trace_path = session.export()
        report["telemetry"] = {"trace": str(trace_path),
                               "metrics": REGISTRY.snapshot()}
    atomic_write(Path(output),
                 lambda tmp: tmp.write_text(json.dumps(report, indent=2)))
    return report


def format_report(report: Dict) -> str:
    """Human-readable summary of a :func:`run_serve_bench` report."""
    lines = [f"serve-bench: {report['num_pairs']} pairs, "
             f"{report['num_workers']} workers"]
    for name, record in report["engines"].items():
        lines.append(
            f"  {name:22s} {record['pairs_per_second']:9.0f} pairs/s  "
            f"p50 {record['p50_batch_seconds'] * 1e3:6.1f} ms  "
            f"p95 {record['p95_batch_seconds'] * 1e3:6.1f} ms  "
            f"util {record['worker_utilization'] * 100:5.1f}%  "
            f"speedup {record['speedup_vs_reference']:.2f}x")
    cached = report.get("cache")
    if cached:
        tier = (f"persistent ({cached['persistent_dir']})"
                if cached["persistent_dir"] else "in-memory")
        lines.append(
            f"  score cache ({tier}, {cached['duplicate_fraction'] * 100:.0f}% "
            f"duplicates): decisions bit-identical, "
            f"warm hit rate {cached['warm_hit_rate'] * 100:.1f}%, "
            f"warm {cached['warm']['pairs_per_second']:.0f} pairs/s "
            f"({cached['warm_speedup_vs_cold']:.2f}x vs cold, "
            f"{cached['warm_speedup_vs_uncached']:.2f}x vs uncached)")
    served = report.get("daemon")
    if served:
        swap = served["hot_swap"]
        lines.append(
            f"  daemon ({served['num_clients']} clients x "
            f"{served['requests_per_client']} reqs): decisions "
            f"bit-identical, p50 {served['latency']['p50_seconds'] * 1e3:.1f} "
            f"ms  p95 {served['latency']['p95_seconds'] * 1e3:.1f} ms  "
            f"{served['merge']['requests_per_flush']:.1f} reqs/flush "
            f"(merge {served['merge']['merge_efficiency'] * 100:.0f}%), "
            f"hot swap {swap['served_old']}->{swap['served_new']} requests "
            f"with {served['failed_requests']} failures")
    risk = report.get("risk")
    if risk:
        cal = risk["calibration"]
        lines.append(
            f"  risk routing (band {risk['band'][0]:.2f}:{risk['band'][1]:.2f}"
            f"): decisions bit-identical, review rate "
            f"{risk['review_rate'] * 100:.1f}%, ECE "
            f"{cal['ece_before']:.4f} -> {cal['ece_after']:.4f}, queue "
            f"append {risk['queue']['append_items_per_second']:.0f}/s drain "
            f"{risk['queue']['drain_items_per_second']:.0f}/s")
    return "\n".join(lines)
