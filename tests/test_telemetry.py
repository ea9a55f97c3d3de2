"""Tier-1 tests for repro.telemetry: spans, profiler, export, summary.

The two load-bearing guarantees:

* **Observation never changes the observed.**  With the autograd profiler
  and span tracing enabled, training numerics are bit-identical to a
  telemetry-off run — down to the serialized weight bytes.
* **Off means free.**  Uninstalling the profiler restores the original
  ``Tensor`` methods object-for-object, so the fast path has no flag
  checks, no wrappers, no cost.
"""

import io
import json
import re

import numpy as np
import pytest

from repro.nn.tensor import PROFILED_OPS, Tensor
from repro.resilience import Events
from repro.telemetry import (AutogradProfiler, TelemetrySession, Tracer,
                             format_trace, load_trace, span_tree_depth,
                             summarize)
from repro.telemetry.report import MAX_SIBLINGS
from repro.train import TrainConfig, train_source_only

from .conftest import TINY_LM

TINY_TRAIN = TrainConfig(epochs=2, batch_size=8, learning_rate=1e-3,
                         iterations_per_epoch=2, seed=0)


class TestTracer:
    def test_disabled_span_still_times_but_leaves_no_record(self):
        tracer = Tracer()
        with tracer.span("quiet") as sp:
            pass
        assert sp.duration >= 0.0
        assert sp.end_s is not None
        assert tracer.records() == []

    def test_nesting_links_parent_ids(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("root"):
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    pass
            tracer.event("ping", detail=1)
        tracer.disable()
        records = {r["name"]: r for r in tracer.records()}
        assert records["grandchild"]["parent"] == records["child"]["id"]
        assert records["child"]["parent"] == records["root"]["id"]
        assert records["root"]["parent"] is None
        # the event fired while only "root" was open
        assert records["ping"]["parent"] == records["root"]["id"]
        assert span_tree_depth(tracer.records()) == 3

    def test_span_nesting_is_per_asyncio_task(self):
        """Regression: interleaved tasks must not corrupt each other's stacks.

        The span stack used to live in ``threading.local``, which every
        asyncio task on the loop thread *shares* — task B's spans parented
        under whatever span task A happened to have open at the await
        point.  With contextvars each task gets its own stack.
        """
        import asyncio

        tracer = Tracer()
        tracer.enable()

        async def worker(name):
            with tracer.span(f"{name}.outer"):
                await asyncio.sleep(0)  # yield so the tasks interleave
                with tracer.span(f"{name}.inner"):
                    await asyncio.sleep(0)
                await asyncio.sleep(0)
                tracer.event(f"{name}.tick")

        async def main():
            await asyncio.gather(worker("a"), worker("b"))

        asyncio.run(asyncio.wait_for(main(), timeout=30))
        tracer.disable()
        records = {r["name"]: r for r in tracer.records()}
        for name in ("a", "b"):
            outer, inner = records[f"{name}.outer"], records[f"{name}.inner"]
            assert inner["parent"] == outer["id"]  # never the *other* task
            assert outer["parent"] is None
            assert records[f"{name}.tick"]["parent"] == outer["id"]

    def test_span_nesting_stays_per_thread(self):
        """Threaded callers keep isolated stacks (contextvars are per-thread
        too) — the asyncio fix must not regress the worker-pool tracing."""
        import threading

        tracer = Tracer()
        tracer.enable()
        barrier = threading.Barrier(2)

        def worker(name):
            with tracer.span(f"{name}.outer"):
                barrier.wait()  # both outers open before either inner
                with tracer.span(f"{name}.inner"):
                    pass

        threads = [threading.Thread(target=worker, args=(name,))
                   for name in ("t1", "t2")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        tracer.disable()
        records = {r["name"]: r for r in tracer.records()}
        for name in ("t1", "t2"):
            assert (records[f"{name}.inner"]["parent"]
                    == records[f"{name}.outer"]["id"])
            assert records[f"{name}.outer"]["parent"] is None

    def test_export_writes_jsonl_with_header(self, tmp_path):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("only", k="v"):
            pass
        tracer.disable()
        path = tracer.export("runx", trace_dir=tmp_path / "traces")
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["type"] == "header"
        assert lines[0]["run"] == "runx"
        assert lines[1]["name"] == "only"
        assert lines[1]["attrs"] == {"k": "v"}


def _train_once():
    """One tiny deterministic training run; returns (result, weight bytes)."""
    from repro.data import target_da_split
    from repro.datasets import load_dataset
    from repro.matcher import MlpMatcher
    from repro.pretrain import fresh_copy, pretrained_lm
    extractor, __ = pretrained_lm(**TINY_LM)
    extractor = fresh_copy(extractor, seed=0)
    matcher = MlpMatcher(extractor.feature_dim, np.random.default_rng(0))
    source = load_dataset("fz", scale=0.1, seed=0)
    valid, test = target_da_split(load_dataset("b2", scale=0.1, seed=0),
                                  np.random.default_rng(1))
    result = train_source_only(extractor, matcher, source, valid, test,
                               TINY_TRAIN)
    buffer = io.BytesIO()
    state = {**{f"e.{k}": v for k, v in
                result.extractor.state_dict().items()},
             **{f"m.{k}": v for k, v in result.matcher.state_dict().items()}}
    np.savez(buffer, **state)
    return result, buffer.getvalue()


class TestProfilerDoesNotPerturb:
    def test_training_is_bit_identical_with_telemetry_on(self, tmp_path):
        baseline, baseline_bytes = _train_once()
        with TelemetrySession("bitcheck", trace_dir=tmp_path / "traces",
                              profile=True) as session:
            traced, traced_bytes = _train_once()
        path = session.export()
        # identical numerics, epoch by epoch...
        assert [r.matching_loss for r in traced.history] == \
            [r.matching_loss for r in baseline.history]
        assert [r.valid_f1 for r in traced.history] == \
            [r.valid_f1 for r in baseline.history]
        assert traced.test_metrics.f1 == baseline.test_metrics.f1
        # ...down to the serialized weight bytes
        assert traced_bytes == baseline_bytes
        # and the run actually was observed: ops recorded, >=3 span levels
        trace = load_trace(path)
        assert {o["op"] for o in trace["ops"]} >= {"matmul", "add"}
        assert span_tree_depth(trace["spans"]) >= 3

    def test_uninstall_restores_identical_methods(self):
        originals = {m: Tensor.__dict__[m] for m in PROFILED_OPS}
        profiler = AutogradProfiler()
        with profiler:
            assert Tensor.__dict__["__matmul__"] is not originals["__matmul__"]
            a = Tensor(np.ones((2, 2)), requires_grad=True)
            (a @ a).sum().backward()
            stats = profiler.stats()
            assert stats["matmul"].calls == 1
            assert stats["matmul"].backward_calls == 1
            assert stats["matmul"].bytes_produced == 32  # 2x2 float64
        for method, original in originals.items():
            assert Tensor.__dict__[method] is original, method

    def test_install_is_idempotent(self):
        profiler = AutogradProfiler()
        profiler.install()
        try:
            wrapped = Tensor.__dict__["__matmul__"]
            profiler.install()  # second install must not double-wrap
            assert Tensor.__dict__["__matmul__"] is wrapped
        finally:
            profiler.uninstall()
        profiler.uninstall()  # idempotent too


class TestEventsRegistryMirror:
    def test_bad_field_raises(self):
        with pytest.raises(AttributeError):
            Events().bump("not_a_counter")


def _span(span_id, parent, name, start, duration):
    return {"type": "span", "id": span_id, "parent": parent, "name": name,
            "start": start, "duration": duration, "attrs": {}}


class TestTelemetrySessionAndSummary:
    def test_export_embeds_metrics_and_renders(self, tmp_path, capsys):
        with TelemetrySession("sess", trace_dir=tmp_path / "traces") as s:
            from repro import telemetry
            with telemetry.span("outer"):
                with telemetry.span("middle"):
                    with telemetry.span("inner", step=0):
                        pass
        path = s.export()
        text = summarize(path)
        assert "outer" in text and "middle" in text and "inner" in text
        totals = text[text.index("totals per name"):].splitlines()
        assert sorted(line.split()[0] for line in totals[2:]) == [
            "inner", "middle", "outer"]
        assert all(line.split()[1] == "1" for line in totals[2:])

        from repro.cli import main
        assert main(["trace-summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "trace sess" in out

    def test_sessions_export_only_their_own_run(self, tmp_path):
        """Counted work in session A leaves no trace in session B's file."""
        from repro import telemetry
        from repro.serve import ScoreCache
        with TelemetrySession("a", trace_dir=tmp_path) as first:
            Events().bump("rollbacks")
            assert ScoreCache(capacity=4).get("digest", "key") is None
        first.export()
        with TelemetrySession("b", trace_dir=tmp_path) as second:
            with telemetry.span("only"):
                pass
        records = [json.loads(line)
                   for line in second.export().read_text().splitlines()]
        assert [r["type"] for r in records] == ["header", "span"]
        assert records[1]["name"] == "only"

    def test_totals_count_every_span_past_the_collapse(self):
        """The tree folds siblings past MAX_SIBLINGS; the per-name totals
        still count and sum every span of a name across all roots."""
        durations = [0.001 * (i + 1) for i in range(20)] + [0.25] * 3
        spans = [_span("r1", None, "root", 0.0, 1.0),
                 _span("r2", None, "root", 2.0, 1.0)]
        for i, duration in enumerate(durations):
            spans.append(_span(f"c{i}", "r1" if i < 20 else "r2", "child",
                               float(i), duration))
        spans.append({"type": "event", "id": "e", "parent": "r2",
                      "name": "ping", "start": 2.5, "attrs": {}})
        text = format_trace({"header": {"run": "t"}, "spans": spans})
        assert f"{20 - MAX_SIBLINGS + 1} more child spans" in text
        total_ms = f"{sum(durations) * 1e3:.1f}"
        assert re.search(rf"^  child +23 +{re.escape(total_ms)}$", text,
                         re.M), text
        assert re.search(r"^  root +2 +2000\.0$", text, re.M), text
        assert re.search(r"^  · ping +1$", text, re.M), text
        totals = text[text.index("totals per name"):].splitlines()
        assert [line.split()[0] for line in totals[2:]] == [
            "root", "child", "·"]

    def test_trace_summary_missing_run_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["trace-summary", "nope",
                     "--trace-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "no trace found" in err
        # the hint names only commands that write traces today
        assert re.findall(r"`([^`]+)`", err) == [
            "adapt --telemetry", "python -m perf run --trace"]

    def test_session_disables_tracer_on_exit(self, tmp_path):
        from repro.telemetry import TRACER
        with TelemetrySession("onoff", trace_dir=tmp_path):
            assert TRACER.enabled
        assert not TRACER.enabled


class TestParallelScoringTelemetry:
    """A traced parallel scoring run: its ``serve.run`` span counts the
    pairs, and batches scored on worker threads nest under that run."""

    def test_run_span_counts_pairs_and_nests_batches(self, tmp_path,
                                                     tiny_lm):
        from repro.serve import (ParallelScorer, build_bench_pipeline,
                                 synthetic_candidates)
        directory = build_bench_pipeline(tmp_path / "pipe", lm_kwargs=TINY_LM)
        with TelemetrySession("serve_parallel",
                              trace_dir=tmp_path / "traces") as session:
            with ParallelScorer(directory, num_workers=2,
                                max_batch_pairs=32) as scorer:
                scorer.score_pairs(synthetic_candidates(160))
        trace = load_trace(session.export())
        runs = [s for s in trace["spans"] if s["name"] == "serve.run"]
        assert [run["attrs"]["num_pairs"] for run in runs] == [160]
        names = {s["name"] for s in trace["spans"]}
        assert {"serve.run", "serve.batch", "serve.schedule"} <= names
        assert span_tree_depth(trace["spans"]) >= 2
        # every batch a worker thread scored nests under its request's run
        by_id = {s["id"]: s for s in trace["spans"]}
        parallel = [s for s in trace["spans"] if s["name"] == "serve.batch"
                    and s["attrs"]["engine"] == "parallel"]
        assert parallel
        for batch in parallel:
            parent = by_id[batch["parent"]]
            assert parent["name"] == "serve.run"
            assert parent["attrs"]["engine"] == "parallel"
