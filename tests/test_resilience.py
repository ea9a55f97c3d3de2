"""Unit tests for the repro.resilience layer (tier 1).

The chaos tier (``pytest -m chaos``, ``tests/test_failure_injection.py``)
proves the training recovery paths end-to-end; these tests pin the pure
machinery: backoff schedules, event arithmetic, chaos-plan predicates,
guard-rail rollback semantics, and the thread engine's failure and
lifecycle edge cases.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.data import Entity, EntityPair
from repro.matcher import MlpMatcher
from repro.resilience import (BackoffPolicy, ChaosConfig, Events, Fault,
                              GuardRail, TrainingDiverged)
from repro.serve import ParallelScorer, SequentialScorer


class TestBackoffPolicy:
    def test_schedule_is_deterministic(self):
        a = BackoffPolicy(seed=7).preview(6)
        b = BackoffPolicy(seed=7).preview(6)
        assert a == b

    def test_grows_then_caps(self):
        policy = BackoffPolicy(base=0.1, factor=2.0, cap=0.5, jitter=0.0)
        assert policy.preview(5) == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_stays_bounded(self):
        policy = BackoffPolicy(base=0.1, factor=2.0, cap=0.5, jitter=0.25)
        for delay in policy.preview(20):
            assert delay <= 0.5 * 1.25 + 1e-12

    def test_instant_never_sleeps(self):
        policy = BackoffPolicy.instant()
        assert policy.preview(10) == [0.0] * 10
        assert policy.sleep(3) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base=-1)
        with pytest.raises(ValueError):
            BackoffPolicy(factor=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            BackoffPolicy().delay(-1)


class TestEvents:
    def test_delta_and_sum(self):
        before = Events(rollbacks=2)
        after = Events(rollbacks=5, lr_halvings=3)
        delta = after - before
        assert delta.rollbacks == 3 and delta.lr_halvings == 3
        assert (before + delta).to_dict() == after.to_dict()

    def test_bool_is_any_recovery(self):
        assert not Events()
        assert Events(rollbacks=1)

    def test_copy_is_independent(self):
        a = Events(rollbacks=1)
        b = a.copy()
        b.rollbacks += 1
        assert a.rollbacks == 1

    def test_merge_accumulates_in_place(self):
        a = Events(rollbacks=1)
        a.merge(Events(rollbacks=2, lr_halvings=1))
        assert a.rollbacks == 3 and a.lr_halvings == 1


class TestChaosConfig:
    def test_times_gates_retries_deterministically(self):
        plan = ChaosConfig((Fault("promote_crash", step=2, times=1),))
        assert plan.risk_fault_at("promote_crash", 2, occurrence=0)
        # The restarted worker (occurrence 1) escapes the fault.
        assert not plan.risk_fault_at("promote_crash", 2, occurrence=1)
        assert not plan.risk_fault_at("promote_crash", 1, occurrence=0)
        assert not plan.risk_fault_at("corrupt_segment", 2, occurrence=0)

    def test_poison_fault_never_expires(self):
        plan = ChaosConfig((Fault("corrupt_segment", times=None),))
        for occurrence in range(10):
            assert plan.risk_fault_at("corrupt_segment", occurrence % 3,
                                      occurrence)

    def test_fault_validation(self):
        with pytest.raises(ValueError):
            Fault("meteor")
        with pytest.raises(ValueError):
            Fault("promote_crash", times=0)


def _stub_optimizer(lr=1e-3):
    class _Opt:
        def __init__(self):
            self.lr = lr
    return _Opt()


class TestGuardRail:
    def test_healthy_steps_pass_through(self):
        matcher = MlpMatcher(4, np.random.default_rng(0))
        with GuardRail({"matcher": matcher}, [_stub_optimizer()]) as guard:
            for step in range(5):
                assert guard.observe(1.0 - 0.01 * step, epoch=0, step=step)
            assert guard.recoveries == 0
            assert guard.events.total() == 0

    def test_nan_loss_rolls_back_and_halves_lr(self):
        matcher = MlpMatcher(4, np.random.default_rng(0))
        optimizer = _stub_optimizer(lr=0.01)
        guard = GuardRail({"matcher": matcher}, [optimizer])
        snapshot = [p.data.copy() for p in matcher.parameters()]
        # Corrupt the live weights, then observe a NaN: the guard must
        # restore the snapshot, not keep the corruption.
        for param in matcher.parameters():
            param.data += 17.0
        assert guard.observe(float("nan"), epoch=0, step=0) is False
        for param, good in zip(matcher.parameters(), snapshot):
            np.testing.assert_array_equal(param.data, good)
        assert optimizer.lr == pytest.approx(0.005)
        assert guard.events.rollbacks == 1
        assert guard.events.lr_halvings == 1
        guard.close()

    def test_non_finite_gradient_is_rejected(self):
        matcher = MlpMatcher(4, np.random.default_rng(0))
        guard = GuardRail({"matcher": matcher}, [_stub_optimizer()])
        params = matcher.parameters()
        params[0].grad = np.full_like(params[0].data, np.inf)
        assert guard.observe(0.5, epoch=0, step=0, params=params) is False
        assert guard.incidents[0]["reason"] == "non-finite gradient"
        guard.close()

    def test_divergence_bound_trips_after_warmup(self):
        matcher = MlpMatcher(4, np.random.default_rng(0))
        guard = GuardRail({"matcher": matcher}, [_stub_optimizer()],
                          patience=5.0, warmup_steps=3)
        for step in range(4):
            assert guard.observe(1.0, epoch=0, step=step)
        assert guard.observe(100.0, epoch=0, step=4) is False
        assert "diverged loss" in guard.incidents[0]["reason"]
        guard.close()

    def test_converged_run_survives_an_ordinary_spike(self):
        # A converging loss trace: the EMA settles at 0.0065, then one
        # ordinary minibatch scores 0.20.  That is over 25 x EMA but far
        # under the EMA the bound armed at: convergence, not divergence.
        matcher = MlpMatcher(4, np.random.default_rng(0))
        trace = [max(0.69 * 0.9 ** step, 0.0065) for step in range(120)]
        with GuardRail({"matcher": matcher}, [_stub_optimizer()]) as guard:
            for step, loss in enumerate(trace):
                assert guard.observe(loss, epoch=step // 40, step=step)
            assert guard.observe(0.20, epoch=3, step=120)
            assert guard.recoveries == 0
            # A blow-up past the armed floor still trips.
            assert guard.observe(50.0, epoch=3, step=121) is False
            assert "diverged loss" in guard.incidents[0]["reason"]

    def test_floor_survives_rollback(self):
        # After a rollback the relative bound re-arms on the converged
        # EMA, but the floor measured at the first arming stays.
        matcher = MlpMatcher(4, np.random.default_rng(0))
        with GuardRail({"matcher": matcher}, [_stub_optimizer()]) as guard:
            for step in range(12):
                assert guard.observe(0.69, epoch=0, step=step)
            assert guard.observe(float("nan"), epoch=0, step=12) is False
            for step in range(13, 40):
                assert guard.observe(0.0065, epoch=1, step=step)
            assert guard.observe(0.20, epoch=1, step=40)
            assert guard.recoveries == 1

    def test_bounded_recoveries_raise_with_history(self):
        matcher = MlpMatcher(4, np.random.default_rng(0))
        guard = GuardRail({"matcher": matcher}, [_stub_optimizer()],
                          max_recoveries=2, method="unit")
        with pytest.raises(TrainingDiverged) as exc_info:
            for step in range(10):
                guard.observe(float("inf"), epoch=1, step=step)
        diverged = exc_info.value
        assert diverged.method == "unit"
        assert diverged.recoveries == 2
        assert len(diverged.incidents) == 3  # two recovered + the fatal one
        assert diverged.epoch == 1
        guard.close()

    def test_chaos_nan_injection_targets_global_step(self):
        matcher = MlpMatcher(4, np.random.default_rng(0))
        guard = GuardRail({"matcher": matcher}, [_stub_optimizer()],
                          chaos=ChaosConfig((Fault("nan_loss", step=2),)))
        assert guard.observe(1.0, epoch=0, step=0)
        assert guard.observe(1.0, epoch=0, step=1)
        assert guard.observe(1.0, epoch=0, step=2) is False  # injected
        assert guard.observe(1.0, epoch=0, step=3)
        guard.close()

    def test_validation(self):
        matcher = MlpMatcher(4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            GuardRail({}, [])
        with pytest.raises(ValueError):
            GuardRail({"m": matcher}, [], max_recoveries=-1)
        with pytest.raises(ValueError):
            GuardRail({"m": matcher}, [], patience=1.0)
        with pytest.raises(ValueError):
            GuardRail({"m": matcher}, [], ema_decay=1.5)


def _ragged_pairs(count, seed=0):
    """Pairs whose serialized lengths span several scheduler buckets."""
    rng = np.random.default_rng(seed)
    words = ["mesa", "rook", "tide", "volt", "wick", "yarn", "zinc",
             "opal", "pine", "quay"]
    return [EntityPair(
        Entity(f"l{i}", {"name": " ".join(rng.choice(words,
                                                     rng.integers(1, 12)))}),
        Entity(f"r{i}", {"name": " ".join(rng.choice(words,
                                                     rng.integers(1, 12)))}))
        for i in range(count)]


def _new_score_threads(before):
    """Live scorer worker threads that did not exist in ``before``."""
    return [thread for thread in set(threading.enumerate()) - before
            if thread.name.startswith("repro-score")]


class TestScorerEdgeCases:
    @pytest.fixture()
    def snapshot_dir(self, tmp_path, tiny_lm):
        from repro.matcher import MlpMatcher
        from repro.pipeline import ERPipeline
        from repro.pretrain import fresh_copy
        extractor = fresh_copy(tiny_lm[0], seed=0)
        extractor.eval()
        matcher = MlpMatcher(extractor.feature_dim, np.random.default_rng(0))
        matcher.eval()
        ERPipeline(extractor, matcher).save(tmp_path / "pipeline")
        return tmp_path / "pipeline"

    def test_empty_pairs_never_spin_up_workers(self, snapshot_dir):
        before = set(threading.enumerate())
        with ParallelScorer(snapshot_dir, num_workers=2) as scorer:
            assert scorer.score_pairs([]) == []
            assert _new_score_threads(before) == []
            assert scorer.last_metrics.num_pairs == 0

    def test_empty_blocker_output_never_spins_up_workers(self, snapshot_dir):
        before = set(threading.enumerate())
        with ParallelScorer(snapshot_dir, num_workers=2) as scorer:
            # Disjoint vocabularies: the overlap blocker emits nothing.
            left = [Entity("l0", {"name": "aardvark"})]
            right = [Entity("r0", {"name": "zyzzyva"})]
            assert list(scorer.score_tables(left, right)) == []
            assert _new_score_threads(before) == []

    def test_closed_scorer_refuses_parallel_work(self, snapshot_dir):
        scorer = ParallelScorer(snapshot_dir, num_workers=1)
        scorer.close()
        scorer.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            scorer.score_pairs(_ragged_pairs(4))

    def test_close_joins_every_worker_thread(self, snapshot_dir):
        before = set(threading.enumerate())
        scorer = ParallelScorer(snapshot_dir, num_workers=3,
                                max_batch_pairs=4)
        scorer.score_pairs(_ragged_pairs(40))
        assert _new_score_threads(before), "scoring started no thread"
        scorer.close()
        assert _new_score_threads(before) == []

    def test_poison_batch_fails_its_request_only(self, snapshot_dir,
                                                 monkeypatch, tmp_path):
        from repro.telemetry import TRACER, TelemetrySession
        pairs = _ragged_pairs(40, seed=1)
        with ParallelScorer(snapshot_dir, num_workers=2,
                            max_batch_pairs=8) as scorer:
            expected = SequentialScorer(
                scorer.pipeline, scorer.scheduler).score_pairs(pairs)
            poison = list(scorer.scheduler.schedule(pairs))[1]
            encode = scorer.pipeline.extractor.encode

            def poisoned_encode(ids, mask):
                if np.array_equal(ids, poison.ids):
                    raise FloatingPointError("poisoned batch")
                return encode(ids, mask)

            monkeypatch.setattr(scorer.pipeline.extractor, "encode",
                                poisoned_encode)
            with TelemetrySession("poison", trace_dir=tmp_path):
                with pytest.raises(RuntimeError, match="positions") as info:
                    scorer.score_pairs(pairs)
                monkeypatch.undo()
                assert scorer.score_pairs(pairs) == expected
                runs = [r for r in TRACER.records()
                        if r["name"] == "serve.run"]
            assert isinstance(info.value.__cause__, FloatingPointError)
            named = ", ".join(str(i) for i in poison.indices[:8].tolist())
            assert named in str(info.value)
            # The failed run's span closed: the next run is not its child.
            assert [r["parent"] for r in runs] == [None, None]

    def test_close_during_a_request_never_hangs(self, snapshot_dir):
        scorer = ParallelScorer(snapshot_dir, num_workers=2,
                                max_batch_pairs=4)
        pairs = _ragged_pairs(60, seed=2)
        expected = SequentialScorer(scorer.pipeline,
                                    scorer.scheduler).score_pairs(pairs)
        encode = scorer.pipeline.extractor.encode
        started = threading.Event()

        def slow_encode(ids, mask):
            started.set()
            time.sleep(0.005)
            return encode(ids, mask)

        scorer.pipeline.extractor.encode = slow_encode
        outcome = {}

        def request():
            try:
                outcome["decisions"] = scorer.score_pairs(pairs)
            except RuntimeError as error:
                outcome["error"] = error

        thread = threading.Thread(target=request)
        thread.start()
        assert started.wait(timeout=60)
        scorer.close()
        thread.join(timeout=60)
        assert not thread.is_alive(), "request hung across close()"
        if "error" in outcome:
            assert "closed" in str(outcome["error"])
        else:
            assert outcome["decisions"] == expected

    def test_thread_stress_stays_bit_identical(self, snapshot_dir):
        """More threads than cores and a tiny switch interval: a lost
        update anywhere in the state the threads share (the pipeline, the
        grad-mode and span context variables) moves a bit."""
        pairs = _ragged_pairs(80, seed=3)
        outcome = {}

        def race():
            with ParallelScorer(snapshot_dir, num_workers=4,
                                max_batch_pairs=4) as scorer:
                expected = SequentialScorer(
                    scorer.pipeline, scorer.scheduler).score_pairs(pairs)
                outcome["decisions"] = (scorer.score_pairs(pairs), expected)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread = threading.Thread(target=race)
            thread.start()
            thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive(), "thread stress run did not finish"
        got, expected = outcome["decisions"]
        assert got == expected
