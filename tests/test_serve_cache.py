"""Tests for the content-addressed score cache and the request dedup pass.

The invariant under test everywhere: caching and deduplication are pure
plumbing.  A cached, deduplicated run must produce MatchDecision lists
**bit-identical** to an uncached run — across worker counts, across
persistence round-trips, and across every edge shape (overlong pairs,
empty-token pairs, 100%-duplicate requests).  The cache key pairs the
snapshot's manifest digest with a content hash of the encoded token ids,
so a republished snapshot can never serve stale probabilities.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Entity, EntityPair
from repro.pipeline import ERPipeline
from repro.serve import (BatchScheduler, ParallelScorer, ScoreCache,
                         SequentialScorer, pair_key)
from repro.text import Vocabulary


def _pairs(texts):
    return [EntityPair(Entity(f"l{i}", {"name": text}),
                       Entity(f"r{i}", {"name": text[::-1]}))
            for i, text in enumerate(texts)]


@pytest.fixture(scope="module")
def cached_pipeline(tmp_path_factory, tiny_lm):
    """A digest-carrying pipeline plus its snapshot directory."""
    from repro.matcher import MlpMatcher
    from repro.pretrain import fresh_copy
    extractor = fresh_copy(tiny_lm[0], seed=0)
    extractor.eval()
    matcher = MlpMatcher(extractor.feature_dim, np.random.default_rng(0))
    matcher.eval()
    pipeline = ERPipeline(extractor, matcher)
    directory = tmp_path_factory.mktemp("serve_cache") / "pipeline"
    pipeline.save(directory)
    return pipeline, directory


class TestPairKey:
    def test_deterministic_and_content_sensitive(self):
        assert pair_key([1, 2, 3]) == pair_key([1, 2, 3])
        assert pair_key([1, 2, 3]) != pair_key([3, 2, 1])  # order matters
        assert pair_key([1, 2]) != pair_key([1, 2, 2])     # length matters
        assert pair_key([]) == pair_key([])                # empty is valid

    def test_numpy_and_list_inputs_agree(self):
        assert pair_key(np.asarray([5, 6, 7])) == pair_key([5, 6, 7])

    def test_truncation_makes_overlong_pairs_collide_on_purpose(self, tiny_lm):
        """Keys hash the *truncated* encoding — exactly what gets scored.

        Two pairs identical up to max_len score identically by construction,
        so sharing a cache entry is correct, not a collision bug.
        """
        extractor = tiny_lm[0]
        scheduler = BatchScheduler(extractor.vocab, max_len=8)
        long_a = _pairs(["alpha " * 50])[0]
        long_b = _pairs(["alpha " * 60])[0]
        key_a, key_b = (pair_key(seq)
                        for seq in scheduler.encode([long_a, long_b]))
        assert key_a == key_b
        full = BatchScheduler(extractor.vocab, max_len=256)
        assert (pair_key(full.encode([long_a])[0])
                != pair_key(full.encode([long_b])[0]))


class TestMemoryTier:
    def test_roundtrip_and_stats(self):
        cache = ScoreCache(capacity=4)
        assert cache.get("digest", "k") is None
        cache.put("digest", "k", 0.25)
        assert cache.get("digest", "k") == 0.25
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5 and stats["entries"] == 1

    def test_lru_evicts_least_recently_used(self):
        cache = ScoreCache(capacity=2)
        cache.put("d", "a", 0.1)
        cache.put("d", "b", 0.2)
        assert cache.get("d", "a") == 0.1  # refresh "a"; "b" is now LRU
        cache.put("d", "c", 0.3)
        assert cache.stats()["evictions"] == 1
        assert cache.get("d", "b") is None
        assert cache.get("d", "a") == 0.1
        assert cache.get("d", "c") == 0.3

    def test_digests_are_isolated(self):
        cache = ScoreCache(capacity=8)
        cache.put("digest-one", "k", 0.7)
        assert cache.get("digest-two", "k") is None
        assert cache.get("digest-one", "k") == 0.7

    def test_refuses_non_finite_probabilities(self):
        cache = ScoreCache(capacity=4)
        with pytest.raises(ValueError, match="non-finite"):
            cache.put("d", "k", float("nan"))
        with pytest.raises(ValueError, match="non-finite"):
            cache.put("d", "k", float("inf"))

    def test_vector_lookup_marks_misses_with_nan(self):
        cache = ScoreCache(capacity=4)
        cache.put("d", "hit", 0.5)
        out = cache.lookup("d", ["hit", "miss"])
        assert out[0] == 0.5 and np.isnan(out[1])

    def test_put_many_validates_lengths(self):
        cache = ScoreCache(capacity=4)
        with pytest.raises(ValueError, match="length"):
            cache.put_many("d", ["a", "b"], np.asarray([0.1]))


class TestPersistentTier:
    def test_flush_then_fresh_instance_hits(self, tmp_path):
        first = ScoreCache(capacity=8, directory=tmp_path)
        first.put("digest", "k1", 0.125)
        first.put("digest", "k2", 0.875)
        assert first.flush() is not None
        second = ScoreCache(capacity=8, directory=tmp_path)
        assert second.get("digest", "k1") == 0.125
        assert second.get("digest", "k2") == 0.875
        assert second.stats()["hits"] == 2

    def test_new_snapshot_digest_never_sees_old_shard(self, tmp_path):
        cache = ScoreCache(capacity=8, directory=tmp_path)
        cache.put("digest-old", "k", 0.5)
        cache.flush()
        fresh = ScoreCache(capacity=8, directory=tmp_path)
        assert fresh.get("digest-new", "k") is None  # republished snapshot
        assert fresh.get("digest-old", "k") == 0.5

    def test_corrupt_shard_heals_cold_instead_of_crashing(self, tmp_path):
        cache = ScoreCache(capacity=8, directory=tmp_path)
        cache.put("digest", "k", 0.5)
        path = cache.flush()
        path.write_bytes(b"not an npz archive at all")
        survivor = ScoreCache(capacity=8, directory=tmp_path)
        assert survivor.get("digest", "k") is None  # cold, not poisoned
        survivor.put("digest", "k", 0.5)
        assert survivor.flush() is not None  # healed: shard rewritten
        healed = ScoreCache(capacity=8, directory=tmp_path)
        assert healed.get("digest", "k") == 0.5

    def test_dirty_evictions_survive_via_flush(self, tmp_path):
        cache = ScoreCache(capacity=1, directory=tmp_path)
        for i in range(3):  # two LRU evictions of never-flushed entries
            cache.put("digest", f"k{i}", i / 4.0)
        assert cache.stats()["evictions"] == 2
        cache.flush()
        fresh = ScoreCache(capacity=8, directory=tmp_path)
        assert [fresh.get("digest", f"k{i}") for i in range(3)] == \
            [0.0, 0.25, 0.5]


class TestEngineCaching:
    def test_live_pipeline_without_digest_is_rejected(self, tiny_lm):
        from repro.matcher import MlpMatcher
        from repro.pretrain import fresh_copy
        extractor = fresh_copy(tiny_lm[0], seed=0)
        matcher = MlpMatcher(extractor.feature_dim, np.random.default_rng(0))
        unsaved = ERPipeline(extractor, matcher)  # never saved: no digest
        with pytest.raises(ValueError, match="manifest_digest"):
            SequentialScorer(unsaved, cache=ScoreCache(capacity=8))

    def test_warm_request_is_bit_identical_and_all_hits(self, cached_pipeline):
        pipeline, __ = cached_pipeline
        pairs = _pairs([f"record number {i}" for i in range(40)])
        baseline = SequentialScorer(pipeline).score_pairs(pairs)
        scorer = SequentialScorer(pipeline, cache=ScoreCache(capacity=1024))
        cold = scorer.score_pairs(pairs)
        warm = scorer.score_pairs(pairs)
        assert cold == baseline and warm == baseline
        assert scorer.last_metrics.cache["hit_rate"] == 1.0
        assert scorer.last_metrics.cache["misses"] == 0

    @pytest.mark.parametrize("num_workers", [1, 4])
    def test_parallel_cached_bit_identical_across_workers(
            self, cached_pipeline, num_workers):
        pipeline, directory = cached_pipeline
        pairs = _pairs([f"w{i % 7} item {i % 13}" for i in range(60)])
        baseline = SequentialScorer(pipeline).score_pairs(pairs)
        cache = ScoreCache(capacity=1024)
        with ParallelScorer(directory, num_workers=num_workers,
                            cache=cache) as scorer:
            cold = scorer.score_pairs(pairs)
            warm = scorer.score_pairs(pairs)
            warm_stats = scorer.last_metrics.cache
        assert cold == baseline
        assert warm == baseline
        assert warm_stats["hit_rate"] == 1.0

    @pytest.mark.parametrize("num_workers", [0, 2],
                             ids=["sequential", "parallel-2"])
    def test_warm_run_from_persisted_shard_is_bit_identical(
            self, cached_pipeline, tmp_path, num_workers):
        """Cold run flushed to disk, warm run from a fresh cache instance:
        every warm score comes off the shard, and no decision moves."""
        pipeline, directory = cached_pipeline
        pairs = _pairs([f"w{i % 7} item {i % 13}" for i in range(60)])
        uncached = SequentialScorer(pipeline).score_pairs(pairs)

        def run(cache):
            if num_workers == 0:
                scorer = SequentialScorer(pipeline, cache=cache)
                return scorer.score_pairs(pairs), scorer.last_metrics
            with ParallelScorer(directory, num_workers=num_workers,
                                cache=cache) as scorer:
                return scorer.score_pairs(pairs), scorer.last_metrics

        cold_cache = ScoreCache(directory=tmp_path / "scores")
        cold, cold_metrics = run(cold_cache)
        assert cold == uncached
        assert cold_metrics.cache["misses"] > 0
        assert cold_metrics.num_batches > 0
        assert cold_cache.flush() is not None

        warm, warm_metrics = run(ScoreCache(directory=tmp_path / "scores"))
        assert warm == uncached
        assert warm_metrics.cache["misses"] == 0
        assert warm_metrics.cache["hits"] == len(pairs)

    def test_partial_hits_score_residual_batches_bit_identically(
            self, cached_pipeline):
        """A cache holding some of a request's pairs leaves the misses to a
        smaller residual batch; the response must still equal the uncached
        run bit for bit, whichever prefix the cache held."""
        pipeline, __ = cached_pipeline
        pairs = _pairs([f"load row {i}" for i in range(10)])
        uncached = SequentialScorer(pipeline).score_pairs(pairs)
        for held in range(1, len(pairs)):
            scorer = SequentialScorer(pipeline, cache=ScoreCache(capacity=64))
            scorer.score_pairs(pairs[:held])
            assert scorer.score_pairs(pairs) == uncached, held
            assert scorer.last_metrics.cache["misses"] < len(pairs)

    def test_parallel_admits_in_schedule_order(self, cached_pipeline):
        """Worker results are collected in schedule order, so a bounded
        cache ends up holding exactly what the sequential engine leaves."""
        pipeline, directory = cached_pipeline
        pairs = _pairs([f"evict row {i} " + "tok " * (i % 9)
                        for i in range(60)])
        scheduler = BatchScheduler(pipeline.extractor.vocab,
                                   pipeline.extractor.max_len,
                                   max_batch_pairs=4)
        keys = [pair_key(seq) for seq in scheduler.encode(pairs)]
        sequential = ScoreCache(capacity=16)
        SequentialScorer(pipeline, scheduler,
                         cache=sequential).score_pairs(pairs)
        parallel = ScoreCache(capacity=16)
        with ParallelScorer(directory, num_workers=4, cache=parallel,
                            max_batch_pairs=4) as scorer:
            scorer.score_pairs(pairs)
        digest = pipeline.manifest_digest
        assert sequential.stats()["evictions"] > 0
        assert parallel.stats() == sequential.stats()
        np.testing.assert_array_equal(parallel.lookup(digest, keys),
                                      sequential.lookup(digest, keys))

    def test_republished_snapshot_invalidates_cache(self, tmp_path, tiny_lm):
        from repro.matcher import MlpMatcher
        from repro.pretrain import fresh_copy
        extractor = fresh_copy(tiny_lm[0], seed=0)
        extractor.eval()
        matcher = MlpMatcher(extractor.feature_dim, np.random.default_rng(0))
        matcher.eval()
        pipeline = ERPipeline(extractor, matcher)
        directory = tmp_path / "snapshot"
        pipeline.save(directory)
        old_digest = pipeline.manifest_digest

        cache = ScoreCache(capacity=1024)
        pairs = _pairs([f"entry {i}" for i in range(10)])
        SequentialScorer(pipeline, cache=cache).score_pairs(pairs)
        before = cache.stats()

        pipeline.threshold = 0.25  # republish with changed config
        pipeline.save(directory)
        assert pipeline.manifest_digest != old_digest

        republished = ERPipeline.load(directory)
        scorer = SequentialScorer(republished, cache=cache)
        scorer.score_pairs(pairs)
        after = cache.stats()
        assert after["hits"] == before["hits"]          # nothing reused
        assert after["misses"] - before["misses"] == len(pairs)

    def test_fully_duplicate_request_scores_once(self, cached_pipeline):
        pipeline, __ = cached_pipeline
        pairs = _pairs(["identical text"] * 50)
        cache = ScoreCache(capacity=1024)
        scorer = SequentialScorer(pipeline, cache=cache)
        cold = scorer.score_pairs(pairs)
        assert len({d.probability for d in cold}) == 1
        assert cache.stats()["entries"] == 1  # one score for 50 positions
        warm = scorer.score_pairs(pairs)
        assert warm == cold
        assert scorer.last_metrics.cache["hits"] == 50

    def test_empty_token_pairs_are_cacheable(self, cached_pipeline):
        pipeline, __ = cached_pipeline
        empty = [EntityPair(Entity(f"l{i}", {}), Entity(f"r{i}", {}))
                 for i in range(3)]
        scorer = SequentialScorer(pipeline, cache=ScoreCache(capacity=8))
        cold = scorer.score_pairs(empty)
        warm = scorer.score_pairs(empty)
        assert warm == cold
        assert all(np.isfinite(d.probability) for d in cold)
        assert scorer.last_metrics.cache["hit_rate"] == 1.0

    def test_overlong_pairs_cached_and_bit_identical(self, cached_pipeline):
        pipeline, __ = cached_pipeline
        pairs = _pairs(["tok " * 200, "tok " * 300, "short"])
        baseline = SequentialScorer(pipeline).score_pairs(pairs)
        scorer = SequentialScorer(pipeline, cache=ScoreCache(capacity=8))
        assert scorer.score_pairs(pairs) == baseline
        assert scorer.score_pairs(pairs) == baseline

    def test_unscored_position_raises_instead_of_emitting_garbage(
            self, cached_pipeline):
        pipeline, __ = cached_pipeline

        class DroppingScheduler(BatchScheduler):
            def schedule_encoded(self, encoded, positions=None):
                batches = list(super().schedule_encoded(encoded, positions))
                yield from batches[:-1]  # silently lose the last batch

        scheduler = DroppingScheduler(pipeline.extractor.vocab,
                                      pipeline.extractor.max_len,
                                      max_batch_pairs=4)
        scorer = SequentialScorer(pipeline, scheduler)
        with pytest.raises(RuntimeError, match="unscored"):
            scorer.score_pairs(_pairs([f"row {i}" for i in range(12)]))


class TestConcurrentSafety:
    """The daemon hits one shared ScoreCache from many threads at once.

    Before the lock these hammers corrupted the LRU OrderedDict mid-
    iteration (move_to_end/popitem racing get) and lost eviction spills;
    now every interleaving must keep the capacity invariant and the
    counters coherent.
    """

    def test_hammer_many_threads_no_corruption(self):
        cache = ScoreCache(capacity=64)
        num_threads = 8
        barrier = threading.Barrier(num_threads)
        errors = []

        def worker(seed):
            try:
                barrier.wait()
                rng = np.random.default_rng(seed)
                for step in range(400):
                    digest = f"d{int(rng.integers(0, 3))}"
                    key = f"k{int(rng.integers(0, 200))}"
                    if rng.random() < 0.5:
                        cache.put(digest, key, float(rng.random()))
                    else:
                        value = cache.get(digest, key)
                        assert value is None or 0.0 <= value <= 1.0
                    if step % 97 == 0:
                        cache.lookup(digest, [f"k{j}" for j in range(5)])
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(cache) <= 64  # LRU invariant survived every interleaving
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] > 0
        assert stats["entries"] == len(cache)

    def test_hammer_with_concurrent_flush_keeps_values_exact(self, tmp_path):
        """Writers + a flushing thread: persisted values stay bit-exact."""
        cache = ScoreCache(capacity=8, directory=tmp_path)
        stop = threading.Event()
        errors = []

        def value_of(index):
            return (index % 64) / 64.0

        def writer(offset):
            try:
                for i in range(offset, offset + 150):
                    cache.put("digest", f"k{i}", value_of(i))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def flusher():
            try:
                while not stop.is_set():
                    cache.flush()
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        flush_thread = threading.Thread(target=flusher)
        write_threads = [threading.Thread(target=writer, args=(offset,))
                         for offset in (0, 150, 300)]
        flush_thread.start()
        for thread in write_threads:
            thread.start()
        for thread in write_threads:
            thread.join()
        stop.set()
        flush_thread.join()
        cache.flush()
        assert errors == []
        reloaded = ScoreCache(capacity=8, directory=tmp_path)
        seen = 0
        for i in range(450):
            value = reloaded.get("digest", f"k{i}")
            if value is not None:  # never torn, never wrong
                assert value == value_of(i)
                seen += 1
        assert seen == 450  # every dirty write survived via spill or flush


class TestOverlappingRuns:
    """Regression: per-run cache stats must not cross-count concurrent runs.

    The old implementation diffed the globally shared cache counters
    around each run, so overlapping run B's hits landed inside run A's
    delta.  Stats are now accumulated on each run's own meter: for N
    unique pairs, hits + misses == N for *every* run, whatever the
    interleaving.
    """

    def test_two_overlapping_runs_report_per_run_stats(self, cached_pipeline):
        pipeline, __ = cached_pipeline
        pairs = _pairs([f"overlap row {i}" for i in range(30)])
        baseline = SequentialScorer(pipeline).score_pairs(pairs)
        cache = ScoreCache(capacity=1024)
        barrier = threading.Barrier(2)
        results = {}

        def run(name):
            scorer = SequentialScorer(pipeline, cache=cache)
            barrier.wait()
            decisions = scorer.score_pairs(pairs)
            results[name] = (decisions, scorer.last_metrics)

        threads = [threading.Thread(target=run, args=(name,))
                   for name in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for name in ("a", "b"):
            decisions, metrics = results[name]
            assert decisions == baseline
            stats = metrics.cache
            # The per-run books balance exactly; under the global-diff bug
            # the concurrent run's hits inflated this sum past len(pairs).
            assert stats["hits"] + stats["misses"] == len(pairs)
            assert 0.0 <= stats["hit_rate"] <= 1.0
        # And a warm follow-up run attributes every hit to itself.
        warm = SequentialScorer(pipeline, cache=cache)
        assert warm.score_pairs(pairs) == baseline
        assert warm.last_metrics.cache["hits"] == len(pairs)
        assert warm.last_metrics.cache["misses"] == 0


def _content_scores(batch):
    """A deterministic stand-in scorer: probability from row content only."""
    lengths = batch.mask.sum(axis=1).astype(int)
    return np.asarray([_content_score(batch.ids[row, :lengths[row]].tolist())
                       for row in range(batch.num_pairs)], dtype=np.float64)


def _content_score(sequence):
    return (hash(tuple(sequence)) % 997) / 997.0


@given(st.lists(st.lists(st.integers(0, 30), max_size=12), max_size=40))
@settings(max_examples=60, deadline=None)
def test_dedup_scatter_is_identity_on_decisions(sequences):
    """Property: dedup+scatter never changes what any position receives.

    With a scorer that is a pure function of row content, the scheduled,
    deduplicated batches must fill exactly the vector that scoring every
    position on its own gives — the dedup pass may only change
    *how often* content is scored, never *what* a position gets.
    """
    scheduler = BatchScheduler(Vocabulary(), max_len=16, max_batch_pairs=7)
    filled = np.full(len(sequences), np.nan)
    for batch in scheduler.schedule_encoded(sequences):
        batch.scatter(filled, _content_scores(batch))
    expected = [_content_score(seq) for seq in sequences]
    np.testing.assert_array_equal(filled, np.asarray(expected, dtype=float))
