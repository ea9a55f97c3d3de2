"""Batch-invariant scoring: a pair's probability depends only on the pair
and the snapshot (DESIGN.md §6b).

The property draws random pair sets, duplicates included, and splits them
at random across requests, batch caps, bucket roundings and cache
pre-fills.  The sequential engine and a two-thread parallel engine must
both return probabilities bit-identical to the fixed-stride, full-padding
oracle :meth:`ERPipeline.score_pairs`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Entity, EntityPair
from repro.pipeline import ERPipeline
from repro.serve import (BatchScheduler, ParallelScorer, ScoreCache,
                         SequentialScorer)

#: In-vocabulary tokens of the tiny LM mixed with out-of-vocabulary ones,
#: so pairs differ in content (not only in [UNK] runs) and in length.
WORDS = ("title", "price", "name", "city", "brand", "1995", "2018", "2007",
         "5", "3", "-", ":", "mesa", "rook", "tide", "volt")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, tiny_lm):
    """A saved pipeline: the cache needs its manifest digest."""
    from repro.matcher import MlpMatcher
    from repro.pretrain import fresh_copy
    extractor = fresh_copy(tiny_lm[0], seed=0)
    extractor.eval()
    matcher = MlpMatcher(extractor.feature_dim, np.random.default_rng(0))
    matcher.eval()
    pipeline = ERPipeline(extractor, matcher)
    pipeline.save(tmp_path_factory.mktemp("invariance") / "pipeline")
    return pipeline


_texts = st.lists(st.sampled_from(WORDS), min_size=0, max_size=40).map(
    " ".join)


@st.composite
def workloads(draw):
    """(pairs, request sizes, scheduler kwargs, pre-fill indices)."""
    universe = draw(st.lists(st.tuples(_texts, _texts), min_size=1,
                             max_size=16))
    picks = draw(st.lists(st.integers(0, len(universe) - 1), min_size=1,
                          max_size=48))
    pairs = [EntityPair(Entity(f"l{i}", {"name": universe[i][0]}),
                        Entity(f"r{i}", {"name": universe[i][1]}))
             for i in picks]
    sizes = []
    left = len(pairs)
    while left:
        sizes.append(draw(st.integers(1, left)))
        left -= sizes[-1]
    kwargs = dict(max_batch_pairs=draw(st.integers(1, 40)),
                  max_batch_tokens=draw(st.sampled_from([96, 400, 8192])),
                  bucket_rounding=draw(st.sampled_from([1, 3, 8, 16, 96])))
    prefill = draw(st.lists(st.integers(0, len(pairs) - 1), max_size=12))
    return pairs, sizes, kwargs, prefill


def _split(pairs, sizes):
    start = 0
    for size in sizes:
        yield pairs[start:start + size]
        start += size


@given(workloads())
@settings(max_examples=40, deadline=None)
def test_engines_bit_identical_to_oracle_under_any_split(pipeline, workload):
    pairs, sizes, kwargs, prefill = workload
    expected = [d.probability for d in pipeline.score_pairs(pairs)]
    scheduler = BatchScheduler(pipeline.extractor.vocab,
                               pipeline.extractor.max_len, **kwargs)
    sequential = SequentialScorer(pipeline, scheduler,
                                  cache=ScoreCache(capacity=4096))
    with ParallelScorer(pipeline, num_workers=2,
                        cache=ScoreCache(capacity=4096),
                        **kwargs) as parallel:
        for engine in (sequential, parallel):
            # Pre-filled pairs come back as cache hits, so the misses of
            # the same request score in smaller residual batches.
            engine.score_pairs([pairs[i] for i in prefill])
            got = [d.probability for request in _split(pairs, sizes)
                   for d in engine.score_pairs(request)]
            assert got == expected, engine.engine_name
