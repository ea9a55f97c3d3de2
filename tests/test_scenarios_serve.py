"""Scenario pair streams through the serving stack, bit-identical.

Satellite to the scenario harness: every cell of the 4x2 grid (each
scenario, balanced and imbalanced) is routed through
:class:`SequentialScorer`, a four-worker :class:`ParallelScorer`, and an
in-process daemon, and every engine's `MatchDecision` list must be
bit-identical to the fixed-stride, full-padding oracle
:meth:`ERPipeline.score_pairs`, as must every other scheduler
configuration (DESIGN.md §6b).
"""

import numpy as np
import pytest

from repro.datasets import generate_corpus, spec_for
from repro.pipeline import ERPipeline
from repro.scenarios import SCENARIOS, VARIANTS, build_scenario
from repro.serve import (BatchScheduler, DaemonClient, DaemonConfig,
                         ModelRegistry, ParallelScorer, SequentialScorer,
                         start_daemon_thread)

STREAMS = [(scenario, variant) for scenario in SCENARIOS
           for variant in VARIANTS]


@pytest.fixture(scope="module")
def served(tmp_path_factory, tiny_lm):
    """A live pipeline plus its persisted snapshot directory."""
    from repro.matcher import MlpMatcher
    from repro.pretrain import fresh_copy
    extractor = fresh_copy(tiny_lm[0], seed=0)
    extractor.eval()
    matcher = MlpMatcher(extractor.feature_dim, np.random.default_rng(0))
    matcher.eval()
    pipeline = ERPipeline(extractor, matcher)
    directory = tmp_path_factory.mktemp("scenario_serve") / "pipeline"
    pipeline.save(directory)
    return pipeline, directory


@pytest.fixture(scope="module")
def streams():
    corpus = generate_corpus(spec_for("fodors_zagats"), num_families=12,
                             family_size=3, seed=3)
    return {(scenario, variant):
            list(build_scenario(corpus, scenario, variant, num_pairs=40,
                                seed=3).dataset.pairs)
            for scenario, variant in STREAMS}


@pytest.mark.parametrize("stream", STREAMS, ids="/".join)
def test_engines_bit_identical_to_direct_pipeline(served, streams, stream):
    pipeline, directory = served
    pairs = streams[stream]
    direct = pipeline.score_pairs(pairs)

    sequential = SequentialScorer(pipeline).score_pairs(pairs)
    assert sequential == direct

    with ParallelScorer(directory, num_workers=4) as scorer:
        assert scorer.score_pairs(pairs) == direct

    registry = ModelRegistry()
    registry.publish("default", directory)
    try:
        with start_daemon_thread(registry, DaemonConfig(port=0)) as handle:
            host, port = handle.address
            with DaemonClient(host, port) as client:
                assert client.score(pairs).decisions == direct
    finally:
        registry.close()


@pytest.mark.parametrize("stream", STREAMS, ids="/".join)
def test_reference_policy_within_tolerance(served, streams, stream):
    # The tolerance is now zero: exact-length buckets and small odd caps
    # still give the oracle's bits.
    pipeline, __ = served
    pairs = streams[stream]
    scheduler = BatchScheduler(pipeline.extractor.vocab,
                               pipeline.extractor.max_len,
                               max_batch_pairs=7, bucket_rounding=1)
    bucketed = SequentialScorer(pipeline, scheduler).score_pairs(pairs)
    assert bucketed == pipeline.score_pairs(pairs)
