"""Input gates refuse what the model cannot see or dedup would skip."""

import pytest

from perf.workloads import (MAX_UNK_SHARE, MIN_UNIQUE_SHARE, GateError,
                            InputShares, id_paired)
from repro.pretrain import pretrained_lm
from repro.scale import generate_scale_corpus, true_cluster_of
from repro.scale.bench import BENCH_DIRT
from repro.serve import BatchScheduler, synthetic_candidates
from repro.serve.bench import BENCH_LM


@pytest.fixture(scope="module")
def scheduler():
    extractor, __ = pretrained_lm(**BENCH_LM)
    return BatchScheduler(extractor.vocab, extractor.max_len)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return generate_scale_corpus(tmp_path_factory.mktemp("corpus"), 600,
                                 seed=0, dirt=BENCH_DIRT)


def test_gate_rejects_synthetic_candidates(scheduler):
    with pytest.raises(GateError, match=r"\[UNK\]"):
        InputShares(scheduler).add(synthetic_candidates(1500))


def test_id_paired_inputs_pass_both_gates(scheduler, corpus):
    shares = InputShares(scheduler, min_unique=MIN_UNIQUE_SHARE)
    shares.add(id_paired(corpus))
    assert shares.unk_share <= MAX_UNK_SHARE
    assert shares.unique_share >= MIN_UNIQUE_SHARE


def test_unique_gate_rejects_a_repeat_heavy_stream(scheduler, corpus):
    pairs = id_paired(corpus)
    InputShares(scheduler).add(pairs * 4)  # no uniqueness floor: passes
    with pytest.raises(GateError, match="distinct"):
        InputShares(scheduler, min_unique=MIN_UNIQUE_SHARE).add(pairs * 4)


def test_id_paired_labels_own_cluster_and_sibling(corpus):
    pairs = id_paired(corpus)
    assert pairs
    for pair in pairs:
        left = int(true_cluster_of(pair.left.entity_id))
        right = int(true_cluster_of(pair.right.entity_id))
        assert pair.label == (left == right)
        assert left in (right, right ^ 1)
        assert pair.left.entity_id.split("-")[1].startswith("a")
        assert pair.right.entity_id.split("-")[1].startswith("b")
    assert sum(p.label for p in pairs) == corpus.true_matches
