"""The process malloc policy keeps the forward's freed memory resident."""

import platform
import subprocess
import sys

import pytest

# Runs in a fresh interpreter: in this process an earlier test's large
# frees may already have lifted glibc's dynamic thresholds, which would
# hide the faults the policy exists to prevent.
FAULTS_PER_BATCH = """
import resource
import numpy as np
from repro.extractors import TransformerExtractor
from repro.matcher import MlpMatcher
from repro.pipeline import ERPipeline
from repro.text import Vocabulary

vocab = Vocabulary([f"t{i}" for i in range(3000 - Vocabulary().num_special)])
rng = np.random.default_rng(0)
extractor = TransformerExtractor(vocab, rng, dim=32, num_layers=1,
                                 num_heads=2, max_len=96)
matcher = MlpMatcher(extractor.feature_dim, rng)
extractor.eval()
matcher.eval()
pipeline = ERPipeline(extractor, matcher)
ids = rng.integers(vocab.num_special, len(vocab), size=(128, 64))
ids[:, 0] = vocab.cls_id
ids[:, 32] = ids[:, -1] = vocab.sep_id
mask = np.ones(ids.shape)
for _ in range(3):
    pipeline.probabilities(ids, mask)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    pipeline.probabilities(ids, mask)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print((after - before) / 20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the malloc policy applies to glibc only")
def test_forward_batches_do_not_fault_their_memory_back_in():
    result = subprocess.run([sys.executable, "-c", FAULTS_PER_BATCH],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    faults = float(result.stdout)
    assert faults <= 50, f"{faults:.0f} minor faults per forward batch"
