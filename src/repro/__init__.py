"""DADER reproduction: Domain Adaptation for Deep Entity Resolution.

Reproduces Tu et al., "Domain Adaptation for Deep Entity Resolution"
(SIGMOD 2022) as a self-contained Python library: a numpy autograd substrate,
feature extractors (bi-RNN and a mini pre-trained LM), an MLP matcher, the
six feature aligners of the paper's design space, both training algorithms,
synthetic versions of the thirteen benchmark datasets, the compared baselines,
and one experiment per evaluation table/figure.

Quickstart::

    from repro import adapt, load_dataset

    source = load_dataset("dblp_acm")
    target = load_dataset("dblp_scholar")
    result = adapt(source, target, aligner="mmd", seed=0)
    print(result.best_f1)
"""

__version__ = "1.0.0"

from . import _memory

# Import time reaches every caller: CLI, daemon, workers and tests.
_memory.keep_freed_memory()

from .api import (AdaptationResult, ChaosConfig, Events, GuardRail,
                  TrainingDiverged, adapt, load_dataset, no_da)
from .risk import (ReviewQueue, RiskBand, RiskRouter, calibrate_snapshot)
from .scale import (ShardedBlocker, TransitiveClusterer, cluster_quality,
                    generate_scale_corpus, resolve)
from .serve import (DaemonClient, ModelRegistry, ScoreCache, ScoreRequest,
                    ScoreResponse, score_tables)
from .telemetry import PROFILER, TRACER, TelemetrySession, event, span

__all__ = ["adapt", "no_da", "load_dataset", "score_tables", "ScoreCache",
           "ModelRegistry", "DaemonClient", "ScoreRequest", "ScoreResponse",
           "AdaptationResult", "ChaosConfig", "Events", "GuardRail",
           "TrainingDiverged", "TelemetrySession", "TRACER", "PROFILER",
           "span", "event",
           "ReviewQueue", "RiskBand", "RiskRouter", "calibrate_snapshot",
           "ShardedBlocker", "TransitiveClusterer", "cluster_quality",
           "generate_scale_corpus", "resolve",
           "__version__"]
