"""repro.serve — batched, parallel, and online scoring over ER pipelines.

The production serving layer of the reproduction, in two tiers:

* **Engines** — candidate pairs flow through a length-bucketing
  :class:`BatchScheduler` into either a single-process
  :class:`SequentialScorer` or a thread-parallel :class:`ParallelScorer`
  (one shared model, N worker threads), fronted by a content-addressed
  :class:`ScoreCache` and instrumented as :class:`ServeMetrics`.  Both
  implement the :class:`ScoreRequest` → :class:`ScoreResponse` contract.
* **Daemon** — ``python -m repro serve`` hosts a :class:`ModelRegistry`
  of domain-adapted snapshots behind an asyncio loop
  (:class:`ServeDaemon`) that admission-controls with backpressure,
  scores each admitted request as its own job on one scoring lane, and
  hot-swaps republished snapshots with zero downtime.
  :class:`DaemonClient` is the blocking TCP client.

See ``DESIGN.md`` ("Serving architecture", "Online serving daemon") for
the design.  Throughput and latency are measured by ``python -m perf
run``; :func:`build_bench_pipeline` and :func:`synthetic_candidates` are
test fixtures.
"""

from .bench import build_bench_pipeline, synthetic_candidates
from .cache import DEFAULT_CAPACITY, ScoreCache, pair_key
from .client import DaemonBusy, DaemonClient, DaemonError, ScoredReply
from .daemon import (BackpressureError, DaemonConfig, DaemonHandle,
                     DaemonServer, ServeDaemon, serve_forever,
                     start_daemon_thread)
from .engine import (STREAM_WINDOW, ParallelScorer, SequentialScorer,
                     score_tables)
from .metrics import ServeMetrics, ThroughputMeter
from .registry import ModelRegistry, UnknownDomain
from .request import (DEFAULT_DOMAIN, ScoreRequest, ScoreResponse,
                      as_request)
from .scheduler import BatchScheduler, ScheduledBatch

__all__ = [
    "BatchScheduler", "ScheduledBatch",
    "ScoreCache", "pair_key", "DEFAULT_CAPACITY",
    "SequentialScorer", "ParallelScorer", "score_tables",
    "STREAM_WINDOW",
    "ScoreRequest", "ScoreResponse", "as_request", "DEFAULT_DOMAIN",
    "ModelRegistry", "UnknownDomain",
    "ServeDaemon", "DaemonServer", "DaemonConfig", "DaemonHandle",
    "BackpressureError", "serve_forever", "start_daemon_thread",
    "DaemonClient", "DaemonBusy", "DaemonError", "ScoredReply",
    "ServeMetrics", "ThroughputMeter",
    "build_bench_pipeline", "synthetic_candidates",
]
