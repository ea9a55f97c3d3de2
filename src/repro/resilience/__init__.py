"""repro.resilience — the fault-tolerant execution substrate.

Long training runs and the risk loop share one design concern: components
fail — losses go NaN, a re-adaptation worker dies mid-promotion — and the
system must detect and recover rather than persist garbage.  This package
centralises that layer:

* :class:`GuardRail` — the per-step training guard (finiteness/divergence
  checks, checksummed snapshot rollback, LR halving, bounded retries with a
  structured :class:`TrainingDiverged`) wired into every trainer in
  :mod:`repro.train.loops`;
* :class:`ChaosConfig` / :class:`Fault` — deterministic fault injection for
  the ``pytest -m chaos`` and ``pytest -m risk`` tiers;
* :class:`Events` — counters for every recovery action;
* :class:`BackoffPolicy` — the deterministic retry schedule the daemon
  client uses.

See ``DESIGN.md`` §8 ("Resilience") for policy semantics.
"""

from .backoff import BackoffPolicy
from .chaos import KINDS, RISK_KINDS, ChaosConfig, Fault
from .events import Events
from .guardrail import GuardRail, TrainingDiverged

__all__ = [
    "BackoffPolicy", "ChaosConfig", "Fault", "KINDS", "RISK_KINDS",
    "Events", "GuardRail", "TrainingDiverged",
]
