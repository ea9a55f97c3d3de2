"""Recovery-event counters for the training guards.

Every recovery action the resilience layer takes — a training rollback, a
learning-rate halving — increments exactly one counter here, so "did the
run heal itself, and how often?" is a first-class observable.  The
trainers attach their counters to
:class:`repro.train.config.AdaptationResult`.

Counters are migrated onto the telemetry registry: every live increment
(made through :meth:`Events.bump`, the only increment path the resilience
layer uses) is mirrored into the process-global
:data:`repro.telemetry.REGISTRY` as ``resilience.<field>``, so one
``REGISTRY.snapshot()`` exports the cumulative recovery history of the
process.  Derived records (``copy()``, ``__add__``, ``__sub__`` deltas)
never mirror; only actions that actually happened count once.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict


@dataclass
class Events:
    """Counters for every recovery path in :mod:`repro.resilience`.

    * ``rollbacks`` — restorations of the last good snapshot after a
      non-finite or diverged step;
    * ``lr_halvings`` — learning-rate halvings applied on rollback.
    """

    rollbacks: int = 0
    lr_halvings: int = 0

    def bump(self, field: str, amount: int = 1) -> None:
        """Count a recovery action: increment + mirror to the telemetry
        registry (``resilience.<field>``) so the process-wide export path
        sees it.  All resilience-layer increments go through here."""
        current = getattr(self, field)  # AttributeError on a bad field name
        setattr(self, field, current + amount)
        from ..telemetry import REGISTRY
        REGISTRY.counter(f"resilience.{field}").inc(amount)

    def to_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def copy(self) -> "Events":
        return Events(**self.to_dict())

    def total(self) -> int:
        """Total recovery actions of any kind (0 == a fault-free run)."""
        return sum(self.to_dict().values())

    def __bool__(self) -> bool:
        return self.total() > 0

    def __add__(self, other: "Events") -> "Events":
        return Events(**{f.name: getattr(self, f.name) + getattr(other, f.name)
                         for f in fields(self)})

    def __sub__(self, other: "Events") -> "Events":
        """Per-run delta: ``after - before`` for a cumulative counter."""
        return Events(**{f.name: getattr(self, f.name) - getattr(other, f.name)
                         for f in fields(self)})

    def merge(self, other: "Events") -> None:
        """In-place accumulation of ``other`` into this record."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
