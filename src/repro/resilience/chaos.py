"""Deterministic fault injection for the resilience layer.

A :class:`ChaosConfig` is a declarative plan of faults — "treat the loss
at training step 3 as NaN", "crash the re-adaptation worker between
writing a candidate and promoting it, once" — evaluated by pure
predicates on the global training step or the risk-loop cycle.  Nothing
is random and nothing reads the clock, so a chaos run is exactly as
reproducible as a clean run; the ``pytest -m chaos`` and ``pytest -m
risk`` tiers lean on that to assert recovery ends where a fault-free run
does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: Risk-loop fault kinds: the re-adaptation worker dies between writing a
#: candidate and publishing/acking (``promote_crash``), or a review-queue
#: segment is bit-flipped on disk (``corrupt_segment``).  Diverging
#: re-adaptation reuses ``nan_loss`` — the GuardRail path is identical.
RISK_KINDS = ("promote_crash", "corrupt_segment")
KINDS = ("nan_loss",) + RISK_KINDS


@dataclass(frozen=True)
class Fault:
    """One injected failure.

    Parameters
    ----------
    kind:
        ``nan_loss`` (the training guard observes a NaN loss at ``step``)
        or one of :data:`RISK_KINDS`.
    step:
        Global training step (``nan_loss``) or re-adaptation cycle (risk
        kinds); ``None`` matches every step — useful to prove the guard's
        bounded-retry exhaustion path.
    times:
        A risk fault fires only while its site has fired fewer than
        ``times`` times, so a restarted worker escapes a ``times=1`` crash
        deterministically.  ``None`` means "always".
    """

    kind: str
    step: Optional[int] = None
    times: Optional[int] = 1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (expected one of {KINDS})")
        if self.times is not None and self.times < 1:
            raise ValueError("times must be >= 1 or None (always)")


@dataclass(frozen=True)
class ChaosConfig:
    """An immutable plan of :class:`Fault` instances."""

    faults: Tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    # -- training-side ----------------------------------------------------- #
    def nan_loss_at(self, step: int) -> bool:
        """Whether the guard should observe a NaN loss at global ``step``."""
        for fault in self.faults:
            if fault.kind != "nan_loss":
                continue
            if fault.step is not None and fault.step != step:
                continue
            return True
        return False

    # -- risk-loop side ----------------------------------------------------- #
    def risk_fault_at(self, kind: str, cycle: int,
                      occurrence: int = 0) -> bool:
        """Whether a risk-loop fault of ``kind`` fires on worker ``cycle``.

        ``step`` targets a specific re-adaptation cycle (``None`` matches
        every cycle) and ``times`` bounds how often the site fires —
        ``occurrence`` is how many times it already has, so a restarted
        worker escapes a ``times=1`` crash deterministically.
        """
        if kind not in RISK_KINDS:
            raise ValueError(f"not a risk fault kind: {kind!r}")
        for fault in self.faults:
            if fault.kind != kind:
                continue
            if fault.step is not None and fault.step != cycle:
                continue
            if fault.times is not None and occurrence >= fault.times:
                continue
            return True
        return False
