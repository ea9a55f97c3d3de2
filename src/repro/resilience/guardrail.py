"""Training guard-rail: finiteness checks, snapshot rollback, LR halving.

Algorithm 1/2 runs are minutes long; a NaN that appears at step k silently
poisons every later step, and the artifact store will then faithfully
persist a diverged extractor.  :class:`GuardRail` sits between
``loss.backward()`` and ``optimizer.step()`` in every trainer:

* each step's loss and (optionally) gradients are checked for finiteness,
  and the loss is checked against a divergence bound: it must exceed
  ``patience * EMA`` *and* the EMA recorded when the bound first armed.
  The second, absolute condition keeps a converged run, whose EMA has
  shrunk toward zero, from mistaking an ordinary minibatch for divergence;
* on a bad step, the modules are rolled back to the **last good snapshot**
  (persisted through :mod:`repro.artifacts`, so the rollback source is
  checksummed), every optimizer's learning rate is halved, and training
  resumes — the bad ``optimizer.step()`` never happens;
* recoveries are bounded: past ``max_recoveries`` a structured
  :class:`TrainingDiverged` carrying the full (epoch, step, loss) incident
  history is raised instead of looping forever.

Deterministic fault injection for tests comes from
:class:`~repro.resilience.chaos.ChaosConfig` ``nan_loss`` faults — the guard
*observes* a NaN at the configured global step without perturbing any model
state, which exercises the real rollback machinery end-to-end.
"""

from __future__ import annotations

import logging
import tempfile
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import telemetry
from ..artifacts import ArtifactStore
from .chaos import ChaosConfig
from .events import Events

logger = logging.getLogger("repro.resilience")


class TrainingDiverged(RuntimeError):
    """Training could not be stabilized within the recovery budget.

    Attributes
    ----------
    method:
        Trainer/aligner name for error reporting.
    epoch / step / loss:
        Location and value of the final fatal observation.
    recoveries:
        How many rollback+LR-halve cycles were spent before giving up.
    incidents:
        Every bad observation as ``{"epoch", "step", "global_step", "loss",
        "reason"}`` dicts, oldest first — the post-mortem trail.
    """

    def __init__(self, method: str, epoch: int, step: int, loss: float,
                 recoveries: int, incidents: List[Dict]):
        self.method = method
        self.epoch = epoch
        self.step = step
        self.loss = loss
        self.recoveries = recoveries
        self.incidents = list(incidents)
        trail = "; ".join(
            f"epoch {i['epoch']} step {i['step']}: {i['reason']} "
            f"(loss={i['loss']})" for i in self.incidents[-5:])
        super().__init__(
            f"{method} diverged at epoch {epoch} step {step} "
            f"(loss={loss}) after {recoveries} recoveries; "
            f"incident history: {trail}")


class GuardRail:
    """Per-step divergence guard with checksummed snapshot rollback.

    Parameters
    ----------
    modules:
        Named modules whose ``state_dict``/``load_state_dict`` define the
        rollback surface (e.g. ``{"extractor": F, "matcher": M}``).
    optimizers:
        Optimizers whose ``lr`` is halved on every rollback.
    max_recoveries:
        Rollbacks allowed before :class:`TrainingDiverged` is raised.
    patience:
        Divergence bound: after ``warmup_steps`` healthy steps, a finite
        loss counts as diverged when it exceeds both ``patience * EMA``
        and the floor, the EMA when the bound first armed.  The floor is
        measured once and kept across rollbacks.
    ema_decay:
        Smoothing for the loss EMA the divergence bound compares against.
    snapshot_dir:
        Where snapshots are persisted (via :class:`~repro.artifacts.ArtifactStore`,
        so every rollback source is checksummed).  Defaults to a private
        temporary directory cleaned up by :meth:`close`.
    chaos:
        Optional fault plan; ``nan_loss`` faults make :meth:`observe` treat
        the configured global step's loss as NaN.
    """

    def __init__(self, modules: Dict[str, object],
                 optimizers: Sequence[object],
                 max_recoveries: int = 4, patience: float = 25.0,
                 ema_decay: float = 0.9, warmup_steps: int = 10,
                 snapshot_dir: Optional[str] = None,
                 events: Optional[Events] = None,
                 chaos: Optional[ChaosConfig] = None,
                 method: str = "train"):
        if not modules:
            raise ValueError("GuardRail needs at least one module to guard")
        if max_recoveries < 0:
            raise ValueError("max_recoveries must be non-negative")
        if patience <= 1.0:
            raise ValueError("patience must be > 1 (a multiple of the EMA)")
        if not 0.0 < ema_decay < 1.0:
            raise ValueError("ema_decay must be in (0, 1)")
        self.modules = dict(modules)
        self.optimizers = list(optimizers)
        self.max_recoveries = max_recoveries
        self.patience = patience
        self.ema_decay = ema_decay
        self.warmup_steps = warmup_steps
        self.events = events if events is not None else Events()
        self.chaos = chaos
        self.method = method
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        if snapshot_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-guardrail-")
            snapshot_dir = self._tmp.name
        self._store = ArtifactStore(snapshot_dir)
        self._global_step = 0
        self._healthy_steps = 0
        self._ema: Optional[float] = None
        #: EMA at the step the divergence bound first armed; None before.
        self._floor: Optional[float] = None
        self._recoveries = 0
        self._incidents: List[Dict] = []
        self.snapshot(epoch=-1)

    # -- snapshots ---------------------------------------------------------- #
    def snapshot(self, epoch: int) -> None:
        """Persist every guarded module as the new last-good state."""
        from ..nn.serialize import save_state
        for name, module in self.modules.items():
            self._store.write(f"{name}.npz",
                              lambda tmp, m=module: save_state(m, tmp))
        self._snapshot_epoch = epoch

    def _rollback(self) -> None:
        from ..nn.serialize import load_state
        for name, module in self.modules.items():
            self._store.read(f"{name}.npz",
                             lambda p, m=module: load_state(m, p))
            module.zero_grad()

    # -- the per-step check -------------------------------------------------- #
    def observe(self, loss: float, epoch: int, step: int,
                params: Sequence[object] = ()) -> bool:
        """Validate one step after ``backward()``; True means "apply it".

        Call between ``loss.backward()`` and ``optimizer.step()``.  Returns
        ``False`` when the step was rejected — the guard has already rolled
        the modules back and halved the learning rates, so the caller must
        simply skip ``optimizer.step()`` and continue training.
        """
        global_step = self._global_step
        self._global_step += 1
        loss = float(loss)
        if self.chaos is not None and self.chaos.nan_loss_at(global_step):
            loss = float("nan")
        armed = (self._ema is not None
                 and self._healthy_steps >= self.warmup_steps)
        if armed and self._floor is None:
            self._floor = self._ema
        reason = None
        if not np.isfinite(loss):
            reason = "non-finite loss"
        elif (armed and loss > self.patience * max(self._ema, 1e-12)
              and loss > self._floor):
            reason = (f"diverged loss ({loss:.4g} > {self.patience:g} x "
                      f"EMA {self._ema:.4g} and > floor "
                      f"{self._floor:.4g})")
        else:
            for param in params:
                grad = getattr(param, "grad", None)
                if grad is not None and not np.all(np.isfinite(grad)):
                    reason = "non-finite gradient"
                    break
        if reason is None:
            self._ema = (loss if self._ema is None else
                         self.ema_decay * self._ema
                         + (1.0 - self.ema_decay) * loss)
            self._healthy_steps += 1
            return True
        self._recover(epoch, step, global_step, loss, reason)
        return False

    def _recover(self, epoch: int, step: int, global_step: int,
                 loss: float, reason: str) -> None:
        self._incidents.append({"epoch": epoch, "step": step,
                                "global_step": global_step, "loss": loss,
                                "reason": reason})
        if self._recoveries >= self.max_recoveries:
            logger.error("resilience training-diverged method=%s epoch=%d "
                         "step=%d reason=%s recoveries=%d", self.method,
                         epoch, step, reason, self._recoveries)
            raise TrainingDiverged(self.method, epoch, step, loss,
                                   self._recoveries, self._incidents)
        self._recoveries += 1
        self.events.bump("rollbacks")
        self._rollback()
        for optimizer in self.optimizers:
            optimizer.lr = optimizer.lr * 0.5
            self.events.bump("lr_halvings")
        telemetry.event("resilience.rollback", method=self.method,
                        epoch=epoch, step=step, reason=reason,
                        restored_epoch=self._snapshot_epoch,
                        recoveries=self._recoveries)
        # Re-warm the relative bound after rollback; the floor stays.
        self._ema = None
        self._healthy_steps = 0
        logger.warning(
            "resilience rollback method=%s epoch=%d step=%d reason=%s "
            "restored_epoch=%d lr_halved recoveries=%d/%d", self.method,
            epoch, step, reason, self._snapshot_epoch, self._recoveries,
            self.max_recoveries)

    # -- bookkeeping --------------------------------------------------------- #
    @property
    def recoveries(self) -> int:
        return self._recoveries

    @property
    def incidents(self) -> List[Dict]:
        return list(self._incidents)

    def close(self) -> None:
        """Release the private snapshot directory (idempotent)."""
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def __enter__(self) -> "GuardRail":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
