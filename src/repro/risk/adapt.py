"""Guardrailed online re-adaptation: the training half of the risk loop.

The :class:`ReAdaptationWorker` turns reviewed pairs back into model
quality without ever endangering what is being served:

1. **Drain without destroying.**  The worker reads the review queue's
   :meth:`~repro.risk.queue.ReviewQueue.pending` items and labels them
   through a pluggable ``labeler`` (a human workflow in production, the
   exact-equality oracle in tests and the smoke).  Nothing is acked yet.
2. **Fine-tune under the GuardRail.**  A *fresh copy* of the incumbent
   snapshot is fine-tuned on the labeled items with the existing
   :class:`~repro.resilience.GuardRail` watching every step — a diverging
   run (including an injected ``nan_loss`` fault) rolls back, retries, and
   ultimately surfaces as a structured rejection with its incident
   history, never as a NaN snapshot.
3. **Canary gate, then promote.**  The candidate must hold validation F1
   within ``epsilon_f1`` of the incumbent *and* not regress calibration
   ECE by more than ``epsilon_ece``.  Only then is it saved as a new
   generation (with its own fitted calibrator inside the snapshot store,
   so the manifest digest changes), published through
   ``registry.publish`` — the zero-downtime hot swap — and only *after*
   that are the drained items acked.  A crash anywhere before the ack
   (the ``promote_crash`` chaos fault simulates exactly this) re-delivers
   every item to the restarted worker: zero lost, zero double-applied,
   because publish is idempotent and the ack cursor only moves forward.
   Failed candidates are archived under ``workdir/archive`` with their
   metrics and incidents; the incumbent keeps serving untouched.

The worker never imports the serving stack — ``registry`` is any object
with ``publish(domain, directory)``, so a :class:`~repro.serve.registry
.ModelRegistry`, a :class:`~repro.serve.client.DaemonClient`, or a test
stub all plug in.
"""

from __future__ import annotations

import json
import logging
import math
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np

from ..artifacts import ArtifactStore
from ..data import Entity, EntityPair, ERDataset
from ..nn import Adam, clip_grad_norm, functional as F
from ..pipeline import ERPipeline
from ..resilience import ChaosConfig, GuardRail, TrainingDiverged
from ..text import InfiniteSampler
from ..train.metrics import evaluate
from .calibration import fit_calibrator, save_calibrator
from .queue import ReviewQueue

logger = logging.getLogger("repro.risk")

#: A labeler maps ``(pair, item)`` to a 0/1 label or ``None`` (skip).
Labeler = Callable[[EntityPair, Dict[str, Any]], Optional[int]]

HISTORY_NAME = "history.jsonl"


class PromotionCrash(RuntimeError):
    """Simulated worker death between candidate write and publish/ack.

    Raised by the ``promote_crash`` chaos fault at the worst possible
    moment: the candidate generation is on disk, the queue is *not* acked,
    and nothing was published.  A restarted worker must replay the same
    items and converge to exactly one promotion.
    """


@dataclass(frozen=True)
class ReAdaptConfig:
    """Knobs for one re-adaptation cycle and its canary gate."""

    #: Labeled review items required before a cycle runs at all.
    min_items: int = 8
    epochs: int = 2
    learning_rate: float = 5e-4
    batch_size: int = 32
    clip_norm: float = 5.0
    #: Canary: candidate F1 must be >= incumbent F1 - epsilon_f1.
    epsilon_f1: float = 0.02
    #: Canary: candidate (calibrated) ECE must be <= incumbent + epsilon_ece.
    epsilon_ece: float = 0.02
    bins: int = 10
    seed: int = 0
    max_recoveries: int = 2

    def __post_init__(self) -> None:
        if self.min_items < 1:
            raise ValueError("min_items must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.epsilon_f1 < 0 or self.epsilon_ece < 0:
            raise ValueError("canary epsilons must be non-negative")


def pair_from_item(item: Dict[str, Any]) -> EntityPair:
    """Reconstruct the entity pair a review item was queued for."""
    def entity(obj: Dict[str, Any]) -> Entity:
        return Entity(str(obj["id"]),
                      {str(k): (None if v is None else str(v))
                       for k, v in dict(obj["attributes"]).items()})
    return EntityPair(entity(item["left"]), entity(item["right"]))


def label_from_item(pair: EntityPair, item: Dict[str, Any]) -> Optional[int]:
    """Default labeler: use the ``label`` a reviewer attached, if any."""
    label = item.get("label")
    return None if label is None else int(label)


def equality_oracle(pair: EntityPair, item: Dict[str, Any]) -> Optional[int]:
    """Label by attribute equality (tests, smoke, ``--oracle-equality``)."""
    return int(pair.left.attributes == pair.right.attributes)


def corrupt_tail_segment(queue: ReviewQueue) -> Optional[str]:
    """Bit-flip the newest queue segment *behind the store's back*.

    This is the ``corrupt_segment`` chaos fault: it simulates on-disk rot,
    so it deliberately bypasses the atomic write path.  Returns the
    damaged segment's name (or ``None`` if the queue has no segments).
    """
    names = queue._segment_names()
    if not names:
        return None
    path = queue.store.path(names[-1])
    with open(path, "r+b") as handle:
        data = handle.read()
        handle.seek(0)
        handle.write(bytes(b ^ 0xFF for b in data[:16]) + data[16:])
    return names[-1]


def _fine_tune(pipeline: ERPipeline, dataset: ERDataset,
               config: ReAdaptConfig,
               chaos: Optional[ChaosConfig]) -> GuardRail:
    """Supervised fine-tune of a loaded pipeline on reviewed labels.

    Raises :class:`~repro.resilience.TrainingDiverged` when the GuardRail
    exhausts its recoveries; the caller archives the incident history.
    """
    extractor, matcher = pipeline.extractor, pipeline.matcher
    params = extractor.parameters() + matcher.parameters()
    optimizer = Adam(params, lr=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    batch_size = min(config.batch_size, len(dataset))
    sampler = InfiniteSampler(len(dataset), batch_size, rng)
    guard = GuardRail({"extractor": extractor, "matcher": matcher},
                      [optimizer], max_recoveries=config.max_recoveries,
                      chaos=chaos, method="risk-adapt")
    steps_per_epoch = max(1, math.ceil(len(dataset) / batch_size))
    extractor.train()
    matcher.train()
    try:
        for epoch in range(config.epochs):
            for step in range(steps_per_epoch):
                idx = sampler.next_batch()
                pairs = [dataset.pairs[int(i)] for i in idx]
                labels = np.array([p.label for p in pairs], dtype=np.int64)
                optimizer.zero_grad()
                loss = F.cross_entropy(matcher(extractor(pairs)), labels)
                loss.backward()
                if not guard.observe(loss.item(), epoch, step, params):
                    continue  # rolled back + LR halved; skip the bad step
                clip_grad_norm(params, config.clip_norm)
                optimizer.step()
            guard.snapshot(epoch)
    finally:
        guard.close()
        extractor.eval()
        matcher.eval()
    return guard


class ReAdaptationWorker:
    """Drain → label → guardrailed fine-tune → canary gate → promote.

    Parameters
    ----------
    queue:
        The durable :class:`~repro.risk.queue.ReviewQueue` serving routes
        uncertain pairs into.
    incumbent:
        Directory of the currently-serving snapshot; never written to.
    valid:
        Labeled hold-out dataset for the canary gate and calibration.
    labeler:
        ``(pair, item) -> label | None``; defaults to the ``label`` field
        reviewers attach to queue items.
    registry:
        Anything with ``publish(domain, directory)`` (a
        ``ModelRegistry``, a ``DaemonClient``, ...); ``None`` skips the
        hot swap but still writes the promoted generation.
    workdir:
        Where generations, archived rejects, and ``history.jsonl`` live.
    chaos:
        Optional fault plan: ``nan_loss`` diverges the fine-tune,
        ``promote_crash`` kills the worker mid-promotion,
        ``corrupt_segment`` rots the newest queue segment before a drain.
    """

    def __init__(self, queue: ReviewQueue,
                 incumbent: Union[str, Path], valid: ERDataset,
                 labeler: Optional[Labeler] = None,
                 registry: Optional[Any] = None,
                 domain: str = "default",
                 workdir: Union[str, Path, None] = None,
                 config: Optional[ReAdaptConfig] = None,
                 chaos: Optional[ChaosConfig] = None):
        if not valid.is_labeled:
            raise ValueError("the canary gate needs a labeled hold-out")
        self.queue = queue
        self.incumbent = Path(incumbent)
        self.valid = valid
        self.labeler = labeler or label_from_item
        self.registry = registry
        self.domain = domain
        self.workdir = Path(workdir) if workdir is not None else (
            self.queue.store.root.parent / "risk-workdir")
        self.config = config or ReAdaptConfig()
        self.chaos = chaos
        self._history_store = ArtifactStore(self.workdir)
        self._fault_fires = {"promote_crash": 0, "corrupt_segment": 0}

    # -- durable history ----------------------------------------------------- #
    def history(self) -> List[Dict[str, Any]]:
        try:
            text = self._history_store.read(HISTORY_NAME,
                                            lambda p: p.read_text())
        except FileNotFoundError:
            return []
        return [json.loads(line) for line in text.splitlines()
                if line.strip()]

    def _record(self, entry: Dict[str, Any]) -> None:
        entries = self.history() + [entry]
        payload = "\n".join(json.dumps(e, sort_keys=True)
                            for e in entries) + "\n"
        self._history_store.write(HISTORY_NAME,
                                  lambda tmp: tmp.write_text(payload))

    def _risk_fault(self, kind: str, cycle: int) -> bool:
        if self.chaos is None:
            return False
        fired = self.chaos.risk_fault_at(kind, cycle,
                                         self._fault_fires[kind])
        if fired:
            self._fault_fires[kind] += 1
        return fired

    # -- one cycle ----------------------------------------------------------- #
    def run_once(self) -> Dict[str, Any]:
        """One drain→train→gate→promote cycle; returns a status summary."""
        cycle = len(self.history())
        if self._risk_fault("corrupt_segment", cycle):
            corrupt_tail_segment(self.queue)
        pending = self.queue.pending()
        labeled: List[EntityPair] = []
        skipped = 0
        for record in pending:
            pair = pair_from_item(record.item)
            label = self.labeler(pair, record.item)
            if label is None:
                skipped += 1
            else:
                labeled.append(pair.with_label(int(label)))
        if len(labeled) < self.config.min_items:
            return {"status": "idle", "pending": len(pending),
                    "labeled": len(labeled), "skipped": skipped}
        last_seq = pending[-1].seq
        dataset = ERDataset(f"review-{cycle}", self.domain, labeled)

        incumbent = ERPipeline.load(self.incumbent)
        incumbent_f1 = evaluate(incumbent.extractor, incumbent.matcher,
                                self.valid).f1
        incumbent_cal = fit_calibrator(incumbent, self.valid,
                                       bins=self.config.bins)
        candidate = ERPipeline.load(self.incumbent)
        base = {"cycle": cycle, "items": len(labeled), "skipped": skipped,
                "incumbent_digest": incumbent.manifest_digest,
                "incumbent_f1": incumbent_f1,
                "incumbent_ece": incumbent_cal.ece_after,
                "through_seq": last_seq}
        try:
            guard = _fine_tune(candidate, dataset, self.config, self.chaos)
        except TrainingDiverged as error:
            entry = {**base, "status": "diverged",
                     "incidents": error.incidents,
                     "recoveries": error.recoveries}
            self._archive(candidate=None, entry=entry, cycle=cycle)
            self._record(entry)
            self.queue.ack(last_seq)
            logger.warning("risk-adapt cycle %d diverged after %d "
                           "recoveries; incumbent keeps serving", cycle,
                           error.recoveries)
            return entry

        candidate_f1 = evaluate(candidate.extractor, candidate.matcher,
                                self.valid).f1
        candidate_cal = fit_calibrator(candidate, self.valid,
                                       bins=self.config.bins)
        gate = {"candidate_f1": candidate_f1,
                "candidate_ece": candidate_cal.ece_after,
                "f1_floor": incumbent_f1 - self.config.epsilon_f1,
                "ece_ceiling": incumbent_cal.ece_after
                + self.config.epsilon_ece,
                "recoveries": guard.events.to_dict().get("rollbacks", 0)}
        passed = (candidate_f1 >= gate["f1_floor"]
                  and candidate_cal.ece_after <= gate["ece_ceiling"])
        if not passed:
            entry = {**base, **gate, "status": "rejected"}
            self._archive(candidate, entry, cycle)
            self._record(entry)
            self.queue.ack(last_seq)
            logger.warning(
                "risk-adapt cycle %d rejected by canary gate "
                "(F1 %.4f < %.4f or ECE %.4f > %.4f); incumbent keeps "
                "serving", cycle, candidate_f1, gate["f1_floor"],
                candidate_cal.ece_after, gate["ece_ceiling"])
            return entry

        generation = self.workdir / "generations" / f"gen-{cycle:04d}"
        candidate.save(generation)
        save_calibrator(ArtifactStore(generation), candidate_cal)
        new_digest = ArtifactStore(generation).manifest_digest()
        if self._risk_fault("promote_crash", cycle):
            # Candidate is durable, queue is NOT acked, nothing published:
            # the restarted worker replays the same items exactly once.
            raise PromotionCrash(
                f"simulated crash mid-promotion of cycle {cycle} "
                f"(generation {generation} written, queue not acked)")
        if self.registry is not None:
            self.registry.publish(self.domain, str(generation))
        self.queue.ack(last_seq)
        entry = {**base, **gate, "status": "promoted",
                 "generation": str(generation),
                 "candidate_digest": new_digest}
        self._record(entry)
        logger.info("risk-adapt cycle %d promoted %s (digest %s...)",
                    cycle, generation, new_digest[:12])
        return entry

    def _archive(self, candidate: Optional[ERPipeline],
                 entry: Dict[str, Any], cycle: int) -> None:
        """Preserve a failed candidate + its verdict for post-mortem."""
        archive = self.workdir / "archive" / f"candidate-{cycle:04d}"
        if candidate is not None:
            candidate.save(archive)
        ArtifactStore(archive).write_json("verdict.json", entry, indent=2,
                                          default=str)

    # -- the loop ------------------------------------------------------------ #
    def run_forever(self, interval: float = 1.0,
                    stop: Optional[threading.Event] = None,
                    max_cycles: Optional[int] = None) -> int:
        """Run cycles until ``stop`` is set (or ``max_cycles`` complete).

        Returns how many non-idle cycles ran.  This is the loop both
        ``repro risk-adapt`` and a daemon-embedded worker thread use.
        """
        stop = stop or threading.Event()
        cycles = 0
        while not stop.is_set():
            outcome = self.run_once()
            if outcome["status"] != "idle":
                cycles += 1
                if max_cycles is not None and cycles >= max_cycles:
                    break
            stop.wait(interval)
        return cycles


__all__ = ["HISTORY_NAME", "Labeler", "PromotionCrash", "ReAdaptConfig",
           "ReAdaptationWorker", "corrupt_tail_segment", "equality_oracle",
           "label_from_item", "pair_from_item"]
