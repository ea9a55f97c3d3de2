"""The paper's training algorithms.

* :func:`train_source_only` — the NoDA baseline (F + M on source labels).
* :func:`train_joint` — Algorithm 1: discrepancy / GRL / reconstruction
  aligners, minimizing ``L_M + beta * L_A`` jointly.
* :func:`train_gan` — Algorithm 2: InvGAN / InvGAN+KD, source pre-training
  followed by alternating discriminator/generator adaptation of a cloned
  extractor F'.

Every trainer follows §6.1's evaluation protocol: after each epoch the
current (F, M) snapshot is scored on the target validation set, and the
best-scoring snapshot is restored before final test scoring.

Every trainer also runs under a :class:`repro.resilience.GuardRail`
(``config.guardrail``, on by default): each step's loss and gradients are
checked for finiteness and divergence between ``backward()`` and
``optimizer.step()``, a bad step rolls the models back to the last good
epoch snapshot (persisted through :mod:`repro.artifacts`) and halves the
learning rate, and a run that cannot be stabilized raises a structured
:class:`repro.resilience.TrainingDiverged` instead of silently serializing
a NaN extractor.  Recovery counters land on ``AdaptationResult.events``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import telemetry
from ..aligners import AlignmentBatch, FeatureAligner
from ..data import ERDataset
from ..extractors import FeatureExtractor
from ..matcher import MlpMatcher
from ..nn import Adam, Tensor, clip_grad_norm, functional as F
from ..resilience import GuardRail
from ..text import InfiniteSampler
from .config import AdaptationResult, EpochRecord, TrainConfig
from .metrics import evaluate


def combine_datasets(first: ERDataset, second: ERDataset,
                     name: Optional[str] = None) -> ERDataset:
    """Concatenate two labeled datasets (semi-supervised DA, Fig. 11)."""
    return ERDataset(name or f"{first.name}+{second.name}", first.domain,
                     list(first.pairs) + list(second.pairs))


@dataclass
class _Snapshot:
    extractor_state: Dict[str, np.ndarray]
    matcher_state: Dict[str, np.ndarray]
    epoch: int
    valid_f1: float


class _EpochTracker:
    """Shared per-epoch evaluation, tracing, and best-snapshot keeping."""

    def __init__(self, matcher: MlpMatcher, valid: ERDataset,
                 config: TrainConfig, source_eval: Optional[ERDataset],
                 target_eval: Optional[ERDataset]):
        self.matcher = matcher
        self.valid = valid
        self.config = config
        self.source_eval = source_eval
        self.target_eval = target_eval
        self.history: List[EpochRecord] = []
        self.best: Optional[_Snapshot] = None

    def end_epoch(self, epoch: int, extractor: FeatureExtractor,
                  matching_loss: float, alignment_loss: float) -> None:
        valid_f1 = evaluate(extractor, self.matcher, self.valid,
                            self.config.batch_size).f1
        record = EpochRecord(epoch=epoch, matching_loss=matching_loss,
                             alignment_loss=alignment_loss,
                             valid_f1=valid_f1)
        if self.config.track_sets:
            if self.source_eval is not None:
                record.source_f1 = evaluate(extractor, self.matcher,
                                            self.source_eval,
                                            self.config.batch_size).f1
            if self.target_eval is not None:
                record.target_f1 = evaluate(extractor, self.matcher,
                                            self.target_eval,
                                            self.config.batch_size).f1
        self.history.append(record)
        if self.best is None or valid_f1 > self.best.valid_f1:
            self.best = _Snapshot(extractor.state_dict(),
                                  self.matcher.state_dict(),
                                  epoch, valid_f1)

    def finish(self, method: str, extractor: FeatureExtractor,
               test: ERDataset) -> AdaptationResult:
        if self.best is not None:
            extractor.load_state_dict(self.best.extractor_state)
            self.matcher.load_state_dict(self.best.matcher_state)
        test_metrics = evaluate(extractor, self.matcher, test,
                                self.config.batch_size)
        return AdaptationResult(
            method=method,
            best_epoch=self.best.epoch if self.best else -1,
            best_valid_f1=self.best.valid_f1 if self.best else 0.0,
            test_metrics=test_metrics,
            history=self.history,
            extractor=extractor,
            matcher=self.matcher)


def _guardrail(config: TrainConfig, modules: Dict[str, object],
               optimizers: List[object], method: str) -> Optional[GuardRail]:
    """The configured per-step divergence guard, or ``None`` when disabled."""
    if not config.guardrail:
        return None
    return GuardRail(modules, optimizers,
                     max_recoveries=config.guard_max_recoveries,
                     patience=config.guard_patience,
                     chaos=config.chaos, method=method)


def _mean(losses: List[float]) -> float:
    """Epoch-mean loss; 0.0 when every step of the epoch was rolled back."""
    return float(np.mean(losses)) if losses else 0.0


def _iterations(config: TrainConfig, source_size: int) -> int:
    if config.iterations_per_epoch is not None:
        return max(1, config.iterations_per_epoch)
    return max(1, int(np.ceil(source_size / config.batch_size)))


def _source_batch(source: ERDataset, sampler: InfiniteSampler
                  ) -> Tuple[list, np.ndarray]:
    idx = sampler.next_batch()
    pairs = [source.pairs[int(i)] for i in idx]
    labels = np.array([p.label for p in pairs], dtype=np.int64)
    return pairs, labels


def train_source_only(extractor: FeatureExtractor, matcher: MlpMatcher,
                      source: ERDataset, target_valid: ERDataset,
                      target_test: ERDataset,
                      config: TrainConfig) -> AdaptationResult:
    """NoDA baseline: DADER without the Feature Aligner (§6.1, method 2)."""
    if not source.is_labeled:
        raise ValueError("NoDA needs a labeled source")
    rng = np.random.default_rng(config.seed)
    params = extractor.parameters() + matcher.parameters()
    optimizer = Adam(params, lr=config.learning_rate)
    sampler = InfiniteSampler(len(source), config.batch_size, rng)
    tracker = _EpochTracker(matcher, target_valid, config,
                            source_eval=source, target_eval=target_test)
    iterations = _iterations(config, len(source))
    guard = _guardrail(config, {"extractor": extractor, "matcher": matcher},
                       [optimizer], "noda")
    extractor.train()
    matcher.train()
    run_span = telemetry.span("train.run", method="noda",
                              epochs=config.epochs, iterations=iterations)
    try:
        for epoch in range(config.epochs):
            with telemetry.span("train.epoch", epoch=epoch):
                losses = []
                with telemetry.span("train.phase", phase="steps"):
                    for step in range(iterations):
                        with telemetry.span("train.step", step=step):
                            pairs, labels = _source_batch(source, sampler)
                            optimizer.zero_grad()
                            logits = matcher(extractor(pairs))
                            loss = F.cross_entropy(logits, labels)
                            loss.backward()
                            if guard is not None and not guard.observe(
                                    loss.item(), epoch, step, params):
                                # rolled back + LR halved; skip the bad step
                                continue
                            clip_grad_norm(params, config.clip_norm)
                            optimizer.step()
                            losses.append(loss.item())
                with telemetry.span("train.phase", phase="evaluate"):
                    tracker.end_epoch(epoch, extractor, _mean(losses), 0.0)
                if guard is not None:
                    guard.snapshot(epoch)
                extractor.train()
                matcher.train()
    finally:
        run_span.finish()
        if guard is not None:
            guard.close()
    result = tracker.finish("noda", extractor, target_test)
    if guard is not None:
        result.events = guard.events
    return result


def train_joint(extractor: FeatureExtractor, matcher: MlpMatcher,
                aligner: FeatureAligner, source: ERDataset,
                target_train: ERDataset, target_valid: ERDataset,
                target_test: ERDataset,
                config: TrainConfig) -> AdaptationResult:
    """Algorithm 1: discrepancy-, GRL-, and reconstruction-based DA.

    ``target_train`` is used unlabeled (labels, if any, are ignored); only
    ``target_valid`` labels steer snapshot selection, per §6.1.
    """
    if aligner.kind != "joint":
        raise ValueError(
            f"aligner {aligner.name!r} must be trained with train_gan")
    if not source.is_labeled:
        raise ValueError("Algorithm 1 needs a labeled source")
    rng = np.random.default_rng(config.seed)
    params = (extractor.parameters() + matcher.parameters()
              + aligner.parameters())
    optimizer = Adam(params, lr=config.learning_rate)
    source_sampler = InfiniteSampler(len(source), config.batch_size, rng)
    target_sampler = InfiniteSampler(len(target_train), config.batch_size, rng)
    tracker = _EpochTracker(matcher, target_valid, config,
                            source_eval=source, target_eval=target_test)
    iterations = _iterations(config, len(source))
    guard = _guardrail(config, {"extractor": extractor, "matcher": matcher,
                                "aligner": aligner}, [optimizer],
                       aligner.name)
    extractor.train()
    matcher.train()
    aligner.train()
    run_span = telemetry.span("train.run", method=aligner.name,
                              algorithm="joint", epochs=config.epochs,
                              iterations=iterations)
    try:
        for epoch in range(config.epochs):
            with telemetry.span("train.epoch", epoch=epoch):
                match_losses, align_losses = [], []
                with telemetry.span("train.phase", phase="steps"):
                    for step in range(iterations):
                        with telemetry.span("train.step", step=step):
                            pairs_s, labels = _source_batch(source,
                                                            source_sampler)
                            idx_t = target_sampler.next_batch()
                            pairs_t = [target_train.pairs[int(i)]
                                       for i in idx_t]

                            ids_s, mask_s = extractor.batch_ids(pairs_s)
                            ids_t, mask_t = extractor.batch_ids(pairs_t)
                            features_s = extractor.encode(ids_s, mask_s)
                            features_t = extractor.encode(ids_t, mask_t)

                            matching_loss = F.cross_entropy(
                                matcher(features_s), labels)
                            alignment_loss = aligner.alignment_loss(
                                AlignmentBatch(
                                    source_features=features_s,
                                    target_features=features_t,
                                    source_ids=ids_s, source_mask=mask_s,
                                    target_ids=ids_t, target_mask=mask_t,
                                    extractor=extractor))
                            total = matching_loss + alignment_loss * config.beta

                            optimizer.zero_grad()
                            total.backward()
                            if guard is not None and not guard.observe(
                                    total.item(), epoch, step, params):
                                # rolled back + LR halved; skip the bad step
                                continue
                            clip_grad_norm(params, config.clip_norm)
                            optimizer.step()
                            match_losses.append(matching_loss.item())
                            align_losses.append(alignment_loss.item())
                with telemetry.span("train.phase", phase="evaluate"):
                    tracker.end_epoch(epoch, extractor, _mean(match_losses),
                                      _mean(align_losses))
                if guard is not None:
                    guard.snapshot(epoch)
                extractor.train()
                matcher.train()
                aligner.train()
    finally:
        run_span.finish()
        if guard is not None:
            guard.close()
    result = tracker.finish(aligner.name, extractor, target_test)
    if guard is not None:
        result.events = guard.events
    return result


def train_gan(extractor: FeatureExtractor, matcher: MlpMatcher,
              aligner: FeatureAligner, source: ERDataset,
              target_train: ERDataset, target_valid: ERDataset,
              target_test: ERDataset,
              config: TrainConfig) -> AdaptationResult:
    """Algorithm 2: InvGAN / InvGAN+KD adversarial adaptation.

    Step 1 trains (F, M) on the source; step 2 clones F' from F and
    alternates discriminator updates (Eq. 10 / 13) with inverted-label
    generator updates (Eq. 11 / 14), keeping F and M frozen.  Returns the
    best (F', M) snapshot by target-validation F1.
    """
    if aligner.kind != "gan":
        raise ValueError(
            f"aligner {aligner.name!r} must be trained with train_joint")
    if not source.is_labeled:
        raise ValueError("Algorithm 2 needs a labeled source")
    rng = np.random.default_rng(config.seed)

    # ---- Step 1: source pre-training of F and M (Algorithm 2, lines 2-7).
    params = extractor.parameters() + matcher.parameters()
    optimizer = Adam(params, lr=config.learning_rate)
    sampler = InfiniteSampler(len(source), config.batch_size, rng)
    iterations = _iterations(config, len(source))
    pre_guard = _guardrail(config, {"extractor": extractor,
                                    "matcher": matcher}, [optimizer],
                           f"{aligner.name}-pretrain")
    extractor.train()
    matcher.train()
    run_span = telemetry.span("train.run", method=aligner.name,
                              algorithm="gan", epochs=config.epochs,
                              pretrain_epochs=config.pretrain_epochs,
                              iterations=iterations)
    try:
        with telemetry.span("train.phase", phase="pretrain"):
            for pre_epoch in range(config.pretrain_epochs):
                with telemetry.span("train.epoch", epoch=pre_epoch):
                    for step in range(iterations):
                        with telemetry.span("train.step", step=step):
                            pairs, labels = _source_batch(source, sampler)
                            optimizer.zero_grad()
                            loss = F.cross_entropy(
                                matcher(extractor(pairs)), labels)
                            loss.backward()
                            if pre_guard is not None and not pre_guard.observe(
                                    loss.item(), pre_epoch, step, params):
                                # rolled back + LR halved; skip the bad step
                                continue
                            clip_grad_norm(params, config.clip_norm)
                            optimizer.step()
                    if pre_guard is not None:
                        pre_guard.snapshot(pre_epoch)
    finally:
        if pre_guard is not None:
            pre_guard.close()

    # ---- Step 2: adversarial adaptation of the clone F' (lines 8-16).
    adapted = copy.deepcopy(extractor)
    use_kd = getattr(aligner, "use_kd", False)
    disc_optimizer = Adam(aligner.parameters(),
                          lr=config.learning_rate * config.beta
                          if config.beta > 0 else config.learning_rate)
    gen_optimizer = Adam(adapted.parameters(),
                         lr=config.learning_rate * config.beta
                         if config.beta > 0 else config.learning_rate)
    source_sampler = InfiniteSampler(len(source), config.batch_size, rng)
    target_sampler = InfiniteSampler(len(target_train), config.batch_size, rng)
    tracker = _EpochTracker(matcher, target_valid, config,
                            source_eval=source, target_eval=target_test)
    guard = _guardrail(config, {"adapted": adapted, "aligner": aligner},
                       [disc_optimizer, gen_optimizer], aligner.name)
    extractor.eval()  # the teacher F stays frozen
    matcher.eval()
    adapted.train()
    aligner.train()
    try:
        for epoch in range(config.epochs):
            with telemetry.span("train.epoch", epoch=epoch):
                disc_losses, gen_losses = [], []
                with telemetry.span("train.phase", phase="steps"):
                    for step in range(iterations):
                        with telemetry.span("train.step", step=step):
                            pairs_s, __labels = _source_batch(source,
                                                              source_sampler)
                            idx_t = target_sampler.next_batch()
                            pairs_t = [target_train.pairs[int(i)]
                                       for i in idx_t]

                            # -- discriminator step (Eq. 10 for InvGAN,
                            # Eq. 13 for +KD)
                            if use_kd:
                                real = adapted(pairs_s).detach()
                            else:
                                real = extractor(pairs_s).detach()
                            fake = adapted(pairs_t).detach()
                            disc_optimizer.zero_grad()
                            disc_loss = aligner.discriminator_loss(real, fake)
                            disc_loss.backward()
                            if guard is None or guard.observe(
                                    disc_loss.item(), epoch, step,
                                    aligner.parameters()):
                                clip_grad_norm(aligner.parameters(),
                                               config.clip_norm)
                                disc_optimizer.step()
                                disc_losses.append(disc_loss.item())

                            # -- generator step (Eq. 11 for InvGAN,
                            # Eq. 14 for +KD)
                            gen_optimizer.zero_grad()
                            fake_live = adapted(pairs_t)
                            gen_loss = aligner.generator_loss(fake_live)
                            if use_kd:
                                teacher_logits = matcher(
                                    extractor(pairs_s)).detach()
                                student_logits = matcher(adapted(pairs_s))
                                gen_loss = gen_loss + aligner.kd_loss(
                                    Tensor(teacher_logits.data),
                                    student_logits)
                            gen_loss.backward()
                            if guard is None or guard.observe(
                                    gen_loss.item(), epoch, step,
                                    adapted.parameters()):
                                clip_grad_norm(adapted.parameters(),
                                               config.clip_norm)
                                gen_optimizer.step()
                                gen_losses.append(gen_loss.item())
                            # A and M accumulated pass-through gradients; drop
                            # them so the next discriminator step starts clean.
                            aligner.zero_grad()
                            matcher.zero_grad()
                            extractor.zero_grad()
                with telemetry.span("train.phase", phase="evaluate"):
                    tracker.end_epoch(epoch, adapted, _mean(gen_losses),
                                      _mean(disc_losses))
                if guard is not None:
                    guard.snapshot(epoch)
                adapted.train()
                matcher.eval()
    finally:
        run_span.finish()
        if guard is not None:
            guard.close()
    result = tracker.finish(aligner.name, adapted, target_test)
    if guard is not None:
        result.events = guard.events
        if pre_guard is not None:
            result.events = pre_guard.events + guard.events
    return result
