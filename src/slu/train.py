"""Staged training: speech-branch pretraining, fine-tuning, then joint tuning.

Plain (or momentum) SGD, one utterance per step, with seeded shuffling so the
loss curve is reproducible bit for bit.  During the joint stage the train-set
decode metrics can be polled every few epochs and training stops early once
the configured targets are met.  A poll decodes the corpus with
``decode_corpus`` and scores it with ``metrics.score_report``, as ``slu
decode`` and ``slu score`` do: its logged ``slots_edit_f1`` is the report's
``slots_edit_f1.f1`` and its ``intent_accuracy`` the report's ``intent_f1``.
"""

from __future__ import annotations

import itertools
import logging
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .audio import FeatureConfig, log_power_features, record_clip
from .data import Manifest
from .decode import decode_corpus
from .errors import NumericError, SluError, ValidationError
from .metrics import score_report
from .model import Example, JointModel, MODE_E2E, MODE_TWO_STAGE

log = logging.getLogger(__name__)

STAGE_ASR_PRETRAIN = "asr_pretrain"
STAGE_ASR_FINETUNE = "asr_finetune"
STAGE_JOINT_FINETUNE = "joint_finetune"
_STAGES = (STAGE_ASR_PRETRAIN, STAGE_ASR_FINETUNE, STAGE_JOINT_FINETUNE)


@dataclass
class StageConfig:
    stage: str
    epochs: int
    lr: float
    momentum: float = 0.0
    eval_every: int = 0
    target_slots_f1: float | None = None
    target_intent_acc: float | None = None

    def __post_init__(self):
        if self.stage not in _STAGES:
            raise ValidationError(f"unknown stage {self.stage!r}, expected one of {_STAGES}")
        if self.epochs < 0 or self.eval_every < 0:
            raise ValidationError("epochs and eval_every must be >= 0")
        if not 0 < self.lr < math.inf:
            raise ValidationError(f"lr must be finite and > 0, got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise ValidationError(f"momentum must be in [0, 1), got {self.momentum}")
        if (self.target_slots_f1 is None) != (self.target_intent_acc is None):
            raise ValidationError("target_slots_f1 and target_intent_acc must be set together")
        for name, value in (("target_slots_f1", self.target_slots_f1), ("target_intent_acc", self.target_intent_acc)):
            if value is not None and not 0 <= value <= 1:
                raise ValidationError(f"{name} must be in [0, 1], got {value}")
        targets = self.target_slots_f1 is not None
        if self.stage != STAGE_JOINT_FINETUNE and (self.eval_every or targets):
            raise ValidationError(
                f"stage {self.stage!r}: eval_every and early-stop targets apply only to {STAGE_JOINT_FINETUNE}"
            )
        if targets and not self.eval_every:
            raise ValidationError("early-stop targets need eval_every >= 1 to be polled")


@dataclass
class TrainConfig:
    seed: int = 0
    beam_size: int = 5
    mode: str = MODE_E2E
    stages: list[StageConfig] = field(default_factory=list)

    def __post_init__(self):
        if self.seed < 0 or self.beam_size < 1:
            raise ValidationError("seed must be >= 0 and beam_size >= 1")
        if self.mode not in (MODE_E2E, MODE_TWO_STAGE):
            raise ValidationError(f"unknown mode {self.mode!r}")


def corpus_features(manifest: Manifest, feature: FeatureConfig) -> list[np.ndarray]:
    return [log_power_features(record_clip(rec, manifest.base_dir), feature) for rec in manifest.records]


def _examples(model: JointModel, records, features, labelled: bool) -> list[Example]:
    examples = []
    for rec, feats in zip(records, features):
        labels = (rec.slots, rec.intent) if labelled else ()
        try:
            examples.append(model.prepare(model.subsample(feats), rec.words, *labels))
        except SluError as exc:
            raise ValidationError(f"record {rec.id!r}: {exc}") from exc
    return examples


class _Sgd:
    """Plain or momentum SGD over one flat float64 buffer.

    On construction the parameters are copied, in ``params`` order, into one
    buffer, and each ``Tensor.data`` is rebound to a reshaped view of it; the
    velocity is a second buffer, with ``velocity`` mapping each name to its
    view.  A step updates the views in place, so the model's next pass,
    a decoding poll too, reads the new values; a ``data`` rebound after the
    optimizer was built would miss its updates, so a step refuses it.
    """

    def __init__(self, params, lr: float, momentum: float):
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self._tensors = list(params.values())
        self._views = []
        self._bounds = list(itertools.accumulate((t.data.size for t in self._tensors), initial=0))
        self._data = np.empty(self._bounds[-1])
        self._velocity = np.zeros(self._bounds[-1])
        self.velocity = {}
        for (name, t), lo, hi in zip(params.items(), self._bounds, self._bounds[1:]):
            view = self._data[lo:hi].reshape(t.data.shape)
            view[...] = t.data
            t.data = view
            self._views.append(view)
            self.velocity[name] = self._velocity[lo:hi].reshape(view.shape)

    def _runs(self) -> list[tuple[int, int]]:
        """The ``[i, j)`` index ranges of the longest runs of parameters that have a gradient;
        raises ``ValidationError`` for the first parameter whose ``data`` is no longer its view."""
        runs, start = [], None
        for i, (name, t, view) in enumerate(zip(self.params, self._tensors, self._views)):
            if t.data is not view:
                raise ValidationError(f"parameter {name!r} was rebound after its optimizer was built")
            if t.grad is None:
                if start is not None:
                    runs.append((start, i))
                    start = None
            elif start is None:
                start = i
        if start is not None:
            runs.append((start, len(self._tensors)))
        return runs

    def step(self) -> None:
        """``v = momentum * v - lr * grad; data += v`` for each parameter with a
        gradient, one run of them at a time; the others keep their value and
        velocity.  All or nothing: a non-finite gradient anywhere raises before
        any parameter or velocity is written, naming the first such parameter;
        so does a parameter whose ``data`` was rebound after this optimizer was built."""
        runs = [(i, j, np.concatenate([t.grad for t in self._tensors[i:j]], axis=None)) for i, j in self._runs()]
        if not all(np.isfinite(grad).all() for _, _, grad in runs):
            name = next(n for n, t in self.params.items() if t.grad is not None and not np.isfinite(t.grad).all())
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        for i, j, grad in runs:
            lo, hi = self._bounds[i], self._bounds[j]
            v = self._velocity[lo:hi]
            v *= self.momentum
            v -= self.lr * grad
            self._data[lo:hi] += v


def train(
    model: JointModel,
    manifest: Manifest,
    config: TrainConfig,
    feature: FeatureConfig = FeatureConfig(),
    pretrain_manifest: Manifest | None = None,
) -> list[dict]:
    """Run the staged schedule in order; returns one log row per epoch.

    Each record is prepared once, before the first step.  The speech-branch
    stages optimize the transcript loss only; the joint stage optimizes the
    full sum.  ``pretrain_manifest`` (when given, labels unread) feeds the
    first stage, mirroring pretraining on an external transcribed corpus.
    Each stage builds its ``_Sgd`` over ``model.params``, which rebinds every
    parameter's ``data`` to a view of that optimizer's flat buffer: the
    tensors stay the model's, and end the run holding views.
    """
    if not model.params:
        model.init_params(config.seed)
    records = manifest.records
    if not records:
        raise ValidationError("cannot train on an empty manifest")
    if pretrain_manifest is not None and STAGE_ASR_PRETRAIN not in [s.stage for s in config.stages]:
        raise ValidationError(f"a pretraining manifest is read only by an {STAGE_ASR_PRETRAIN} stage; none is configured")
    if pretrain_manifest is not None and not pretrain_manifest.records:
        raise ValidationError("cannot pretrain on an empty pretraining manifest")
    features = corpus_features(manifest, feature)
    examples = pre_examples = _examples(model, records, features, labelled=True)
    if pretrain_manifest is not None:
        pre_features = corpus_features(pretrain_manifest, feature)
        pre_examples = _examples(model, pretrain_manifest.records, pre_features, labelled=False)

    history: list[dict] = []
    stop_asr = config.mode == MODE_TWO_STAGE
    for stage_idx, stage in enumerate(config.stages):
        data = pre_examples if stage.stage == STAGE_ASR_PRETRAIN else examples
        opt = _Sgd(model.params, stage.lr, stage.momentum)
        for epoch in range(stage.epochs):
            order = list(range(len(data)))
            random.Random(f"{config.seed}:{stage_idx}:{epoch}").shuffle(order)
            total = 0.0
            for i in order:
                ex = data[i]
                model.zero_grads()
                if stage.stage == STAGE_JOINT_FINETUNE:
                    out = model.forward(ex, stop_asr_grad=stop_asr)
                    loss = model.loss_asr(out.asr_logits, ex.asr_targets) + model.loss_nlu(
                        out.slot_scores, out.intent_logits, ex.tag_ids, ex.intent_id
                    )
                else:
                    _, asr_logits = model.teacher_forced(ex)
                    loss = model.loss_asr(asr_logits, ex.asr_targets)
                loss.backward()
                opt.step()
                total += loss.item()
            mean_loss = total / len(data)
            if not np.isfinite(mean_loss):
                raise NumericError(
                    f"training diverged: loss {mean_loss} in stage {stage.stage} epoch {epoch}"
                )
            row = {"stage": stage.stage, "epoch": epoch, "loss": mean_loss}
            polling = stage.eval_every and (epoch + 1) % stage.eval_every == 0
            if polling:
                hyps = decode_corpus(model, records, features, config.beam_size)
                report = score_report(records, hyps, ("slots-edit-f1", "intent-f1"))
                row.update(slots_edit_f1=report["slots_edit_f1"]["f1"], intent_accuracy=report["intent_f1"])
                log.info(
                    "stage %s epoch %d loss %.4f slots_edit_f1 %.3f intent_acc %.3f",
                    stage.stage, epoch, mean_loss,
                    row["slots_edit_f1"], row["intent_accuracy"],
                )
            history.append(row)
            if (
                polling
                and stage.target_slots_f1 is not None  # StageConfig sets both targets or neither
                and row["slots_edit_f1"] >= stage.target_slots_f1
                and row["intent_accuracy"] >= stage.target_intent_acc
            ):
                log.info("targets reached, stopping stage %s early", stage.stage)
                break
    return history
