"""Desk-scale joint speech understanding model.

Two branches share one loss: a feature encoder with a teacher-forced subword
decoder produces per-subword states and transcript logits; a word-embedding
plus single self-attention layer produces states for a second tokenization.
Each branch keeps the state of every word's first subword (the BERT
convention), and the two are concatenated; intent and slot heads read the
concatenated rows.  The slot head is a per-token linear layer or a linear
layer plus CRF.

All tensors are float64 so finite-difference gradient checks are meaningful.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .audio import FeatureConfig
from .autodiff import Tensor, concat, linear, nll_rows, softmax_rows
from .crf import crf_nll_t, crf_viterbi
from .errors import DimensionError, ValidationError, check_field_types
from .ioutil import atomic_write_text, read_json_object
from .subword import SubwordVocab, TokenizationResult, tokenize

CHECKPOINT_VERSION = 1

HEAD_LINEAR = "linear"
HEAD_CRF = "crf"

MODE_E2E = "e2e"
MODE_TWO_STAGE = "two_stage"


@dataclass
class ModelConfig:
    feature_dim: int
    asr_hidden: int = 16
    nlu_hidden: int = 16
    subsample_stride: int = 3
    slot_head: str = HEAD_LINEAR
    max_positions: int = 64
    label_smoothing: float = 0.1

    def __post_init__(self):
        check_field_types(self)
        if min(self.feature_dim, self.asr_hidden, self.nlu_hidden, self.max_positions) < 1:
            raise ValidationError("feature_dim, asr_hidden, nlu_hidden and max_positions must be >= 1")
        if self.slot_head not in (HEAD_LINEAR, HEAD_CRF):
            raise ValidationError(f"unknown slot head {self.slot_head!r}")
        if self.subsample_stride < 1:
            raise ValidationError("subsample stride must be >= 1")


@dataclass(frozen=True)
class Example:
    """One utterance as the model reads it, built once by ``JointModel.prepare``."""

    frames: np.ndarray  # (subsampled frames, feature_dim), the encoder input
    asr_inputs: list[int]  # BOS + ASR subword ids, the teacher-forced decoder input
    asr_targets: list[int]  # ASR subword ids + EOS
    nlu_ids: list[int]
    first_a: list[int]  # each word's first ASR subword
    first_b: list[int]  # each word's first NLU subword
    tag_ids: list[int]  # one per word; empty for a decoded hypothesis
    intent_id: int | None


@dataclass
class ForwardOutputs:
    ha: Tensor  # (asr subwords, asr_hidden)
    hb: Tensor  # (nlu subwords, nlu_hidden)
    hcat: Tensor  # (words, asr_hidden + nlu_hidden)
    asr_logits: Tensor  # (asr subwords + 1, asr output vocab), last row predicts EOS
    slot_scores: Tensor  # (words, num_tags)
    intent_logits: Tensor  # (1, num_intents)


def subsample_features(features: np.ndarray, stride: int) -> np.ndarray:
    """Strided mean-pooling over time; output length is ceil(T / stride)."""
    features = np.asarray(features, dtype=np.float64)
    if stride < 1:
        raise ValidationError(f"stride must be >= 1, got {stride}")
    t = features.shape[0]
    full = t - t % stride  # frames in complete groups; a shorter last group is pooled on its own
    pooled = features[:full].reshape((full // stride, stride) + features.shape[1:]).mean(axis=1)
    if full == t:
        return pooled
    return np.concatenate([pooled, features[full:].mean(axis=0, keepdims=True)])


class JointModel:
    """Parameter container plus forward/loss graph builders.

    Every pass reads ``self.params``; decoding runs on ``frozen()``, a view
    whose parameters are detached, so it records no graph.
    """

    def __init__(
        self,
        config: ModelConfig,
        asr_vocab: SubwordVocab,
        nlu_vocab: SubwordVocab,
        slot_tags: list[str],
        intents: list[str],
    ):
        self.config = config
        self.asr_vocab = asr_vocab
        self.nlu_vocab = nlu_vocab
        self.slot_tags = list(slot_tags)
        self.intents = list(intents)

        self.asr_pieces = asr_vocab.sorted_pieces()
        self.eos_id = len(self.asr_pieces)
        self.bos_id = len(self.asr_pieces) + 1
        self._asr_piece_id = {p: i for i, p in enumerate(self.asr_pieces)}
        self.nlu_pieces = nlu_vocab.sorted_pieces()
        self._nlu_piece_id = {p: i for i, p in enumerate(self.nlu_pieces)}
        self._tag_id = {t: i for i, t in enumerate(self.slot_tags)}
        self._intent_id = {t: i for i, t in enumerate(self.intents)}
        self.params: dict[str, Tensor] = {}

    # -- vocabulary plumbing ------------------------------------------------

    @property
    def asr_output_size(self) -> int:
        return len(self.asr_pieces) + 1  # pieces + EOS

    def asr_tokens(self, ids) -> list[str]:
        return [self.asr_pieces[i] for i in ids]

    def tag_ids(self, slots) -> list[int]:
        try:
            return [self._tag_id[t] for t in slots]
        except KeyError as exc:
            raise ValidationError(f"slot tag {exc.args[0]!r} not in tag set") from exc

    def intent_id(self, intent: str) -> int:
        try:
            return self._intent_id[intent]
        except KeyError as exc:
            raise ValidationError(f"intent {intent!r} not in intent set") from exc

    # -- parameters -----------------------------------------------------------

    def init_params(self, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        cfg = self.config
        fa, fb = cfg.asr_hidden, cfg.nlu_hidden
        fcat = fa + fb
        n_tags, n_intents = len(self.slot_tags), len(self.intents)

        def mat(rows, cols, scale=None):
            scale = scale if scale is not None else 1.0 / math.sqrt(max(rows, 1))
            return Tensor(rng.normal(0.0, scale, size=(rows, cols)), requires_grad=True)

        def vec(size):
            return Tensor(np.zeros(size), requires_grad=True)

        p = {
            "asr.enc_w": mat(cfg.feature_dim, fa),
            "asr.enc_b": vec(fa),
            "asr.enc_pos": mat(cfg.max_positions, fa, scale=0.1),
            "asr.emb": mat(len(self.asr_pieces) + 2, fa),
            "asr.dec_pos": mat(cfg.max_positions, fa, scale=0.1),
            "asr.attn_q": mat(fa, fa),
            "asr.dec_w": mat(2 * fa, fa),
            "asr.dec_b": vec(fa),
            "asr.out_w": mat(fa, self.asr_output_size),
            "asr.out_b": vec(self.asr_output_size),
            "nlu.emb": mat(len(self.nlu_pieces), fb),
            "nlu.pos": mat(cfg.max_positions, fb, scale=0.1),
            "nlu.attn_q": mat(fb, fb),
            "nlu.attn_k": mat(fb, fb),
            "nlu.attn_v": mat(fb, fb),
            "nlu.ff_w": mat(fb, fb),
            "nlu.ff_b": vec(fb),
            "ic.sentinel": mat(1, fcat, scale=0.1),
            "ic.w": mat(fcat, n_intents),
            "ic.b": vec(n_intents),
            "sl.w": mat(fcat, n_tags),
            "sl.b": vec(n_tags),
        }
        if cfg.slot_head == HEAD_CRF:
            p["sl.trans"] = mat(n_tags, n_tags, scale=0.1)
            p["sl.start"] = Tensor(rng.normal(0.0, 0.1, size=n_tags), requires_grad=True)
            p["sl.end"] = Tensor(rng.normal(0.0, 0.1, size=n_tags), requires_grad=True)
        self.params = p

    def frozen(self) -> "JointModel":
        """A shallow copy whose parameters are detached: its passes record no graph."""
        view = copy.copy(self)
        view.params = {name: t.detach() for name, t in self.params.items()}
        return view

    def zero_grads(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    def param_blocks(self) -> dict[str, list[str]]:
        blocks: dict[str, list[str]] = {}
        for name in self.params:
            blocks.setdefault(name.split(".", 1)[0], []).append(name)
        return blocks

    # -- examples ---------------------------------------------------------

    def subsample(self, features: np.ndarray) -> np.ndarray:
        """The encoder input for one utterance's features, checked against the config."""
        cfg = self.config
        frames = subsample_features(features, cfg.subsample_stride)
        if frames.shape[1] != cfg.feature_dim:
            raise DimensionError(f"feature dim {frames.shape[1]} != configured {cfg.feature_dim}")
        if frames.shape[0] > cfg.max_positions:
            raise DimensionError(f"{frames.shape[0]} frames exceed max_positions {cfg.max_positions}")
        return frames

    def prepare(self, frames: np.ndarray, words, slots=None, intent=None, tok_a=None) -> Example:
        """The ``Example`` for ``subsample``'d frames and their transcript, with
        ``tok_a`` when the caller has it (a decoded hypothesis) and label ids
        when ``slots`` and ``intent`` are given."""
        words = list(words)
        if not words:
            raise ValidationError("an example needs at least one word")
        if tok_a is None:
            tok_a = tokenize(words, self.asr_vocab)
        else:  # checked again, on a copy: the caller's lists may have changed since
            tok_a = TokenizationResult(list(tok_a.tokens), list(tok_a.first_index))
        if tok_a.num_words != len(words):
            raise DimensionError(f"ASR tokenization has {tok_a.num_words} words, transcript {len(words)}")
        tok_b = tokenize(words, self.nlu_vocab)
        ids_a = [self._asr_piece_id[t] for t in tok_a.tokens]  # tokenizers emit vocabulary pieces only
        if len(ids_a) + 1 > self.config.max_positions:
            raise DimensionError("utterance exceeds max decoder positions")
        return Example(
            frames=frames,
            asr_inputs=[self.bos_id] + ids_a,
            asr_targets=ids_a + [self.eos_id],
            nlu_ids=[self._nlu_piece_id[t] for t in tok_b.tokens],
            first_a=tok_a.first_index,
            first_b=tok_b.first_index,
            tag_ids=[] if slots is None else self.tag_ids(slots),
            intent_id=None if intent is None else self.intent_id(intent),
        )

    # -- forward pieces ---------------------------------------------------

    def encode_features(self, frames: np.ndarray) -> Tensor:
        """Encoder rows for ``subsample``'d frames."""
        p = self.params
        pos = p["asr.enc_pos"].gather_rows(list(range(frames.shape[0])))
        return (linear(frames, p["asr.enc_w"], p["asr.enc_b"]) + pos).tanh()

    def decoder_states(self, prev_ids: list[int], steps: list[int], enc: Tensor) -> tuple[Tensor, Tensor]:
        """Hidden rows and logits for decoder steps given previous-token ids."""
        p = self.params
        emb = p["asr.emb"].gather_rows(prev_ids) + p["asr.dec_pos"].gather_rows(steps)
        q = emb @ p["asr.attn_q"]
        scores = (q @ enc.T) * (1.0 / math.sqrt(self.config.asr_hidden))
        ctx = softmax_rows(scores) @ enc
        hidden = linear(concat([emb, ctx], axis=1), p["asr.dec_w"], p["asr.dec_b"]).tanh()
        logits = linear(hidden, p["asr.out_w"], p["asr.out_b"])
        return hidden, logits

    def nlu_states(self, ids_b: list[int]) -> Tensor:
        p = self.params
        emb = p["nlu.emb"].gather_rows(ids_b) + p["nlu.pos"].gather_rows(list(range(len(ids_b))))
        att = softmax_rows(
            (emb @ p["nlu.attn_q"]) @ (emb @ p["nlu.attn_k"]).T
            * (1.0 / math.sqrt(self.config.nlu_hidden))
        )
        ctx = att @ (emb @ p["nlu.attn_v"])
        return linear(emb + ctx, p["nlu.ff_w"], p["nlu.ff_b"]).tanh()

    def intent_logits_from(self, hcat_rows: list[Tensor]) -> Tensor:
        p = self.params
        pooled = concat([p["ic.sentinel"], *hcat_rows], axis=0).mean(axis=0, keepdims=True)
        return linear(pooled, p["ic.w"], p["ic.b"])

    def teacher_forced(self, example: Example, enc: Tensor | None = None) -> tuple[Tensor, Tensor]:
        """Decoder rows and transcript logits with the transcript fed in: all
        that the speech-branch stages build.  ``enc`` is the encoding of
        ``example.frames`` when the caller already has it.
        """
        if enc is None:
            enc = self.encode_features(example.frames)
        return self.decoder_states(example.asr_inputs, list(range(len(example.asr_inputs))), enc)

    def forward(self, example: Example, stop_asr_grad: bool = False, enc: Tensor | None = None) -> ForwardOutputs:
        """Teacher-forced pass over one example, up to slot scores and intent logits.

        The transcript is the ground truth in training, the top-1 beam
        hypothesis in decoding (which passes its ``enc``).  With
        ``stop_asr_grad`` the concatenation reads a detached copy of the
        decoder states, so slot/intent errors cannot reach the speech branch
        (the 2-stage baseline).  Transcript logits are unaffected by the flag.
        """
        h_dec, asr_logits = self.teacher_forced(example, enc)
        ha = h_dec.gather_rows(list(range(len(example.asr_targets) - 1)))
        hb = self.nlu_states(example.nlu_ids)

        # first_a indexes the subword rows of h_dec, whose extra last row only predicts EOS;
        # gathering there rather than from ha keeps ha's gather out of the backward pass
        h_nlu = h_dec.detach() if stop_asr_grad else h_dec
        hcat = concat([h_nlu.gather_rows(example.first_a), hb.gather_rows(example.first_b)], axis=1)
        slot_scores = linear(hcat, self.params["sl.w"], self.params["sl.b"])
        intent_logits = self.intent_logits_from([hcat])
        return ForwardOutputs(ha, hb, hcat, asr_logits, slot_scores, intent_logits)

    # -- losses ----------------------------------------------------------

    def loss_asr(self, asr_logits: Tensor, targets: list[int]) -> Tensor:
        """Mean per-token negative log-likelihood with label smoothing."""
        return nll_rows(asr_logits, targets, self.config.label_smoothing).mean()

    def loss_nlu(self, slot_scores: Tensor, intent_logits: Tensor, tag_ids: list[int], intent_id: int) -> Tensor:
        """Slot sequence NLL (per-token sum or CRF) plus intent NLL."""
        p = self.params
        n = slot_scores.shape[0]
        if n != len(tag_ids):
            raise DimensionError(f"{n} slot score rows vs {len(tag_ids)} tags")
        if self.config.slot_head == HEAD_CRF:
            slot_term = crf_nll_t(slot_scores, tag_ids, p["sl.trans"], p["sl.start"], p["sl.end"])
        else:
            slot_term = nll_rows(slot_scores, tag_ids).sum()
        return slot_term + nll_rows(intent_logits, [intent_id]).sum()

    def decode_slots(self, slot_scores: Tensor) -> list[str]:
        """One tag per word: the Viterbi path under the CRF head, else each row's argmax."""
        scores, p = slot_scores.data, self.params
        if self.config.slot_head == HEAD_CRF:
            tag_ids = crf_viterbi(scores, p["sl.trans"].data, p["sl.start"].data, p["sl.end"].data)
        else:
            tag_ids = scores.argmax(axis=1)
        return [self.slot_tags[i] for i in tag_ids]

    # -- checkpointing ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format_version": CHECKPOINT_VERSION,
            "model": asdict(self.config),
            "asr_vocab": {"kind": self.asr_vocab.kind, "pieces": self.asr_vocab.sorted_pieces(), "unk": self.asr_vocab.unk},
            "nlu_vocab": {"kind": self.nlu_vocab.kind, "pieces": self.nlu_vocab.sorted_pieces(), "unk": self.nlu_vocab.unk},
            "slot_tags": self.slot_tags,
            "intents": self.intents,
            "params": {
                name: {"shape": list(t.data.shape), "data": t.data.ravel().tolist()}
                for name, t in self.params.items()
            },
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "JointModel":
        version = obj.get("format_version")
        if version != CHECKPOINT_VERSION:
            raise ValidationError(f"unsupported checkpoint version {version!r}")
        fields = dict(obj["model"])
        pooling = fields.pop("word_pooling", "first")  # older checkpoints store the then-default "first"
        if pooling != "first":
            raise ValidationError(f"model.word_pooling {pooling!r} is not supported, only 'first'")
        model = cls(
            ModelConfig(**fields),
            SubwordVocab.create(obj["asr_vocab"]["kind"], obj["asr_vocab"]["pieces"], obj["asr_vocab"]["unk"]),
            SubwordVocab.create(obj["nlu_vocab"]["kind"], obj["nlu_vocab"]["pieces"], obj["nlu_vocab"]["unk"]),
            obj["slot_tags"],
            obj["intents"],
        )
        model.init_params()  # the names and shapes this config expects
        stored = obj["params"]
        if set(stored) != set(model.params):
            name = min(set(stored) ^ set(model.params))
            raise ValidationError(f"{'missing' if name in model.params else 'unexpected'} parameter {name!r}")
        for name, expected in model.params.items():
            shape = stored[name]["shape"]
            if shape != list(expected.shape):
                raise ValidationError(f"parameter {name!r}: shape {shape} != expected {list(expected.shape)}")
            try:
                arr = np.asarray(stored[name]["data"], dtype=np.float64).reshape(expected.shape)
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"parameter {name!r}: bad data: {exc}") from exc
            if not np.isfinite(arr).all():
                raise ValidationError(f"parameter {name!r}: non-finite data")
            model.params[name] = Tensor(arr, requires_grad=True)
        return model


def save_checkpoint(
    model: JointModel,
    path: str | Path,
    feature: FeatureConfig | None = None,
    beam_size: int = 5,
) -> None:
    obj = model.to_dict()
    obj["feature"] = asdict(feature or FeatureConfig(num_bands=model.config.feature_dim))
    obj["beam_size"] = beam_size
    atomic_write_text(path, json.dumps(obj))


def load_checkpoint(path: str | Path) -> tuple[JointModel, FeatureConfig, int]:
    obj = read_json_object(path)
    try:
        model = JointModel.from_dict(obj)
        feature = FeatureConfig(**obj.get("feature", {}))
        beam_size = obj.get("beam_size", 5)
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise ValidationError(f"{path}: malformed checkpoint: {exc}") from exc
    if isinstance(beam_size, bool) or not isinstance(beam_size, int):
        raise ValidationError(f"{path}: beam_size must be int, got {type(beam_size).__name__}")
    if beam_size < 1:
        raise ValidationError(f"{path}: beam_size must be >= 1, got {beam_size}")
    if feature.num_bands != model.config.feature_dim:
        raise ValidationError(
            f"{path}: feature.num_bands {feature.num_bands} != model.feature_dim {model.config.feature_dim}"
        )
    return model, feature, beam_size
