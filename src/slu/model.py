"""Desk-scale joint speech understanding model.

Two branches share one loss: a feature encoder with a teacher-forced subword
decoder produces per-subword states and transcript logits; a word-embedding
plus single self-attention layer produces states for a second tokenization.
Both are projected to word level through their first-index matrices and
concatenated; intent and slot heads read the concatenated rows.  The slot
head is a per-token linear layer or a linear layer plus CRF.

All tensors are float64 so finite-difference gradient checks are meaningful.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .audio import FeatureConfig
from .autodiff import Tensor, concat, linear, nll_rows, softmax_rows, wrap
from .crf import crf_nll_t
from .errors import DimensionError, ValidationError, check_field_types
from .ioutil import atomic_write_text, read_json_object
from .subword import (
    POOL_FIRST,
    POOL_LAST,
    POOL_MEAN,
    SubwordVocab,
    TokenizationResult,
    pooling_matrix,
    tokenize,
)

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
    word_pooling: str = POOL_FIRST  # how subword states map to word states

    def __post_init__(self):
        check_field_types(self)
        if min(self.feature_dim, self.asr_hidden, self.nlu_hidden, self.max_positions) < 1:
            raise ValidationError("feature_dim, asr_hidden, nlu_hidden and max_positions must be >= 1")
        if self.slot_head not in (HEAD_LINEAR, HEAD_CRF):
            raise ValidationError(f"unknown slot head {self.slot_head!r}")
        if self.subsample_stride < 1:
            raise ValidationError("subsample stride must be >= 1")
        if self.word_pooling not in (POOL_FIRST, POOL_LAST, POOL_MEAN):
            raise ValidationError(f"unknown word pooling {self.word_pooling!r}")


@dataclass
class ForwardOutputs:
    ha: Tensor  # (asr subwords, asr_hidden)
    hb: Tensor  # (nlu subwords, nlu_hidden)
    hcat: Tensor  # (words, asr_hidden + nlu_hidden)
    asr_logits: Tensor  # (asr subwords + 1, asr output vocab), last row predicts EOS
    slot_scores: Tensor  # (words, num_tags)
    intent_logits: Tensor  # (1, num_intents)
    asr_targets: list[int] = field(default_factory=list)
    tok_a: TokenizationResult | None = None
    tok_b: TokenizationResult | None = None


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
    """Parameter container plus forward/loss graph builders."""

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

    def asr_ids(self, tokens) -> list[int]:
        try:
            return [self._asr_piece_id[t] for t in tokens]
        except KeyError as exc:
            raise ValidationError(f"subword {exc.args[0]!r} not in ASR vocabulary") from exc

    def asr_tokens(self, ids) -> list[str]:
        return [self.asr_pieces[i] for i in ids]

    def nlu_ids(self, tokens) -> list[int]:
        try:
            return [self._nlu_piece_id[t] for t in tokens]
        except KeyError as exc:
            raise ValidationError(f"subword {exc.args[0]!r} not in NLU vocabulary") from exc

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

    def detached_params(self) -> dict[str, Tensor]:
        return {name: t.detach() for name, t in self.params.items()}

    def zero_grads(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    def param_blocks(self) -> dict[str, list[str]]:
        blocks: dict[str, list[str]] = {}
        for name in self.params:
            blocks.setdefault(name.split(".", 1)[0], []).append(name)
        return blocks

    # -- forward pieces ---------------------------------------------------

    def encode_features(self, features: np.ndarray, params: dict[str, Tensor] | None = None) -> Tensor:
        p = params if params is not None else self.params
        sub = subsample_features(features, self.config.subsample_stride)
        if sub.shape[1] != self.config.feature_dim:
            raise DimensionError(
                f"feature dim {sub.shape[1]} != configured {self.config.feature_dim}"
            )
        frames = sub.shape[0]
        if frames > self.config.max_positions:
            raise DimensionError(
                f"{frames} frames exceed max_positions {self.config.max_positions}"
            )
        pos = p["asr.enc_pos"].gather_rows(list(range(frames)))
        return (linear(sub, p["asr.enc_w"], p["asr.enc_b"]) + pos).tanh()

    def decoder_states(self, prev_ids: list[int], steps: list[int], enc: Tensor, p) -> tuple[Tensor, Tensor]:
        """Hidden rows and logits for decoder steps given previous-token ids."""
        emb = p["asr.emb"].gather_rows(prev_ids) + p["asr.dec_pos"].gather_rows(steps)
        q = emb @ p["asr.attn_q"]
        scores = (q @ enc.T) * (1.0 / math.sqrt(self.config.asr_hidden))
        ctx = softmax_rows(scores) @ enc
        hidden = linear(concat([emb, ctx], axis=1), p["asr.dec_w"], p["asr.dec_b"]).tanh()
        logits = linear(hidden, p["asr.out_w"], p["asr.out_b"])
        return hidden, logits

    def nlu_states(self, ids_b: list[int], p) -> Tensor:
        emb = p["nlu.emb"].gather_rows(ids_b) + p["nlu.pos"].gather_rows(list(range(len(ids_b))))
        att = softmax_rows(
            (emb @ p["nlu.attn_q"]) @ (emb @ p["nlu.attn_k"]).T
            * (1.0 / math.sqrt(self.config.nlu_hidden))
        )
        ctx = att @ (emb @ p["nlu.attn_v"])
        return linear(emb + ctx, p["nlu.ff_w"], p["nlu.ff_b"]).tanh()

    def intent_logits_from(self, hcat_rows: list[Tensor], p) -> Tensor:
        pooled = concat([p["ic.sentinel"], *hcat_rows], axis=0).mean(axis=0, keepdims=True)
        return linear(pooled, p["ic.w"], p["ic.b"])

    def forward(
        self,
        features: np.ndarray,
        words,
        params: dict[str, Tensor] | None = None,
        stop_asr_grad: bool = False,
    ) -> ForwardOutputs:
        """Teacher-forced forward pass over one utterance: encode, then word_states."""
        p = params if params is not None else self.params
        words = list(words)
        if not words:
            raise ValidationError("forward requires at least one word")
        tok_a = tokenize(words, self.asr_vocab)
        return self.word_states(self.encode_features(features, p), tok_a, words, p, stop_asr_grad)

    def word_states(
        self,
        enc: Tensor,
        tok_a: TokenizationResult,
        words: list[str],
        p: dict[str, Tensor],
        stop_asr_grad: bool = False,
    ) -> ForwardOutputs:
        """Word-level states, slot scores and intent logits for one transcript.

        ``tok_a`` is the ASR tokenization of ``words``: the ground truth in
        training, the top-1 beam hypothesis in decoding.  With
        ``stop_asr_grad`` the concatenation reads a detached copy of the
        decoder states, so slot/intent errors cannot reach the speech branch
        (the 2-stage baseline).  Transcript logits are unaffected by the flag.
        """
        tok_b = tokenize(words, self.nlu_vocab)
        ids_a = self.asr_ids(tok_a.tokens)
        ids_b = self.nlu_ids(tok_b.tokens)
        if len(ids_a) + 1 > self.config.max_positions:
            raise DimensionError("utterance exceeds max decoder positions")

        prev = [self.bos_id] + ids_a
        h_dec, asr_logits = self.decoder_states(prev, list(range(len(prev))), enc, p)
        ha = h_dec.gather_rows(list(range(len(ids_a))))
        hb = self.nlu_states(ids_b, p)

        ha_nlu = ha.detach() if stop_asr_grad else ha
        ma = pooling_matrix(tok_a, self.config.word_pooling)
        mb = pooling_matrix(tok_b, self.config.word_pooling)
        hcat = concat([wrap(ma.T) @ ha_nlu, wrap(mb.T) @ hb], axis=1)
        slot_scores = linear(hcat, p["sl.w"], p["sl.b"])
        intent_logits = self.intent_logits_from([hcat], p)
        return ForwardOutputs(
            ha=ha,
            hb=hb,
            hcat=hcat,
            asr_logits=asr_logits,
            slot_scores=slot_scores,
            intent_logits=intent_logits,
            asr_targets=ids_a + [self.eos_id],
            tok_a=tok_a,
            tok_b=tok_b,
        )

    # -- losses ----------------------------------------------------------

    def loss_asr(self, asr_logits: Tensor, targets: list[int], smoothing: float | None = None) -> Tensor:
        """Mean per-token negative log-likelihood with label smoothing."""
        eps = self.config.label_smoothing if smoothing is None else smoothing
        return nll_rows(asr_logits, targets, eps).mean()

    def loss_nlu(
        self,
        slot_scores: Tensor,
        intent_logits: Tensor,
        slots,
        intent: str,
        params: dict[str, Tensor] | None = None,
    ) -> Tensor:
        """Slot sequence NLL (per-token sum or CRF) plus intent NLL.

        The CRF head reads its transition, start and end scores from
        ``params``, the dict the forward pass ran on (default: the model's).
        """
        p = params if params is not None else self.params
        tag_ids = self.tag_ids(slots)
        n = slot_scores.shape[0]
        if n != len(tag_ids):
            raise DimensionError(f"{n} slot score rows vs {len(tag_ids)} tags")
        if self.config.slot_head == HEAD_CRF:
            slot_term = crf_nll_t(slot_scores, tag_ids, p["sl.trans"], p["sl.start"], p["sl.end"])
        else:
            slot_term = nll_rows(slot_scores, tag_ids).sum()
        return slot_term + nll_rows(intent_logits, [self.intent_id(intent)]).sum()

    def loss_slu(
        self,
        features: np.ndarray,
        words,
        slots,
        intent: str,
        stop_asr_grad: bool = False,
        params: dict[str, Tensor] | None = None,
    ) -> tuple[Tensor, Tensor, Tensor]:
        """(total, asr term, nlu term); the total is the exact unweighted sum."""
        out = self.forward(features, words, params, stop_asr_grad)
        asr = self.loss_asr(out.asr_logits, out.asr_targets)
        nlu = self.loss_nlu(out.slot_scores, out.intent_logits, slots, intent, params)
        return asr + nlu, asr, nlu

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
        model = cls(
            ModelConfig(**obj["model"]),
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
    obj["feature"] = asdict(feature or FeatureConfig())
    obj["beam_size"] = beam_size
    atomic_write_text(path, json.dumps(obj))


def load_checkpoint(path: str | Path) -> tuple[JointModel, FeatureConfig, int]:
    obj = read_json_object(path)
    try:
        model = JointModel.from_dict(obj)
        feature = FeatureConfig(**obj.get("feature", {}))
        beam_size = int(obj.get("beam_size", 5))
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise ValidationError(f"{path}: malformed checkpoint: {exc}") from exc
    if beam_size < 1:
        raise ValidationError(f"{path}: beam_size must be >= 1, got {beam_size}")
    return model, feature, beam_size
