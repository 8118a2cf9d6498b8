"""Desk-scale joint speech understanding model.

Two branches share one loss: a feature encoder with a teacher-forced subword
decoder produces per-subword states and transcript logits; a word-embedding
plus single self-attention layer produces states for a second tokenization.
Each branch keeps the state of every word's first subword (the BERT
convention), and the two are concatenated; intent and slot heads read the
concatenated rows.  The slot head is a per-token linear layer or a linear
layer plus CRF.

An utterance enters as an ``Example``: ``JointModel.prepare`` builds one from
a transcript, tokenizing it for both branches, and ``JointModel.hypothesis``
one from the subword ids the beam search decoded, for step two of decoding.

The encoder, the decoder's hidden layer and the NLU layer are one autodiff
node each (``autodiff.encoder_layer``, ``decoder_layer`` and ``nlu_layer``),
and so are the word rows both heads read (``autodiff.word_rows``) and the
intent head (``autodiff.intent_head``), so a speech-branch train step
records 4 nodes and a joint step 12.

All tensors are float64 so finite-difference gradient checks are meaningful.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .audio import FeatureConfig
from .autodiff import Tensor, decoder_layer, encoder_layer, intent_head, linear, nll, nlu_layer, word_rows
from .crf import crf_nll_t, crf_viterbi
from .errors import DimensionError, ValidationError, read_config
from .ioutil import atomic_write_text, read_json
from .subword import SubwordVocab, merge_tokens, tokenize

CHECKPOINT_VERSION = 1

# The most floats a model's parameters may hold (80 MB), checked before any is allocated.
MAX_PARAM_FLOATS = 10**7

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
        if min(self.feature_dim, self.asr_hidden, self.nlu_hidden, self.max_positions) < 1:
            raise ValidationError("feature_dim, asr_hidden, nlu_hidden and max_positions must be >= 1")
        if self.slot_head not in (HEAD_LINEAR, HEAD_CRF):
            raise ValidationError(f"unknown slot head {self.slot_head!r}")
        if self.subsample_stride < 1:
            raise ValidationError("subsample stride must be >= 1")
        if not 0 <= self.label_smoothing < 1:
            raise ValidationError(f"label_smoothing must be in [0, 1), got {self.label_smoothing}")


@dataclass(frozen=True)
class Example:
    """One utterance as the model reads it, built once by ``JointModel.prepare``
    from a transcript or by ``JointModel.hypothesis`` from decoded ids."""

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
    asr_logits: Tensor  # (asr subwords + 1, asr output vocab), last row predicts EOS
    slot_scores: Tensor  # (words, num_tags)
    intent_logits: Tensor  # (1, num_intents)


def subsample_features(features: np.ndarray, stride: int) -> np.ndarray:
    """Strided mean-pooling over time; output length is ceil(T / stride).  Each
    mean is a sum divided in place, the floats ``np.mean`` gives."""
    features = np.asarray(features, dtype=np.float64)
    if stride < 1:
        raise ValidationError(f"stride must be >= 1, got {stride}")
    t = features.shape[0]
    full = t - t % stride  # frames in complete groups; a shorter last group is pooled on its own
    pooled = features[:full].reshape((full // stride, stride) + features.shape[1:]).sum(axis=1)
    pooled /= stride
    if full == t:
        return pooled
    rest = features[full:].sum(axis=0, keepdims=True)
    rest /= t - full
    return np.concatenate([pooled, rest])


class JointModel:
    """Parameter container plus forward/loss graph builders.

    Every pass reads ``self.params``, in training and in decoding alike;
    decoding runs under ``autodiff.no_grad()``, so it records no graph.
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
        table = self.param_shapes()
        total = sum(math.prod(shape) for shape, _ in table.values())
        if total > MAX_PARAM_FLOATS:
            name = max(table, key=lambda n: math.prod(table[n][0]))
            raise ValidationError(
                f"the parameters hold {total} floats, over the budget of {MAX_PARAM_FLOATS}; "
                f"the largest is {name!r} with shape {list(table[name][0])}"
            )

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

    def param_shapes(self) -> dict[str, tuple[tuple[int, ...], float | None]]:
        """Each parameter's shape and initial std (None: zeros) by name, in ``init_params``'s draw order."""
        cfg = self.config
        fa, fb = cfg.asr_hidden, cfg.nlu_hidden
        fcat = fa + fb
        n_tags, n_intents = len(self.slot_tags), len(self.intents)

        def mat(rows, cols, scale=None):
            return (rows, cols), scale if scale is not None else 1.0 / math.sqrt(max(rows, 1))

        def vec(size, scale=None):
            return (size,), scale

        table = {
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
            table["sl.trans"] = mat(n_tags, n_tags, scale=0.1)
            table["sl.start"] = vec(n_tags, scale=0.1)
            table["sl.end"] = vec(n_tags, scale=0.1)
        return table

    def init_params(self, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        self.params = {
            name: Tensor(np.zeros(shape) if scale is None else rng.normal(0.0, scale, size=shape), requires_grad=True)
            for name, (shape, scale) in self.param_shapes().items()
        }

    def zero_grads(self) -> None:
        for t in self.params.values():
            t.grad = None

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

    def prepare(self, frames: np.ndarray, words, slots=None, intent=None) -> Example:
        """The ``Example`` for ``subsample``'d frames and their transcript, with
        label ids when ``slots`` and ``intent`` are given."""
        words = list(words)
        if not words:
            raise ValidationError("an example needs at least one word")
        (pieces_a, first_a), (pieces_b, first_b) = tokenize(words, self.asr_vocab), tokenize(words, self.nlu_vocab)
        ids_a = [self._asr_piece_id[t] for t in pieces_a]
        limit = self.config.max_positions
        if len(ids_a) + 1 > limit:
            raise DimensionError(f"{len(ids_a) + 1} ASR decoder positions exceed max_positions {limit}")
        if len(pieces_b) > limit:
            raise DimensionError(f"{len(pieces_b)} NLU subwords exceed max_positions {limit}")
        return self._example(
            frames, ids_a, first_a, pieces_b, first_b,
            [] if slots is None else self.tag_ids(slots), None if intent is None else self.intent_id(intent),
        )

    def hypothesis(self, frames: np.ndarray, ids: list[int]) -> tuple[list[str], Example | None]:
        """Step two's words and ``Example`` for ``subsample``'d frames and the ASR subword ids the
        beam search decoded: the ids merge into words, tokenized for the NLU branch once and cut to
        the longest prefix whose NLU subwords fit ``max_positions``; ``([], None)`` if none fits."""
        words, first_a = merge_tokens(self.asr_tokens(ids), self.asr_vocab)
        pieces_b, first_b = tokenize(words, self.nlu_vocab)
        # each word's end in the decoded ids and in its NLU subwords: tokenization is per word, so both cut there
        ends_a, ends_b = first_a[1:] + [len(ids)], first_b[1:] + [len(pieces_b)]
        keep = bisect.bisect_right(ends_b, self.config.max_positions)
        words = words[:keep]  # with no words, keep is 1: the cut words tell emptiness, not keep
        if not words:
            return [], None
        return words, self._example(  # the decoded ids themselves, not a re-tokenization
            frames, list(ids[: ends_a[keep - 1]]), first_a[:keep], pieces_b[: ends_b[keep - 1]], first_b[:keep], [], None,
        )

    def _example(self, frames, ids_a, first_a, pieces_b, first_b, tag_ids, intent_id) -> Example:
        """The ``Example`` of ASR subword ids and NLU pieces, each with its words' first indices."""
        return Example(
            frames, [self.bos_id] + ids_a, ids_a + [self.eos_id], [self._nlu_piece_id[t] for t in pieces_b],
            first_a, first_b, tag_ids, intent_id,
        )

    # -- forward pieces ---------------------------------------------------

    def encode_features(self, frames: np.ndarray) -> Tensor:
        """Encoder rows for ``subsample``'d frames: one ``encoder_layer`` node."""
        p = self.params
        return encoder_layer(frames, p["asr.enc_w"], p["asr.enc_b"], p["asr.enc_pos"])

    def decoder_states(self, prev_ids: list[int], steps: list[int] | slice, enc: Tensor) -> tuple[Tensor, Tensor]:
        """Hidden rows (one ``decoder_layer`` node) and logits for decoder steps given previous-token
        ids; ``steps`` are their positions, as a list or, for positions 0 to n - 1, as ``slice(n)``."""
        p = self.params
        hidden = decoder_layer(
            p["asr.emb"], prev_ids, p["asr.dec_pos"], steps, p["asr.attn_q"], enc, p["asr.dec_w"], p["asr.dec_b"]
        )
        return hidden, linear(hidden, p["asr.out_w"], p["asr.out_b"])

    def nlu_states(self, ids_b: list[int]) -> Tensor:
        """NLU rows for NLU subword ids: one ``nlu_layer`` node."""
        p = self.params
        return nlu_layer(
            p["nlu.emb"], ids_b, p["nlu.pos"], p["nlu.attn_q"], p["nlu.attn_k"], p["nlu.attn_v"],
            p["nlu.ff_w"], p["nlu.ff_b"],
        )

    def intent_logits(self, hcat: Tensor | None) -> Tensor:
        """Intent logits over the sentinel row and the word rows ``hcat``: one ``intent_head`` node;
        with ``hcat`` None (a hypothesis with no words), over the sentinel row alone."""
        p = self.params
        if hcat is None:
            hcat = Tensor(np.empty((0, p["ic.sentinel"].shape[1])))
        return intent_head(p["ic.sentinel"], hcat, p["ic.w"], p["ic.b"])

    def teacher_forced(self, example: Example) -> tuple[Tensor, Tensor]:
        """Decoder rows and transcript logits with the transcript fed in: all
        that the speech-branch stages build."""
        enc = self.encode_features(example.frames)
        return self.decoder_states(example.asr_inputs, slice(len(example.asr_inputs)), enc)

    def heads(self, example: Example, h_dec: Tensor) -> tuple[Tensor, Tensor]:
        """Slot scores and intent logits over decoder rows ``h_dec``: the NLU
        branch, the word-level concatenation and both heads.

        ``h_dec`` holds a row per decoder step of ``example``'s transcript,
        the teacher-forced rows in training and the beam's own rows in
        decoding; ``example.first_a`` picks each word's row, so a row past
        the last ASR subword (the one that predicts EOS) is never read.
        Three nodes (``word_rows``, the slot ``linear`` and ``intent_head``)
        over the NLU layer's.  Nodes run newest first, so ``h_dec`` gets its
        word-rows gradient before the output linear's, and the word rows get
        the intent head's before the slot linear's: the unfused heads' order.
        """
        hcat = word_rows(h_dec, example.first_a, self.nlu_states(example.nlu_ids), example.first_b)
        slot_scores = linear(hcat, self.params["sl.w"], self.params["sl.b"])
        return slot_scores, self.intent_logits(hcat)

    def forward(self, example: Example, stop_asr_grad: bool = False) -> ForwardOutputs:
        """Teacher-forced pass over one ground-truth example, up to slot scores
        and intent logits: ``teacher_forced`` and then ``heads``.

        With ``stop_asr_grad`` the heads read a detached copy of the decoder
        states, so slot/intent errors cannot reach the speech branch (the
        2-stage baseline).  Transcript logits are unaffected by the flag.
        Decoding does not call it: step two runs ``heads`` over the rows the
        beam search computed.
        """
        h_dec, asr_logits = self.teacher_forced(example)
        return ForwardOutputs(asr_logits, *self.heads(example, h_dec.detach() if stop_asr_grad else h_dec))

    # -- losses ----------------------------------------------------------

    def loss_asr(self, asr_logits: Tensor, targets: list[int]) -> Tensor:
        """Mean per-token negative log-likelihood with label smoothing."""
        return nll(asr_logits, targets, self.config.label_smoothing, mean=True)

    def loss_nlu(self, slot_scores: Tensor, intent_logits: Tensor, tag_ids: list[int], intent_id: int) -> Tensor:
        """Slot sequence NLL (per-token sum or CRF) plus intent NLL."""
        p = self.params
        n = slot_scores.shape[0]
        if n != len(tag_ids):
            raise DimensionError(f"{n} slot score rows vs {len(tag_ids)} tags")
        if self.config.slot_head == HEAD_CRF:
            slot_term = crf_nll_t(slot_scores, tag_ids, p["sl.trans"], p["sl.start"], p["sl.end"])
        else:
            slot_term = nll(slot_scores, tag_ids)
        return slot_term + nll(intent_logits, [intent_id])

    def decode_slots(self, slot_scores: Tensor) -> list[str]:
        """One tag per word: the Viterbi path under the CRF head, else each row's argmax."""
        scores, p = slot_scores.data, self.params
        if self.config.slot_head == HEAD_CRF:
            tag_ids = crf_viterbi(scores, p["sl.trans"].data, p["sl.start"].data, p["sl.end"].data)
        else:
            tag_ids = scores.argmax(axis=1)
        return [self.slot_tags[i] for i in tag_ids]


@dataclass
class Checkpoint:
    """A checkpoint file's top level, keys in field order, sections still JSON: ``save_checkpoint`` fills it."""

    format_version: int
    model: dict
    asr_vocab: dict
    nlu_vocab: dict
    slot_tags: list[str]
    intents: list[str]
    params: dict
    feature: dict = field(default_factory=dict)
    beam_size: int = 5

    def __post_init__(self):
        if self.format_version != CHECKPOINT_VERSION:
            raise ValidationError(f"unsupported checkpoint version {self.format_version!r}")
        if self.beam_size < 1:
            raise ValidationError(f"beam_size must be >= 1, got {self.beam_size}")
        for name, labels in (("slot_tags", self.slot_tags), ("intents", self.intents)):
            if len(set(labels)) < len(labels):
                repeated = next(v for i, v in enumerate(labels) if v in labels[:i])
                raise ValidationError(f"{name} lists {repeated!r} more than once")


@dataclass
class _StoredParam:  # a params entry; load_checkpoint checks it against the parameter it fills
    shape: list[int]
    data: list[float]


@dataclass
class _StoredVocab:  # asr_vocab or nlu_vocab, built here so that read_config names the section in its errors
    kind: str
    pieces: list[str]
    unk: str
    vocab: SubwordVocab = field(init=False)

    def __post_init__(self):
        self.vocab = SubwordVocab.create(self.kind, self.pieces, self.unk)


def save_checkpoint(
    model: JointModel,
    path: str | Path,
    feature: FeatureConfig | None = None,
    beam_size: int = 5,
) -> None:
    """Write ``model``, the features it reads (by default ``feature_dim`` bands) and its decoding beam
    to ``path`` as one JSON ``Checkpoint``; ``Checkpoint`` refuses a ``beam_size`` below 1."""
    ckpt = Checkpoint(
        format_version=CHECKPOINT_VERSION,
        model=asdict(model.config),
        asr_vocab={"kind": model.asr_vocab.kind, "pieces": model.asr_vocab.sorted_pieces(), "unk": model.asr_vocab.unk},
        nlu_vocab={"kind": model.nlu_vocab.kind, "pieces": model.nlu_vocab.sorted_pieces(), "unk": model.nlu_vocab.unk},
        slot_tags=model.slot_tags,
        intents=model.intents,
        params={name: {"shape": list(t.data.shape), "data": t.data.ravel().tolist()} for name, t in model.params.items()},
        feature=asdict(feature or FeatureConfig(num_bands=model.config.feature_dim)),
        beam_size=beam_size,
    )
    atomic_write_text(path, json.dumps(vars(ckpt)))  # vars, not asdict: the parameter lists are not copied again


def load_checkpoint(path: str | Path) -> tuple[JointModel, FeatureConfig, int]:
    """The model, feature config and beam size of a ``save_checkpoint`` file, each section checked as it
    is read and each parameter against ``param_shapes``; a fault is a ValidationError naming ``path``."""
    try:
        ckpt = read_config(Checkpoint, read_json(path))
        section = ckpt.model
        if "word_pooling" in section:  # older checkpoints store the then-default "first"
            if section["word_pooling"] != "first":
                raise ValidationError(f"model.word_pooling {section['word_pooling']!r} is not supported, only 'first'")
            section = {key: value for key, value in section.items() if key != "word_pooling"}
        model = JointModel(
            read_config(ModelConfig, section, "model"),
            read_config(_StoredVocab, ckpt.asr_vocab, "asr_vocab").vocab,
            read_config(_StoredVocab, ckpt.nlu_vocab, "nlu_vocab").vocab,
            ckpt.slot_tags,
            ckpt.intents,
        )
        table = model.param_shapes()
        if ckpt.params.keys() != table.keys():
            name = min(ckpt.params.keys() ^ table.keys())
            raise ValidationError(f"{'missing' if name in table else 'unexpected'} parameter {name!r}")
        for name, (shape, _) in table.items():
            entry = read_config(_StoredParam, ckpt.params[name], f"parameter {name!r}")
            if entry.shape != list(shape):
                raise ValidationError(f"parameter {name!r}: shape {entry.shape} != expected {list(shape)}")
            if len(entry.data) != (size := math.prod(shape)):
                raise ValidationError(f"parameter {name!r}: {len(entry.data)} values, shape {entry.shape} needs {size}")
            arr = np.asarray(entry.data, dtype=np.float64).reshape(shape)
            if not np.isfinite(arr).all():
                raise ValidationError(f"parameter {name!r}: non-finite data")
            model.params[name] = Tensor(arr, requires_grad=True)
        feature = read_config(FeatureConfig, ckpt.feature, "feature")
    except ValidationError as exc:
        raise ValidationError(f"{path}: malformed checkpoint: {exc}") from exc
    if feature.num_bands != model.config.feature_dim:
        raise ValidationError(
            f"{path}: feature.num_bands {feature.num_bands} != model.feature_dim {model.config.feature_dim}"
        )
    return model, feature, ckpt.beam_size
