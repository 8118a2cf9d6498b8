"""Two-step inference: transcript beam search, then slot/intent decoding.

Step one searches subword space for the best transcript under the
first-order decoder; only the top-1 hypothesis survives.  Step two reuses
the step-one encoding and builds the word-level states for that hypothesis
with ``JointModel.word_states``, as training does, then decodes the intent
(argmax) and slot path (argmax per token, or Viterbi under the CRF head).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .crf import CrfParams, crf_viterbi
from .errors import DecodeError
from .model import JointModel, HEAD_CRF
from .subword import TokenizationResult, merge_tokens


@dataclass
class DecodeResult:
    words: list[str]
    slots: list[str]
    intent: str
    asr_tokens: list[str]
    asr_logprob: float


@dataclass(frozen=True)
class _Hyp:
    tokens: tuple[int, ...]
    logp: float

    def key(self):
        return (-self.logp, self.tokens)


def step_logprobs(model: JointModel, params, enc: Tensor, prev_id: int, step: int) -> np.ndarray:
    """Log-probabilities over the ASR output vocabulary for one decoder step."""
    _, logits = model.decoder_states([prev_id], [step], enc, params)
    row = logits.data[0]
    return row - np.log(np.exp(row - row.max()).sum()) - row.max()


def beam_search_transcript(
    model: JointModel,
    enc: Tensor,
    beam_size: int,
    params: dict[str, Tensor],
    max_len: int = 40,
) -> tuple[list[int], float]:
    """Top-1 subword id sequence (without EOS) and its total log-probability.

    ``enc`` is the encoder output of ``model.encode_features`` under ``params``.

    EOS competes for beam slots like any other symbol, so beam_size=1 is
    exactly greedy decoding; hypotheses that emit EOS retire from the beam.
    Live hypotheses surviving to max_len are closed with a forced EOS.  Ties
    break deterministically on the token id tuple.
    """
    if beam_size < 1:
        raise DecodeError(f"beam size must be >= 1, got {beam_size}")
    max_len = min(max_len, model.config.max_positions - 1)
    live = [_Hyp((), 0.0)]
    done: list[_Hyp] = []
    cache: dict[tuple[int, int], np.ndarray] = {}

    def logprobs_after(hyp: _Hyp, step: int) -> np.ndarray:
        prev = hyp.tokens[-1] if hyp.tokens else model.bos_id
        key = (prev, step)
        if key not in cache:
            cache[key] = step_logprobs(model, params, enc, prev, step)
        return cache[key]

    for step in range(max_len):
        candidates: list[tuple[_Hyp, bool]] = []
        for hyp in live:
            logprobs = logprobs_after(hyp, step)
            candidates.append(
                (_Hyp(hyp.tokens, hyp.logp + float(logprobs[model.eos_id])), True)
            )
            for tok in range(len(model.asr_pieces)):
                candidates.append(
                    (_Hyp(hyp.tokens + (tok,), hyp.logp + float(logprobs[tok])), False)
                )
        candidates.sort(key=lambda c: c[0].key())
        top = candidates[:beam_size]
        done.extend(hyp for hyp, ended in top if ended)
        live = [hyp for hyp, ended in top if not ended]
        if not live:
            break
    for hyp in live:  # close out hypotheses that hit the length bound
        done.append(_Hyp(hyp.tokens, hyp.logp + float(logprobs_after(hyp, max_len)[model.eos_id])))
    if not done:
        raise DecodeError("beam search produced no complete hypothesis")
    best = min(done, key=_Hyp.key)
    return list(best.tokens), best.logp


def decode_two_step(
    model: JointModel,
    features: np.ndarray,
    beam_size: int = 5,
    max_len: int = 40,
) -> DecodeResult:
    params = model.detached_params()
    enc = model.encode_features(features, params)
    ids, logp = beam_search_transcript(model, enc, beam_size, params, max_len)
    tokens = model.asr_tokens(ids)
    words, first_index = merge_tokens(tokens, model.asr_vocab)

    if not words:
        # Degenerate transcript: intent from the sentinel row alone, no slots.
        intent_logits = model.intent_logits_from([], params)
        intent = model.intents[int(np.argmax(intent_logits.data[0]))]
        return DecodeResult([], [], intent, tokens, logp)

    out = model.word_states(enc, TokenizationResult(tokens, first_index), words, params)
    intent = model.intents[int(np.argmax(out.intent_logits.data[0]))]
    slot_scores = out.slot_scores.data
    if model.config.slot_head == HEAD_CRF:
        crf = CrfParams(
            params["sl.trans"].data, params["sl.start"].data, params["sl.end"].data
        )
        tag_ids = crf_viterbi(slot_scores, crf)
    else:
        tag_ids = [int(i) for i in slot_scores.argmax(axis=1)]
    slots = [model.slot_tags[i] for i in tag_ids]
    return DecodeResult(words, slots, intent, tokens, logp)
