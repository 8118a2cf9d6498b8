"""Two-step inference: transcript beam search, then slot/intent decoding.

Step one beam-searches subword space for the best transcript under the
first-order decoder, one batched decoder call per step, with EOS ranked ahead
of a prefix's extensions on ties, and stops as soon as no live prefix can
beat or tie the best finished one; only the top-1 hypothesis survives.  Step
two prepares an ``Example`` from that hypothesis, cut to the longest prefix of
words whose NLU subwords fit ``max_positions``, and runs ``JointModel.forward``
on it with the step-one encoding, as training does, then decodes the intent
(argmax) and slot path (``JointModel.decode_slots``).  Both steps read the
model's own parameters under ``autodiff.no_grad()``, so decoding records no
autodiff graph.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, no_grad
from .errors import DecodeError
from .model import JointModel
from .subword import TokenizationResult, merge_tokens, tokenize


@dataclass
class DecodeResult:
    words: list[str]
    slots: list[str]
    intent: str
    asr_tokens: list[str]
    asr_logprob: float


def beam_search_transcript(
    model: JointModel, enc: Tensor, beam_size: int, max_len: int = 40
) -> tuple[list[int], float]:
    """Top-1 subword id sequence (without EOS) and its total log-probability.

    ``enc`` is the output of ``model.encode_features``.  Run under
    ``no_grad()``, as ``decode_two_step`` does, the search records no graph.

    All live prefixes have the same length, so each step expands them in one
    batched ``decoder_states`` call.  EOS competes for beam slots like any
    other symbol, so beam_size=1 is exactly greedy decoding; prefixes that
    emit EOS retire from the beam, and live prefixes surviving to max_len are
    closed with a forced EOS.  Ties break on the token id tuple: live
    prefixes are kept in tuple order and EOS scores in front of a prefix's
    extensions, so a stable sort of the flat (prefix, EOS + tokens) score
    matrix is the tuple order.  Every step adds a log-probability <= 0, so
    the search stops once the best finished log-probability is strictly
    greater than every live one; a live prefix that could still tie it is
    searched on.
    """
    if beam_size < 1:
        raise DecodeError(f"beam size must be >= 1, got {beam_size}")
    max_len = min(max_len, model.config.max_positions - 1)
    live: list[tuple[int, ...]] = [()]  # in token-tuple order
    live_logp = np.zeros(1)
    done: list[tuple[float, tuple[int, ...]]] = []  # (-logp, tokens), the tie-break key

    def logprobs(step: int) -> np.ndarray:
        prev = [tokens[-1] if tokens else model.bos_id for tokens in live]
        _, logits = model.decoder_states(prev, [step] * len(live), enc)
        z = logits.data
        top = z.max(axis=1, keepdims=True)
        return z - np.log(np.exp(z - top).sum(axis=1, keepdims=True)) - top

    width = model.asr_output_size
    eos_first = np.roll(np.arange(width), 1)  # score column 0 is EOS, column c is token c - 1
    for step in range(max_len):
        scores = (live_logp[:, None] + logprobs(step)[:, eos_first]).ravel()
        picks = np.sort(np.argsort(-scores, kind="stable")[:beam_size]).tolist()
        done += [(-float(scores[p]), live[p // width]) for p in picks if p % width == 0]
        kept = [p for p in picks if p % width]
        live = [live[p // width] + (p % width - 1,) for p in kept]
        live_logp = scores[kept]
        if not live or (done and -min(done)[0] > live_logp.max()):
            break
    else:  # close out prefixes that hit the length bound
        closed = live_logp + logprobs(max_len)[:, model.eos_id]
        done += [(-float(logp), tokens) for tokens, logp in zip(live, closed)]
    if not done:
        raise DecodeError("beam search produced no complete hypothesis")
    neg_logp, tokens = min(done)
    return list(tokens), -neg_logp


def decode_two_step(
    model: JointModel,
    features: np.ndarray,
    beam_size: int = 5,
    max_len: int = 40,
) -> DecodeResult:
    with no_grad():  # both steps read the live parameters and record no graph
        frames = model.subsample(features)
        enc = model.encode_features(frames)
        ids, logp = beam_search_transcript(model, enc, beam_size, max_len)
        tokens = model.asr_tokens(ids)
        words, first_index = merge_tokens(tokens, model.asr_vocab)
        # step two reads the longest prefix of words whose NLU subwords fit max_positions;
        # tokenization is per word, so both tokenizations cut to that prefix exactly
        tok_b = tokenize(words, model.nlu_vocab)
        keep = bisect.bisect_right(tok_b.first_index[1:] + [tok_b.num_tokens], model.config.max_positions)
        if keep < len(words):
            tok_a = TokenizationResult(tokens[: first_index[keep]], first_index[:keep])
            tok_b = TokenizationResult(tok_b.tokens[: tok_b.first_index[keep]], tok_b.first_index[:keep])
        else:
            tok_a = TokenizationResult(tokens, first_index)
        words = words[:keep]

        if not words:
            # Degenerate transcript: intent from the sentinel row alone, no slots.
            intent_logits = model.intent_logits_from([])
            intent = model.intents[int(np.argmax(intent_logits.data[0]))]
            return DecodeResult([], [], intent, tokens, logp)

        example = model.prepare(frames, words, tok_a=tok_a, tok_b=tok_b)
        out = model.forward(example, enc=enc)
        intent = model.intents[int(np.argmax(out.intent_logits.data[0]))]
        return DecodeResult(words, model.decode_slots(out.slot_scores), intent, tokens, logp)
