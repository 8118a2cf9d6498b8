"""Two-step inference: transcript beam search, then slot/intent decoding.

Step one beam-searches subword space for the best transcript under the
first-order decoder, one ``JointModel.decoder_states`` array step per search
step, with EOS ranked ahead of a prefix's extensions on ties, and stops as
soon as no live prefix can beat or tie the best finished one; only the top-1
hypothesis survives, with the decoder rows the search computed for it.  Step
two builds its ``Example`` from the hypothesis's ids with
``JointModel.hypothesis``, cut to the longest prefix of words whose NLU
subwords fit ``max_positions``, and runs ``JointModel.heads`` on it over
those rows, the heads training runs over the teacher-forced rows, then
decodes the intent (argmax) and slot path (``JointModel.decode_slots``); it
makes no decoder call of its own.  Both steps read the model's own
parameters: the search's steps on plain arrays, building no ``Tensor``, and
the encoder and step two's nodes under ``autodiff.no_grad()``, so decoding
records no autodiff graph.  ``decode_corpus`` is the one loop that decodes a
corpus: ``slu decode`` and the training polls both run it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, no_grad
from .data import Utterance
from .errors import DecodeError, SluError, ValidationError
from .model import JointModel


@dataclass
class DecodeResult:
    words: list[str]
    slots: list[str]
    intent: str
    asr_tokens: list[str]
    asr_logprob: float


@functools.cache
def _eos_first(width: int) -> np.ndarray:
    """The score column order for ``width`` outputs, read-only and built once per width:
    column 0 is EOS, column c is token c - 1."""
    order = np.roll(np.arange(width), 1)
    order.flags.writeable = False
    return order


def beam_search_transcript(
    model: JointModel, enc: Tensor, beam_size: int, max_len: int = 40
) -> tuple[list[int], float, np.ndarray]:
    """Top-1 subword id sequence (without EOS), its total log-probability and
    its decoder hidden rows, one per step including the EOS step.

    ``enc`` is the output of ``model.encode_features``.  The search builds no
    ``Tensor``: all live prefixes have the same length, so each step expands
    them in one ``decoder_states`` call, the array step, which returns their
    hidden rows and logits as arrays.  EOS competes for beam slots like any
    other symbol, so beam_size=1 is exactly greedy decoding; prefixes that
    emit EOS retire from the beam, and live prefixes surviving to max_len are
    closed with a forced EOS.  Ties break on the token id tuple: live
    prefixes are kept in tuple order and EOS scores in front of a prefix's
    extensions, so a stable sort of the flat (prefix, EOS + tokens) score
    matrix is the tuple order.  Every step adds a log-probability <= 0, so
    the search stops once the best finished log-probability is strictly
    greater than every live one; a live prefix that could still tie it is
    searched on.  Each step's hidden rows are kept with each live prefix's
    row a step back, and the winner's rows are read back once at the end.
    """
    if beam_size < 1:
        raise DecodeError(f"beam size must be >= 1, got {beam_size}")
    if max_len < 0:
        raise DecodeError(f"max_len must be >= 0, got {max_len}")
    max_len = min(max_len, model.config.max_positions - 1)
    width = model.asr_output_size
    order = _eos_first(width)
    enc_rows = enc.data  # every step attends over them
    live: list[tuple[int, ...]] = [()]  # in token-tuple order
    live_logp = [0.0]
    prev = [model.bos_id]  # each live prefix's last token
    parents = [0]  # each live prefix's row in the previous step's hidden rows
    trail: list[tuple[np.ndarray, list[int]]] = []  # per step: its hidden rows and their parents
    done: list[tuple[float, tuple[int, ...], int, int]] = []  # (-logp, tokens), the tie-break key; step, row
    best = -math.inf  # the best finished log-probability

    def logprobs(step: int) -> np.ndarray:
        hidden, z = model.decoder_states(prev, step, enc_rows)
        trail.append((hidden, parents))
        top = np.maximum.reduce(z, axis=1, keepdims=True)
        z -= np.log(np.add.reduce(np.exp(z - top), axis=1, keepdims=True))
        z -= top
        return z

    for step in range(max_len):
        scores = (np.array(live_logp)[:, None] + logprobs(step).take(order, axis=1)).ravel()
        picks = (-scores).argsort(kind="stable")[:beam_size]
        picks.sort()
        extended, live_logp, prev, parents = [], [], [], []
        for pick, logp in zip(picks.tolist(), scores[picks].tolist()):
            row, col = divmod(pick, width)
            if col:
                extended.append(live[row] + (col - 1,))
                live_logp.append(logp)
                prev.append(col - 1)
                parents.append(row)
            else:
                done.append((-logp, live[row], step, row))
                best = max(best, logp)
        live = extended
        if not live or best > max(live_logp):
            break
    else:  # close out prefixes that hit the length bound
        closed = (np.array(live_logp) + logprobs(max_len)[:, model.eos_id]).tolist()
        done += [(-logp, tokens, max_len, row) for row, (tokens, logp) in enumerate(zip(live, closed))]
    neg_logp, tokens, step, row = min(done)
    rows = []
    for hidden, back in reversed(trail[: step + 1]):
        rows.append(hidden[row])
        row = back[row]
    return list(tokens), -neg_logp, np.array(rows[::-1])


def decode_two_step(
    model: JointModel,
    features: np.ndarray,
    beam_size: int = 5,
    max_len: int = 40,
) -> DecodeResult:
    with no_grad():  # both steps read the live parameters and record no graph
        frames = model.subsample(features)
        ids, logp, rows = beam_search_transcript(model, model.encode_features(frames), beam_size, max_len)
        words, example = model.hypothesis(frames, ids)
        if example is None:  # degenerate transcript: intent from the sentinel row alone, no slots
            slots, intent_logits = [], model.intent_logits(None)
        else:
            slot_scores, intent_logits = model.heads(example, Tensor(rows))
            slots = model.decode_slots(slot_scores)
        intent = model.intents[int(np.argmax(intent_logits.data[0]))]
        return DecodeResult(words, slots, intent, model.asr_tokens(ids), logp)


def decode_corpus(
    model: JointModel, records: list[Utterance], features: list[np.ndarray], beam_size: int
) -> list[Utterance]:
    """``decode_two_step`` over each record's features, each hypothesis an ``Utterance`` under its
    record's id; a record that fails to decode is a ValidationError naming it."""
    hyps = []
    for rec, feats in zip(records, features):
        try:
            result = decode_two_step(model, feats, beam_size=beam_size)
        except SluError as exc:
            raise ValidationError(f"record {rec.id!r}: {exc}") from exc
        hyps.append(Utterance(rec.id, result.words, result.slots, result.intent))
    return hyps
