"""Independent reference implementations used only by the test suite.

Everything here is deliberately written with a different algorithmic shape
than the package code (memoized recursion instead of iterative tables,
exhaustive enumeration instead of dynamic programming) so that agreement is
evidence, not tautology.  Old loop versions of vectorised package code are
kept here verbatim as bit-exact references, next to a few small helpers
(slot serialisation, detokenisation, the first-subword pooling matrix, SNR
mixing shorthand, the numpy CRF partition function and path score) that only
the tests use.  The two fused loss nodes (``autodiff.nll_rows`` and
``crf.crf_nll_t``) are gated against their unfused compositions of
elementary ``Tensor`` ops, kept here as ``nll_rows_unfused`` and
``crf_nll_t_unfused``.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from typing import NamedTuple

import numpy as np

from slu.audio import AudioClip, mix_at_snr_report
from slu.autodiff import Tensor
from slu.crf import _check
from slu.errors import DimensionError, ValidationError
from slu.subword import SubwordVocab, TokenizationResult, merge_tokens

sys.setrecursionlimit(100_000)

_RANK = {"match": 0, "sub": 1, "del": 2, "ins": 3}


def lev_distance(a, b) -> int:
    """Plain quadratic full-matrix edit distance, no backtrace."""
    a, b = list(a), list(b)
    table = np.zeros((len(a) + 1, len(b) + 1), dtype=int)
    table[:, 0] = np.arange(len(a) + 1)
    table[0, :] = np.arange(len(b) + 1)
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i, j] = min(
                table[i - 1, j - 1] + (a[i - 1] != b[j - 1]),
                table[i - 1, j] + 1,
                table[i, j - 1] + 1,
            )
    return int(table[len(a), len(b)])


def reference_align(ref, hyp) -> list[tuple]:
    """Optimal trace via memoized recursion plus the canonical backward walk.

    Ops are (kind, ref_idx, hyp_idx) tuples with None for the missing side.
    """
    ref, hyp = list(ref), list(hyp)

    @functools.lru_cache(maxsize=None)
    def dist(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            dist(i - 1, j - 1) + (ref[i - 1] != hyp[j - 1]),
            dist(i - 1, j) + 1,
            dist(i, j - 1) + 1,
        )

    ops: list[tuple] = []
    i, j = len(ref), len(hyp)
    while i or j:
        if i and j and ref[i - 1] == hyp[j - 1] and dist(i, j) == dist(i - 1, j - 1):
            ops.append(("match", i - 1, j - 1))
            i, j = i - 1, j - 1
        elif i and j and ref[i - 1] != hyp[j - 1] and dist(i, j) == dist(i - 1, j - 1) + 1:
            ops.append(("sub", i - 1, j - 1))
            i, j = i - 1, j - 1
        elif i and dist(i, j) == dist(i - 1, j) + 1:
            ops.append(("del", i - 1, None))
            i -= 1
        else:
            ops.append(("ins", None, j - 1))
            j -= 1
    ops.reverse()
    return ops


def enumerate_alignments(ref, hyp) -> list[list[tuple]]:
    """Every monotone alignment between two sequences (exponential; tiny inputs only)."""
    ref, hyp = list(ref), list(hyp)

    def rec(i: int, j: int):
        if i == len(ref) and j == len(hyp):
            yield []
            return
        if i < len(ref) and j < len(hyp):
            kind = "match" if ref[i] == hyp[j] else "sub"
            for rest in rec(i + 1, j + 1):
                yield [(kind, i, j)] + rest
        if i < len(ref):
            for rest in rec(i + 1, j):
                yield [("del", i, None)] + rest
        if j < len(hyp):
            for rest in rec(i, j + 1):
                yield [("ins", None, j)] + rest

    return list(rec(0, 0))


def alignment_cost(ops) -> int:
    return sum(1 for op in ops if op[0] != "match")


def canonical_alignment(ref, hyp) -> list[tuple]:
    """Among minimum-cost alignments, the one the backward tie-break selects.

    The backward walk greedily maximizes the preference of the LAST op, then
    the one before it, and so on; equivalently it is the minimum-cost trace
    whose reversed op-rank sequence is lexicographically smallest.
    """
    traces = enumerate_alignments(ref, hyp)
    best_cost = min(alignment_cost(t) for t in traces)
    optimal = [t for t in traces if alignment_cost(t) == best_cost]
    return min(optimal, key=lambda t: [_RANK[op[0]] for op in reversed(t)])


def strip_bio(tag: str) -> str:
    return tag[2:] if tag[:2] in ("B-", "I-") else tag


def slots_edit_tallies(ref_pairs, hyp_pairs, aligner=reference_align) -> dict[str, list[int]]:
    """Per-label [tp, fp, fn] tallies from scratch, using the given aligner."""
    tallies: dict[str, list[int]] = {}

    def bump(label, slot):
        tallies.setdefault(label, [0, 0, 0])[slot] += 1

    for (r_words, r_slots), (h_words, h_slots) in zip(ref_pairs, hyp_pairs):
        for op in aligner(list(r_words), list(h_words)):
            kind, ri, hi = op
            rv = strip_bio(r_slots[ri]) if ri is not None else None
            hv = strip_bio(h_slots[hi]) if hi is not None else None
            if kind == "match" and rv == hv:
                if rv != "O":
                    bump(rv, 0)
                continue
            if rv not in (None, "O"):
                bump(rv, 2)
            if hv not in (None, "O"):
                bump(hv, 1)
    return tallies


def f1_from_tallies(tallies) -> float:
    tp = sum(t[0] for t in tallies.values())
    fp = sum(t[1] for t in tallies.values())
    fn = sum(t[2] for t in tallies.values())
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def reference_spans(tags) -> set[tuple]:
    """Span extraction by explicit state machine, written independently."""
    spans = set()
    label, start = None, None
    for i, tag in enumerate(list(tags) + ["O"]):
        continues = tag != "O" and tag.startswith("I-") and label == tag[2:]
        if label is not None and not continues:
            spans.add((label, start, i - 1))
            label, start = None, None
        if tag != "O" and not continues:
            label, start = strip_bio(tag), i
    return spans


def confusion_f1(refs, hyps) -> float:
    labels = set(refs) | set(hyps)
    tp = {v: 0 for v in labels}
    fp = {v: 0 for v in labels}
    fn = {v: 0 for v in labels}
    for r, h in zip(refs, hyps):
        if r == h:
            tp[r] += 1
        else:
            fn[r] += 1
            fp[h] += 1
    num = 2 * sum(tp.values())
    denom = num + sum(fp.values()) + sum(fn.values())
    return num / denom if denom else 0.0


_SMALL = {
    0: "zero", 1: "one", 2: "two", 3: "three", 4: "four", 5: "five",
    6: "six", 7: "seven", 8: "eight", 9: "nine", 10: "ten", 11: "eleven",
    12: "twelve", 13: "thirteen", 14: "fourteen", 15: "fifteen",
    16: "sixteen", 17: "seventeen", 18: "eighteen", 19: "nineteen",
}
_TENS = {2: "twenty", 3: "thirty", 4: "forty", 5: "fifty", 6: "sixty",
         7: "seventy", 8: "eighty", 9: "ninety"}


def spell_number(n: int) -> list[str]:
    parts: list[str] = []
    thousands, rem = divmod(n, 1000)
    if thousands:
        parts += [_SMALL[thousands], "thousand"]
    hundreds, rem = divmod(rem, 100)
    if hundreds:
        parts += [_SMALL[hundreds], "hundred"]
    if rem or not parts:
        if rem < 20:
            parts.append(_SMALL[rem])
        else:
            tens, ones = divmod(rem, 10)
            parts.append(_TENS[tens])
            if ones:
                parts.append(_SMALL[ones])
    return parts


def crf_enumerate(emissions: np.ndarray, transitions, start, end):
    """(logZ, best path, all path scores) by explicit enumeration."""
    n, k = emissions.shape
    scores = {}
    for path in itertools.product(range(k), repeat=n):
        s = start[path[0]] + emissions[0, path[0]] + end[path[-1]]
        for t in range(1, n):
            s += transitions[path[t - 1], path[t]] + emissions[t, path[t]]
        scores[path] = float(s)
    m = max(scores.values())
    log_z = m + math.log(sum(math.exp(s - m) for s in scores.values()))
    best_score = max(scores.values())
    best = min(
        (p for p, s in scores.items() if s == best_score),
        key=lambda p: tuple(reversed(p)),
    )
    return log_z, list(best), scores


class CrfScores(NamedTuple):
    """A CRF's scores in ``crf_viterbi`` / ``crf_nll_t`` argument order: ``crf_viterbi(em, *crf)``."""

    transitions: np.ndarray  # (num_tags, num_tags), [from, to]
    start: np.ndarray  # (num_tags,)
    end: np.ndarray  # (num_tags,)


def crf_zeros(num_tags: int) -> CrfScores:
    return CrfScores(np.zeros((num_tags, num_tags)), np.zeros(num_tags), np.zeros(num_tags))


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    return np.squeeze(m, axis) + np.log(np.exp(x - m).sum(axis=axis))


def crf_log_z(emissions: np.ndarray, crf: CrfScores) -> float:
    """Log of the sum over all tag paths of exp(path score)."""
    emissions = _check(emissions, crf.transitions)
    alpha = crf.start + emissions[0]
    for row in emissions[1:]:
        alpha = _logsumexp(alpha[:, None] + crf.transitions, axis=0) + row
    return float(_logsumexp(alpha + crf.end, axis=0))


def crf_path_score(emissions: np.ndarray, tags, crf: CrfScores) -> float:
    emissions = _check(emissions, crf.transitions)
    tags = list(tags)
    if len(tags) != emissions.shape[0]:
        raise DimensionError("tag path length does not match emissions")
    score = crf.start[tags[0]] + emissions[0, tags[0]] + crf.end[tags[-1]]
    for t in range(1, len(tags)):
        score += crf.transitions[tags[t - 1], tags[t]] + emissions[t, tags[t]]
    return float(score)


def nll_rows_unfused(logits: Tensor, targets, smoothing: float = 0.0) -> Tensor:
    """``autodiff.nll_rows`` as a composition of logsumexp, reshape, gather and sub nodes."""
    n, k = logits.shape
    if n != len(targets):
        raise DimensionError(f"{n} logit rows vs {len(targets)} targets")
    lse = logits.logsumexp(axis=1)
    picked = logits.reshape(n * k).gather_rows([i * k + t for i, t in enumerate(targets)])
    if smoothing == 0.0:
        return lse - picked
    return lse - ((1.0 - smoothing) * picked + smoothing * logits.mean(axis=1))


def crf_log_z_t(emissions: Tensor, transitions: Tensor, start: Tensor, end: Tensor) -> Tensor:
    """Differentiable partition function: one reshape/add/logsumexp/gather/add chain per position."""
    n, k = emissions.shape
    alpha = start.reshape(1, k) + emissions.gather_rows([0])
    for t in range(1, n):
        step = alpha.reshape(k, 1) + transitions
        alpha = step.logsumexp(axis=0, keepdims=True) + emissions.gather_rows([t])
    return (alpha + end.reshape(1, k)).logsumexp(axis=1).sum()


def crf_path_score_t(emissions: Tensor, tags, transitions: Tensor, start: Tensor, end: Tensor) -> Tensor:
    tags = list(tags)
    n, k = emissions.shape
    emitted = emissions.reshape(n * k).gather_rows(
        [t * k + tag for t, tag in enumerate(tags)]
    ).sum()
    score = emitted + start.gather_rows([tags[0]]).sum() + end.gather_rows([tags[-1]]).sum()
    if n > 1:
        flat = transitions.reshape(k * k)
        moves = flat.gather_rows([tags[t - 1] * k + tags[t] for t in range(1, n)]).sum()
        score = score + moves
    return score


def crf_nll_t_unfused(emissions: Tensor, tags, transitions: Tensor, start: Tensor, end: Tensor) -> Tensor:
    """``crf.crf_nll_t`` as the difference of the two compositions above."""
    return crf_log_z_t(emissions, transitions, start, end) - crf_path_score_t(
        emissions, tags, transitions, start, end
    )


def step_logprobs(model, enc, prev_id: int, step: int) -> np.ndarray:
    """Log-probabilities over the ASR output vocabulary for one decoder step, one row."""
    _, logits = model.decoder_states([prev_id], [step], enc)
    row = logits.data[0]
    return row - np.log(np.exp(row - row.max()).sum()) - row.max()


def finite_difference(f, arrays: dict[str, np.ndarray], h: float = 1e-4) -> dict[str, np.ndarray]:
    """Central-difference gradient of scalar f() w.r.t. each array, in place."""
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = f()
            flat[idx] = orig - h
            down = f()
            flat[idx] = orig
            gflat[idx] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


def subsample_features_loop(features: np.ndarray, stride: int) -> np.ndarray:
    """Strided mean-pooling, one ``mean`` per group (reference for ``subsample_features``)."""
    features = np.asarray(features, dtype=np.float64)
    if stride < 1:
        raise ValidationError(f"stride must be >= 1, got {stride}")
    if stride == 1:
        return features.copy()
    t = features.shape[0]
    groups = -(-t // stride)
    return np.stack(
        [features[g * stride : min((g + 1) * stride, t)].mean(axis=0) for g in range(groups)]
    )


def serialize_slots(words, slots) -> list[str]:
    """Interleave words and slot tags into one sequence [w1, s1, w2, s2, ...]."""
    words, slots = list(words), list(slots)
    if len(words) != len(slots):
        raise ValidationError(f"cannot serialize: {len(words)} words vs {len(slots)} slots")
    out: list[str] = []
    for w, s in zip(words, slots):
        out += [w, s]
    return out


def deserialize_slots(seq) -> tuple[list[str], list[str]]:
    seq = list(seq)
    if len(seq) % 2:
        raise ValidationError(f"serialized sequence has odd length {len(seq)}")
    return seq[0::2], seq[1::2]


def build_first_index_matrix(result: TokenizationResult) -> np.ndarray:
    """Binary (tokens x words) matrix with a 1 at each word's first subword."""
    m = np.zeros((result.num_tokens, result.num_words))
    m[result.first_index, np.arange(result.num_words)] = 1.0
    return m


def detokenize(result: TokenizationResult, vocab: SubwordVocab) -> list[str]:
    """Inverse of tokenize for fully covered words (unknowns merge to the unk string)."""
    return merge_tokens(result.tokens, vocab)[0]


def mix_at_snr(clean: AudioClip, noise: AudioClip, snr_db: float) -> AudioClip:
    return mix_at_snr_report(clean, noise, snr_db).audio


def measured_snr_db(clean: np.ndarray, scaled_noise: np.ndarray) -> float:
    def level(x):
        return math.sqrt(float(np.mean(np.square(x))))

    return 20.0 * math.log10(level(clean) / level(scaled_noise))
