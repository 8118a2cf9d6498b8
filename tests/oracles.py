"""Independent reference implementations of the scoring metrics, used only by
the test suite and by the score benchmark's oracle check.

Everything here is deliberately written with a different algorithmic shape
than the package code (memoized recursion instead of iterative tables,
exhaustive enumeration instead of dynamic programming) so that agreement is
evidence, not tautology.  ``align_min_fill`` is the one exception: it is
``metrics.align`` as it was with a ``min()`` fill, kept verbatim as the
bit-exact reference for the compare-and-assign fill.  The oracles of the
model, autodiff, CRF, audio and subword code are in ``model_oracles.py``, so
that loading this file compiles the scoring oracles alone.
"""

from __future__ import annotations

import functools

import numpy as np

from slu.metrics import DEL, INS, MATCH, SUB, AlignmentTrace

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


def align_min_fill(ref, hyp) -> AlignmentTrace:
    """``metrics.align`` as it was while its fill took each mismatching cell
    as ``min(diag, up, left) + 1`` over the full table: the bit-exact
    reference, trace and cost, for the compare-and-assign fill and for the
    common suffix that ``align`` matches without a table.
    """
    ref = list(ref)
    hyp = list(hyp)
    # Neighbouring cells of the table differ by at most 1, so a cell whose
    # words match equals its diagonal, and any other cell is 1 + the least of
    # its diagonal, upper and left neighbours.
    prev = list(range(len(hyp) + 1))
    dist = [prev]
    for i, r in enumerate(ref, 1):
        row = [i]
        append = row.append
        left = i
        for h, diag, up in zip(hyp, prev, prev[1:]):
            left = diag if r == h else min(diag, up, left) + 1
            append(left)
        dist.append(row)
        prev = row

    # Backtrace. By the same bound a MATCH is always optimal where the words
    # match, so the MATCH > SUB > DEL > INS preference takes it there.
    i, j = len(ref), len(hyp)
    cost = prev[j]
    ops = []
    append = ops.append
    row = prev
    while i and j:
        up = dist[i - 1]
        if ref[i - 1] == hyp[j - 1]:
            i -= 1
            j -= 1
            append((MATCH, i, j))
            row = up
        elif row[j] == up[j - 1] + 1:
            i -= 1
            j -= 1
            append((SUB, i, j))
            row = up
        elif row[j] == up[j] + 1:
            i -= 1
            append((DEL, i, None))
            row = up
        else:
            j -= 1
            append((INS, None, j))
    while i:
        i -= 1
        append((DEL, i, None))
    while j:
        j -= 1
        append((INS, None, j))
    ops.reverse()
    return AlignmentTrace(ops, cost)
