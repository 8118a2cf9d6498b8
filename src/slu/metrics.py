"""Edit-distance alignment, WER, and end-to-end slot/intent scoring.

The slots edit F1 tolerates hypothesis/reference length mismatches: word
sequences are first aligned by minimum edit distance, then slot values are
tallied per label as true positives, insertions (FP), deletions (FN), and
substitutions (FN on the reference label plus FP on the hypothesis label).
The corpus score is computed from summed tallies, never averaged per
utterance.

``score_report`` is where a decoded corpus is scored: ``slu score`` prints its
report and the joint-stage polls of ``train`` log its slots edit F1 and its
intent F1 (the intent accuracy).  It aligns each pair twice, in ``corpus_wer``
and ``slots_edit_f1``: the score benchmark counts two alignments per pair and
keeps every run's reports, so a faster score grows its peak memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .data import OUTSIDE, base_label
from .errors import ValidationError

METRICS = ("wer", "slots-edit-f1", "span-f1", "intent-f1")  # the names score_report takes

MATCH = "match"
SUB = "sub"
DEL = "del"
INS = "ins"


@dataclass
class AlignmentTrace:
    ops: list[tuple[str, int | None, int | None]]  # (kind, ref_idx, hyp_idx), as align builds them
    cost: int


@dataclass
class LabelTally:
    tp: int = 0
    fp: int = 0
    fn: int = 0


@dataclass
class SlotScoreReport:
    per_label: dict[str, LabelTally] = field(default_factory=dict)
    f1: float = 0.0
    precision: float = 0.0
    recall: float = 0.0

    def tally(self, label: str) -> LabelTally:
        # get() first: setdefault() would build a LabelTally on every count (a LabelTally is always truthy)
        return self.per_label.get(label) or self.per_label.setdefault(label, LabelTally())

    def finalize(self) -> "SlotScoreReport":
        tp = sum(t.tp for t in self.per_label.values())
        fp = sum(t.fp for t in self.per_label.values())
        fn = sum(t.fn for t in self.per_label.values())
        self.precision = tp / (tp + fp) if tp + fp else 0.0
        self.recall = tp / (tp + fn) if tp + fn else 0.0
        denom = 2 * tp + fp + fn
        self.f1 = 2 * tp / denom if denom else 0.0
        return self


def align(ref, hyp) -> AlignmentTrace:
    """Minimum-edit-distance alignment with unit SUB/DEL/INS costs.

    Returns ``AlignmentTrace(ops, cost)``, each op a ``(kind, ref_idx, hyp_idx)``
    tuple, ``None`` for the side an INS or DEL lacks.

    A Wagner-Fischer DP, then a backtrace from the last cell. Among optimal
    traces, ties are broken during the backtrace by preferring
    MATCH > SUB > DEL > INS, which makes the trace deterministic.

    The words both sides end with are matched without a table. The backtrace
    takes MATCH wherever the words match, so from the last cell it walks that
    common suffix diagonally, and every cell it reads after it depends only
    on the words before the suffix. A matching cell equals its diagonal, so
    the last cell equals the last cell of the table over those words alone:
    the trace and cost are those of the full table.
    """
    ref = list(ref)
    hyp = list(hyp)
    # The common suffix's MATCH ops, last first like the backtrace's; the
    # table is then filled over the words before it.
    ops = []
    i, j = len(ref), len(hyp)
    while i and j and ref[i - 1] == hyp[j - 1]:
        i -= 1
        j -= 1
        ops.append((MATCH, i, j))
    del ref[i:], hyp[j:]
    # Neighbouring cells of the table differ by at most 1, so a cell whose
    # words match equals its diagonal, and any other cell is 1 + the least of
    # its diagonal, upper and left neighbours. That least is taken by
    # compare-and-assign: a min() call per cell made the fill 2.5x slower.
    prev = list(range(len(hyp) + 1))
    dist = [prev]
    for i, r in enumerate(ref, 1):
        row = [i]
        append = row.append
        left = i
        for h, diag, up in zip(hyp, prev, prev[1:]):
            if r != h:
                if up < diag:
                    diag = up
                if left < diag:
                    diag = left
                diag += 1
            left = diag
            append(diag)
        dist.append(row)
        prev = row

    # Backtrace. By the same bound a MATCH is always optimal where the words
    # match, so the MATCH > SUB > DEL > INS preference takes it there.
    i, j = len(ref), len(hyp)
    cost = prev[j]
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


def corpus_wer(refs, hyps) -> float:
    """Corpus-level WER: total edits over total reference words."""
    refs, hyps = [list(r) for r in refs], list(hyps)
    if len(refs) != len(hyps):
        raise ValidationError(f"ref/hyp count mismatch: {len(refs)} vs {len(hyps)}")
    total_words = sum(map(len, refs))
    if total_words == 0:
        raise ValidationError("WER is undefined for an empty reference corpus")
    total_edits = sum(align(r, h).cost for r, h in zip(refs, hyps))
    return total_edits / total_words


def _checked_pairs(refs, hyps):
    """(idx, r_words, r_slots, h_words, h_slots) as lists, per pair, with
    both sides checked for equal word and slot counts."""
    refs, hyps = list(refs), list(hyps)
    if len(refs) != len(hyps):
        raise ValidationError(f"ref/hyp corpus size mismatch: {len(refs)} vs {len(hyps)}")
    for idx, ((r_words, r_slots), (h_words, h_slots)) in enumerate(zip(refs, hyps)):
        pair = list(r_words), list(r_slots), list(h_words), list(h_slots)
        for side, words, slots in (("ref", *pair[:2]), ("hyp", *pair[2:])):
            if len(words) != len(slots):
                raise ValidationError(
                    f"{side} pair {idx}: words length {len(words)} != slots length {len(slots)}"
                )
        yield (idx, *pair)


def slots_edit_f1(refs, hyps) -> SlotScoreReport:
    """Alignment-based slot F1 over a corpus of (words, slots) pairs.

    A true positive requires the aligned words to be equal as well as the
    slot label (a recognition error on a slot word counts as a substitution
    of its slot value).
    """
    report = SlotScoreReport()
    for _, r_words, r_slots, h_words, h_slots in _checked_pairs(refs, hyps):
        trace = align(r_words, h_words)
        for kind, ri, hi in trace.ops:
            rv = base_label(r_slots[ri]) if ri is not None else None
            hv = base_label(h_slots[hi]) if hi is not None else None
            if kind == MATCH and rv == hv:
                if rv != OUTSIDE:
                    report.tally(rv).tp += 1
                continue
            if rv is not None and rv != OUTSIDE:
                report.tally(rv).fn += 1
            if hv is not None and hv != OUTSIDE:
                report.tally(hv).fp += 1
    return report.finalize()


def extract_spans(slots) -> list[tuple[str, int, int]]:
    """BIO spans as (label, start, end) with inclusive ends.

    An I- tag without a preceding same-label tag opens a new span; bare
    labels are treated as B- tags.
    """
    spans: list[tuple[str, int, int]] = []
    current: list | None = None  # [label, start, end]
    for i, tag in enumerate(slots):
        if tag == OUTSIDE:
            if current:
                spans.append(tuple(current))
                current = None
            continue
        label = base_label(tag)
        continues = tag.startswith("I-") and current is not None and current[0] == label
        if continues:
            current[2] = i
        else:
            if current:
                spans.append(tuple(current))
            current = [label, i, i]
    if current:
        spans.append(tuple(current))
    return spans


def span_slot_f1(refs, hyps) -> SlotScoreReport:
    """Conventional span-level slot F1 for the oracle-text setting.

    Requires every hypothesis to have the same word count as its reference;
    use slots_edit_f1 when lengths can differ.
    """
    report = SlotScoreReport()
    for idx, r_words, r_slots, h_words, h_slots in _checked_pairs(refs, hyps):
        if len(r_words) != len(h_words):
            raise ValidationError(
                f"pair {idx}: hypothesis length differs from reference; "
                "span F1 assumes oracle text, use slots_edit_f1 instead"
            )
        ref_spans = set(extract_spans(r_slots))
        hyp_spans = set(extract_spans(h_slots))
        for label, lo, hi in ref_spans & hyp_spans:
            report.tally(label).tp += 1
        for label, lo, hi in ref_spans - hyp_spans:
            report.tally(label).fn += 1
        for label, lo, hi in hyp_spans - ref_spans:
            report.tally(label).fp += 1
    return report.finalize()


def intent_f1(refs, hyps) -> float:
    """Micro-averaged intent F1, which is the intent accuracy.

    With one label per utterance every error is one FP (the predicted label)
    plus one FN (the reference label), so F1 = 2tp / (2tp + 2e) = tp / n.
    The floats agree too: 2tp / 2n rounds the same real number as tp / n.
    """
    return intent_accuracy(refs, hyps)


def intent_accuracy(refs, hyps) -> float:
    refs, hyps = list(refs), list(hyps)
    if not refs or len(refs) != len(hyps):
        raise ValidationError(
            f"intent label lists must be non-empty and equal length: {len(refs)} vs {len(hyps)}"
        )
    return sum(r == h for r, h in zip(refs, hyps)) / len(refs)


def score_report(refs, hyps, names) -> dict:
    """The ``slu score`` report on hypothesis records against references paired by position:
    a key for each ``METRICS`` name in ``names``, in the order wer, slots_edit_f1, span_f1, intent_f1.
    A ``str`` or a name outside ``METRICS`` is refused."""
    unknown = [names] if isinstance(names, str) else [n for n in names if n not in METRICS]
    if unknown:
        raise ValidationError(f"unknown metric(s) {unknown}; choose from {METRICS}")
    if len(refs) != len(hyps):
        raise ValidationError(f"ref/hyp record counts differ: {len(refs)} vs {len(hyps)}")
    ref_pairs = [(r.words, r.slots) for r in refs]
    hyp_pairs = [(h.words, h.slots) for h in hyps]
    report: dict = {}
    if "wer" in names:
        report["wer"] = corpus_wer([r.words for r in refs], [h.words for h in hyps])
    if "slots-edit-f1" in names:
        edit = slots_edit_f1(ref_pairs, hyp_pairs)
        report["slots_edit_f1"] = {"f1": edit.f1, "precision": edit.precision, "recall": edit.recall,
                                   "per_label": {k: vars(v) for k, v in sorted(edit.per_label.items())}}
    if "span-f1" in names:
        report["span_f1"] = span_slot_f1(ref_pairs, hyp_pairs).f1
    if "intent-f1" in names:
        report["intent_f1"] = intent_f1([r.intent for r in refs], [h.intent for h in hyps])
    return report
