import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_pair_corpus, random_tagging, random_words
from slu import metrics
from slu.data import Utterance
from slu.errors import ValidationError
from slu.metrics import (
    METRICS,
    align,
    corpus_wer,
    extract_spans,
    intent_accuracy,
    intent_f1,
    score_report,
    slots_edit_f1,
    span_slot_f1,
)


def test_align_identity():
    trace = align(["a", "b", "c"], ["a", "b", "c"])
    assert trace.cost == 0
    assert trace.ops == [("match", 0, 0), ("match", 1, 1), ("match", 2, 2)]


def test_align_deletion_example():
    trace = align(["show", "me", "flights"], ["show", "flights"])
    assert trace.ops == [("match", 0, 0), ("del", 1, None), ("match", 2, 1)]
    assert trace.cost == 1


def test_align_empty_reference():
    trace = align([], ["a"])
    assert trace.ops == [("ins", None, 0)]
    assert trace.cost == 1


def test_align_tie_break_prefers_late_match():
    # two optimal traces exist; the backtrace preference keeps the MATCH last
    trace = align(["a"], ["a", "a"])
    assert trace.ops == [("ins", None, 0), ("match", 0, 1)]


def test_alignment_indices_cover_both_sides():
    rng = random.Random(5)
    for _ in range(200):
        ref, hyp = random_words(rng), random_words(rng)
        trace = align(ref, hyp)
        assert [ri for _, ri, _ in trace.ops if ri is not None] == list(range(len(ref)))
        assert [hi for _, _, hi in trace.ops if hi is not None] == list(range(len(hyp)))
        assert trace.cost == oracles.lev_distance(ref, hyp)


def test_align_matches_exhaustive_canonical_trace():
    rng = random.Random(11)
    for _ in range(150):
        ref = [rng.choice("abc") for _ in range(rng.randint(0, 4))]
        hyp = [rng.choice("abc") for _ in range(rng.randint(0, 4))]
        assert align(ref, hyp).ops == oracles.canonical_alignment(ref, hyp)
        assert align(ref, hyp).ops == oracles.reference_align(ref, hyp)


def _long_side(words):
    return st.one_of(st.just([]), st.lists(st.sampled_from(words), min_size=20, max_size=40))


@given(
    st.sampled_from([("to", "from"), ("to", "from", "boston")]).flatmap(
        lambda words: st.tuples(_long_side(words), _long_side(words))
    )
)
@settings(max_examples=150, deadline=None)
def test_align_matches_reference_trace_on_long_tie_heavy_pairs(pair):
    # 20-40 words over two or three distinct words: most cells have tied
    # predecessors, so every step of the tie-break is exercised
    ref, hyp = pair
    trace = align(ref, hyp)
    assert trace.ops == oracles.reference_align(ref, hyp)
    assert trace.cost == oracles.lev_distance(ref, hyp)


def test_align_equals_its_min_fill_reference_on_seeded_pairs():
    # align fills its table by compare-and-assign and never builds the rows
    # of the words both sides end with; the min() fill builds the full table.
    # Every trace and cost must still be the same: an empty side, 1-7 and
    # 20-40 words a side, over two- and three-word alphabets (most cells tie)
    # and an eight-word one (most cells mismatch); then, per alphabet, pairs
    # x + t / y + t that share a suffix t of 0-8 words, identical pairs, and
    # pairs where one side is a suffix of the other, an empty side included;
    # 6,210 pairs
    rng = random.Random(32)
    sizes = [(0, 0), (1, 7), (20, 40)]

    def words(alphabet, size):
        return [rng.choice(alphabet) for _ in range(rng.randint(*size))]

    for alphabet in [("a", "b"), ("to", "from", "boston"), tuple("abcdefgh")]:
        pairs = []
        for ref_size in sizes:
            for hyp_size in sizes:
                for _ in range(150):
                    pairs.append((words(alphabet, ref_size), words(alphabet, hyp_size)))
        for suffix_len in range(9):
            for size in sizes:
                for _ in range(20):
                    t = words(alphabet, (suffix_len, suffix_len))
                    pairs.append((words(alphabet, size) + t, words(alphabet, size) + t))
        for size in sizes:
            for _ in range(20):
                x = words(alphabet, size)
                pairs.append((x, list(x)))
                tail = x[rng.randint(0, len(x)) :]
                pairs.append((x, tail))
                pairs.append((tail, x))
        for ref, hyp in pairs:
            assert align(ref, hyp) == oracles.align_min_fill(ref, hyp), (ref, hyp)


def test_wer_examples():
    assert corpus_wer([["a", "b", "c"]], [["a", "b", "c"]]) == 0.0
    assert corpus_wer([["show", "me", "flights"]], [["show", "flights"]]) == pytest.approx(1 / 3)
    assert corpus_wer([["a"]], [["b", "c"]]) == 2.0
    assert align(["a"], ["b", "c"]).cost == 2
    with pytest.raises(ValidationError):
        corpus_wer([[]], [["a"]])


def test_wer_cost_symmetry_and_relabel_invariance():
    rng = random.Random(2)
    for _ in range(100):
        a, b = random_words(rng), random_words(rng)
        assert align(a, b).cost == align(b, a).cost
        mapping = {w: f"w{idx}" for idx, w in enumerate(dict.fromkeys(a + b))}
        assert align(a, b).cost == align([mapping[w] for w in a], [mapping[w] for w in b]).cost


def test_slots_edit_f1_perfect_hyps():
    rng = random.Random(3)
    refs = []
    for _ in range(10):
        words = random_words(rng)
        refs.append((words, random_tagging(rng, len(words))))
    if not any(t != "O" for _, slots in refs for t in slots):
        refs[0] = (refs[0][0], ["B-toloc"] + refs[0][1][1:])
    report = slots_edit_f1(refs, refs)
    assert report.f1 == 1.0
    assert all(t.fp == 0 and t.fn == 0 for t in report.per_label.values())


def test_identical_corpus_perfect_under_all_metrics():
    rng = random.Random(7)
    refs = []
    for _ in range(8):
        words = random_words(rng)
        refs.append((words, random_tagging(rng, len(words))))
    refs[0] = (refs[0][0], ["B-toloc"] + refs[0][1][1:])  # at least one span
    assert slots_edit_f1(refs, refs).f1 == 1.0
    assert span_slot_f1(refs, refs).f1 == 1.0
    assert corpus_wer([w for w, _ in refs], [w for w, _ in refs]) == 0.0


def test_slots_edit_f1_substitution_is_fn_plus_fp():
    refs = [(["flights", "to", "boston"], ["O", "O", "toloc"])]
    hyps = [(["flights", "to", "austin"], ["O", "O", "toloc"])]
    report = slots_edit_f1(refs, hyps)
    tally = report.per_label["toloc"]
    assert (tally.tp, tally.fp, tally.fn) == (0, 1, 1)
    assert report.f1 == 0.0


def test_slots_edit_f1_deletion_example():
    refs = [(["to", "boston"], ["O", "toloc"])]
    hyps = [(["to"], ["O"])]
    report = slots_edit_f1(refs, hyps)
    assert report.per_label["toloc"].fn == 1
    assert report.f1 == 0.0


def test_slots_edit_f1_value_match_flag():
    refs = [(["to", "boston"], ["O", "B-toloc"])]
    hyps = [(["to", "austin"], ["O", "B-toloc"])]
    assert slots_edit_f1(refs, hyps).f1 == 0.0


def test_slots_edit_f1_matches_bruteforce_tallies():
    rng = random.Random(17)
    for _ in range(150):
        refs, hyps = random_pair_corpus(rng, rng.randint(1, 4))
        report = slots_edit_f1(refs, hyps)
        expected = oracles.slots_edit_tallies(refs, hyps)
        got = {label: [t.tp, t.fp, t.fn] for label, t in report.per_label.items()}
        assert got == expected
        assert report.f1 == pytest.approx(oracles.f1_from_tallies(expected))


def test_slots_edit_f1_builds_one_tally_per_label(monkeypatch):
    # a label's LabelTally is built at its first count and reused after, never per count
    built = []

    class CountingTally(metrics.LabelTally):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(metrics, "LabelTally", CountingTally)
    refs, hyps = random_pair_corpus(random.Random(39), 12)
    report = slots_edit_f1(refs, hyps)
    counts = sum(t.tp + t.fp + t.fn for t in report.per_label.values())
    assert len(report.per_label) >= 3 and counts > len(report.per_label)
    assert len(built) == len(report.per_label)
    assert sorted(map(id, built)) == sorted(map(id, report.per_label.values()))


def test_slots_edit_f1_aggregates_over_corpus_not_per_utterance():
    rng = random.Random(23)
    refs, hyps = random_pair_corpus(rng, 6)
    base = slots_edit_f1(refs, hyps)
    order = list(range(len(refs)))
    rng.shuffle(order)
    permuted = slots_edit_f1([refs[i] for i in order], [hyps[i] for i in order])
    assert permuted.f1 == base.f1
    assert {k: vars(v) for k, v in permuted.per_label.items()} == {
        k: vars(v) for k, v in base.per_label.items()
    }


def test_slots_edit_f1_validation():
    with pytest.raises(ValidationError):
        slots_edit_f1([(["a"], ["O", "O"])], [(["a"], ["O"])])
    with pytest.raises(ValidationError):
        slots_edit_f1([(["a"], ["O"])], [])
    empty = slots_edit_f1([], [])
    assert empty.f1 == 0.0 and empty.per_label == {}


def test_span_extraction():
    assert extract_spans(["O", "O"]) == []
    assert extract_spans(["B-x", "I-x", "O", "B-y"]) == [("x", 0, 1), ("y", 3, 3)]
    assert extract_spans(["I-x", "I-y"]) == [("x", 0, 0), ("y", 1, 1)]
    assert extract_spans(["B-x", "B-x"]) == [("x", 0, 0), ("x", 1, 1)]
    # bare labels behave like B- tags
    assert extract_spans(["toloc", "toloc"]) == [("toloc", 0, 0), ("toloc", 1, 1)]


def test_span_extraction_matches_reference():
    rng = random.Random(31)
    for _ in range(300):
        tags = random_tagging(rng, rng.randint(0, 8))
        assert set(extract_spans(tags)) == oracles.reference_spans(tags)


def test_span_slot_f1_examples():
    words = ["flights", "to", "new", "york"]
    ref = [(words, ["O", "O", "B-toloc", "I-toloc"])]
    assert span_slot_f1(ref, ref).f1 == 1.0

    hyp_boundary = [(words, ["O", "O", "B-toloc", "O"])]
    report = span_slot_f1(ref, hyp_boundary)
    assert report.per_label["toloc"].fn == 1
    assert report.per_label["toloc"].fp == 1
    assert report.f1 == 0.0

    hyp_none = [(words, ["O", "O", "O", "O"])]
    report = span_slot_f1(ref, hyp_none)
    assert report.per_label["toloc"].fn == 1
    assert report.f1 == 0.0


def test_span_slot_f1_requires_equal_lengths():
    with pytest.raises(ValidationError, match="slots_edit_f1"):
        span_slot_f1([(["a", "b"], ["O", "O"])], [(["a"], ["O"])])


def test_intent_f1():
    assert intent_f1(["a", "b"], ["a", "b"]) == 1.0
    assert intent_f1(["a", "b", "c", "d"], ["a", "b", "c", "x"]) == 0.75
    with pytest.raises(ValidationError):
        intent_f1(["a"], [])
    with pytest.raises(ValidationError):
        intent_f1([], [])


def test_intent_f1_matches_confusion_matrix_oracle():
    rng = random.Random(41)
    for _ in range(100):
        labels = ["p", "q", "r", "s"]
        refs = [rng.choice(labels) for _ in range(rng.randint(1, 30))]
        hyps = [rng.choice(labels + ["unseen"]) for _ in refs]
        assert intent_f1(refs, hyps) == pytest.approx(oracles.confusion_f1(refs, hyps))
        assert intent_f1(refs, hyps) == pytest.approx(
            sum(r == h for r, h in zip(refs, hyps)) / len(refs)
        )
        assert intent_f1(refs, hyps) == intent_accuracy(refs, hyps)


@given(
    st.lists(st.text("ab", min_size=1, max_size=2), min_size=1, max_size=6),
    st.lists(st.text("ab", min_size=1, max_size=2), max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_wer_matches_distance_oracle(ref, hyp):
    assert align(ref, hyp).cost == oracles.lev_distance(ref, hyp)
    assert corpus_wer([ref], [hyp]) == oracles.lev_distance(ref, hyp) / len(ref)


def test_corpus_wer_is_total_edits_over_total_words():
    refs = [["a", "b"], ["c"]]
    hyps = [["a", "x"], ["c", "d"]]
    assert corpus_wer(refs, hyps) == pytest.approx(2 / 3)
    with pytest.raises(ValidationError):
        corpus_wer([], [])


def test_corpus_wer_reads_each_reference_once():
    assert corpus_wer([iter(["a", "b", "c"])], [["a", "b", "c"]]) == 0.0
    rng = random.Random(38)
    for _ in range(50):
        pairs = [(random_words(rng), random_words(rng)) for _ in range(rng.randint(1, 6))]
        refs, hyps = [r for r, _ in pairs], [h for _, h in pairs]
        assert corpus_wer(map(iter, refs), map(iter, hyps)) == corpus_wer(refs, hyps)


@pytest.mark.parametrize("names, unknown", [
    (("slots_edit_f1", "intent"), ["slots_edit_f1", "intent"]),
    (("wer", "bleu"), ["bleu"]),
    ("wer,intent-f1", ["wer,intent-f1"]),  # a str is not a sequence of names
    ("wer", ["wer"]),
], ids=["misspelt", "one-unknown", "comma-string", "one-name-string"])
def test_score_report_refuses_names_it_cannot_score(names, unknown):
    records = [Utterance("u0", ["a"], ["O"], "x")]
    with pytest.raises(ValidationError, match=re.escape(f"unknown metric(s) {unknown}; choose from {METRICS}")):
        score_report(records, records, names)
