import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slu.data import (
    Manifest,
    Utterance,
    build_manifest,
    find_slot_conflicts,
    parse_manifest,
    parse_manifest_lines,
    write_manifest,
)
from slu.errors import ParseError, ValidationError


def test_parse_single_record(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"id":"u1","words":["show","flights"],"slots":["O","O"],"intent":"flight"}\n')
    manifest = parse_manifest(path)
    assert len(manifest.records) == 1
    rec = manifest.records[0]
    assert rec.words == ["show", "flights"]
    assert rec.slots == ["O", "O"]
    assert manifest.intent_vocabulary == {"flight"}
    assert manifest.slot_vocabulary == {"O"}


def test_parse_empty_file(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text("")
    manifest = parse_manifest(path)
    assert manifest.records == []
    assert manifest.slot_vocabulary == {"O"}
    assert manifest.intent_vocabulary == frozenset()


def test_length_mismatch_names_record():
    line = '{"id":"bad1","words":["a","b","c"],"slots":["O","O"],"intent":"x"}'
    with pytest.raises(ValidationError, match="bad1"):
        parse_manifest_lines([line])


def test_malformed_json_names_line_number():
    with pytest.raises(ParseError, match=":2:"):
        parse_manifest_lines(
            ['{"id":"a","words":["w"],"slots":["O"],"intent":"x"}', "{oops"]
        )


@pytest.mark.parametrize(
    "line",
    [
        '{"id":1,"words":["w"],"slots":["O"],"intent":"x"}',
        '{"id":"a","words":"w","slots":["O"],"intent":"x"}',
        '{"id":"a","words":["w"],"slots":[1],"intent":"x"}',
        '{"id":"a","words":["w"],"slots":["O"],"intent":"x","bogus":true}',
        '{"id":"a","words":["w"],"slots":["O"],"intent":"x","samples":[0.5]}',
        '{"id":"a","words":["w"],"slots":["O"]}',
        '{"id":"a","words":["w"],"slots":["O"],"intent":"x","audio":3}',
        '["not","an","object"]',
    ],
)
def test_bad_field_types_rejected(line):
    with pytest.raises(ValidationError):
        parse_manifest_lines([line])


def test_duplicate_ids_rejected():
    line = '{"id":"dup","words":["w"],"slots":["O"],"intent":"x"}'
    with pytest.raises(ValidationError, match="dup"):
        parse_manifest_lines([line, line])


def test_bare_labels_promoted_to_bio():
    manifest = parse_manifest_lines(
        ['{"id":"u","words":["to","boston"],"slots":["O","toloc"],"intent":"x"}']
    )
    assert manifest.records[0].slots == ["O", "B-toloc"]
    assert manifest.slot_vocabulary == {"O", "toloc"}


def test_build_manifest_canonicalises_copies_and_leaves_the_inputs_alone():
    words, slots = ["to", "boston"], ["O", "toloc"]
    rec = Utterance("u", words, slots, "x")
    manifest = build_manifest([rec])
    assert manifest.records[0].slots == ["O", "B-toloc"]
    assert manifest.slot_vocabulary == {"O", "toloc"}
    assert rec == Utterance("u", ["to", "boston"], ["O", "toloc"], "x")
    assert rec.words is words and rec.slots is slots


def test_build_manifest_keeps_the_records_it_is_given_and_leaves_them_unchanged():
    records = [Utterance("u0", ["to", "boston"], ["O", "toloc"], "x"), Utterance("u1", ["hi"], ["O"], "greet")]
    fields = [(rec.words, rec.slots, list(rec.words), list(rec.slots)) for rec in records]
    manifest = build_manifest(iter(records))
    assert len(manifest.records) == len(records)
    assert all(kept is rec for kept, rec in zip(manifest.records, records))
    for rec, (words, slots, word_values, slot_values) in zip(records, fields):
        assert rec.words is words and rec.slots is slots
        assert rec.words == word_values and rec.slots == slot_values
    assert manifest.slot_vocabulary == {"O", "toloc"} and manifest.intent_vocabulary == {"x", "greet"}


def test_a_duplicate_id_read_from_a_file_names_the_file(tmp_path):
    path = tmp_path / "m.jsonl"
    line = '{"id":"dup","words":["w"],"slots":["O"],"intent":"x"}\n'
    path.write_text(line + line)
    with pytest.raises(ValidationError) as err:
        parse_manifest(path)
    assert str(err.value) == f"{path}: duplicate record id 'dup'"


@pytest.mark.parametrize(
    "fields, message",
    [
        (("", ["a", "b"], ["B-"], ""), "record with empty id"),
        (("u", ["", "b"], ["B-"], ""), "record 'u': words length 2 != slots length 1"),
        (("u", [""], ["B-"], ""), "record 'u': empty word string"),
        (("u", ["a"], ["B-"], ""), "record 'u': empty intent label"),
        (("u", ["a", "b"], ["toloc", "I-"], "x"), "record 'u': empty slot label"),
        # records that break one check only
        (("", ["a"], ["O"], "x"), "record with empty id"),
        (("u", ["a", "b"], ["O"], "x"), "record 'u': words length 2 != slots length 1"),
        (("u", ["a"], [], "x"), "record 'u': words length 1 != slots length 0"),
        (("u", ["a", ""], ["O", "O"], "x"), "record 'u': empty word string"),
        (("u", ["a"], ["O"], ""), "record 'u': empty intent label"),
        (("u", ["a"], [""], "x"), "record 'u': empty slot label"),
        (("u", ["a"], ["B-"], "x"), "record 'u': empty slot label"),
        (("u", ["a", "b"], ["B-toloc", "I-"], "x"), "record 'u': empty slot label"),
    ],
)
def test_manifest_checks_run_in_order(fields, message):
    # each record fails its message's check and every later one; only the first is reported.  The
    # Utterance checks itself, and a parsed record's message is prefixed with its source and line
    rid, words, slots, intent = fields
    line = json.dumps({"id": rid, "words": words, "slots": slots, "intent": intent})
    for build, prefix in ((lambda: Utterance(*fields), ""), (lambda: parse_manifest_lines(["", line]), "<memory>:2: ")):
        with pytest.raises(ValidationError) as err:
            build()
        assert str(err.value) == prefix + message


def test_slot_conflict_detection():
    lines = [
        '{"id":"a","words":["boston"],"slots":["toloc"],"intent":"x"}',
        '{"id":"b","words":["boston"],"slots":["fromloc"],"intent":"x"}',
        '{"id":"c","words":["show"],"slots":["O"],"intent":"x"}',
    ]
    conflicts = find_slot_conflicts(parse_manifest_lines(lines))
    assert conflicts == {"boston": ["fromloc", "toloc"]}


ids = st.integers(min_value=0, max_value=10**6)
word_st = st.text(alphabet="abcdefgh", min_size=1, max_size=6)
label_st = st.sampled_from(["O", "B-toloc", "I-toloc", "B-day", "toloc"])


@st.composite
def manifests(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    records = []
    for i in range(n):
        words = draw(st.lists(word_st, min_size=1, max_size=5))
        slots = [draw(label_st) for _ in words]
        intent = draw(st.sampled_from(["flight", "fare", "quit"]))
        records.append(Utterance(f"u{i}", words, slots, intent))
    return build_manifest(records)


@given(manifests())
@settings(max_examples=60, deadline=None)
def test_manifest_round_trip(tmp_path_factory, manifest: Manifest):
    path = tmp_path_factory.mktemp("rt") / "m.jsonl"
    write_manifest(manifest, path)
    again = parse_manifest(path)
    assert again.records == manifest.records
    assert again.slot_vocabulary == manifest.slot_vocabulary
    assert again.intent_vocabulary == manifest.intent_vocabulary
    # serializing the reparsed manifest is byte-stable
    path2 = tmp_path_factory.mktemp("rt") / "m2.jsonl"
    write_manifest(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_records_are_json_lines(tmp_path):
    manifest = build_manifest(
        [Utterance("u0", ["a"], ["O"], "x", audio="a.wav")]
    )
    path = tmp_path / "m.jsonl"
    write_manifest(manifest, path)
    obj = json.loads(path.read_text().splitlines()[0])
    assert obj == {"id": "u0", "words": ["a"], "slots": ["O"], "intent": "x", "audio": "a.wav"}
