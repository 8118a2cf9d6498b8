"""Dataset records, JSONL manifest ingestion, and light text normalization.

A manifest is one JSON object per line with fields
``{id, words, slots, intent, audio?}``.  Slot tags are stored internally in
BIO form; bare labels are promoted to ``B-<label>`` on parse.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ParseError, ValidationError
from .ioutil import atomic_write_text, read_text

OUTSIDE = "O"

_RECORD_FIELDS = {"id", "words", "slots", "intent", "audio"}


@dataclass
class Utterance:
    """One dataset record: word sequence, slot tags, intent, optional audio."""

    id: str
    words: list[str]
    slots: list[str]
    intent: str
    audio_path: str | None = None
    samples: object | None = field(default=None, compare=False, repr=False)


@dataclass
class Manifest:
    records: list[Utterance]
    slot_vocabulary: frozenset[str]
    intent_vocabulary: frozenset[str]
    base_dir: Path | None = field(default=None, compare=False)


def canonical_slot(tag: str) -> str:
    """Promote a bare label to B- form; keep O and B-/I- tags unchanged."""
    if tag == OUTSIDE:
        return tag
    if tag.startswith(("B-", "I-")):
        return tag
    return f"B-{tag}"


def base_label(tag: str) -> str:
    """Strip a BIO prefix: B-toloc and I-toloc both map to toloc."""
    if tag.startswith(("B-", "I-")):
        return tag[2:]
    return tag


def build_manifest(records: Iterable[Utterance], base_dir: Path | None = None) -> Manifest:
    """Validate records and derive the closed slot/intent vocabularies.

    The manifest holds copies of the records with their slots in canonical
    BIO form; the records passed in are left as they are.
    """
    copies = (
        Utterance(rec.id, list(rec.words), list(rec.slots), rec.intent, rec.audio_path, rec.samples)
        for rec in records
    )
    return _manifest_of(copies, base_dir)


def _manifest_of(records: Iterable[Utterance], base_dir: Path | None = None) -> Manifest:
    """build_manifest on records that no caller keeps: each record's slot
    list is put in canonical form in place."""
    out: list[Utterance] = []
    seen_ids: set[str] = set()
    slot_vocab: set[str] = {OUTSIDE}
    intent_vocab: set[str] = set()
    for rec in records:
        if not rec.id:
            raise ValidationError("record with empty id")
        if rec.id in seen_ids:
            raise ValidationError(f"duplicate record id {rec.id!r}")
        seen_ids.add(rec.id)
        if len(rec.words) != len(rec.slots):
            raise ValidationError(
                f"record {rec.id!r}: words length {len(rec.words)} != slots length {len(rec.slots)}"
            )
        if any(not w for w in rec.words):
            raise ValidationError(f"record {rec.id!r}: empty word string")
        if not rec.intent:
            raise ValidationError(f"record {rec.id!r}: empty intent label")
        slots = rec.slots
        for k, tag in enumerate(slots):
            tag = slots[k] = canonical_slot(tag)
            label = base_label(tag)
            if not label:
                raise ValidationError(f"record {rec.id!r}: empty slot label")
            if tag != OUTSIDE:
                slot_vocab.add(label)
        intent_vocab.add(rec.intent)
        out.append(rec)
    return Manifest(out, frozenset(slot_vocab), frozenset(intent_vocab), base_dir)


def _record_from_obj(obj: object, where: str) -> Utterance:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - _RECORD_FIELDS
    if unknown:
        raise ParseError(f"{where}: unknown field(s) {sorted(unknown)}")
    for name in ("id", "words", "slots", "intent"):
        if name not in obj:
            raise ParseError(f"{where}: missing field {name!r}")
    if not isinstance(obj["id"], str):
        raise ParseError(f"{where}: field 'id' must be a string")
    for name in ("words", "slots"):
        value = obj[name]
        if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
            raise ParseError(f"{where}: field {name!r} must be a list of strings")
    if not isinstance(obj["intent"], str):
        raise ParseError(f"{where}: field 'intent' must be a string")
    audio = obj.get("audio")
    if audio is not None and not isinstance(audio, str):
        raise ParseError(f"{where}: field 'audio' must be a string path")
    return Utterance(obj["id"], obj["words"], obj["slots"], obj["intent"], audio)


def parse_manifest_lines(lines: Iterable[str], source: str = "<memory>") -> Manifest:
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{source}:{lineno}: invalid JSON: {exc}") from exc
        records.append(_record_from_obj(obj, f"{source}:{lineno}"))
    return _manifest_of(records)


def parse_manifest(path: str | Path) -> Manifest:
    """Parse and validate a JSONL manifest; record order is preserved."""
    path = Path(path)
    manifest = parse_manifest_lines(read_text(path).split("\n"), source=str(path))
    manifest.base_dir = path.parent
    return manifest


def record_to_json(rec: Utterance) -> str:
    obj: dict[str, object] = {
        "id": rec.id,
        "words": rec.words,
        "slots": rec.slots,
        "intent": rec.intent,
    }
    if rec.audio_path is not None:
        obj["audio"] = rec.audio_path
    return json.dumps(obj, ensure_ascii=False)


def write_manifest(manifest: Manifest, path: str | Path) -> None:
    text = "".join(record_to_json(rec) + "\n" for rec in manifest.records)
    atomic_write_text(path, text)


def find_slot_conflicts(manifest: Manifest) -> dict[str, list[str]]:
    """Words that carry more than one distinct slot label across the corpus.

    Returned for warning purposes only; conflicting records are never dropped.
    """
    labels_by_word: dict[str, set[str]] = {}
    for rec in manifest.records:
        for word, tag in zip(rec.words, rec.slots):
            labels_by_word.setdefault(word, set()).add(base_label(tag))
    return {w: sorted(ls) for w, ls in sorted(labels_by_word.items()) if len(ls) > 1}


# --- text normalization -----------------------------------------------------

_UNITS = (
    "zero one two three four five six seven eight nine ten eleven twelve "
    "thirteen fourteen fifteen sixteen seventeen eighteen nineteen"
).split()
_TENS = "twenty thirty forty fifty sixty seventy eighty ninety".split()
_PUNCT_TABLE = str.maketrans("", "", '.,?!;:"()')


def number_to_words(n: int) -> list[str]:
    """Spell an integer in 0..9999 as lowercase words ("21" -> twenty one)."""
    if not 0 <= n <= 9999:
        raise ValueError(f"number out of range for expansion: {n}")
    if n < 20:
        return [_UNITS[n]]
    if n < 100:
        tens, rest = divmod(n, 10)
        return [_TENS[tens - 2]] + ([_UNITS[rest]] if rest else [])
    if n < 1000:
        hundreds, rest = divmod(n, 100)
        return [_UNITS[hundreds], "hundred"] + (number_to_words(rest) if rest else [])
    thousands, rest = divmod(n, 1000)
    return [_UNITS[thousands], "thousand"] + (number_to_words(rest) if rest else [])


def normalize_text(raw: str) -> list[str]:
    """Lowercase, strip punctuation, split on whitespace, expand small integers.

    Standalone integers up to 9999 are expanded by table; anything larger (or
    mixed alphanumeric) passes through unchanged.  Total function: never raises.
    """
    out: list[str] = []
    for token in raw.lower().translate(_PUNCT_TABLE).split():
        if token.isascii() and token.isdigit() and int(token) <= 9999:
            out.extend(number_to_words(int(token)))
        else:
            out.append(token)
    return out


def iter_pairs(manifest: Manifest) -> list[tuple[Sequence[str], Sequence[str]]]:
    """(words, slots) view of a manifest, in record order."""
    return [(rec.words, rec.slots) for rec in manifest.records]
