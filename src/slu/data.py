"""Dataset records and JSONL manifest ingestion.

A manifest is one JSON object per line, ``{id, words, slots, intent, audio?}``,
which ``errors.read_config`` reads into an ``Utterance``, each value checked
against its field's annotation.  Slot tags are stored
internally in BIO form; bare labels are promoted to ``B-<label>`` on parse.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from .errors import ParseError, ValidationError, read_config
from .ioutil import atomic_write_text, read_text

if TYPE_CHECKING:
    from .audio import AudioClip

OUTSIDE = "O"


@dataclass
class Utterance:
    """One dataset record: word sequence, slot tags, intent, optional audio."""

    id: str
    words: list[str]
    slots: list[str]
    intent: str
    audio: str | None = None  # the WAV's path, relative to the manifest's directory
    clip: AudioClip | None = field(default=None, compare=False, repr=False)  # in-memory audio, used before `audio`


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
        slots = list(rec.slots)
        for k, tag in enumerate(slots):
            tag = slots[k] = canonical_slot(tag)
            label = base_label(tag)
            if not label:
                raise ValidationError(f"record {rec.id!r}: empty slot label")
            if tag != OUTSIDE:
                slot_vocab.add(label)
        intent_vocab.add(rec.intent)
        out.append(Utterance(rec.id, list(rec.words), slots, rec.intent, rec.audio, rec.clip))
    return Manifest(out, frozenset(slot_vocab), frozenset(intent_vocab), base_dir)


def parse_manifest_lines(lines: Iterable[str], source: str = "<memory>") -> Manifest:
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:  # JSONDecodeError, or an int past Python's digit limit
            raise ParseError(f"{source}:{lineno}: invalid JSON: {exc}") from exc
        records.append(read_config(Utterance, obj, f"{source}:{lineno}", clip=None))
    return build_manifest(records)


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
    if rec.audio is not None:
        obj["audio"] = rec.audio
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
