"""Dataset records and JSONL manifest ingestion.

A manifest is one JSON object per line, ``{id, words, slots, intent, audio?}``,
which ``errors.read_config`` reads into an ``Utterance``, each value checked
against its field's annotation.  An ``Utterance`` checks the record contract
itself and promotes a bare slot label to ``B-<label>``, so its tags are in BIO
form; a parsed record that breaks the contract is named with its file and line.
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

    def __post_init__(self) -> None:
        """Check the record contract and promote each bare label in ``slots``, in place."""
        if not self.id:
            raise ValidationError("record with empty id")
        if len(self.words) != len(self.slots):
            raise ValidationError(f"record {self.id!r}: words length {len(self.words)} != slots length {len(self.slots)}")
        if not all(self.words):
            raise ValidationError(f"record {self.id!r}: empty word string")
        if not self.intent:
            raise ValidationError(f"record {self.id!r}: empty intent label")
        slots = self.slots
        for k, tag in enumerate(slots):
            if tag != OUTSIDE and not tag.startswith(("B-", "I-")):
                tag = slots[k] = f"B-{tag}"
            if tag in ("B-", "I-"):
                raise ValidationError(f"record {self.id!r}: empty slot label")


@dataclass
class Manifest:
    records: list[Utterance]
    slot_vocabulary: frozenset[str]
    intent_vocabulary: frozenset[str]
    base_dir: Path | None = field(default=None, compare=False)


def base_label(tag: str) -> str:
    """Strip a BIO prefix: B-toloc and I-toloc both map to toloc."""
    if tag.startswith(("B-", "I-")):
        return tag[2:]
    return tag


def build_manifest(records: Iterable[Utterance], base_dir: Path | None = None) -> Manifest:
    """The manifest of ``records``, kept as they are, with its closed slot and
    intent vocabularies; two records with one id raise ValidationError."""
    records = list(records)
    seen_ids: set[str] = set()
    for rec in records:
        if rec.id in seen_ids:
            raise ValidationError(f"duplicate record id {rec.id!r}")
        seen_ids.add(rec.id)
    slot_vocab = {OUTSIDE}.union(base_label(tag) for rec in records for tag in rec.slots if tag != OUTSIDE)
    intent_vocab = frozenset(rec.intent for rec in records)
    return Manifest(records, frozenset(slot_vocab), intent_vocab, base_dir)


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
    try:
        return build_manifest(records)
    except ValidationError as exc:  # a duplicate id
        raise ValidationError(f"{source}: {exc}") from exc


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
