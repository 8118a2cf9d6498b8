"""Subword tokenizers and the word alignment of their pieces.

Two marker conventions are supported:

* ``bpe``: word-initial pieces carry a leading ``▁`` (the sentencepiece
  convention); continuation pieces are bare.
* ``wordpiece``: word-initial pieces are bare; continuations carry ``##``.

Both tokenize a word by greedy longest-match-first.  A word with no greedy
decomposition becomes the single unknown piece, which always stands for a
whole word.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import DimensionError, ParseError, ValidationError
from .ioutil import atomic_write_text, read_text

BPE = "bpe"
WORDPIECE = "wordpiece"
BPE_MARKER = "▁"
WORDPIECE_MARKER = "##"
DEFAULT_UNK = "<unk>"


@dataclass(frozen=True)
class SubwordVocab:
    kind: str
    pieces: frozenset[str]
    unk: str = DEFAULT_UNK

    def __post_init__(self):
        if self.kind not in (BPE, WORDPIECE):
            raise ValidationError(f"unknown tokenizer kind {self.kind!r}")
        if self.unk not in self.pieces:
            raise ValidationError(f"unknown piece {self.unk!r} missing from vocabulary")
        for piece in self.pieces:
            if piece in ("", BPE_MARKER, WORDPIECE_MARKER):
                raise ValidationError(f"invalid empty piece {piece!r}")

    @classmethod
    def create(cls, kind: str, pieces, unk: str = DEFAULT_UNK) -> "SubwordVocab":
        """Build a vocab; the unknown piece is added if absent."""
        return cls(kind, frozenset(pieces) | {unk}, unk)

    def sorted_pieces(self) -> list[str]:
        return sorted(self.pieces)


@dataclass
class TokenizationResult:
    """Subword tokens plus, for each word, the index of its first subword.

    The indices are checked on construction (each names a token, and they
    strictly increase).  The lists stay mutable, so ``JointModel.prepare``
    checks a caller's result again, on a copy, before gathering rows with it.
    """

    tokens: list[str]
    first_index: list[int]

    def __post_init__(self):
        prev = -1
        for word, row in enumerate(self.first_index):
            if not 0 <= row < len(self.tokens):
                raise DimensionError(f"first_index[{word}]={row} out of range for {len(self.tokens)} tokens")
            if row <= prev:
                raise DimensionError("first_index must be strictly increasing")
            prev = row

    @property
    def num_tokens(self) -> int:
        return len(self.tokens)

    @property
    def num_words(self) -> int:
        return len(self.first_index)


def _greedy_word(word: str, vocab: SubwordVocab) -> list[str] | None:
    """Greedy longest-match pieces for one word, or None if no cover exists."""
    if vocab.kind == BPE:
        initial_prefix, cont_prefix = BPE_MARKER, ""
    else:
        initial_prefix, cont_prefix = "", WORDPIECE_MARKER
    pieces = vocab.pieces
    out: list[str] = []
    pos = 0
    while pos < len(word):
        prefix = initial_prefix if pos == 0 else cont_prefix
        chosen = None
        for end in range(len(word), pos, -1):
            candidate = prefix + word[pos:end]
            if candidate in pieces:
                chosen = (candidate, end)
                break
        if chosen is None:
            return None
        out.append(chosen[0])
        pos = chosen[1]
    return out


def tokenize(words, vocab: SubwordVocab) -> TokenizationResult:
    """Greedy subword decomposition of a word sequence.

    Words with no decomposition map to the single unknown piece so that the
    first-index structure stays well-defined.
    """
    tokens: list[str] = []
    first_index: list[int] = []
    for word in words:
        if not isinstance(word, str) or not word:
            raise ValidationError(f"cannot tokenize empty or non-string word {word!r}")
        first_index.append(len(tokens))
        sub = _greedy_word(word, vocab)
        tokens.extend(sub if sub is not None else [vocab.unk])
    return TokenizationResult(tokens, first_index)


def strip_marker(piece: str, kind: str) -> str:
    if kind == BPE:
        return piece[len(BPE_MARKER):] if piece.startswith(BPE_MARKER) else piece
    return piece[len(WORDPIECE_MARKER):] if piece.startswith(WORDPIECE_MARKER) else piece


def _starts_word(piece: str, vocab: SubwordVocab) -> bool:
    if piece == vocab.unk:
        return True
    if vocab.kind == BPE:
        return piece.startswith(BPE_MARKER)
    return not piece.startswith(WORDPIECE_MARKER)


def merge_tokens(tokens, vocab: SubwordVocab) -> tuple[list[str], list[int]]:
    """Rebuild words (and their first-subword indices) from a token sequence.

    The unknown piece always forms a standalone word.  A leading continuation
    piece opens a word anyway, so any token sequence merges cleanly.
    """
    words: list[str] = []
    first_index: list[int] = []
    for i, piece in enumerate(tokens):
        boundary = i == 0 or _starts_word(piece, vocab) or tokens[i - 1] == vocab.unk
        text = piece if piece == vocab.unk else strip_marker(piece, vocab.kind)
        if boundary:
            words.append(text)
            first_index.append(i)
        else:
            words[-1] += text
    return words, first_index


# --- vocab file format: header "#kind: bpe|wordpiece", one piece per line ----

def load_vocab(path: str | Path) -> SubwordVocab:
    path = Path(path)
    lines = read_text(path).splitlines()
    if not lines or not lines[0].startswith("#kind:"):
        raise ParseError(f"{path}: missing '#kind: bpe|wordpiece' header line")
    kind = lines[0].split(":", 1)[1].strip()
    if kind not in (BPE, WORDPIECE):
        raise ParseError(f"{path}: unknown tokenizer kind {kind!r}")
    pieces = [line for line in lines[1:] if line]
    try:
        return SubwordVocab.create(kind, pieces)
    except ValidationError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def save_vocab(vocab: SubwordVocab, path: str | Path) -> None:
    body = "".join(p + "\n" for p in vocab.sorted_pieces())
    atomic_write_text(path, f"#kind: {vocab.kind}\n{body}")
