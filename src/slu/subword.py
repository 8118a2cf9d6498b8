"""Subword tokenizers and the word alignment of their pieces.

Two marker conventions are supported, one per kind in ``MARKERS``: ``bpe``
word-initial pieces carry a leading ``▁`` (the sentencepiece convention), and
``wordpiece`` continuations carry ``##``; all other pieces are bare.

Both tokenize a word by greedy longest-match-first.  A word with no greedy
decomposition becomes the single unknown piece, which always stands for a
whole word.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError, ValidationError
from .ioutil import atomic_write_text, read_text

BPE = "bpe"
WORDPIECE = "wordpiece"
BPE_MARKER = "▁"
WORDPIECE_MARKER = "##"
DEFAULT_UNK = "<unk>"

# Each kind's (word-initial, continuation) piece prefixes; one of the two is empty.
MARKERS = {BPE: (BPE_MARKER, ""), WORDPIECE: ("", WORDPIECE_MARKER)}


@dataclass(frozen=True)
class SubwordVocab:
    kind: str
    pieces: frozenset[str]
    unk: str = DEFAULT_UNK

    def __post_init__(self):
        if self.kind not in MARKERS:
            raise ValidationError(f"unknown tokenizer kind {self.kind!r}")
        if self.unk not in self.pieces:
            raise ValidationError(f"unknown piece {self.unk!r} missing from vocabulary")
        for piece in self.pieces:
            if piece in MARKERS[self.kind]:  # "" or the kind's own bare marker
                what = f"piece {piece!r}: the {self.kind} marker with no text" if piece else "empty piece ''"
                raise ValidationError(f"invalid {what}")

    @classmethod
    def create(cls, kind: str, pieces, unk: str = DEFAULT_UNK) -> "SubwordVocab":
        """Build a vocab; the unknown piece is added if absent."""
        return cls(kind, frozenset(pieces) | {unk}, unk)

    def sorted_pieces(self) -> list[str]:
        return sorted(self.pieces)


def _greedy_word(word: str, vocab: SubwordVocab) -> list[str] | None:
    """Greedy longest-match pieces for one word, or None if no cover exists."""
    initial_prefix, cont_prefix = MARKERS[vocab.kind]
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


def tokenize(words, vocab: SubwordVocab) -> tuple[list[str], list[int]]:
    """Greedy subword pieces of a word sequence and, for each word, the index
    of its first piece: each index names a piece, and they strictly increase.

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
    return tokens, first_index


def merge_tokens(tokens, vocab: SubwordVocab) -> tuple[list[str], list[int]]:
    """Rebuild words (and their first-subword indices) from a token sequence.

    The unknown piece always forms a standalone word.  A leading continuation
    piece opens a word anyway, so any token sequence merges cleanly.
    """
    initial, cont = MARKERS[vocab.kind]
    words: list[str] = []
    first_index: list[int] = []
    for i, piece in enumerate(tokens):
        if piece == vocab.unk:
            continues, text = False, piece
        else:  # only the kind's marker counts: the other kind's is plain text
            continues = piece.startswith(cont) if cont else not piece.startswith(initial)
            text = piece[len(cont if continues else initial):]
        if continues and i and tokens[i - 1] != vocab.unk:
            words[-1] += text
        else:
            words.append(text)
            first_index.append(i)
    return words, first_index


# --- vocab file format: header "#kind: bpe|wordpiece", one piece per line ----

def load_vocab(path: str | Path) -> SubwordVocab:
    path = Path(path)
    lines = read_text(path).splitlines()
    if not lines or not lines[0].startswith("#kind:"):
        raise ParseError(f"{path}: missing '#kind: bpe|wordpiece' header line")
    pieces = [line for line in lines[1:] if line]
    try:  # SubwordVocab checks the kind and the pieces
        return SubwordVocab.create(lines[0].split(":", 1)[1].strip(), pieces)
    except ValidationError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def save_vocab(vocab: SubwordVocab, path: str | Path) -> None:
    body = "".join(p + "\n" for p in vocab.sorted_pieces())
    atomic_write_text(path, f"#kind: {vocab.kind}\n{body}")
