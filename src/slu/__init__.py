"""Desk-scale spoken language understanding toolkit."""

from .data import Manifest, Utterance, parse_manifest, write_manifest
from .metrics import align, intent_f1, slots_edit_f1, span_slot_f1
from .subword import SubwordVocab, tokenize

__version__ = "0.1.0"

__all__ = [
    "Manifest",
    "SubwordVocab",
    "Utterance",
    "align",
    "intent_f1",
    "parse_manifest",
    "slots_edit_f1",
    "span_slot_f1",
    "tokenize",
    "write_manifest",
    "__version__",
]
