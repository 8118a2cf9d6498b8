"""Exception types shared across the toolkit, and the config field check."""

import dataclasses

_ANNOTATED = {"int": (int,), "float": (int, float), "str": (str,), "None": (type(None),)}


class SluError(Exception):
    """Base class for all toolkit errors."""


class ParseError(SluError):
    """Malformed input file: bad JSON, bad vocab header, wrong field type."""


class ValidationError(SluError):
    """Well-formed input that violates a dataset or metric contract."""


class DimensionError(SluError):
    """Matrix shapes or sequence lengths do not line up."""


class AudioFormatError(SluError):
    """WAV data is not 16-bit PCM mono, or is otherwise unusable."""


class DecodeError(SluError):
    """Decoding produced no hypothesis."""


class NumericError(SluError):
    """Non-finite value encountered during training or gradient computation."""


def check_field_types(config) -> None:
    """Raise ValidationError for the first field of a config dataclass whose
    value does not have its annotated type.

    Fields annotated ``int``, ``float``, ``str``, or a union of those with
    ``None``, are checked (an int is a float, a bool is neither); other
    annotations are left alone.  The config modules use postponed (string)
    annotations, which is what ``dataclasses.fields`` reports here.
    """
    for f in dataclasses.fields(config):
        names = f.type.split(" | ")
        if not set(names) <= set(_ANNOTATED):
            continue
        value = getattr(config, f.name)
        if isinstance(value, bool) or not isinstance(value, tuple(t for n in names for t in _ANNOTATED[n])):
            raise ValidationError(
                f"{type(config).__name__}.{f.name} must be {f.type}, got {type(value).__name__}"
            )
