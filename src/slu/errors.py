"""Exception types shared across the toolkit, the config field check, and the JSON section reader."""

import dataclasses
import functools

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


@functools.cache
def _required(cls) -> list[str]:
    """The fields of dataclass ``cls`` that have no default."""
    return [f.name for f in dataclasses.fields(cls) if f.default is f.default_factory is dataclasses.MISSING]


def read_config(cls, obj, path: str = "", **given):
    """Dataclass ``cls`` built from ``obj``, the JSON object at ``path`` (empty for a
    file's top level), with ``given`` supplying the fields that the JSON must not hold.
    A value that is not an object, its first unknown or missing key, and whatever
    ``cls`` itself rejects raise ValidationError naming ``path``."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{path or 'the top level'} must be a JSON object, got {type(obj).__name__}")
    where = f"{path}: " if path else ""
    for key in obj:
        if key not in cls.__dataclass_fields__ or key in given:
            raise ValidationError(f"{where}unknown key {key!r}")
    for name in _required(cls):
        if name not in obj and name not in given:
            raise ValidationError(f"{where}missing key {name!r}")
    try:
        return cls(**obj, **given)
    except ValidationError as exc:
        raise ValidationError(f"{where}{exc}") from exc
