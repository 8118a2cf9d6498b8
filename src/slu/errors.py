"""Exception types shared across the toolkit, and the reader that turns a JSON
section into a config dataclass, checking each value against its field's annotation."""

import dataclasses
import functools
import sys

# The Python types of the JSON values that each annotation name admits.
_JSON_TYPES = {
    "int": (int,), "float": (int, float), "str": (str,), "dict": (dict,), "list": (list,), "None": (type(None),)
}


class SluError(Exception):
    """Base class for all toolkit errors."""


class ParseError(SluError):
    """Malformed input file: bad JSON, bad vocab header."""


class ValidationError(SluError):
    """Well-formed input that violates a dataset or metric contract."""


class DimensionError(SluError):
    """Matrix shapes or sequence lengths do not line up."""


class AudioFormatError(SluError):
    """WAV data is not 16-bit PCM mono, or is otherwise unusable."""


class DecodeError(SluError):
    """A beam search asked for a beam size below 1 or a negative ``max_len``."""


class NumericError(SluError):
    """Non-finite value encountered during training or gradient computation."""


@functools.cache
def _fields(cls) -> tuple[dict, list[str]]:
    """The fields of dataclass ``cls`` that JSON may hold, each with the JSON
    types its annotation admits, the types of a list's items (None when the
    items are not checked here) and the annotation as a message names it;
    and the names of those without a default.

    The annotations are strings (the config modules postpone them).  One is a
    union, joined by `` | ``, of ``int``, ``float`` (an int is a float),
    ``str``, ``dict``, ``list``, ``list[str]``, ``list[int]``, ``list[float]``
    and ``None``; types are matched exactly, so a bool is never a number.
    ``list[X]`` of another ``X`` checks only the list, and any other
    annotation is not checked.  Where a float is admitted, alone or as a
    list's items, an int beyond the float range is not.
    """
    fields, required = {}, []
    for f in dataclasses.fields(cls):
        if not f.init:
            continue
        types, items = frozenset(), None
        for name in f.type.split(" | "):
            outer, _, inner = name.partition("[")
            if outer not in _JSON_TYPES or inner and outer != "list":
                types = items = None
                break
            types = types.union(_JSON_TYPES[outer])
            if inner:
                items = frozenset(_JSON_TYPES.get(inner[:-1], ())) or None
        fields[f.name] = (types, items, "a JSON object" if f.type == "dict" else f.type)
        if f.default is f.default_factory is dataclasses.MISSING:
            required.append(f.name)
    return fields, required


def read_config(cls, obj, path: str = "", **given):
    """Dataclass ``cls`` built from ``obj``, the JSON object at ``path`` (empty for a
    file's top level), with ``given`` supplying the fields that the JSON must not hold.
    A value that is not an object, its first unknown key, a value that its field's
    annotation does not admit (see ``_fields``), the first missing key, and whatever
    ``cls`` itself rejects raise ValidationError naming ``path``, in the form
    ``<path>: <key> must be <annotation>, got <JSON type>`` for a mistyped value."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{path or 'the top level'} must be a JSON object, got {type(obj).__name__}")
    where = f"{path}: " if path else ""
    fields, required = _fields(cls)
    for key, value in obj.items():
        spec = fields.get(key)
        if spec is None or key in given:
            raise ValidationError(f"{where}unknown key {key!r}")
        types, items, annotation = spec
        kind = type(value)
        if types is not None and kind not in types:
            got = kind.__name__
        elif items and kind is list and not items.issuperset(map(type, value)):
            got = f"list[{' | '.join(sorted({type(v).__name__ for v in value}))}]"
        elif float in ((items if kind is list else types) or ()) and any(
            type(v) is int and abs(v) > sys.float_info.max for v in (value if kind is list else [value])
        ):
            got = "an int beyond the float range"
        else:
            continue
        raise ValidationError(f"{where}{key} must be {annotation}, got {got}")
    for name in required:
        if name not in obj and name not in given:
            raise ValidationError(f"{where}missing key {name!r}")
    try:
        return cls(**obj, **given)
    except ValidationError as exc:
        raise ValidationError(f"{where}{exc}") from exc
