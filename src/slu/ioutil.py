"""Atomic file writes (temp file in the target directory, then rename), staged
directory writes, and checked UTF-8 and JSON reads."""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path

from .errors import ParseError


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> None:
    target = Path(path)
    tmp = None
    try:
        try:
            fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
        except FileNotFoundError:  # the directory is made only when it is missing
            target.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):  # name the target, not a temp file that is gone or never was
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


@contextlib.contextmanager
def staged_dir(path: str | os.PathLike):
    """Yield a temporary sibling of directory ``path``; when the block succeeds,
    its files move into ``path``, and when it raises, ``path`` is left as it was."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=target.parent, prefix=f".{target.name}.") as tmp:
        yield Path(tmp)
        target.mkdir(exist_ok=True)
        for item in sorted(Path(tmp).iterdir()):
            os.replace(item, target / item.name)


def read_text(path: str | os.PathLike) -> str:
    """The file's text, decoded as UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc


def read_json(path: str | os.PathLike):
    """The value of a UTF-8 JSON file."""
    try:
        return json.loads(read_text(path))
    except ValueError as exc:  # JSONDecodeError, or an int past Python's digit limit
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
