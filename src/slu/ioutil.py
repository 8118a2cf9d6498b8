"""Atomic file writes (temp file in the target directory, then rename), staged
directory writes, and checked UTF-8 and JSON reads.

These are the only two ways the package commits an output.  One file goes
through ``atomic_write_bytes``; several go through ``staged_dir``, whose stage
lives inside the target directory and moves its files in only when the block
succeeds and none of them would land on a directory.  A failed commit leaves
the target as it was (no stage, no temp file); a repeated one replaces each
file and leaves nothing else behind.  Every file committed either way takes
the mode that ``open(path, "w")`` gives a new file under the process umask.

Inside ``refusing_to_overwrite_reads`` both commits refuse to write over a file
read through ``read_text`` or ``audio.read_wav``, one that a config or manifest
names too, or the directory ``audio.NoisePool.from_directory`` listed.  A command
reads all of its inputs before it commits, so the refusal comes before any write."""

from __future__ import annotations

import contextlib
import errno
import json
import os
import tempfile
from pathlib import Path

from .errors import ParseError, ValidationError

_reads: dict[str, str] | None = None  # realpath -> the path as read, inside refusing_to_overwrite_reads
_out = ""


@contextlib.contextmanager
def refusing_to_overwrite_reads(out: str):
    """Note what the block reads; a commit onto a noted path raises a
    ValidationError naming ``out`` and that path as it was read."""
    global _reads, _out
    _reads, _out = {}, out
    try:
        yield
    finally:
        _reads = None


def _note_read(path: str | os.PathLike) -> None:
    if _reads is not None:
        _reads.setdefault(os.path.realpath(path), str(path))  # realpath, unlike resolve, returns on a symlink loop


def _refuse_if_read(path: str | os.PathLike) -> None:
    if _reads and (read := _reads.get(os.path.realpath(path))):
        raise ValidationError(f"--out {_out} would write over {read}")


def check_outputs(*paths: str | os.PathLike) -> None:
    """Make the commit's refusal before the work: raise it now for any of
    ``paths`` noted as read so far inside ``refusing_to_overwrite_reads``."""
    for path in paths:
        _refuse_if_read(path)


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> None:
    target = Path(path)
    _refuse_if_read(target)
    tmp = None
    try:
        try:
            fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
        except FileNotFoundError:  # the directory is made only when it is missing
            target.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
        umask = os.umask(0o022)  # reading the umask means setting it; it is put back at once
        os.umask(umask)
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fd, 0o666 & ~umask)  # the mode open(path, "w") gives, where mkstemp gives 0600
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
    """Yield a stage, a dot-named temporary directory inside directory ``path``
    (made with its missing parents if absent), and remove it on exit.  When the
    block succeeds, each file under the stage moves to the same relative place
    under ``path``, replacing an earlier file there, once no place is found to
    be a directory (or a file where a directory goes), so nothing moves unless
    every file can.  When the block or that check raises, ``path`` is left as
    it was, or removed again if this call made it.  An OSError names the place
    under ``path``, never the stage.  Neither ``path`` nor a place may be a noted read."""
    target = Path(path)
    _refuse_if_read(target)
    made = [directory for directory in (target, *target.parents) if not directory.exists()]
    target.mkdir(parents=True, exist_ok=True)
    stage = ""
    try:
        with tempfile.TemporaryDirectory(dir=target, prefix=".stage.") as stage:
            yield Path(stage)
            moves = [(item, target / item.relative_to(stage)) for item in sorted(Path(stage).rglob("*"))]
            for item, place in moves:
                _refuse_if_read(place)
                if place.exists() and place.is_dir() != item.is_dir():  # a file on a directory, or the reverse
                    code = errno.ENOTDIR if item.is_dir() else errno.EISDIR
                    raise OSError(code, os.strerror(code), str(place))
            for item, place in moves:  # sorted, so each directory is made before what it holds
                if item.is_dir():
                    place.mkdir(exist_ok=True)
                else:
                    os.replace(item, place)
    except BaseException as exc:
        for directory in made:  # each holds only the one below it, which is gone
            directory.rmdir()
        if isinstance(exc, OSError) and stage and str(exc.filename).startswith(stage + os.sep):
            raise OSError(exc.errno, exc.strerror, str(target / Path(exc.filename).relative_to(stage))) from exc
        raise


def read_text(path: str | os.PathLike) -> str:
    """The file's text, decoded as UTF-8."""
    _note_read(path)
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
