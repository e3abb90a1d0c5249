"""Binary container primitives shared by dataset and model files.

Layout: magic bytes, little-endian u32 version, canonical-JSON header
block, then length-prefixed payload blocks until EOF.  Every read error
reports the byte offset where parsing failed.

Every reader of a JSON tree (dataset and model headers, record metas,
the generator block, run configs) takes its values through
:func:`value_of`, whose rule is: check, never cast.  A value of the
wrong kind raises ``ValueError`` naming its key, which
:func:`malformed` turns into a :class:`FormatError` at the offset.
"""

from __future__ import annotations

import io
import json
import math
import struct
from contextlib import contextmanager


class FormatError(ValueError):
    """A file failed to parse; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@contextmanager
def malformed(what: str, offset: int):
    """Report a missing or ill-typed field, or a value its type rejects
    (a degenerate box, a negative shape), as a :class:`FormatError`."""
    try:
        yield
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed {what}: {exc}", offset) from exc


# the name of each kind in error messages
_KINDS = {int: "int", float: "finite float", str: "str"}


def _checked(value, kind, shape):
    if shape:
        if not isinstance(value, (list, tuple)) or shape[0] not in (0, len(value)):
            raise ValueError
        return tuple(_checked(item, kind, shape[1:]) for item in value)
    if isinstance(value, bool) or not isinstance(
            value, (int, float) if kind is float else kind) or (
            kind is float and not math.isfinite(value)):  # OverflowError past 1e308
        raise ValueError
    return float(value) if kind is float else value


def value_of(tree, key, kind, shape=()):
    """``tree[key]`` checked, never cast: an int but not a bool, a finite
    int or float (returned as a float), or a str.  ``shape`` asks for
    nested lists of them, returned as tuples; a 0 in it is any length."""
    try:
        value = tree[key]
    except (KeyError, IndexError):
        raise ValueError(f"lacks key {key!r}") from None
    try:
        return _checked(value, kind, shape)
    except (ValueError, OverflowError):
        dims = "".join(f"[{n or ''}]" for n in shape)
        raise ValueError(f"{key}: expected {_KINDS[kind]}{dims}, "
                         f"got {value!r}") from None


def canonical_json(obj) -> bytes:
    """Serialize with sorted keys and fixed separators; byte-stable."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")


def read_exact(fh, n: int, what: str) -> bytes:
    """Read ``n`` bytes; a length beyond the end of the file is checked
    before anything is allocated for it."""
    offset = fh.tell()
    left = fh.seek(0, io.SEEK_END) - offset
    fh.seek(offset)
    if n > left:
        raise FormatError(f"truncated {what}: wanted {n} bytes, got {left}", offset)
    return fh.read(n)


def write_preamble(fh, magic: bytes, version: int, header) -> None:
    fh.write(magic)
    fh.write(struct.pack("<I", version))
    blob = canonical_json(header)
    fh.write(struct.pack("<Q", len(blob)))
    fh.write(blob)


def read_preamble(fh, magic: bytes, supported_versions) -> tuple[int, dict]:
    offset = fh.tell()
    got = read_exact(fh, len(magic), "magic")
    if got != magic:
        raise FormatError(f"bad magic {got!r}, expected {magic!r}", offset)
    version = struct.unpack("<I", read_exact(fh, 4, "version"))[0]
    if version not in supported_versions:
        raise FormatError(f"unsupported format version {version}", fh.tell() - 4)
    length = struct.unpack("<Q", read_exact(fh, 8, "header length"))[0]
    offset = fh.tell()
    blob = read_exact(fh, length, "header")
    try:
        header = json.loads(blob)
    except ValueError as exc:  # also bytes that are not UTF-8
        raise FormatError(f"header is not valid JSON: {exc}", offset) from exc
    if not isinstance(header, dict):
        raise FormatError("header must be a JSON object", offset)
    return version, header


def write_block(fh, payload: bytes) -> None:
    fh.write(struct.pack("<Q", len(payload)))
    fh.write(payload)


def read_block(fh) -> bytes | None:
    """Next length-prefixed block, or None at a clean end of file."""
    offset = fh.tell()
    prefix = fh.read(8)
    if len(prefix) == 0:
        return None
    if len(prefix) < 8:
        raise FormatError("truncated block length prefix", offset)
    length = struct.unpack("<Q", prefix)[0]
    return read_exact(fh, length, "block payload")
