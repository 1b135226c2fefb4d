"""The PERMSET text format, version 1::

    permset 1 <k> <n>
    <k value lines, one permutation each>

A single permutation is stored as `permset 1 1 <n>`.  All values are
1-based, space-separated ASCII decimal, newline-terminated.  Each value
line is formatted and parsed in bulk, as one numpy array: the writer
renders all digits of a line at once into a byte buffer, and the reader
converts the line's tokens with one `np.array(..., dtype=np.int64)` call
(Python `int()` syntax per token), then hands the array to `Permutation`,
whose one validation rejects anything that is not a rearrangement of 1..n.
Error messages name the physical line.
"""

from __future__ import annotations

import os
from typing import Iterator, Union

import numpy as np

from .perm import Permutation, PermSet

_POWERS_OF_TEN = 10 ** np.arange(19, dtype=np.int64)


class FormatError(ValueError):
    """Raised when a PERMSET document is malformed."""


def _value_line(p: Permutation) -> str:
    """The 1-based one-line form as a value line, equal to
    `" ".join(map(str, p.one_line)) + "\n"`."""
    values = p.array + 1
    widths = np.searchsorted(_POWERS_OF_TEN, values, side="right")
    ends = np.cumsum(widths + 1) - 1  # the separator after each value
    buf = np.full(ends[-1] + 1, ord(" "), dtype=np.uint8)
    buf[-1] = ord("\n")
    # Write the last digit of every value, drop the values with no digits
    # left, and step one byte to the left; each round is one digit column.
    idx = ends - 1
    while values.size:
        buf[idx] = values % 10 + ord("0")
        values = values // 10
        alive = values > 0
        values, idx = values[alive], idx[alive] - 1
    return buf.tobytes().decode("ascii")


def _permset_lines(s: PermSet) -> Iterator[str]:
    yield f"permset 1 {s.k} {s.n}\n"
    yield from map(_value_line, s.perms)


def dumps_permset(s: PermSet) -> str:
    return "".join(_permset_lines(s))


def _parse_values(line: str, n: int, lineno: int) -> Permutation:
    tokens = line.split()
    if len(tokens) != n:
        raise FormatError(f"line {lineno}: expected {n} values, got {len(tokens)}")
    try:
        images = np.array(tokens, dtype=np.int64)
    except ValueError as exc:
        raise FormatError(f"line {lineno}: non-integer value") from exc
    except OverflowError as exc:
        raise FormatError(f"line {lineno}: value outside 1..{n}") from exc
    try:
        return Permutation.from_one_line(images)
    except ValueError as exc:
        raise FormatError(f"line {lineno}: {exc}") from exc


def loads_permset(text: str) -> PermSet:
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty document")
    header = lines[0].split()
    if len(header) != 4 or header[:2] != ["permset", "1"]:
        raise FormatError(f"bad PERMSET header: {lines[0]!r}")
    try:
        k, n = int(header[2]), int(header[3])
    except ValueError as exc:
        raise FormatError(f"bad PERMSET header: {lines[0]!r}") from exc
    if k < 1 or n < 1:
        raise FormatError(f"invalid PERMSET dimensions k={k}, n={n}")
    body = [(lineno, ln) for lineno, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(body) != k:
        raise FormatError(f"expected {k} value lines, got {len(body)}")
    perms = tuple(_parse_values(ln, n, lineno) for lineno, ln in body)
    return PermSet(perms, provenance="imported")


def write_permset(s: PermSet, path: Union[str, os.PathLike]) -> None:
    """Write line by line, so the whole document is never held in memory."""
    with open(path, "w", encoding="ascii", newline="") as f:
        f.writelines(_permset_lines(s))


def read_permset(path: Union[str, os.PathLike]) -> PermSet:
    with open(path, "r", encoding="ascii") as f:
        return loads_permset(f.read())
