"""The PERMSET text format, version 1::

    permset 1 <k> <n>
    <k value lines, one permutation each>

A single permutation is stored as `permset 1 1 <n>`.  All values are
1-based, space-separated ASCII decimal, newline-terminated, and n may not
exceed the ground-set cap `perm.MAX_N`, so values lie in 1..MAX_N < 10**8.

Writing has one route: each value line is rendered into one `uint8` buffer,
every value as two four-digit groups from a table of 0000..9999, cut to its
width by one precomputed mask.  A set above the cap, which no reader would
accept, raises ValueError before `write_permset` opens its path.

Reading has one route: `read_permset` takes a binary file one line at a
time, so it holds the current line and the members parsed so far, never the
whole text, and `loads_permset` runs it over the text's ASCII encoding.
Lines are split and numbered as `str.splitlines` splits the whole text.  A
value line takes the fast path when its bytes are only digits, spaces and
`\\n` and its length is the canonical n + D(n), D(n) being the digit count
of 1..n: one `np.fromstring` parse, then `Permutation`'s one validation.
The length guard means a line that passes holds no token of 19 or more
digits, so an `int64` overflow inside `fromstring` is never accepted.  Every
other line, and every fast-path line that fails (wrong value count, not a
permutation), takes the exact path: its tokens are converted by one
`np.array(..., dtype=np.int64)` call (Python `int()` syntax per token), and
that path alone words the error.  Errors name the physical line.  As when
the whole text was decoded before parsing, what is not ASCII is reported
first (a `UnicodeError`), then the header, then a wrong count of value
lines, then the first bad value; only the ground-set cap is reported as soon
as the header is read from a file.
"""

from __future__ import annotations

import io
import os
from itertools import chain
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .perm import MAX_N, Permutation, PermSet

# 10**0..10**8: a value in 1..MAX_N is as wide as the count of entries <= it.
_POWERS_OF_TEN = 10 ** np.arange(9, dtype=np.int64)
_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
# Entry v holds the four ASCII digits of v, zero-padded, for v in 0..9999.
_DIGITS4 = (
    np.stack(np.broadcast_arrays(_DIGITS[:, None, None, None], _DIGITS[:, None, None],
                                 _DIGITS[:, None], _DIGITS), axis=-1)
    .view(np.uint32)
    .ravel()
)
_SPACES4 = np.frombuffer(b"    ", dtype=np.uint32)[0]
# Row w keeps the last w of a value's eight digits and the space after them.
_KEEP = np.array([[8 - w <= col <= 8 for col in range(12)] for w in range(9)])
_PLAIN = b"0123456789 \n"  # the only bytes a fast-path line holds

_Line = Union[bytes, str]


class FormatError(ValueError):
    """Raised when a PERMSET document is malformed."""


def _value_line(values: np.ndarray) -> np.ndarray:
    """`" ".join(map(str, values)) + "\\n"` as a `uint8` buffer, for `int64`
    values in 1..MAX_N.

    Each value gets a row of two four-digit groups, zero-padded on the left,
    and four spaces; one boolean mask, picked by the value's width, keeps the
    row's digits and one space.
    """
    high, low = np.divmod(values, 10_000)
    rows = np.empty((values.size, 3), dtype=np.uint32)
    rows[:, 0] = _DIGITS4[high]
    rows[:, 1] = _DIGITS4[low]
    rows[:, 2] = _SPACES4
    buf = rows.view(np.uint8)[_KEEP[np.searchsorted(_POWERS_OF_TEN, values, side="right")]]
    buf[-1] = ord("\n")
    return buf


def _permset_lines(s: PermSet) -> Iterator[Union[bytes, np.ndarray]]:
    """The document's lines; ValueError on the call, before any line is made,
    for a set above the cap."""
    if s.n > MAX_N:
        raise ValueError(f"n = {s.n} exceeds the ground-set cap {MAX_N}")
    header = f"permset 1 {s.k} {s.n}\n".encode("ascii")
    return chain((header,), (_value_line(p.array + 1) for p in s.perms))


def dumps_permset(s: PermSet) -> str:
    return b"".join(_permset_lines(s)).decode("ascii")


def _split(chunk: bytes) -> Sequence[_Line]:
    """The physical lines of a chunk that ends at a line break (or at the end
    of the document), breaks kept.  A line of only digits, spaces and `\\n`
    comes back as bytes; every other line as str."""
    if chunk.translate(None, _PLAIN):
        return chunk.decode("ascii").splitlines(keepends=True)
    return (chunk,)


def _digit_count(n: int) -> int:
    """D(n), the number of digits in 1, 2, ..., n."""
    total, low, width = 0, 1, 1
    while low <= n:
        total += (min(n, 10 * low - 1) - low + 1) * width
        low, width = 10 * low, width + 1
    return total


def _parse_header(line: _Line) -> tuple[int, int]:
    text = line if isinstance(line, str) else line.decode("ascii")
    header = text.split()
    bad = f"bad PERMSET header: {text.splitlines()[0]!r}"
    if len(header) != 4 or header[:2] != ["permset", "1"]:
        raise FormatError(bad)
    try:
        k, n = int(header[2]), int(header[3])
    except ValueError as exc:
        raise FormatError(bad) from exc
    if k < 1 or n < 1:
        raise FormatError(f"invalid PERMSET dimensions k={k}, n={n}")
    return k, n


def _parse_values(line: _Line, n: int, lineno: int) -> Permutation:
    if isinstance(line, bytes):
        if len(line) == n + _digit_count(n):
            images = np.fromstring(line, dtype=np.int64, sep=" ")
            if images.size == n:
                try:
                    return Permutation.from_one_line(images)
                except ValueError:
                    pass
        line = line.decode("ascii")
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


def _parse_document(chunks: Iterable[bytes]) -> PermSet:
    lines = enumerate(chain.from_iterable(map(_split, chunks)), start=1)
    _, header = next(lines, (1, None))
    if header is None:
        raise FormatError("empty document")
    try:
        k, n = _parse_header(header)
    except FormatError:
        for _ in lines:  # a byte that is not ASCII further on is reported first
            pass
        raise
    if n > MAX_N:
        raise FormatError(f"n = {n} exceeds the ground-set cap {MAX_N}")
    perms, count, error = [], 0, None
    for lineno, line in lines:
        if line.isspace():
            continue
        count += 1
        if count <= k and error is None:
            try:
                perms.append(_parse_values(line, n, lineno))
            except FormatError as exc:
                error = exc  # a wrong line count is reported first
    if count != k:
        raise FormatError(f"expected {k} value lines, got {count}")
    if error is not None:
        raise error
    return PermSet(perms, provenance="imported")


def loads_permset(text: str) -> PermSet:
    return _parse_document(io.BytesIO(text.encode("ascii")))


def write_permset(s: PermSet, path: Union[str, os.PathLike]) -> None:
    """Write line by line, so the whole document is never held in memory."""
    lines = _permset_lines(s)
    with open(path, "wb") as f:
        f.writelines(lines)


def read_permset(path: Union[str, os.PathLike]) -> PermSet:
    """Read line by line, so the whole document is never held in memory."""
    with open(path, "rb") as f:
        return _parse_document(f)
