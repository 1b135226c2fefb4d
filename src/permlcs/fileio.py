"""The PERMSET text format, version 1::

    permset 1 <k> <n>
    <k value lines, one permutation each>

A single permutation is stored as `permset 1 1 <n>`.  All values are
1-based, space-separated ASCII decimal, newline-terminated, and n may not
exceed the ground-set cap `perm.MAX_N`, so values lie in 1..MAX_N < 10**8.

Value lines go through the native codec, `render_line` and `parse_line` in
`_native.c`, when `_native.library()` loads it, and through plain Python
when it does not; the two give the same bytes and the same members.

Writing renders each member's 0-based word, adding one in C, into one reused
`uint8` buffer of exactly n + D(n) bytes, D(n) being the digit count of
1..n, and writes that buffer as is; without the codec a line is
`" ".join(map(str, one_line))`.  A set above the cap, which no reader would
accept, raises ValueError before `write_permset` opens its path.

Reading has one route: `read_permset` takes a binary file one line at a
time, so it holds the current line and the members parsed so far, never the
whole text, and `loads_permset` runs it over the text's UTF-8 encoding.
Lines are split and numbered as `str.splitlines` splits the whole text.  A
value line takes the fast path when its bytes are only digits, spaces and
`\\n`, its length is the canonical n + D(n) and the codec loads:
`parse_line` accepts only the canonical form (tokens in 1..n with no
leading zero, single spaces) and writes a fresh 0-based word, which
`perm._adopt` takes after its one range check and `bincount`.  Every other
line, every line `parse_line` or `_adopt` rejects, and every line when the
codec is missing, takes the exact path: its tokens are converted by one
`np.array(..., dtype=np.int64)` call (Python `int()` syntax per token), and
that path alone words the error.  Errors name the physical line.  As when
the whole text was decoded before parsing, what is not ASCII is reported
first (a `UnicodeError`), then the header, then a wrong count of value
lines, then the first bad value; only the ground-set cap is reported as soon
as the header is read.
"""

from __future__ import annotations

import io
import os
from itertools import chain
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from . import _native
from .perm import MAX_N, Permutation, PermSet, _adopt

_PLAIN = b"0123456789 \n"  # the only bytes a fast-path line holds

_Line = Union[bytes, str]


class FormatError(ValueError):
    """Raised when a PERMSET document is malformed."""


def _permset_lines(s: PermSet) -> Iterator[Union[bytes, np.ndarray]]:
    """The document's lines; ValueError on the call, before any line is made,
    for a set above the cap.  With the native codec every value line is the
    same reused buffer, so a caller must use each line before the next."""
    if s.n > MAX_N:
        raise ValueError(f"n = {s.n} exceeds the ground-set cap {MAX_N}")
    header = f"permset 1 {s.k} {s.n}\n".encode("ascii")
    lib = _native.library()
    if lib is None:
        values = ((" ".join(map(str, p.one_line)) + "\n").encode("ascii") for p in s.perms)
        return chain((header,), values)
    buf = np.empty(s.n + _digit_count(s.n), dtype=np.uint8)

    def render(p: Permutation) -> np.ndarray:
        lib.render_line(p.array.ctypes.data, p.n, buf.ctypes.data, buf.size)
        return buf

    return chain((header,), map(render, s.perms))


def dumps_permset(s: PermSet) -> str:
    return b"".join(map(bytes, _permset_lines(s))).decode("ascii")


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
        lib = _native.library()
        if lib is not None and len(line) == n + _digit_count(n):
            word = np.empty(n, dtype=np.int64)
            if lib.parse_line(line, len(line), n, word.ctypes.data):
                try:
                    return _adopt(word)
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
    return _parse_document(io.BytesIO(text.encode("utf-8", "surrogatepass")))


def write_permset(s: PermSet, path: Union[str, os.PathLike]) -> None:
    """Write line by line, so the whole document is never held in memory."""
    lines = _permset_lines(s)
    with open(path, "wb") as f:
        f.writelines(lines)


def read_permset(path: Union[str, os.PathLike]) -> PermSet:
    """Read line by line, so the whole document is never held in memory."""
    with open(path, "rb") as f:
        return _parse_document(f)
