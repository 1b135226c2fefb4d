"""PERMLINE / PERMSET text formats, version 1.

PERMLINE v1::

    permline 1 <n>
    pi(1) pi(2) ... pi(n)

PERMSET v1::

    permset 1 <k> <n>
    <k value lines, one permutation each>

All values are 1-based, space-separated ASCII decimal, newline-terminated.
"""

from __future__ import annotations

import os
from typing import Union

from .perm import Permutation, PermSet


class FormatError(ValueError):
    """Raised when a PERMLINE/PERMSET document is malformed."""


def dumps_permline(p: Permutation) -> str:
    return f"permline 1 {p.n}\n" + " ".join(map(str, p.one_line)) + "\n"


def dumps_permset(s: PermSet) -> str:
    lines = [f"permset 1 {s.k} {s.n}\n"]
    lines += [" ".join(map(str, p.one_line)) + "\n" for p in s.perms]
    return "".join(lines)


def _parse_values(line: str, n: int, lineno: int) -> Permutation:
    tokens = line.split()
    if len(tokens) != n:
        raise FormatError(f"line {lineno}: expected {n} values, got {len(tokens)}")
    try:
        images = [int(t) for t in tokens]
    except ValueError as exc:
        raise FormatError(f"line {lineno}: non-integer value") from exc
    try:
        return Permutation.from_one_line(images)
    except ValueError as exc:
        raise FormatError(f"line {lineno}: {exc}") from exc


def _parse_document(text: str, tag: str) -> list[Permutation]:
    """The value lines of a `permline` (header dims: n) or `permset`
    (header dims: k n) document, checked against the header."""
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty document")
    name = tag.upper()
    header = lines[0].split()
    ndims = 1 if tag == "permline" else 2
    if len(header) != 2 + ndims or header[:2] != [tag, "1"]:
        raise FormatError(f"bad {name} header: {lines[0]!r}")
    try:
        dims = [int(t) for t in header[2:]]
    except ValueError as exc:
        raise FormatError(f"bad {name} header: {lines[0]!r}") from exc
    k, n = dims if ndims == 2 else (1, dims[0])
    if k < 1 or n < 1:
        raise FormatError(f"invalid {name} dimensions k={k}, n={n}")
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != k:
        raise FormatError(f"expected {k} value lines, got {len(body)}")
    return [_parse_values(ln, n, i + 2) for i, ln in enumerate(body)]


def loads_permline(text: str) -> Permutation:
    return _parse_document(text, "permline")[0]


def loads_permset(text: str) -> PermSet:
    return PermSet(tuple(_parse_document(text, "permset")), provenance="imported")


def write_permline(p: Permutation, path: Union[str, os.PathLike]) -> None:
    with open(path, "w", encoding="ascii", newline="") as f:
        f.write(dumps_permline(p))


def read_permline(path: Union[str, os.PathLike]) -> Permutation:
    with open(path, "r", encoding="ascii") as f:
        return loads_permline(f.read())


def write_permset(s: PermSet, path: Union[str, os.PathLike]) -> None:
    with open(path, "w", encoding="ascii", newline="") as f:
        f.write(dumps_permset(s))


def read_permset(path: Union[str, os.PathLike]) -> PermSet:
    with open(path, "r", encoding="ascii") as f:
        return loads_permset(f.read())
