"""The PERMSET text format, version 1::

    permset 1 <k> <n>
    <k value lines, one permutation each>

A single permutation is stored as `permset 1 1 <n>`.  All values are
1-based, space-separated ASCII decimal, newline-terminated, and n may not
exceed the ground-set cap `perm.MAX_N`, so values lie in 1..MAX_N < 10**8.

Value lines go through the native codec, `render_line` and `parse_line` in
`_native.c`, when `_native.library()` loads it, and through plain Python
when it does not; the two give the same bytes and the same members.

Writing has one route: `_write_document` takes (k, n, a stream of
members), writes the header from k and n, and then each member's line into
a binary file as the member arrives, so it holds one member at a time;
`dumps_permset` runs it over a set's members into a `BytesIO`, and
`write_permset` and `construct --out` run it into a file.  The header is
written before any member exists, so the writer checks its promise: a
member not on [n], or more or fewer than k members, raises RuntimeError.
Each member's 0-based `int32` word is rendered, adding one in C, into one
reused `uint8` buffer with room for n values as wide as n, and the prefix
whose length `render_line` returns is written: the codec's count is the
line, and a refused render raises RuntimeError.  Without the codec a line
is `" ".join(map(str, one_line))`.  A file is written to a temporary file
that is renamed onto the path once all lines are written, so a failed
write, a broken promise included, leaves no partial document.

Reading has one route: `read_permset` takes a binary file one line at a
time, so it holds the current line and the members parsed so far, never the
whole text, and `loads_permset` runs it over the text's UTF-8 encoding.
Lines are numbered as `str.splitlines` splits the whole text.  While value
lines are still wanted and none has failed, each raw `\\n`-terminated line
goes first to `parse_line`, with no byte scan or length check before it.
`parse_line` accepts only the canonical form of a member (a rearrangement
of 1..n, each token with no leading zero, single spaces, then `\\n` or the
end), so no byte that `str.splitlines` breaks at but that last `\\n`, and
writes a fresh 0-based `int32` word, which `perm._adopt` takes as it is,
unchecked: the raw line is one line and one member.  Every other raw
line, and every line when the codec is missing, is decoded as ASCII and
split with `str.splitlines`, and each piece takes the header or the exact
path: a value line's tokens are converted by one `np.array(...,
dtype=np.int64)` call (Python `int()` syntax per token, so a token past
int64 is caught there), `Permutation.from_one_line` turns them into an
`int32` word, and that path alone words the error.
Errors name the physical line.  Two faults stop the read where they are
met: a line that is not ASCII (a `UnicodeError`) and a header whose n
exceeds the ground-set cap.  Every other fault is raised once all lines are
read, in this order: the header, a wrong count of value lines, the first bad
value.
"""

from __future__ import annotations

import contextlib
import errno
import io
import os
import stat
from typing import BinaryIO, Iterable, Optional, Union

import numpy as np

from . import _native
from .perm import MAX_N, Permutation, PermSet, _adopt


class FormatError(ValueError):
    """Raised when a PERMSET document is malformed."""


def _write_document(k: int, n: int, members: Iterable[Permutation], f: BinaryIO) -> None:
    """Write the header of k members on [n] to the binary file `f`, then each
    member's line as the stream yields it.  The header is out before any
    member exists, so a member off [n], or more or fewer than k of them, is
    a RuntimeError."""
    f.write(f"permset 1 {k} {n}\n".encode("ascii"))
    lib = _native.library()
    buf = None if lib is None else np.empty(n * (len(str(n)) + 1), dtype=np.uint8)
    count = 0
    for p in members:
        count += 1
        if count > k:
            raise RuntimeError(f"more members than the {k} the PERMSET header promised")
        if p.n != n:
            raise RuntimeError(f"member {count} is on [{p.n}], not the header's [{n}]")
        if lib is None:
            f.write((" ".join(map(str, p.one_line)) + "\n").encode("ascii"))
        else:
            end = lib.render_line(p.array, n, buf, buf.size)
            if end < 0:
                raise RuntimeError(f"render_line refused a member on [{n}]")
            f.write(buf[:end])
        del p  # so the stream builds the next member with this one freed
    if count != k:
        raise RuntimeError(f"{count} members, not the {k} the PERMSET header promised")


def dumps_permset(s: PermSet) -> str:
    f = io.BytesIO()
    _write_document(s.k, s.n, s.perms, f)
    return f.getvalue().decode("ascii")


def _parse_header(line: str) -> tuple[int, int]:
    header = line.split()
    bad = f"bad PERMSET header: {line.splitlines()[0]!r}"
    if len(header) != 4 or header[:2] != ["permset", "1"]:
        raise FormatError(bad)
    try:
        k, n = int(header[2]), int(header[3])
    except ValueError as exc:
        raise FormatError(bad) from exc
    if k < 1 or n < 1:
        raise FormatError(f"invalid PERMSET dimensions k={k}, n={n}")
    return k, n


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


def _parse_document(chunks: Iterable[bytes]) -> PermSet:
    lib = _native.library()
    k = n = lineno = count = 0
    perms, error = [], None
    for chunk in chunks:
        if count < k and error is None and lib is not None:
            word = np.empty(n, dtype=np.int32)
            if lib.parse_line(chunk, len(chunk), n, word):
                perms.append(_adopt(word))
                lineno, count = lineno + 1, count + 1
                # Freed before the next line is read, which then reuses its
                # space; held, it left `verify`'s peak RSS on Hadamard k=8
                # s=6 to heap layout luck, 56 or 59 MB.
                del chunk
                continue
        for line in chunk.decode("ascii").splitlines(keepends=True):
            lineno += 1
            if lineno == 1:
                try:
                    k, n = _parse_header(line)
                except FormatError as exc:
                    error = exc  # k stays 0; reported once every line is decoded
                    continue
                if n > MAX_N:
                    raise FormatError(f"n = {n} exceeds the ground-set cap {MAX_N}")
            elif not line.isspace():
                count += 1
                if count <= k and error is None:
                    try:
                        perms.append(_parse_values(line, n, lineno))
                    except FormatError as exc:
                        error = exc  # a wrong line count is reported first
    if lineno == 0:
        raise FormatError("empty document")
    if k and count != k:
        raise FormatError(f"expected {k} value lines, got {count}")
    if error is not None:
        raise error
    return PermSet(perms, provenance="imported")


def loads_permset(text: str) -> PermSet:
    return _parse_document(io.BytesIO(text.encode("utf-8", "surrogatepass")))


def _open_in_place(path: Union[str, os.PathLike]) -> Optional[BinaryIO]:
    """A binary file open on `path` itself, or None for a regular file by
    name (or no file).  A descriptor link such as `/dev/stdout` or `/dev/fd/N`
    that resolves to a descriptor this process holds is written through a
    duplicate of it, at its own offset; any other descriptor link, a device, a
    FIFO or a directory is opened by name."""
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        return None
    own = (f"/proc/{os.getpid()}/fd", "/dev/fd")  # /dev/fd where it is a real directory
    p = os.path.abspath(path)
    for _ in range(40):  # the kernel's own limit on a chain of links
        parent = os.path.realpath(os.path.dirname(p))
        if parent in own:
            return os.fdopen(os.dup(int(os.path.basename(p))), "wb")
        if os.path.basename(parent) == "fd" and parent.startswith(("/proc/", "/dev/")):
            return open(p, "wb")
        if not os.path.islink(p):
            break
        p = os.path.join(os.path.dirname(p), os.readlink(p))
    return None if regular else open(path, "wb")


def write_permset(s: PermSet, path: Union[str, os.PathLike]) -> None:
    """Write line by line, so the whole document is never held in memory.

    The lines go to a new file beside `path` (beside the file a symbolic
    link names), which replaces it, keeping an existing file's permission
    bits, only once every line is written: on any error the new file is
    deleted and `path` is left as it was.  A path that names a descriptor
    this process holds (`/dev/stdout`, `/dev/fd/N`) is written at that
    descriptor's own offset, so what the process writes to it next follows
    the document; any other path that is not a regular file (a device, a
    FIFO, a directory, another process's descriptor) is opened in place.
    An empty path raises FileNotFoundError, as `open("")` does."""
    _write_members(s.k, s.n, s.perms, path)


def _write_members(k: int, n: int, members: Iterable[Permutation],
                   path: Union[str, os.PathLike]) -> None:
    """`write_permset` of the k members on [n] that `members` yields, each
    written as it arrives, so only the one being written need be held."""
    if not os.fspath(path):  # realpath would read it as the working directory
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    f = _open_in_place(path)
    if f is not None:
        with f:
            _write_document(k, n, members, f)
        return
    target = os.path.realpath(path)
    head, tail = os.path.split(target)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    f = open(tmp, "xb")  # outside the try: a name that exists is not ours to delete
    try:
        with f:
            _write_document(k, n, members, f)
        if os.path.exists(target):
            os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def read_permset(path: Union[str, os.PathLike]) -> PermSet:
    """Read line by line, so the whole document is never held in memory."""
    with open(path, "rb") as f:
        return _parse_document(f)
