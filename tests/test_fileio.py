import json
import os
import random
import stat
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest

from permlcs import (
    FormatError,
    PermSet,
    Permutation,
    build_general,
    build_hadamard_set,
    dumps_permset,
    identity,
    loads_permset,
    read_permset,
    reversal,
    write_permset,
)
import permlcs
import permlcs._native as _native
from permlcs import fileio
from permlcs.cli import main
from permlcs.perm import MAX_N
from oracles import value_line


def test_permset_exact_bytes(routes):
    for codec in routes:
        # each line is written from one reused buffer before the next is rendered
        s = PermSet((identity(3), reversal(3)))
        assert dumps_permset(s) == "permset 1 2 3\n1 2 3\n3 2 1\n"
        one = PermSet((Permutation.from_one_line([2, 1, 4, 3]),))
        assert dumps_permset(one) == "permset 1 1 4\n2 1 4 3\n"


def test_permset_round_trip(tmp_path, routes):
    for codec in routes:
        s = PermSet((identity(5), reversal(5), Permutation.from_one_line([2, 4, 1, 5, 3])))
        path = tmp_path / "s.permset"
        write_permset(s, path)
        back = read_permset(path)
        assert back.perms == s.perms
        assert back.provenance == "imported"
        one = PermSet((reversal(9),))
        write_permset(one, path)
        assert read_permset(path).perms == one.perms


def test_single_member_permset_parses():
    s = loads_permset("permset 1 1 3\n2 3 1\n")
    assert s.k == 1 and s.perms[0].one_line == (2, 3, 1)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "permline 2 3\n1 2 3\n",
        "permset 1 3\n1 2 3\n",
        "permset 1 2 3\n1 2 3\n",  # missing one body line
        "permset 1 1 3\n1 2\n",  # short value line
        "permset 1 1 3\n1 2 x\n",
        "permset 1 1 3\n1 2 4\n",  # out of range
        "permset 1 1 3\n1 2 2\n",  # duplicate
        "permset 1 1 3\n1 2 3\n1 2 3\n",  # trailing extra line
        "permset 1 0 3\n",
        "permset 1 1 3\n1 2 99999999999999999999999\n",  # beyond int64
        "permline 1 3\n1 2 3\n",  # PERMLINE is no longer a supported format
    ],
)
def test_malformed_documents_rejected(text, routes):
    for codec in routes:
        with pytest.raises(FormatError):
            loads_permset(text)


def test_errors_name_the_physical_line():
    with pytest.raises(FormatError, match="^line 4: "):
        loads_permset("permset 1 2 3\n\n1 2 3\n1 2 4\n")
    with pytest.raises(FormatError, match="^line 5: "):
        loads_permset("permset 1 2 3\n1 2 3\n \n\n2 x 1\n")


@pytest.mark.parametrize("n", [9, 10, 99, 100, 1000, 12345])
def test_value_lines_match_scalar_writer(n, routes):
    images = list(range(1, n + 1))
    random.Random(n).shuffle(images)
    p = Permutation.from_one_line(images)
    s = PermSet((p, identity(n), reversal(n)))
    want = f"permset 1 3 {n}\n" + "".join(value_line(q.one_line) for q in s.perms)
    for codec in routes:
        assert dumps_permset(s) == want


@pytest.mark.parametrize("build, args", [(build_hadamard_set, (8, 3)), (build_general, (1000, 5))])
def test_construction_round_trips(build, args, routes):
    s = build(*args)
    for codec in routes:
        assert loads_permset(dumps_permset(s)).perms == s.perms


def test_random_members_round_trip_byte_identically(tmp_path, routes):
    rng = np.random.default_rng(13)
    sizes = sorted({1, 2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 2000,
                    *rng.integers(1, 2001, size=40).tolist()})
    sets = [PermSet([Permutation(rng.permutation(n)) for _ in range(2)]) for n in sizes]
    path = tmp_path / "s.permset"
    for codec in routes:
        for s in sets:
            want = f"permset 1 2 {s.n}\n" + "".join(value_line(p.one_line) for p in s.perms)
            assert dumps_permset(s) == want
            write_permset(s, path)
            assert path.read_bytes() == want.encode("ascii")
            assert read_permset(path).perms == loads_permset(want).perms == s.perms


# Documents off the canonical form, with what the reader gives for each: the
# members' one-line forms, or the error text.  Line breaks are those of
# `str.splitlines` and tokens those of `str.split` and Python `int()`, as when
# the whole text was decoded and split before parsing.
SAME_AS_SPLITLINES = [
    ("permset 1 2 3\r\n1 2 3\r\n3 2 1\r\n", ((1, 2, 3), (3, 2, 1))),
    ("permset 1 2 3\r1 2 3\r3 2 1\r", ((1, 2, 3), (3, 2, 1))),
    ("permset 1 2 3\v1 2 3\v3 2 1\n", ((1, 2, 3), (3, 2, 1))),
    ("permset 1 2 3\n1 2 3\f3 2 1\n", ((1, 2, 3), (3, 2, 1))),
    ("permset 1 2 3\n1 2 3\x1c3 2 1\x1d", ((1, 2, 3), (3, 2, 1))),
    ("permset 1 2 3\x1e1 2 3\n3 2 1\n", ((1, 2, 3), (3, 2, 1))),
    ("permset 1 1 3\n1 2\x1c3\n", "expected 1 value lines, got 2"),
    ("permset 1 2 3\n1\t2\t3\n3 2 1\n", ((1, 2, 3), (3, 2, 1))),
    ("permset 1 1 3\n1\x1f2\x1f3\n", ((1, 2, 3),)),
    ("permset 1 2 3\n1  2 3\n3 2  1\n", ((1, 2, 3), (3, 2, 1))),
    ("permset 1 2 3\n 1 2 3\n3 2 1 \n", ((1, 2, 3), (3, 2, 1))),
    ("permset 1 1 3\n1 2 3 \n", ((1, 2, 3),)),
    ("\t permset  1\t2 3 \n1 2 3\n3 2 1\n", ((1, 2, 3), (3, 2, 1))),
    ("permset 1 2 3\n01 2 3\n3 002 1\n", ((1, 2, 3), (3, 2, 1))),
    ("permset 1 1 3\n1 2 03", ((1, 2, 3),)),  # canonical length, no newline
    ("permset 1 1 3\n+1 2 +3\n", ((1, 2, 3),)),
    ("permset 1 +2 03\n1 2 3\n3 2 1\n", ((1, 2, 3), (3, 2, 1))),
    ("permset 1 1 3\n0_1 2 3\n", ((1, 2, 3),)),
    ("permset 1 2 3\n\n1 2 3\n  \n\t\n3 2 1\n\n", ((1, 2, 3), (3, 2, 1))),
    ("permset 1 2 3\n1 2 3\n3 2 1", ((1, 2, 3), (3, 2, 1))),
    ("permset 1 1 3\n-1 2 3\n", "line 2: one-line form is not a rearrangement of 1..3"),
    ("permset 1 1 3\n1 2 2\n", "line 2: one-line form is not a rearrangement of 1..3"),
    ("permset 1 1 3\n0 1 2\n", "line 2: one-line form is not a rearrangement of 1..3"),
    ("permset 1 1 3\n12  3\n", "line 2: expected 3 values, got 2"),
    ("permset 1 1 3\n1 2 3\x00\n", "line 2: non-integer value"),
    ("permset 1 2 3\r\n\r\n1 2 3\r\n1 2 4\r\n",
     "line 4: one-line form is not a rearrangement of 1..3"),
    ("permset 1 2 3\r\r1 2 3\r1 2 x\r", "line 4: non-integer value"),
    # One raw line split into header and value, a line the native parse
    # takes whole, then a bad line: one running line number across both.
    ("permset 1 3 3\x1e1 2 3\n3 2 1\n1 2 2\n",
     "line 4: one-line form is not a rearrangement of 1..3"),
    ("permset 1 3 3\r1 2 3\n3 1 2\n2 x 1\n", "line 4: non-integer value"),
    ("permset 1 2\r\n1 2 3\r\n", "bad PERMSET header: 'permset 1 2'"),
    ("permset 1 x 3\n1 2 3\n", "bad PERMSET header: 'permset 1 x 3'"),
    ("\n", "bad PERMSET header: ''"),
    (" \n\n", "bad PERMSET header: ' '"),
    ("permset 1 1 0\n", "invalid PERMSET dimensions k=1, n=0"),
    ("permset 1 1 3\n", "expected 1 value lines, got 0"),
    # 2**64 + 1 overflows int64 by any reading, and is still out of range.
    ("permset 1 1 3\n1 2 18446744073709551617\n", "line 2: value outside 1..3"),
    # A canonical-length line whose first token overflows int64.
    ("permset 1 1 20\n18446744073709551617 1 2 3 4 5 6 7 8 9 10 11 12 13\n",
     "line 2: expected 20 values, got 14"),
    # A wrong count of value lines is reported before a bad value.
    ("permset 1 2 3\n1 2 x\n", "expected 2 value lines, got 1"),
    ("permset 1 2 3\n1 2 x\n1 2 3\n3 2 1\n", "expected 2 value lines, got 3"),
]


def _read_outcome(read, arg):
    try:
        return tuple(p.one_line for p in read(arg).perms)
    except FormatError as exc:
        return str(exc)


@pytest.mark.parametrize("text, want", SAME_AS_SPLITLINES)
def test_reader_splits_lines_and_tokens_as_python_does(tmp_path, text, want, routes):
    path = tmp_path / "s.permset"
    path.write_bytes(text.encode("ascii"))
    for codec in routes:
        assert _read_outcome(loads_permset, text) == want
        assert _read_outcome(read_permset, path) == want


# Lines off the canonical form with, by construction of the data, the
# canonical length, that of "1 2 ... n\n", so length alone cannot tell them
# apart; the reader checks no length.  Each row gives what the native parse
# returns (0 for every one, a repeated value included): all take the exact
# path and get its error text.
OFF_CANONICAL = [
    (3, b"0 1 2\n", 0, "line 2: one-line form is not a rearrangement of 1..3"),  # value 0
    (3, b"1 2 4\n", 0, "line 2: one-line form is not a rearrangement of 1..3"),  # value n + 1
    (3, b"1 2 2\n", 0, "line 2: one-line form is not a rearrangement of 1..3"),  # repeated
    (3, b"012 3\n", 0, "line 2: expected 3 values, got 2"),  # a leading zero makes up the length
    (3, b"1 2  3", 0, ((1, 2, 3),)),  # a double space makes up for the missing newline
    (12, b"1 2 3 4 5 6 7 8 9 10 11  1\n", 0,  # a double space and a repeated value
     "line 2: one-line form is not a rearrangement of 1..12"),
    (9, b"123456789 1 2 3 4\n", 0, "line 2: expected 9 values, got 5"),  # a 9-digit token
]


@pytest.mark.parametrize("n, line, parsed, want", OFF_CANONICAL)
def test_canonical_length_lines_off_the_canonical_form(tmp_path, n, line, parsed, want, routes):
    assert len(line) == len(value_line(range(1, n + 1)))
    lib = _native.library()
    if lib is not None:
        word = np.empty(n, dtype=np.int32)
        assert lib.parse_line(line, len(line), n, word) == parsed
    path = tmp_path / "s.permset"
    path.write_bytes(b"permset 1 1 %d\n" % n + line)
    for codec in routes:
        assert _read_outcome(read_permset, path) == want


def test_native_parse_accepts_only_the_canonical_form():
    lib = _native.library()
    if lib is None:
        pytest.skip("no native codec on this machine")
    word = np.empty(3, dtype=np.int32)
    for line in (b"3 1 2\n", b"3 1 2"):
        assert lib.parse_line(line, len(line), 3, word) == 1
        assert word.tolist() == [2, 0, 1]
    for line in (b"1 2 3 \n", b" 1 2 3", b"1 2 3\n\n", b"1 2\n", b"1 2 3 1\n",
                 b"1 2 +3", b"1\t2 3\n", b"", b"1 2 3\r", b"1 1 2\n", b"3 1 3"):
        assert lib.parse_line(line, len(line), 3, word) == 0
    # 2**64 + 1 would wrap to 1 in 64 bits, and 2**32 + 1 in 32; a token is
    # cut off at 9 digits
    for token in (b"18446744073709551617", b"4294967297"):
        assert lib.parse_line(token, len(token), 1, word) == 0
    # Any byte but a digit, a space or a final newline is refused, placed
    # first, between tokens, in place of the newline or after it: a line the
    # native parse takes is one line to `str.splitlines` too, so both routes
    # number lines alike.
    for value in set(range(256)) - set(b"0123456789 \n"):
        c = bytes((value,))
        for line in (c + b"3 1 2\n", b"3" + c + b"1 2\n", b"3 1" + c + b" 2\n",
                     b"3 1 2" + c, b"3 1 2\n" + c):
            assert lib.parse_line(line, len(line), 3, word) == 0, line
    for line in (b"\n3 1 2\n", b"3\n1 2\n", b"3 1 2\n\n"):
        assert lib.parse_line(line, len(line), 3, word) == 0, line
    # A value repeated far from its first use is refused too, and an accepted
    # line leaves no mark in its word: each entry is its value minus 1.
    line = value_line([*range(1, 1000), 1]).encode("ascii")
    assert lib.parse_line(line, len(line), 1000, np.empty(1000, dtype=np.int32)) == 0
    values = np.random.default_rng(25).permutation(1 << 16)
    line = value_line(values + 1).encode("ascii")
    word = np.empty(values.size, dtype=np.int32)
    assert lib.parse_line(line, len(line), values.size, word) == 1
    assert np.array_equal(word, values)


@pytest.mark.parametrize("data", [
    b"permset 1 2\n1 2 3\n\n\xc3\xa9\n",  # after a bad header
    b"permset 1 1 3\n1 2 x\n\xff\n",  # after a bad value
    b"permset 1 1 3\n1 2 3\n\xff",
])
def test_non_ascii_byte_is_reported_first(tmp_path, data):
    path = tmp_path / "s.permset"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError):
        read_permset(path)


# Characters that `int()` or `str.splitlines` would read as digits or line
# breaks, so decoding them would accept documents no ASCII reader writes.
@pytest.mark.parametrize("text", [
    "permset 1 1 3\n1 2 \uff13\n",  # FULLWIDTH DIGIT THREE
    "permset 1 2 3\u20281 2 3\n3 2 1\n",  # LINE SEPARATOR
    "permset 1 2 3\n1 2 3\x853 2 1\n",  # NEXT LINE
])
def test_non_ascii_documents_rejected_by_both_routes(tmp_path, text):
    with pytest.raises(UnicodeError):
        loads_permset(text)
    path = tmp_path / "s.permset"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(UnicodeError):
        read_permset(path)


def test_header_above_ground_set_cap_rejected(tmp_path):
    cap = f"n = {MAX_N + 1} exceeds the ground-set cap {MAX_N}"
    with pytest.raises(FormatError, match=f"^{cap}$"):
        loads_permset(f"permset 1 1 {MAX_N + 1}\n1 2 x\n")
    # Raised before any value line is read, on both routes: the character
    # that is not ASCII on line 2 is never decoded.
    with pytest.raises(FormatError, match=f"^{cap}$"):
        loads_permset(f"permset 1 1 {MAX_N + 1}\n\xff\n")
    path = tmp_path / "s.permset"
    path.write_bytes(f"permset 1 1 {MAX_N + 1}\n\xff\n".encode("latin-1"))
    with pytest.raises(FormatError, match=f"^{cap}$"):
        read_permset(path)
    with pytest.raises(FormatError, match="^expected 1 value lines, got 0$"):
        loads_permset(f"permset 1 1 {MAX_N}\n")  # the cap itself is accepted


def test_read_permset_streams(tmp_path):
    """Peak traced memory stays below twice the members it returns; holding
    the whole text and its split copies took 3.8 times."""
    if _native.library() is None:
        pytest.skip("no native codec on this machine; the Python route holds each "
                    "line's token list, a peak of 2.4 times the members")
    path = tmp_path / "h.permset"
    write_permset(build_hadamard_set(8, 5), path)
    tracemalloc.start()
    try:
        s = read_permset(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * sum(p.array.nbytes for p in s.perms)


def test_value_line_matches_str_at_every_width(routes):
    # every width a value in 1..MAX_N can have, and MAX_N itself, through the
    # native render; it takes any word, so no member on [MAX_N] is built
    values = [v for w in range(1, 9) for v in (10 ** (w - 1), 10 ** (w - 1) + 7, 10**w - 1)]
    values += [1, 9999, 10_000, 10_001, MAX_N]
    want = (" ".join(map(str, values)) + "\n").encode("ascii")
    lib = _native.library()
    if lib is not None:
        word = np.array(values, dtype=np.int32) - 1
        buf = np.empty(len(want), dtype=np.uint8)
        assert lib.render_line(word, word.size, buf, buf.size) == buf.size
        assert buf.tobytes() == want
        # one byte short, or a negative entry: refused, nothing past cap written
        assert lib.render_line(word, word.size, buf, buf.size - 1) == -1
        word[3] = -1
        assert lib.render_line(word, word.size, buf, buf.size) == -1
    # through the writers on both routes: widths 1..7 in one member
    n = 10**6 + 1
    s = PermSet((reversal(n),))
    want = f"permset 1 1 {n}\n" + " ".join(map(str, range(n, 0, -1))) + "\n"
    for codec in routes:
        assert dumps_permset(s) == want


def test_refused_render_is_an_internal_error(tmp_path, monkeypatch, capsys):
    # The writer keeps only the bytes render_line counts, so a refusal (-1)
    # must raise rather than write a stale or partial line.
    refusing = types.SimpleNamespace(render_line=lambda *args: -1)
    monkeypatch.setattr(_native, "library", lambda: refusing)
    with pytest.raises(RuntimeError, match=r"^render_line refused a member on \[3\]$"):
        dumps_permset(PermSet((identity(3), reversal(3))))
    path = tmp_path / "s.permset"
    argv = ["construct", "algebraic", "--n", "72", "--k", "3", "--out", str(path)]
    assert main(argv) == 3
    assert capsys.readouterr().err == "internal error: render_line refused a member on [72]\n"


@pytest.mark.parametrize("k, members, err", [
    (3, (identity(4), reversal(4)), r"^2 members, not the 3 the PERMSET header promised$"),
    (2, (identity(4), reversal(4), identity(4)),
     r"^more members than the 2 the PERMSET header promised$"),
    (2, (identity(4), reversal(3)), r"^member 2 is on \[3\], not the header's \[4\]$"),
])
def test_writer_keeps_the_header_promise(tmp_path, routes, k, members, err):
    # The header of k members on [n] is written before any member exists, so
    # a stream that yields fewer or more, or one off [n], is an internal
    # error, and neither the file nor its temporary file is left.
    for route in routes:
        with pytest.raises(RuntimeError, match=err):
            fileio._write_members(k, 4, (p for p in members), tmp_path / "s.permset")
        assert list(tmp_path.iterdir()) == []


def test_failed_write_leaves_the_path_as_it_was(tmp_path, monkeypatch, capsys):
    # The lines go to a temporary file that replaces the path only once all
    # are written: a refused render leaves an existing file's bytes, creates
    # no file where there was none, and leaves no temporary file behind.
    refusing = types.SimpleNamespace(render_line=lambda *args: -1)
    monkeypatch.setattr(_native, "library", lambda: refusing)
    old = tmp_path / "old.permset"
    old.write_bytes(b"permset 1 1 2\n2 1\n")
    new = tmp_path / "new.permset"
    for path in (old, new):
        argv = ["construct", "algebraic", "--n", "72", "--k", "3", "--out", str(path)]
        assert main(argv) == 3
        assert capsys.readouterr().err == "internal error: render_line refused a member on [72]\n"
    assert old.read_bytes() == b"permset 1 1 2\n2 1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.permset"]


def test_empty_path_is_not_found_and_creates_no_file(tmp_path, monkeypatch):
    # realpath reads "" as the working directory, so the temporary file once
    # went into its parent, and the rename onto a directory failed after it
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    with pytest.raises(FileNotFoundError, match=r"^\[Errno 2\] No such file or directory: ''$"):
        write_permset(PermSet((identity(3), reversal(3))), "")
    assert [p.name for p in tmp_path.iterdir()] == ["work"]
    assert list(work.iterdir()) == []


def test_write_replaces_a_file_and_writes_through_a_link(tmp_path):
    s = PermSet((identity(3), reversal(3)))
    want = dumps_permset(s).encode("ascii")
    target = tmp_path / "t.permset"
    target.write_bytes(b"x" * 100)
    target.chmod(0o640)
    link = tmp_path / "link.permset"
    link.symlink_to(target)
    write_permset(s, link)
    assert link.is_symlink()
    assert target.read_bytes() == want
    assert target.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.permset", "t.permset"]


def test_write_goes_through_an_open_descriptor(tmp_path):
    # /dev/fd/N names a descriptor this process holds: a pipe's write end is
    # written in place, and a regular file at the descriptor's own offset,
    # with no truncation, so it keeps its inode and the bytes past the document.
    s = PermSet((identity(3), reversal(3)))
    want = dumps_permset(s).encode("ascii")
    r, w = os.pipe()
    try:
        write_permset(s, f"/dev/fd/{w}")
        os.close(w)
        w = -1
        got = b"".join(iter(lambda: os.read(r, 1 << 16), b""))
    finally:
        os.close(r)
        if w >= 0:
            os.close(w)
    assert got == want
    target = tmp_path / "t.permset"
    target.write_bytes(b"x" * 100)
    inode = target.stat().st_ino
    fd = os.open(target, os.O_WRONLY)
    try:
        write_permset(s, f"/dev/fd/{fd}")
    finally:
        os.close(fd)
    assert (target.stat().st_ino, target.read_bytes()) == (inode, want + b"x" * (100 - len(want)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.permset"]


def test_write_opens_a_fifo_in_place(tmp_path):
    # A FIFO is not a regular file: it is opened and written by name, not
    # replaced by a renamed temporary file.  Its reader is opened first, so
    # opening the write end does not wait.
    s = PermSet((identity(3), reversal(3)))
    fifo = tmp_path / "f.permset"
    os.mkfifo(fifo)
    r = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_permset(s, fifo)
        got = b"".join(iter(lambda: os.read(r, 1 << 16), b""))
    finally:
        os.close(r)
    assert got == dumps_permset(s).encode("ascii")
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.permset"]


def test_write_opens_another_process_descriptor_in_place(tmp_path):
    # /proc/<pid>/fd/1 of a child names a descriptor this process does not
    # hold: it is opened by name, which truncates the child's stdout file in
    # place, so the file keeps its inode and holds exactly the document.
    if not os.path.isdir(f"/proc/{os.getpid()}/fd"):
        pytest.skip("no /proc on this machine")
    s = PermSet((identity(3), reversal(3)))
    target = tmp_path / "t.permset"
    target.write_bytes(b"x" * 100)
    inode = target.stat().st_ino
    with open(target, "ab") as f:
        child = subprocess.Popen(["sleep", "30"], stdout=f)
    try:
        write_permset(s, f"/proc/{child.pid}/fd/1")
    finally:
        child.kill()
        child.wait()
    assert (target.stat().st_ino, target.read_bytes()) == (inode, dumps_permset(s).encode("ascii"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.permset"]


def test_write_follows_a_link_to_an_open_descriptor(tmp_path):
    # A link to /dev/fd/N is followed to the descriptor on the walk's second
    # hop and written at the descriptor's own offset, with no truncation.
    s = PermSet((identity(3), reversal(3)))
    want = dumps_permset(s).encode("ascii")
    target = tmp_path / "t.permset"
    target.write_bytes(b"x" * 100)
    inode = target.stat().st_ino
    link = tmp_path / "link.permset"
    fd = os.open(target, os.O_WRONLY)
    try:
        os.lseek(fd, 10, os.SEEK_SET)
        link.symlink_to(f"/dev/fd/{fd}")
        write_permset(s, link)
        assert os.lseek(fd, 0, os.SEEK_CUR) == 10 + len(want)
    finally:
        os.close(fd)
    assert link.is_symlink()
    assert (target.stat().st_ino, target.read_bytes()) == (
        inode, b"x" * 10 + want + b"x" * (90 - len(want)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.permset", "t.permset"]


def test_document_on_stdout_is_followed_by_the_report(tmp_path):
    # `--out /dev/stdout` writes at stdout's own offset, so the report printed
    # after it follows the document whether stdout is a regular file or a pipe.
    argv = [sys.executable, "-m", "permlcs.cli", "construct", "algebraic",
            "--n", "72", "--k", "3", "--out", "/dev/stdout"]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(permlcs.__file__))}
    out = tmp_path / "out"
    with open(out, "wb") as f:
        assert subprocess.run(argv, stdout=f, env=env, timeout=60).returncode == 0
    piped = subprocess.run(argv, stdout=subprocess.PIPE, env=env, timeout=60)
    assert piped.returncode == 0
    assert out.read_bytes() == piped.stdout
    document = dumps_permset(build_general(72, 3)).encode("ascii")
    assert piped.stdout.startswith(document)
    assert json.loads(piped.stdout[len(document):])["command"] == "construct"
