import random
import tracemalloc

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
import permlcs._native as _native
import permlcs.fileio as fileio
from permlcs.perm import MAX_N
from oracles import value_line


def test_permset_exact_bytes(routes):
    for codec in routes:
        # dumps_permset joins the lines, so a reused line buffer must be copied
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
# canonical length n + D(n), so length alone cannot tell them apart; the
# reader checks no length.  Each row gives what the native parse returns
# (1 only for a repeated value, which `_adopt` rejects): all take the exact
# path and get its error text.
OFF_CANONICAL = [
    (3, b"0 1 2\n", 0, "line 2: one-line form is not a rearrangement of 1..3"),  # value 0
    (3, b"1 2 4\n", 0, "line 2: one-line form is not a rearrangement of 1..3"),  # value n + 1
    (3, b"1 2 2\n", 1, "line 2: one-line form is not a rearrangement of 1..3"),  # repeated
    (3, b"012 3\n", 0, "line 2: expected 3 values, got 2"),  # a leading zero makes up the length
    (3, b"1 2  3", 0, ((1, 2, 3),)),  # a double space makes up for the missing newline
    (12, b"1 2 3 4 5 6 7 8 9 10 11  1\n", 0,  # a double space and a repeated value
     "line 2: one-line form is not a rearrangement of 1..12"),
    (9, b"123456789 1 2 3 4\n", 0, "line 2: expected 9 values, got 5"),  # a 9-digit token
]


@pytest.mark.parametrize("n, line, parsed, want", OFF_CANONICAL)
def test_canonical_length_lines_off_the_canonical_form(tmp_path, n, line, parsed, want, routes):
    assert len(line) == n + fileio._digit_count(n)
    lib = _native.library()
    if lib is not None:
        word = np.empty(n, dtype=np.int64)
        assert lib.parse_line(line, len(line), n, word.ctypes.data) == parsed
    path = tmp_path / "s.permset"
    path.write_bytes(b"permset 1 1 %d\n" % n + line)
    for codec in routes:
        assert _read_outcome(read_permset, path) == want


def test_native_parse_accepts_only_the_canonical_form():
    lib = _native.library()
    if lib is None:
        pytest.skip("no native codec on this machine")
    word = np.empty(3, dtype=np.int64)
    for line in (b"3 1 2\n", b"3 1 2"):
        assert lib.parse_line(line, len(line), 3, word.ctypes.data) == 1
        assert word.tolist() == [2, 0, 1]
    for line in (b"1 2 3 \n", b" 1 2 3", b"1 2 3\n\n", b"1 2\n", b"1 2 3 1\n",
                 b"1 2 +3", b"1\t2 3\n", b"", b"1 2 3\r"):
        assert lib.parse_line(line, len(line), 3, word.ctypes.data) == 0
    # 2**64 + 1 would wrap to 1 in 64 bits; a token is cut off at 18 digits
    token = b"18446744073709551617"
    assert lib.parse_line(token, len(token), 1, word.ctypes.data) == 0
    # Any byte but a digit, a space or a final newline is refused, placed
    # first, between tokens, in place of the newline or after it: a line the
    # native parse takes is one line to `str.splitlines` too, so both routes
    # number lines alike.
    for value in set(range(256)) - set(b"0123456789 \n"):
        c = bytes((value,))
        for line in (c + b"3 1 2\n", b"3" + c + b"1 2\n", b"3 1" + c + b" 2\n",
                     b"3 1 2" + c, b"3 1 2\n" + c):
            assert lib.parse_line(line, len(line), 3, word.ctypes.data) == 0, line
    for line in (b"\n3 1 2\n", b"3\n1 2\n", b"3 1 2\n\n"):
        assert lib.parse_line(line, len(line), 3, word.ctypes.data) == 0, line


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
        word = np.array(values, dtype=np.int64) - 1
        buf = np.empty(len(want), dtype=np.uint8)
        assert lib.render_line(word.ctypes.data, word.size, buf.ctypes.data, buf.size) == buf.size
        assert buf.tobytes() == want
        # one byte short, or a negative entry: refused, nothing past cap written
        assert lib.render_line(word.ctypes.data, word.size, buf.ctypes.data, buf.size - 1) == -1
        word[3] = -1
        assert lib.render_line(word.ctypes.data, word.size, buf.ctypes.data, buf.size) == -1
    # through the writers on both routes: widths 1..7 in one member
    n = 10**6 + 1
    s = PermSet((reversal(n),))
    want = f"permset 1 1 {n}\n" + " ".join(map(str, range(n, 0, -1))) + "\n"
    for codec in routes:
        assert dumps_permset(s) == want


def test_writers_refuse_a_set_above_the_cap(tmp_path, monkeypatch):
    monkeypatch.setattr(fileio, "MAX_N", 4)
    cap = "^n = 5 exceeds the ground-set cap 4$"
    above = PermSet((identity(5), reversal(5)))
    with pytest.raises(ValueError, match=cap):
        dumps_permset(above)
    path = tmp_path / "s.permset"
    with pytest.raises(ValueError, match=cap):
        write_permset(above, path)
    assert not path.exists()  # refused before the path is opened
    at_cap = PermSet((identity(4), reversal(4)))
    write_permset(at_cap, path)
    assert read_permset(path).perms == at_cap.perms
