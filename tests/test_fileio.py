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
import permlcs.fileio as fileio
from permlcs.fileio import _value_line
from permlcs.perm import MAX_N
from oracles import value_line


def test_permset_exact_bytes():
    s = PermSet((identity(3), reversal(3)))
    assert dumps_permset(s) == "permset 1 2 3\n1 2 3\n3 2 1\n"
    one = PermSet((Permutation.from_one_line([2, 1, 4, 3]),))
    assert dumps_permset(one) == "permset 1 1 4\n2 1 4 3\n"


def test_permset_round_trip(tmp_path):
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
def test_malformed_documents_rejected(text):
    with pytest.raises(FormatError):
        loads_permset(text)


def test_errors_name_the_physical_line():
    with pytest.raises(FormatError, match="^line 4: "):
        loads_permset("permset 1 2 3\n\n1 2 3\n1 2 4\n")
    with pytest.raises(FormatError, match="^line 5: "):
        loads_permset("permset 1 2 3\n1 2 3\n \n\n2 x 1\n")


@pytest.mark.parametrize("n", [9, 10, 99, 100, 1000, 12345])
def test_value_lines_match_scalar_writer(n):
    images = list(range(1, n + 1))
    random.Random(n).shuffle(images)
    p = Permutation.from_one_line(images)
    s = PermSet((p, identity(n), reversal(n)))
    want = f"permset 1 3 {n}\n" + "".join(value_line(q.one_line) for q in s.perms)
    assert dumps_permset(s) == want


@pytest.mark.parametrize("build, args", [(build_hadamard_set, (8, 3)), (build_general, (1000, 5))])
def test_construction_round_trips(build, args):
    s = build(*args)
    assert loads_permset(dumps_permset(s)).perms == s.perms


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
def test_reader_splits_lines_and_tokens_as_python_does(tmp_path, text, want):
    assert _read_outcome(loads_permset, text) == want
    path = tmp_path / "s.permset"
    path.write_bytes(text.encode("ascii"))
    assert _read_outcome(read_permset, path) == want


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
    # Raised before any value line is read: the byte that is not ASCII on
    # line 2 is never decoded.
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


def test_value_line_matches_str_at_every_width():
    # every width a value in 1..MAX_N can have, and MAX_N itself
    values = [v for w in range(1, 9) for v in (10 ** (w - 1), 10 ** (w - 1) + 7, 10**w - 1)]
    values += [1, 9999, 10_000, 10_001, MAX_N]
    want = (" ".join(map(str, values)) + "\n").encode("ascii")
    assert _value_line(np.array(values, dtype=np.int64)).tobytes() == want
    for v in values:
        assert _value_line(np.array([v], dtype=np.int64)).tobytes() == f"{v}\n".encode("ascii")


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
