import random

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
