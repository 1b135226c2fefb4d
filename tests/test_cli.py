import functools
import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
import types

import pytest

import permlcs
from permlcs import (
    build_general, build_hadamard_set, dumps_permset, identity, PermSet, read_permset,
    write_permset,
)
import permlcs.algebraic as algebraic
import permlcs.fileio as fileio
import permlcs.hadamard as hadamard
from permlcs.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_construct_algebraic(tmp_path, capsys):
    out = tmp_path / "s.permset"
    code, report, _ = run_json(
        capsys, "construct", "algebraic", "--n", "72", "--k", "3", "--out", str(out)
    )
    assert code == 0
    assert set(report) == {"command", "params", "results", "pass"}
    assert report["pass"] is True
    assert report["results"]["p"] == 29
    assert report["results"]["lcs_bound"] == 57
    parsed = read_permset(out)
    assert parsed.k == 3 and parsed.n == 72


def test_construct_hadamard(tmp_path, capsys):
    out = tmp_path / "h.permset"
    code, report, _ = run_json(
        capsys, "construct", "hadamard", "--k", "4", "--s", "2", "--out", str(out)
    )
    assert code == 0
    assert report["results"]["n_prime"] == 8
    assert report["results"]["lcs_bound"] == 2
    assert read_permset(out).k == 4
    # --n restricts the set to [n] and is echoed in params
    code, report, _ = run_json(capsys, "construct", "hadamard", "--k", "4", "--s", "4",
                               "--n", "27")
    assert code == 0
    assert report["params"]["n"] == 27 and report["results"]["n_prime"] == 64


def test_construct_round_trip_equal(tmp_path, capsys):
    out = tmp_path / "s.permset"
    code, _, _ = run(capsys, "construct", "algebraic", "--n", "45", "--k", "3",
                     "--out", str(out))
    assert code == 0
    from permlcs import build_general

    assert read_permset(out).perms == build_general(45, 3).perms


def test_construct_parameter_errors(capsys):
    code, _, err = run(capsys, "construct", "algebraic", "--n", "8", "--k", "3")
    assert code == 2 and "k^2" in err
    code, _, _ = run(capsys, "construct", "algebraic", "--k", "3")
    assert code == 2
    code, _, _ = run(capsys, "construct", "hadamard", "--k", "10", "--s", "2")
    assert code == 2
    code, _, _ = run(capsys, "construct", "badkind", "--k", "3")
    assert code == 2


@pytest.mark.parametrize("argv, err", [
    (("hadamard", "--k", "4", "--s", "3", "--n", "100"), "restriction size 100 outside [1, 27]"),
    (("hadamard", "--k", "4", "--s", "3", "--n", "0"), "restriction size 0 outside [1, 27]"),
    (("hadamard", "--k", "10", "--s", "2", "--n", "5"),
     "no supported Hadamard construction for order 10"),
    (("hadamard", "--k", "4", "--s", "1"), "digit base must be at least 2, got 1"),
    (("algebraic", "--n", "5", "--k", "8"), "need n >= k^2 = 64, got 5"),
    (("algebraic", "--n", "100", "--k", "2"), "need at least k=3 generators, got 2"),
])
def test_usage_errors_come_before_the_file(tmp_path, capsys, monkeypatch, argv, err):
    # Each builder checks every parameter before it makes its first member,
    # so a usage error is raised before --out is opened and leaves no file.
    def opened(*args):
        raise AssertionError("--out was opened")

    monkeypatch.setattr("permlcs.fileio._write_members", opened)
    path = tmp_path / "s.permset"
    assert run(capsys, "construct", *argv, "--out", str(path)) == (2, "", f"error: {err}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, build", [
    (("algebraic", "--n", "72", "--k", "3"), lambda: build_general(72, 3)),
    (("algebraic", "--n", "100", "--k", "4"), lambda: build_general(100, 4)),
    (("hadamard", "--k", "4", "--s", "3"), lambda: build_hadamard_set(4, 3)),
    (("hadamard", "--k", "4", "--s", "3", "--n", "20"), lambda: build_hadamard_set(4, 3, n=20)),
])
def test_streamed_file_is_the_built_set(tmp_path, capsys, routes, argv, build):
    # construct writes each member as it is built; the library gathers the
    # same stream into a PermSet, and the two give the same bytes.
    for route in routes:
        path = tmp_path / f"{route}.permset"
        assert run(capsys, "construct", *argv, "--out", str(path))[0] == 0
        assert path.read_bytes() == dumps_permset(build()).encode("ascii")


@pytest.mark.parametrize("small, large", [
    (("algebraic", "--n", "32768", "--k", "8"), ("algebraic", "--n", "32768", "--k", "64")),
    (("hadamard", "--k", "4", "--s", "32"), ("hadamard", "--k", "16", "--s", "2")),
])
def test_construct_memory_does_not_grow_with_k(tmp_path, capsys, small, large):
    # Each member is written as it is built and then dropped, so the traced
    # peak of `construct --out` is one member's build and line, whatever k is.
    # Both sets of a pair are on n = n' = 2^15, and their peaks differ by less
    # than one member (4n bytes) + 64 KiB; holding all k members, the lattice
    # pair differed by 56 members and the digit pair by 12.
    path = tmp_path / "s.permset"
    run(capsys, "construct", *small, "--out", str(path))  # loads the codec untraced
    peaks = []
    for argv in (small, large):
        tracemalloc.start()
        try:
            code = main(["construct", *argv, "--out", str(path)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    capsys.readouterr()
    assert abs(peaks[1] - peaks[0]) < 4 * 32768 + 64 * 1024, peaks


def test_broken_member_stream_exits_3_and_leaves_no_file(tmp_path, capsys, monkeypatch):
    # The header is written before any member exists; a stream that then
    # falls short of it is an internal error, and the file is never made.
    digit_stream = hadamard._digit_stream

    def short(k, s, n):
        record, members = digit_stream(k, s, n)
        return record, itertools.islice(members, k - 1)

    monkeypatch.setattr("permlcs.hadamard._digit_stream", short)
    path = tmp_path / "h.permset"
    code, out, err = run(capsys, "construct", "hadamard", "--k", "4", "--s", "3",
                         "--out", str(path))
    assert (code, out) == (3, "")
    assert err == "internal error: 3 members, not the 4 the PERMSET header promised\n"
    assert list(tmp_path.iterdir()) == []


def test_verify_theorem2_pass(tmp_path, capsys):
    out = tmp_path / "s.permset"
    run(capsys, "construct", "algebraic", "--n", "72", "--k", "3", "--out", str(out))
    code, report, _ = run_json(capsys, "verify", str(out), "--bound", "theorem2")
    assert code == 0 and report["pass"] is True
    b = report["results"]["bounds"]["theorem2"]
    assert b["holds"] and b["threshold"] >= 192.0
    assert len(report["results"]["pairwise_lcs"]) == 3


def test_verify_theorem1_pass(tmp_path, capsys):
    out = tmp_path / "h.permset"
    run(capsys, "construct", "hadamard", "--k", "4", "--s", "2", "--out", str(out))
    code, report, _ = run_json(capsys, "verify", str(out), "--bound", "theorem1")
    assert code == 0
    assert report["results"]["bounds"]["theorem1"]["threshold"] == 2


def test_verify_duplicate_set_fails_theorem2(tmp_path, capsys):
    n = 300  # n^2 > 32^3 * k makes LCS = n a violation
    path = tmp_path / "dup.permset"
    path.write_text(dumps_permset(PermSet((identity(n), identity(n)))))
    code, report, _ = run_json(capsys, "verify", str(path), "--bound", "theorem2")
    assert code == 1 and report["pass"] is False


def test_verify_all_skips_inapplicable(tmp_path, capsys):
    out = tmp_path / "s.permset"
    run(capsys, "construct", "algebraic", "--n", "72", "--k", "3", "--out", str(out))
    code, report, _ = run_json(capsys, "verify", str(out))
    assert code == 0
    bounds = report["results"]["bounds"]
    assert bounds["theorem1"]["applicable"] is False  # k=3 is odd
    assert bounds["lower"]["holds"] and bounds["theorem2"]["holds"]


def test_verify_all_reports_theorem1_on_lattice_set(tmp_path, capsys):
    out = tmp_path / "s.permset"
    run(capsys, "construct", "algebraic", "--n", "100", "--k", "4", "--out", str(out))
    code, report, _ = run_json(capsys, "verify", str(out))
    assert code == 0 and report["pass"] is True
    bounds = report["results"]["bounds"]
    assert bounds["theorem1"]["holds"] is False
    assert bounds["theorem1"]["asserted"] is False
    assert bounds["lower"]["holds"] and bounds["theorem2"]["holds"]


def test_verify_single_inapplicable_bound_is_usage_error(tmp_path, capsys):
    path = tmp_path / "two.permset"
    path.write_text(dumps_permset(PermSet((identity(9), identity(9)))))
    code, _, err = run(capsys, "verify", str(path), "--bound", "lower")
    assert code == 2 and "not applicable" in err


def test_verify_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.permset"
    path.write_text("permset 9 9\n")
    code, _, _ = run(capsys, "verify", str(path))
    assert code == 2
    code, _, _ = run(capsys, "verify", str(tmp_path / "missing.permset"))
    assert code == 2


def test_sample_deterministic(capsys):
    code, rep1, _ = run_json(capsys, "sample", "--n", "100", "--k", "3",
                             "--trials", "10", "--seed", "7")
    code2, rep2, _ = run_json(capsys, "sample", "--n", "100", "--k", "3",
                              "--trials", "10", "--seed", "7")
    assert code == code2 == 0
    assert rep1 == rep2
    assert rep1["results"]["violations"] == 0
    assert len(rep1["results"]["max_lcs_distribution"]) == 10


def test_sample_lis_csv(tmp_path, capsys):
    csv_path = tmp_path / "lis.csv"
    code, report, _ = run_json(capsys, "sample", "--n", "50", "--k", "2",
                               "--trials", "5", "--seed", "1",
                               "--lis-csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "trial,length" and len(lines) == 6
    assert report["results"]["lis_csv"] == str(csv_path)


def test_sample_lis_csv_is_not_opened_when_sampling_fails(tmp_path, capsys, monkeypatch):
    def starved(jobs):
        raise MemoryError
    monkeypatch.setattr("permlcs.subseq._lanes", starved)
    csv_path = tmp_path / "lis.csv"
    code, out, err = run(capsys, "sample", "--n", "50", "--k", "2", "--trials", "5",
                         "--lis-csv", str(csv_path))
    assert (code, out, err) == (2, "", "error: out of memory\n")
    assert not csv_path.exists()


def test_sample_zero_trials(capsys):
    code, _, _ = run(capsys, "sample", "--n", "10", "--k", "2", "--trials", "0")
    assert code == 2


def test_sample_one_member_sets_rejected(capsys):
    code, out, err = run(capsys, "sample", "--n", "10", "--k", "1", "--trials", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_distance_report(tmp_path, capsys):
    out = tmp_path / "h.permset"
    run(capsys, "construct", "hadamard", "--k", "4", "--s", "2", "--out", str(out))
    code, report, _ = run_json(capsys, "distance", str(out))
    assert code == 0
    assert report["results"]["code"]["min_distance"] >= 6
    assert report["results"]["code"]["min_distance"] + report["results"]["code"]["max_pair_lcs"] == 8


@pytest.mark.parametrize("command", ["verify", "distance"])
def test_single_member_set_rejected(tmp_path, capsys, command):
    path = tmp_path / "one.permset"
    path.write_text("permset 1 1 3\n1 2 3\n")
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_bench_csv(capsys):
    code, out, _ = run(capsys, "bench", "--grid", "algebraic:k=3,4:s1=1",
                       "--grid", "hadamard:k=4:s=2", "--seed", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "construction,n,k,max_lcs,bound,elapsed_ms"
    assert len(lines) == 4
    for line in lines[1:]:
        kind, n, k, max_lcs, bound, elapsed = line.split(",")
        assert kind in ("algebraic", "hadamard")
        assert int(max_lcs) <= float(bound)
        assert elapsed == "0"


def test_bench_deterministic_with_random_rows(capsys):
    args = ("bench", "--grid", "random:n=60,100:k=3", "--seed", "11")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_bench_bad_grids(capsys):
    assert run(capsys, "bench", "--grid", "algebraic:k=3")[0] == 2
    assert run(capsys, "bench", "--grid", "mystery:k=3:s1=1")[0] == 2
    assert run(capsys, "bench", "--grid", "algebraic:k=:s1=1")[0] == 2
    assert run(capsys, "bench")[0] == 2


@pytest.mark.parametrize("argv, err", [
    (("construct", "algebraic", "--n", "72", "--k", "3", "--s", "2"),
     "error: --s does not apply to the algebraic construction\n"),
    (("construct", "hadamard", "--k", "4"), "error: construct hadamard requires --s\n"),
    (("bench", "--grid", "algebraic:k=3:q=1"), "error: bad grid component 'q=1' for algebraic\n"),
    # a repeated key would silently replace the earlier values
    (("bench", "--grid", "algebraic:k=3:s1=1:k=4"),
     "error: bad grid component 'k=4' for algebraic\n"),
    (("bench", "--grid", "algebraic:k=x:s1=1"), "error: bad grid component 'k=x' for algebraic\n"),
    pytest.param(("bench", "--grid", "algebraic:k=3:s1=" + "9" * 5000),
                 f"error: bad grid component 's1={'9' * 5000}' for algebraic\n",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="int() has no digit limit"),
                 id="argv5-s1 past the int() digit limit"),
])
def test_usage_errors_name_what_is_wrong(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", err)


def test_bench_error_names_failing_cell(capsys):
    code, out, err = run(capsys, "bench", "--grid", "algebraic:k=3:s1=1",
                         "--grid", "hadamard:k=5:s=2")
    assert code == 2
    assert out.splitlines()[0] == "construction,n,k,max_lcs,bound,elapsed_ms"
    assert err == "error: hadamard:k=5:s=2: no supported Hadamard construction for order 5\n"
    code, out, err = run(capsys, "bench", "--grid", "random:n=100:k=3,1")
    assert (code, out) == (2, "construction,n,k,max_lcs,bound,elapsed_ms\n")
    assert err == "error: random:n=100:k=1: pairwise LCS needs at least two permutations\n"


def test_a_negative_seed_is_named(capsys, routes):
    # numpy's own refusal, "expected non-negative integer", named neither;
    # the native draw refuses it with the same words
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, not -1$"):
        permlcs.trial_rng(-1)
    for route in routes:
        assert run(capsys, "sample", "--n", "20", "--k", "3", "--trials", "2", "--seed", "-1") == (
            2, "", "error: seed must be a non-negative integer, not -1\n")
        assert run(capsys, "bench", "--grid", "random:n=20:k=3", "--seed", "-1") == (
            2, "construction,n,k,max_lcs,bound,elapsed_ms\n",
            "error: random:n=20:k=3: seed must be a non-negative integer, not -1\n")


@pytest.mark.parametrize("argv", [
    ("verify", "{d}"),
    ("distance", "{d}"),
    ("construct", "algebraic", "--n", "72", "--k", "3", "--out", "{d}"),
    ("sample", "--n", "10", "--k", "2", "--trials", "2", "--lis-csv", "{d}"),
])
def test_directory_path_is_os_error(tmp_path, capsys, argv):
    code, out, err = run(capsys, *(a.format(d=tmp_path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("construct", "algebraic", "--n", "100", "--k", "3", "--out", ""),
    ("sample", "--n", "100", "--k", "3", "--trials", "2", "--lis-csv", ""),
])
def test_empty_output_path_is_os_error(tmp_path, capsys, monkeypatch, argv):
    # an empty path is honoured like any other: it names no file, so nothing
    # is written, here or in the parent directory, and no report is printed
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: [Errno 2] No such file or directory: ''\n")
    assert [p.name for p in tmp_path.iterdir()] == ["work"]
    assert list(work.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("construct", "algebraic", "--n", "1000000000000", "--k", "8"),
    ("construct", "hadamard", "--k", "8", "--s", "11"),
    ("sample", "--n", "1000000000000", "--k", "3", "--trials", "1"),
    # n' is past float range, so the cap must be checked with integer roots
    ("construct", "algebraic", "--n", "1" + "0" * 400, "--k", "3"),
])
def test_oversize_ground_set_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.count("\n") == 1 and "ground-set cap" in err


def test_bench_orders_above_cap_cell_last(capsys):
    # digit_ground_set returns MAX_N + 1 for any n' above the cap, so bench
    # sorts such a cell after every valid one: their rows print, then it fails.
    code, out, err = run(capsys, "bench", "--grid", "hadamard:k=30:s=2",
                         "--grid", "hadamard:k=4:s=2")
    assert code == 2
    assert out == "construction,n,k,max_lcs,bound,elapsed_ms\nhadamard,8,4,2,2,0\n"
    assert err == "error: hadamard:k=30:s=2: s**(k-1) exceeds the ground-set cap 16777216\n"


def test_bench_names_the_cap_for_a_huge_s1(capsys):
    # n' = 9*s1**3 has about 4,500 digits, past Python's integer-to-string
    # limit, so the cap message names n' by k and s1 instead.
    code, out, err = run(capsys, "bench", "--grid", "algebraic:k=3:s1=" + "9" * 1500)
    assert code == 2
    assert out == "construction,n,k,max_lcs,bound,elapsed_ms\n"
    assert err.startswith("error: algebraic:k=3:s1=999") and err.count("\n") == 1
    assert "exceeds the ground-set cap 16777216" in err


@pytest.mark.parametrize("argv", [
    ("construct", "hadamard", "--k", "20000001", "--s", "3"),
    ("construct", "hadamard", "--k", "512", "--s", "1"),
    ("bench", "--grid", "hadamard:k=20000001:s=3"),
    ("bench", "--grid", "hadamard:k=0:s=0"),
])
def test_runaway_hadamard_parameters_fail_fast(capsys, argv):
    t0 = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 2.0
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_internal_invariant_exits_3(tmp_path, capsys, monkeypatch):
    path = tmp_path / "s.permset"
    path.write_text(dumps_permset(PermSet((identity(4), identity(4)))))

    def broken(s):
        raise RuntimeError("the sweep broke an invariant")

    monkeypatch.setattr("permlcs.subseq.lcs_all_pairs", broken)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 3
    assert out == ""
    assert err == "internal error: the sweep broke an invariant\n"


def test_refused_render_at_a_later_member_stops_the_write(tmp_path, capsys, monkeypatch):
    # Members are written as they are built, so when the render of member 2
    # is refused the header and member 1 are already in the temporary file,
    # which goes.  The stand-in library renders member 1 in Python, so this
    # runs on both routes.
    during, renders = [], itertools.count()

    def render_line(word, n, buf, size):
        if next(renders):
            during.extend(p.name for p in tmp_path.iterdir())
            return -1
        line = " ".join(map(str, word + 1)).encode() + b"\n"
        buf[:len(line)] = list(line)
        return len(line)

    monkeypatch.setattr(fileio._native, "library",
                        lambda: types.SimpleNamespace(render_line=render_line))
    path = tmp_path / "s.permset"
    code, out, err = run(capsys, "construct", "algebraic", "--n", "72", "--k", "3",
                         "--out", str(path))
    assert (code, out) == (3, "")
    assert err == "internal error: render_line refused a member on [72]\n"
    assert len(during) == 1 and during[0].startswith(".s.permset.") and during[0].endswith(".tmp")
    assert list(tmp_path.iterdir()) == []


def test_construct_without_out_builds_nothing(tmp_path, capsys, monkeypatch):
    # Without --out the report is the record's, so no member is built; the
    # digests are the reports of the builds that made every member.
    def unbuildable(*args):
        raise RuntimeError("a member was built")

    monkeypatch.setattr(algebraic, "_member", unbuildable)
    monkeypatch.setattr(hadamard, "_cut", unbuildable)
    for argv, digest in [
        (("construct", "algebraic", "--n", "72", "--k", "3"),
         "6e24b7249e838a9c7cde1f6ec342f20e29f56b18d879aec7e83d6cf45adcfc72"),
        (("construct", "hadamard", "--k", "4", "--s", "4", "--n", "27"),
         "a62d745b74118be726254756d79f59be81a322c579ac7c2223cc1eab979901c2"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (0, digest, "")
        path = tmp_path / "s.permset"
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert (code, out, err) == (3, "", "internal error: a member was built\n")
        assert list(tmp_path.iterdir()) == []


def test_out_of_memory_is_usage_error(capsys, monkeypatch):
    def starved(n, k):
        raise MemoryError("Unable to allocate 1.91 GiB for an array")

    monkeypatch.setattr("permlcs.algebraic._general_stream", starved)
    code, out, err = run(capsys, "construct", "algebraic", "--n", "16000000", "--k", "16")
    assert code == 2
    assert out == ""
    assert err == "error: out of memory: Unable to allocate 1.91 GiB for an array\n"


def test_usage_error_exit_code(capsys):
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys)[0] == 2


def write_sets(d):
    d.mkdir(exist_ok=True)
    write_permset(build_general(72, 3), d / "a72.permset")
    write_permset(build_hadamard_set(4, 4, n=27), d / "h27.permset")
    return d


# Exit code and sha256 of stdout, with the temp directory written as "<tmp>",
# for one case of each command; the JSON key order, indentation and float
# text are part of the report.  Both routes must print the same bytes, and
# each pass writes its own input files on its route.
@pytest.mark.parametrize("argv, code, digest", [
    (("construct", "algebraic", "--n", "72", "--k", "3"), 0,
     "6e24b7249e838a9c7cde1f6ec342f20e29f56b18d879aec7e83d6cf45adcfc72"),
    (("verify", "{d}/a72.permset"), 0,
     "ec30149a35d4185844a48893fd72ea2aa62de8c589ae51f8977a0a51e400bf11"),
    (("verify", "{d}/h27.permset", "--bound", "theorem1"), 1,
     "0ff0b3edd72da46d7722447a50adedd5549c178efaaee4b234a1dd5b9ed888ba"),
    (("sample", "--n", "400", "--k", "3", "--trials", "5", "--seed", "7"), 0,
     "52b1898d0b3ee1d6f5b7fb0ec5c1b8bd57f56434550f88479d04e3c4fcd2e489"),
    (("distance", "{d}/a72.permset"), 0,
     "dc13ddb0cdb80e9ac3caf231652d13778bf1b3ef8159af11aeedcc9def39d531"),
    (("bench", "--grid", "algebraic:k=3,4:s1=1", "--grid", "hadamard:k=4:s=2",
      "--grid", "random:n=100:k=3", "--seed", "1"), 0,
     "2bb9e7f15ec52b69438e55d618b30cf1374c27e01d1e9edc182e53fff61ff4b6"),
])
def test_report_bytes(tmp_path, capsys, routes, argv, code, digest):
    for route in routes:
        d = write_sets(tmp_path / route)
        got, out, _ = run(capsys, *(a.format(d=d) for a in argv))
        out = out.replace(str(d), "<tmp>")
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


@pytest.mark.parametrize("argv", [
    ("construct", "hadamard", "--k", "4", "--s", "2"),
    ("verify", "{d}/a72.permset"),
    ("sample", "--n", "50", "--k", "2", "--trials", "2"),
    ("distance", "{d}/a72.permset"),
    ("bench", "--grid", "hadamard:k=4:s=2"),
])
@pytest.mark.parametrize("timing", [False, True])
def test_timing_flag(tmp_path, capsys, monkeypatch, argv, timing):
    d = write_sets(tmp_path)
    # A clock that advances one second per reading: with --timing each
    # reported span is exactly 1000 ms, without it 0.
    clock = itertools.count(0.0, 1.0)
    monkeypatch.setattr("permlcs.cli.time", types.SimpleNamespace(perf_counter=clock.__next__))
    flag = ("--timing",) if timing else ()
    code, out, _ = run(capsys, *(a.format(d=d) for a in argv), *flag)
    assert code == 0
    if argv[0] == "bench":
        elapsed = int(out.splitlines()[1].rsplit(",", 1)[1])
    else:
        elapsed = json.loads(out)["results"]["elapsed_ms"]
    assert type(elapsed) is int and elapsed == (1000 if timing else 0)


# Run in a fresh interpreter: with argv None, `import permlcs` alone; with
# argv [], `import permlcs.cli`; otherwise `cli.main(argv)`, its stdout and
# stderr dropped.  Prints the exit code, the permlcs submodules loaded,
# whether numpy and numpy.random were, and whether the native library was.
_LOADS_CHILD = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
import permlcs
code = None
if argv is not None:
    import permlcs.cli
    if argv:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = permlcs.cli.main(argv)
loaded = sorted(m.removeprefix("permlcs.") for m in sys.modules if m.startswith("permlcs."))
native = sys.modules.get("permlcs._native")
native = native is not None and native.library() is not None
print(json.dumps({"code": code, "loaded": loaded, "numpy": "numpy" in sys.modules,
                  "numpy.random": "numpy.random" in sys.modules, "native": native}))
"""
_PARSER = {"cli", "bounds", "arith"}  # every command's parser reads bounds.BOUND_CHOICES


@functools.cache
def _numpy_loads_random() -> bool:
    """Whether `import numpy` alone loads numpy.random: numpy 1.x imports it
    eagerly, numpy 2 on first use."""
    code = "import sys, numpy; print('numpy.random' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, check=True)
    return res.stdout.strip() == "True"


@pytest.mark.parametrize("argv, code, loaded", [
    (None, None, set()),
    ([], None, {"cli"}),
    (["--help"], 0, _PARSER),
    (["verify"], 2, _PARSER),  # a usage error: no path
    (["construct", "algebraic", "--n", "100", "--k", "3", "--out", "{d}/c.permset"], 0,
     _PARSER | {"algebraic", "perm", "fileio", "_native"}),
    (["construct", "hadamard", "--k", "4", "--s", "3", "--out", "{d}/c.permset"], 0,
     _PARSER | {"hadamard", "perm", "fileio", "_native"}),
    (["verify", "{d}/a72.permset", "--bound", "theorem2"], 0,
     _PARSER | {"fileio", "perm", "_native", "subseq"}),
    (["verify", "{d}/h27.permset", "--bound", "theorem1"], 1,
     _PARSER | {"fileio", "perm", "_native", "subseq", "hadamard"}),
    (["distance", "{d}/a72.permset"], 0, _PARSER | {"fileio", "perm", "_native", "subseq", "codes"}),
    (["sample", "--n", "20", "--k", "3", "--trials", "2"], 0, _PARSER | {"perm", "subseq", "_native"}),
    (["bench", "--grid", "random:n=20:k=3"], 0, _PARSER | {"perm", "subseq", "_native"}),
], ids=["import permlcs", "import permlcs.cli", "--help", "usage error", "construct algebraic",
        "construct hadamard", "verify theorem2", "verify theorem1", "distance", "sample",
        "bench random"])
def test_each_command_loads_only_its_modules(tmp_path, argv, code, loaded):
    """`import permlcs` loads no submodule, and each command only the
    modules whose functions it calls; numpy comes with the first of those.
    With the native library no command loads numpy.random, not even the
    random draws of `sample` and `bench`, unless `import numpy` does."""
    d = write_sets(tmp_path)
    if argv is not None:
        argv = [a.format(d=d) for a in argv]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(permlcs.__file__))}
    res = subprocess.run([sys.executable, "-c", _LOADS_CHILD, json.dumps(argv)], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    report = json.loads(res.stdout)
    assert (report["code"], set(report["loaded"])) == (code, loaded)
    assert report["numpy"] == bool(loaded - _PARSER)
    if report["native"] and not _numpy_loads_random():
        assert not report["numpy.random"]
