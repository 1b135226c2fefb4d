import hashlib
import itertools
import json
import time
import types

import pytest

from permlcs import (
    build_general, build_hadamard_set, dumps_permset, identity, PermSet, read_permset,
    write_permset,
)
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


def test_bench_error_names_failing_cell(capsys):
    code, out, err = run(capsys, "bench", "--grid", "algebraic:k=3:s1=1",
                         "--grid", "hadamard:k=5:s=2")
    assert code == 2
    assert out.splitlines()[0] == "construction,n,k,max_lcs,bound,elapsed_ms"
    assert err == "error: hadamard:k=5:s=2: no supported Hadamard construction for order 5\n"


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
    ("construct", "algebraic", "--n", "1000000000000", "--k", "8"),
    ("construct", "hadamard", "--k", "8", "--s", "11"),
    ("sample", "--n", "1000000000000", "--k", "3", "--trials", "1"),
])
def test_oversize_ground_set_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


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
        raise RuntimeError("duplicate sort key for j=1; keys must be 1-1 on [n]")

    monkeypatch.setattr("permlcs.cli.lcs_all_pairs", broken)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 3
    assert out == ""
    assert err == "internal error: duplicate sort key for j=1; keys must be 1-1 on [n]\n"


def test_out_of_memory_is_usage_error(capsys, monkeypatch):
    def starved(n, k):
        raise MemoryError("Unable to allocate 1.91 GiB for an array")

    monkeypatch.setattr("permlcs.cli.build_general", starved)
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
