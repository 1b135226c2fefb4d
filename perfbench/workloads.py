"""The three benchmark workloads: CLI commands and the checks on their output.

Every workload is closed-loop: one client runs one command at a time and
starts the next only when the previous one has exited.  Each command's exit
code and its JSON `results` are checked against values the constructions
guarantee, so a command that exits 0 with a wrong answer counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The default --seed, and the one `digests.json` records random-sample digests for.
DEFAULT_SEED = 0

HADAMARD_K, HADAMARD_S = 8, 6
HADAMARD_N = HADAMARD_S ** (HADAMARD_K - 1)           # 279,936
HADAMARD_LCS = HADAMARD_S ** (HADAMARD_K // 2 - 1)    # 216, both max and min pair

ALGEBRAIC_N, ALGEBRAIC_K = 100_000, 8
ALGEBRAIC_N_PRIME = 110_592                           # 8^2 * 12^3
ALGEBRAIC_MAX_PAIR, ALGEBRAIC_MIN_PAIR = 504, 193

SAMPLE_N, SAMPLE_K, SAMPLE_TRIALS = 10_000, 3, 200

# Keys of `results` that echo a file path; digests leave them out.
PATH_KEYS = ("out", "path", "lis_csv")

_DIGESTS = json.loads((Path(__file__).parent / "digests.json").read_text())


def digest(results: dict, extra: bytes = b"") -> str:
    """sha256 over `results` without path-valued keys, plus any extra bytes."""
    kept = {k: v for k, v in results.items() if k not in PATH_KEYS}
    h = hashlib.sha256(json.dumps(kept, sort_keys=True, separators=(",", ":")).encode())
    h.update(extra)
    return h.hexdigest()


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check of its outcome.

    `check(report, seed)` returns a list of problems (empty when correct) and
    the digest of the command's results.
    """

    name: str
    argv: tuple[str, ...]
    check: Callable[[dict, int], tuple[list[str], str]]


def _expect(problems: list[str], label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, want {want!r}")


def _check_digest(problems: list[str], workload: str, command: str, got: str, seed: int) -> None:
    recorded = _DIGESTS.get(workload, {})
    if "seed" in recorded and recorded["seed"] != seed:
        return
    want = recorded.get(command)
    if want is not None and got != want:
        problems.append(f"{command} digest {got[:12]} differs from the recorded {want[:12]}")


def _checker(workload: str, command: str, body: Callable[[list[str], dict, int], bytes]):
    def check(report: dict, seed: int) -> tuple[list[str], str]:
        problems: list[str] = []
        _expect(problems, "pass", report.get("pass"), True)
        results = report.get("results", {})
        extra = body(problems, results, seed) or b""
        got = digest(results, extra)
        _check_digest(problems, workload, command, got, seed)
        return problems, got

    return check


# -- hadamard-roundtrip --

def _hadamard_construct(problems, results, _seed):
    _expect(problems, "n", results.get("n"), HADAMARD_N)
    _expect(problems, "lcs_bound", results.get("lcs_bound"), HADAMARD_LCS)


def _hadamard_verify(problems, results, _seed):
    _expect(problems, "max_pair_lcs", results.get("max_pair_lcs"), HADAMARD_LCS)
    _expect(problems, "min_pair_lcs", results.get("min_pair_lcs"), HADAMARD_LCS)
    _expect(problems, "pairs", len(results.get("pairwise_lcs", ())), 28)


def hadamard_roundtrip(seed: int, work: Path) -> list[Command]:
    f = str(work / "hadamard.permset")
    name = "hadamard-roundtrip"
    return [
        Command("construct", ("construct", "hadamard", "--k", str(HADAMARD_K),
                              "--s", str(HADAMARD_S), "--out", f),
                _checker(name, "construct", _hadamard_construct)),
        Command("verify", ("verify", f, "--bound", "theorem1"),
                _checker(name, "verify", _hadamard_verify)),
    ]


# -- algebraic-verify --

def _algebraic_construct(problems, results, _seed):
    _expect(problems, "n", results.get("n"), ALGEBRAIC_N)
    _expect(problems, "n_prime", results.get("n_prime"), ALGEBRAIC_N_PRIME)


def _algebraic_verify(problems, results, _seed):
    _expect(problems, "max_pair_lcs", results.get("max_pair_lcs"), ALGEBRAIC_MAX_PAIR)
    _expect(problems, "min_pair_lcs", results.get("min_pair_lcs"), ALGEBRAIC_MIN_PAIR)


def _algebraic_distance(problems, results, _seed):
    code = results.get("code", {})
    _expect(problems, "min_distance", code.get("min_distance"), ALGEBRAIC_N - ALGEBRAIC_MAX_PAIR)
    _expect(problems, "max_pair_lcs", code.get("max_pair_lcs"), ALGEBRAIC_MAX_PAIR)


def algebraic_verify(seed: int, work: Path) -> list[Command]:
    f = str(work / "algebraic.permset")
    name = "algebraic-verify"
    return [
        Command("construct", ("construct", "algebraic", "--n", str(ALGEBRAIC_N),
                              "--k", str(ALGEBRAIC_K), "--out", f),
                _checker(name, "construct", _algebraic_construct)),
        Command("verify", ("verify", f, "--bound", "theorem2"),
                _checker(name, "verify", _algebraic_verify)),
        Command("distance", ("distance", f), _checker(name, "distance", _algebraic_distance)),
    ]


# -- random-sample --

def sample_max_window(n: int) -> tuple[int, float]:
    """Every k>=3 set has a pair with LCS >= ceil(n^(1/3)); random sets stay
    below 2e*sqrt(n)."""
    floor = 1
    while floor**3 < n:
        floor += 1
    return floor, 2.0 * math.e * math.sqrt(n)


def _sample(csv_path: Path):
    def body(problems, results, _seed):
        _expect(problems, "violations", results.get("violations"), 0)
        maxima = results.get("max_lcs_distribution", [])
        _expect(problems, "trials", len(maxima), SAMPLE_TRIALS)
        lo, hi = sample_max_window(SAMPLE_N)
        outside = [v for v in maxima if not lo <= v < hi]
        if outside:
            problems.append(f"{len(outside)} max-pair LCS values outside [{lo}, {hi:.1f})")
        if maxima:
            _expect(problems, "min_max_lcs", results.get("min_max_lcs"), min(maxima))
        csv = csv_path.read_bytes() if csv_path.is_file() else b""
        _expect(problems, "CSV lines", csv.count(b"\n"), SAMPLE_TRIALS + 1)
        return csv

    return body


def random_sample(seed: int, work: Path) -> list[Command]:
    csv = work / "lis.csv"
    return [
        Command("sample", ("sample", "--n", str(SAMPLE_N), "--k", str(SAMPLE_K),
                           "--trials", str(SAMPLE_TRIALS), "--seed", str(seed),
                           "--lis-csv", str(csv)),
                _checker("random-sample", "sample", _sample(csv))),
    ]


# name -> commands(seed, work_dir)
WORKLOADS: dict[str, Callable[[int, Path], list[Command]]] = {
    "hadamard-roundtrip": hadamard_roundtrip,
    "algebraic-verify": algebraic_verify,
    "random-sample": random_sample,
}
