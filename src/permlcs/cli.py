"""Command-line front end.

Subcommands: construct, verify, sample, distance, bench.  Each returns
whether it passed, and `main` alone maps that and the errors to the exit
code: 0 pass, 1 a bound is violated, 2 usage (including a ground set above
`perm.MAX_N`), file-format or OS error, or running out of memory, 3 a
broken internal invariant (a builder's `RuntimeError`).  Every JSON report
on stdout comes from `_json_command` with the keys command/params/results/
pass; bench emits CSV.  The bound arithmetic lives with the constructions
(`params["lcs_bound"]`), and `verify`'s whole verdict, which bounds are
reported and which decide the pass, in `bounds.check_bounds`; this module
only selects, runs and reports.

At module level this imports only the standard library: each command
imports the library functions it calls, so it loads only their modules.

Outputs are byte-deterministic for fixed flags and seed: timing fields are
written as 0 unless --timing is given.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import itertools
import json
import sys
import time
from typing import Callable, Iterator, Optional, Sequence


def _elapsed_ms(t0: float, timing: bool) -> int:
    return int(round((time.perf_counter() - t0) * 1000)) if timing else 0


def _json_command(body: Callable[..., tuple[dict, dict, bool]]) -> Callable[..., bool]:
    """Run `body`, print its (params, results, passed) as the JSON report of
    `args.command` with `results["elapsed_ms"]` added, and return passed."""
    def command(args: argparse.Namespace) -> bool:
        t0 = time.perf_counter()
        params, results, passed = body(args)
        results["elapsed_ms"] = _elapsed_ms(t0, args.timing)
        report = {"command": args.command, "params": params, "results": results, "pass": passed}
        print(json.dumps(report, indent=2, sort_keys=True))
        return passed
    return command


@_json_command
def _cmd_construct(args: argparse.Namespace) -> tuple[dict, dict, bool]:
    # Every usage error is raised before --out is opened; the members are
    # then built one at a time, each written as it is made, or dropped.
    if args.kind == "algebraic":
        from .algebraic import _general_stream
        from .bounds import theorem2_threshold

        if args.n is None:
            raise ValueError("construct algebraic requires --n")
        if args.s is not None:
            raise ValueError("--s does not apply to the algebraic construction")
        record, members = _general_stream(args.n, args.k)
        results = dict(record)
        results["theorem2_threshold"] = theorem2_threshold(args.n, args.k)
        params = {"kind": args.kind, "n": args.n, "k": args.k}
    else:
        if args.s is None:
            raise ValueError("construct hadamard requires --s")
        from .hadamard import _digit_stream

        record, members = _digit_stream(args.k, args.s, args.n)
        results = dict(record)
        params = {"kind": args.kind, "k": args.k, "s": args.s}
        if args.n is not None:
            params["n"] = args.n
    if args.out is None:
        collections.deque(members, maxlen=0)  # built for the build's own checks
    else:
        from .fileio import _write_members

        _write_members(record["k"], record["n"], members, args.out)
        results["out"] = args.out
    return params, results, True


@_json_command
def _cmd_verify(args: argparse.Namespace) -> tuple[dict, dict, bool]:
    from .bounds import check_bounds
    from .fileio import read_permset
    from .subseq import lcs_all_pairs

    s = read_permset(args.path)
    matrix = lcs_all_pairs(s)
    bounds, passed = check_bounds(args.bound, s.n, s.k, matrix.max_pair)
    results = {
        "n": s.n, "k": s.k,
        "pairwise_lcs": [[i + 1, j + 1, v] for i, j, v in matrix.off_diagonal()],
        "max_pair_lcs": matrix.max_pair, "min_pair_lcs": matrix.min_pair,
        "bounds": bounds,
    }
    return {"path": args.path, "bound": args.bound}, results, passed


@_json_command
def _cmd_sample(args: argparse.Namespace) -> tuple[dict, dict, bool]:
    from .bounds import _sample

    lis = args.lis_csv is not None
    check, lis_sample = _sample(args.n, args.k, args.trials, args.seed, lis=lis)
    results = {
        "threshold": check.threshold,
        "max_lcs_distribution": list(check.max_lcs_per_trial),
        "violations": check.violations,
        "min_max_lcs": check.min_max_lcs,
    }
    if lis_sample is not None:
        text = lis_sample.to_csv()  # made in full before the file is opened
        with open(args.lis_csv, "w", encoding="ascii", newline="") as f:
            f.write(text)
        results["lis_csv"] = args.lis_csv
    params = {"n": args.n, "k": args.k, "trials": args.trials, "seed": args.seed}
    return params, results, check.all_below


@_json_command
def _cmd_distance(args: argparse.Namespace) -> tuple[dict, dict, bool]:
    from .codes import code_report
    from .fileio import read_permset

    report = code_report(read_permset(args.path))
    return {"path": args.path}, {"code": report.as_dict()}, True


# -- bench --

_GRID_KEYS = {"algebraic": ("k", "s1"), "hadamard": ("k", "s"), "random": ("n", "k")}


def _parse_grid(spec: str) -> list[tuple[str, dict[str, int]]]:
    head, *parts = spec.split(":")
    if head not in _GRID_KEYS:
        raise ValueError(f"unknown grid construction {head!r}")
    wanted = _GRID_KEYS[head]
    lists: dict[str, list[int]] = {}
    for part in parts:
        key, sep, vals = part.partition("=")
        try:  # a repeated key or a value int() refuses is as bad as an unknown key
            if not sep or key not in wanted or key in lists:
                raise ValueError
            lists[key] = [int(v) for v in vals.split(",") if v]
        except ValueError:
            raise ValueError(f"bad grid component {part!r} for {head}") from None
    if set(lists) != set(wanted) or any(not v for v in lists.values()):
        raise ValueError(f"grid for {head} needs values for {wanted}")
    combos = itertools.product(*(lists[key] for key in wanted))
    return [(head, dict(zip(wanted, combo))) for combo in combos]


@contextlib.contextmanager
def _named_cell(kind: str, cell: dict[str, int]) -> Iterator[None]:
    """Prefix a ValueError raised for one grid cell with the cell's spec."""
    try:
        yield
    except ValueError as exc:
        label = ":".join([kind, *(f"{key}={v}" for key, v in cell.items())])
        raise ValueError(f"{label}: {exc}") from exc


def _cell_order(kind_cell: tuple[str, dict[str, int]]) -> tuple[str, int, int]:
    kind, cell = kind_cell
    with _named_cell(kind, cell):
        return kind, _cell_n(kind, cell), cell["k"]


def _cell_n(kind: str, cell: dict[str, int]) -> int:
    if kind == "algebraic":
        return cell["k"] * cell["k"] * cell["s1"] ** 3
    if kind == "hadamard":
        from .hadamard import digit_ground_set

        return digit_ground_set(cell["k"], cell["s"])
    return cell["n"]


def _bench_row(kind: str, cell: dict[str, int], seed: int, row_idx: int):
    from .bounds import lcs_threshold, random_perm_set, trial_rng
    from .subseq import lcs_all_pairs

    if kind == "algebraic":
        from .algebraic import build_exact

        made = build_exact(_cell_n(kind, cell), cell["k"])
    elif kind == "hadamard":
        from .hadamard import build_hadamard_set

        made = build_hadamard_set(cell["k"], cell["s"])
    else:
        made = random_perm_set(cell["n"], cell["k"], trial_rng(seed, row_idx))
    bound = lcs_threshold(made.n) if kind == "random" else made.params["lcs_bound"]
    return made.n, made.k, lcs_all_pairs(made).max_pair, bound


def _cmd_bench(args: argparse.Namespace) -> bool:
    cells = []
    for spec in args.grid:
        cells.extend(_parse_grid(spec))
    print("construction,n,k,max_lcs,bound,elapsed_ms")
    cells.sort(key=_cell_order)
    passed = True
    for idx, (kind, cell) in enumerate(cells):
        t0 = time.perf_counter()
        with _named_cell(kind, cell):
            n, k, max_lcs, bound = _bench_row(kind, cell, args.seed, idx)
        print(f"{kind},{n},{k},{max_lcs},{bound},{_elapsed_ms(t0, args.timing)}")
        passed &= max_lcs <= bound
    return passed


def build_parser() -> argparse.ArgumentParser:
    from .bounds import BOUND_CHOICES

    parser = argparse.ArgumentParser(
        prog="permlcs",
        description="Construct and verify permutation sets with short pairwise LCS.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a permutation set and write PERMSET v1")
    c.add_argument("kind", choices=("algebraic", "hadamard"))
    c.add_argument("--n", type=int, help="ground-set size (algebraic; optional restriction for hadamard)")
    c.add_argument("--k", type=int, required=True, help="number of permutations")
    c.add_argument("--s", type=int, help="digit base (hadamard only)")
    c.add_argument("--out", help="output PERMSET path")
    c.set_defaults(func=_cmd_construct)

    v = sub.add_parser("verify", help="check LCS bounds of a PERMSET file")
    v.add_argument("path")
    v.add_argument("--bound", choices=BOUND_CHOICES, default="all")
    v.set_defaults(func=_cmd_verify)

    m = sub.add_parser("sample", help="max-pair LCS of seeded random k-sets vs 2e*sqrt(n)")
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--k", type=int, required=True)
    m.add_argument("--trials", type=int, required=True)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--lis-csv", help="also write per-trial LIS lengths as CSV")
    m.set_defaults(func=_cmd_sample)

    d = sub.add_parser("distance", help="deletion-code report of a PERMSET file")
    d.add_argument("path")
    d.set_defaults(func=_cmd_distance)

    b = sub.add_parser("bench", help="max-pair LCS vs bound over a parameter grid (CSV)")
    b.add_argument("--grid", action="append", required=True, metavar="SPEC",
                   help="e.g. algebraic:k=3,4,5:s1=1,2 | hadamard:k=4:s=2,3 | random:n=100:k=3")
    b.add_argument("--seed", type=int, default=0)
    b.set_defaults(func=_cmd_bench)

    # Last on every subcommand, so each usage line ends with it.
    for command in sub.choices.values():
        command.add_argument("--timing", action="store_true", help="report real elapsed times")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return 0 if args.func(args) else 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}".removesuffix(": "), file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
