#!/usr/bin/env python3
"""The permlcs benchmark: CLI workloads end to end, or one traced run.

Run from the repository root:

    python3 perfbench/run.py --workload hadamard-roundtrip --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced
    python3 perfbench/run.py --workload random-sample --trace 1

With --trace 0 each workload's CLI commands run as child processes
(`python -m permlcs.cli`, PYTHONPATH=src), one at a time, pass after pass
until --seconds have passed; the end-to-end metrics are medians over passes,
with times scaled to a nominal host speed (see run_end_to_end).
With --trace 1 the same public calls run in process under a span recorder
(traced.py) and the per-layer metrics are printed instead.

Human-readable lines go first; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  The exit code is 0 when
every command and check was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from children import run_child  # noqa: E402  (HERE is on sys.path as the script dir)
from stats import high_percentile, median  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# Every run must end well inside the 180 s a run is allowed.
HARD_LIMIT_S = 165.0
SETUP_REPS = 5
# The time metrics are given at the host speed at which calibrate.py takes
# CALIBRATION_NOMINAL_S and a fresh `import numpy` takes NUMPY_IMPORT_NOMINAL_S;
# see run_end_to_end.
CALIBRATION_NOMINAL_S = 0.5
NUMPY_IMPORT_NOMINAL_S = 0.2
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import permlcs.cli; "
    "t = time.perf_counter() - t0; import json, numpy; "
    "print(json.dumps({'import_s': t, 'numpy': numpy.__version__}))"
)
NUMPY_IMPORT_CODE = "import numpy"


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
    }
    if shutil.which("lscpu"):
        out = subprocess.run(["lscpu"], capture_output=True, text=True, check=False).stdout
        for line in out.splitlines():
            key, _, value = line.partition(":")
            if "cache" in key.lower() or key.strip() == "Model name":
                env[key.strip()] = value.strip()
    return env


class Run:
    """State of one benchmark run: its scratch directory, deadline and the
    tally of attempted and failed operations."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.work = ROOT / ".perfbench_work" / workload
        self.work.mkdir(parents=True, exist_ok=True)
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def child(self, argv):
        return run_child(argv, root=ROOT, scratch=self.work, deadline=self.deadline)

    def setup(self, reps: int) -> tuple[list[float], list[float], list[float], str]:
        """Fresh interpreters that import permlcs.cli, each after one that
        imports only numpy: the walls of both, and the in-child import times."""
        walls, numpy_walls, imports, numpy_version = [], [], [], "?"
        for _ in range(reps):
            ref = self.child(["-c", NUMPY_IMPORT_CODE])
            self.attempted += 1
            if ref.returncode != 0:
                self.fail(f"numpy import exited {ref.returncode}: {ref.stderr[-300:]}")
            else:
                numpy_walls.append(ref.wall_s)
            res = self.child(["-c", SETUP_CODE])
            self.attempted += 1
            try:
                info = json.loads(res.stdout)
            except ValueError:
                info = None
            if res.returncode != 0 or info is None:
                self.fail(f"setup import exited {res.returncode}: {res.stderr[-300:]}")
                continue
            walls.append(res.wall_s)
            imports.append(info["import_s"])
            numpy_version = info["numpy"]
        return walls, numpy_walls, imports, numpy_version

    def calibrate(self) -> list[float]:
        """One run of the fixed calibration job; its wall, or nothing on failure."""
        res = self.child([str(HERE / "calibrate.py")])
        self.attempted += 1
        if res.returncode != 0 or not res.stdout.strip().isdigit():
            self.fail(f"calibration exited {res.returncode}: {res.stderr[-300:]}")
            return []
        return [res.wall_s]

    def cli_pass(self) -> dict:
        """Run the workload's commands once, in order, checking each."""
        walls, rss, digests = {}, [], {}
        for cmd in WORKLOADS[self.workload](self.seed, self.work):
            res = self.child(["-m", "permlcs.cli", *cmd.argv])
            self.attempted += 1
            walls[cmd.name] = res.wall_s
            rss.append(res.peak_rss_mb)
            if res.returncode != 0:
                self.fail(f"{cmd.name} exited {res.returncode}: {res.stderr[-300:]}")
                continue
            try:
                report = json.loads(res.stdout)
            except ValueError:
                self.fail(f"{cmd.name} printed no JSON report")
                continue
            problems, digests[cmd.name] = cmd.check(report, self.seed)
            if problems:
                self.fail(f"{cmd.name}: " + "; ".join(problems))
        return {"walls": walls, "total": sum(walls.values()), "peak_rss_mb": max(rss),
                "digests": digests}

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def clean(self) -> None:
        for pattern in ("*.permset", "*.csv", "child.*"):
            for path in self.work.glob(pattern):
                path.unlink()


def run_end_to_end(run: Run, seconds: float, lines: list[str]) -> dict:
    """Passes of the workload's commands until `seconds` have passed.

    On a VM that shares its host, the host can run the VM slower or faster
    in phases of tens of seconds, by up to a quarter, and every wall in a run
    moves with it.  So the run also times fixed jobs that no change to
    permlcs can speed up or slow down, and scales each time metric by its
    yardstick: `total_s` by CALIBRATION_NOMINAL_S / (median wall of
    calibrate.py, run twice before the window and once before each pass),
    and `setup_s` by NUMPY_IMPORT_NOMINAL_S / (median wall of a fresh
    `import numpy`, run next to every set-up sample).  They read as seconds
    at one fixed host speed; the raw walls are printed too.  Set-up is
    sampled before the window and twice before every pass, so its median
    spans the whole run.
    """
    walls, numpy_walls, _, numpy_version = run.setup(SETUP_REPS)
    lines.append(f"numpy {numpy_version}")
    passes, calibration = [], run.calibrate() + run.calibrate()
    end = time.perf_counter() + seconds
    while True:
        more, more_numpy, _, _ = run.setup(2)
        walls += more
        numpy_walls += more_numpy
        calibration += run.calibrate()
        passes.append(run.cli_pass())
        last = passes[-1]["total"]
        if time.perf_counter() >= end or run.time_left() < 1.5 * last + 5:
            break

    lines.append(f"closed loop, 1 client, {len(passes)} passes in a {seconds:g} s window")
    medians = {}
    for name in passes[0]["walls"]:
        values = [p["walls"][name] for p in passes]
        medians[name] = median(values)
        hi = high_percentile(values)
        hi_txt = f"p{hi[0]} {hi[1]:.4f} s" if hi else "no high percentile (needs 11 samples)"
        lines.append(f"  {name + '_s':<14} {medians[name]:10.4f} s   raw median of {len(values)}, {hi_txt}")
    for name, digest in passes[0]["digests"].items():
        lines.append(f"  digest {name:<10} {digest}")
    lines.append(f"  {'fail_ratio':<14} {run.failed / run.attempted:10.4f}     "
                 f"{run.failed} of {run.attempted} child processes failed")
    # total_s sums per-command medians: each command's interference spikes
    # are filtered on their own before the sum.
    raw_total, raw_setup = sum(medians.values()), median(walls)
    cal, numpy_import = median(calibration), median(numpy_walls)
    scale = CALIBRATION_NOMINAL_S / cal if cal else 0.0
    setup_scale = NUMPY_IMPORT_NOMINAL_S / numpy_import if numpy_import else 0.0
    lines.append(f"  raw total {raw_total:.4f} s; calibration median {cal:.4f} s of "
                 f"{len(calibration)}, scale {scale:.4f}")
    lines.append(f"  raw setup {raw_setup:.4f} s; numpy import median {numpy_import:.4f} s "
                 f"of {len(numpy_walls)}, scale {setup_scale:.4f}")
    lines.append(f"end-to-end metrics (times at the host speed where calibration takes "
                 f"{CALIBRATION_NOMINAL_S} s and importing numpy {NUMPY_IMPORT_NOMINAL_S} s):")
    metrics = {
        "total_s": (raw_total * scale, "s"),
        "peak_rss_mb": (median([p["peak_rss_mb"] for p in passes]), "MB"),
        "setup_s": (raw_setup * setup_scale, "s"),
    }
    return metrics


def run_traced(run: Run, seconds: float, lines: list[str]) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import traced

    _, _, imports, numpy_version = run.setup(3)
    lines.append(f"numpy {numpy_version}")
    cli = run.cli_pass()
    trace_path = run.work / f"trace-seed{run.seed}.jsonl"
    res = traced.traced_run(run.workload, run.seed, seconds, run.work, run.deadline, trace_path)
    run.attempted += res["attempted"]
    run.failed += len(res["problems"])
    run.problems += res["problems"]
    metrics = {"cli.import_s": median(imports),
               "cli.overhead_s": cli["total"] - res["step_s"]}
    metrics.update(res["metrics"])
    lines.append(f"traced passes {res['passes']}, spans written to {trace_path.relative_to(ROOT)}")
    lines.append(f"oracle cross-check: {json.dumps(res['oracle'])}")
    lines.append("self time by span (median over traced passes):")
    for name, v in sorted(res["self_time"].items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:<36} {v:10.4f} s")
    lines.append("per-layer metrics (a layer the workload bypasses reads 0):")
    units = layer_units()
    return {name: (value, units[name]) for name, value in metrics.items()}


def layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> bool:
    run = Run(workload, seed)
    lines = [f"== {workload}  seed {seed}  trace {int(trace)}",
             "env " + json.dumps(env, sort_keys=True)]
    try:
        metrics = (run_traced if trace else run_end_to_end)(run, seconds, lines)
    finally:
        run.clean()
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<36} {value:14.6g} {unit}")
    for p in run.problems:
        lines.append(f"FAILED {p}")
    print("\n".join(lines), flush=True)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }), flush=True)
    return run.failed == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "permlcs" / "cli.py").is_file():
        print(f"error: no permlcs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = [run_workload(name, args.seed, args.seconds, bool(args.trace), env) for name in names]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
