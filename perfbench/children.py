"""Run one CLI child at a time and take its wall time and peak RSS.

The wall time runs from spawn to reap.  Peak RSS is the child's own
`ru_maxrss` as `os.wait4` reports it, so no external `time` tool is needed.
A child that outlives its deadline is killed with SIGKILL from a SIGALRM
handler, which keeps the parent single-threaded.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple, Sequence


class ChildResult(NamedTuple):
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: str


def child_env(root: Path) -> dict[str, str]:
    """The environment every CLI child gets: the package from `src`, and no
    PERMLCS_THREADS, so the CLI uses its default single-threaded sweep."""
    env = {k: v for k, v in os.environ.items() if k not in ("PERMLCS_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(argv: Sequence[str], *, root: Path, scratch: Path, deadline: float) -> ChildResult:
    """Run `python <argv...>` from `root`; `deadline` is a `time.monotonic()` value."""
    out_path, err_path = scratch / "child.stdout", scratch / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=out, stderr=err, env=child_env(root), cwd=root
        )

        def kill(_signum, _frame):
            proc.kill()

        previous = signal.signal(signal.SIGALRM, kill)
        try:
            signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.001))
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        returncode=proc.returncode,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,  # Linux reports KiB
        stdout=out_path.read_bytes(),
        stderr=err_path.read_text(errors="replace"),
    )
