"""Wall time and peak RSS of one `spinorlab sweep` process, per size and format.

Usage (from the root of a source checkout):

    python3 bench/sweep_process.py [--src src] [--rows 4000,100000,1000000] [--repeats 5]

Runs `sweep --count ROWS` in a fresh interpreter for each size, in CSV and
in JSON, writing the report to a temporary --out file, with the package
imported from --src (so a second checkout's tree can be timed the same
way).  Each run is timed from spawn to exit, and its peak resident set
comes from the kernel's accounting of that child.  Children run with one
BLAS thread.  Prints one JSON line: per size and format, the median and
quartiles of the wall time in seconds and of the peak RSS in MB, and the
output size in bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BOOT = "from spinorlab.cli import console_main; console_main()"
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SWEEP = ["sweep", "--m", "1", "--k", "0.001,-0.002,0.01", "--p-transverse", "0.3,-0.2",
         "--p3-min=-5", "--p3-max", "5"]


def _run(argv: list[str], env: dict) -> tuple[float, float]:
    """(wall seconds, peak RSS in MB) of one child running the CLI on argv."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", BOOT, *argv], env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"{argv[0]} failed: {argv}")
    return wall, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _quartiles(samples: list[float]) -> dict:
    if len(samples) == 1:
        return {"median": samples[0], "q1": samples[0], "q3": samples[0]}
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src", help="directory that holds the spinorlab package")
    parser.add_argument("--rows", default="4000,100000,1000000")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env.update(THREADS, PYTHONPATH=str(Path(args.src).resolve()))
    result = {"src": args.src, "repeats": args.repeats}
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "report"
        for rows in map(int, args.rows.split(",")):
            for fmt in ("csv", "json"):
                argv = [*SWEEP, "--count", str(rows), "--format", fmt, "--out", str(out)]
                _run(argv, env)  # warm-up: page cache and bytecode
                walls, peaks = zip(*(_run(argv, env) for _ in range(args.repeats)))
                result[f"{fmt}_{rows}"] = {
                    "wall_s": _quartiles(list(walls)),
                    "peak_rss_mb": _quartiles(list(peaks)),
                    "bytes": out.stat().st_size,
                }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
