"""Wall time, peak RSS and the --timing spans of `spinorlab` processes, per size.

Usage (from the root of a source checkout):

    python3 bench/process.py [--src src] [--sizes A,B,...] [--repeats 3] -- ARGV...

For each size, replaces {size} in ARGV and runs `spinorlab ARGV --timing --out
TMP` in a fresh interpreter (without --sizes, ARGV as given, under size ""),
with the package imported from --src (so a second checkout's tree can be
timed the same way), PYTHON* variables stripped and one BLAS thread.  One
untimed run per size warms the page cache and bytecode.  Each run is timed
from spawn to exit, and its peak resident set comes from the kernel's
accounting of that child; this launcher imports no numpy, so that figure is
the child's own memory, not an inherited high-water mark.  A run that exits
non-zero stops the tool with its stderr.

Prints one JSON line: per size, the median and quartiles of wall_s,
peak_rss_mb and the seconds of each span that --timing printed (parse_s,
compute_s, render_s and write_s; a span printed more than once in a run is
summed), and the output's bytes.  For example:

    python3 bench/process.py --sizes 512,1024 -- ring-spectrum --sites {size} \\
        --length 2 --twist 1.1 --m 0.5
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


def _run(argv: list[str], env: dict) -> dict[str, float]:
    """wall_s, peak_rss_mb and each --timing span of one child running the CLI on argv."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-c", BOOT, *argv],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    with child.stderr:
        stderr = child.stderr.read()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit(f"spinorlab {' '.join(argv)} exited {code}:\n{stderr}")
    sample = {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0}  # ru_maxrss is in KiB
    for line in stderr.splitlines():
        span = json.loads(line)
        key = f"{span['stage']}_s"
        sample[key] = sample.get(key, 0.0) + span["duration_s"]
    return sample


def _quartiles(samples: list[float]) -> dict:
    if len(samples) == 1:
        return {"median": samples[0], "q1": samples[0], "q3": samples[0]}
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src", help="directory that holds the spinorlab package")
    parser.add_argument("--sizes", default="", help="comma-separated values for {size} in ARGV")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("argv", nargs="+", help="the spinorlab command line, after --")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env.update(THREADS, PYTHONPATH=str(Path(args.src).resolve()))
    result = {"src": args.src, "argv": args.argv, "repeats": args.repeats, "sizes": {}}
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "report"
        for size in args.sizes.split(","):
            argv = [arg.replace("{size}", size) for arg in args.argv]
            argv += ["--timing", "--out", str(out)]
            _run(argv, env)  # warm-up: page cache and bytecode
            samples = [_run(argv, env) for _ in range(args.repeats)]
            measured = {key: _quartiles([s[key] for s in samples]) for key in samples[0]}
            result["sizes"][size] = {**measured, "bytes": out.stat().st_size}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
