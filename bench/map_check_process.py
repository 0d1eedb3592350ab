"""Wall time and peak RSS of one `spinorlab map-check` process, per ring size.

Usage (from the root of a source checkout):

    python3 bench/map_check_process.py [--src src] [--sites 4096,16384,65536]
        [--sections 20] [--repeats 3]

Runs `map-check --sites N --sections S` (its defaults: winding 1, length
2*pi, m 1, seed 7) in a fresh interpreter for each size, writing the report
to a temporary --out file, with the package imported from --src (so a second
checkout's tree can be timed the same way).  Each run is timed from spawn to
exit, and its peak resident set comes from the kernel's accounting of that
child.  Children run with one BLAS thread, as in bench/sweep_process.py.
One untimed run of the smallest size warms the page cache and bytecode.
Prints one JSON line: per size, the median and quartiles of the wall time
in seconds and of the peak RSS in MB.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from sweep_process import THREADS, _quartiles, _run  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src", help="directory that holds the spinorlab package")
    parser.add_argument("--sites", default="4096,16384,65536")
    parser.add_argument("--sections", type=int, default=20)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env.update(THREADS, PYTHONPATH=str(Path(args.src).resolve()))
    sizes = [int(sites) for sites in args.sites.split(",")]
    check = ["map-check", "--sections", str(args.sections)]
    result = {"src": args.src, "sections": args.sections, "repeats": args.repeats}
    with tempfile.TemporaryDirectory() as scratch:
        out = ["--out", str(Path(scratch) / "report")]
        _run([*check, "--sites", str(min(sizes)), *out], env)  # warm-up: page cache and bytecode
        for sites in sizes:
            argv = [*check, "--sites", str(sites), *out]
            walls, peaks = zip(*(_run(argv, env) for _ in range(args.repeats)))
            result[f"sites_{sites}"] = {
                "wall_s": _quartiles(list(walls)),
                "peak_rss_mb": _quartiles(list(peaks)),
            }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
