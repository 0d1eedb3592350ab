"""In-process timing of the sweep kernel, without process start-up or rendering.

Usage (from the root of a source checkout):

    PYTHONPATH=src python3 bench/sweep_kernel.py [--rows 20000] [--repeats 30]

Times cli._run_sweep on a --count ROWS sweep (build the momenta, validate,
compute, assemble the rows; no rendering or write) and, where the package
has it, dispersion.branch_energies on the same (ROWS, 3) momenta.  Prints
one JSON line with the median and quartiles of each, in seconds.  Run it
with OPENBLAS_NUM_THREADS=1 to match the end-to-end benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

from spinorlab import cli, dispersion


def _timings(call, repeats: int) -> dict:
    call()  # warm-up: first-call costs are not the kernel's
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "repeats": repeats}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=20000)
    parser.add_argument("--repeats", type=int, default=30)
    args = parser.parse_args()
    options = {
        "m": 1.0,
        "k": "0.001,-0.002,0.01",
        "scale": None,
        "config": None,
        "p_transverse": "0.3,-0.2",
        "p3_min": -5.0,
        "p3_max": 5.0,
        "count": args.rows,
    }
    report = {
        "rows": args.rows,
        "run_sweep_s": _timings(lambda: cli._run_sweep(options), args.repeats),
    }
    if hasattr(dispersion, "branch_energies"):
        momenta = np.column_stack(
            (np.full(args.rows, 0.3), np.full(args.rows, -0.2), np.linspace(-5.0, 5.0, args.rows))
        )
        k = np.array([0.001, -0.002, 0.01])
        report["branch_energies_s"] = _timings(
            lambda: dispersion.branch_energies(1.0, momenta, k), args.repeats
        )
    print(json.dumps(report))


if __name__ == "__main__":
    main()
