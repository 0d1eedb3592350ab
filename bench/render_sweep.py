"""In-process timing of the sweep report's rendering, and of cli.main around it.

Usage (from the root of a source checkout):

    PYTHONPATH=src python3 bench/render_sweep.py [--rows 4000] [--repeats 30]

Builds the report of a --count ROWS sweep once, then times the CSV and the
JSON renderer on it (text only, no write), and cli.main on the same sweep
in each format with stdout captured in memory (parse, compute, render and
write; no interpreter start-up).  Prints one JSON line with the median and
quartiles of each, in seconds, and the rendered sizes in bytes.  Run it
with OPENBLAS_NUM_THREADS=1 to match the end-to-end benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import time

from spinorlab import cli


def _timings(call, repeats: int) -> dict:
    call()  # warm-up: first-call costs are not the renderer's
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "repeats": repeats}


def _main_quietly(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise SystemExit(f"sweep failed: {argv}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=4000)
    parser.add_argument("--repeats", type=int, default=30)
    args = parser.parse_args()
    argv = [
        "sweep", "--m", "1", "--k", "0.001,-0.002,0.01", "--p-transverse", "0.3,-0.2",
        "--p3-min=-5", "--p3-max", "5", "--count", str(args.rows),
    ]
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
    report = cli._run_sweep(options)
    result = {"rows": args.rows}
    for fmt, render in (("csv", cli._render_csv), ("json", cli._render_json)):
        result[f"render_{fmt}_s"] = _timings(lambda: render(report), args.repeats)
        result[f"render_{fmt}_bytes"] = len(render(report).encode("utf-8"))
        result[f"main_{fmt}_s"] = _timings(
            lambda: _main_quietly([*argv, "--format", fmt]), args.repeats
        )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
