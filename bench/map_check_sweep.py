"""Seeded map-check draws, to compare two checkouts' exits, stderr and verdicts.

Usage (from the root of a source checkout):

    python3 bench/map_check_sweep.py dump OUT.json [--src src] [--draws 400] [--seed 2026]
    python3 bench/map_check_sweep.py compare BEFORE.json AFTER.json

dump imports the package from --src (so a second checkout's tree can be run
the same way) and calls `spinorlab.cli.main` in process on each drawn argv:
N from 8 to 1024, L log-uniform in 1e-3..1e15, m up to 1e150, scale in
{1, 0.5, 3}, winding -3..3, up to 3 sections, and on 30% of draws a --tol.
It records the exit code, stderr, and every (key, value, bound) that
map_checks returned.  compare prints how many draws differ in exit code,
stderr or the side of its bound that any residual sits on (exit 1 if any
do), and how many residual values moved, by at most how many ulps.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import sys


def _argv(rng: random.Random) -> list[str]:
    sites = rng.choice([8, 12, 16, 32, 64, 100, 128, 256, 512, 1024])
    mass = rng.choice([0.0, 1.0, 10 ** rng.uniform(-10, 150), 10 ** rng.uniform(-10, 10)])
    argv = [
        "map-check",
        f"--sites={sites}",
        f"--length={10 ** rng.uniform(-3, 15)!r}",
        f"--m={mass!r}",
        f"--scale={rng.choice([1.0, 0.5, 3.0])!r}",
        f"--winding={rng.randint(-3, 3)}",
        f"--sections={rng.randint(0, 3 if sites <= 256 else 1)}",
        f"--seed={rng.randint(0, 99)}",
        "--format=json",
    ]
    if rng.random() < 0.3:
        argv.append(f"--tol={10 ** rng.uniform(-16, 2)!r}")
    return argv


def dump(path: str, src: str, draws: int, seed: int) -> None:
    sys.path.insert(0, src)
    from spinorlab import cli

    shared = cli.map_checks
    recorded: list[list] = []

    def recording(*args, **kwargs):
        checks = shared(*args, **kwargs)
        recorded.append([list(check) for check in checks])
        return checks

    cli.map_checks = recording
    rng = random.Random(seed)
    rows = []
    for _ in range(draws):
        argv = _argv(rng)
        recorded.clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        checks = recorded[0] if recorded else []
        rows.append({"argv": argv, "code": code, "stderr": err.getvalue(), "checks": checks})
    with open(path, "w") as handle:
        json.dump(rows, handle)


def compare(before_path: str, after_path: str) -> int:
    with open(before_path) as handle:
        before = json.load(handle)
    with open(after_path) as handle:
        after = json.load(handle)
    differ = moved = compared = 0
    worst_ulps = 0.0
    for old, new in zip(before, after, strict=True):
        verdicts = [[key, value <= bound] for key, value, bound in old["checks"]]
        if (old["code"], old["stderr"], verdicts) != (
            new["code"],
            new["stderr"],
            [[key, value <= bound] for key, value, bound in new["checks"]],
        ):
            differ += 1
            print("differs:", " ".join(old["argv"]))
        for (_, a, _), (_, b, _) in zip(old["checks"], new["checks"]):
            compared += 1
            if a != b:
                moved += 1
                worst_ulps = max(worst_ulps, abs(a - b) / math.ulp(max(a, b)))
    codes = {code: sum(row["code"] == code for row in before) for code in (0, 1, 3)}
    print(f"draws {len(before)}, exits {codes}, differing draws {differ}")
    print(f"residuals moved {moved} of {compared}, by at most {worst_ulps:.3g} ulps")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("dump")
    p.add_argument("out")
    p.add_argument("--src", default="src")
    p.add_argument("--draws", type=int, default=400)
    p.add_argument("--seed", type=int, default=2026)
    p = sub.add_parser("compare")
    p.add_argument("before")
    p.add_argument("after")
    args = parser.parse_args()
    if args.mode == "dump":
        dump(args.out, args.src, args.draws, args.seed)
        return 0
    return compare(args.before, args.after)


if __name__ == "__main__":
    sys.exit(main())
