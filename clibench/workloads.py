"""Seeded command mixes for the three benchmark workloads.

A workload is a fixed, ordered list of command classes.  One cycle runs
every class once, in order, so a run interleaves the classes round-robin
instead of running them in blocks.  The seed picks only values (momenta,
fields, lengths, twists, table contents, event lists); sizes and the number
of invocations of each class are constants, so every seed does the same
amount of work.

Each cycle function returns one job per class.  A job holds the argv given
to ``spinorlab``, the output file (or None for stdout), and the inputs the
reference check in ``checks.py`` needs.  Input files are written into the
run's scratch directory before the job is timed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi

# scan: rows per sweep, identical for every seed
SWEEP_ROWS = 4000
# oracle: (sites, structure or None for a seeded twist, format) per ring class
RING_CLASSES = ((1024, "standard", "csv"), (768, "exotic", "json"), (512, None, "csv"))
# oracle: (sites, sections) per map-check class
MAP_CLASSES = ((1024, 20), (512, 10))
# session: table sizes and chain length
COMPOSE_TABLE = 64
ANALYZE_TABLE = 96
CHAIN_EVENTS = 200
SMALL_SITES = 64
SMALL_SECTIONS = 4
SMALL_COUNT = 8

PREFERENCE_LABELS = ("(a,b)", "(ab,.)", "(.,ab)", "(b,a)")
BUILTIN_TABLES = ("z2", "prefer_standard", "prefer_exotic")


@dataclass
class Job:
    cls: str
    kind: str
    fmt: str
    argv: list[str]
    spec: dict
    out: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: Callable[[np.random.Generator, Path], list[Job]]
    # whole cycles every run completes; the tail percentile is fixed by the
    # smallest run this allows (see run.tail_percentile)
    min_cycles: int
    # one set-up sample after this many invocations, spread through the run
    setup_every: int


def num(value: float) -> str:
    return repr(float(value))


def vec(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def signed_uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """Uniform magnitude in [low, high) with a random sign."""
    magnitude = rng.uniform(low, high)
    return float(magnitude if rng.random() < 0.5 else -magnitude)


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _config(tmp: Path, name: str, **values: float) -> str:
    text = "".join(f"{key} = {num(value)}\n" for key, value in values.items())
    return _write(tmp / f"{name}.cfg", text)


# --- scan -----------------------------------------------------------------

# (class name, format, write to --out, read scale from --config)
SCAN_CLASSES = (
    ("sweep-csv-stdout", "csv", False, False),
    ("sweep-csv-out", "csv", True, False),
    ("sweep-csv-config", "csv", False, True),
    ("sweep-json-stdout", "json", False, False),
    ("sweep-json-out", "json", True, False),
)


def scan_cycle(rng: np.random.Generator, tmp: Path) -> list[Job]:
    jobs = []
    for cls, fmt, to_file, with_config in SCAN_CLASSES:
        mass = rng.uniform(0.1, 2.0)
        k = rng.uniform(-0.5, 0.5, 3)
        p_transverse = rng.uniform(-1.0, 1.0, 2)
        low, high = rng.uniform(-5.0, -1.0), rng.uniform(1.0, 5.0)
        argv = [
            "sweep",
            f"--m={num(mass)}",
            f"--k={vec(k)}",
            f"--p-transverse={vec(p_transverse)}",
            f"--p3-min={num(low)}",
            f"--p3-max={num(high)}",
            f"--count={SWEEP_ROWS}",
            f"--format={fmt}",
        ]
        scale = 1.0
        if with_config:
            scale = rng.uniform(0.5, 2.0)
            argv.append(f"--config={_config(tmp, cls, scale=scale)}")
        out = str(tmp / f"{cls}.{fmt}") if to_file else None
        if out:
            argv.append(f"--out={out}")
        spec = {
            "m": mass,
            "k": k.tolist(),
            "p_transverse": p_transverse.tolist(),
            "p3_min": low,
            "p3_max": high,
            "count": SWEEP_ROWS,
            "scale": scale,
        }
        jobs.append(Job(cls, "sweep", fmt, argv, spec, out))
    return jobs


# --- oracle ---------------------------------------------------------------


def _ring_job(rng, cls, sites, structure, fmt, count=None) -> Job:
    length = rng.uniform(1.0, 2.0 * TWO_PI)
    mass = rng.uniform(0.0, 2.0)
    argv = [
        "ring-spectrum",
        f"--sites={sites}",
        f"--length={num(length)}",
        f"--m={num(mass)}",
        f"--format={fmt}",
    ]
    if structure is None:
        # a twist away from the two structures, so no level is degenerate
        twist = signed_uniform(rng, 0.2, math.pi - 0.2)
        argv.append(f"--twist={num(twist)}")
    else:
        twist = 0.0 if structure == "standard" else math.pi
        argv.append(f"--structure={structure}")
    if count is not None:
        argv.append(f"--count={count}")
    spec = {"sites": sites, "length": length, "m": mass, "twist": twist, "count": count}
    return Job(cls, "ring-spectrum", fmt, argv, spec)


def _map_job(rng, cls, sites, sections, fmt, tmp=None, tol=None) -> Job:
    length = rng.uniform(1.0, 2.0 * TWO_PI)
    mass = rng.uniform(0.0, 2.0)
    winding = int(rng.choice([-2, -1, 0, 1, 2]))
    seed = int(rng.integers(0, 2**31))
    argv = [
        "map-check",
        f"--sites={sites}",
        f"--length={num(length)}",
        f"--winding={winding}",
        f"--m={num(mass)}",
        f"--sections={sections}",
        f"--seed={seed}",
        f"--format={fmt}",
    ]
    if tol is not None:
        argv.append(f"--config={_config(tmp, cls, tol=tol)}")
    spec = {
        "sites": sites,
        "length": length,
        "winding": winding,
        "m": mass,
        "sections": sections,
        "seed": seed,
        "tol": 1e-10 if tol is None else tol,
    }
    return Job(cls, "map-check", fmt, argv, spec)


def oracle_cycle(rng: np.random.Generator, tmp: Path) -> list[Job]:
    jobs = []
    for sites, structure, fmt in RING_CLASSES:
        cls = f"ring-{sites}-{structure or 'twist'}"
        jobs.append(_ring_job(rng, cls, sites, structure, fmt))
    for sites, sections in MAP_CLASSES:
        jobs.append(_map_job(rng, f"map-{sites}x{sections}", sites, sections, "json"))
    return jobs


# --- session --------------------------------------------------------------


def planted_table(rng: np.random.Generator, size: int) -> tuple[np.ndarray, int, int]:
    """Random Cayley table with one planted identity and one planted absorber."""
    table = rng.integers(0, size, (size, size))
    identity, absorber = (int(v) for v in rng.choice(size, 2, replace=False))
    table[identity, :] = np.arange(size)
    table[:, identity] = np.arange(size)
    table[absorber, :] = absorber
    table[:, absorber] = absorber
    return table, identity, absorber


def _table_file(rng, tmp: Path, name: str, size: int) -> tuple[str, dict]:
    table, identity, absorber = planted_table(rng, size)
    carrier = [f"g{i}" for i in range(size)]
    text = json.dumps({"name": name, "carrier": carrier, "table": table.tolist()})
    spec = {
        "name": name,
        "carrier": carrier,
        "table": table.tolist(),
        "identity": identity,
        "absorber": absorber,
    }
    return _write(tmp / f"{name}.json", text), spec


def _dispersion_job(rng, tmp, cls, fmt, with_config) -> Job:
    mass = rng.uniform(0.1, 2.0)
    p = rng.uniform(-2.0, 2.0, 3)
    k = rng.uniform(-0.5, 0.5, 3)
    argv = ["dispersion", f"--m={num(mass)}", f"--p={vec(p)}", f"--k={vec(k)}", f"--format={fmt}"]
    scale = 1.0
    if with_config:
        scale = rng.uniform(0.5, 2.0)
        argv.append(f"--config={_config(tmp, cls, scale=scale)}")
    spec = {"m": mass, "p": p.tolist(), "k": k.tolist(), "scale": scale}
    return Job(cls, "dispersion", fmt, argv, spec)


def _preference_job(rng, tmp, cls, fmt, degenerate) -> Job:
    if degenerate:
        # k along the ring and p transverse to it: s*(k.p) is exactly zero
        p = np.array([rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), 0.0])
        k = np.array([0.0, 0.0, signed_uniform(rng, 0.01, 0.5)])
    else:
        p = rng.uniform(-2.0, 2.0, 3)
        k = rng.uniform(-0.5, 0.5, 3)
    argv = ["preference", f"--p={vec(p)}", f"--k={vec(k)}", f"--format={fmt}"]
    tol = None
    if degenerate:
        tol = 1e-9
        argv.append(f"--config={_config(tmp, cls, tol=tol)}")
    spec = {"p": p.tolist(), "k": k.tolist(), "scale": 1.0, "tol": tol}
    return Job(cls, "preference", fmt, argv, spec)


def _chain_job(rng, tmp, cls, fmt) -> Job:
    p = np.array([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), signed_uniform(rng, 0.1, 2.0)])
    k = np.array([0.0, 0.0, signed_uniform(rng, 0.01, 0.5)])
    operands = rng.choice(PREFERENCE_LABELS, CHAIN_EVENTS)
    flips = rng.random(CHAIN_EVENTS) < 0.3
    events = [
        {"operand": str(op), "involute": bool(flip)} for op, flip in zip(operands, flips)
    ]
    initial = str(rng.choice(PREFERENCE_LABELS))
    path = _write(tmp / f"{cls}.events.json", json.dumps(events))
    argv = [
        "algebra",
        "chain",
        f"--events={path}",
        f"--initial={initial}",
        f"--p={vec(p)}",
        f"--k={vec(k)}",
        f"--format={fmt}",
    ]
    spec = {"p": p.tolist(), "k": k.tolist(), "initial": initial, "events": events}
    return Job(cls, "algebra chain", fmt, argv, spec)


def session_cycle(rng: np.random.Generator, tmp: Path) -> list[Job]:
    jobs = [
        _dispersion_job(rng, tmp, "dispersion-csv", "csv", False),
        _dispersion_job(rng, tmp, "dispersion-json-config", "json", True),
        _preference_job(rng, tmp, "preference-json", "json", False),
        _preference_job(rng, tmp, "preference-csv-config", "csv", True),
    ]

    builtin = str(rng.choice(BUILTIN_TABLES))
    labels = ("S", "C") if builtin == "z2" else PREFERENCE_LABELS
    left, right = (str(v) for v in rng.choice(labels, 2))
    jobs.append(
        Job(
            "compose-builtin",
            "algebra compose",
            "json",
            ["algebra", "compose", f"--table={builtin}", left, right],
            {"builtin": builtin, "left": left, "right": right},
        )
    )
    path, table = _table_file(rng, tmp, "compose", COMPOSE_TABLE)
    left, right = (str(v) for v in rng.choice(table["carrier"], 2))
    jobs.append(
        Job(
            "compose-file",
            "algebra compose",
            "json",
            ["algebra", "compose", f"--table-file={path}", left, right],
            {"table": table, "left": left, "right": right},
        )
    )

    builtin = str(rng.choice(BUILTIN_TABLES))
    jobs.append(
        Job(
            "analyze-builtin",
            "algebra analyze",
            "json",
            ["algebra", "analyze", f"--table={builtin}"],
            {"builtin": builtin},
        )
    )
    for fmt in ("json", "csv"):
        path, table = _table_file(rng, tmp, f"analyze-{fmt}", ANALYZE_TABLE)
        jobs.append(
            Job(
                f"analyze-file-{fmt}",
                "algebra analyze",
                fmt,
                ["algebra", "analyze", f"--table-file={path}", f"--format={fmt}"],
                {"table": table},
            )
        )

    jobs.append(_chain_job(rng, tmp, "chain-json", "json"))
    jobs.append(_chain_job(rng, tmp, "chain-csv", "csv"))
    jobs.append(Job("verify", "verify", "json", ["verify"], {}))
    jobs.append(
        _ring_job(rng, "ring-small", SMALL_SITES, str(rng.choice(["standard", "exotic"])), "csv", SMALL_COUNT)
    )
    jobs.append(_map_job(rng, "map-small-config", SMALL_SITES, SMALL_SECTIONS, "json", tmp, 1e-9))
    jobs.append(_map_job(rng, "map-small-csv", SMALL_SITES, SMALL_SECTIONS, "csv"))
    return jobs


WORKLOADS = {
    "scan": Workload("scan", scan_cycle, min_cycles=7, setup_every=4),
    "oracle": Workload("oracle", oracle_cycle, min_cycles=7, setup_every=4),
    "session": Workload("session", session_cycle, min_cycles=7, setup_every=10),
}
