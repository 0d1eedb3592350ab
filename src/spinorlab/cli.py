"""Command line front end.

Subcommands: dispersion, sweep, preference, ring-spectrum, map-check,
algebra (analyze | compose | chain), verify.  Every command returns one
Report, rendered as CSV (parameters echoed as leading comment lines, then
the single-valued fields as one header line and one row, then each table;
floats to 12 significant digits, cells quoted per RFC 4180) or JSON (fixed
key order, round-trip-exact floats, a table as one object per row).  A
table is one list per column from the runner to the renderer, which zips
the columns into rows only as it prints them.  Each runner takes its
command's flags as keyword parameters named by their argparse dests.  Only
the commands that read a --config file take the flag: dispersion, sweep,
preference, map-check and algebra chain; each reads it once, and only when
one of the --scale and --tol flags it takes is missing.
Identical invocations produce byte-identical output; with --timing, the
parse, compute, render and write stages are timed and written to stderr
only, one JSON line each (on exit 3, the stages closed before the refusal).

Exit codes: 0 success / verification passed, 1 verification failed,
2 usage error, 3 domain error (bad input to the mathematics, an
unreadable, unwritable or non-UTF-8 file, or a stdout that is closed or
fails its write and flush, buffered or not).  A closed or unwritable stderr
takes no error or --timing lines and leaves the exit code as it is; --help
and --version ignore a failed write to either stream, as argparse does.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .chains import PREFERENCE_TABLE, ChainEvent, run_chain, select_table
from .dispersion import (
    Branch,
    Structure,
    branch_energies,
    default_degeneracy_tol,
    preferred_branch,
    signed_shift,
)
from .errors import DomainError, as_bool, check_finite, check_non_negative, parse_json
from .lattice import STRUCTURE_TWIST, RingSpec, ring_modes
from .magma import BUILTIN_NAMES, MAX_CARRIER, FiniteMagma, analyze, builtin, compose, from_json
from .sections import map_checks, random_band_limited_section, section_from_json
from .verification import SUITES, run_suite
from .winding import TWO_PI, WindingGradient, build_theta

# the rows one sweep may ask for.  At the cap, with one BLAS thread on a
# 2-core VM, a process takes 3.0 s and 648 MB peak as CSV and 6.6 s and
# 1103 MB as JSON (bench/process.py --sizes 1000000), three quarters of
# the time in render; both grow linearly with the rows.
MAX_SWEEP_ROWS = 1_000_000
# map-check's sites x (sections + 1): its time grows with that product and
# its memory with the sites (~1 KB each).  At the cap, with one BLAS thread
# on a 2-core VM, a process takes 3.1 s and 85 MB peak at 49932 sites x 20
# sections, and 2.7 s and 509 MB at 524288 sites x 1 section
# (bench/process.py --sizes 49932 and 524288, 3 repeats).
MAX_MAP_CHECK_SAMPLES = 1 << 20
# the carrier of a --table-file magma, checked once the file is read and
# before analyze's O(n^3) scan: the most labels analyze takes.  At the cap,
# a process takes 0.18 s and 34 MB peak on the cyclic group of 256 elements
# (analyze 0.03 s of it) and 0.26 s and 40 MB on a random table (analyze
# 0.08 s) (bench/process.py, same machine); the scan grows as n^3.
MAX_TABLE_SIZE = MAX_CARRIER


@dataclass(frozen=True)
class Table:
    """Columns under a header: a CSV block, or in JSON one object per row.

    columns holds one sequence of Python values per header name, all of one
    length (a numpy column goes in as .tolist(): a numpy scalar would print
    as its repr).  Each renderer zips the columns through one %-template
    per table, built from the header and each column's kind (conversions).
    """

    header: tuple[str, ...]
    columns: Sequence[Sequence]

    def conversions(self, float_conversion: str, cell) -> tuple[list[str], list[Sequence]]:
        """Each column's %-conversion and the values that fill it.

        A column of finite floats takes float_conversion and a column of
        ints %d.  Any other column (text, bools, None, nested data,
        non-finite floats or mixed kinds) is rendered value by value by
        cell and taken by %s.
        """
        conversions, columns = [], []
        for column in self.columns:
            kinds = set(map(type, column))
            if kinds == {float} and all(map(math.isfinite, column)):
                conversions.append(float_conversion)
            elif kinds == {int}:
                conversions.append("%d")
            else:
                column = list(map(cell, column))
                conversions.append("%s")
            columns.append(column)
        return conversions, columns


@dataclass(frozen=True)
class Report:
    """What a command returns: echoed parameters and its ordered output fields.

    A field is a scalar, a Table, or nested JSON data.  csv_table, where
    set, is the whole CSV body in place of the fields.
    """

    command: str
    parameters: dict
    fields: dict
    exit_code: int = 0
    csv_table: Table | None = None


def _fmt12(value) -> str:
    """A parameter comment value: a float to 12 digits, a line break as a JSON string."""
    if isinstance(value, float):
        return f"{value:.12g}"
    text = str(value)
    if "\n" in text or "\r" in text:
        return json.dumps(text, ensure_ascii=False)
    return text


def _cell(value) -> str:
    """One CSV cell, quoted (RFC 4180) when it holds a comma, quote or newline.

    A float prints to 12 significant digits, a string as it is, and any
    other value (bool, None, list, dict) as compact JSON.
    """
    if isinstance(value, float):
        return f"{value:.12g}"
    if type(value) is int:
        return str(value)
    text = value if isinstance(value, str) else json.dumps(
        value, ensure_ascii=False, separators=(",", ":")
    )
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _json_value(value, indent: str) -> str:
    """value as json.dumps(indent=2) prints it nested at the given indent."""
    return json.dumps(value, indent=2, ensure_ascii=False).replace("\n", "\n" + indent)


def _render_csv(report: Report) -> str:
    # every line ends in a newline and the pieces are joined once
    pieces = [f"# {key} = {_fmt12(value)}\n" for key, value in report.parameters.items()]
    tables = [report.csv_table]
    if report.csv_table is None:
        tables = [value for value in report.fields.values() if isinstance(value, Table)]
        single = {
            key: value for key, value in report.fields.items() if not isinstance(value, Table)
        }
        if single:
            tables.insert(0, Table(tuple(single), [[value] for value in single.values()]))
    for table in tables:
        pieces.append(",".join(map(_cell, table.header)) + "\n")
        conversions, columns = table.conversions("%.12g", _cell)
        template = ",".join(conversions) + "\n"
        pieces.extend(map(template.__mod__, zip(*columns)))
    return "".join(pieces)


def _json_table(table: Table) -> list[str]:
    """A table as json.dumps(indent=2) prints a list of row objects at depth 1."""
    if not table.columns[0]:
        return ["[]"]
    # %r is the float repr that json uses, exact for the finite floats that
    # conversions() lets through; every row carries its leading separator
    conversions, columns = table.conversions("%r", lambda value: _json_value(value, " " * 6))
    template = ",\n    {%s\n    }" % ",".join(
        "\n      %s: %s" % (json.dumps(key, ensure_ascii=False).replace("%", "%%"), conversion)
        for key, conversion in zip(table.header, conversions)
    )
    rows = list(map(template.__mod__, zip(*columns)))
    rows[0] = rows[0][1:]
    return ["[", *rows, "\n  ]"]


def _render_json(report: Report) -> str:
    document = {"command": report.command, "parameters": report.parameters, **report.fields}
    pieces = []
    for key, value in document.items():
        pieces.append(",\n  " if pieces else "{\n  ")
        pieces.append(json.dumps(key, ensure_ascii=False) + ": ")
        if isinstance(value, Table):
            pieces.extend(_json_table(value))
        else:
            pieces.append(_json_value(value, "  "))
    pieces.append("\n}\n")
    return "".join(pieces)


def emit(report: Report, fmt: str, destination: str | None, mark) -> None:
    """Render a report and write it to a file or stdout.

    mark is called with "render" once the text is rendered and with "write"
    once it is written.
    """
    rendered = {"csv": _render_csv, "json": _render_json}[fmt](report)
    mark("render")
    if destination is None or destination == "-":
        if sys.stdout is None:
            raise DomainError("cannot write stdout: it is closed")
        sys.stdout.write(rendered)
        sys.stdout.flush()
    else:
        try:
            Path(destination).write_text(rendered)
        except OSError as exc:
            raise DomainError(f"cannot write --out: {exc}") from None
    mark("write")


def _parse_vector(text: str, dims: int, flag: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != dims:
        raise DomainError(f"{flag} expects {dims} comma-separated numbers, got {text!r}")
    try:
        return np.array([float(part) for part in parts])
    except ValueError:
        raise DomainError(f"{flag} expects numbers, got {text!r}") from None


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of a file; one that cannot be read is a DomainError naming what."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {what}: {exc}") from None


def _load_config(path: str | None) -> dict[str, float]:
    """Read 'key = value' lines; keys: scale, tol."""
    if path is None:
        return {}
    text = _read_text(path, f"config {path!r}")
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line {lineno} is not 'key = value': {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in ("scale", "tol"):
            raise DomainError(f"config line {lineno}: unknown key {key!r}")
        try:
            values[key] = float(value.strip())
        except ValueError:
            raise DomainError(f"config line {lineno}: bad number {value.strip()!r}") from None
    return values


def _resolve(config: str | None, **flags) -> list:
    """Each flag, else its config file value, else its default: scale 1, tol None.

    The file is read once, and only when a flag is missing.
    """
    if None not in flags.values():
        return list(flags.values())
    values = {"scale": 1.0, "tol": None, **_load_config(config)}
    return [values[key] if flag is None else flag for key, flag in flags.items()]


def _field(k: str, scale: float | None, config: str | None) -> WindingGradient:
    gradient = _parse_vector(k, 3, "--k")
    (scale,) = _resolve(config, scale=scale)
    return WindingGradient(k=gradient, scale=scale)


def _preference_inputs(p, k, scale, tol, config) -> tuple[np.ndarray, WindingGradient, float]:
    """--p, the field and the degeneracy tol: flag, then config, then the default."""
    momentum = _parse_vector(p, 3, "--p")
    gradient = _parse_vector(k, 3, "--k")
    # a --scale is checked with k before the file is read for the tol alone
    field = None if scale is None else WindingGradient(k=gradient, scale=scale)
    scale, tol = _resolve(config, scale=scale, tol=tol)
    field = field or WindingGradient(k=gradient, scale=scale)
    if tol is None:
        tol = default_degeneracy_tol(momentum)
    return momentum, field, tol


def _run_dispersion(m, p, k, scale, formula, config) -> Report:
    momentum = _parse_vector(p, 3, "--p")
    field = _field(k, scale, config)
    parameters = {
        "m": m,
        "p": p,
        "k": k,
        "scale": field.scale,
        "formula": formula,
    }
    e = branch_energies(m, momentum[None, :], field.k, field.scale, formula)
    # per formula: standard, plus and minus branch energies, then the gap
    results = {
        "semiclassical": (e.rest, e.semiclassical_plus, e.semiclassical_minus, e.signed_shift),
        "exact": (e.exact_standard, e.exact_plus, e.exact_minus, e.gap_exact),
    }
    chosen = {
        name: [float(column[0]) for column in columns]
        for name, columns in results.items()
        if formula in (name, "both")
    }
    branches = {
        branch.value: {name: values[i] for name, values in chosen.items()}
        for i, branch in enumerate(Branch)
    }
    gaps = {name: values[3] for name, values in chosen.items()}
    # CSV shows the branches as a table rather than the two nested dicts
    header = ("branch", *(f"e_{name}" for name in chosen))
    table = Table(header, [list(branches), *(values[:3] for values in chosen.values())])
    return Report("dispersion", parameters, {"branches": branches, "gaps": gaps}, csv_table=table)


def _run_sweep(m, k, p_transverse, p3_min, p3_max, count, scale, config) -> Report:
    field = _field(k, scale, config)
    transverse = _parse_vector(p_transverse, 2, "--p-transverse")
    check_non_negative("--count", count)
    if count > MAX_SWEEP_ROWS:
        raise DomainError(f"--count {count} is over the limit {MAX_SWEEP_ROWS}")
    check_finite("momentum", transverse, p3_min, p3_max)
    if not math.isfinite(p3_max - p3_min):
        raise DomainError("--p3-max - --p3-min overflows float64")
    parameters = {
        "m": m,
        "k": k,
        "scale": field.scale,
        "p_transverse": p_transverse,
        "p3_min": p3_min,
        "p3_max": p3_max,
        "count": count,
    }
    p3 = np.linspace(p3_min, p3_max, count)
    momenta = np.column_stack(
        (np.full(count, transverse[0]), np.full(count, transverse[1]), p3)
    )
    energies = branch_energies(m, momenta, field.k, field.scale)
    columns = {
        "p3": p3,
        "e_plus_semiclassical": energies.semiclassical_plus,
        "e_minus_semiclassical": energies.semiclassical_minus,
        "e_plus_exact": energies.exact_plus,
        "e_minus_exact": energies.exact_minus,
        "gap_semiclassical": energies.signed_shift,
        "gap_exact": energies.gap_exact,
    }
    table = Table(tuple(columns), [column.tolist() for column in columns.values()])
    return Report("sweep", parameters, {"rows": table})


def _run_preference(p, k, scale, tol, config) -> Report:
    momentum, field, tol = _preference_inputs(p, k, scale, tol, config)
    preference = preferred_branch(field, momentum, tol)
    parameters = {
        "p": p,
        "k": k,
        "scale": field.scale,
        "tol": tol,
    }
    fields = {
        "signed_shift": signed_shift(field, momentum),
        "preference": preference.value,
        "table": PREFERENCE_TABLE[preference],
    }
    return Report("preference", parameters, fields)


def _run_ring_spectrum(sites, length, m, twist, structure, count) -> Report:
    if twist is not None and structure is not None:
        raise DomainError("give either --twist or --structure, not both")
    if twist is None:
        # --structure defaults to None so that the check above sees it unset
        twist = STRUCTURE_TWIST[Structure(structure or "standard")]
    if count is not None:
        check_non_negative("--count", count)
    spec = RingSpec(sites=sites, circumference=length, twist=twist, mass=m)
    columns = [column[:count].tolist() for column in ring_modes(spec)]
    parameters = {
        "sites": sites,
        "length": length,
        "twist": twist,
        "m": m,
        "count": len(columns[0]),
    }
    header = ("n", "e_n", "energy", "multiplicity")
    return Report("ring-spectrum", parameters, {"rows": Table(header, columns)})


def _run_map_check(
    sites, length, winding, m, sections, seed, scale, tol, section_file, config
) -> Report:
    check_non_negative("--sections", sections)
    check_non_negative("--seed", seed)
    if sites * (sections + 1) > MAX_MAP_CHECK_SAMPLES:
        raise DomainError(
            f"--sites x (--sections + 1) = {sites * (sections + 1)} is over the limit "
            f"{MAX_MAP_CHECK_SAMPLES}"
        )
    scale, tol = _resolve(config, scale=scale, tol=tol)

    theta = build_theta(sites, length, winding)
    rng = np.random.default_rng(seed)
    given = []
    if section_file:
        given.append(section_from_json(_read_text(section_file, "section file")))
    count = len(given) + sections
    if not count:
        raise DomainError("nothing to check: no sections requested")
    # one section alive at a time: the file's, then the seeded draws in order
    drawn = (random_band_limited_section(sites, length, rng) for _ in range(sections))

    checks = map_checks(itertools.chain(given, drawn), theta, m, scale, harmonic=1, tol=tol)
    residuals = {key: value for key, value, _ in checks}
    kernel = residuals.pop("kernel_residual"), residuals.pop("mapped_kernel_residual")
    passed = all(value <= bound for _, value, bound in checks)
    parameters = {
        "sites": sites,
        "length": length,
        "winding": winding,
        "m": m,
        "scale": scale,
        # the intertwining bound is the tol itself
        "tol": checks[0][2],
        "sections": count,
        "seed": seed,
    }
    fields = {
        "residuals": residuals,
        "kernel_residual": kernel[0],
        "mapped_kernel_residual": kernel[1],
        "passed": passed,
    }
    return Report("map-check", parameters, fields, exit_code=0 if passed else 1)


def _magma(table: str | None, table_file: str | None) -> FiniteMagma:
    if (table is None) == (table_file is None):
        raise DomainError("give exactly one of --table or --table-file")
    if table is not None:
        return builtin(table)
    magma_obj = from_json(_read_text(table_file, "table file"))
    if len(magma_obj.carrier) > MAX_TABLE_SIZE:
        raise DomainError(
            f"--table-file carrier of {len(magma_obj.carrier)} labels is over the limit "
            f"{MAX_TABLE_SIZE}"
        )
    return magma_obj


def _run_algebra_analyze(table, table_file) -> Report:
    magma_obj = _magma(table, table_file)
    # the magma's fields, then the structure report's, each in declared
    # order; tuples render as JSON arrays in both formats
    fields = {**vars(magma_obj), **vars(analyze(magma_obj))}
    return Report("algebra analyze", {"table": magma_obj.name}, fields)


def _run_algebra_compose(table, table_file, left, right) -> Report:
    magma_obj = _magma(table, table_file)
    result = compose(magma_obj, left, right)
    fields = {"left": left, "right": right, "result": result}
    return Report("algebra compose", {"table": magma_obj.name}, fields)


def _run_algebra_chain(events, initial, p, k, scale, tol, config) -> Report:
    momentum, field, tol = _preference_inputs(p, k, scale, tol, config)
    table = select_table(field, momentum, tol)
    raw = parse_json(_read_text(events, "events file"), "events")
    if not isinstance(raw, list):
        raise DomainError("events JSON must be a list of {operand, involute} objects")
    chain = []
    for item in raw:
        if not isinstance(item, dict) or "operand" not in item:
            raise DomainError("each event needs an 'operand' key")
        if not isinstance(item["operand"], str):
            raise DomainError("event operand must be a string")
        involute_first = as_bool("involute", item.get("involute", False))
        chain.append(ChainEvent(item["operand"], involute_first))
    final, trace = run_chain(initial, chain, table)
    parameters = {
        "p": p,
        "k": k,
        "scale": field.scale,
        "tol": tol,
        "initial": initial,
        "events": events,
    }
    header = ("step", "table", "state")  # ChainStep's fields
    fields = {
        "initial_table": table,
        "final": final,
        "trace": Table(header, [[getattr(step, key) for step in trace] for key in header]),
    }
    return Report("algebra chain", parameters, fields)


def _run_verify(suite) -> Report:
    names, values, bounds = map(list, zip(*run_suite(suite)))
    margins = [bound - value for value, bound in zip(values, bounds)]
    passed = [value <= bound for value, bound in zip(values, bounds)]
    failed = passed.count(False)
    header = ("name", "value", "bound", "margin", "passed")
    fields = {"checks": Table(header, [names, values, bounds, margins, passed]), "failed": failed}
    return Report("verify", {"suite": suite}, fields, exit_code=0 if failed == 0 else 1)


def run_command(run: Callable[..., Report], flags: dict) -> Report:
    """The Report of the runner build_parser names for the command, on its flags."""
    return run(**flags)


def _add_momentum_field(parser: argparse.ArgumentParser, tol: bool) -> None:
    """--p, --k and --scale, then --tol where the command takes one."""
    parser.add_argument("--p", required=True, help="momentum as x,y,z")
    parser.add_argument("--k", required=True, help="winding gradient as x,y,z")
    parser.add_argument("--scale", type=float, default=None)
    if tol:
        parser.add_argument("--tol", type=float, default=None)


def _add_common(parser: argparse.ArgumentParser, default_format: str, run, config=False) -> None:
    """The output flags, the runner its flags go to, and --config if the runner reads it."""
    parser.set_defaults(run=run)
    parser.add_argument("--format", choices=("csv", "json"), default=default_format)
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    if config:
        parser.add_argument("--config", default=None, help="key = value file for scale/tol")
    parser.add_argument(
        "--timing", action="store_true", help="write per-stage spans to stderr as JSON lines"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinorlab",
        description="Ring spinor structures: dispersion splitting, spectral checks, "
        "composition tables.",
    )
    parser.add_argument("--version", action="version", version=f"spinorlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dispersion", help="branch energies at one momentum")
    p.add_argument("--m", type=float, required=True)
    _add_momentum_field(p, tol=False)
    p.add_argument("--formula", choices=("semiclassical", "exact", "both"), default="both")
    _add_common(p, "csv", _run_dispersion, config=True)

    p = sub.add_parser("sweep", help="branch energies over a ring-momentum range")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--k", required=True, help="winding gradient as x,y,z")
    p.add_argument("--p-transverse", dest="p_transverse", default="0,0", help="px,py")
    p.add_argument("--p3-min", dest="p3_min", type=float, required=True)
    p.add_argument("--p3-max", dest="p3_max", type=float, required=True)
    p.add_argument("--count", type=int, required=True, help="number of sample points")
    p.add_argument("--scale", type=float, default=None)
    _add_common(p, "csv", _run_sweep, config=True)

    p = sub.add_parser("preference", help="which branch the field sign prefers")
    _add_momentum_field(p, tol=True)
    _add_common(p, "json", _run_preference, config=True)

    p = sub.add_parser("ring-spectrum", help="twisted ring levels and multiplicities")
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--length", type=float, required=True)
    p.add_argument("--m", type=float, default=0.0)
    p.add_argument("--twist", type=float, default=None)
    p.add_argument("--structure", choices=("standard", "exotic"), default=None)
    p.add_argument("--count", type=int, default=None, help="emit only this many rows")
    _add_common(p, "csv", _run_ring_spectrum)

    p = sub.add_parser("map-check", help="residuals of the half-phase operator identities")
    p.add_argument("--sites", type=int, default=64)
    p.add_argument("--length", type=float, default=TWO_PI)
    p.add_argument("--winding", type=int, default=1)
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--sections", type=int, default=20)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--section-file", dest="section_file", default=None)
    _add_common(p, "json", _run_map_check, config=True)

    algebra = sub.add_parser("algebra", help="finite composition tables")
    algebra_sub = algebra.add_subparsers(dest="subcommand", required=True)

    p = algebra_sub.add_parser("analyze", help="exhaustive structure report")
    p.add_argument("--table", choices=BUILTIN_NAMES, default=None)
    p.add_argument("--table-file", dest="table_file", default=None, help="magma JSON file")
    _add_common(p, "json", _run_algebra_analyze)

    p = algebra_sub.add_parser("compose", help="one table lookup")
    p.add_argument("--table", choices=BUILTIN_NAMES, default=None)
    p.add_argument("--table-file", dest="table_file", default=None)
    p.add_argument("left")
    p.add_argument("right")
    _add_common(p, "json", _run_algebra_compose)

    p = algebra_sub.add_parser("chain", help="evaluate an event chain")
    p.add_argument("--events", required=True, help="JSON list of {operand, involute}")
    p.add_argument("--initial", required=True)
    _add_momentum_field(p, tol=True)
    _add_common(p, "json", _run_algebra_chain, config=True)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--suite", choices=("all", *SUITES), default="all")
    _add_common(p, "json", _run_verify)
    return parser


class _Stages:
    """Consecutive stage spans of one invocation, timed from its start."""

    def __init__(self):
        self.started = self.last = time.perf_counter()
        self.spans: list[tuple[str, float, float]] = []

    def mark(self, stage: str) -> None:
        """Close the stage that ran since the previous mark."""
        now = time.perf_counter()
        self.spans.append((stage, self.last - self.started, now - self.last))
        self.last = now

    def lines(self) -> str:
        return "".join(
            f'{{"stage": "{stage}", "start_s": {start:.6f}, "duration_s": {duration:.6f}}}\n'
            for stage, start, duration in self.spans
        )


def _to_stderr(text: str) -> None:
    """Write text to stderr; a closed or unwritable stderr takes nothing.

    The exit code is the same either way.
    """
    if sys.stderr is not None:
        try:
            sys.stderr.write(text)
            sys.stderr.flush()
        except OSError:
            pass


def main(argv: list[str] | None = None) -> int:
    stages = _Stages()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse's help, version and usage output; as its _print_message
        # does, a closed or unwritable stream is ignored
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except (AttributeError, OSError):
                pass
        return exc.code if isinstance(exc.code, int) else 2
    # the runner's flags: all but the runner, the output flags and the subparser names
    skip = ("run", "format", "out", "timing", "command", "subcommand")
    flags = {key: value for key, value in vars(args).items() if key not in skip}
    stages.mark("parse")
    try:
        report = run_command(args.run, flags)
        stages.mark("compute")
        emit(report, args.format, args.out, stages.mark)
    except (DomainError, OSError) as exc:
        _to_stderr(f"error: {exc}\n")
        code = 3
    else:
        code = report.exit_code
    # also on exit 3: the spans closed before the refusal
    if args.timing:
        _to_stderr(stages.lines())
    return code


def console_main() -> None:
    """The console script: os._exit(main()), with no teardown or atexit handlers.

    main() flushes what it writes, and teardown with numpy loaded costs ~20 ms.
    """
    os._exit(main())


if __name__ == "__main__":
    console_main()
