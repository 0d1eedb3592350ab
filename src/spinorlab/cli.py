"""Command line front end.

Subcommands: dispersion, sweep, preference, ring-spectrum, map-check,
algebra (analyze | compose | chain), verify.  Every command returns one
Report, rendered as CSV (parameters echoed as leading comment lines, then
the single-valued fields as one header line and one row, then each table;
floats to 12 significant digits, cells quoted per RFC 4180) or JSON (fixed
key order, round-trip-exact floats, a table as one object per row).
Identical invocations produce byte-identical output; wall time is measured
but only ever printed to stderr, and only with --timing.

Exit codes: 0 success / verification passed, 1 verification failed,
2 usage error, 3 domain error (bad input to the mathematics or an
unreadable/unwritable file).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .chains import ChainEvent, build_context, run_chain, select_table
from .dispersion import (
    Branch,
    Structure,
    branch_energies,
    default_degeneracy_tol,
    preferred_branch,
    signed_shift,
)
from .errors import DomainError
from .lattice import STRUCTURE_TWIST, RingSpec, _group_levels, mode_indices, ring_spectrum
from .magma import BUILTIN_NAMES, FiniteMagma, analyze, builtin, compose, from_json
from .sections import map_checks, random_band_limited_section, section_from_json
from .verification import SUITES, run_suite
from .winding import TWO_PI, WindingGradient, build_theta


@dataclass(frozen=True)
class Table:
    """Rows under a header: a CSV block, or in JSON one object per row."""

    header: tuple[str, ...]
    rows: Sequence[Sequence]


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


def _render_csv(report: Report) -> str:
    lines = [f"# {key} = {_fmt12(value)}" for key, value in report.parameters.items()]
    tables = [report.csv_table]
    if report.csv_table is None:
        tables = [value for value in report.fields.values() if isinstance(value, Table)]
        single = {
            key: value for key, value in report.fields.items() if not isinstance(value, Table)
        }
        if single:
            tables.insert(0, Table(tuple(single), [tuple(single.values())]))
    for table in tables:
        lines.append(",".join(map(_cell, table.header)))
        lines.extend(",".join(map(_cell, row)) for row in table.rows)
    return "\n".join(lines) + "\n"


def _render_json(report: Report) -> str:
    document = {"command": report.command, "parameters": report.parameters}
    for key, value in report.fields.items():
        if isinstance(value, Table):
            value = [dict(zip(value.header, row)) for row in value.rows]
        document[key] = value
    return json.dumps(document, indent=2, ensure_ascii=False) + "\n"


def emit(report: Report, fmt: str, destination: str | None) -> None:
    """Render a report and write it to a file or stdout."""
    if fmt == "csv":
        rendered = _render_csv(report)
    elif fmt == "json":
        rendered = _render_json(report)
    else:
        raise DomainError(f"unknown format {fmt!r}")
    if destination is None or destination == "-":
        sys.stdout.write(rendered)
    else:
        Path(destination).write_text(rendered)


def _parse_vector(text: str, dims: int, flag: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != dims:
        raise DomainError(f"{flag} expects {dims} comma-separated numbers, got {text!r}")
    try:
        return np.array([float(part) for part in parts])
    except ValueError:
        raise DomainError(f"{flag} expects numbers, got {text!r}") from None


def _load_config(path: str | None) -> dict[str, float]:
    """Read 'key = value' lines; keys: scale, tol."""
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DomainError(f"cannot read config {path!r}: {exc}") from None
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


def _resolve(options: dict, key: str, fallback):
    """Flag wins over config file; config wins over the built-in default.

    The file is read at the first lookup that needs it, and its values are
    kept in options for the rest of the command.
    """
    flag = options.get(key)
    if flag is not None:
        return flag
    if "config_values" not in options:
        options["config_values"] = _load_config(options.get("config"))
    return options["config_values"].get(key, fallback)


def _field_from_options(options: dict) -> WindingGradient:
    k = _parse_vector(options["k"], 3, "--k")
    scale = float(_resolve(options, "scale", 1.0))
    # holonomy consistent with a unit-circumference generating ramp; only
    # k and scale enter the dispersion formulas
    return WindingGradient(k=k, holonomy=float(k[2]), scale=scale)


def _run_dispersion(options: dict) -> Report:
    mass = float(options["m"])
    momentum = _parse_vector(options["p"], 3, "--p")
    field = _field_from_options(options)
    formula = options.get("formula") or "both"
    parameters = {
        "m": mass,
        "p": options["p"],
        "k": options["k"],
        "scale": field.scale,
        "formula": formula,
    }
    energies = branch_energies(mass, momentum[None, :], field.k, field.scale, formula)
    # per formula: standard, plus and minus branch energies, then the gap
    results = {
        "semiclassical": (
            energies.rest,
            energies.semiclassical_plus,
            energies.semiclassical_minus,
            energies.signed_shift,
        ),
        "exact": (
            energies.exact_standard,
            energies.exact_plus,
            energies.exact_minus,
            energies.gap_exact,
        ),
    }
    chosen = [name for name in results if formula in (name, "both")]
    branches = {
        branch.value: {name: float(results[name][i][0]) for name in chosen}
        for i, branch in enumerate(Branch)
    }
    gaps = {name: float(results[name][3][0]) for name in chosen}
    # CSV shows the branches as a table rather than the two nested dicts
    return Report(
        "dispersion",
        parameters,
        {"branches": branches, "gaps": gaps},
        csv_table=Table(
            ("branch", *(f"e_{name}" for name in chosen)),
            [(branch, *entry.values()) for branch, entry in branches.items()],
        ),
    )


def _run_sweep(options: dict) -> Report:
    mass = float(options["m"])
    field = _field_from_options(options)
    p_transverse = _parse_vector(options.get("p_transverse") or "0,0", 2, "--p-transverse")
    start, stop = float(options["p3_min"]), float(options["p3_max"])
    count = int(options["count"])
    if count < 0:
        raise DomainError("--count must be non-negative")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise DomainError("momentum must be finite")
    if not math.isfinite(stop - start):
        raise DomainError("--p3-max - --p3-min overflows float64")
    parameters = {
        "m": mass,
        "k": options["k"],
        "scale": field.scale,
        "p_transverse": options.get("p_transverse") or "0,0",
        "p3_min": start,
        "p3_max": stop,
        "count": count,
    }
    header = (
        "p3",
        "e_plus_semiclassical",
        "e_minus_semiclassical",
        "e_plus_exact",
        "e_minus_exact",
        "gap_semiclassical",
        "gap_exact",
    )
    p3 = np.linspace(start, stop, count)
    momenta = np.column_stack(
        (np.full(count, p_transverse[0]), np.full(count, p_transverse[1]), p3)
    )
    energies = branch_energies(mass, momenta, field.k, field.scale)
    table = np.column_stack(
        (
            p3,
            energies.semiclassical_plus,
            energies.semiclassical_minus,
            energies.exact_plus,
            energies.exact_minus,
            energies.signed_shift,
            energies.gap_exact,
        )
    )
    return Report("sweep", parameters, {"rows": Table(header, table.tolist())})


def _run_preference(options: dict) -> Report:
    momentum = _parse_vector(options["p"], 3, "--p")
    field = _field_from_options(options)
    tol = _resolve(options, "tol", None)
    tol = float(tol) if tol is not None else default_degeneracy_tol(momentum)
    preference = preferred_branch(field, momentum, tol)
    table = select_table(field, momentum, tol)
    parameters = {
        "p": options["p"],
        "k": options["k"],
        "scale": field.scale,
        "tol": tol,
    }
    fields = {
        "signed_shift": signed_shift(field, momentum),
        "preference": preference.value,
        "table": table,
    }
    return Report("preference", parameters, fields)


def _run_ring_spectrum(options: dict) -> Report:
    sites = int(options["sites"])
    length = float(options["length"])
    mass = float(options["m"])
    twist_flag = options.get("twist")
    structure_flag = options.get("structure")
    if twist_flag is not None and structure_flag is not None:
        raise DomainError("give either --twist or --structure, not both")
    if twist_flag is not None:
        twist = float(twist_flag)
    else:
        twist = STRUCTURE_TWIST[Structure(structure_flag or "standard")]
    count = options.get("count")
    if count is not None and int(count) < 0:
        raise DomainError("--count must be non-negative")
    spec = RingSpec(sites=sites, circumference=length, twist=twist, mass=mass)
    flat = ring_spectrum(spec, first_order=True)
    # the generator's levels (2*pi*n + twist)/L increase with n, so the i-th
    # ascending eigenvalue belongs to the i-th mode index
    modes = mode_indices(spec)
    energies = np.sqrt(mass**2 + flat**2)
    levels = _group_levels(energies)
    # sorted by energy, rows fall into the levels in order; within a level
    # they go by n, so rounding cannot swap the rows of a degenerate pair
    level = np.repeat(np.arange(len(levels.multiplicities)), levels.multiplicities)
    order = np.lexsort((modes, energies))
    order = order[np.lexsort((modes[order], level))]
    multiplicity = np.repeat(levels.multiplicities, levels.multiplicities)
    limit = int(count) if count is not None else len(order)
    rows = [
        (int(modes[i]), float(flat[i]), float(energies[i]), int(mult))
        for i, mult in zip(order[:limit], multiplicity[:limit])
    ]
    parameters = {
        "sites": sites,
        "length": length,
        "twist": twist,
        "m": mass,
        "count": len(rows),
    }
    header = ("n", "e_n", "energy", "multiplicity")
    return Report("ring-spectrum", parameters, {"rows": Table(header, rows)})


def _run_map_check(options: dict) -> Report:
    sites = int(options["sites"])
    length = float(options["length"])
    winding = int(options["winding"])
    mass = float(options["m"])
    scale = float(_resolve(options, "scale", 1.0))
    tol = _resolve(options, "tol", None)
    draws = int(options["sections"])
    seed = int(options["seed"])

    theta = build_theta(sites, length, winding)
    rng = np.random.default_rng(seed)
    sections = []
    if options.get("section_file"):
        try:
            text = Path(options["section_file"]).read_text()
        except OSError as exc:
            raise DomainError(f"cannot read section file: {exc}") from None
        sections.append(section_from_json(text))
    sections.extend(
        random_band_limited_section(sites, length, rng) for _ in range(draws)
    )
    if not sections:
        raise DomainError("nothing to check: no sections requested")

    checks = map_checks(sections, theta, mass, scale, harmonic=1, tol=tol)
    residuals = {key: value for key, value, _ in checks}
    kernel = residuals.pop("kernel_residual"), residuals.pop("mapped_kernel_residual")
    passed = all(value <= bound for _, value, bound in checks)
    parameters = {
        "sites": sites,
        "length": length,
        "winding": winding,
        "m": mass,
        "scale": scale,
        # the intertwining bound is the tol itself
        "tol": checks[0][2],
        "sections": len(sections),
        "seed": seed,
    }
    fields = {
        "residuals": residuals,
        "kernel_residual": kernel[0],
        "mapped_kernel_residual": kernel[1],
        "passed": passed,
    }
    return Report("map-check", parameters, fields, exit_code=0 if passed else 1)


def _magma_from_options(options: dict) -> FiniteMagma:
    name = options.get("table")
    path = options.get("table_file")
    if (name is None) == (path is None):
        raise DomainError("give exactly one of --table or --table-file")
    if name is not None:
        return builtin(name)
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DomainError(f"cannot read table file: {exc}") from None
    return from_json(text)


def _run_algebra_analyze(options: dict) -> Report:
    magma_obj = _magma_from_options(options)
    report = analyze(magma_obj)
    # tuples render as JSON arrays in both formats
    fields = {
        "name": magma_obj.name,
        "carrier": magma_obj.carrier,
        "table": magma_obj.table,
        "identities": report.identities,
        "absorbers": report.absorbers,
        "commutativity_violations": report.commutativity_violations,
        "associativity_violations": report.associativity_violations,
        "associativity_witness": report.associativity_witness,
        "is_group": report.is_group,
    }
    return Report("algebra analyze", {"table": magma_obj.name}, fields)


def _run_algebra_compose(options: dict) -> Report:
    magma_obj = _magma_from_options(options)
    result = compose(magma_obj, options["left"], options["right"])
    fields = {"left": options["left"], "right": options["right"], "result": result}
    return Report("algebra compose", {"table": magma_obj.name}, fields)


def _run_algebra_chain(options: dict) -> Report:
    momentum = _parse_vector(options["p"], 3, "--p")
    field = _field_from_options(options)
    tol = _resolve(options, "tol", None)
    tol = float(tol) if tol is not None else None
    context = build_context(field, momentum, tol)
    try:
        text = Path(options["events"]).read_text()
    except OSError as exc:
        raise DomainError(f"cannot read events file: {exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid events JSON: {exc}") from None
    if not isinstance(raw, list):
        raise DomainError("events JSON must be a list of {operand, involute} objects")
    events = []
    for item in raw:
        if not isinstance(item, dict) or "operand" not in item:
            raise DomainError("each event needs an 'operand' key")
        events.append(
            ChainEvent(
                operand=str(item["operand"]),
                involute_first=bool(item.get("involute", False)),
            )
        )
    final, trace = run_chain(options["initial"], events, context)
    parameters = {
        "p": options["p"],
        "k": options["k"],
        "scale": field.scale,
        "tol": context.tol,
        "initial": options["initial"],
        "events": options["events"],
    }
    fields = {
        "initial_table": context.active_table,
        "final": final,
        "trace": Table(("step", "table", "state"), [(s.step, s.table, s.state) for s in trace]),
    }
    return Report("algebra chain", parameters, fields)


def _run_verify(options: dict) -> Report:
    suite = options.get("suite") or "all"
    rows = [(check.name, bool(check.passed), check.detail) for check in run_suite(suite)]
    failed = sum(1 for _, passed, _ in rows if not passed)
    fields = {"checks": Table(("name", "passed", "detail"), rows), "failed": failed}
    return Report("verify", {"suite": suite}, fields, exit_code=0 if failed == 0 else 1)


_RUNNERS = {
    "dispersion": _run_dispersion,
    "sweep": _run_sweep,
    "preference": _run_preference,
    "ring-spectrum": _run_ring_spectrum,
    "map-check": _run_map_check,
    "algebra analyze": _run_algebra_analyze,
    "algebra compose": _run_algebra_compose,
    "algebra chain": _run_algebra_chain,
    "verify": _run_verify,
}


def run_command(command: str, options: dict) -> Report:
    if command not in _RUNNERS:
        raise DomainError(f"unknown command {command!r}")
    # a copy, so that the config values _resolve keeps stay with this command
    return _RUNNERS[command](dict(options))


def _add_common(parser: argparse.ArgumentParser, default_format: str) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default=default_format)
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--config", default=None, help="key = value file for scale/tol")
    parser.add_argument("--timing", action="store_true", help="print wall time to stderr")


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
    p.add_argument("--p", required=True, help="momentum as x,y,z")
    p.add_argument("--k", required=True, help="winding gradient as x,y,z")
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--formula", choices=("semiclassical", "exact", "both"), default="both")
    _add_common(p, "csv")

    p = sub.add_parser("sweep", help="branch energies over a ring-momentum range")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--k", required=True, help="winding gradient as x,y,z")
    p.add_argument("--p-transverse", dest="p_transverse", default=None, help="px,py")
    p.add_argument("--p3-min", dest="p3_min", type=float, required=True)
    p.add_argument("--p3-max", dest="p3_max", type=float, required=True)
    p.add_argument("--count", type=int, required=True, help="number of sample points")
    p.add_argument("--scale", type=float, default=None)
    _add_common(p, "csv")

    p = sub.add_parser("preference", help="which branch the field sign prefers")
    p.add_argument("--p", required=True, help="momentum as x,y,z")
    p.add_argument("--k", required=True, help="winding gradient as x,y,z")
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    _add_common(p, "json")

    p = sub.add_parser("ring-spectrum", help="twisted ring levels and multiplicities")
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--length", type=float, required=True)
    p.add_argument("--m", type=float, default=0.0)
    p.add_argument("--twist", type=float, default=None)
    p.add_argument("--structure", choices=("standard", "exotic"), default=None)
    p.add_argument("--count", type=int, default=None, help="emit only this many rows")
    _add_common(p, "csv")

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
    _add_common(p, "json")

    algebra = sub.add_parser("algebra", help="finite composition tables")
    algebra_sub = algebra.add_subparsers(dest="subcommand", required=True)

    p = algebra_sub.add_parser("analyze", help="exhaustive structure report")
    p.add_argument("--table", choices=BUILTIN_NAMES, default=None)
    p.add_argument("--table-file", dest="table_file", default=None, help="magma JSON file")
    _add_common(p, "json")

    p = algebra_sub.add_parser("compose", help="one table lookup")
    p.add_argument("--table", choices=BUILTIN_NAMES, default=None)
    p.add_argument("--table-file", dest="table_file", default=None)
    p.add_argument("left")
    p.add_argument("right")
    _add_common(p, "json")

    p = algebra_sub.add_parser("chain", help="evaluate an event chain")
    p.add_argument("--events", required=True, help="JSON list of {operand, involute}")
    p.add_argument("--initial", required=True)
    p.add_argument("--p", required=True, help="momentum as x,y,z")
    p.add_argument("--k", required=True, help="winding gradient as x,y,z")
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    _add_common(p, "json")

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument(
        "--suite",
        choices=("all", *SUITES),
        default="all",
    )
    _add_common(p, "json")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    options = vars(args).copy()
    command = options.pop("command")
    if "subcommand" in options:
        command = f"{command} {options.pop('subcommand')}"
    fmt = options.pop("format")
    destination = options.pop("out")
    timing = options.pop("timing")
    started = time.perf_counter()
    try:
        report = run_command(command, options)
        emit(report, fmt, destination)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if timing:
        print(f"wall time: {time.perf_counter() - started:.6f} s", file=sys.stderr)
    return report.exit_code


def console_main() -> None:
    sys.exit(main())
