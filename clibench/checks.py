"""Reference checks for every benchmarked invocation.

Each check recomputes the expected answer from the job's inputs without
calling spinorlab: numpy closed forms for ``sweep`` and ``dispersion``, the
analytic ring levels (2*pi*n + twist)/L for ``ring-spectrum``, the reported
``passed`` flag together with every residual bound for ``map-check``, and a
vectorised table scan plus the planted identity and absorber for
``algebra``.  A check returns ``OK``, ``FAIL`` or the name of a known
defect.  Known defects are wrong outputs whose exact shape is recognised,
so a run lists them by name instead of hiding them; anything else that
disagrees with the reference is a failure.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np

OK = "ok"
FAIL = "fail"

# Wrong outputs the program produces today, by name.
VERIFY_JSON_PRINTS_TEXT = "verify-json-prints-text"
MAP_CHECK_CSV_DROPS_DATA = "map-check-csv-drops-data"
ANALYZE_CSV_DROPS_DATA = "algebra-analyze-csv-drops-data"
CHAIN_CSV_DROPS_DATA = "algebra-chain-csv-drops-data"
# ring-spectrum counts multiplicity with an absolute 1e-12 window, so
# degenerate pairs at large |e_n| come out as two singles
RING_SPLITS_DEGENERATE = "ring-spectrum-splits-degenerate-levels"
# map-check compares commutation, density and round-trip residuals with
# a fixed 1e-15, which rounding alone can exceed
MAP_CHECK_FIXED_BOUNDS = "map-check-fixed-1e-15-bounds"

# sweep / dispersion values: relative 1e-10 (CSV keeps 12 digits) plus an
# absolute floor of 1e-12 times the energy scale of the row
RTOL = 1e-10
ATOL = 1e-12
# ring levels: 1e-10 of the generator's norm bound (pi*N + |twist|)/L
RING_RTOL = 1e-10
FIXED_RESIDUAL_BOUND = 1e-15

DOT = "·"
# The built-in composition tables, cell for cell, as reference data.
PREFERENCE_CARRIER = ("(a,b)", f"(ab,{DOT})", f"({DOT},ab)", "(b,a)")
BUILTIN = {
    "z2": (("S", "C"), (("S", "C"), ("C", "S"))),
    "prefer_standard": (
        PREFERENCE_CARRIER,
        (
            ("(a,b)", f"(ab,{DOT})", "(a,b)", "(b,a)"),
            (f"(ab,{DOT})",) * 4,
            ("(a,b)", f"(ab,{DOT})", f"({DOT},ab)", "(b,a)"),
            (f"(ab,{DOT})", f"(ab,{DOT})", "(b,a)", "(a,b)"),
        ),
    ),
    "prefer_exotic": (
        PREFERENCE_CARRIER,
        (
            ("(a,b)", "(a,b)", f"({DOT},ab)", f"({DOT},ab)"),
            ("(a,b)", f"(ab,{DOT})", f"({DOT},ab)", "(b,a)"),
            (f"({DOT},ab)",) * 4,
            (f"({DOT},ab)", "(b,a)", f"({DOT},ab)", "(a,b)"),
        ),
    ),
}


class Mismatch(Exception):
    """The output disagrees with the reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def close(got, want, scale=1.0, rtol=RTOL, atol=ATOL) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return bool(np.all(np.abs(got - want) <= rtol * np.abs(want) + atol * (1.0 + scale)))


def parse_csv(text: str) -> tuple[dict, list[str] | None, list[list[str]]]:
    """Split CSV output into echoed parameters, header and data rows."""
    params: dict[str, str] = {}
    header = None
    rows = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, sep, value = line[2:].partition(" = ")
            require(sep == " = ", f"bad parameter line {line!r}")
            params[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return params, header, rows


def only_parameters(text: str) -> bool:
    return bool(text) and all(line.startswith("# ") for line in text.splitlines())


# --- dispersion -----------------------------------------------------------


def branch_reference(mass, momenta, k, scale):
    """Closed forms per row of momenta: semiclassical and exact branches."""
    momenta = np.atleast_2d(np.asarray(momenta, dtype=float))
    k = np.asarray(k, dtype=float)
    signed = scale * (momenta @ k)
    base = mass**2 + np.sum(momenta**2, axis=1)
    e_plus = np.sqrt(mass**2 + np.sum((momenta - scale * k) ** 2, axis=1))
    e_minus = np.sqrt(mass**2 + np.sum((momenta + scale * k) ** 2, axis=1))
    return {
        "standard_sc": base,
        "standard_exact": np.sqrt(base),
        "plus_sc": base - 0.5 * signed,
        "minus_sc": base + 0.5 * signed,
        "plus_exact": e_plus,
        "minus_exact": e_minus,
        "gap_sc": signed,
        # E- - E+ without the cancellation of subtracting two roots
        "gap_exact": 4.0 * signed / (e_minus + e_plus),
        "scale": base,
    }


SWEEP_HEADER = [
    "p3",
    "e_plus_semiclassical",
    "e_minus_semiclassical",
    "e_plus_exact",
    "e_minus_exact",
    "gap_semiclassical",
    "gap_exact",
]


def check_sweep(job, text: str) -> str:
    spec = job.spec
    count = spec["count"]
    p3 = np.linspace(spec["p3_min"], spec["p3_max"], count)
    momenta = np.column_stack(
        [np.full(count, spec["p_transverse"][0]), np.full(count, spec["p_transverse"][1]), p3]
    )
    ref = branch_reference(spec["m"], momenta, spec["k"], spec["scale"])
    want = np.column_stack(
        [p3, ref["plus_sc"], ref["minus_sc"], ref["plus_exact"], ref["minus_exact"],
         ref["gap_sc"], ref["gap_exact"]]
    )
    if job.fmt == "csv":
        params, header, rows = parse_csv(text)
        require(header == SWEEP_HEADER, f"sweep header {header}")
        require(int(params.get("count", -1)) == count, "sweep count not echoed")
        got = np.array(rows, dtype=float) if rows else np.zeros((0, 7))
    else:
        document = json.loads(text)
        require(document["command"] == "sweep", "sweep command name")
        require(document["parameters"]["count"] == count, "sweep count not echoed")
        rows = document["rows"]
        require(all(list(row) == SWEEP_HEADER for row in rows), "sweep row keys")
        got = np.array([[row[key] for key in SWEEP_HEADER] for row in rows], dtype=float)
    require(got.shape == (count, 7), f"sweep shape {got.shape}")
    require(close(got, want, ref["scale"][:, None]), "sweep values differ from closed forms")
    return OK


def check_dispersion(job, text: str) -> str:
    spec = job.spec
    ref = {key: float(np.ravel(value)[0]) for key, value in branch_reference(
        spec["m"], [spec["p"]], spec["k"], spec["scale"]).items()}
    want = {
        "standard": (ref["standard_sc"], ref["standard_exact"]),
        "exotic_plus": (ref["plus_sc"], ref["plus_exact"]),
        "exotic_minus": (ref["minus_sc"], ref["minus_exact"]),
    }
    if job.fmt == "csv":
        _, header, rows = parse_csv(text)
        require(header == ["branch", "e_semiclassical", "e_exact"], f"dispersion header {header}")
        got = {row[0]: (float(row[1]), float(row[2])) for row in rows}
        require(list(got) == list(want), "dispersion branches")
    else:
        document = json.loads(text)
        branches = document["branches"]
        require(list(branches) == list(want), "dispersion branches")
        got = {name: (b["semiclassical"], b["exact"]) for name, b in branches.items()}
        gaps = document["gaps"]
        require(close([gaps["semiclassical"], gaps["exact"]],
                      [ref["gap_sc"], ref["gap_exact"]], ref["scale"]), "dispersion gaps")
    for name, values in want.items():
        require(close(got[name], values, ref["scale"]), f"dispersion {name} branch")
    return OK


def check_preference(job, text: str) -> str:
    spec = job.spec
    p = np.asarray(spec["p"])
    signed = spec["scale"] * float(np.dot(spec["k"], p))
    tol = spec["tol"] if spec["tol"] is not None else 1e-12 * (float(np.dot(p, p)) + 1.0)
    if signed > tol:
        want = ("prefer_plus", "prefer_standard")
    elif signed < -tol:
        want = ("prefer_minus", "prefer_exotic")
    else:
        want = ("degenerate", "z2")
    if job.fmt == "csv":
        _, header, rows = parse_csv(text)
        require(header == ["signed_shift", "preference", "table"], f"preference header {header}")
        require(len(rows) == 1, "preference rows")
        got_signed, got = float(rows[0][0]), (rows[0][1], rows[0][2])
    else:
        document = json.loads(text)
        got_signed, got = document["signed_shift"], (document["preference"], document["table"])
    require(close(got_signed, signed, abs(signed)), "preference signed shift")
    require(got == want, f"preference {got} != {want}")
    return OK


# --- ring-spectrum --------------------------------------------------------


def check_ring_spectrum(job, text: str) -> str:
    spec = job.spec
    sites, length, mass, twist = spec["sites"], spec["length"], spec["m"], spec["twist"]
    indices = np.arange(-(sites // 2), sites // 2)
    levels = (2.0 * math.pi * indices + twist) / length
    energies = np.sqrt(mass**2 + levels**2)
    # analytic degeneracy: |2 pi n + twist| = |2 pi n' + twist| needs
    # n' = -n - twist/pi, an integer only for the two structures
    ratio = twist / math.pi
    partner = None
    if abs(ratio - round(ratio)) < 1e-12:
        partner = -indices - int(round(ratio))
    if partner is None:
        multiplicity = np.ones(sites, dtype=int)
    else:
        in_range = (partner >= indices[0]) & (partner <= indices[-1]) & (partner != indices)
        multiplicity = 1 + in_range.astype(int)

    if job.fmt == "csv":
        params, header, rows = parse_csv(text)
        require(header == ["n", "e_n", "energy", "multiplicity"], f"ring header {header}")
        require(params.get("twist") == f"{twist:.12g}", "ring twist not echoed")
        got = [(int(r[0]), float(r[1]), float(r[2]), int(r[3])) for r in rows]
    else:
        document = json.loads(text)
        require(document["parameters"]["twist"] == twist, "ring twist not echoed")
        got = [(r["n"], r["e_n"], r["energy"], r["multiplicity"]) for r in document["rows"]]
    count = sites if spec["count"] is None else spec["count"]
    require(len(got) == count, f"ring rows {len(got)} != {count}")
    n = np.array([row[0] for row in got])
    require(len(set(n.tolist())) == count, "ring mode indices repeat")
    require(bool(np.all((n >= indices[0]) & (n <= indices[-1]))), "ring mode index out of range")
    position = n - indices[0]
    norm = (math.pi * sites + abs(twist)) / length
    tol = RING_RTOL * norm
    got_levels = np.array([row[1] for row in got])
    got_energies = np.array([row[2] for row in got])
    require(bool(np.all(np.abs(got_levels - levels[position]) <= tol)), "ring levels off analytic")
    require(bool(np.all(np.abs(got_energies - energies[position]) <= tol)), "ring energies off")
    require(bool(np.all(np.diff(got_energies) >= -tol)), "ring rows not sorted by energy")
    lowest = np.sort(energies)[count - 1]
    require(bool(got_energies[-1] <= lowest + tol), "ring rows are not the lowest levels")
    got_mult = np.array([row[3] for row in got])
    want_mult = multiplicity[position]
    require(bool(np.all(got_mult <= want_mult)), "ring multiplicity above analytic degeneracy")
    if np.any(got_mult < want_mult):
        return RING_SPLITS_DEGENERATE
    return OK


# --- map-check ------------------------------------------------------------

RESIDUAL_KEYS = ("intertwine_plus", "intertwine_minus", "commutation", "density", "roundtrip")


def check_map_check(job, text: str, returncode: int, rerun=None) -> str:
    spec = job.spec
    if job.fmt == "csv":
        if only_parameters(text):
            params, _, _ = parse_csv(text)
            require(params.get("sites") == str(spec["sites"]), "map-check sites not echoed")
            if returncode == 0:
                return MAP_CHECK_CSV_DROPS_DATA
            # the CSV shows no residuals, so the same call in JSON must show
            # that only the fixed 1e-15 bounds failed
            require(returncode == 1 and rerun is not None, f"map-check CSV exit code {returncode}")
            json_job = replace(job, fmt="json", argv=[
                "--format=json" if arg.startswith("--format=") else arg for arg in job.argv])
            json_code, json_out = rerun(json_job.argv)
            status = check_map_check(json_job, json_out.decode("utf-8"), json_code)
            require(status == MAP_CHECK_FIXED_BOUNDS, "map-check CSV failed")
            return MAP_CHECK_FIXED_BOUNDS
        require(returncode == 0 and "passed" in text, "map-check CSV without a pass")
        return OK
    document = json.loads(text)
    params = document["parameters"]
    for key in ("sites", "winding", "sections", "seed"):
        require(params[key] == spec[key], f"map-check {key} not echoed")
    require(params["tol"] == spec["tol"], "map-check tol not echoed")
    residuals = document["residuals"]
    require(list(residuals) == list(RESIDUAL_KEYS), "map-check residual keys")
    tol = spec["tol"]
    within_tol = (
        residuals["intertwine_plus"] <= tol
        and residuals["intertwine_minus"] <= tol
        and document["kernel_residual"] <= tol
        and document["mapped_kernel_residual"] <= tol * (1.0 + 1e-6)
    )
    fixed = [residuals[key] for key in ("commutation", "density", "roundtrip")]
    if document["passed"] and returncode == 0:
        require(within_tol and max(fixed) <= FIXED_RESIDUAL_BOUND, "map-check passed out of bounds")
        return OK
    # rounding a few ulps over the fixed 1e-15 bound; nothing else wrong
    require(returncode == 1 and within_tol and max(fixed) <= 10 * FIXED_RESIDUAL_BOUND,
            "map-check failed")
    return MAP_CHECK_FIXED_BOUNDS


# --- algebra --------------------------------------------------------------


def normalize(label: str) -> str:
    return label.replace(".", DOT) if "ab" in label else label


def reference_table(job) -> tuple[list[str], np.ndarray, str]:
    if "builtin" in job.spec:
        name = job.spec["builtin"]
        carrier, rows = BUILTIN[name]
        index = {label: i for i, label in enumerate(carrier)}
        return list(carrier), np.array([[index[c] for c in row] for row in rows]), name
    table = job.spec["table"]
    return table["carrier"], np.array(table["table"]), table["name"]


def analyze_reference(carrier: list[str], table: np.ndarray) -> dict:
    """Identities, absorbers, commutativity and associativity by array scans."""
    n = len(carrier)
    idx = np.arange(n)
    identities = [e for e in range(n) if (table[e] == idx).all() and (table[:, e] == idx).all()]
    absorbers = [z for z in range(n) if (table[z] == z).all() and (table[:, z] == z).all()]
    upper = np.triu(table != table.T, 1)
    left = table[table, :]  # left[x, y, z] = (x*y)*z
    right = table[idx[:, None, None], table[None, :, :]]  # x*(y*z)
    bad = np.argwhere(left != right)
    is_group = False
    if len(identities) == 1 and len(bad) == 0:
        e = identities[0]
        is_group = bool(np.all(np.any((table == e) & (table.T == e), axis=1)))
    return {
        "identities": [carrier[i] for i in identities],
        "absorbers": [carrier[i] for i in absorbers],
        "commutativity_violations": [[carrier[x], carrier[y]] for x, y in np.argwhere(upper)],
        "associativity_violations": int(len(bad)),
        "associativity_witness": [carrier[i] for i in bad[0]] if len(bad) else None,
        "is_group": is_group,
    }


def check_analyze(job, text: str) -> str:
    carrier, table, name = reference_table(job)
    if job.fmt == "csv":
        if only_parameters(text):
            params, _, _ = parse_csv(text)
            require(params.get("table") == name, "analyze table name not echoed")
            return ANALYZE_CSV_DROPS_DATA
        planted = job.spec["table"]
        require(carrier[planted["identity"]] in text and carrier[planted["absorber"]] in text,
                "analyze CSV lacks the planted identity or absorber")
        return OK
    document = json.loads(text)
    require(document["name"] == name, "analyze name")
    require(document["carrier"] == carrier, "analyze carrier")
    require(document["table"] == table.tolist(), "analyze table")
    want = analyze_reference(carrier, table)
    for key, value in want.items():
        require(document[key] == value, f"analyze {key}: {document[key]!r} != {value!r}")
    if "table" in job.spec:
        planted = job.spec["table"]
        require(document["identities"] == [carrier[planted["identity"]]], "planted identity")
        require(document["absorbers"] == [carrier[planted["absorber"]]], "planted absorber")
    return OK


def check_compose(job, text: str) -> str:
    carrier, table, name = reference_table(job)
    index = {label: i for i, label in enumerate(carrier)}
    left, right = job.spec["left"], job.spec["right"]
    want = carrier[table[index[normalize(left)], index[normalize(right)]]]
    document = json.loads(text)
    require(document["parameters"] == {"table": name}, "compose table name")
    require((document["left"], document["right"]) == (left, right), "compose operands")
    require(document["result"] == want, f"compose {document['result']!r} != {want!r}")
    return OK


def check_chain(job, text: str) -> str:
    spec = job.spec
    p = np.asarray(spec["p"])
    k = np.asarray(spec["k"])
    tol = 1e-12 * (float(np.dot(p, p)) + 1.0)
    names = {1: "prefer_standard", -1: "prefer_exotic"}
    signed = float(np.dot(k, p))
    require(abs(signed) > tol, "chain inputs must not be degenerate")
    sign = 1 if signed > 0 else -1
    tables = {}
    for table_name in names.values():
        carrier, rows = BUILTIN[table_name]
        tables[table_name] = {(a, b): rows[i][j] for i, a in enumerate(carrier)
                              for j, b in enumerate(carrier)}
    initial_table = names[sign]
    state = normalize(spec["initial"])
    trace = []
    for step, event in enumerate(spec["events"], start=1):
        if event["involute"]:
            sign = -sign
        state = tables[names[sign]][(state, normalize(event["operand"]))]
        trace.append({"step": step, "table": names[sign], "state": state})
    if job.fmt == "csv":
        if only_parameters(text):
            params, _, _ = parse_csv(text)
            require(params.get("initial") == spec["initial"], "chain initial not echoed")
            return CHAIN_CSV_DROPS_DATA
        require(state in text, "chain CSV lacks the final state")
        return OK
    document = json.loads(text)
    require(document["initial_table"] == initial_table, "chain initial table")
    require(document["final"] == state, f"chain final {document['final']!r} != {state!r}")
    require(document["trace"] == trace, "chain trace")
    return OK


# --- verify ---------------------------------------------------------------

SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed$")


def check_verify(job, text: str) -> str:
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        document = None
    if document is not None:
        require(document.get("failed", 0) == 0, "verify reports failed checks")
        return OK
    lines = text.splitlines()
    require(bool(lines), "verify printed nothing")
    summary = SUMMARY.match(lines[-1])
    require(summary is not None and summary.group(1) == summary.group(2), "verify summary")
    require(int(summary.group(2)) == len(lines) - 1, "verify check count")
    require(all(line.startswith("PASS ") for line in lines[:-1]), "verify has failing checks")
    return VERIFY_JSON_PRINTS_TEXT if job.fmt == "json" else OK


def check(job, returncode: int, stdout: bytes, written: bytes | None, rerun=None) -> tuple[str, str]:
    """Return (status, reason); status is OK, FAIL or a known defect name.

    rerun(argv) -> (exit code, stdout bytes) runs spinorlab once more,
    untimed; it is used only to explain a map-check CSV that exits 1.
    """
    try:
        if written is not None:
            require(stdout == b"", "output went to stdout despite --out")
            data = written
        else:
            data = stdout
        text = data.decode("utf-8")
        if job.kind == "map-check":
            return check_map_check(job, text, returncode, rerun), ""
        require(returncode == 0, f"exit code {returncode}")
        checker = {
            "sweep": check_sweep,
            "dispersion": check_dispersion,
            "preference": check_preference,
            "ring-spectrum": check_ring_spectrum,
            "algebra analyze": check_analyze,
            "algebra compose": check_compose,
            "algebra chain": check_chain,
            "verify": check_verify,
        }[job.kind]
        return checker(job, text), ""
    except (Mismatch, ValueError, KeyError, TypeError, IndexError) as exc:
        return FAIL, f"{type(exc).__name__}: {exc}"


class Tally:
    """Invocations attempted, failed (with the first reason per class) and known defects."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.defects: Counter = Counter()
        self.failures: dict[str, str] = {}

    def record(self, job, status: str, reason: str) -> bool:
        if status == FAIL:
            self.failed += 1
            self.failures.setdefault(job.cls, reason)
            return False
        if status != OK:
            self.defects[status] += 1
        return True
