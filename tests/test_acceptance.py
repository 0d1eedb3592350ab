"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Each criterion is a view of the ``verify`` suites: the table below names
the suites it runs, at the sizes used here, and the checks that make up
the criterion.  The printed line gives each of those checks' value and
bound, and every check is asserted at value <= bound.  Run with
``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import contextlib
import functools
import io
import json

from spinorlab.cli import main
from spinorlab.verification import (
    algebra_checks,
    chains_checks,
    dispersion_checks,
    lattice_checks,
    sections_checks,
    winding_checks,
)

DISPERSION = functools.partial(dispersion_checks, samples=1200, seed=2024)
SECTIONS = functools.partial(sections_checks, sections=20, seed=31)

CRITERIA = {
    "reference-point branch energies": (
        (DISPERSION,),
        ("frozen-first-order", "frozen-first-order-gap"),
    ),
    "splitting sign consistency": ((DISPERSION,), ("gap-sign", "perpendicular-degenerate")),
    "first-order gap asymptotics": ((DISPERSION,), ("gap-expansion",)),
    "unit-winding holonomy": ((winding_checks,), ("holonomy-wound", "holonomy-flat")),
    "phase-map operator identities": (
        (SECTIONS,),
        ("intertwine_plus", "intertwine_minus", "commutation", "density"),
    ),
    "two-structure ring spectra": (
        (lattice_checks,),
        ("degeneracy-lifting", "lattice-vs-closed-form"),
    ),
    "built-in table structure reports": (
        (algebra_checks,),
        ("z2-group", "prefer-standard-structure", "prefer-exotic-structure"),
    ),
    "chain semantics": (
        (chains_checks,),
        ("chain-parity", "chain-absorber", "chain-double-involution"),
    ),
    "flat-sector degeneration": ((DISPERSION, SECTIONS), ("flat-collapse", "flat-identity")),
}


@functools.cache
def _run(suite) -> dict[str, tuple[str, float, float]]:
    return {check[0]: check for check in suite()}


def _gate(criterion: str, *extra: tuple[str, float, float]) -> None:
    suites, names = CRITERIA[criterion]
    found = {name: check for suite in suites for name, check in _run(suite).items()}
    checks = [found[name] for name in names] + list(extra)
    passed = all(value <= bound for _, value, bound in checks)
    details = "; ".join(f"{name} {value:.3g} <= {bound:.3g}" for name, value, bound in checks)
    print(f"{'PASS' if passed else 'FAIL'} {criterion}: {details}")
    for name, value, bound in checks:
        assert value <= bound, f"{criterion}: {name}: {value!r} > {bound!r}"


def test_reference_point_branch_energies():
    _gate("reference-point branch energies")


def test_splitting_sign_consistency():
    _gate("splitting sign consistency")


def test_first_order_gap_asymptotics():
    _gate("first-order gap asymptotics")


def test_unit_winding_holonomy():
    _gate("unit-winding holonomy")


def test_phase_map_operator_identities():
    _gate("phase-map operator identities")


def test_two_structure_ring_spectra():
    _gate("two-structure ring spectra")


def test_builtin_table_structure_reports():
    _gate("built-in table structure reports")


def test_chain_semantics(tmp_path):
    # the CLI, not the library, turns a preference operand under z2 into exit 3
    events = tmp_path / "events.json"
    events.write_text(json.dumps([{"operand": "(ab,·)"}]))
    argv = ["algebra", "chain", "--initial", "S", "--events", str(events)]
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--p", "0,0,1", "--k", "0,0,0"])
    # the count of failed conditions against 0, as verify's checks of several conditions
    _gate("chain semantics", ("z2-operand-rejection", float(code != 3), 0.0))


def test_flat_sector_degeneration():
    _gate("flat-sector degeneration")
