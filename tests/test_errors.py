"""The shared input rules, pinned at every site that enforces one.

Each row names a rule's exact message, a site, and the values it refuses
there: nan and +-inf for a finite rule, -1 as well for a non-negative or a
positive rule, and 0 for a positive one.  A message that names the refused
value holds it as {value!r}.  Command-line sites go through
main, where a refusal is exit 3 with one `error: ...` line on stderr.
"""

import contextlib
import io
import math

import numpy as np
import pytest

from spinorlab.cli import main
from spinorlab.dispersion import (
    Branch,
    ModeSpec,
    Structure,
    branch_energies,
    default_degeneracy_tol,
    preferred_branch,
    signed_shift,
)
from spinorlab.errors import DomainError
from spinorlab.lattice import RingSpec
from spinorlab.sections import (
    SampledSection,
    dirac,
    kernel_mode,
    map_checks,
    plane_wave_section,
    random_band_limited_section,
)
from spinorlab.winding import ThetaField, WindingGradient, build_theta

NOT_FINITE = (math.nan, math.inf, -math.inf)
NEGATIVE = (*NOT_FINITE, -1.0)
NOT_POSITIVE = (*NEGATIVE, 0.0)
NOT_WHOLE = (1.5, -0.5, *NOT_FINITE)
BAD_SHAPES = ([0.0, 1.0], [0.0, 0.0, 0.0, 1.0], [[0.0, 0.0, 1.0]])

FIELD = WindingGradient([0.0, 0.0, 1.0])
THETA = build_theta(16, 2.0 * math.pi, 1)
SECTION = random_band_limited_section(16, 2.0 * math.pi, np.random.default_rng(3))


def _cli(*argv: str) -> None:
    """Run the command; an exit-3 refusal is raised as its DomainError."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    if code == 3:
        assert out.getvalue() == ""
        message = err.getvalue()
        assert message.startswith("error: ") and message.count("\n") == 1
        raise DomainError(message[len("error: ") : -1])


def _sweep(p3_min=0.0, p3_max=1.0, p_transverse="0,0", count=2) -> None:
    _cli(
        "sweep", "--m", "1", "--k", "0,0,0.1", f"--p3-min={p3_min!r}",
        f"--p3-max={p3_max!r}", f"--p-transverse={p_transverse}", f"--count={count}",
    )


# (message, {site: call}, refused values)
RULES = [
    (
        "momentum must be finite",
        {
            "ModeSpec": lambda v: ModeSpec(1.0, [0.0, v, 0.0], Branch.STANDARD),
            "branch_energies": lambda v: branch_energies(1.0, [[0.0, 0.0, v]], [0, 0, 1]),
            "signed_shift": lambda v: signed_shift(FIELD, [v, 0.0, 0.0]),
            "default_degeneracy_tol": lambda v: default_degeneracy_tol([[0.0, 0.0, v]]),
            "sweep --p3-min": lambda v: _sweep(p3_min=v),
            "sweep --p3-max": lambda v: _sweep(p3_max=v),
            "sweep --p-transverse": lambda v: _sweep(p_transverse=f"0,{v!r}"),
        },
        NOT_FINITE,
    ),
    (
        "mass must be finite and non-negative",
        {
            "ModeSpec": lambda v: ModeSpec(v, [0.0, 0.0, 1.0], Branch.STANDARD),
            "branch_energies": lambda v: branch_energies(v, [[0.0, 0.0, 1.0]], [0, 0, 1]),
            "branch_energies rows": lambda v: branch_energies(
                [1.0, v], [[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]], [0, 0, 1]
            ),
            "RingSpec": lambda v: RingSpec(8, 1.0, 0.0, v),
            "dirac": lambda v: dirac(SECTION, v),
            "kernel_mode": lambda v: kernel_mode(THETA, v, 1),
            "ring-spectrum --m": lambda v: _cli(
                "ring-spectrum", "--sites", "8", "--length", "1", f"--m={v!r}"
            ),
            "map-check --m": lambda v: _cli(
                "map-check", "--sites", "16", "--sections", "1", f"--m={v!r}"
            ),
        },
        NEGATIVE,
    ),
    (
        "scale must be finite",
        {
            "branch_energies": lambda v: branch_energies(
                1.0, [[0.0, 0.0, 1.0]], [0, 0, 1], scale=v
            ),
            "WindingGradient": lambda v: WindingGradient([0.0, 0.0, 1.0], v),
            "kernel_mode": lambda v: kernel_mode(THETA, 1.0, 1, v),
        },
        NOT_FINITE,
    ),
    (
        "circumference must be positive and finite",
        {
            "RingSpec": lambda v: RingSpec(8, v, 0.0),
            "SampledSection": lambda v: SampledSection(np.ones((8, 4)), Structure.EXOTIC, v),
            "ThetaField": lambda v: ThetaField(np.zeros(8), 0, v),
            "build_theta": lambda v: build_theta(8, v, 1),
            "plane_wave_section": lambda v: plane_wave_section(8, v, 1, [1.0, 0.0, 0.0, 0.0]),
            "ring-spectrum --length": lambda v: _cli(
                "ring-spectrum", "--sites", "8", f"--length={v!r}"
            ),
            "map-check --length": lambda v: _cli(
                "map-check", "--sites", "16", "--sections", "1", f"--length={v!r}"
            ),
        },
        NOT_POSITIVE,
    ),
    (
        "twist must be finite",
        {"RingSpec": lambda v: RingSpec(8, 1.0, v)},
        NOT_FINITE,
    ),
    (
        "angle samples must be finite",
        {"ThetaField": lambda v: ThetaField([0.0, 0.0, v, 0.0], 0, 1.0)},
        NOT_FINITE,
    ),
    (
        "section values must be finite",
        {
            "SampledSection": lambda v: SampledSection(
                [[0.0] * 4, [0.0] * 4, [0.0, v, 0.0, 0.0], [0.0] * 4], Structure.EXOTIC, 1.0
            )
        },
        NOT_FINITE,
    ),
    (
        "gradient data must be finite",
        {
            "branch_energies": lambda v: branch_energies(1.0, [[0.0, 0.0, 1.0]], [0.0, 0.0, v]),
            "WindingGradient": lambda v: WindingGradient([0.0, v, 0.0]),
        },
        NOT_FINITE,
    ),
    (
        "momentum must be a 3-vector",
        {
            "ModeSpec": lambda v: ModeSpec(1.0, v, Branch.STANDARD),
            "signed_shift": lambda v: signed_shift(FIELD, v),
        },
        BAD_SHAPES,
    ),
    (
        "k must be a 3-vector",
        {"WindingGradient": lambda v: WindingGradient(v)},
        BAD_SHAPES,
    ),
    (
        "--count must be non-negative",
        {
            "sweep": lambda v: _sweep(count=v),
            "ring-spectrum": lambda v: _cli(
                "ring-spectrum", "--sites", "8", "--length", "1", f"--count={v}"
            ),
        },
        (-1,),
    ),
    (
        "--sections must be non-negative",
        {"map-check": lambda v: _cli("map-check", "--sites", "16", f"--sections={v}")},
        (-1,),
    ),
    (
        "--seed must be non-negative",
        {"map-check": lambda v: _cli("map-check", "--sites", "16", f"--seed={v}")},
        (-1,),
    ),
    (
        "tol must be positive and finite, got {value!r}",
        {
            "preferred_branch": lambda v: preferred_branch(FIELD, [0.0, 0.0, 1.0], v),
            "map_checks": lambda v: map_checks([], THETA, 1.0, tol=v),
            "preference --tol": lambda v: _cli(
                "preference", "--p", "0,0,1", "--k", "0,0,1", f"--tol={v!r}"
            ),
            # the tol is refused before the events file is read
            "algebra chain --tol": lambda v: _cli(
                "algebra", "chain", "--initial", "(a,b)", "--events", "events.json",
                "--p", "0,0,1", "--k", "0,0,1", f"--tol={v!r}",
            ),
            "map-check --tol": lambda v: _cli(
                "map-check", "--sites", "16", "--sections", "1", f"--tol={v!r}"
            ),
        },
        NOT_POSITIVE,
    ),
    (
        "winding must be an integer",
        {"ThetaField": lambda v: ThetaField(np.zeros(8), v, 1.0)},
        NOT_WHOLE,
    ),
]

CASES = [
    pytest.param(message, call, value, id=f"{message} | {site} | {value!r}")
    for message, sites, values in RULES
    for site, call in sites.items()
    for value in values
]


@pytest.mark.parametrize("message, call, value", CASES)
def test_each_shared_rule_refuses_with_its_one_message(message, call, value):
    with pytest.raises(DomainError) as caught:
        call(value)
    assert str(caught.value) == message.format(value=value)


@pytest.mark.parametrize(
    "call",
    [
        lambda: ModeSpec(0.0, [0.0, 0.0, 1.0], Branch.STANDARD),
        lambda: branch_energies([0.0, 1.0], [[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]], [0, 0, 1]),
        lambda: RingSpec(8, 1.0, 0.0, 0.0),
        lambda: kernel_mode(THETA, 0.0, 1),
        lambda: _sweep(count=0),
        lambda: ThetaField(np.zeros(8), 0.0, 1.0),
    ],
)
def test_the_edge_of_each_rule_is_accepted(call):
    # mass 0, count 0 and a winding given as a whole float are in the domain
    call()
