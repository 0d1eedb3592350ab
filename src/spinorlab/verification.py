"""Named invariant checks, grouped into suites for the verify command.

Each check is a (name, value, bound) triple, the shape sections.map_checks
returns, and passes at value <= bound.  A check that is not one number
against one bound reports the count of its failed conditions against a
bound of 0.  The suites are deliberately cheap (tens of milliseconds at
their default sizes); the acceptance tests run the same suites at larger
sizes.
"""

from __future__ import annotations

import math

import numpy as np

from . import chains, magma
from .dispersion import (
    Preference,
    Structure,
    branch_energies,
    default_degeneracy_tol,
    energy,
    preferred_branch,
)
from .errors import DomainError
from .lattice import (
    STRUCTURE_TWIST,
    RingSpec,
    analytic_levels,
    mode_indices,
    ring_modes,
    ring_spectrum,
)
from .sections import map_checks, random_band_limited_section, to_standard
from .winding import (
    TWO_PI,
    WindingGradient,
    build_theta,
    gradient_field,
    holonomy,
    involute,
    involuted,
    shift_coefficient,
    wrap_angle,
)


Checks = list[tuple[str, float, float]]


def _failures(name: str, *conditions) -> tuple[str, float, float]:
    """A check of several conditions: the count that failed, against 0."""
    return name, float(sum(not condition for condition in conditions)), 0.0


def winding_checks(seed: int = 7) -> Checks:
    checks = []
    err = abs(holonomy(build_theta(64, 1.0, 1)) - TWO_PI)
    checks.append(("holonomy-wound", err, 1e-10))
    checks.append(("holonomy-flat", abs(holonomy(build_theta(64, 1.0, 0))), 0.0))

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(25):
        sites = int(rng.integers(8, 128))
        length = float(rng.uniform(0.5, 20.0))
        winding = int(rng.integers(-3, 4))
        loop = holonomy(build_theta(sites, length, winding))
        worst = max(worst, abs(loop - TWO_PI * winding) / (1.0 + abs(winding)))
    checks.append(("holonomy-random", worst, 1e-10))

    theta = build_theta(48, 3.0, 2)
    twice = involute(involute(theta))
    flipped = gradient_field(involute(theta))
    mirror = involuted(gradient_field(theta))
    checks.append(_failures(
        "involution",
        np.max(np.abs(wrap_angle(twice.samples - theta.samples))) < 1e-9,
        twice.winding == theta.winding,
        np.allclose(flipped.k, mirror.k, atol=1e-15),
    ))
    return checks


def dispersion_checks(samples: int = 400, seed: int = 11) -> Checks:
    checks = []
    probe = WindingGradient(k=np.array([0.0, 0.0, 0.01]), scale=1.0)
    frozen = branch_energies(1.0, [[0.0, 0.0, 0.5]], probe.k, probe.scale)
    # np.max, unlike max(), keeps a nan from either branch
    first_order = np.array([frozen.semiclassical_plus[0], frozen.semiclassical_minus[0]])
    deviation = float(np.max(np.abs(first_order - (1.2475, 1.2525))))
    checks.append(("frozen-first-order", deviation, 1e-12))
    # the gap is exact at the reference point
    checks.append(("frozen-first-order-gap", float(abs(frozen.signed_shift[0] - 0.005)), 0.0))
    exact = np.array([frozen.exact_plus[0], frozen.exact_minus[0]])
    deviation = float(np.max(np.abs(exact - (math.sqrt(1.2401), math.sqrt(1.2601)))))
    checks.append(("frozen-closed-form", deviation, 1e-12))

    rng = np.random.default_rng(seed)
    masses = rng.uniform(0.2, 2.0, samples)
    momenta = rng.uniform(-2.0, 2.0, (samples, 3))
    directions = rng.standard_normal((samples, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    # |k| / (|p| + m) is uniform in [1e-8, 1e-2]
    ratios = rng.uniform(1e-6, 1.0, samples) * 1e-2
    ks = directions * (ratios * (np.linalg.norm(momenta, axis=1) + masses))[:, None]
    energies = branch_energies(masses, momenta, ks, 1.0, "exact")
    kp = np.vecdot(ks, momenta)
    sign = np.sign(kp)
    violations = int(
        np.sum((np.sign(energies.signed_shift) != sign) | (np.sign(energies.gap_exact) != sign))
    )
    # preferred_branch is degenerate exactly inside the band |s(k.p)| <= tol
    tols = default_degeneracy_tol(momenta).tolist()
    for p, k, shift, tol in zip(momenta, ks, energies.signed_shift.tolist(), tols):
        field = WindingGradient(k=k)
        degenerate = preferred_branch(field, p, tol) is Preference.DEGENERATE
        violations += degenerate != (abs(shift) <= tol)
    predicted = 2.0 * kp / np.sqrt(energies.rest)
    excess = np.abs(energies.gap_exact - predicted) - 10.0 * np.vecdot(ks, ks)
    worst_expansion = float(np.max(excess, initial=0.0))
    checks.append(("gap-sign", float(violations), 0.0))
    checks.append(("gap-expansion", worst_expansion, 0.0))

    # bit for bit at a fixed (m, p) and 50 random ones, as one batch
    flat = gradient_field(build_theta(64, TWO_PI, 0))
    masses = np.append(0.5, rng.uniform(0.1, 2.0, 50))
    momenta = np.vstack(([0.3, -0.2, 0.7], rng.uniform(-2.0, 2.0, (50, 3))))
    energies = branch_energies(masses, momenta, flat.k, flat.scale)
    branches = np.stack((
        energies.semiclassical_plus - energies.rest,
        energies.semiclassical_minus - energies.rest,
        energies.exact_plus - energies.exact_standard,
        energies.exact_minus - energies.exact_standard,
    ))
    checks.append(("flat-collapse", float(np.max(np.abs(branches))), 0.0))

    conditions = [preferred_branch(probe, np.array([0.3, 0.4, 0.0])) is Preference.DEGENERATE]
    # k.p at zero, inside and outside the default band
    p = np.array([0.0, 0.0, 1.0])
    tol = default_degeneracy_tol(p)
    for kz, inside in ((0.0, True), (0.4 * tol, True), (3.0 * tol, False)):
        field = WindingGradient(k=np.array([0.0, 0.0, kz]))
        conditions.append((preferred_branch(field, p, tol) is Preference.DEGENERATE) == inside)
    checks.append(_failures("perpendicular-degenerate", *conditions))
    return checks


def sections_checks(sections: int = 6, seed: int = 3) -> Checks:
    checks = []
    sites, length = 64, TWO_PI
    theta = build_theta(sites, length, 1)
    rng = np.random.default_rng(seed)

    drawn = [random_band_limited_section(sites, length, rng) for _ in range(sections)]
    checks.extend(map_checks(drawn, theta, 1.0, harmonic=2))

    flat_theta = build_theta(sites, length, 0)
    section = random_band_limited_section(sites, length, rng)
    image = to_standard(section, flat_theta)
    checks.append(_failures(
        "flat-identity",
        np.all(flat_theta.half_phase == 1.0),
        np.array_equal(image.values, section.values),
        not image.antiperiodic,
        # and the flat field selects the parity table
        chains.select_table(gradient_field(flat_theta), np.array([0.3, -1.2, 0.8])) == "z2",
    ))
    return checks


def algebra_checks() -> Checks:
    checks = []
    report = magma.analyze(magma.builtin("z2"))
    checks.append(_failures(
        "z2-group",
        report.identities == ("S",),
        report.is_group,
        not report.commutativity_violations,
        report.associativity_violations == 0,
    ))

    std = magma.builtin("prefer_standard")
    report = magma.analyze(std)
    dot = magma.DOT
    checks.append(_failures(
        "prefer-standard-structure",
        report.identities == (f"({dot},ab)",),
        report.absorbers == (f"(ab,{dot})",),
        report.commutativity_violations == (("(a,b)", "(b,a)"),),
        report.associativity_violations > 0,
        not report.is_group,
    ))

    report = magma.analyze(magma.builtin("prefer_exotic"))
    checks.append(_failures(
        "prefer-exotic-structure",
        report.identities == (f"(ab,{dot})",),
        report.absorbers == (f"({dot},ab)",),
        report.commutativity_violations == (),
        not report.is_group,
    ))

    roundtrip = magma.from_json(magma.to_json(std))
    checks.append(_failures(
        "magma-json", roundtrip.carrier == std.carrier, roundtrip.table == std.table
    ))
    return checks


def chains_checks() -> Checks:
    checks = []
    up = WindingGradient(k=np.array([0.0, 0.0, 1.0]))
    momentum = np.array([0.0, 0.0, 0.5])
    dot = magma.DOT

    table = chains.select_table(up, momentum)
    final, trace = chains.run_chain(f"({dot},ab)", [chains.ChainEvent("(b,a)")], table)
    checks.append(_failures(
        "chain-identity-start", final == "(b,a)", trace[0].table == "prefer_standard"
    ))

    final, trace = chains.run_chain(
        "(a,b)", [chains.ChainEvent("(a,b)", involute_first=True)], table
    )
    checks.append(_failures(
        "chain-involution-swap", final == "(a,b)", trace[0].table == "prefer_exotic"
    ))

    _, trace = chains.run_chain(
        "(a,b)",
        [chains.ChainEvent("(b,a)", involute_first=True),
         chains.ChainEvent("(b,a)", involute_first=True)],
        table,
    )
    restored = involuted(involuted(up))
    checks.append(_failures(
        "chain-double-involution",
        trace[0].table == "prefer_exotic",
        trace[1].table == "prefer_standard",
        np.array_equal(restored.k, up.k),
        restored.scale == up.scale,
    ))

    perp = chains.select_table(up, np.array([1.0, 0.0, 0.0]))
    final, _ = chains.run_chain(
        "S", [chains.ChainEvent("C"), chains.ChainEvent("C")], perp
    )
    conditions = [final == "S"]
    # random chains over the parity labels and their aliases, at a fixed seed
    rng = np.random.default_rng(6)
    labels = ("S", "C", "(a,b)", "(b,a)")
    for _ in range(25):
        picks = [labels[int(rng.integers(0, 4))] for _ in range(int(rng.integers(1, 9)))]
        start = labels[int(rng.integers(0, 4))]
        end, _ = chains.run_chain(start, [chains.ChainEvent(pick) for pick in picks], perp)
        parity = sum(label in ("C", "(b,a)") for label in (start, *picks)) % 2
        conditions.append(end == ("C" if parity else "S"))
    checks.append(_failures("chain-parity", *conditions))

    try:
        chains.run_chain("S", [chains.ChainEvent(f"(ab,{dot})")], perp)
        rejected = False
    except DomainError:
        rejected = True
    checks.append(_failures("chain-degenerate-guard", rejected))

    conditions = []
    # prefer_standard absorbs into (ab,.), its mirror prefer_exotic into (.,ab)
    for field, absorber in ((up, f"(ab,{dot})"), (involuted(up), f"({dot},ab)")):
        operands = (absorber, "(b,a)", "(a,b)", f"({dot},ab)")
        final, trace = chains.run_chain(
            "(a,b)",
            [chains.ChainEvent(operand) for operand in operands],
            chains.select_table(field, momentum),
        )
        conditions.append(final == absorber)
        conditions.append(all(step.state == absorber for step in trace))
    checks.append(_failures("chain-absorber", *conditions))
    return checks


def lattice_deviation(spec: RingSpec, field: WindingGradient) -> float:
    """Largest |lattice - closed form| energy over the modes of a twisted ring.

    The lattice side takes the numerical momentum levels e_n and forms
    sqrt(m^2 + e_n^2).  The continuum side evaluates the closed form on the
    integer-quantized base momenta 2*pi*n/L with the branch that adds the
    field shift c*k3 (the standard branch when the shift is zero).  Both
    sorted lists are compared elementwise, so a twist other than c*k3*L
    (see WindingGradient) shows as a deviation.  k must be along the ring.
    """
    if field.k[0] != 0.0 or field.k[1] != 0.0:
        raise DomainError("field must point along the ring")
    lattice = np.sort(energy(spec.mass, ring_spectrum(spec)[:, None]))
    ring_momenta = TWO_PI * mode_indices(spec) / spec.circumference
    momenta = np.column_stack((np.zeros((len(ring_momenta), 2)), ring_momenta))
    # the minus branch adds c*k3; with no shift it is the standard branch
    energies = branch_energies(spec.mass, momenta, field.k, field.scale, "exact")
    return float(np.max(np.abs(lattice - np.sort(energies.exact_minus))))


def lattice_checks() -> Checks:
    checks = []
    errors = []
    for twist in STRUCTURE_TWIST.values():
        spec = RingSpec(sites=8, circumference=TWO_PI, twist=twist)
        errors.append(np.max(np.abs(ring_spectrum(spec) - analytic_levels(spec))))
    checks.append(("quantization", float(np.max(errors)), 1e-12))

    def ground(mass: float, structure: Structure) -> tuple[float, int, int]:
        """The ground energy and the first two level multiplicities."""
        twist = STRUCTURE_TWIST[structure]
        _, _, energy, size = ring_modes(RingSpec(8, TWO_PI, twist, mass))
        return float(energy[0]), int(size[0]), int(size[size[0]])

    standard = ground(1.0, Structure.STANDARD)
    exotic = ground(1.0, Structure.EXOTIC)
    checks.append(_failures(
        "degeneracy-lifting",
        abs(standard[0] - 1.0) <= 1e-9,
        standard[1:] == (1, 2),
        abs(exotic[0] - math.sqrt(1.25)) <= 1e-9,
        exotic[1] == 2,
        abs(ground(0.0, Structure.STANDARD)[0]) <= 1e-12,
        abs(ground(0.0, Structure.EXOTIC)[0] - 0.5) <= 1e-12,
    ))

    # ascending, so E -> -E pairs the i-th lowest level with the i-th highest;
    # the 2N Dirac operator forms no square root, so its levels also check
    # +-energy(m, e_n) on the analytic e_n, independently of the closed form
    massive = RingSpec(sites=8, circumference=TWO_PI, twist=0.0, mass=1.0)
    values = ring_spectrum(massive, first_order=False)
    sym = float(np.max(np.abs(values + values[::-1])))
    energies = energy(massive.mass, analytic_levels(massive)[:, None])
    closed = float(np.max(np.abs(values - np.sort(np.concatenate((-energies, energies))))))
    checks.append(("charge-symmetry", float(np.max((sym, closed))), 1e-12))

    half_integer = RingSpec(8, TWO_PI, STRUCTURE_TWIST[Structure.EXOTIC], 1.0)
    field = gradient_field(build_theta(8, TWO_PI, 1), scale=shift_coefficient(1.0))
    checks.append(("lattice-vs-closed-form", lattice_deviation(half_integer, field), 1e-12))

    # a lower bound: the flat field must miss the half-integer ring
    flat = gradient_field(build_theta(8, TWO_PI, 0))
    mismatch = lattice_deviation(half_integer, flat)
    checks.append(_failures("twist-mismatch-detected", mismatch > 0.01))
    return checks


SUITES = {
    "winding": winding_checks,
    "dispersion": dispersion_checks,
    "sections": sections_checks,
    "algebra": algebra_checks,
    "chains": chains_checks,
    "lattice": lattice_checks,
}


def run_suite(name: str) -> Checks:
    if name == "all":
        out: Checks = []
        for suite in SUITES.values():
            out.extend(suite())
        return out
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or all")
    return SUITES[name]()
