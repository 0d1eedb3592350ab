"""Named invariant checks, grouped into suites for the verify command.

Each check returns its name, a pass flag, and a short detail string.  The
suites are deliberately cheap (tens of milliseconds at their default
sizes); the acceptance tests run the same suites at larger sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import chains, magma
from .dispersion import (
    Preference,
    Structure,
    branch_energies,
    default_degeneracy_tol,
    preferred_branch,
)
from .errors import DomainError
from .lattice import (
    STRUCTURE_TWIST,
    RingSpec,
    analytic_levels,
    dirac_ring_spectrum,
    mode_indices,
    ring_spectrum,
)
from .sections import half_phase, map_checks, random_band_limited_section, to_standard
from .winding import (
    TWO_PI,
    WindingGradient,
    build_theta,
    gradient_field,
    involute,
    involuted,
    wrap_angle,
)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


def winding_checks(seed: int = 7) -> list[Check]:
    checks = []
    field = gradient_field(build_theta(64, 1.0, 1))
    err = abs(field.holonomy - TWO_PI)
    checks.append(Check("holonomy-wound", err <= 1e-10, f"|holonomy - 2pi| = {err:.3g}"))

    flat = gradient_field(build_theta(64, 1.0, 0))
    checks.append(
        Check("holonomy-flat", flat.holonomy == 0.0, f"holonomy = {flat.holonomy!r}")
    )

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(25):
        sites = int(rng.integers(8, 128))
        length = float(rng.uniform(0.5, 20.0))
        winding = int(rng.integers(-3, 4))
        field = gradient_field(build_theta(sites, length, winding))
        worst = max(worst, abs(field.holonomy - TWO_PI * winding) / (1.0 + abs(winding)))
    checks.append(Check("holonomy-random", worst <= 1e-10, f"worst scaled error {worst:.3g}"))

    theta = build_theta(48, 3.0, 2)
    twice = involute(involute(theta))
    same = np.max(np.abs(wrap_angle(twice.samples - theta.samples))) < 1e-9
    same = same and twice.winding == theta.winding
    flipped = gradient_field(involute(theta))
    mirror = involuted(gradient_field(theta))
    same_k = np.allclose(flipped.k, mirror.k, atol=1e-15)
    checks.append(Check("involution", same and same_k, "double involution restores field"))
    return checks


def dispersion_checks(samples: int = 400, seed: int = 11) -> list[Check]:
    checks = []
    probe = WindingGradient(k=np.array([0.0, 0.0, 0.01]), holonomy=0.02 * math.pi, scale=1.0)
    frozen = branch_energies(1.0, [[0.0, 0.0, 0.5]], probe.k, probe.scale)
    e_plus = float(frozen.semiclassical_plus[0])
    e_minus = float(frozen.semiclassical_minus[0])
    ok = abs(e_plus - 1.2475) <= 1e-12 and abs(e_minus - 1.2525) <= 1e-12
    gap = float(frozen.signed_shift[0])
    ok = ok and gap == 0.005
    checks.append(Check("frozen-first-order", ok, f"E+ {e_plus!r}, E- {e_minus!r}, gap {gap!r}"))

    exact_plus = float(frozen.exact_plus[0])
    exact_minus = float(frozen.exact_minus[0])
    ok = (
        abs(exact_plus - math.sqrt(1.2401)) <= 1e-12
        and abs(exact_minus - math.sqrt(1.2601)) <= 1e-12
    )
    checks.append(Check("frozen-closed-form", ok, f"E+ {exact_plus!r}, E- {exact_minus!r}"))

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
        field = WindingGradient(k=k, holonomy=float(k[2]))
        degenerate = preferred_branch(field, p, tol) is Preference.DEGENERATE
        violations += degenerate != (abs(shift) <= tol)
    predicted = 2.0 * kp / np.sqrt(energies.rest)
    excess = np.abs(energies.gap_exact - predicted) - 10.0 * np.vecdot(ks, ks)
    worst_expansion = float(np.max(excess, initial=0.0))
    checks.append(Check("gap-sign", violations == 0, f"{violations} sign violations"))
    checks.append(
        Check("gap-expansion", worst_expansion <= 0.0, f"worst excess {worst_expansion:.3g}")
    )

    # bit for bit at a fixed (m, p) and 50 random ones, as one batch
    flat = gradient_field(build_theta(64, TWO_PI, 0))
    masses = np.append(0.5, rng.uniform(0.1, 2.0, 50))
    momenta = np.vstack(([0.3, -0.2, 0.7], rng.uniform(-2.0, 2.0, (50, 3))))
    energies = branch_energies(masses, momenta, flat.k, flat.scale)
    collapse = all(
        np.array_equal(branch, standard)
        for branch, standard in (
            (energies.semiclassical_plus, energies.rest),
            (energies.semiclassical_minus, energies.rest),
            (energies.exact_plus, energies.exact_standard),
            (energies.exact_minus, energies.exact_standard),
        )
    )
    checks.append(Check("flat-collapse", collapse, "all branches agree at k = 0"))

    pref = preferred_branch(probe, np.array([0.3, 0.4, 0.0]))
    ok = pref is Preference.DEGENERATE
    # k.p at zero, inside and outside the default band
    p = np.array([0.0, 0.0, 1.0])
    tol = default_degeneracy_tol(p)
    for kz, inside in ((0.0, True), (0.4 * tol, True), (3.0 * tol, False)):
        field = WindingGradient(k=np.array([0.0, 0.0, kz]), holonomy=kz)
        ok = ok and (preferred_branch(field, p, tol) is Preference.DEGENERATE) == inside
    checks.append(Check("perpendicular-degenerate", ok, f"k.p = 0 classified {pref.value}"))
    return checks


def sections_checks(sections: int = 6, seed: int = 3) -> list[Check]:
    checks = []
    sites, length = 64, TWO_PI
    theta = build_theta(sites, length, 1)
    rng = np.random.default_rng(seed)

    drawn = [random_band_limited_section(sites, length, rng) for _ in range(sections)]
    *residuals, (_, ker, ker_bound), (_, mapped, mapped_bound) = map_checks(
        drawn, theta, 1.0, harmonic=2
    )
    names = (
        "intertwine-plus",
        "intertwine-minus",
        "phase-commutation",
        "density-invariance",
        "map-roundtrip",
    )
    for name, (_, value, bound) in zip(names, residuals):
        checks.append(Check(name, value <= bound, f"max {value:.3g}"))
    ok = ker <= ker_bound and mapped <= mapped_bound
    checks.append(
        Check("kernel-transport", ok, f"kernel {ker:.3g}, mapped {mapped:.3g}")
    )

    flat_theta = build_theta(sites, length, 0)
    flat_phase = half_phase(flat_theta)
    section = random_band_limited_section(sites, length, rng)
    image = to_standard(section, flat_phase)
    identity = bool(np.all(flat_phase.values == 1.0))
    identity = identity and np.array_equal(image.values, section.values)
    identity = identity and not image.antiperiodic
    # and the flat field selects the parity table
    table = chains.select_table(gradient_field(flat_theta), np.array([0.3, -1.2, 0.8]))
    checks.append(
        Check("flat-identity", identity and table == "z2", "zero winding maps sections unchanged")
    )
    return checks


def algebra_checks() -> list[Check]:
    checks = []
    report = magma.analyze(magma.builtin("z2"))
    ok = (
        report.identities == ("S",)
        and report.is_group
        and not report.commutativity_violations
        and report.associativity_violations == 0
    )
    checks.append(Check("z2-group", ok, "parity table is the 2-element group"))

    std = magma.builtin("prefer_standard")
    report = magma.analyze(std)
    dot = magma.DOT
    ok = (
        report.identities == (f"({dot},ab)",)
        and report.absorbers == (f"(ab,{dot})",)
        and report.commutativity_violations == (("(a,b)", "(b,a)"),)
        and report.associativity_violations > 0
        and not report.is_group
    )
    checks.append(
        Check(
            "prefer-standard-structure",
            ok,
            f"single commuting failure {report.commutativity_violations}",
        )
    )

    exo = magma.builtin("prefer_exotic")
    report = magma.analyze(exo)
    ok = (
        report.identities == (f"(ab,{dot})",)
        and report.absorbers == (f"({dot},ab)",)
        and report.commutativity_violations == ()
        and not report.is_group
    )
    checks.append(Check("prefer-exotic-structure", ok, "mirror table, no commuting failure"))

    roundtrip = magma.from_json(magma.to_json(std))
    ok = roundtrip.carrier == std.carrier and roundtrip.table == std.table
    checks.append(Check("magma-json", ok, "JSON round-trip preserves the table"))
    return checks


def chains_checks() -> list[Check]:
    checks = []
    up = WindingGradient(k=np.array([0.0, 0.0, 1.0]), holonomy=TWO_PI)
    momentum = np.array([0.0, 0.0, 0.5])
    dot = magma.DOT

    ctx = chains.build_context(up, momentum)
    final, trace = chains.run_chain(
        f"({dot},ab)", [chains.ChainEvent("(b,a)")], ctx
    )
    checks.append(
        Check(
            "chain-identity-start",
            final == "(b,a)" and trace[0].table == "prefer_standard",
            f"final {final}",
        )
    )

    final, trace = chains.run_chain(
        "(a,b)", [chains.ChainEvent("(a,b)", involute_first=True)], ctx
    )
    ok = final == "(a,b)" and trace[0].table == "prefer_exotic"
    checks.append(Check("chain-involution-swap", ok, f"table {trace[0].table}"))

    final, trace = chains.run_chain(
        "(a,b)",
        [chains.ChainEvent("(b,a)", involute_first=True),
         chains.ChainEvent("(b,a)", involute_first=True)],
        ctx,
    )
    ok = trace[0].table == "prefer_exotic" and trace[1].table == "prefer_standard"
    restored = involuted(involuted(up))
    ok = ok and np.array_equal(restored.k, up.k) and restored.holonomy == up.holonomy
    checks.append(Check("chain-double-involution", ok, "two flips restore the table"))

    perp = chains.build_context(up, np.array([1.0, 0.0, 0.0]))
    final, _ = chains.run_chain(
        "S", [chains.ChainEvent("C"), chains.ChainEvent("C")], perp
    )
    ok = final == "S"
    # random chains over the parity labels and their aliases, at a fixed seed
    rng = np.random.default_rng(6)
    labels = ("S", "C", "(a,b)", "(b,a)")
    for _ in range(25):
        picks = [labels[int(rng.integers(0, 4))] for _ in range(int(rng.integers(1, 9)))]
        start = labels[int(rng.integers(0, 4))]
        end, _ = chains.run_chain(start, [chains.ChainEvent(pick) for pick in picks], perp)
        parity = sum(label in ("C", "(b,a)") for label in (start, *picks)) % 2
        ok = ok and end == ("C" if parity else "S")
    checks.append(Check("chain-parity", ok, f"C twice is even, final {final}"))

    try:
        chains.run_chain("S", [chains.ChainEvent(f"(ab,{dot})")], perp)
        ok = False
    except DomainError:
        ok = True
    checks.append(Check("chain-degenerate-guard", ok, "absorber label rejected under z2"))

    ok = True
    # prefer_standard absorbs into (ab,.), its mirror prefer_exotic into (.,ab)
    for field, absorber in ((up, f"(ab,{dot})"), (involuted(up), f"({dot},ab)")):
        operands = (absorber, "(b,a)", "(a,b)", f"({dot},ab)")
        final, trace = chains.run_chain(
            "(a,b)",
            [chains.ChainEvent(operand) for operand in operands],
            chains.build_context(field, momentum),
        )
        ok = ok and final == absorber and all(step.state == absorber for step in trace)
    checks.append(
        Check("chain-absorber", ok, "absorbing state persists while the table is fixed")
    )
    return checks


def lattice_deviation(spec: RingSpec, field: WindingGradient) -> float:
    """Largest |lattice - closed form| energy over the modes of a twisted ring.

    The lattice side takes the numerical momentum levels e_n and forms
    sqrt(m^2 + e_n^2).  The continuum side evaluates the closed form on the
    integer-quantized base momenta 2*pi*n/L with the branch that adds the
    field shift s*k3 (the standard branch when the shift is zero).  Both
    lists are sorted and compared elementwise.  The caller matches s*k3 to
    the twist (a pi/L shift for twist pi); a mismatch is exactly what the
    deviation exposes.  The field must point along the ring, and one whose
    holonomy and k3 imply another circumference than the lattice's is
    rejected.
    """
    if field.k[0] != 0.0 or field.k[1] != 0.0:
        raise DomainError("field must point along the ring")
    k3 = float(field.k[2])
    length = spec.circumference
    if k3 != 0.0:
        implied = field.holonomy / k3
        if abs(implied - length) > 1e-9 * length:
            raise DomainError(
                f"field implies circumference {implied:.12g}, lattice has {length:.12g}"
            )
    lattice = np.sort(np.sqrt(spec.mass**2 + ring_spectrum(spec) ** 2))
    ring_momenta = TWO_PI * mode_indices(spec) / length
    momenta = np.column_stack((np.zeros((len(ring_momenta), 2)), ring_momenta))
    # the minus branch adds s*k3; with no shift it is the standard branch
    energies = branch_energies(spec.mass, momenta, field.k, field.scale, "exact")
    return float(np.max(np.abs(lattice - np.sort(energies.exact_minus))))


def lattice_checks() -> list[Check]:
    checks = []
    errors = []
    for twist in STRUCTURE_TWIST.values():
        spec = RingSpec(sites=8, circumference=TWO_PI, twist=twist)
        errors.append(np.max(np.abs(ring_spectrum(spec) - analytic_levels(spec))))
    ok = max(errors) <= 1e-12
    checks.append(
        Check("quantization", ok, f"integer {errors[0]:.3g}, half-integer {errors[1]:.3g}")
    )

    massive = RingSpec(sites=8, circumference=TWO_PI, twist=0.0, mass=1.0)
    spectrum = dirac_ring_spectrum(massive, Structure.STANDARD)
    ok = (
        abs(spectrum.eigenvalues[0] - 1.0) <= 1e-9
        and spectrum.multiplicities[0] == 1
        and spectrum.multiplicities[1] == 2
    )
    spectrum = dirac_ring_spectrum(massive, Structure.EXOTIC)
    ok = ok and abs(spectrum.eigenvalues[0] - math.sqrt(1.25)) <= 1e-9
    ok = ok and spectrum.multiplicities[0] == 2
    massless = RingSpec(sites=8, circumference=TWO_PI, twist=0.0)
    ok = ok and abs(dirac_ring_spectrum(massless, Structure.STANDARD).eigenvalues[0]) <= 1e-12
    exotic = dirac_ring_spectrum(massless, Structure.EXOTIC)
    ok = ok and abs(exotic.eigenvalues[0] - 0.5) <= 1e-12
    checks.append(Check("degeneracy-lifting", ok, "ground multiplicity 1 vs 2"))

    # ascending, so E -> -E pairs the i-th lowest level with the i-th highest
    values = ring_spectrum(massive, first_order=False)
    sym = float(np.max(np.abs(values + values[::-1])))
    checks.append(Check("charge-symmetry", sym <= 1e-12, f"E -> -E asymmetry {sym:.3g}"))

    half_integer = RingSpec(sites=8, circumference=TWO_PI, twist=math.pi, mass=1.0)
    field = gradient_field(build_theta(8, TWO_PI, 1), scale=0.5)
    deviation = lattice_deviation(half_integer, field)
    checks.append(
        Check("lattice-vs-closed-form", deviation <= 1e-12, f"max deviation {deviation:.3g}")
    )

    flat = gradient_field(build_theta(8, TWO_PI, 0))
    mismatch = lattice_deviation(half_integer, flat)
    checks.append(
        Check("twist-mismatch-detected", mismatch > 0.01, f"max deviation {mismatch:.3g}")
    )
    return checks


SUITES = {
    "winding": winding_checks,
    "dispersion": dispersion_checks,
    "sections": sections_checks,
    "algebra": algebra_checks,
    "chains": chains_checks,
    "lattice": lattice_checks,
}


def run_suite(name: str) -> list[Check]:
    if name == "all":
        out: list[Check] = []
        for suite in SUITES.values():
            out.extend(suite())
        return out
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or all")
    return SUITES[name]()
