"""Sampled spinor sections and the half-angle map between structures.

Sections of the two spinor structures are sampled on the same ring grid as
the angle fields: an (N, 4) complex array of spinor values at x_j = j*L/N.
The map between structures is pointwise multiplication by the unimodular
half phase U(x) = exp(i*theta(x)/2).  U is a property of the angle field
alone, so it lives there as ThetaField.half_phase, built from the
unwrapped angle so the lift through the double cover is smooth, and the
map and the residuals below take the ThetaField itself.  U^2 is
single-valued with the winding of theta; U itself is single-valued only
for even winding, so the image of a periodic section picks up an
antiperiodic boundary sector when the winding is odd.  Each section
carries that sector as a flag and the ring derivative respects it
(antiperiodic data is differentiated on the doubled ring, never by
re-using the phase factor, so the intertwining checks below are not
circular).

Operator conventions, fixed once here: with the Dirac-representation
matrices and the mode ansatz exp(-i*E*t) chi(x3), the standard operator
acts as

    D0 chi = (E*g0 - m) chi + i*g3 chi'

and the shifted operators differ by the multiplier induced by the half
phase,

    D_plus  = D0 - (s/2) * theta'(x) * g3,
    D_minus = D0 + (s/2) * theta'(x) * g3,

so D_minus at scale s is D_plus at -s.  dirac applies all three: D0, plus
the multiplier term when a pointwise multiplier is given.  At convention
scale s = 1 the identities

    U * (D_plus psi)  = D0 (U * psi)       (exotic section psi)
    U * (D0 psi)      = D_minus (U * psi)

hold exactly; the residual functions report how far a given section is
from them.  intertwining_residual measures both identities in one pass, and
map_checks lists every phase-map residual and the kernel pair as (key,
value, bound) from one angle field and one multiplier, the one list of
bounds that map-check and verify's sections suite both read.  Plane-wave
kernel modes of D_plus at ring momentum q sit at E = sqrt(m^2 + (q +
c*k3)^2), c = shift_coefficient(s): the closed form's minus branch at c
(see WindingGradient).  The sign is a labelling convention (flip the
winding to swap it), pinned so the residuals vanish with U = e^{i theta/2}.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .dispersion import Structure
from .errors import (
    DomainError,
    as_bool,
    check_circumference,
    check_finite,
    check_mass,
    check_tol,
    parse_json,
)
from .gamma import GAMMA0, GAMMA3
from .winding import (
    ThetaField,
    WindingGradient,
    gradient_field,
    pointwise_gradient,
    shift_coefficient,
)


@dataclass(frozen=True)
class SampledSection:
    """Spinor values on the ring grid, tagged by structure and boundary sector."""

    values: np.ndarray
    structure: Structure
    circumference: float
    antiperiodic: bool = False

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[1] != 4 or values.shape[0] < 4:
            raise DomainError("section values must be an (N, 4) array with N >= 4")
        check_finite("section values", values)
        check_circumference(self.circumference)
        if not isinstance(self.structure, Structure):
            raise DomainError("structure must be a Structure value")

    @property
    def sites(self) -> int:
        return int(self.values.shape[0])


def _check_grid(section: SampledSection, theta: ThetaField) -> None:
    """The section must sit on the ring grid of the angle field and its phase."""
    if section.sites != theta.sites:
        raise DomainError(
            f"section and phase live on different grids: {section.sites} and {theta.sites} sites"
        )
    if abs(section.circumference - theta.circumference) > 1e-12 * theta.circumference:
        raise DomainError(
            "section and phase circumferences differ: "
            f"{section.circumference!r} and {theta.circumference!r}"
        )


def to_standard(section: SampledSection, theta: ThetaField) -> SampledSection:
    """Carry an exotic section to the standard structure (multiply by U)."""
    _check_grid(section, theta)
    if section.structure is not Structure.EXOTIC:
        raise DomainError("to_standard expects an exotic section")
    return SampledSection(
        values=section.values * theta.half_phase[:, None],
        structure=Structure.STANDARD,
        circumference=section.circumference,
        antiperiodic=section.antiperiodic ^ (theta.winding % 2 == 1),
    )


def to_exotic(section: SampledSection, theta: ThetaField) -> SampledSection:
    """Inverse map: standard to exotic (multiply by conj(U))."""
    _check_grid(section, theta)
    if section.structure is not Structure.STANDARD:
        raise DomainError("to_exotic expects a standard section")
    return SampledSection(
        values=section.values * np.conj(theta.half_phase)[:, None],
        structure=Structure.EXOTIC,
        circumference=section.circumference,
        antiperiodic=section.antiperiodic ^ (theta.winding % 2 == 1),
    )


def ring_derivative(
    values: np.ndarray, circumference: float, antiperiodic: bool = False
) -> np.ndarray:
    """Spectral d/dx along the ring of (N, 4) values, exact for band-limited data.

    Antiperiodic data is extended to the doubled ring as [v, -v], where it
    is an honest periodic function with odd half-integer harmonics, then
    differentiated there and restricted back.
    """
    values = np.asarray(values, dtype=complex)
    n = values.shape[0]
    if antiperiodic:
        extended = np.concatenate([values, -values], axis=0)
        return ring_derivative(extended, 2.0 * circumference, False)[:n]
    freqs = 2j * math.pi * np.fft.fftfreq(n, d=circumference / n)
    return np.fft.ifft(freqs[:, None] * np.fft.fft(values, axis=0), axis=0)


def _shift(values: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
    """The multiplier term multiplier(x) * g3 psi of a shifted operator."""
    return multiplier[:, None] * (values @ GAMMA3.T)


def dirac(
    section: SampledSection,
    mass: float,
    energy: float = 0.0,
    multiplier: np.ndarray | None = None,
) -> np.ndarray:
    """Apply D0 on a mode ansatz section, plus multiplier * g3 when given.

    Returns the (N, 4) array of image values.  multiplier holds one
    pointwise factor per site: -(s/2)*theta' gives D_plus at scale s, and
    its negation D_minus (see module docstring).  Finite values whose image
    overflows float64 are a DomainError naming the operator and m.
    """
    check_mass(mass)
    if multiplier is not None:
        multiplier = np.asarray(multiplier)
        if multiplier.shape != (section.sites,):
            raise DomainError("multiplier must hold one value per section site")
    with np.errstate(over="ignore", invalid="ignore"):
        derivative = ring_derivative(
            section.values, section.circumference, section.antiperiodic
        )
        values = -mass * section.values
        if energy != 0.0:
            values = values + energy * (section.values @ GAMMA0.T)
        values = values + 1j * (derivative @ GAMMA3.T)
        if multiplier is not None:
            values = values + _shift(section.values, multiplier)
    if not np.isfinite(values).all():
        raise DomainError(f"Dirac operator D psi overflows float64 at m = {mass!r}")
    return values


def _scaled_to_largest(values: np.ndarray) -> tuple[np.ndarray, float]:
    """values / 2^e and 2^e, the power of two that puts max|v| / 2^e in [1, 2).

    Exact wherever the result is normal, so the scaled values keep their bits.
    """
    exponent = math.frexp(float(np.max(np.abs(values))))[1] - 1
    # part by part: np.ldexp takes no complex values
    scaled = np.ldexp(values.real, -exponent) + 1j * np.ldexp(values.imag, -exponent)
    return scaled, math.ldexp(1.0, exponent)


def grid_norm(values: np.ndarray, circumference: float) -> float:
    """Discrete L2 norm over the grid, sqrt(sum |v|^2 * L/N).

    Summed from the values scaled by a power of two to their largest
    modulus, with sqrt(L/N) taken apart, as reference dnrm2 scales: a norm
    within float64 reads finite and a tiny one keeps its digits.
    """
    values, scale = _scaled_to_largest(np.asarray(values))
    return scale * (
        math.sqrt(float(np.sum(np.abs(values) ** 2)))
        * math.sqrt(circumference / values.shape[0])
    )


def intertwining_residual(
    section: SampledSection,
    theta: ThetaField,
    multiplier: np.ndarray,
    mass: float,
    energy: float = 0.0,
) -> tuple[float, float]:
    """Grid norms of the failures of both half-phase operator identities.

    multiplier is D_plus's pointwise factor -(s/2)*theta' on the grid, so
    D_plus = D0 + multiplier*g3 and D_minus = D0 - multiplier*g3.  Returns
    (plus, minus): ||U*(D_plus psi) - D0(U*psi)|| and ||U*(D0 psi) -
    D_minus(U*psi)|| on an exotic section psi, from one D0 psi, one D0(U*psi)
    and theta's one U.  Both vanish to rounding at scale 1 for band-limited
    sections.
    """
    image = to_standard(section, theta)
    free = dirac(section, mass, energy)
    free_image = dirac(image, mass, energy)
    u = theta.half_phase[:, None]
    plus = (free + _shift(section.values, multiplier)) * u - free_image
    minus = free * u - (free_image + _shift(image.values, -multiplier))
    return grid_norm(plus, section.circumference), grid_norm(minus, section.circumference)


def commutation_residual(
    section: SampledSection, field: WindingGradient, theta: ThetaField
) -> float:
    """Sup-norm commutator of the phase with the multiplier -c*k3, c = field.scale.

    The multiplier is a constant matrix times a pointwise factor, so it
    commutes with multiplication by U up to rounding; with zero winding both
    sides are identically zero and the residual is exactly 0.0.
    """
    _check_grid(section, theta)
    u = theta.half_phase[:, None]
    multiplier = -field.scale * field.k[2]
    shifted = multiplier * (section.values @ GAMMA3.T)
    lhs = shifted * u
    rhs = multiplier * ((section.values * u) @ GAMMA3.T)
    return float(np.max(np.abs(lhs - rhs)))


def density_residual(section: SampledSection, theta: ThetaField) -> float:
    """Max pointwise change of the spinor density under the phase map."""
    _check_grid(section, theta)
    before = np.sum(np.abs(section.values) ** 2, axis=1)
    after = np.sum(np.abs(section.values * theta.half_phase[:, None]) ** 2, axis=1)
    return float(np.max(np.abs(after - before)))


# The bound of each map_checks key, in its order, as multiple * tol + fixed:
# the intertwining and kernel residuals are held to multiples of the
# caller's tol, the rounding-level identities to a fixed 1e-15.  map_checks
# is the one reader.
_BOUNDS = {
    "intertwine_plus": (1.0, 0.0),
    "intertwine_minus": (1.0, 0.0),
    "commutation": (0.0, 1e-15),
    "density": (0.0, 1e-15),
    "roundtrip": (0.0, 1e-15),
    "kernel_residual": (1.0, 0.0),
    "mapped_kernel_residual": (1.0 + 1e-6, 0.0),
}


def random_band_limited_section(
    sites: int,
    circumference: float,
    rng: np.random.Generator,
) -> SampledSection:
    """Random exotic section with harmonics |n| <= sites/4, unit sup density.

    Band limiting keeps the spectral derivative exact; the normalization
    keeps unimodularity rounding below 1e-15 in the density check.  The
    coefficients of harmonics -cutoff..cutoff are drawn as real then
    imaginary parts, four components each, in one call, and summed on the
    grid by a single inverse FFT.
    """
    if sites < 8:
        raise DomainError("need at least 8 sites for a band-limited section")
    cutoff = sites // 4
    draws = rng.standard_normal((2 * cutoff + 1, 2, 4))
    spectrum = np.zeros((sites, 4), dtype=complex)
    # cutoff < sites/2, so the harmonics land on distinct DFT bins
    spectrum[np.arange(-cutoff, cutoff + 1) % sites] = draws[:, 0] + 1j * draws[:, 1]
    values = np.fft.ifft(spectrum, axis=0, norm="forward")
    density = np.max(np.sum(np.abs(values) ** 2, axis=1))
    values /= math.sqrt(density)
    return SampledSection(
        values=values, structure=Structure.EXOTIC, circumference=float(circumference)
    )


def plane_wave_section(
    sites: int,
    circumference: float,
    harmonic: int,
    spinor: np.ndarray,
) -> SampledSection:
    """Exotic section: harmonic exp(2*pi*i*n*x/L) times a constant spinor."""
    check_circumference(circumference)
    spinor = np.asarray(spinor, dtype=complex)
    if spinor.shape != (4,):
        raise DomainError("spinor must have 4 components")
    x = np.arange(sites) * (circumference / sites)
    wave = np.exp(2j * math.pi * harmonic * x / circumference)
    return SampledSection(
        values=wave[:, None] * spinor[None, :],
        structure=Structure.EXOTIC,
        circumference=float(circumference),
    )


def kernel_mode(
    theta: ThetaField, mass: float, harmonic: int, scale: float = 1.0
) -> tuple[SampledSection, float]:
    """Exact plane-wave kernel element of D_plus at convention scale s.

    Returns an exotic section at ring harmonic n together with the on-shell
    energy E = sqrt(m^2 + q_eff^2), q_eff = 2*pi*n/L + c*k3 with c =
    shift_coefficient(s).  The spinor is column 0 of the on-shell projector
    E*g0 - q_eff*g3 + m, normalized: its norm, sqrt(2E(E + m)), is the
    largest of the four columns'.  At E = m = 0 the projector vanishes and
    every spinor is in the kernel, so the spinor is e_0.  Applying D_plus at
    that energy annihilates the section up to rounding.  The column is
    scaled by a power of two to its largest entry before np.linalg.norm
    divides it, so a column above ~1e154 or below ~1e-154 still normalizes
    to a unit spinor, and any other column gets the bits of column / norm.
    A mass that is negative or not finite, a scale that is not finite, and
    an energy that overflows float64, are a DomainError.
    """
    check_mass(mass)
    check_finite("scale", scale)
    q = 2.0 * math.pi * harmonic / theta.circumference
    k3 = float(np.mean(pointwise_gradient(theta)))
    q_eff = q + shift_coefficient(scale) * k3
    try:
        energy = math.sqrt(mass**2 + q_eff**2)
    except OverflowError:
        energy = math.inf
    if not math.isfinite(energy):
        raise DomainError(
            f"kernel mode energy: m^2 + q_eff^2 overflows float64 at m = {mass!r}, q_eff = {q_eff!r}"
        )
    e0 = np.eye(4)[0]
    column, _ = _scaled_to_largest(energy * GAMMA0[:, 0] - q_eff * GAMMA3[:, 0] + mass * e0)
    norm = np.linalg.norm(column)
    spinor = column / norm if norm > 0.0 else e0
    return plane_wave_section(theta.sites, theta.circumference, harmonic, spinor), energy


def map_checks(
    sections: Iterable[SampledSection],
    theta: ThetaField,
    mass: float,
    scale: float = 1.0,
    harmonic: int = 1,
    tol: float | None = None,
) -> list[tuple[str, float, float]]:
    """Every half-phase identity as (key, value, bound), passing at value <= bound.

    First the worst over the sections of intertwine_plus and
    intertwine_minus (grid norms, see intertwining_residual), commutation,
    density and roundtrip, the sup norm of to_exotic(to_standard(psi)) -
    psi; all are 0.0 when no section is given.  Then kernel_residual and
    mapped_kernel_residual: the grid norms of D_plus on kernel_mode's
    section at the given harmonic and of D0 on its half-phase image.  tol
    (1e-10 when None) bounds the intertwining and kernel residuals and must
    be positive and finite; the other three are held to a fixed 1e-15.
    sections may be any iterable, read once; a residual that is not finite
    is a DomainError naming its key.
    """
    tol = 1e-10 if tol is None else tol
    check_tol(tol)
    # the kernel mode first: it rejects an overflowing energy before any
    # array is scaled or a section scanned
    mode, energy = kernel_mode(theta, mass, harmonic, scale)
    field = gradient_field(theta, scale=shift_coefficient(scale))
    multiplier = -field.scale * pointwise_gradient(theta)
    length = theta.circumference
    worst = dict.fromkeys(_BOUNDS, 0.0)
    worst["kernel_residual"] = grid_norm(dirac(mode, mass, energy, multiplier), length)
    worst["mapped_kernel_residual"] = grid_norm(
        dirac(to_standard(mode, theta), mass, energy), length
    )
    for section in sections:
        with np.errstate(over="ignore", invalid="ignore"):
            back = to_exotic(to_standard(section, theta), theta)
            residuals = (
                *intertwining_residual(section, theta, multiplier, mass),
                commutation_residual(section, field, theta),
                density_residual(section, theta),
                float(np.max(np.abs(back.values - section.values))),
            )
        # the five section keys lead the table, so zip stops at the kernel pair;
        # max() would keep the old worst over a nan, so a non-finite value is refused
        for key, value in zip(worst, residuals):
            if not math.isfinite(value):
                raise DomainError(f"map-check residual {key} overflows float64")
            worst[key] = max(worst[key], value)
    return [
        (key, worst[key], multiple * tol + fixed)
        for key, (multiple, fixed) in _BOUNDS.items()
    ]


def section_to_json(section: SampledSection) -> str:
    """Serialize as JSON with values stored as [re, im] pairs."""
    payload = {
        "structure": section.structure.value,
        "circumference": section.circumference,
        "antiperiodic": section.antiperiodic,
        "values": [
            [[float(v.real), float(v.imag)] for v in row] for row in section.values
        ],
    }
    return json.dumps(payload)


def _json_number(what: str, value):
    """value, a JSON number; a bool (float(True) is 1.0), a string or null is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"{what} must be a number")
    return value


def section_from_json(text: str) -> SampledSection:
    payload = parse_json(text, "section")
    try:
        values = np.array(
            [
                [complex(_json_number("section value", re), _json_number("section value", im))
                 for re, im in row]
                for row in payload["values"]
            ]
        )
        return SampledSection(
            values=values,
            structure=Structure(payload["structure"]),
            circumference=float(_json_number("circumference", payload["circumference"])),
            antiperiodic=as_bool("antiperiodic", payload.get("antiperiodic", False)),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed section JSON: {exc}") from None
