"""Sampled spinor sections and the half-angle map between structures.

Sections of the two spinor structures are sampled on the same ring grid as
the angle fields: an (N, 4) complex array of spinor values at x_j = j*L/N.
The map between structures is pointwise multiplication by the unimodular
half phase U(x) = exp(i*theta(x)/2), built from the unwrapped angle so the
lift through the double cover is smooth.  U^2 is single-valued with the
winding of theta; U itself is single-valued only for even winding, so the
image of a periodic section picks up an antiperiodic boundary sector when
the winding is odd.  Each section carries that sector as a flag and the
ring derivative respects it (antiperiodic data is differentiated on the
doubled ring, never by re-using the phase factor, so the intertwining
checks below are not circular).

Operator conventions, fixed once here: with the Dirac-representation
matrices and the mode ansatz exp(-i*E*t + i*(p1*x1 + p2*x2)) chi(x3), the
standard operator acts as

    D0 chi = (E*g0 - p1*g1 - p2*g2 - m) chi + i*g3 chi'

and the shifted operators differ by the multiplier induced by the half
phase,

    D_plus  = D0 - (s/2) * theta'(x) * g3,
    D_minus = D0 + (s/2) * theta'(x) * g3,

so that at convention scale s = 1 the identities

    U * (D_plus psi)  = D0 (U * psi)       (exotic section psi)
    U * (D0 psi)      = D_minus (U * psi)

hold exactly; the residual functions report how far a given section is
from them.  intertwining_residual measures both identities in one pass, and
map_checks lists every phase-map residual and the kernel pair as (key,
value, bound), the one list of bounds that map-check and verify's sections
suite both read.  Plane-wave kernel modes of D_plus at ring momentum q sit
at E = sqrt(m^2 + (q + (s/2)*k3)^2); relative to the closed dispersion form
elsewhere in this package this is the opposite shift sign at half
magnitude, which is a pure labelling convention (flip the winding to swap
them) and is pinned here so the residuals vanish with U = e^{i theta/2}
literally.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .dispersion import Structure
from .errors import DomainError
from .gamma import GAMMA0, GAMMA1, GAMMA2, GAMMA3
from .winding import ThetaField, WindingGradient, gradient_field, pointwise_gradient

__all__ = [
    "SampledSection",
    "HalfWindingPhase",
    "half_phase",
    "to_standard",
    "to_exotic",
    "ring_derivative",
    "standard_dirac",
    "exotic_dirac",
    "intertwining_residual",
    "commutation_residual",
    "density_residual",
    "map_residuals",
    "kernel_residuals",
    "map_checks",
    "grid_norm",
    "random_band_limited_section",
    "plane_wave_section",
    "kernel_mode",
    "section_to_json",
    "section_from_json",
]


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
        if not np.all(np.isfinite(values)):
            raise DomainError("section values must be finite")
        if self.circumference <= 0.0 or not math.isfinite(self.circumference):
            raise DomainError("circumference must be positive and finite")
        if not isinstance(self.structure, Structure):
            raise DomainError("structure must be a Structure value")

    @property
    def sites(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True)
class HalfWindingPhase:
    """Unimodular samples of exp(i*theta/2); squares to winding w."""

    values: np.ndarray
    winding: int
    circumference: float

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size < 4:
            raise DomainError("phase must be a 1-d array with at least 4 samples")
        if np.max(np.abs(np.abs(values) - 1.0)) > 1e-12:
            raise DomainError("phase samples must be unimodular")

    @property
    def sites(self) -> int:
        return int(self.values.size)


def half_phase(theta: ThetaField) -> HalfWindingPhase:
    """Half-angle phase of a winding field, lifted smoothly.

    The samples are unwrapped before halving; halving the mod-2*pi
    representative instead would flip sign from sample to sample, which is
    precisely the double-valuedness this map exists to absorb.
    """
    unwrapped = np.unwrap(theta.samples)
    return HalfWindingPhase(
        values=np.exp(0.5j * unwrapped),
        winding=theta.winding,
        circumference=theta.circumference,
    )


def _check_grid(section: SampledSection, grid: HalfWindingPhase | ThetaField) -> None:
    """The section must sit on the ring grid of the phase or angle field."""
    if section.sites != grid.sites:
        raise DomainError("section and phase live on different grids")
    if abs(section.circumference - grid.circumference) > 1e-12 * grid.circumference:
        raise DomainError("section and phase circumferences differ")


def to_standard(section: SampledSection, phase: HalfWindingPhase) -> SampledSection:
    """Carry an exotic section to the standard structure (multiply by U)."""
    _check_grid(section, phase)
    if section.structure is not Structure.EXOTIC:
        raise DomainError("to_standard expects an exotic section")
    return SampledSection(
        values=section.values * phase.values[:, None],
        structure=Structure.STANDARD,
        circumference=section.circumference,
        antiperiodic=section.antiperiodic ^ (phase.winding % 2 == 1),
    )


def to_exotic(section: SampledSection, phase: HalfWindingPhase) -> SampledSection:
    """Inverse map: standard to exotic (multiply by conj(U))."""
    _check_grid(section, phase)
    if section.structure is not Structure.STANDARD:
        raise DomainError("to_exotic expects a standard section")
    return SampledSection(
        values=section.values * np.conj(phase.values)[:, None],
        structure=Structure.EXOTIC,
        circumference=section.circumference,
        antiperiodic=section.antiperiodic ^ (phase.winding % 2 == 1),
    )


def ring_derivative(
    values: np.ndarray, circumference: float, antiperiodic: bool = False
) -> np.ndarray:
    """Spectral d/dx along the ring, exact for band-limited data.

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
    spectrum = np.fft.fft(values, axis=0)
    if values.ndim == 1:
        return np.fft.ifft(freqs * spectrum, axis=0)
    return np.fft.ifft(freqs[:, None] * spectrum, axis=0)


def _mode_term(
    values: np.ndarray, mass: float, p_transverse, energy: float
) -> np.ndarray:
    p1, p2 = (float(p_transverse[0]), float(p_transverse[1]))
    out = -mass * values
    if energy != 0.0:
        out = out + energy * (values @ GAMMA0.T)
    if p1 != 0.0:
        out = out - p1 * (values @ GAMMA1.T)
    if p2 != 0.0:
        out = out - p2 * (values @ GAMMA2.T)
    return out


def standard_dirac(
    section: SampledSection,
    mass: float,
    p_transverse=(0.0, 0.0),
    energy: float = 0.0,
) -> SampledSection:
    """Apply the standard operator D0 on a mode ansatz section."""
    if mass < 0.0 or not math.isfinite(mass):
        raise DomainError("mass must be finite and non-negative")
    derivative = ring_derivative(
        section.values, section.circumference, section.antiperiodic
    )
    values = _mode_term(section.values, mass, p_transverse, energy)
    values = values + 1j * (derivative @ GAMMA3.T)
    return replace(section, values=values)


def exotic_dirac(
    section: SampledSection,
    theta: ThetaField,
    mass: float,
    direction: str,
    scale: float = 1.0,
    p_transverse=(0.0, 0.0),
    energy: float = 0.0,
) -> SampledSection:
    """Apply a shifted operator D_plus or D_minus (see module docstring)."""
    if direction not in ("plus", "minus"):
        raise DomainError("direction must be 'plus' or 'minus'")
    _check_grid(section, theta)
    base = standard_dirac(section, mass, p_transverse, energy)
    sign = -1.0 if direction == "plus" else 1.0
    multiplier = sign * 0.5 * scale * pointwise_gradient(theta)
    values = base.values + multiplier[:, None] * (section.values @ GAMMA3.T)
    return replace(section, values=values)


def grid_norm(values: np.ndarray, circumference: float) -> float:
    """Discrete L2 norm over the grid, sqrt(sum |v|^2 * L/N)."""
    values = np.asarray(values)
    return float(
        math.sqrt(np.sum(np.abs(values) ** 2) * circumference / values.shape[0])
    )


def intertwining_residual(
    section: SampledSection,
    phase: HalfWindingPhase,
    multiplier: np.ndarray,
    mass: float,
    p_transverse=(0.0, 0.0),
    energy: float = 0.0,
) -> tuple[float, float]:
    """Grid norms of the failures of both half-phase operator identities.

    multiplier is D_plus's pointwise factor -(s/2)*theta' on the grid, so
    D_plus = D0 + multiplier*g3 and D_minus = D0 - multiplier*g3.  Returns
    (plus, minus): ||U*(D_plus psi) - D0(U*psi)|| and ||U*(D0 psi) -
    D_minus(U*psi)|| on an exotic section psi, from one D0 psi, one D0(U*psi)
    and one U.  Both vanish to rounding at scale 1 for band-limited sections.
    """
    image = to_standard(section, phase)
    free = standard_dirac(section, mass, p_transverse, energy).values
    free_image = standard_dirac(image, mass, p_transverse, energy).values
    u = phase.values[:, None]
    plus = (free + multiplier[:, None] * (section.values @ GAMMA3.T)) * u - free_image
    minus = free * u - (free_image + (-multiplier)[:, None] * (image.values @ GAMMA3.T))
    return grid_norm(plus, section.circumference), grid_norm(minus, section.circumference)


def commutation_residual(
    section: SampledSection, field: WindingGradient, phase: HalfWindingPhase
) -> float:
    """Sup-norm commutator of the phase with the induced multiplier.

    The multiplier is a constant matrix times a pointwise factor, so it
    commutes with multiplication by U up to rounding; with zero winding both
    sides are identically zero and the residual is exactly 0.0.
    """
    _check_grid(section, phase)
    multiplier = -0.5 * field.scale * field.k[2]
    shifted = multiplier * (section.values @ GAMMA3.T)
    lhs = shifted * phase.values[:, None]
    rhs = multiplier * ((section.values * phase.values[:, None]) @ GAMMA3.T)
    return float(np.max(np.abs(lhs - rhs)))


def density_residual(section: SampledSection, phase: HalfWindingPhase) -> float:
    """Max pointwise change of the spinor density under the phase map."""
    _check_grid(section, phase)
    before = np.sum(np.abs(section.values) ** 2, axis=1)
    after = np.sum(np.abs(section.values * phase.values[:, None]) ** 2, axis=1)
    return float(np.max(np.abs(after - before)))


# The bound on each map_residuals key: None stands for the caller's tol
# (_MAP_TOL unless given), the rest are rounding-level identities held to a
# fixed 1e-15.  _KERNEL_BOUNDS holds the kernel_residuals pair to multiples
# of that tol; it stays apart because _MAP_BOUNDS has exactly map_residuals'
# keys.  map_checks is the one reader of all three.
_MAP_TOL = 1e-10
_MAP_BOUNDS = {
    "intertwine_plus": None,
    "intertwine_minus": None,
    "commutation": 1e-15,
    "density": 1e-15,
    "roundtrip": 1e-15,
}
_KERNEL_BOUNDS = (1.0, 1.0 + 1e-6)


def map_residuals(
    sections: Iterable[SampledSection], theta: ThetaField, mass: float, scale: float = 1.0
) -> dict[str, float]:
    """Worst residual of each half-phase identity over the given sections.

    Keys, in this order: intertwine_plus and intertwine_minus (grid norms,
    see intertwining_residual), commutation, density, and roundtrip, the
    sup norm of to_exotic(to_standard(psi)) - psi.  All are 0.0 when no
    section is given.
    """
    phase = half_phase(theta)
    field = gradient_field(theta, scale=scale)
    multiplier = -0.5 * scale * pointwise_gradient(theta)
    worst = dict.fromkeys(_MAP_BOUNDS, 0.0)
    for section in sections:
        back = to_exotic(to_standard(section, phase), phase)
        residuals = (
            *intertwining_residual(section, phase, multiplier, mass),
            commutation_residual(section, field, phase),
            density_residual(section, phase),
            float(np.max(np.abs(back.values - section.values))),
        )
        for key, value in zip(worst, residuals):
            worst[key] = max(worst[key], value)
    return worst


def random_band_limited_section(
    sites: int,
    circumference: float,
    rng: np.random.Generator,
    structure: Structure = Structure.EXOTIC,
) -> SampledSection:
    """Random section with harmonics |n| <= sites/4, unit sup density.

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
        values=values, structure=structure, circumference=float(circumference)
    )


def plane_wave_section(
    sites: int,
    circumference: float,
    harmonic: int,
    spinor: np.ndarray,
    structure: Structure = Structure.EXOTIC,
) -> SampledSection:
    """Single harmonic exp(2*pi*i*n*x/L) times a constant spinor."""
    spinor = np.asarray(spinor, dtype=complex)
    if spinor.shape != (4,):
        raise DomainError("spinor must have 4 components")
    x = np.arange(sites) * (circumference / sites)
    wave = np.exp(2j * math.pi * harmonic * x / circumference)
    return SampledSection(
        values=wave[:, None] * spinor[None, :],
        structure=structure,
        circumference=float(circumference),
    )


def kernel_mode(
    theta: ThetaField, mass: float, harmonic: int, scale: float = 1.0
) -> tuple[SampledSection, float]:
    """Exact plane-wave kernel element of D_plus at convention scale s.

    Returns an exotic section at ring harmonic n together with the on-shell
    energy E = sqrt(m^2 + q_eff^2), q_eff = 2*pi*n/L + (s/2)*k3.  The spinor
    is column 0 of the on-shell projector E*g0 - q_eff*g3 + m, normalized:
    its norm, sqrt(2E(E + m)), is the largest of the four columns'.  At
    E = m = 0 the projector vanishes and every spinor is in the kernel, so
    the spinor is e_0.  Applying D_plus at that energy annihilates the
    section up to rounding.
    """
    q = 2.0 * math.pi * harmonic / theta.circumference
    k3 = float(np.mean(pointwise_gradient(theta)))
    q_eff = q + 0.5 * scale * k3
    energy = math.sqrt(mass**2 + q_eff**2)
    e0 = np.eye(4)[0]
    column = energy * GAMMA0[:, 0] - q_eff * GAMMA3[:, 0] + mass * e0
    norm = np.linalg.norm(column)
    spinor = column / norm if norm > 0.0 else e0
    section = plane_wave_section(
        theta.sites, theta.circumference, harmonic, spinor, Structure.EXOTIC
    )
    return section, energy


def kernel_residuals(
    theta: ThetaField, mass: float, harmonic: int, scale: float = 1.0
) -> tuple[float, float]:
    """Grid norms of D_plus on its kernel mode and of D0 on the mode's image.

    The mode is kernel_mode's at this harmonic; the image is its transport
    by the half-phase map.  Both residuals vanish to rounding.
    """
    section, energy = kernel_mode(theta, mass, harmonic, scale)
    image = to_standard(section, half_phase(theta))
    length = theta.circumference
    return (
        grid_norm(exotic_dirac(section, theta, mass, "plus", scale, energy=energy).values, length),
        grid_norm(standard_dirac(image, mass, energy=energy).values, length),
    )


def map_checks(
    sections: Iterable[SampledSection],
    theta: ThetaField,
    mass: float,
    scale: float = 1.0,
    harmonic: int = 1,
    tol: float | None = None,
) -> list[tuple[str, float, float]]:
    """Every half-phase identity as (key, value, bound), passing at value <= bound.

    The five map_residuals keys, worst over the sections, then
    kernel_residual and mapped_kernel_residual, the kernel_residuals pair
    at the given harmonic.  tol (1e-10 when None) bounds the intertwining
    and kernel residuals; the other three are held to a fixed 1e-15.
    """
    tol = _MAP_TOL if tol is None else tol
    worst = map_residuals(sections, theta, mass, scale)
    kernel = kernel_residuals(theta, mass, harmonic, scale)
    checks = [
        (key, worst[key], tol if bound is None else bound)
        for key, bound in _MAP_BOUNDS.items()
    ]
    keys = ("kernel_residual", "mapped_kernel_residual")
    for key, value, factor in zip(keys, kernel, _KERNEL_BOUNDS):
        checks.append((key, value, tol * factor))
    return checks


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


def section_from_json(text: str) -> SampledSection:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid section JSON: {exc}") from None
    try:
        values = np.array(
            [[complex(re, im) for re, im in row] for row in payload["values"]]
        )
        return SampledSection(
            values=values,
            structure=Structure(payload["structure"]),
            circumference=float(payload["circumference"]),
            antiperiodic=bool(payload.get("antiperiodic", False)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed section JSON: {exc}") from None
