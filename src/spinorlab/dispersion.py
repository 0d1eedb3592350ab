"""Mode energies for the three dispersion branches on the ring.

A mode carries a mass m, a 3-momentum p (component 2 along the ring), and a
branch label.  The standard branch ignores the winding gradient; the two
exotic branches see it with opposite signs.  Two formulas are provided and
deliberately kept apart:

* semiclassical: E = (|p|^2 + m^2) * (1 -+ s*(k.p) / (2*(|p|^2 + m^2))),
  the first-order splitting written exactly as it is usually quoted, with
  no correction for the standard branch (which returns |p|^2 + m^2); it is
  in E^2 units, so its overflow near |p| ~ 1e154 is honest and refused;
* exact: E = sqrt(m^2 + |p -+ s*k|^2), the closed form whose expansion
  reproduces the semiclassical gap to first order in k.  energy(m, v) forms
  it, the one sqrt(m^2 + |v|^2) that the ring oracle's energies share.

s is the shift coefficient WindingGradient.scale (see there for how the
closed form, the ring twist and the half-phase operators share it).  For
s*(k.p) > 0 the plus branch lies lower under both formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DomainError, as_3vector, check_finite, check_mass, check_tol
from .winding import WindingGradient


class Branch(Enum):
    STANDARD = "standard"
    EXOTIC_PLUS = "exotic_plus"
    EXOTIC_MINUS = "exotic_minus"


class Structure(Enum):
    """Which of the two inequivalent spinor structures a mode lives on."""

    STANDARD = "standard"
    EXOTIC = "exotic"


class Preference(Enum):
    PREFER_PLUS = "prefer_plus"
    PREFER_MINUS = "prefer_minus"
    DEGENERATE = "degenerate"


# Nothing in the package builds a ModeSpec; it stays because the benchmark
# tracer (clibench/tracing.py) binds ModeSpec.__init__ by name.
@dataclass(frozen=True)
class ModeSpec:
    mass: float
    momentum: np.ndarray
    branch: Branch

    def __post_init__(self) -> None:
        object.__setattr__(self, "momentum", as_3vector("momentum", self.momentum))
        check_finite("momentum", self.momentum)
        check_mass(self.mass)
        if not isinstance(self.branch, Branch):
            raise DomainError("branch must be a Branch value")


class BranchEnergies(NamedTuple):
    """Energies of a batch of modes, one float64 entry per momentum row.

    rest is m^2 + |p|^2, which the semiclassical formula returns for the
    standard branch, and signed_shift is s*(k.p), the semiclassical gap.
    The semiclassical pair is None when only the exact formula was asked
    for; the exact columns are None when only the semiclassical one was.
    rest and signed_shift are checked only with the semiclassical columns:
    when only "exact" is asked for they may read inf or 0.0 where float64
    cannot hold them, while every exact column is finite.
    """

    rest: np.ndarray
    signed_shift: np.ndarray
    semiclassical_plus: np.ndarray | None = None
    semiclassical_minus: np.ndarray | None = None
    exact_standard: np.ndarray | None = None
    exact_plus: np.ndarray | None = None
    exact_minus: np.ndarray | None = None
    gap_exact: np.ndarray | None = None


# The helpers below hold each formula once; branch_energies and
# signed_shift call them with floating-point warnings off.  Inputs are finite,
# so a non-finite result can only come from overflow, which _finite turns
# into a DomainError.
_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}
_TINY = np.finfo(np.float64).tiny  # the smallest normal float64


def _normal(values: np.ndarray) -> np.ndarray:
    return np.isfinite(values) & (np.abs(values) >= _TINY)


def _rest(mass, momenta: np.ndarray) -> np.ndarray:
    return np.square(mass) + np.vecdot(momenta, momenta)


def _root(squares: np.ndarray, mass, vectors: np.ndarray) -> np.ndarray:
    """energy from squares = _rest(mass, vectors), for a caller that already holds it."""
    energies = np.sqrt(squares)
    edge = ~_normal(squares)
    scaled = np.broadcast_to(mass, energies.shape)[edge]
    for column in vectors[edge].T:
        scaled = np.hypot(scaled, column)
    energies[edge] = scaled
    return energies


def energy(mass, vectors: np.ndarray) -> np.ndarray:
    """sqrt(m^2 + |v|^2) for each row v of an (N, d) array; mass is one number or N.

    Rows whose sum is a normal float keep the plain square root; the others
    chain np.hypot over m and the row's entries, which scales instead of
    squaring (LAPACK dlapy2).  An energy above float64 reads inf.
    """
    with np.errstate(over="ignore"):
        return _root(_rest(mass, vectors), mass, vectors)


def _refuse(bad: np.ndarray, what: str, momenta: np.ndarray) -> None:
    if bad.any():
        p = momenta[np.argmax(bad)].tolist()
        raise DomainError(f"{what} float64 at p = ({p[0]!r}, {p[1]!r}, {p[2]!r})")


def _finite(label: str, values: np.ndarray, momenta: np.ndarray) -> np.ndarray:
    _refuse(~np.isfinite(values), f"{label} overflows", momenta)
    return values


def _signed(momenta: np.ndarray, k: np.ndarray, scale: float) -> np.ndarray:
    return scale * np.vecdot(momenta, k)


def _semiclassical(mass, rest: np.ndarray, signed: np.ndarray, momenta: np.ndarray):
    _finite("m^2 + |p|^2", rest, momenta)
    _finite("s*(k.p)", signed, momenta)
    if np.any((mass == 0.0) & ~momenta.any(axis=1)):
        raise DomainError("semiclassical correction undefined at m = 0, p = 0")
    _refuse(rest == 0.0, "m^2 + |p|^2 underflows", momenta)
    correction = signed / (2.0 * rest)
    plus = _finite("semiclassical plus energy", rest * (1.0 - correction), momenta)
    minus = _finite("semiclassical minus energy", rest * (1.0 + correction), momenta)
    return plus, minus


def _scaled_dot(p: np.ndarray, s_k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, e) per row with p.s_k = d * 2^e, and no term overflows or underflows.

    Each term p_i * (s*k)_i is the product of the two entries' frexp
    fractions, scaled by a power of two to the exponent e of the row's
    largest nonzero term, as sections._scaled_to_largest scales a norm.
    """
    (p_frac, p_exp), (k_frac, k_exp) = np.frexp(p), np.frexp(s_k)
    fractions, exponents = p_frac * k_frac, p_exp + k_exp
    # -4096 is below every exponent sum, so a zero term never sets the scale
    top = np.max(np.where(fractions == 0.0, -4096, exponents), axis=1)
    return np.sum(np.ldexp(fractions, exponents - top[:, None]), axis=1), top


def _exact_gap(signed, plus, minus, momenta: np.ndarray, shift) -> np.ndarray:
    # E_minus^2 - E_plus^2 = 4 s (k.p) exactly, so dividing by E_minus + E_plus
    # gives the difference of the roots without subtracting them (Higham,
    # Accuracy and Stability of Numerical Algorithms, ch. 1).  Where 4 s*(k.p)
    # or the sum is not a normal float, both are formed scaled by powers of
    # two, which is exact, and the quotient is scaled back once; the gap is
    # then 0.0 exactly where the scaled s*(k.p) is.
    numerator, total = 4.0 * signed, minus + plus
    gap = numerator / total
    edge = ~(_normal(numerator) & _normal(total))
    if edge.any():
        dot, dot_exp = _scaled_dot(momenta[edge], np.broadcast_to(shift, momenta.shape)[edge])
        roots = np.column_stack((minus[edge], plus[edge]))
        root_exp = np.frexp(np.max(roots, axis=1))[1]
        scaled_total = np.sum(np.ldexp(roots, -root_exp[:, None]), axis=1)
        quotient = np.where(dot == 0.0, 0.0, 4.0 * dot / scaled_total)
        gap[edge] = np.ldexp(quotient, dot_exp - root_exp)
    return _finite("exact gap", gap, momenta)


@np.errstate(**_QUIET)
def branch_energies(
    mass, momenta, k, scale: float = 1.0, formula: str = "both"
) -> BranchEnergies:
    """Branch energies and gaps for N modes at once.

    momenta is an (N, 3) array; mass is one number or N of them; k is the
    gradient, one 3-vector for the batch or an (N, 3) array, multiplied by
    scale wherever it shifts an energy.  formula picks "semiclassical",
    "exact" or "both".  Inputs are validated once for the whole batch.  The
    semiclassical formula, in E^2 units, rejects any row at m = 0, p = 0, an
    m^2 + |p|^2 that underflows to 0.0, and an m^2 + |p|^2 or s*(k.p) that
    overflows float64.  The exact columns are formed by energy, so they are
    rejected only where an energy itself is above float64.  Each refusal
    names the quantity.
    """
    if formula not in ("semiclassical", "exact", "both"):
        raise DomainError(f"unknown formula {formula!r}")
    momenta = np.asarray(momenta, dtype=float)
    if momenta.ndim != 2 or momenta.shape[1] != 3:
        raise DomainError("momenta must be an (N, 3) array")
    check_finite("momentum", momenta)
    masses = np.asarray(mass, dtype=float)
    if masses.shape not in ((), (len(momenta),)):
        raise DomainError("mass must be one number or one per momentum row")
    check_mass(masses)
    k = np.asarray(k, dtype=float)
    if k.shape not in ((3,), momenta.shape):
        raise DomainError("k must be a 3-vector or one per momentum row")
    check_finite("gradient data", k)
    check_finite("scale", scale)

    rest = _rest(masses, momenta)
    signed = _signed(momenta, k, scale)
    energies = {}
    if formula != "exact":
        plus, minus = _semiclassical(masses, rest, signed, momenta)
        energies.update(semiclassical_plus=plus, semiclassical_minus=minus)
    if formula != "semiclassical":
        shift = scale * k
        standard, plus, minus = (
            _finite("exact energy", roots, momenta)
            for roots in (
                _root(rest, masses, momenta),
                energy(masses, momenta - shift),
                energy(masses, momenta + shift),
            )
        )
        energies.update(
            exact_standard=standard,
            exact_plus=plus,
            exact_minus=minus,
            gap_exact=_exact_gap(signed, plus, minus, momenta, shift),
        )
    return BranchEnergies(rest=rest, signed_shift=signed, **energies)


@np.errstate(**_QUIET)
def signed_shift(field: WindingGradient, momentum: np.ndarray) -> float:
    """s*(k.p) for one finite 3-momentum; rejected by name if it overflows float64."""
    momentum = as_3vector("momentum", momentum)
    check_finite("momentum", momentum)
    momenta = momentum[None, :]
    return float(_finite("s*(k.p)", _signed(momenta, field.k, field.scale), momenta)[0])


@np.errstate(**_QUIET)
def default_degeneracy_tol(momentum: np.ndarray):
    """Scale-aware threshold below which the branches count as degenerate.

    1e-12 * (|p|^2 + 1): a float for one 3-momentum, an array for an (N, 3)
    batch.  A momentum whose |p|^2 overflows float64 is rejected by name,
    and so is any other shape.  The absolute floor of 1e-12 is deliberate:
    a splitting below it in E^2 units counts as no field, so a table is not
    picked by a product that only a rounding-sized bound (eps*|s||k||p|)
    would resolve.  At p = k = (0, 0, 1e-7), s*(k.p) = 1e-14 is degenerate;
    an explicit tol gives a finer band.
    """
    momentum = np.asarray(momentum, dtype=float)
    if momentum.shape != (3,) and (momentum.ndim != 2 or momentum.shape[1] != 3):
        raise DomainError(
            f"momentum must be a 3-vector or an (N, 3) array, not shape {momentum.shape}"
        )
    check_finite("momentum", momentum)
    # _rest at m = 0, so an overflow is named as branch_energies names it
    momenta = np.atleast_2d(momentum)
    tol = 1e-12 * (_finite("m^2 + |p|^2", _rest(0.0, momenta), momenta) + 1.0)
    return tol if momentum.ndim == 2 else float(tol[0])


def preferred_branch(
    field: WindingGradient, momentum: np.ndarray, tol: float | None = None
) -> Preference:
    """Which exotic branch lies lower, by the sign of s*(k.p).

    Strictly greater than tol prefers plus, strictly less than -tol prefers
    minus, anything in between is degenerate.  tol must be positive and
    finite; when omitted it defaults to the scale-aware threshold.
    """
    if tol is None:
        tol = default_degeneracy_tol(momentum)
    check_tol(tol)
    signed = signed_shift(field, momentum)
    if signed > tol:
        return Preference.PREFER_PLUS
    if signed < -tol:
        return Preference.PREFER_MINUS
    return Preference.DEGENERATE

