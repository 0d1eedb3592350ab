"""Mode energies for the three dispersion branches on the ring.

A mode carries a mass m, a 3-momentum p (component 2 along the ring), and a
branch label.  The standard branch ignores the winding gradient; the two
exotic branches see it with opposite signs.  Two formulas are provided and
deliberately kept apart:

* semiclassical: E = (|p|^2 + m^2) * (1 -+ s*(k.p) / (2*(|p|^2 + m^2))),
  the first-order splitting written exactly as it is usually quoted, with
  no correction for the standard branch (which returns |p|^2 + m^2);
* exact: E = sqrt(m^2 + |p -+ s*k|^2), the closed form whose expansion
  reproduces the semiclassical gap to first order in k.

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


def _finite(label: str, values: np.ndarray, momenta: np.ndarray) -> np.ndarray:
    bad = ~np.isfinite(values)
    if bad.any():
        p = momenta[np.argmax(bad)].tolist()
        raise DomainError(f"{label} overflows float64 at p = ({p[0]!r}, {p[1]!r}, {p[2]!r})")
    return values


def _rest(mass, momenta: np.ndarray) -> np.ndarray:
    return _finite("m^2 + |p|^2", np.square(mass) + np.vecdot(momenta, momenta), momenta)


def _signed(momenta: np.ndarray, k: np.ndarray, scale: float) -> np.ndarray:
    return _finite("s*(k.p)", scale * np.vecdot(momenta, k), momenta)


def _semiclassical(rest: np.ndarray, signed: np.ndarray, momenta: np.ndarray):
    if np.any(rest == 0.0):
        raise DomainError("semiclassical correction undefined at m = 0, p = 0")
    correction = signed / (2.0 * rest)
    plus = _finite("semiclassical plus energy", rest * (1.0 - correction), momenta)
    minus = _finite("semiclassical minus energy", rest * (1.0 + correction), momenta)
    return plus, minus


def _exact(mass, momenta: np.ndarray, shift) -> np.ndarray:
    """sqrt(m^2 + |p - shift|^2): plus branch at shift s*k, minus at -s*k."""
    shifted = momenta - shift
    return _finite(
        "exact energy", np.sqrt(np.square(mass) + np.vecdot(shifted, shifted)), momenta
    )


def _exact_gap(signed, plus, minus, momenta: np.ndarray) -> np.ndarray:
    # E_minus^2 - E_plus^2 = 4 s (k.p) exactly, so dividing by E_minus + E_plus
    # gives the difference of the roots without subtracting them (Higham,
    # Accuracy and Stability of Numerical Algorithms, ch. 1).  The sum is zero
    # only where s*(k.p) is, at m = 0, p = 0, s*k = 0.
    gap = np.where(signed == 0.0, 0.0, 4.0 * signed / (minus + plus))
    return _finite("exact gap", gap, momenta)


@np.errstate(**_QUIET)
def branch_energies(
    mass, momenta, k, scale: float = 1.0, formula: str = "both"
) -> BranchEnergies:
    """Branch energies and gaps for N modes at once.

    momenta is an (N, 3) array; mass is one number or N of them; k is the
    gradient, one 3-vector for the batch or an (N, 3) array, multiplied by
    scale wherever it shifts an energy.  formula picks "semiclassical",
    "exact" or "both".  Inputs are validated once for the whole batch; the
    semiclassical formula rejects any row at m = 0, p = 0, and any result
    that overflows float64 is rejected with the quantity that overflowed.
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
        plus, minus = _semiclassical(rest, signed, momenta)
        energies.update(semiclassical_plus=plus, semiclassical_minus=minus)
    if formula != "semiclassical":
        shift = scale * k
        plus = _exact(masses, momenta, shift)
        minus = _exact(masses, momenta, -shift)
        energies.update(
            exact_standard=np.sqrt(rest),
            exact_plus=plus,
            exact_minus=minus,
            gap_exact=_exact_gap(signed, plus, minus, momenta),
        )
    return BranchEnergies(rest=rest, signed_shift=signed, **energies)


@np.errstate(**_QUIET)
def signed_shift(field: WindingGradient, momentum: np.ndarray) -> float:
    """s*(k.p) for one finite 3-momentum; rejected by name if it overflows float64."""
    momentum = as_3vector("momentum", momentum)
    check_finite("momentum", momentum)
    return float(_signed(momentum[None, :], field.k, field.scale)[0])


@np.errstate(**_QUIET)
def default_degeneracy_tol(momentum: np.ndarray):
    """Scale-aware threshold below which the branches count as degenerate.

    1e-12 * (|p|^2 + 1): a float for one 3-momentum, an array for an (N, 3)
    batch.  A momentum whose |p|^2 overflows float64 is rejected by name,
    and so is any other shape.
    """
    momentum = np.asarray(momentum, dtype=float)
    if momentum.shape != (3,) and (momentum.ndim != 2 or momentum.shape[1] != 3):
        raise DomainError(
            f"momentum must be a 3-vector or an (N, 3) array, not shape {momentum.shape}"
        )
    check_finite("momentum", momentum)
    # _rest at m = 0, so an overflow is named as branch_energies names it
    tol = 1e-12 * (_rest(0.0, np.atleast_2d(momentum)) + 1.0)
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

