"""Winding angle fields on a uniform ring grid.

The compact direction is a circle of circumference L sampled at N points
x_j = j*L/N.  A winding field assigns an angle theta(x_j) that advances by
2*pi*w over one circuit; w is the integer winding number.  The gradient of
such a field is a closed one-form pointing along the ring whose loop
integral (holonomy) is quantized in units of 2*pi.

Angles are stored as raw samples, not equivalence classes.  Whenever a
winding count or a gradient is needed, successive differences are wrapped
into (-pi, pi] first, so samples may be reduced mod 2*pi (as `involute`
produces) without losing the circuit count.  The half phase
U = exp(i*theta/2) that maps sections between the two spinor structures is
a property of the field: ThetaField.half_phase forms it on first use.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, as_3vector, as_winding, check_circumference, check_finite

TWO_PI = 2.0 * math.pi


def wrap_angle(delta: np.ndarray | float) -> np.ndarray | float:
    """Wrap angle difference(s) into (-pi, pi]."""
    return math.pi - np.mod(math.pi - np.asarray(delta, dtype=float), TWO_PI)


def circuit_increments(samples: np.ndarray) -> np.ndarray:
    """Wrapped successive differences around one full circuit.

    The closing difference samples[0] - samples[-1] is included, so the
    result sums to 2*pi times the winding of the sampled sequence.
    """
    theta = np.asarray(samples, dtype=float)
    return wrap_angle(np.roll(theta, -1) - theta)


@dataclass(frozen=True)
class ThetaField:
    """Sampled angle field on the ring.

    samples[j] is the angle at x_j = j*circumference/sites; the field is
    required to close up with total increment 2*pi*winding.
    """

    samples: np.ndarray
    winding: int
    circumference: float

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size < 4:
            raise DomainError("need a 1-d angle field with at least 4 samples")
        check_finite("angle samples", samples)
        check_circumference(self.circumference)
        object.__setattr__(self, "winding", as_winding(self.winding))
        # not <=: increments that overflow give a nan holonomy, refused too
        with np.errstate(over="ignore", invalid="ignore"):
            total = holonomy(self)
        target = TWO_PI * self.winding
        if not abs(total - target) <= 1e-9 * (1.0 + abs(self.winding)):
            raise DomainError(
                f"samples wind {total / TWO_PI:.6f} circuits, expected {self.winding}"
            )

    @property
    def sites(self) -> int:
        return int(self.samples.size)

    @cached_property
    def half_phase(self) -> np.ndarray:
        """Read-only unimodular samples of U = exp(i*theta/2), formed on first use.

        The samples are unwrapped before halving; halving the mod-2*pi
        representative instead would flip sign from sample to sample, which is
        precisely the double-valuedness the section map exists to absorb.  U
        squares to exp(i*theta) and is single-valued only for even winding.
        """
        phase = np.exp(0.5j * np.unwrap(self.samples))
        phase.flags.writeable = False
        return phase


def shift_coefficient(scale: float) -> float:
    """Shift coefficient c = s/2 at convention scale s: the half of the half phase."""
    return 0.5 * scale


@dataclass(frozen=True)
class WindingGradient:
    """Constant winding gradient k and the coefficient c = scale of its shift c*k.

    k is a 3-vector along the ring axis (components 0 and 1 vanish for fields
    built here); scale is c in every module.  Three conventions give the
    same energies mode by mode: the closed form (dispersion) at c, the ring
    (lattice) with twist c*k3*L, and D_plus (sections) at convention scale
    s = 2c, where c = shift_coefficient(s).
    """

    k: np.ndarray
    scale: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", as_3vector("k", self.k))
        check_finite("gradient data", self.k)
        check_finite("scale", self.scale)


def build_theta(sites: int, circumference: float, winding: int) -> ThetaField:
    """Canonical linear ramp theta(x) = 2*pi*winding*x/circumference.

    sites must be at least 4 and large enough to resolve the winding
    (|winding| < sites/2); otherwise the sampled ramp aliases to a different
    circuit count, so such a winding is refused up front.
    """
    if sites < 4:
        raise DomainError("need at least 4 sites")
    if 2 * abs(winding) >= sites:
        raise DomainError(
            f"|winding| must be below sites/2 = {sites / 2:g} to resolve the ramp, got {winding}"
        )
    samples = TWO_PI * winding * np.arange(sites) / float(sites)
    theta = ThetaField(samples=samples, winding=winding, circumference=float(circumference))
    # the Dirac operators divide by L/N, sum the gradient over the sites and
    # take the phase 2*pi*x/L: refuse by name the lengths that overflow there
    if circumference / sites < sys.float_info.min or not math.isfinite(
        TWO_PI * abs(winding) * sites / circumference
    ):
        raise DomainError(
            f"circumference L = {circumference!r} is too small: L/N is subnormal or "
            "2*pi*|w|*N/L overflows float64"
        )
    if not math.isfinite(TWO_PI * circumference):
        raise DomainError(f"circumference L = {circumference!r} is too large: 2*pi*L overflows")
    return theta


def holonomy(theta: ThetaField) -> float:
    """Loop integral of the gradient, the sum of wrapped increments (0.0 at w = 0)."""
    return float(np.sum(circuit_increments(theta.samples)))


def gradient_field(theta: ThetaField, scale: float = 1.0) -> WindingGradient:
    """The ring-direction gradient holonomy/L, with shift coefficient scale."""
    k_ring = holonomy(theta) / theta.circumference
    return WindingGradient(k=np.array([0.0, 0.0, k_ring]), scale=float(scale))


def involute(theta: ThetaField) -> ThetaField:
    """The angle involution theta(x) -> -theta(x) reduced mod 2*pi.

    Negates the winding.  Applying it twice returns a field whose samples
    equal the original mod 2*pi and whose winding equals the original.
    """
    samples = np.mod(-theta.samples, TWO_PI)
    return ThetaField(
        samples=samples, winding=-theta.winding, circumference=theta.circumference
    )


def involuted(field: WindingGradient) -> WindingGradient:
    """Gradient-level involution: flips k, keeps the scale."""
    return WindingGradient(k=-field.k, scale=field.scale)


def pointwise_gradient(theta: ThetaField) -> np.ndarray:
    """Per-site ring derivative of the angle, from wrapped forward differences.

    Constant for the canonical ramps; used as the multiplier field in the
    exotic Dirac operator.
    """
    spacing = theta.circumference / theta.sites
    return circuit_increments(theta.samples) / spacing
