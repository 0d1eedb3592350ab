"""Spectral ring oracle: twisted boundary conditions, diagonalized densely.

This module is the brute-force cross-check for the closed dispersion
formulas.  The generator -i d/dx on a ring of N sites with boundary twist
Phi is the circulant N x N matrix H[i, j] = c[i - j] (Fourier
differentiation matrix plus the constant twist offset), and a dense
symmetric eigensolver diagonalizes it; nothing downstream assumes the
analytic quantization

    e_n = (2*pi*n + Phi) / L,   n = ceil(-N/2) .. floor(N/2) - 1,

which is instead what the numerical spectrum is tested against.

The matrix is diagonalized in its reflection-parity basis, where it is
real.  The hermitized column c = a + i*b satisfies c[-d] == conj(c[d]) bit
for bit (a even, b odd), so the reflection j -> -j combined with complex
conjugation leaves H unchanged.  In the orthonormal basis (indices mod N)

    u_j = s_j (e_j + e_{-j}),          j = 0 .. N/2,
    v_j = i (e_j - e_{-j}) / sqrt(2),  j = 1 .. N/2 - 1,

with s = 1/2 at the fixed points 0 and N/2 and 1/sqrt(2) otherwise, H has
the real symmetric blocks

    EE[p, q] = 2 s_p s_q (a[p - q] + a[p + q])
    OO[p, q] = a[p - q] - a[p + q]
    EO[p, q] = sqrt(2) s_p (b[p + q] - b[p - q]).

The change of basis W is unitary, so W^dagger H W is an exact similarity:
same spectrum, and LAPACK's real solver instead of its ~3x dearer complex
one.  W only pairs each site j with its mirror -j; it is not a Fourier
transform of H and uses no analytic level, so the oracle remains an
independent dense diagonalization.  The entries are formed from a and b
directly; the complex N x N matrix is never built.

The dictionary between boundary twist and spinor structure: the trivial
structure is twist 0, the exotic one twist pi (the half phase halves the
2*pi holonomy of the winding gradient).  The Dirac ring operator is the
2N x 2N matrix sigma1 x (-i d/dx + Phi/L) + m * sigma3 x 1, whose spectrum
comes out symmetric under E -> -E; single-particle energies are
E_n = sqrt(m^2 + e_n^2).  Dense matrices are bounded by
MAX_DENSE_DIMENSION.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import Structure
from .errors import DomainError
from .winding import TWO_PI

STRUCTURE_TWIST = {Structure.STANDARD: 0.0, Structure.EXOTIC: math.pi}

# Largest dense matrix the oracle diagonalizes: N for the generator, 2N for
# the Dirac operator.  `ring-spectrum --sites 4096` takes ~8 s and ~290 MB
# peak on one BLAS thread of a 2-core VM; time grows as the cube of the
# dimension and memory as its square.
MAX_DENSE_DIMENSION = 4096


@dataclass(frozen=True)
class RingSpec:
    sites: int
    circumference: float
    twist: float
    mass: float = 0.0

    def __post_init__(self) -> None:
        # even only: the symmetric mode range ceil(-N/2)..floor(N/2)-1 covers
        # all N grid modes exactly when N is even
        if self.sites < 4 or self.sites % 2 != 0:
            raise DomainError("need an even number of sites, at least 4")
        if self.circumference <= 0.0 or not math.isfinite(self.circumference):
            raise DomainError("circumference must be positive and finite")
        if not math.isfinite(self.twist):
            raise DomainError("twist must be finite")
        if self.mass < 0.0 or not math.isfinite(self.mass):
            raise DomainError("mass must be finite and non-negative")


@dataclass(frozen=True)
class Spectrum:
    """Distinct levels in ascending order with their multiplicities."""

    eigenvalues: tuple[float, ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.eigenvalues) != len(self.multiplicities):
            raise DomainError("eigenvalues and multiplicities must align")
        if any(m < 1 for m in self.multiplicities):
            raise DomainError("multiplicities must be positive")
        if any(
            b < a for a, b in zip(self.eigenvalues, self.eigenvalues[1:])
        ):
            raise DomainError("eigenvalues must be sorted ascending")


LEVEL_TOL = 1e-12  # sorted neighbours within LEVEL_TOL * max|v| form one level


def _group_levels(values: np.ndarray) -> Spectrum:
    """Sorted levels with multiplicities; neighbours within the window merge.

    eigvalsh rounding grows like eps * max|v|, so the window is
    LEVEL_TOL * max|v|, on the scale of the values at any magnitude.
    """
    ordered = np.sort(values)
    window = LEVEL_TOL * float(np.max(np.abs(ordered)))
    starts = np.flatnonzero(np.diff(ordered, prepend=-np.inf) > window)
    counts = np.diff(starts, append=len(ordered))
    return Spectrum(
        eigenvalues=tuple(ordered[starts].tolist()),
        multiplicities=tuple(counts.tolist()),
    )


def _generator_column(spec: RingSpec) -> np.ndarray:
    """First column c of the complex circulant generator: entry (i, j) is c[i - j].

    The Fourier differentiation matrix is circulant, so the derivative of
    the first identity column (whose FFT is all ones) fixes every entry;
    the twist adds twist/L to c[0].  Hermitizing the column, entry (i, j)
    against (j, i) as for the full matrix, makes c[-d] == conj(c[d]) bit
    for bit.
    """
    n = spec.sites
    freqs = 2j * math.pi * np.fft.fftfreq(n, d=spec.circumference / n)
    column = -1j * np.fft.ifft(freqs)
    column[0] += spec.twist / spec.circumference
    return 0.5 * (column + column[-np.arange(n) % n].conj())


def _generator_matrix(spec: RingSpec) -> np.ndarray:
    """Twisted generator -i d/dx + twist/L, real symmetric in the parity basis.

    Rows and columns run over u_0 .. u_{N/2}, then v_1 .. v_{N/2-1}; the
    entries come from the even part a and the odd part b of the circulant
    column alone, through (N/2 + 1)^2 index grids.
    """
    n = spec.sites
    half = n // 2
    column = _generator_column(spec)
    even_part, odd_part = column.real, column.imag
    index = np.arange(half + 1)
    difference = np.subtract.outer(index, index) % n
    total = np.add.outer(index, index) % n
    # root2_weight = sqrt(2) * s: 1 inside, sqrt(1/2) at the fixed points
    root2_weight = np.ones(half + 1)
    root2_weight[[0, half]] = math.sqrt(0.5)
    inner = slice(1, half)
    matrix = np.empty((n, n))
    matrix[: half + 1, : half + 1] = np.outer(root2_weight, root2_weight) * (
        even_part[difference] + even_part[total]
    )
    matrix[half + 1 :, half + 1 :] = (
        even_part[difference[inner, inner]] - even_part[total[inner, inner]]
    )
    cross = root2_weight[:, None] * (odd_part[total[:, inner]] - odd_part[difference[:, inner]])
    matrix[: half + 1, half + 1 :] = cross
    matrix[half + 1 :, : half + 1] = cross.T
    return matrix


def _dirac_matrix(spec: RingSpec) -> np.ndarray:
    """Dirac ring operator sigma1 x M + m * sigma3 x 1 on the real generator M.

    The parity change of basis acts alike on both spinor components, so it
    carries the mass term over unchanged.
    """
    generator = _generator_matrix(spec)
    mass = spec.mass * np.eye(spec.sites)
    return np.block([[mass, generator], [generator, -mass]])


def ring_spectrum(spec: RingSpec, first_order: bool = True) -> np.ndarray:
    """Every eigenvalue of the twisted ring operator: eigvalsh's ascending array.

    first_order=True diagonalizes the generator itself (N momentum levels,
    one per mode index).  first_order=False diagonalizes the massive Dirac
    ring operator (2N levels, symmetric under E -> -E).  A matrix of
    dimension over MAX_DENSE_DIMENSION is refused before it is built.
    """
    dimension = spec.sites if first_order else 2 * spec.sites
    if dimension > MAX_DENSE_DIMENSION:
        raise DomainError(
            f"a ring of {spec.sites} sites needs a dense matrix of dimension "
            f"{dimension}, over the limit {MAX_DENSE_DIMENSION}"
        )
    matrix = _generator_matrix(spec) if first_order else _dirac_matrix(spec)
    return np.linalg.eigvalsh(matrix)


def mode_indices(spec: RingSpec) -> np.ndarray:
    """Symmetric mode index range ceil(-N/2) .. floor(N/2) - 1."""
    return np.arange(math.ceil(-spec.sites / 2), math.floor(spec.sites / 2))


def analytic_levels(spec: RingSpec) -> np.ndarray:
    """The quantization the numerics must reproduce; kept for tests and reports."""
    return np.sort((TWO_PI * mode_indices(spec) + spec.twist) / spec.circumference)


def dirac_ring_spectrum(spec: RingSpec, structure: Structure) -> Spectrum:
    """Positive-branch Dirac energies for a spin structure on the ring.

    The twist is dictated by the structure (0 or pi); spec.twist is ignored
    here so callers cannot desynchronize the dictionary.  The energies
    sqrt(m^2 + e_n^2) are grouped into levels (see _group_levels), which is
    where the degeneracy lifting between the two structures becomes visible.
    """
    if not isinstance(structure, Structure):
        raise DomainError("structure must be a Structure value")
    base = RingSpec(
        sites=spec.sites,
        circumference=spec.circumference,
        twist=STRUCTURE_TWIST[structure],
        mass=spec.mass,
    )
    return _group_levels(np.sqrt(spec.mass**2 + ring_spectrum(base) ** 2))
