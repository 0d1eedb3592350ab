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
one.

H is circulant, so it also commutes with the shift T e_k = e_{k + N/2}.
In the parity basis T is a signed permutation,

    T u_j = u_{N/2 - j},    T v_j = -v_{N/2 - j},

so the real matrix splits into two sectors sigma = +1, -1, each spanned
by the N/2 vectors (x + sigma T x)/sqrt(2).  A sector keeps the
representative j <= N/4 of each pair {j, N/2 - j}.  When 4 | N the pair
at j = N/4 is a fixed point: u_{N/4} belongs to sector +1 and v_{N/4} to
sector -1, each with a factor sqrt(1/2) on its row and column.  Sector
sigma has the blocks above over its representatives, with a and b the
even and odd parts of the folded column c[d] + sigma * c[d + N/2].  Two
eigensolves of size N/2 cost a quarter of one of size N, and neither the
complex nor the real N x N matrix is ever built.

Neither change of basis is a Fourier transform of H or uses an analytic
level: W pairs each site j with its mirror -j, and T with its antipode
j + N/2, so the oracle remains an independent dense diagonalization.  The
split is done once, not recursively.  Splitting each sector again by the
shift N/4, and so on down, is the FFT, which would diagonalize H from the
very momenta that build it and leave the eigensolver nothing to check.  A
real-space Peierls operator with uniform link phases is circulant as
well, so the single split carries over to it.

The dictionary between boundary twist and spinor structure: the trivial
structure is twist 0, the exotic one twist pi, the twist c*k3*L of a unit
winding at c = shift_coefficient(1) (see WindingGradient).  The Dirac ring
operator is the 2N x 2N matrix sigma1 x (-i d/dx + Phi/L) + m * sigma3 x 1,
whose spectrum comes out symmetric under E -> -E; single-particle energies
are E_n = sqrt(m^2 + e_n^2) from dispersion.energy; the shift acts alike
on both spinor components, so it splits into two N x N sectors.  Dense
operators are bounded by MAX_DENSE_DIMENSION.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import Structure, energy
from .errors import DomainError, check_circumference, check_finite, check_mass
from .winding import TWO_PI, shift_coefficient

STRUCTURE_TWIST = {Structure.STANDARD: 0.0, Structure.EXOTIC: shift_coefficient(1.0) * TWO_PI}

# Largest operator the oracle diagonalizes: dimension N for the generator,
# 2N for the Dirac operator.  The check is on that dimension, while the
# largest matrix actually built is one translation sector, half of it.
# `ring-spectrum --sites 4096` takes ~2 s and ~97 MB peak on one BLAS
# thread of a 2-core VM; time grows as the cube of the dimension and
# memory as its square.
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
        check_circumference(self.circumference)
        check_finite("twist", self.twist)
        # the generator's largest level: the Nyquist momentum plus the twist
        if not math.isfinite((math.pi * self.sites + abs(self.twist)) / self.circumference):
            raise DomainError(
                f"ring top level (pi*N + |twist|)/L overflows float64 at N = {self.sites}, "
                f"L = {self.circumference!r}, twist = {self.twist!r}"
            )
        check_mass(self.mass)


LEVEL_TOL = 1e-12  # sorted neighbours within LEVEL_TOL * max|v| form one level


def _group_levels(ascending: np.ndarray) -> np.ndarray:
    """Level sizes of ascending values; neighbours within the window merge.

    eigvalsh rounding grows like eps * max|v|, so the window is
    LEVEL_TOL * max|v|, on the scale of the values at any magnitude.
    """
    window = LEVEL_TOL * float(np.max(np.abs(ascending)))
    starts = np.flatnonzero(np.diff(ascending, prepend=-np.inf) > window)
    return np.diff(starts, append=len(ascending))


def _generator_column(spec: RingSpec) -> np.ndarray:
    """First column c of the complex circulant generator: entry (i, j) is c[i - j].

    The Fourier differentiation matrix is circulant, so the derivative of
    the first identity column (whose FFT is all ones) fixes every entry;
    the twist adds twist/L to c[0].  Hermitizing the column, entry (i, j)
    against (j, i) as for the full matrix, makes c[-d] == conj(c[d]) bit
    for bit.  Entries that overflow float64, which a ring just inside
    RingSpec's limit can reach in the sums, are a DomainError.
    """
    n = spec.sites
    with np.errstate(over="ignore", invalid="ignore"):
        freqs = 2j * math.pi * np.fft.fftfreq(n, d=spec.circumference / n)
        column = -1j * np.fft.ifft(freqs)
        column[0] += spec.twist / spec.circumference
        column = 0.5 * (column + column[-np.arange(n) % n].conj())
    if not np.all(np.isfinite(column)):
        raise DomainError(
            f"ring generator entries overflow float64 at N = {n}, "
            f"L = {spec.circumference!r}, twist = {spec.twist!r}"
        )
    return column


def _parity_block(
    values: np.ndarray, rows: np.ndarray, columns: np.ndarray, sign: float
) -> np.ndarray:
    """w_p * w_q * (values[p - q] + sign * values[p + q]) over rows p and columns q.

    With 0 <= p, q <= N/4, the indices p - q >= -N/4 and p + q <= N/2 are
    already indices mod N = len(values).  The weight w_j is sqrt(1/2) where
    2*j = 0 mod N/2 (u_0 and the shift-fixed N/4) and 1 elsewhere.  The
    block is built in place, so it holds at most one index grid and one
    gathered copy besides itself.
    """
    half = len(values) // 2
    block = values[np.subtract.outer(rows, columns)]
    block += sign * values[np.add.outer(rows, columns)]
    block *= np.where(2 * rows % half == 0, math.sqrt(0.5), 1.0)[:, None]
    block *= np.where(2 * columns % half == 0, math.sqrt(0.5), 1.0)
    return block


def _sector_matrix(column: np.ndarray, sign: float) -> np.ndarray:
    """Translation sector sigma = sign of the generator: real symmetric, N/2 x N/2.

    Rows and columns run over u_j for j = 0 .. floor(N/4), then v_j for
    j = 1 .. floor(N/4), less the fixed point N/4 when 4 | N: u_{N/4}
    belongs to sector +1 and v_{N/4} to sector -1.  The entries are the
    parity-basis blocks of the module docstring on the folded column
    c[d] + sigma * c[d + N/2], whose even part a and odd part b are all the
    sector is built from.
    """
    half = len(column) // 2
    folded = column + sign * np.roll(column, -half)
    wide, narrow = (half + 2) // 2, (half + 1) // 2
    u_stop, v_stop = (wide, narrow) if sign > 0 else (narrow, wide)
    u_index, v_index = np.arange(u_stop), np.arange(1, v_stop)
    matrix = np.empty((half, half))
    matrix[:u_stop, :u_stop] = _parity_block(folded.real, u_index, u_index, 1.0)
    matrix[u_stop:, u_stop:] = _parity_block(folded.real, v_index, v_index, -1.0)
    # b is odd bit for bit, so EO[p, q] = b[p + q] - b[p - q] = b[q + p] + b[q - p]
    matrix[u_stop:, :u_stop] = _parity_block(folded.imag, v_index, u_index, 1.0)
    matrix[:u_stop, u_stop:] = matrix[u_stop:, :u_stop].T
    return matrix


def _dirac_sector(generator: np.ndarray, mass: float) -> np.ndarray:
    """Dirac ring operator sigma1 x M + m * sigma3 x 1 on a real generator sector M.

    The shift and the parity change of basis act alike on both spinor
    components, so they carry the mass term over unchanged: one zeroed array
    takes M off the diagonal and +m, -m on it, in place.
    """
    size = len(generator)
    matrix = np.zeros((2 * size, 2 * size))
    matrix[:size, size:] = matrix[size:, :size] = generator
    np.fill_diagonal(matrix, np.repeat((mass, -mass), size))
    return matrix


def ring_spectrum(spec: RingSpec, first_order: bool = True) -> np.ndarray:
    """Every eigenvalue of the twisted ring operator, ascending.

    first_order=True diagonalizes the generator itself (N momentum levels,
    one per mode index).  first_order=False diagonalizes the massive Dirac
    ring operator (2N levels, symmetric under E -> -E).  Either way that is
    one eigvalsh call per translation sector, of half the operator's
    dimension, and the two sectors' values merged.  An operator of
    dimension over MAX_DENSE_DIMENSION is refused before anything is built.
    """
    dimension = spec.sites if first_order else 2 * spec.sites
    if dimension > MAX_DENSE_DIMENSION:
        raise DomainError(
            f"a ring of {spec.sites} sites needs a dense matrix of dimension "
            f"{dimension}, over the limit {MAX_DENSE_DIMENSION}"
        )
    column = _generator_column(spec)

    def sector(sign: float) -> np.ndarray:
        generator = _sector_matrix(column, sign)
        return generator if first_order else _dirac_sector(generator, spec.mass)

    # each sector is freed before the next one is built
    levels = [np.linalg.eigvalsh(sector(sign)) for sign in (1.0, -1.0)]
    return np.sort(np.concatenate(levels))


def mode_indices(spec: RingSpec) -> np.ndarray:
    """Symmetric mode index range ceil(-N/2) .. floor(N/2) - 1."""
    return np.arange(math.ceil(-spec.sites / 2), math.floor(spec.sites / 2))


def analytic_levels(spec: RingSpec) -> np.ndarray:
    """The quantization the numerics must reproduce; kept for tests and reports."""
    return np.sort((TWO_PI * mode_indices(spec) + spec.twist) / spec.circumference)


def ring_modes(spec: RingSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ring's modes in (level, n) order: (n, e_n, energy, multiplicity).

    The generator's levels (2*pi*n + twist)/L increase with n, so the i-th
    ascending eigenvalue belongs to the i-th mode index.  The energies
    sqrt(m^2 + e_n^2) are sorted by (energy, n) and grouped into levels
    (see _group_levels), which is where the degeneracy lifting between the
    two structures becomes visible; within a level the rows go by n, so
    rounding cannot swap the rows of a degenerate pair.  The twist is
    spec.twist; STRUCTURE_TWIST gives a structure's.  An energy above
    float64 is refused by its inputs, on the analytic levels before the
    eigensolve and on the solved ones after it.
    """
    overflow = (
        f"Dirac energy sqrt(m^2 + e_n^2) overflows float64 at m = {spec.mass!r}, "
        f"N = {spec.sites}, L = {spec.circumference!r}, twist = {spec.twist!r}"
    )
    if not np.all(np.isfinite(energy(spec.mass, analytic_levels(spec)[:, None]))):
        raise DomainError(overflow)
    levels = ring_spectrum(spec)
    modes = mode_indices(spec)
    energies = energy(spec.mass, levels[:, None])
    if not np.all(np.isfinite(energies)):
        raise DomainError(overflow)
    order = np.lexsort((modes, energies))
    sizes = _group_levels(energies[order])
    level = np.repeat(np.arange(len(sizes)), sizes)
    order = order[np.lexsort((modes[order], level))]
    return modes[order], levels[order], energies[order], np.repeat(sizes, sizes)
