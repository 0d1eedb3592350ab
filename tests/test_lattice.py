import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab.dispersion import Structure, branch_energies
from spinorlab.errors import DomainError
from spinorlab.lattice import (
    LEVEL_TOL,
    MAX_DENSE_DIMENSION,
    RingSpec,
    Spectrum,
    _dirac_matrix,
    _generator_column,
    _generator_matrix,
    _group_levels,
    analytic_levels,
    dirac_ring_spectrum,
    mode_indices,
    ring_spectrum,
)
from spinorlab.sections import kernel_mode
from spinorlab.winding import build_theta, gradient_field

TWO_PI = 2.0 * math.pi

SQRT2 = math.sqrt(2.0)
SQRT125 = 1.118033988749895  # sqrt(1.25), frozen by hand


def test_untwisted_momenta_are_integers():
    spec = RingSpec(sites=8, circumference=TWO_PI, twist=0.0)
    spectrum = ring_spectrum(spec)
    assert spectrum.dtype == np.float64 and len(spectrum) == 8
    assert np.allclose(spectrum, np.arange(-4, 4), atol=1e-12)


def test_twisted_momenta_are_half_integers():
    spec = RingSpec(sites=8, circumference=TWO_PI, twist=math.pi)
    assert np.allclose(ring_spectrum(spec), np.arange(-4, 4) + 0.5, atol=1e-12)


def test_numerics_match_quantization_rule():
    rng = np.random.default_rng(17)
    for _ in range(25):
        spec = RingSpec(
            sites=2 * int(rng.integers(2, 24)),
            circumference=float(rng.uniform(0.4, 20.0)),
            twist=float(rng.uniform(-8.0, 8.0)),
        )
        numeric = ring_spectrum(spec)
        analytic = analytic_levels(spec)
        scale = np.max(np.abs(analytic)) + 1.0
        assert np.max(np.abs(numeric - analytic)) <= 1e-10 * scale


LENGTHS = np.random.default_rng(0).uniform(1.0, 4.0 * math.pi, 3).tolist()


@pytest.mark.parametrize("twist", [0.0, math.pi, 1.1])
@pytest.mark.parametrize("sites", [512, 768, 1024])
def test_large_rings_match_quantization_rule(sites, twist):
    # eigvalsh error against the analytic levels, relative to the largest
    # level pi*N/L: at most 1.3e-14 over this grid
    for length in LENGTHS:
        spec = RingSpec(sites=sites, circumference=length, twist=twist)
        numeric = ring_spectrum(spec)
        analytic = analytic_levels(spec)
        assert np.max(np.abs(numeric - analytic)) <= 5e-14 * math.pi * sites / length


def _circulant(spec):
    """The complex Hermitian generator: entry (i, j) is column[(i - j) % N]."""
    index = np.arange(spec.sites)
    return _generator_column(spec)[np.subtract.outer(index, index) % spec.sites]


def _parity_basis(sites):
    """Columns u_0 .. u_{N/2}, then v_1 .. v_{N/2-1}, as in the lattice docstring."""
    half = sites // 2
    basis = np.zeros((sites, sites), dtype=complex)
    for j in range(half + 1):
        weight = 0.5 if j in (0, half) else math.sqrt(0.5)
        basis[j, j] += weight
        basis[-j % sites, j] += weight
    for column, j in enumerate(range(1, half), start=half + 1):
        basis[j, column] = 1j * math.sqrt(0.5)
        basis[-j % sites, column] = -1j * math.sqrt(0.5)
    return basis


@pytest.mark.parametrize("sites", [4, 10, 64])
def test_generator_matrix_is_hermitian_and_circulant(sites):
    matrix = _circulant(RingSpec(sites=sites, circumference=2.5, twist=0.9))
    assert np.array_equal(matrix, matrix.conj().T)
    for j in range(sites):
        assert np.array_equal(matrix[:, j], np.roll(matrix[:, 0], j))


@pytest.mark.parametrize("twist", [0.0, math.pi, 1.1])
@pytest.mark.parametrize("sites", [4, 10, 64])
def test_parity_basis_makes_the_generator_real_symmetric(sites, twist):
    spec = RingSpec(sites=sites, circumference=2.5, twist=twist, mass=0.7)
    basis = _parity_basis(sites)
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(sites))) <= 1e-15
    circulant = _circulant(spec)
    real = _generator_matrix(spec)
    assert real.dtype == np.float64 and np.array_equal(real, real.T)
    norm = np.linalg.norm(circulant, 2)
    assert np.max(np.abs(basis.conj().T @ circulant @ basis - real)) <= 1e-15 * norm
    # the Dirac operator: the same change of basis on both spinor components
    sigma1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    sigma3 = np.diag([1.0, -1.0])
    dirac = np.kron(sigma1, circulant) + spec.mass * np.kron(sigma3, np.eye(sites))
    spinor_basis = np.kron(np.eye(2), basis)
    real_dirac = _dirac_matrix(spec)
    assert real_dirac.dtype == np.float64 and np.array_equal(real_dirac, real_dirac.T)
    norm = np.linalg.norm(dirac, 2)
    assert np.max(np.abs(spinor_basis.conj().T @ dirac @ spinor_basis - real_dirac)) <= (
        1e-15 * norm
    )


def test_dense_dimension_is_bounded():
    # both refusals come before any matrix is built
    with pytest.raises(DomainError, match=f"over the limit {MAX_DENSE_DIMENSION}"):
        ring_spectrum(RingSpec(sites=MAX_DENSE_DIMENSION + 2, circumference=1.0, twist=0.0))
    dirac = RingSpec(sites=MAX_DENSE_DIMENSION // 2 + 2, circumference=1.0, twist=0.0)
    with pytest.raises(DomainError, match=f"dimension {MAX_DENSE_DIMENSION + 4}"):
        ring_spectrum(dirac, first_order=False)


def test_full_turn_shifts_every_level_by_one_mode():
    base = RingSpec(sites=12, circumference=3.0, twist=0.7)
    turned = RingSpec(sites=12, circumference=3.0, twist=0.7 + TWO_PI)
    lower = ring_spectrum(base)
    upper = ring_spectrum(turned)
    assert np.max(np.abs(upper - lower - TWO_PI / 3.0)) <= 1e-10


def test_mode_indices_even():
    spec = RingSpec(sites=8, circumference=1.0, twist=0.0)
    assert mode_indices(spec).tolist() == [-4, -3, -2, -1, 0, 1, 2, 3]


def test_odd_site_count_rejected():
    with pytest.raises(DomainError):
        RingSpec(sites=9, circumference=1.0, twist=0.0)


def test_dirac_levels_standard_structure():
    spec = RingSpec(sites=8, circumference=TWO_PI, twist=0.0, mass=1.0)
    spectrum = dirac_ring_spectrum(spec, Structure.STANDARD)
    assert spectrum.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
    assert spectrum.multiplicities[0] == 1
    assert spectrum.eigenvalues[1] == pytest.approx(SQRT2, abs=1e-12)
    assert spectrum.multiplicities[1] == 2


def test_dirac_levels_exotic_structure():
    spec = RingSpec(sites=8, circumference=TWO_PI, twist=0.0, mass=1.0)
    spectrum = dirac_ring_spectrum(spec, Structure.EXOTIC)
    # no momentum-zero mode: the ground level is doubly degenerate
    assert spectrum.eigenvalues[0] == pytest.approx(SQRT125, abs=1e-12)
    assert spectrum.multiplicities[0] == 2
    assert spectrum.eigenvalues[1] == pytest.approx(math.sqrt(3.25), abs=1e-12)
    assert spectrum.multiplicities[1] == 2


@pytest.mark.parametrize("structure", [Structure.STANDARD, Structure.EXOTIC])
def test_dirac_levels_keep_degeneracy_at_large_momenta(structure):
    # |e_n| reaches 2*pi*512, where eigvalsh rounding exceeds an absolute 1e-12
    spec = RingSpec(sites=1024, circumference=1.0, twist=0.0, mass=0.5)
    spectrum = dirac_ring_spectrum(spec, structure)
    if structure is Structure.STANDARD:
        # n = 0 and n = -512 are single; n and -n pair up for 0 < n < 512
        assert spectrum.multiplicities == (1,) + (2,) * 511 + (1,)
    else:
        # n and -n - 1 pair up for every mode
        assert spectrum.multiplicities == (2,) * 512


def _level_split(values):
    return _group_levels(np.array(values)).multiplicities


def _group_levels_loop(values, window):
    """Reference: one pass over the sorted values with a fixed window."""
    levels, counts = [], []
    for value in np.sort(values):
        if levels and abs(value - levels[-1]) <= window:
            counts[-1] += 1
        else:
            levels.append(float(value))
            counts.append(1)
    return Spectrum(eigenvalues=tuple(levels), multiplicities=tuple(counts))


def test_group_levels_matches_loop_at_unit_scale():
    rng = np.random.default_rng(4)
    base = rng.uniform(-1.0, 1.0, 200)
    values = np.concatenate([base, base[:80] + rng.uniform(-4e-13, 4e-13, 80)])
    window = LEVEL_TOL * np.max(np.abs(values))
    assert _group_levels(values) == _group_levels_loop(values, window)


def test_group_levels_window_scales_with_largest_value():
    assert LEVEL_TOL == 1e-12
    assert _level_split([0.5, 0.5 + 0.9e-12, 1.0]) == (2, 1)
    assert _level_split([0.5, 0.5 + 1.1e-12, 1.0]) == (1, 1, 1)
    # at magnitude 1e3 the window is 1e-9
    assert _level_split([1e3, 1e3 + 0.9e-9, -2.0]) == (1, 2)
    assert _level_split([1e3, 1e3 + 1.1e-9, -2.0]) == (1, 1, 1)
    # and at magnitude 1e-3 it is 1e-15, with no floor at unit scale
    assert _level_split([1e-3, 1e-3 + 0.9e-15, -2e-4]) == (1, 2)
    assert _level_split([1e-3, 1e-3 + 1.1e-15, -2e-4]) == (1, 1, 1)
    # levels spaced far below 1e-12 stay apart when they are all that small
    assert _level_split(np.arange(-4, 4) * 1e-13) == (1,) * 8


def test_massless_exotic_gap():
    spec = RingSpec(sites=8, circumference=TWO_PI, twist=0.0, mass=0.0)
    standard = dirac_ring_spectrum(spec, Structure.STANDARD)
    exotic = dirac_ring_spectrum(spec, Structure.EXOTIC)
    assert standard.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
    assert exotic.eigenvalues[0] == pytest.approx(0.5, abs=1e-12)


def test_second_order_spectrum_is_charge_symmetric():
    spec = RingSpec(sites=8, circumference=TWO_PI, twist=math.pi, mass=0.9)
    values = ring_spectrum(spec, first_order=False)
    assert values.size == 16
    assert np.max(np.abs(np.sort(values) + np.sort(-values)[::-1])) <= 1e-10


def test_positive_branch_agrees_with_dictionary():
    spec = RingSpec(sites=8, circumference=TWO_PI, twist=math.pi, mass=0.9)
    full = ring_spectrum(spec, first_order=False)
    positive = _group_levels(full[full > 0.0])
    exotic = dirac_ring_spectrum(spec, Structure.EXOTIC)
    assert positive.multiplicities == exotic.multiplicities
    assert np.max(np.abs(np.subtract(positive.eigenvalues, exotic.eigenvalues))) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_winding_shift_dictionary_for_three_conventions(data):
    # At convention scale s the closed form shifts p3 by (s/2)*k3, the ring
    # carries the twist (s/2) * holonomy, and D_plus at scale s shifts the
    # harmonic by s*k3/2: the same energy, mode by mode.
    half = data.draw(st.integers(2, 32), label="sites/2")
    sites = 2 * half
    length = data.draw(st.floats(0.1, 100.0), label="length")
    winding = data.draw(st.integers(1 - half, half - 1), label="winding")
    scale = data.draw(st.floats(-4.0, 4.0), label="scale")
    mass = data.draw(st.floats(0.0, 5.0), label="mass")
    theta = build_theta(sites, length, winding)
    field = gradient_field(theta, scale=scale / 2)
    spec = RingSpec(
        sites=sites, circumference=length, twist=field.scale * field.holonomy, mass=mass
    )
    modes = mode_indices(spec)
    momenta = np.column_stack((np.zeros((sites, 2)), TWO_PI * modes / length))
    closed = branch_energies(mass, momenta, field.k, field.scale, "exact").exact_minus
    # the generator's levels (2*pi*n + twist)/L ascend with n, as modes do
    lattice = np.sqrt(mass**2 + ring_spectrum(spec) ** 2)
    kernel = [kernel_mode(theta, mass, int(n), scale)[1] for n in modes]
    bound = 2e-14 * ((math.pi * sites + abs(spec.twist)) / length + mass)
    assert np.max(np.abs(lattice - closed)) <= bound
    assert np.max(np.abs(np.array(kernel) - closed)) <= bound


def test_spectrum_validation():
    with pytest.raises(DomainError):
        Spectrum(eigenvalues=(1.0, 0.5), multiplicities=(1, 1))
    with pytest.raises(DomainError):
        Spectrum(eigenvalues=(0.5,), multiplicities=(0,))
    with pytest.raises(DomainError):
        Spectrum(eigenvalues=(0.5,), multiplicities=(1, 1))
