import math

import numpy as np
import pytest

from spinorlab.dispersion import Branch, ModeSpec, Structure, dispersion_exact
from spinorlab.errors import DomainError
from spinorlab.lattice import (
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
    verify_dispersion,
)
from spinorlab.winding import WindingGradient, build_theta, gradient_field

TWO_PI = 2.0 * math.pi

SQRT2 = math.sqrt(2.0)
SQRT125 = 1.118033988749895  # sqrt(1.25), frozen by hand


def _expand(spectrum):
    return [
        e for e, m in zip(spectrum.eigenvalues, spectrum.multiplicities) for _ in range(m)
    ]


def test_untwisted_momenta_are_integers():
    spec = RingSpec(sites=8, circumference=TWO_PI, twist=0.0)
    spectrum = ring_spectrum(spec)
    assert np.allclose(_expand(spectrum), np.arange(-4, 4), atol=1e-12)
    assert spectrum.total_count == 8


def test_twisted_momenta_are_half_integers():
    spec = RingSpec(sites=8, circumference=TWO_PI, twist=math.pi)
    spectrum = ring_spectrum(spec)
    assert np.allclose(_expand(spectrum), np.arange(-4, 4) + 0.5, atol=1e-12)


def test_numerics_match_quantization_rule():
    rng = np.random.default_rng(17)
    for _ in range(25):
        spec = RingSpec(
            sites=2 * int(rng.integers(2, 24)),
            circumference=float(rng.uniform(0.4, 20.0)),
            twist=float(rng.uniform(-8.0, 8.0)),
        )
        numeric = np.array(_expand(ring_spectrum(spec)))
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
        numeric = np.array(_expand(ring_spectrum(spec)))
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
    lower = np.array(_expand(ring_spectrum(base)))
    upper = np.array(_expand(ring_spectrum(turned)))
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


def _level_split(tol, values):
    return _group_levels(np.array(values), tol).multiplicities


def _group_levels_loop(values, tol):
    """Reference: one pass over the sorted values with an absolute window."""
    levels, counts = [], []
    for value in np.sort(values):
        if levels and abs(value - levels[-1]) <= tol:
            counts[-1] += 1
        else:
            levels.append(float(value))
            counts.append(1)
    return Spectrum(eigenvalues=tuple(levels), multiplicities=tuple(counts))


def test_group_levels_matches_loop_at_unit_scale():
    rng = np.random.default_rng(4)
    base = rng.uniform(-1.0, 1.0, 200)
    values = np.concatenate([base, base[:80] + rng.uniform(-4e-13, 4e-13, 80)])
    assert _group_levels(values) == _group_levels_loop(values, 1e-12)


def test_group_levels_window_scales_with_largest_value():
    assert _level_split(1e-12, [0.5, 0.5 + 0.9e-12, 0.7]) == (2, 1)
    assert _level_split(1e-12, [0.5, 0.5 + 1.1e-12, 0.7]) == (1, 1, 1)
    # at magnitude 1e3 the window is 1e-9
    assert _level_split(1e-12, [1e3, 1e3 + 0.9e-9, -2.0]) == (1, 2)
    assert _level_split(1e-12, [1e3, 1e3 + 1.1e-9, -2.0]) == (1, 1, 1)


def test_massless_exotic_gap():
    spec = RingSpec(sites=8, circumference=TWO_PI, twist=0.0, mass=0.0)
    standard = dirac_ring_spectrum(spec, Structure.STANDARD)
    exotic = dirac_ring_spectrum(spec, Structure.EXOTIC)
    assert standard.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
    assert exotic.eigenvalues[0] == pytest.approx(0.5, abs=1e-12)


def test_second_order_spectrum_is_charge_symmetric():
    spec = RingSpec(sites=8, circumference=TWO_PI, twist=math.pi, mass=0.9)
    spectrum = ring_spectrum(spec, first_order=False)
    values = np.array(_expand(spectrum))
    assert values.size == 16
    assert np.max(np.abs(np.sort(values) + np.sort(-values)[::-1])) <= 1e-10


def test_positive_branch_agrees_with_dictionary():
    spec = RingSpec(sites=8, circumference=TWO_PI, twist=math.pi, mass=0.9)
    full = np.array(_expand(ring_spectrum(spec, first_order=False)))
    positive = np.sort(full[full > 0.0])
    exotic = np.array(_expand(dirac_ring_spectrum(spec, Structure.EXOTIC)))
    assert np.max(np.abs(positive - exotic)) <= 1e-10


def _aligned_field(scale=0.5):
    # unit winding on the 2*pi ring gives k3 = 1; scale 0.5 puts the energy
    # shift at pi/L, exactly the exotic boundary twist
    return gradient_field(build_theta(64, TWO_PI, 1), scale=scale)


def test_verify_dispersion_matches_exotic_lattice():
    spec = RingSpec(sites=8, circumference=TWO_PI, twist=math.pi, mass=1.0)
    report = verify_dispersion(spec, _aligned_field(), tol=1e-12)
    assert report.passed
    assert report.max_deviation <= 1e-12


def test_verify_dispersion_flags_twist_mismatch():
    spec = RingSpec(sites=8, circumference=TWO_PI, twist=0.0, mass=1.0)
    report = verify_dispersion(spec, _aligned_field(), tol=1e-12)
    assert not report.passed
    assert report.max_deviation > 0.1


def test_verify_dispersion_flat_field_standard_lattice():
    spec = RingSpec(sites=8, circumference=TWO_PI, twist=0.0, mass=1.0)
    flat = WindingGradient(k=np.zeros(3), holonomy=0.0)
    report = verify_dispersion(spec, flat, tol=1e-12)
    assert report.passed


def _verify_dispersion_per_mode(spec, field, p_transverse):
    """verify_dispersion's deviations computed one mode at a time."""
    p1, p2 = p_transverse
    shift = field.scale * float(field.k[2])
    branch = Branch.STANDARD if shift == 0.0 else Branch.EXOTIC_MINUS
    lattice = np.sort(
        [math.sqrt(spec.mass**2 + p1**2 + p2**2 + e**2) for e in _expand(ring_spectrum(spec))]
    )
    continuum = np.sort(
        [
            dispersion_exact(
                ModeSpec(spec.mass, np.array([p1, p2, TWO_PI * n / spec.circumference]), branch),
                field,
            )
            for n in mode_indices(spec)
        ]
    )
    return np.abs(lattice - continuum), max(np.max(lattice), np.max(continuum))


@pytest.mark.parametrize(
    "sites, twist, mass, field, p_transverse",
    [
        (8, math.pi, 1.0, _aligned_field(), (0.0, 0.0)),
        (64, math.pi, 0.0, _aligned_field(), (0.3, -0.4)),
        (32, 0.0, 0.7, _aligned_field(), (0.0, 0.0)),
        (16, 0.0, 0.0, WindingGradient(k=np.zeros(3), holonomy=0.0), (0.0, 0.0)),
    ],
)
def test_verify_dispersion_matches_the_per_mode_loop(sites, twist, mass, field, p_transverse):
    spec = RingSpec(sites=sites, circumference=TWO_PI, twist=twist, mass=mass)
    report = verify_dispersion(spec, field, p_transverse=p_transverse)
    reference, energy = _verify_dispersion_per_mode(spec, field, p_transverse)
    # e**2 was a libm pow per mode and is now a square: a few ulps of the
    # largest energy, fixed from the dtype before comparing
    assert np.max(np.abs(np.array(report.deviations) - reference)) <= 4 * 2.0**-52 * energy


def test_verify_dispersion_rejects_wrong_circumference():
    spec = RingSpec(sites=8, circumference=TWO_PI, twist=math.pi, mass=1.0)
    bad = WindingGradient(k=np.array([0.0, 0.0, 2.0]), holonomy=TWO_PI, scale=0.5)
    with pytest.raises(DomainError):
        verify_dispersion(spec, bad)


def test_verify_dispersion_rejects_transverse_field():
    spec = RingSpec(sites=8, circumference=TWO_PI, twist=0.0, mass=1.0)
    sideways = WindingGradient(k=np.array([1.0, 0.0, 0.0]), holonomy=0.0)
    with pytest.raises(DomainError):
        verify_dispersion(spec, sideways)


def test_spectrum_validation():
    with pytest.raises(DomainError):
        Spectrum(eigenvalues=(1.0, 0.5), multiplicities=(1, 1))
    with pytest.raises(DomainError):
        Spectrum(eigenvalues=(0.5,), multiplicities=(0,))
    with pytest.raises(DomainError):
        Spectrum(eigenvalues=(0.5,), multiplicities=(1, 1))
