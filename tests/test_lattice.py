import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinorlab import lattice
from spinorlab.dispersion import Structure, branch_energies, energy
from spinorlab.errors import DomainError
from spinorlab.gamma import GAMMA0, GAMMA3
from spinorlab.lattice import (
    LEVEL_TOL,
    MAX_DENSE_DIMENSION,
    STRUCTURE_TWIST,
    RingSpec,
    _dirac_sector,
    _generator_column,
    _group_levels,
    _sector_matrix,
    analytic_levels,
    mode_indices,
    ring_modes,
    ring_spectrum,
)
from spinorlab.sections import kernel_mode
from spinorlab.winding import build_theta, gradient_field, holonomy, shift_coefficient

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
    # level pi*N/L: at most 1.5e-14 over this grid
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


def _shift_sectors(sites):
    """Bases of the shift T e_k = e_{k + N/2}'s sectors sigma = +1 and -1, in the generator's order.

    Each parity column x gives (x + sigma*T x), normalized; one that
    vanishes (a fixed point of the other sector) or repeats an earlier
    column (the partner N/2 - j of a pair) is left out.
    """
    parity = _parity_basis(sites)
    shifted = np.roll(parity, sites // 2, axis=0)
    bases = []
    for sign in (1.0, -1.0):
        columns = []
        for vector in (parity + sign * shifted).T:
            norm = np.linalg.norm(vector)
            if norm > 0.5 and all(abs(np.vdot(kept, vector)) < 0.5 * norm for kept in columns):
                columns.append(vector / norm)
        bases.append(np.column_stack(columns))
    return bases


def _block_diagonal(first, second):
    zero = np.zeros((len(first), len(second)))
    return np.block([[first, zero], [zero.T, second]])


@pytest.mark.parametrize("twist", [0.0, math.pi, 1.1])
@pytest.mark.parametrize("sites", [4, 6, 10, 64])
def test_parity_basis_makes_the_generator_real_symmetric(sites, twist):
    # the parity basis split into the shift's two sectors turns the
    # generator into the two real symmetric sector matrices, for N = 0 and
    # N = 2 mod 4 alike
    spec = RingSpec(sites=sites, circumference=2.5, twist=twist, mass=0.7)
    bases = _shift_sectors(sites)
    basis = np.hstack(bases)
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(sites))) <= 1e-15
    circulant = _circulant(spec)
    column = _generator_column(spec)
    sectors = [_sector_matrix(column, sign) for sign in (1.0, -1.0)]
    for sector in sectors:
        assert sector.dtype == np.float64 and sector.shape == (sites // 2, sites // 2)
        assert np.array_equal(sector, sector.T)
    norm = np.linalg.norm(circulant, 2)
    split = basis.conj().T @ circulant @ basis
    assert np.max(np.abs(split - _block_diagonal(*sectors))) <= 1e-15 * norm
    # the Dirac operator: the same change of basis on both spinor components
    sigma1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    sigma3 = np.diag([1.0, -1.0])
    dirac = np.kron(sigma1, circulant) + spec.mass * np.kron(sigma3, np.eye(sites))
    spinor_basis = np.hstack([np.kron(np.eye(2), sector_basis) for sector_basis in bases])
    dirac_sectors = [_dirac_sector(sector, spec.mass) for sector in sectors]
    mass_term = spec.mass * np.eye(sites // 2)
    for sector, dirac_sector in zip(sectors, dirac_sectors):
        expected = np.block([[mass_term, sector], [sector, -mass_term]])
        assert np.array_equal(dirac_sector, expected)
    for sector in dirac_sectors:
        assert sector.dtype == np.float64 and np.array_equal(sector, sector.T)
    norm = np.linalg.norm(dirac, 2)
    split = spinor_basis.conj().T @ dirac @ spinor_basis
    assert np.max(np.abs(split - _block_diagonal(*dirac_sectors))) <= 1e-15 * norm


@settings(max_examples=100, deadline=None)
@given(
    half=st.integers(2, 64),
    length=st.floats(-3.0, 3.0).map(lambda exponent: 10.0**exponent),
    twist=st.floats(-10.0, 10.0),
    mass=st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda exponent: 10.0**exponent)),
)
def test_sector_split_matches_the_analytic_spectrum(half, length, twist, mass):
    # eigvalsh rounding is on the scale of the operator: (pi*N + |twist|)/L
    # for the generator, plus m for the Dirac operator
    spec = RingSpec(2 * half, length, twist, mass)
    top = (math.pi * spec.sites + abs(twist)) / length
    levels = analytic_levels(spec)
    assert np.max(np.abs(ring_spectrum(spec) - levels)) <= 2e-14 * top
    energies = energy(mass, levels[:, None])
    expected = np.sort(np.concatenate([-energies, energies]))
    dirac = ring_spectrum(spec, first_order=False)
    assert np.max(np.abs(dirac - expected)) <= 2e-14 * (top + mass)


@pytest.mark.parametrize("sites", [512, 1026])
def test_no_operator_is_built_at_full_dimension(monkeypatch, sites):
    # eigvalsh sees the two sectors only, and no array the size of the
    # operator (8 N^2 bytes for the generator, 32 N^2 for Dirac) is
    # allocated; a Dirac sector (8 N^2) is filled in place, with no mass
    # blocks alive beside it, so that path peaks below 1.5 sectors
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recorder(matrix):
        shapes.append(matrix.shape)
        return eigvalsh(matrix)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorder)
    spec = RingSpec(sites=sites, circumference=2.0, twist=1.1, mass=0.5)
    for first_order, dimension, bound in ((True, sites, 8), (False, 2 * sites, 3)):
        shapes.clear()
        tracemalloc.start()
        try:
            ring_spectrum(spec, first_order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert shapes == [(dimension // 2, dimension // 2)] * 2
        assert peak < bound * dimension**2


def test_dense_dimension_is_bounded():
    # both refusals come before any matrix is built
    with pytest.raises(DomainError, match=f"over the limit {MAX_DENSE_DIMENSION}"):
        ring_spectrum(RingSpec(sites=MAX_DENSE_DIMENSION + 2, circumference=1.0, twist=0.0))
    dirac = RingSpec(sites=MAX_DENSE_DIMENSION // 2 + 2, circumference=1.0, twist=0.0)
    with pytest.raises(DomainError, match=f"dimension {MAX_DENSE_DIMENSION + 4}"):
        ring_spectrum(dirac, first_order=False)


def test_a_ring_whose_levels_overflow_is_refused():
    # the top level (pi*N + |twist|)/L is refused when it is not finite
    with pytest.raises(DomainError, match=r"top level \(pi\*N \+ \|twist\|\)/L overflows"):
        RingSpec(sites=8, circumference=1e-310, twist=0.0)
    # just inside that limit the generator's Fourier sums still overflow
    for length, twist in ((1.4e-307, 0.0), (1.0, 1.7e308)):
        spec = RingSpec(sites=8, circumference=length, twist=twist)
        with pytest.raises(DomainError, match="generator entries overflow float64"):
            ring_spectrum(spec)


def test_ring_modes_refuses_an_overflowing_energy_on_the_exact_levels(monkeypatch):
    # at twist pi the largest |e_n| is pi*(N - 1)/L, one level inside the
    # (pi*N + |twist|)/L that RingSpec checks: that ring is solved at
    # m = 1.3e308 and refused, by its inputs, at m = 1.5e308
    monkeypatch.setattr(lattice, "ring_spectrum", analytic_levels)
    edge = RingSpec(sites=8, circumference=2e-307, twist=math.pi, mass=1.3e308)
    assert not math.isfinite(math.hypot(edge.mass, 9 * math.pi / edge.circumference))
    _, _, energy, _ = ring_modes(edge)
    assert np.max(energy) == math.hypot(edge.mass, 7 * math.pi / edge.circumference)
    beyond = RingSpec(sites=8, circumference=2e-307, twist=math.pi, mass=1.5e308)
    with pytest.raises(DomainError, match=r"m = 1\.5e\+308, N = 8, L = 2e-307, twist = 3\.14"):
        ring_modes(beyond)


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


def _level_starts(size):
    """The first row of each level in ring_modes' (level, n) order."""
    starts = [0]
    while starts[-1] + size[starts[-1]] < len(size):
        starts.append(starts[-1] + int(size[starts[-1]]))
    return starts


def test_the_ring_block_is_a_block_of_the_four_spinor_hamiltonian():
    # alpha3 = g0 g3 is +1 on spinor components (0, 2) and -1 on (1, 3), so
    # H = alpha3 p + g0 m is two copies of the ring's 2 x 2 block, at p and
    # at -p.  Every entry is nonzero at m > 0, so equal values are equal bits
    rng = np.random.default_rng(10)
    alpha3 = GAMMA0 @ GAMMA3
    momenta = rng.choice([-1.0, 1.0], 300) * 10.0 ** rng.uniform(-100, 100, 300)
    masses = 10.0 ** rng.uniform(-100, 100, 300)
    for p, m in [*zip(momenta, masses), (0.7, 1.3), (-2.0, 1e-9)]:
        hamiltonian = alpha3 * p + GAMMA0 * m
        for components, sign in (([0, 2], 1.0), ([1, 3], -1.0)):
            block = hamiltonian[np.ix_(components, components)]
            assert np.all(block.imag == 0.0)
            assert np.array_equal(block.real, lattice._dirac_sector(np.array([[sign * p]]), m))


def _levels(spec):
    """ring_modes' level energies and multiplicities, read from each level's first row."""
    _, _, energy, size = ring_modes(spec)
    starts = _level_starts(size)
    return energy[starts], tuple(size[starts].tolist())


def _structure_ring(sites, length, structure, mass):
    return RingSpec(sites, length, STRUCTURE_TWIST[structure], mass)


def test_dirac_levels_standard_structure():
    energies, sizes = _levels(_structure_ring(8, TWO_PI, Structure.STANDARD, 1.0))
    assert energies[0] == pytest.approx(1.0, abs=1e-12)
    assert sizes[0] == 1
    assert energies[1] == pytest.approx(SQRT2, abs=1e-12)
    assert sizes[1] == 2


def test_dirac_levels_exotic_structure():
    energies, sizes = _levels(_structure_ring(8, TWO_PI, Structure.EXOTIC, 1.0))
    # no momentum-zero mode: the ground level is doubly degenerate
    assert energies[0] == pytest.approx(SQRT125, abs=1e-12)
    assert sizes[0] == 2
    assert energies[1] == pytest.approx(math.sqrt(3.25), abs=1e-12)
    assert sizes[1] == 2


@pytest.mark.parametrize("structure", [Structure.STANDARD, Structure.EXOTIC])
def test_dirac_levels_keep_degeneracy_at_large_momenta(structure):
    # |e_n| reaches 2*pi*512, where eigvalsh rounding exceeds an absolute 1e-12
    _, sizes = _levels(_structure_ring(1024, 1.0, structure, 0.5))
    if structure is Structure.STANDARD:
        # n = 0 and n = -512 are single; n and -n pair up for 0 < n < 512
        assert sizes == (1,) + (2,) * 511 + (1,)
    else:
        # n and -n - 1 pair up for every mode
        assert sizes == (2,) * 512


def _level_split(values):
    return tuple(_group_levels(np.sort(values)).tolist())


def _group_levels_loop(values, window):
    """Reference: one pass over the sorted values with a fixed window."""
    levels, counts = [], []
    for value in np.sort(values):
        if levels and abs(value - levels[-1]) <= window:
            counts[-1] += 1
        else:
            levels.append(float(value))
            counts.append(1)
    return tuple(counts)


def test_group_levels_matches_loop_at_unit_scale():
    rng = np.random.default_rng(4)
    base = rng.uniform(-1.0, 1.0, 200)
    values = np.concatenate([base, base[:80] + rng.uniform(-4e-13, 4e-13, 80)])
    window = LEVEL_TOL * np.max(np.abs(values))
    assert _level_split(values) == _group_levels_loop(values, window)


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
    standard, _ = _levels(_structure_ring(8, TWO_PI, Structure.STANDARD, 0.0))
    exotic, _ = _levels(_structure_ring(8, TWO_PI, Structure.EXOTIC, 0.0))
    assert standard[0] == pytest.approx(0.0, abs=1e-12)
    assert exotic[0] == pytest.approx(0.5, abs=1e-12)


def test_second_order_spectrum_is_charge_symmetric():
    spec = RingSpec(sites=8, circumference=TWO_PI, twist=math.pi, mass=0.9)
    values = ring_spectrum(spec, first_order=False)
    assert values.size == 16
    assert np.max(np.abs(np.sort(values) + np.sort(-values)[::-1])) <= 1e-10


def test_positive_branch_agrees_with_dictionary():
    spec = RingSpec(sites=8, circumference=TWO_PI, twist=math.pi, mass=0.9)
    full = ring_spectrum(spec, first_order=False)
    positive = full[full > 0.0]
    sizes = _group_levels(positive)
    energies, exotic_sizes = _levels(spec)
    assert tuple(sizes.tolist()) == exotic_sizes
    starts = np.r_[0, np.cumsum(sizes[:-1])]
    assert np.max(np.abs(positive[starts] - energies)) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_winding_shift_dictionary_for_three_conventions(data):
    # At convention scale s, with c = shift_coefficient(s), the closed form
    # shifts p3 by c*k3, the ring carries the twist c * holonomy, and D_plus
    # at scale s shifts the harmonic by c*k3: the same energy, mode by mode.
    half = data.draw(st.integers(2, 32), label="sites/2")
    sites = 2 * half
    length = data.draw(st.floats(0.1, 100.0), label="length")
    winding = data.draw(st.integers(1 - half, half - 1), label="winding")
    scale = data.draw(st.floats(-4.0, 4.0), label="scale")
    mass = data.draw(st.floats(0.0, 5.0), label="mass")
    theta = build_theta(sites, length, winding)
    field = gradient_field(theta, scale=shift_coefficient(scale))
    spec = RingSpec(
        sites=sites, circumference=length, twist=field.scale * holonomy(theta), mass=mass
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



@settings(max_examples=150, deadline=None)
@given(
    half=st.integers(2, 128),
    length=st.floats(-12.0, 15.0).map(lambda exponent: 10.0**exponent),
    mass_scale=st.one_of(st.just(0.0), st.floats(-3.0, 5.0).map(lambda e: 10.0**e)),
    twist=st.one_of(st.integers(-3, 3).map(lambda k: k * math.pi), st.floats(-10.0, 10.0)),
)
def test_levels_hold_exactly_the_analytic_partners(half, length, mass_scale, twist):
    # at twist k*pi, |e_n| = |e_{-n-k}|: a level is {n, -n - k} inside the
    # mode range, or n alone; any other twist pairs no modes
    k = round(twist / math.pi)
    if twist != k * math.pi:
        k = None
    mass = mass_scale / length  # the mass on the scale of the levels 2*pi*n/L
    spec = RingSpec(2 * half, length, twist, mass)
    modes = mode_indices(spec).tolist()

    def partners(n):
        return {n, -n - k} & set(modes) if k is not None else {n}

    analytic = np.hypot(mass, (TWO_PI * np.array(modes) + twist) / length)
    distinct = np.sort([e for n, e in zip(modes, analytic) if n == min(partners(n))])
    # distinct analytic levels closer than eigvalsh can resolve at this
    # window (a twist near k*pi, or a mass that dwarfs the momenta) merge by
    # rounding, not by a fault, so those draws say nothing
    window = LEVEL_TOL * float(np.max(analytic))
    assume(np.all(np.diff(distinct) > 100 * window))
    n, _, energy, size = ring_modes(spec)
    assert np.all(np.diff(energy[_level_starts(size)]) > 0)
    for start in _level_starts(size):
        level = n[start : start + size[start]]
        assert np.all(size[start : start + size[start]] == size[start])
        assert set(level.tolist()) == partners(int(level[0]))
