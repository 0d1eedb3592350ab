import math

import numpy as np
import pytest

from spinorlab.dispersion import Structure
from spinorlab.errors import DomainError
from spinorlab import sections
from spinorlab.gamma import GAMMA0, GAMMA3
from spinorlab.sections import (
    HalfWindingPhase,
    SampledSection,
    commutation_residual,
    density_residual,
    exotic_dirac,
    grid_norm,
    half_phase,
    intertwining_residual,
    kernel_mode,
    kernel_residuals,
    map_checks,
    map_residuals,
    plane_wave_section,
    random_band_limited_section,
    ring_derivative,
    section_from_json,
    section_to_json,
    standard_dirac,
    to_exotic,
    to_standard,
)
from spinorlab.winding import build_theta, gradient_field, pointwise_gradient

TWO_PI = 2.0 * math.pi
N = 64


def _theta(w=1, L=TWO_PI, n=N):
    return build_theta(n, L, w)


def test_half_phase_unimodular_and_squares_to_full_angle():
    theta = _theta(w=3)
    phase = half_phase(theta)
    assert np.max(np.abs(np.abs(phase.values) - 1.0)) <= 1e-14
    full = np.exp(1j * theta.samples)
    assert np.max(np.abs(phase.values**2 - full)) <= 1e-12
    assert phase.winding == 3


def test_plane_wave_picks_up_half_integer_harmonic():
    # the image of harmonic n under the phase map is harmonic n + 1/2
    theta = _theta()
    x = theta.circumference * np.arange(N) / N
    spinor = np.array([1.0, 0.0, 2.0, 0.0], dtype=complex)
    section = plane_wave_section(N, theta.circumference, 2, spinor)
    image = to_standard(section, half_phase(theta))
    expected = np.exp(1j * 2.5 * x)[:, None] * spinor[None, :]
    assert np.max(np.abs(image.values - expected)) <= 1e-12
    assert image.structure is Structure.STANDARD
    assert image.antiperiodic  # odd winding turns periodic into antiperiodic


def test_even_winding_keeps_periodicity():
    theta = _theta(w=2)
    section = random_band_limited_section(N, TWO_PI, np.random.default_rng(0))
    image = to_standard(section, half_phase(theta))
    assert not image.antiperiodic


def _direct_sum_section(sites, circumference, rng):
    """Reference: harmonic-by-harmonic synthesis, one draw of re(4), im(4) each."""
    x = np.arange(sites) * (circumference / sites)
    cutoff = sites // 4
    values = np.zeros((sites, 4), dtype=complex)
    for n in range(-cutoff, cutoff + 1):
        coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        values += np.exp(2j * math.pi * n * x / circumference)[:, None] * coeffs
    return values / math.sqrt(np.max(np.sum(np.abs(values) ** 2, axis=1)))


@pytest.mark.parametrize("sites", [8, 9, 64, 257, 1024])
def test_random_section_matches_direct_sum(sites):
    reference_rng, rng = np.random.default_rng(21), np.random.default_rng(21)
    expected = _direct_sum_section(sites, 3.3, reference_rng)
    section = random_band_limited_section(sites, 3.3, rng)
    assert np.max(np.abs(section.values - expected)) <= 1e-12
    # the generator is left exactly where the per-harmonic draws leave it
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.mark.parametrize("sites", [8, 9, 64, 1024])
def test_random_section_is_band_limited(sites):
    section = random_band_limited_section(sites, 2.0, np.random.default_rng(5))
    spectrum = np.abs(np.fft.fft(section.values, axis=0))
    harmonics = np.abs(np.fft.fftfreq(sites, d=1.0 / sites))
    outside = harmonics > sites // 4
    assert np.max(spectrum[outside]) <= 1e-12 * np.max(spectrum)
    assert np.max(np.sum(np.abs(section.values) ** 2, axis=1)) == pytest.approx(1.0, abs=1e-15)


def test_round_trip_restores_section():
    rng = np.random.default_rng(8)
    theta = _theta()
    phase = half_phase(theta)
    section = random_band_limited_section(N, TWO_PI, rng)
    back = to_exotic(to_standard(section, phase), phase)
    assert back.structure is Structure.EXOTIC
    assert back.antiperiodic == section.antiperiodic
    assert np.max(np.abs(back.values - section.values)) <= 1e-15


def test_structure_and_grid_guards():
    theta = _theta()
    phase = half_phase(theta)
    section = random_band_limited_section(N, TWO_PI, np.random.default_rng(1))
    standard = to_standard(section, phase)
    with pytest.raises(DomainError):
        to_standard(standard, phase)
    with pytest.raises(DomainError):
        to_exotic(section, phase)
    other = random_band_limited_section(32, TWO_PI, np.random.default_rng(1))
    with pytest.raises(DomainError):
        to_standard(other, phase)


def test_phase_must_be_unimodular():
    with pytest.raises(DomainError):
        HalfWindingPhase(
            values=np.array([1.0, 1.0, 2.0, 1.0], dtype=complex),
            winding=0,
            circumference=1.0,
        )


def test_ring_derivative_periodic_exact():
    x = TWO_PI * np.arange(N) / N
    for n in (-5, 0, 3):
        values = np.exp(1j * n * x)[:, None] * np.ones((1, 4))
        deriv = ring_derivative(values, TWO_PI, antiperiodic=False)
        assert np.max(np.abs(deriv - 1j * n * values)) <= 1e-12


def test_ring_derivative_antiperiodic_exact():
    # half-integer harmonics are the antiperiodic band
    x = TWO_PI * np.arange(N) / N
    for half in (-1.5, 0.5, 2.5):
        values = np.exp(1j * half * x)[:, None] * np.ones((1, 4))
        deriv = ring_derivative(values, TWO_PI, antiperiodic=True)
        assert np.max(np.abs(deriv - 1j * half * values)) <= 1e-12


def _multiplier(theta, scale=1.0):
    """D_plus's pointwise factor -(s/2)*theta', as map_residuals builds it."""
    return -0.5 * scale * pointwise_gradient(theta)


def test_intertwining_both_directions_vanish():
    rng = np.random.default_rng(12)
    theta = _theta()
    phase = half_phase(theta)
    for _ in range(5):
        section = random_band_limited_section(N, TWO_PI, rng)
        plus, minus = intertwining_residual(section, phase, _multiplier(theta), mass=0.7)
        assert plus <= 1e-10
        assert minus <= 1e-10


def test_intertwining_detects_wrong_multiplier_strength():
    rng = np.random.default_rng(12)
    theta = _theta()
    section = random_band_limited_section(N, TWO_PI, rng)
    residuals = intertwining_residual(section, half_phase(theta), _multiplier(theta, 0.5), 0.7)
    assert min(residuals) > 1e-2


def test_intertwining_with_transverse_momentum_and_energy():
    rng = np.random.default_rng(14)
    theta = _theta()
    section = random_band_limited_section(N, TWO_PI, rng)
    residuals = intertwining_residual(
        section, half_phase(theta), _multiplier(theta), 0.3, p_transverse=(0.2, -0.1), energy=0.9
    )
    assert max(residuals) <= 1e-10


def _per_direction(section, theta, mass, direction, scale, p_transverse, energy):
    """Reference: one identity at a time, each with its own phase and operators."""
    phase = half_phase(theta)
    if direction == "plus":
        inner = exotic_dirac(section, theta, mass, "plus", scale, p_transverse, energy)
        lhs = to_standard(inner, phase)
        rhs = standard_dirac(to_standard(section, phase), mass, p_transverse, energy)
    else:
        lhs = to_standard(standard_dirac(section, mass, p_transverse, energy), phase)
        rhs = exotic_dirac(
            to_standard(section, phase), theta, mass, "minus", scale, p_transverse, energy
        )
    return grid_norm(lhs.values - rhs.values, section.circumference)


@pytest.mark.parametrize("winding", [0, 1, -3, 2])
@pytest.mark.parametrize("scale", [1.0, 0.5, -2.0])
def test_one_pass_pair_is_the_per_direction_computation(winding, scale):
    rng = np.random.default_rng(100 + winding)
    for sites, length in ((64, TWO_PI), (40, 3.7)):
        theta = _theta(w=winding, L=length, n=sites)
        phase = half_phase(theta)
        for p_transverse, energy in (((0.0, 0.0), 0.0), ((0.2, -0.7), 1.3)):
            section = random_band_limited_section(sites, length, rng)
            pair = intertwining_residual(
                section, phase, _multiplier(theta, scale), 0.6, p_transverse, energy
            )
            reference = tuple(
                _per_direction(section, theta, 0.6, direction, scale, p_transverse, energy)
                for direction in ("plus", "minus")
            )
            assert pair == reference  # bit for bit


@pytest.mark.parametrize("winding", [1, -2])
def test_map_residuals_is_the_per_direction_computation(winding):
    rng = np.random.default_rng(31)
    theta = _theta(w=winding)
    drawn = [random_band_limited_section(N, TWO_PI, rng) for _ in range(4)]
    worst = map_residuals(drawn, theta, 0.9, scale=0.5)
    for key, direction in (("intertwine_plus", "plus"), ("intertwine_minus", "minus")):
        reference = max(
            _per_direction(section, theta, 0.9, direction, 0.5, (0.0, 0.0), 0.0)
            for section in drawn
        )
        assert worst[key] == reference


def test_map_residuals_takes_one_phase_and_two_derivatives_per_section(monkeypatch):
    theta = _theta(w=3)  # odd: the images take the antiperiodic derivative
    rng = np.random.default_rng(2)
    drawn = [random_band_limited_section(N, TWO_PI, rng) for _ in range(5)]
    calls = {"half_phase": 0, "fft": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(sections, "half_phase", counted("half_phase", sections.half_phase))
    # every ring derivative, periodic or on the doubled ring, is one forward FFT
    monkeypatch.setattr(np.fft, "fft", counted("fft", np.fft.fft))
    map_residuals(drawn, theta, 0.8)
    assert calls == {"half_phase": 1, "fft": 2 * len(drawn)}


def test_commutation_residual_exact_zero_on_unit_ring():
    theta = _theta()
    field = gradient_field(theta)
    section = random_band_limited_section(N, TWO_PI, np.random.default_rng(2))
    assert commutation_residual(section, field, half_phase(theta)) == 0.0


def test_density_preserved_pointwise():
    theta = _theta(w=2)
    section = random_band_limited_section(N, TWO_PI, np.random.default_rng(4))
    assert density_residual(section, half_phase(theta)) <= 1e-15


def test_kernel_modes_are_annihilated():
    theta = _theta()
    for scale in (1.0, -1.0, 0.5):
        for harmonic in (-2, 0, 1):
            section, energy = kernel_mode(theta, mass=0.8, harmonic=harmonic, scale=scale)
            out = exotic_dirac(section, theta, 0.8, "plus", scale=scale, energy=energy)
            assert grid_norm(out.values, TWO_PI) <= 1e-10
            # D_minus at scale s is D_plus at scale -s
            out = exotic_dirac(section, theta, 0.8, "minus", scale=-scale, energy=energy)
            assert grid_norm(out.values, TWO_PI) <= 1e-10


def test_kernel_mode_energy_is_shifted_on_shell():
    theta = _theta()
    section, energy = kernel_mode(theta, mass=0.8, harmonic=0)
    assert energy == pytest.approx(math.sqrt(0.8**2 + 0.25), abs=1e-12)
    # at scale 0 D_plus is D0: the free mode
    _, free_energy = kernel_mode(theta, mass=0.8, harmonic=1, scale=0.0)
    assert free_energy == pytest.approx(math.sqrt(0.8**2 + 1.0), abs=1e-12)
    out = standard_dirac(section, 0.8, energy=energy)
    # the shifted-kernel mode is not annihilated by the standard operator
    assert grid_norm(out.values, TWO_PI) > 1e-2


def test_free_kernel_mode_annihilated_by_standard_operator():
    theta = _theta()
    section, energy = kernel_mode(theta, mass=0.5, harmonic=1, scale=0.0)
    out = standard_dirac(section, 0.5, energy=energy)
    assert grid_norm(out.values, TWO_PI) <= 1e-10


@pytest.mark.parametrize("mass", [0.0, 1e-9, 1e-300])
def test_kernel_mode_at_zero_energy(mass):
    # winding -2 on the unit ring shifts harmonic 1 to q_eff = 0
    theta = _theta(w=-2)
    section, energy = kernel_mode(theta, mass, harmonic=1)
    assert abs(energy - mass) <= 1e-15
    # E + m is the only nonzero entry of column 0, or the projector vanishes
    assert np.max(np.abs(section.values[0] - np.eye(4)[0])) <= 1e-15
    assert max(kernel_residuals(theta, mass, 1)) <= 1e-12
    drawn = [random_band_limited_section(N, TWO_PI, np.random.default_rng(0))]
    assert all(value <= bound for _, value, bound in map_checks(drawn, theta, mass))


def test_massless_kernel_mode_at_tiny_momentum():
    # q_eff = 1 - scale = -1e-10: e_0 is not in the kernel, column 0 is
    theta = _theta(w=-2)
    section, energy = kernel_mode(theta, 0.0, 1, 1.0 + 1e-10)
    assert energy == pytest.approx(1e-10, rel=1e-6)
    # the mapped mode is off by the 1e-10 scale error; the mode itself is exact
    kernel, _ = kernel_residuals(theta, 0.0, 1, 1.0 + 1e-10)
    assert kernel <= 1e-12


def test_vanishing_projector_takes_the_first_basis_spinor():
    # flat field, harmonic 0, massless: E = 0 and D_plus is zero on constants
    theta = _theta(w=0)
    section, energy = kernel_mode(theta, 0.0, harmonic=0)
    assert energy == 0.0
    assert np.array_equal(section.values, np.tile(np.eye(4)[0], (N, 1)))
    assert kernel_residuals(theta, 0.0, 0) == (0.0, 0.0)


def _first_large_column(theta, mass, harmonic, scale):
    """Reference: the first projector column with norm above 1e-8, or None."""
    q_eff = 2.0 * math.pi * harmonic / theta.circumference
    q_eff = q_eff + 0.5 * scale * float(np.mean(pointwise_gradient(theta)))
    energy = math.sqrt(mass**2 + q_eff**2)
    onshell = energy * GAMMA0 - q_eff * GAMMA3 + mass * np.eye(4)
    for column in range(4):
        candidate = onshell[:, column]
        if np.linalg.norm(candidate) > 1e-8:
            return candidate / np.linalg.norm(candidate)
    return None


def test_kernel_spinor_is_the_first_large_projector_column():
    rng = np.random.default_rng(40)
    checked = 0
    for _ in range(200):
        winding = int(rng.integers(-7, 8))
        length = float(rng.uniform(0.5, 20.0))
        theta = build_theta(N, length, winding)
        mass = float(rng.choice([0.0, 1e-9, rng.uniform(0.0, 3.0)]))
        harmonic = int(rng.integers(-5, 6))
        scale = float(rng.choice([1.0, 0.5, -2.0, rng.uniform(-4.0, 4.0)]))
        reference = _first_large_column(theta, mass, harmonic, scale)
        section, _ = kernel_mode(theta, mass, harmonic, scale)
        if reference is not None:
            checked += 1
            # column 0 wherever the old scan found a column: the same bits
            assert np.array_equal(section.values[0], reference)
    assert checked >= 150


def test_flat_field_phase_is_identity():
    theta = _theta(w=0)
    phase = half_phase(theta)
    assert np.all(phase.values == 1.0)
    section = random_band_limited_section(N, TWO_PI, np.random.default_rng(9))
    image = to_standard(section, phase)
    assert np.array_equal(image.values, section.values)
    assert image.antiperiodic == section.antiperiodic


def test_grid_norm_constant_density():
    values = np.zeros((16, 4), dtype=complex)
    values[:, 0] = 1.0
    assert grid_norm(values, 3.0) == pytest.approx(math.sqrt(3.0), abs=1e-14)


def test_section_json_round_trip():
    section = random_band_limited_section(16, 5.0, np.random.default_rng(6))
    again = section_from_json(section_to_json(section))
    assert np.array_equal(again.values, section.values)
    assert again.structure is section.structure
    assert again.circumference == section.circumference
    assert again.antiperiodic == section.antiperiodic


def test_section_json_rejects_garbage():
    with pytest.raises(DomainError):
        section_from_json("[1, 2")
    with pytest.raises(DomainError):
        section_from_json('{"structure": "exotic"}')


def test_exotic_dirac_guards():
    theta = _theta()
    section = random_band_limited_section(N, TWO_PI, np.random.default_rng(3))
    with pytest.raises(DomainError):
        exotic_dirac(section, theta, 0.5, "sideways")
    with pytest.raises(DomainError):
        exotic_dirac(section, build_theta(32, TWO_PI, 1), 0.5, "plus")
    with pytest.raises(DomainError):
        standard_dirac(section, -1.0)
