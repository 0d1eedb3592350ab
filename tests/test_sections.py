import math

import numpy as np
import pytest

from spinorlab.dispersion import Structure
from spinorlab.errors import DomainError
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
    plane_wave_section,
    random_band_limited_section,
    ring_derivative,
    section_from_json,
    section_to_json,
    standard_dirac,
    to_exotic,
    to_standard,
)
from spinorlab.winding import build_theta, gradient_field

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


def test_intertwining_both_directions_vanish():
    rng = np.random.default_rng(12)
    theta = _theta()
    for _ in range(5):
        section = random_band_limited_section(N, TWO_PI, rng)
        for direction in ("plus", "minus"):
            residual = intertwining_residual(
                section, theta, mass=0.7, direction=direction, scale=1.0
            )
            assert residual <= 1e-10


def test_intertwining_detects_wrong_multiplier_strength():
    rng = np.random.default_rng(12)
    theta = _theta()
    section = random_band_limited_section(N, TWO_PI, rng)
    residual = intertwining_residual(section, theta, mass=0.7, scale=0.5)
    assert residual > 1e-2


def test_intertwining_with_transverse_momentum_and_energy():
    rng = np.random.default_rng(14)
    theta = _theta()
    section = random_band_limited_section(N, TWO_PI, rng)
    residual = intertwining_residual(
        section, theta, 0.3, "plus", 1.0, p_transverse=(0.2, -0.1), energy=0.9
    )
    assert residual <= 1e-10


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
    for operator in ("plus", "minus"):
        for harmonic in (-2, 0, 1):
            section, energy = kernel_mode(
                theta, mass=0.8, harmonic=harmonic, operator=operator
            )
            out = exotic_dirac(
                section, theta, 0.8, operator, scale=1.0, energy=energy
            )
            assert grid_norm(out.values, TWO_PI) <= 1e-10


def test_kernel_mode_energy_is_shifted_on_shell():
    theta = _theta()
    section, energy = kernel_mode(theta, mass=0.8, harmonic=0, operator="plus")
    assert energy == pytest.approx(math.sqrt(0.8**2 + 0.25), abs=1e-12)
    _, free_energy = kernel_mode(theta, mass=0.8, harmonic=1, operator="free")
    assert free_energy == pytest.approx(math.sqrt(0.8**2 + 1.0), abs=1e-12)
    out = standard_dirac(section, 0.8, energy=energy)
    # the shifted-kernel mode is not annihilated by the standard operator
    assert grid_norm(out.values, TWO_PI) > 1e-2


def test_free_kernel_mode_annihilated_by_standard_operator():
    theta = _theta()
    section, energy = kernel_mode(theta, mass=0.5, harmonic=1, operator="free")
    out = standard_dirac(section, 0.5, energy=energy)
    assert grid_norm(out.values, TWO_PI) <= 1e-10


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
