import json
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from spinorlab.dispersion import Structure
from spinorlab.errors import DomainError
from spinorlab.gamma import GAMMA3
from spinorlab.sections import (
    SampledSection,
    commutation_residual,
    density_residual,
    dirac,
    grid_norm,
    intertwining_residual,
    kernel_mode,
    map_checks,
    plane_wave_section,
    random_band_limited_section,
    ring_derivative,
    section_from_json,
    section_to_json,
    to_exotic,
    to_standard,
)
from spinorlab.winding import build_theta, gradient_field, pointwise_gradient, shift_coefficient

TWO_PI = 2.0 * math.pi
N = 64
EPS = np.finfo(np.float64).eps


def _theta(w=1, L=TWO_PI, n=N):
    return build_theta(n, L, w)


def test_plane_wave_picks_up_half_integer_harmonic():
    # the image of harmonic n under the phase map is harmonic n + 1/2
    theta = _theta()
    x = theta.circumference * np.arange(N) / N
    spinor = np.array([1.0, 0.0, 2.0, 0.0], dtype=complex)
    section = plane_wave_section(N, theta.circumference, 2, spinor)
    image = to_standard(section, theta)
    expected = np.exp(1j * 2.5 * x)[:, None] * spinor[None, :]
    assert np.max(np.abs(image.values - expected)) <= 1e-12
    assert image.structure is Structure.STANDARD
    assert image.antiperiodic  # odd winding turns periodic into antiperiodic


def test_even_winding_keeps_periodicity():
    theta = _theta(w=2)
    section = random_band_limited_section(N, TWO_PI, np.random.default_rng(0))
    image = to_standard(section, theta)
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
    section = random_band_limited_section(N, TWO_PI, rng)
    back = to_exotic(to_standard(section, theta), theta)
    assert back.structure is Structure.EXOTIC
    assert back.antiperiodic == section.antiperiodic
    assert np.max(np.abs(back.values - section.values)) <= 1e-15


def test_structure_and_grid_guards():
    theta = _theta()
    section = random_band_limited_section(N, TWO_PI, np.random.default_rng(1))
    standard = to_standard(section, theta)
    with pytest.raises(DomainError):
        to_standard(standard, theta)
    with pytest.raises(DomainError):
        to_exotic(section, theta)
    other = random_band_limited_section(32, TWO_PI, np.random.default_rng(1))
    with pytest.raises(DomainError):
        to_standard(other, theta)


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
    """D_plus's pointwise factor -(s/2)*theta', as map_checks builds it."""
    return -0.5 * scale * pointwise_gradient(theta)


def test_intertwining_both_directions_vanish():
    rng = np.random.default_rng(12)
    theta = _theta()
    for _ in range(5):
        section = random_band_limited_section(N, TWO_PI, rng)
        plus, minus = intertwining_residual(section, theta, _multiplier(theta), mass=0.7)
        assert plus <= 1e-10
        assert minus <= 1e-10


def test_intertwining_detects_wrong_multiplier_strength():
    rng = np.random.default_rng(12)
    theta = _theta()
    section = random_band_limited_section(N, TWO_PI, rng)
    residuals = intertwining_residual(section, theta, _multiplier(theta, 0.5), 0.7)
    assert min(residuals) > 1e-2


def test_intertwining_with_energy():
    rng = np.random.default_rng(14)
    theta = _theta()
    section = random_band_limited_section(N, TWO_PI, rng)
    residuals = intertwining_residual(section, theta, _multiplier(theta), 0.3, energy=0.9)
    assert max(residuals) <= 1e-10


def _per_direction(section, theta, mass, direction, scale, energy):
    """Reference: one identity at a time, each with its own operators.

    D_plus at scale s is dirac with the multiplier -(s/2)*theta', D_minus
    at s is D_plus at -s.
    """
    u = theta.half_phase[:, None]
    multiplier = _multiplier(theta, scale)
    if direction == "plus":
        lhs = dirac(section, mass, energy, multiplier) * u
        rhs = dirac(to_standard(section, theta), mass, energy)
    else:
        lhs = dirac(section, mass, energy) * u
        rhs = dirac(to_standard(section, theta), mass, energy, -multiplier)
    return grid_norm(lhs - rhs, section.circumference)


@pytest.mark.parametrize("winding", [0, 1, -3, 2])
@pytest.mark.parametrize("scale", [1.0, 0.5, -2.0])
def test_one_pass_pair_is_the_per_direction_computation(winding, scale):
    rng = np.random.default_rng(100 + winding)
    for sites, length in ((64, TWO_PI), (40, 3.7)):
        theta = _theta(w=winding, L=length, n=sites)
        for energy in (0.0, 1.3):
            section = random_band_limited_section(sites, length, rng)
            pair = intertwining_residual(section, theta, _multiplier(theta, scale), 0.6, energy)
            reference = tuple(
                _per_direction(section, theta, 0.6, direction, scale, energy)
                for direction in ("plus", "minus")
            )
            assert pair == reference  # bit for bit


@pytest.mark.parametrize("winding", [1, -2])
def test_map_checks_is_the_per_direction_computation(winding):
    rng = np.random.default_rng(31)
    theta = _theta(w=winding)
    drawn = [random_band_limited_section(N, TWO_PI, rng) for _ in range(4)]
    worst = {key: value for key, value, _ in map_checks(drawn, theta, 0.9, scale=0.5)}
    for key, direction in (("intertwine_plus", "plus"), ("intertwine_minus", "minus")):
        reference = max(
            _per_direction(section, theta, 0.9, direction, 0.5, 0.0) for section in drawn
        )
        assert worst[key] == reference


def test_map_checks_takes_one_phase_and_two_derivatives_per_section_and_mode(monkeypatch):
    theta = _theta(w=3)  # odd: the images take the antiperiodic derivative
    rng = np.random.default_rng(2)
    drawn = [random_band_limited_section(N, TWO_PI, rng) for _ in range(5)]
    calls = {"unwrap": 0, "fft": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # the half phase is formed once, from one unwrap of the angle field
    monkeypatch.setattr(np, "unwrap", counted("unwrap", np.unwrap))
    # every ring derivative, periodic or on the doubled ring, is one forward FFT
    monkeypatch.setattr(np.fft, "fft", counted("fft", np.fft.fft))
    map_checks(drawn, theta, 0.8)
    # two per section, and one each for the kernel mode and its image
    assert calls == {"unwrap": 1, "fft": 2 * len(drawn) + 2}


def test_commutation_residual_exact_zero_on_unit_ring():
    theta = _theta()
    field = gradient_field(theta)
    section = random_band_limited_section(N, TWO_PI, np.random.default_rng(2))
    assert commutation_residual(section, field, theta) == 0.0


def test_commutation_residual_multiplier_is_minus_the_shift_coefficient_times_k3():
    # the field carries the shift coefficient c, so the multiplier is -c*k3
    # unhalved; halving it is exact, and would read exactly half of this
    theta = _theta(w=3)
    section = random_band_limited_section(N, TWO_PI, np.random.default_rng(5))
    field = gradient_field(theta, scale=0.5)
    multiplier = -field.scale * field.k[2]
    u = theta.half_phase[:, None]
    lhs = multiplier * (section.values @ GAMMA3.T) * u
    rhs = multiplier * ((section.values * u) @ GAMMA3.T)
    expected = float(np.max(np.abs(lhs - rhs)))
    assert expected > 0.0
    assert commutation_residual(section, field, theta) == expected


def test_density_preserved_pointwise():
    theta = _theta(w=2)
    section = random_band_limited_section(N, TWO_PI, np.random.default_rng(4))
    assert density_residual(section, theta) <= 1e-15


def test_kernel_modes_are_annihilated():
    theta = _theta()
    for scale in (1.0, -1.0, 0.5):
        for harmonic in (-2, 0, 1):
            section, energy = kernel_mode(theta, mass=0.8, harmonic=harmonic, scale=scale)
            out = dirac(section, 0.8, energy, _multiplier(theta, scale))
            assert grid_norm(out, TWO_PI) <= 1e-10


def test_kernel_mode_energy_is_shifted_on_shell():
    theta = _theta()
    section, energy = kernel_mode(theta, mass=0.8, harmonic=0)
    assert energy == pytest.approx(math.sqrt(0.8**2 + 0.25), abs=1e-12)
    # at scale 0 D_plus is D0: the free mode
    _, free_energy = kernel_mode(theta, mass=0.8, harmonic=1, scale=0.0)
    assert free_energy == pytest.approx(math.sqrt(0.8**2 + 1.0), abs=1e-12)
    out = dirac(section, 0.8, energy)
    # the shifted-kernel mode is not annihilated by the standard operator
    assert grid_norm(out, TWO_PI) > 1e-2


def test_free_kernel_mode_annihilated_by_standard_operator():
    theta = _theta()
    section, energy = kernel_mode(theta, mass=0.5, harmonic=1, scale=0.0)
    out = dirac(section, 0.5, energy)
    assert grid_norm(out, TWO_PI) <= 1e-10


def _kernel_pair(theta, mass, harmonic=1, scale=1.0):
    """map_checks' kernel_residual and mapped_kernel_residual, with no sections."""
    *_, (_, kernel, _), (_, mapped, _) = map_checks([], theta, mass, scale, harmonic)
    return kernel, mapped


@pytest.mark.parametrize("mass", [0.0, 1e-9, 1e-300])
def test_kernel_mode_at_zero_energy(mass):
    # winding -2 on the unit ring shifts harmonic 1 to q_eff = 0
    theta = _theta(w=-2)
    section, energy = kernel_mode(theta, mass, harmonic=1)
    assert abs(energy - mass) <= 1e-15
    # E + m is the only nonzero entry of column 0, or the projector vanishes
    assert np.max(np.abs(section.values[0] - np.eye(4)[0])) <= 1e-15
    assert max(_kernel_pair(theta, mass)) <= 1e-12
    drawn = [random_band_limited_section(N, TWO_PI, np.random.default_rng(0))]
    assert all(value <= bound for _, value, bound in map_checks(drawn, theta, mass))


@pytest.mark.parametrize("mass, winding", [(1e154, 1), (1e-160, -2)])
def test_kernel_spinor_has_unit_norm_where_its_square_does_not_fit(mass, winding):
    # column 0 is ~2m: its sum of squares overflows at m = 1e154 and is
    # subnormal at m = 1e-160 (q_eff = 0 at winding -2), and neither may
    # turn the kernel mode into the zero section or leak a RuntimeWarning
    theta = _theta(w=winding)
    section, _ = kernel_mode(theta, mass, harmonic=1)
    assert np.abs(np.linalg.norm(section.values[0]) - 1.0) <= 1e-15
    assert np.all(np.abs(np.linalg.norm(section.values, axis=1) - 1.0) <= 1e-15)


@pytest.mark.parametrize("mass, scale", [(1e200, 1.0), (1.0, 1e308)])
def test_kernel_mode_energy_overflow_is_a_domain_error(mass, scale):
    with pytest.raises(DomainError, match=r"m\^2 \+ q_eff\^2 overflows float64"):
        kernel_mode(_theta(w=2), mass, 1, scale)


@pytest.mark.parametrize("mass", [math.nan, math.inf, -1.0])
def test_kernel_mode_refuses_the_mass_dirac_refuses(mass):
    with pytest.raises(DomainError, match="mass must be finite and non-negative"):
        kernel_mode(_theta(w=2), mass, 1)


@pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
def test_kernel_mode_refuses_a_scale_that_is_not_finite(scale):
    with pytest.raises(DomainError, match="scale must be finite"):
        kernel_mode(_theta(w=2), 1.0, 1, scale)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_map_checks_reject_a_tol_that_is_not_positive_and_finite(tol):
    with pytest.raises(DomainError, match="tol must be positive and finite"):
        map_checks([], _theta(w=1), 1.0, tol=tol)


def test_massless_kernel_mode_at_tiny_momentum():
    # q_eff = 1 - scale = -1e-10: e_0 is not in the kernel, column 0 is
    theta = _theta(w=-2)
    section, energy = kernel_mode(theta, 0.0, 1, 1.0 + 1e-10)
    assert energy == pytest.approx(1e-10, rel=1e-6)
    # the mapped mode is off by the 1e-10 scale error; the mode itself is exact
    kernel, _ = _kernel_pair(theta, 0.0, scale=1.0 + 1e-10)
    assert kernel <= 1e-12


def test_vanishing_projector_takes_the_first_basis_spinor():
    # flat field, harmonic 0, massless: E = 0 and D_plus is zero on constants
    theta = _theta(w=0)
    section, energy = kernel_mode(theta, 0.0, harmonic=0)
    assert energy == 0.0
    assert np.array_equal(section.values, np.tile(np.eye(4)[0], (N, 1)))
    assert _kernel_pair(theta, 0.0, harmonic=0) == (0.0, 0.0)


def _decimal_unit_column(energy, mass, q_eff):
    """Column 0 of E*g0 - q_eff*g3 + m at unit norm, in 60-digit decimal."""
    with localcontext() as context:
        context.prec = 60
        column = [Decimal(energy) + Decimal(mass), Decimal(0), Decimal(q_eff), Decimal(0)]
        norm = sum(entry * entry for entry in column).sqrt()
        return [entry / norm for entry in column]


def _kernel_draws(count, rng):
    """(winding, length, mass, harmonic, scale) draws for kernel_mode."""
    for _ in range(count):
        yield (
            int(rng.integers(-7, 8)),
            float(rng.uniform(0.5, 20.0)),
            float(rng.choice([0.0, 1e-9, 1e154, rng.uniform(0.0, 3.0)])),
            int(rng.integers(-5, 6)),
            float(rng.choice([1.0, 0.5, -2.0, rng.uniform(-4.0, 4.0)])),
        )


def test_kernel_spinor_is_the_unit_first_projector_column():
    # ordinary draws, masses at which the column's sum of squares overflows
    # (1e154), and q_eff = 0 at m = 1e-160, where it is subnormal: each
    # spinor entry sits within 2 eps of the decimal reference built from the
    # same E, m and q_eff.  Scaling by a power of two is exact, so an
    # ordinary column keeps the bits of column / norm, and with them the
    # rounding of the kernel residuals that an absolute tol judges
    draws = [*_kernel_draws(200, np.random.default_rng(40)), (-2, TWO_PI, 1e-160, 1, 1.0)]
    checked = 0
    for winding, length, mass, harmonic, scale in draws:
        theta = build_theta(N, length, winding)
        section, energy = kernel_mode(theta, mass, harmonic, scale)
        if energy == 0.0:
            continue
        k3 = float(np.mean(pointwise_gradient(theta)))
        q_eff = 2.0 * math.pi * harmonic / length + shift_coefficient(scale) * k3
        reference = _decimal_unit_column(energy, mass, q_eff)
        spinor = section.values[0]
        assert np.all(spinor.imag == 0.0)
        errors = [abs(Decimal(float(got)) - want) for got, want in zip(spinor.real, reference)]
        assert max(errors) <= 2 * Decimal(EPS)
        if 1e-100 < energy < 1e100:
            column = np.array([energy + mass, 0.0, q_eff, 0.0], dtype=complex)
            assert np.array_equal(spinor, column / np.linalg.norm(column))
        checked += 1
    assert checked >= 150


def test_flat_field_phase_is_identity():
    theta = _theta(w=0)
    assert np.all(theta.half_phase == 1.0)
    section = random_band_limited_section(N, TWO_PI, np.random.default_rng(9))
    image = to_standard(section, theta)
    assert np.array_equal(image.values, section.values)
    assert image.antiperiodic == section.antiperiodic


def test_grid_norm_constant_density():
    values = np.zeros((16, 4), dtype=complex)
    values[:, 0] = 1.0
    assert grid_norm(values, 3.0) == pytest.approx(math.sqrt(3.0), abs=1e-14)


@pytest.mark.parametrize(
    "magnitude, length",
    [(1e150, 1e200), (1e200, 1.0), (1e-200, 1.0), (1e-160, 1e-100), (3.0, 2.8e307)],
)
def test_grid_norm_is_finite_where_its_sum_of_squares_is_not_normal(magnitude, length):
    # the sum of squares times L/N overflows, or underflows to 0 or a
    # subnormal; the norm itself, magnitude * sqrt(L), is a normal float
    values = np.zeros((16, 4), dtype=complex)
    values[:, 1] = magnitude * 1j
    expected = magnitude * math.sqrt(length)
    assert grid_norm(values, length) == pytest.approx(expected, rel=1e-15)


def _decimal_grid_norm(values, circumference):
    """sqrt(sum |v|^2 * L/N) of the exact float values, in 60-digit decimal."""
    with localcontext() as context:
        context.prec = 60
        parts = np.concatenate([values.real.ravel(), values.imag.ravel()])
        total = sum(Decimal(float(part)) ** 2 for part in parts)
        return (total * Decimal(circumference) / values.shape[0]).sqrt()


@pytest.mark.parametrize(
    "magnitude, length",
    [
        (1.0, 7.5),
        (1.0, 1e-300),
        (1e-300, 1.0),
        (1e300, 1.0),
        (1e-310, 3.0),
        (1e150, 1e200),
        (1e-160, 1e-100),
        (3.0, 2.8e307),
    ],
)
def test_grid_norm_matches_a_decimal_reference(magnitude, length):
    # within 4 ulps of the norm at ordinary sizes, where the sum of squares
    # overflows or is subnormal, and where the norm itself is subnormal
    # (1e-310); the worst seen over these draws is 2 ulps
    rng = np.random.default_rng(4)
    for sites in (8, 16, 64):
        values = random_band_limited_section(sites, 1.0, rng).values * magnitude
        reference = _decimal_grid_norm(values, length)
        error = abs(Decimal(grid_norm(values, length)) - reference)
        assert error <= 4 * Decimal(math.ulp(float(reference)))
    assert grid_norm(np.zeros((8, 4)), 1.0) == 0.0


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


@pytest.mark.parametrize(
    "key, value, message",
    [
        # bool("false") is True
        ("antiperiodic", "false", "antiperiodic must be true or false"),
        ("antiperiodic", 0, "antiperiodic must be true or false"),
        ("antiperiodic", None, "antiperiodic must be true or false"),
        # float(True) is 1.0
        ("circumference", True, "circumference must be a number"),
        ("circumference", "5.0", "circumference must be a number"),
        ("circumference", 10**400, "int too large to convert to float"),
        # complex(True, 0) is 1+0j
        ("values", [[[True, 0]] * 4] * 16, "section value must be a number"),
        ("values", [[[0.5, None]] * 4] * 16, "section value must be a number"),
        ("values", [[["1", 0]] * 4] * 16, "section value must be a number"),
    ],
)
def test_section_json_takes_values_as_typed(key, value, message):
    section = random_band_limited_section(16, 5.0, np.random.default_rng(6))
    payload = json.loads(section_to_json(section))
    payload[key] = value
    with pytest.raises(DomainError) as caught:
        section_from_json(json.dumps(payload))
    assert str(caught.value) == f"malformed section JSON: {message}"


def test_exotic_dirac_guards():
    section = random_band_limited_section(N, TWO_PI, np.random.default_rng(3))
    # a multiplier from a field on another grid
    with pytest.raises(DomainError, match="one value per section site"):
        dirac(section, 0.5, multiplier=_multiplier(build_theta(32, TWO_PI, 1)))
    with pytest.raises(DomainError):
        dirac(section, -1.0)
