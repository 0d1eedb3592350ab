import math

import numpy as np
import pytest

from spinorlab.errors import DomainError
from spinorlab.winding import (
    ThetaField,
    build_theta,
    circuit_increments,
    gradient_field,
    holonomy,
    involute,
    involuted,
    pointwise_gradient,
    wrap_angle,
)

TWO_PI = 2.0 * math.pi


def test_wrap_angle_range():
    # (-pi, pi], with the branch point mapped to +pi
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(0.25) == pytest.approx(0.25)
    assert wrap_angle(TWO_PI + 0.25) == pytest.approx(0.25)
    assert wrap_angle(-0.25) == pytest.approx(-0.25)


def test_unwrapped_total_increment_w2():
    # oracle: summed wrapped differences count circuits exactly
    theta = build_theta(64, 1.0, 2)
    total = float(np.sum(circuit_increments(theta.samples)))
    assert abs(total - 4.0 * math.pi) <= 1e-12


def test_holonomy_wound_ring():
    theta = build_theta(64, 1.0, 1)
    field = gradient_field(theta)
    assert abs(holonomy(theta) - TWO_PI) <= 1e-10
    assert field.k[0] == 0.0 and field.k[1] == 0.0
    assert field.k[2] == pytest.approx(TWO_PI / 1.0, abs=1e-10)


def test_holonomy_flat_ring_exact_zero():
    theta = build_theta(64, 1.0, 0)
    field = gradient_field(theta)
    assert holonomy(theta) == 0.0
    assert field.k[2] == 0.0


def test_holonomy_random_fields():
    rng = np.random.default_rng(42)
    for _ in range(50):
        sites = int(rng.integers(8, 160))
        length = float(rng.uniform(0.3, 25.0))
        winding = int(rng.integers(-3, 4))
        theta = build_theta(sites, length, winding)
        field = gradient_field(theta)
        assert abs(holonomy(theta) - TWO_PI * winding) <= 1e-10 * (1 + abs(winding))
        assert field.k[2] == pytest.approx(TWO_PI * winding / length, abs=1e-12)


def test_involute_negates_winding_and_gradient():
    theta = build_theta(32, 5.0, 1)
    flipped = involute(theta)
    assert flipped.winding == -1
    k_flip = gradient_field(flipped).k
    k_orig = gradient_field(theta).k
    assert np.allclose(k_flip, -k_orig, atol=1e-14)


def test_involute_twice_is_identity_mod_2pi():
    rng = np.random.default_rng(3)
    for _ in range(20):
        theta = build_theta(
            int(rng.integers(8, 96)), float(rng.uniform(0.5, 9.0)), int(rng.integers(-2, 3))
        )
        twice = involute(involute(theta))
        assert twice.winding == theta.winding
        assert np.max(np.abs(wrap_angle(twice.samples - theta.samples))) <= 1e-12


def test_involuted_matches_field_of_involuted_theta():
    theta = build_theta(48, 2.0, 2)
    direct = gradient_field(involute(theta))
    mirrored = involuted(gradient_field(theta))
    assert np.allclose(direct.k, mirrored.k, atol=1e-14)
    assert direct.scale == mirrored.scale
    assert holonomy(involute(theta)) == pytest.approx(-holonomy(theta), abs=1e-12)


def test_pointwise_gradient_constant_for_ramp():
    theta = build_theta(40, 4.0, 3)
    grad = pointwise_gradient(theta)
    assert np.allclose(grad, TWO_PI * 3 / 4.0, atol=1e-12)


def test_build_theta_rejections():
    with pytest.raises(DomainError):
        build_theta(3, 1.0, 0)
    with pytest.raises(DomainError):
        build_theta(8, 0.0, 1)
    with pytest.raises(DomainError):
        build_theta(8, -2.0, 1)
    # winding at or beyond the sampling limit aliases and must be refused
    for winding in (4, -4, 5):
        with pytest.raises(DomainError, match="sites/2 = 4"):
            build_theta(8, 1.0, winding)
    assert build_theta(8, 1.0, -3).winding == -3


def test_theta_field_winding_consistency():
    samples = TWO_PI * np.arange(8) / 8.0
    with pytest.raises(DomainError):
        ThetaField(samples=samples, winding=2, circumference=1.0)
    field = ThetaField(samples=samples, winding=1, circumference=1.0)
    assert field.sites == 8
    # finite samples whose increments overflow wind nan circuits, not zero
    with pytest.raises(DomainError, match="^samples wind nan circuits, expected 0$"):
        ThetaField(samples=[1e308, -1e308, 1e308, -1e308], winding=0, circumference=1.0)


def test_half_phase_unimodular_and_squares_to_full_angle():
    theta = build_theta(64, TWO_PI, 3)
    phase = theta.half_phase
    assert np.max(np.abs(np.abs(phase) - 1.0)) <= 1e-14
    full = np.exp(1j * theta.samples)
    assert np.max(np.abs(phase**2 - full)) <= 1e-12
    # formed once per field, on first use, and shared read-only
    assert theta.half_phase is phase
    assert not phase.flags.writeable
