"""The verify suites at their default sizes hold for any generator seed."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab import verification
from spinorlab.errors import DomainError
from spinorlab.lattice import RingSpec, mode_indices, ring_spectrum
from spinorlab.verification import (
    dispersion_checks,
    lattice_deviation,
    sections_checks,
    winding_checks,
)
from spinorlab.winding import WindingGradient, build_theta, gradient_field, shift_coefficient

TWO_PI = 2.0 * math.pi


@pytest.mark.parametrize("suite", [winding_checks, dispersion_checks, sections_checks])
@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_seeded_suites_pass_for_any_seed(suite, seed):
    failed = [(name, value, bound) for name, value, bound in suite(seed=seed) if not value <= bound]
    assert not failed, failed


def test_sections_suite_reads_the_shared_bound_list(monkeypatch):
    # the suite carries the list's triples; a bound below every value
    # fails all seven map checks and nothing else
    shared = verification.map_checks

    def below(*args, **kwargs):
        return [(key, value, -1.0) for key, value, _ in shared(*args, **kwargs)]

    monkeypatch.setattr(verification, "map_checks", below)
    failed = [name for name, value, bound in sections_checks() if not value <= bound]
    assert failed == [
        "intertwine_plus",
        "intertwine_minus",
        "commutation",
        "density",
        "roundtrip",
        "kernel_residual",
        "mapped_kernel_residual",
    ]


# --- lattice against the closed form ----------------------------------------


def _aligned_field():
    # unit winding on the 2*pi ring gives k3 = 1; the shift coefficient at
    # convention scale 1, c = 1/2, puts the energy shift at pi/L, exactly
    # the exotic boundary twist
    return gradient_field(build_theta(64, TWO_PI, 1), scale=shift_coefficient(1.0))


def test_lattice_deviation_matches_exotic_lattice():
    spec = RingSpec(sites=8, circumference=TWO_PI, twist=math.pi, mass=1.0)
    assert lattice_deviation(spec, _aligned_field()) <= 1e-12


def test_lattice_deviation_flags_twist_mismatch():
    spec = RingSpec(sites=8, circumference=TWO_PI, twist=0.0, mass=1.0)
    assert lattice_deviation(spec, _aligned_field()) > 0.1


def test_lattice_deviation_flat_field_standard_lattice():
    spec = RingSpec(sites=8, circumference=TWO_PI, twist=0.0, mass=1.0)
    flat = WindingGradient(k=np.zeros(3))
    assert lattice_deviation(spec, flat) <= 1e-12


def _per_mode_deviation(spec, field):
    """lattice_deviation one mode at a time, and the largest energy compared."""
    shift = field.scale * float(field.k[2])
    lattice = sorted(math.sqrt(spec.mass**2 + e**2) for e in ring_spectrum(spec))
    continuum = sorted(
        math.sqrt(spec.mass**2 + (TWO_PI * n / spec.circumference + shift) ** 2)
        for n in mode_indices(spec)
    )
    deviation = max(abs(a - b) for a, b in zip(lattice, continuum))
    return deviation, max(lattice[-1], continuum[-1])


@pytest.mark.parametrize(
    "sites, twist, mass, field",
    [
        (8, math.pi, 1.0, _aligned_field()),
        (64, math.pi, 0.0, _aligned_field()),
        (32, 0.0, 0.7, _aligned_field()),
        (16, 0.0, 0.0, WindingGradient(k=np.zeros(3))),
    ],
    ids=["exotic-massive", "exotic-massless", "twist-mismatch", "flat"],
)
def test_lattice_deviation_matches_the_per_mode_loop(sites, twist, mass, field):
    spec = RingSpec(sites=sites, circumference=TWO_PI, twist=twist, mass=mass)
    reference, energy = _per_mode_deviation(spec, field)
    # a square against a libm pow per mode: a few ulps of the largest energy,
    # fixed from the dtype before comparing
    assert abs(lattice_deviation(spec, field) - reference) <= 4 * 2.0**-52 * energy


def test_lattice_deviation_rejects_transverse_field():
    spec = RingSpec(sites=8, circumference=TWO_PI, twist=0.0, mass=1.0)
    sideways = WindingGradient(k=np.array([1.0, 0.0, 0.0]))
    with pytest.raises(DomainError, match="along the ring"):
        lattice_deviation(spec, sideways)
