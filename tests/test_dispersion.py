import math
import re
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab.dispersion import (
    Branch,
    ModeSpec,
    Preference,
    branch_energies,
    default_degeneracy_tol,
    preferred_branch,
)
from spinorlab.errors import DomainError
from spinorlab.winding import WindingGradient

# reference point: m = 1, p = (0, 0, 0.5), k = (0, 0, 0.01), scale = 1
MASS = 1.0
MOMENTUM = (0.0, 0.0, 0.5)
FIELD = WindingGradient(k=np.array([0.0, 0.0, 0.01]), holonomy=0.01 * 2.0 * math.pi)

# values frozen before implementation, worked out by hand from the closed forms
SEMI_PLUS = 1.2475
SEMI_MINUS = 1.2525
EXACT_PLUS = 1.113597772986279  # sqrt(1.2401)
EXACT_MINUS = 1.1225417586887358  # sqrt(1.2601)
EXACT_GAP = 0.008943985702456914


def _one_row(mass, momentum, field, formula="both"):
    return branch_energies(mass, [momentum], field.k, field.scale, formula)


def test_semiclassical_reference_values():
    energies = _one_row(MASS, MOMENTUM, FIELD)
    assert energies.semiclassical_plus[0] == pytest.approx(SEMI_PLUS, abs=1e-12)
    assert energies.semiclassical_minus[0] == pytest.approx(SEMI_MINUS, abs=1e-12)
    # standard branch ignores the gradient entirely
    assert energies.rest[0] == 1.25


def test_semiclassical_gap_is_bit_exact():
    assert _one_row(MASS, MOMENTUM, FIELD).signed_shift[0] == 0.005


def test_exact_reference_values():
    energies = _one_row(MASS, MOMENTUM, FIELD)
    assert energies.exact_plus[0] == pytest.approx(EXACT_PLUS, abs=1e-12)
    assert energies.exact_minus[0] == pytest.approx(EXACT_MINUS, abs=1e-12)
    assert energies.gap_exact[0] == pytest.approx(EXACT_GAP, abs=1e-15)


def test_exact_branch_is_shifted_free_dispersion():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = float(rng.uniform(0.1, 3.0))
        p = rng.uniform(-2.0, 2.0, 3)
        k = rng.uniform(-0.05, 0.05, 3)
        field = WindingGradient(k=k, holonomy=float(k[2]))
        scale = field.scale
        energies = _one_row(m, p, field, "exact")
        e_plus, e_minus = energies.exact_plus[0], energies.exact_minus[0]
        assert e_plus == pytest.approx(
            math.sqrt(m**2 + float(np.dot(p - scale * k, p - scale * k))), abs=1e-13
        )
        assert e_minus == pytest.approx(
            math.sqrt(m**2 + float(np.dot(p + scale * k, p + scale * k))), abs=1e-13
        )


def test_gap_sign_tracks_alignment():
    rng = np.random.default_rng(19)
    for _ in range(500):
        m = float(rng.uniform(0.2, 2.0))
        p = rng.uniform(-2.0, 2.0, 3)
        k = rng.uniform(-1.0, 1.0, 3)
        k *= 1e-2 * (np.linalg.norm(p) + m) / max(np.linalg.norm(k), 1e-300)
        field = WindingGradient(k=k, holonomy=float(k[2]))
        align = float(np.dot(k, p))
        energies = _one_row(m, p, field)
        for gap in (energies.signed_shift[0], energies.gap_exact[0]):
            if abs(align) > 1e-12:
                assert math.copysign(1.0, gap) == math.copysign(1.0, align)


def test_gap_closes_when_orthogonal():
    field = WindingGradient(k=np.array([0.01, 0.0, 0.0]), holonomy=0.0)
    energies = _one_row(1.0, [0.0, 0.3, 0.4], field)
    assert energies.signed_shift[0] == 0.0
    assert abs(energies.gap_exact[0]) <= 1e-15


def test_branches_collapse_without_gradient():
    flat = WindingGradient(k=np.zeros(3), holonomy=0.0)
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = float(rng.uniform(0.1, 2.0))
        p = rng.uniform(-2.0, 2.0, 3)
        energies = _one_row(m, p, flat)
        semi = {energies.rest[0], energies.semiclassical_plus[0], energies.semiclassical_minus[0]}
        assert len(semi) == 1
        exact = {energies.exact_standard[0], energies.exact_plus[0], energies.exact_minus[0]}
        assert len(exact) == 1


def test_scale_knob_scales_the_shift():
    field = WindingGradient(k=np.array([0.0, 0.0, 0.01]), holonomy=0.01, scale=0.5)
    assert _one_row(MASS, MOMENTUM, field, "exact").exact_minus[0] == pytest.approx(
        math.sqrt(1.0 + 0.505**2), abs=1e-14
    )


def test_semiclassical_needs_nonzero_energy_scale():
    flat = WindingGradient(k=np.array([0.0, 0.0, 0.01]), holonomy=0.01)
    with pytest.raises(DomainError):
        _one_row(0.0, np.zeros(3), flat, "semiclassical")
    # the exact form is fine there
    assert _one_row(0.0, np.zeros(3), flat, "exact").exact_plus[0] > 0.0


def test_preferred_branch():
    p = np.array(MOMENTUM)
    assert preferred_branch(FIELD, p) is Preference.PREFER_PLUS
    assert preferred_branch(involuted_field(FIELD), p) is Preference.PREFER_MINUS
    flat = WindingGradient(k=np.zeros(3), holonomy=0.0)
    assert preferred_branch(flat, p) is Preference.DEGENERATE
    with pytest.raises(DomainError):
        preferred_branch(FIELD, p, tol=0.0)


def involuted_field(field):
    return WindingGradient(k=-field.k, holonomy=-field.holonomy, scale=field.scale)


def test_default_tol_tracks_energy_scale():
    assert default_degeneracy_tol(np.array(MOMENTUM)) == pytest.approx(1e-12 * 1.25, abs=1e-24)


def test_default_tol_of_a_batch_is_its_rows():
    momenta = np.random.default_rng(5).uniform(-3.0, 3.0, (40, 3))
    tols = default_degeneracy_tol(momenta)
    assert tols.shape == (40,)
    assert tols.tolist() == [default_degeneracy_tol(p) for p in momenta]
    with pytest.raises(DomainError, match="overflows"):
        default_degeneracy_tol(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1e200]]))


@pytest.mark.parametrize("shape", [(), (2,), (4,), (2, 2), (2, 2, 3)])
def test_default_tol_rejects_other_shapes(shape):
    with pytest.raises(DomainError, match=re.escape(f"not shape {shape}")):
        default_degeneracy_tol(np.ones(shape))


def test_mode_spec_rejects_bad_input():
    with pytest.raises(DomainError):
        ModeSpec(mass=-1.0, momentum=np.zeros(3), branch=Branch.STANDARD)
    with pytest.raises(DomainError):
        ModeSpec(mass=1.0, momentum=np.zeros(2), branch=Branch.STANDARD)


# --- batched kernel ------------------------------------------------------


def _reference_row(m, p, k, scale):
    """The per-mode arithmetic the scalar path used before the batched kernel."""
    base = m * m + float(np.dot(p, p))
    signed = scale * float(np.dot(k, p))
    correction = signed / (2.0 * base)
    plus = p - scale * k
    minus = p + scale * k
    return {
        "rest": base,
        "signed_shift": signed,
        "semiclassical_plus": base * (1.0 - correction),
        "semiclassical_minus": base * (1.0 + correction),
        "exact_standard": math.sqrt(base),
        "exact_plus": math.sqrt(m * m + float(np.dot(plus, plus))),
        "exact_minus": math.sqrt(m * m + float(np.dot(minus, minus))),
    }


def _decimal_gap(m, p, k, scale):
    """E_minus - E_plus by subtraction at 60 digits, far past the cancellation."""
    with localcontext() as ctx:
        ctx.prec = 60
        dm, ds = Decimal(m), Decimal(scale)
        dp = [Decimal(float(x)) for x in p]
        dk = [Decimal(float(x)) * ds for x in k]
        e_minus = (dm * dm + sum((a + b) ** 2 for a, b in zip(dp, dk))).sqrt()
        e_plus = (dm * dm + sum((a - b) ** 2 for a, b in zip(dp, dk))).sqrt()
        return float(e_minus - e_plus)


def test_batched_rows_match_the_per_mode_arithmetic():
    rng = np.random.default_rng(23)
    momenta = rng.uniform(-3.0, 3.0, (300, 3))
    k = rng.uniform(-0.1, 0.1, 3)
    for mass, scale in ((0.7, 1.0), (1.3, 0.37)):
        energies = branch_energies(mass, momenta, k, scale)
        for i, p in enumerate(momenta):
            for key, value in _reference_row(mass, p, k, scale).items():
                # same operations in the same order: equal, not merely close
                assert getattr(energies, key)[i] == value, key


def test_formula_selects_columns():
    momenta = np.array([[0.0, 0.0, 0.5]])
    exact = branch_energies(MASS, momenta, FIELD.k, formula="exact")
    assert exact.semiclassical_plus is None and exact.semiclassical_minus is None
    assert exact.exact_plus[0] == pytest.approx(EXACT_PLUS, abs=1e-12)
    semi = branch_energies(MASS, momenta, FIELD.k, formula="semiclassical")
    assert semi.exact_plus is None and semi.gap_exact is None
    assert semi.semiclassical_minus[0] == pytest.approx(SEMI_MINUS, abs=1e-12)
    with pytest.raises(DomainError):
        branch_energies(MASS, momenta, FIELD.k, formula="quadratic")


def test_exact_gap_regression_at_tiny_gradient():
    # subtracting the two roots gave exactly 0.0 here, hiding the sign
    p = np.array([0.0, 0.0, 1.0])
    k = np.array([0.0, 0.0, 1e-17])
    energies = branch_energies(1.0, p[None, :], k)
    assert energies.gap_exact[0] > 0.0
    assert energies.gap_exact[0] == pytest.approx(_decimal_gap(1.0, p, k, 1.0), rel=1e-15, abs=0.0)
    assert energies.signed_shift[0] == 1e-17


@pytest.mark.parametrize(
    "mass, p3, k3",
    [(1.0, 1e4, 1e-9), (0.1, 1e3, 1e-13), (1.0, 1.0, 1e-17), (2.0, 0.3, 1e-6), (0.0, 5.0, 0.2)],
)
def test_exact_gap_has_full_relative_accuracy(mass, p3, k3):
    p = np.array([0.0, 0.0, p3])
    k = np.array([0.0, 0.0, k3])
    gap = branch_energies(mass, p[None, :], k).gap_exact[0]
    assert gap == pytest.approx(_decimal_gap(mass, p, k, 1.0), rel=4e-16, abs=0.0)


def test_pole_rejected_anywhere_in_the_batch():
    momenta = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    k = np.array([0.0, 0.0, 0.1])
    for rows in (momenta, momenta[::-1], momenta[1:]):
        with pytest.raises(DomainError, match="undefined at m = 0, p = 0"):
            branch_energies(0.0, rows, k)
    # the exact formula is defined there: the branches sit at |s*k| and do not split
    exact = branch_energies(0.0, momenta, k, formula="exact")
    assert exact.exact_plus[1] == exact.exact_minus[1] == pytest.approx(0.1)
    assert exact.gap_exact[1] == 0.0
    # with no gradient either, both roots vanish and so does the gap
    flat = branch_energies(0.0, momenta, np.zeros(3), formula="exact")
    assert flat.gap_exact.tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "mass, momentum, k, scale, label",
    [
        (1.0, (0.0, 0.0, 1e200), (0.0, 0.0, 0.01), 1.0, "m^2 + |p|^2"),
        (1e160, (0.0, 0.0, 1.0), (0.0, 0.0, 0.01), 1.0, "m^2 + |p|^2"),
        (1.0, (0.0, 0.0, 1e154), (0.0, 0.0, 1e200), 1.0, "s*(k.p)"),
        (1.0, (0.0, 0.0, 1.0), (0.0, 0.0, 1e10), 1e300, "s*(k.p)"),
        (1.0, (0.0, 0.0, 1.0), (0.0, 0.0, 1e160), 1.0, "exact energy"),
        (1.0, (1e154, 0.0, 0.0), (0.0, 0.0, 1e154), 1.0, "exact energy"),
    ],
)
def test_overflow_is_a_domain_error_without_warnings(mass, momentum, k, scale, label):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as caught:
            branch_energies(mass, np.array([momentum]), np.array(k), scale)
        assert str(caught.value).startswith(f"{label} overflows float64 at p = (")
        with pytest.raises(DomainError, match="overflows"):
            branch_energies(mass, np.array([momentum]), np.array(k), scale, "exact")


def test_default_tol_overflow_is_named_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as caught:
            default_degeneracy_tol(np.array([0.0, 0.0, 1e200]))
        assert str(caught.value) == "m^2 + |p|^2 overflows float64 at p = (0.0, 0.0, 1e+200)"
        with pytest.raises(DomainError, match="momentum must be finite"):
            default_degeneracy_tol(np.array([0.0, np.inf, 0.0]))
    # the largest finite m^2 + |p|^2 still gives a finite, positive tol
    assert 0.0 < default_degeneracy_tol(np.array([0.0, 0.0, 1e154])) < np.inf


def test_scalar_overflow_is_a_domain_error():
    # each formula on its own rejects a momentum whose |p|^2 overflows
    for formula in ("semiclassical", "exact"):
        with pytest.raises(DomainError, match="overflows"):
            _one_row(1.0, [0.0, 0.0, 1e200], FIELD, formula)
    # the semiclassical formula alone never forms |p -+ s*k|^2, so a huge
    # gradient that overflows the exact energies does not stop it
    steep = WindingGradient(k=np.array([0.0, 0.0, 1e160]), holonomy=0.0)
    semi = branch_energies(1.0, np.array([[0.0, 0.0, 1.0]]), steep.k, formula="semiclassical")
    assert semi.semiclassical_plus[0] == pytest.approx(2.0 - 0.5e160)


def test_batch_validation():
    k = np.array([0.0, 0.0, 0.01])
    good = np.zeros((2, 3)) + 0.5
    cases = [
        (-1.0, good, k, 1.0, "mass must be finite"),
        (math.nan, good, k, 1.0, "mass must be finite"),
        (np.array([1.0, -1.0]), good, k, 1.0, "mass must be finite"),
        (np.ones(3), good, k, 1.0, "one per momentum row"),
        (1.0, np.zeros(3), k, 1.0, r"\(N, 3\)"),
        (1.0, np.array([[0.0, math.inf, 0.0]]), k, 1.0, "momentum must be finite"),
        (1.0, good, np.zeros(2), 1.0, "3-vector or one per"),
        (1.0, good, np.array([0.0, math.nan, 0.0]), 1.0, "gradient data must be finite"),
        (1.0, good, k, math.inf, "scale must be finite"),
    ]
    for mass, momenta, kk, scale, message in cases:
        with pytest.raises(DomainError, match=message):
            branch_energies(mass, momenta, kk, scale)
    empty = branch_energies(1.0, np.zeros((0, 3)), k)
    assert empty.gap_exact.shape == (0,)


# Components are 0 or between 1e-30 and 1e30 in magnitude: nothing can
# overflow, and a nonzero s*(k.p) is far above the underflow threshold.
_MODERATE = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-30, max_value=1e30),
    st.floats(min_value=-1e30, max_value=-1e-30),
)
_VECTOR = st.tuples(_MODERATE, _MODERATE, _MODERATE)
_SCALE = st.one_of(
    st.floats(min_value=1e-3, max_value=1e3), st.floats(min_value=-1e3, max_value=-1e-3)
)


def _sign(x) -> int:
    return int(x > 0) - int(x < 0)


@settings(max_examples=400, deadline=None)
@given(
    mass=st.one_of(st.just(0.0), st.floats(min_value=1e-30, max_value=1e30)),
    p=_VECTOR,
    k=_VECTOR,
    scale=_SCALE,
)
def test_exact_gap_sign_follows_alignment(mass, p, k, scale):
    momenta = np.array([p])
    energies = branch_energies(mass, momenta, np.array(k), scale, formula="exact")
    signed = energies.signed_shift[0]
    gap = energies.gap_exact[0]
    # the two gap columns never disagree in sign, and the exact gap is zero
    # only where s*(k.p) is
    assert _sign(gap) == _sign(signed)
    # against the true s*(k.p): the sign is right whenever it exceeds the
    # rounding bound of the three-term dot product
    exact_kp = sum(Fraction(a) * Fraction(b) for a, b in zip(k, p)) * Fraction(scale)
    bound = 4 * 2.0**-53 * sum(abs(Fraction(a) * Fraction(b)) for a, b in zip(k, p))
    if abs(exact_kp) > bound * abs(Fraction(scale)):
        assert _sign(gap) == _sign(exact_kp)


_ANY_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=400, deadline=None)
@given(
    mass=st.floats(min_value=0.0, allow_infinity=False),
    p=st.tuples(_ANY_FINITE, _ANY_FINITE, _ANY_FINITE),
    k=st.tuples(_ANY_FINITE, _ANY_FINITE, _ANY_FINITE),
)
def test_exact_gap_sign_over_the_whole_finite_range(mass, p, k):
    try:
        energies = branch_energies(mass, np.array([p]), np.array(k), formula="exact")
    except DomainError as exc:
        assert "overflows float64" in str(exc)
        return
    signed = energies.signed_shift[0]
    gap = energies.gap_exact[0]
    # never the opposite sign; zero only where s*(k.p) is zero or the
    # quotient 4 s*(k.p) / (E_minus + E_plus) is below the smallest subnormal
    assert _sign(gap) * _sign(signed) >= 0
    if gap == 0.0 and signed != 0.0:
        denominator = energies.exact_minus[0] + energies.exact_plus[0]
        assert 4 * abs(Fraction(signed)) / Fraction(denominator) < Fraction(2.0**-1074)


def test_verification_gap_checks_draw_the_same_samples(monkeypatch):
    from spinorlab import verification

    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return branch_energies(*args, **kwargs)

    monkeypatch.setattr(verification, "branch_energies", recording)
    checks = {check.name: check for check in verification.dispersion_checks(samples=60, seed=4)}
    assert checks["gap-sign"].passed and checks["gap-expansion"].passed
    # calls[0] is the frozen reference point, calls[2] the flat-collapse batch
    masses, momenta, ks, scale, formula = calls[1]
    assert masses.shape == (60,) and momenta.shape == (60, 3) and ks.shape == (60, 3)
    assert scale == 1.0 and formula == "exact"
    # the draw ranges: m in [0.2, 2], p in [-2, 2]^3, |k| / (|p| + m) in [1e-8, 1e-2]
    assert np.all((masses >= 0.2) & (masses < 2.0))
    assert np.all((momenta >= -2.0) & (momenta < 2.0))
    ratio = np.linalg.norm(ks, axis=1) / (np.linalg.norm(momenta, axis=1) + masses)
    assert np.all((ratio >= 1e-8 * (1 - 1e-12)) & (ratio <= 1e-2 * (1 + 1e-12)))
