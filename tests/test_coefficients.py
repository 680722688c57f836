"""Coefficient law values, certificates, and the empirical audit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgs.coefficients import (
    AuditReport,
    CoefficientModel,
    ScalarLaw,
    audit_bounds_and_lipschitz,
    clamped_affine_law,
    constant_law,
    constant_model,
    eval_conductivity,
    eval_viscosity,
    tanh_blend_law,
)


def test_tanh_blend_midpoint_value():
    law = tanh_blend_law(0.5, 2.0)
    assert law(0.0) == pytest.approx(1.25, abs=1e-15)
    assert law.lipschitz == pytest.approx(0.75, abs=1e-15)


def test_tanh_blend_saturates_at_bounds():
    law = tanh_blend_law(0.5, 2.0)
    assert law(-40.0) == pytest.approx(0.5, abs=1e-12)
    assert law(40.0) == pytest.approx(2.0, abs=1e-12)
    w = np.linspace(-30, 30, 101)
    vals = law(w)
    assert np.all(vals >= 0.5) and np.all(vals <= 2.0)
    # strictly increasing in between
    assert np.all(np.diff(law(np.linspace(-5, 5, 41))) > 0)


def test_constant_law_flat():
    law = constant_law(1.3)
    w = np.array([-7.0, 0.0, 2.5])
    assert np.array_equal(law(w), np.full(3, 1.3))
    assert law.lipschitz == 0.0
    assert law.lo == law.hi == 1.3


def test_clamped_affine_clips_both_ends():
    law = clamped_affine_law(1.0, 0.5, 0.8, 1.6)
    assert law(0.0) == pytest.approx(1.0)
    assert law(1.0) == pytest.approx(1.5)
    assert law(10.0) == pytest.approx(1.6)   # clipped above
    assert law(-10.0) == pytest.approx(0.8)  # clipped below
    assert law.lipschitz == pytest.approx(0.5)


def test_negative_slope_lipschitz_is_absolute():
    law = clamped_affine_law(1.0, -0.25, 0.5, 2.0)
    assert law.lipschitz == pytest.approx(0.25)


def test_invalid_bounds_rejected():
    with pytest.raises(ValueError):
        constant_law(0.0)
    with pytest.raises(ValueError):
        constant_law(-1.0)
    with pytest.raises(ValueError):
        tanh_blend_law(2.0, 1.0)
    with pytest.raises(ValueError):
        tanh_blend_law(1.0, float("nan"))
    with pytest.raises(ValueError):
        clamped_affine_law(float("inf"), 1.0, 0.5, 2.0)


def test_unknown_kind_raises_on_call():
    law = ScalarLaw("cubic_spline", 1.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        law(0.0)
    with pytest.raises(ValueError):
        law.derivative(0.0)


_DERIVATIVE_LAWS = {
    "constant": constant_law(1.3),
    "clamped_affine": clamped_affine_law(1.0, 0.5, 0.8, 1.6),
    "clamped_affine_negative": clamped_affine_law(1.0, -0.25, 0.5, 2.0),
    "tanh_blend": tanh_blend_law(0.5, 2.0),
}


def _kinks(law):
    if law.kind != "clamped_affine":
        return np.empty(0)
    return (np.array([law.lo, law.hi]) - law.intercept) / law.slope


@pytest.mark.parametrize("name", sorted(_DERIVATIVE_LAWS))
def test_derivative_matches_central_difference(name):
    law = _DERIVATIVE_LAWS[name]
    w = np.linspace(-8.0, 8.0, 321)
    w = w[np.min(np.abs(w[:, None] - _kinks(law)), axis=1,
                 initial=np.inf) > 1e-3]
    h = 1e-6
    quotient = (law(w + h) - law(w - h)) / (2 * h)
    assert np.max(np.abs(law.derivative(w) - quotient)) < 1e-8


@pytest.mark.parametrize("name", sorted(_DERIVATIVE_LAWS))
def test_derivative_peak_is_the_lipschitz_constant(name):
    # tanh peaks at w = 0, clamped_affine anywhere inside its band
    law = _DERIVATIVE_LAWS[name]
    slopes = np.abs(law.derivative(np.append(np.linspace(-8.0, 8.0, 321), 0.0)))
    assert np.max(slopes) == law.lipschitz
    assert abs(float(law.derivative(0.0))) == law.lipschitz


@pytest.mark.parametrize("name", sorted(_DERIVATIVE_LAWS))
def test_derivative_is_finite_far_out(name):
    law = _DERIVATIVE_LAWS[name]
    with np.errstate(all="raise"):
        d = law.derivative(np.array([-1e3, 1e3]))
    assert np.all(np.isfinite(d))
    assert np.array_equal(d, np.zeros(2))


def test_model_certificate_properties():
    model = CoefficientModel(tanh_blend_law(0.5, 2.0), tanh_blend_law(0.9, 1.1))
    assert model.gamma0 == 0.5 and model.gamma1 == 2.0
    assert model.k0 == 0.9 and model.k1 == 1.1
    assert model.l1 == pytest.approx(0.75)
    assert model.l2 == pytest.approx(0.1)


def test_eval_helpers_reject_non_finite_temperature():
    model = constant_model(1.0, 1.0)
    with pytest.raises(ValueError):
        eval_viscosity(model, np.array([0.0, np.nan]))
    with pytest.raises(ValueError):
        eval_conductivity(model, np.inf)


def test_eval_helpers_match_direct_call():
    model = CoefficientModel(tanh_blend_law(0.5, 2.0), clamped_affine_law(1.0, 0.1, 0.8, 1.2))
    w = np.linspace(-3, 3, 17)
    assert np.array_equal(eval_viscosity(model, w), model.viscosity(w))
    assert np.array_equal(eval_conductivity(model, w), model.conductivity(w))


def test_audit_constant_model():
    rep = audit_bounds_and_lipschitz(constant_model(1.3, 0.9))
    assert isinstance(rep, AuditReport)
    assert rep.worst_bound_violation <= 0.0
    assert rep.empirical_l1 == 0.0
    assert rep.empirical_l2 == 0.0
    assert rep.samples == 2000


def test_audit_tanh_model_respects_certificates():
    model = CoefficientModel(tanh_blend_law(0.5, 2.0), tanh_blend_law(0.9, 1.1))
    rep = audit_bounds_and_lipschitz(model, samples=4000, seed=7)
    assert rep.worst_bound_violation <= 0.0
    assert rep.empirical_l1 <= model.l1 + 1e-12
    assert rep.empirical_l2 <= model.l2 + 1e-12
    # the grid brackets w = 0, so the observed quotient should come close
    assert rep.empirical_l1 > 0.9 * model.l1


def test_audit_requires_two_samples():
    with pytest.raises(ValueError):
        audit_bounds_and_lipschitz(constant_model(1.0, 1.0), samples=1)


@given(
    lo=st.floats(min_value=0.05, max_value=5.0),
    width=st.floats(min_value=0.0, max_value=5.0),
    w=st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=1, max_size=20),
)
@settings(max_examples=200, deadline=None)
def test_tanh_blend_stays_in_band(lo, width, w):
    law = tanh_blend_law(lo, lo + width)
    vals = law(np.asarray(w))
    assert np.all(vals >= lo - 1e-14)
    assert np.all(vals <= lo + width + 1e-14)


@given(
    a=st.floats(min_value=-20.0, max_value=20.0),
    b=st.floats(min_value=-20.0, max_value=20.0),
    lo=st.floats(min_value=0.1, max_value=1.0),
    width=st.floats(min_value=0.01, max_value=3.0),
)
@settings(max_examples=200, deadline=None)
def test_tanh_blend_difference_quotient_below_lipschitz(a, b, lo, width):
    law = tanh_blend_law(lo, lo + width)
    # each evaluation of law lies within about eps*hi of the exact value,
    # so the rounded difference may exceed the exact one by about 2*eps*hi
    slack = 4.0 * np.finfo(float).eps * law.hi
    assert abs(law(a) - law(b)) <= law.lipschitz * abs(a - b) + slack


@given(
    intercept=st.floats(min_value=-5.0, max_value=5.0),
    slope=st.floats(min_value=-2.0, max_value=2.0),
    w=st.floats(min_value=-50.0, max_value=50.0),
)
@settings(max_examples=200, deadline=None)
def test_clamped_affine_stays_in_band(intercept, slope, w):
    law = clamped_affine_law(intercept, slope, 0.5, 1.5)
    v = float(law(w))
    assert 0.5 <= v <= 1.5
