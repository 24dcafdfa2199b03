"""Closed-form mode layer: gradients, divergences, traces, dualities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sif_lab.modes import (CornerFrame, FamilyMismatch, IndexOutOfRange,
                           NonpositiveRadius, Polar, make_mode, map_theta)
from sif_lab.spectral import MaterialParams, exponent_table

FRAME = CornerFrame(-math.pi / 2, math.pi)
MAT = MaterialParams(1.0, 1e-3)


def all_modes():
    out = []
    for kind in ("primal", "dual"):
        for i in (1, 2):
            out.append(make_mode("lame", kind, i, FRAME, MAT))
            out.append(make_mode("stokes", kind, i, FRAME, MAT))
    return out


def sample_points(n=25, seed=3):
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.3, 0.9, n)
    theta = rng.uniform(FRAME.omega1 + 0.1, FRAME.omega2 - 0.1, n)
    return r, theta


# -- gradients against central differences ----------------------------------

@pytest.mark.parametrize("mode", all_modes(), ids=lambda m: f"{m.family}-{m.kind}-{m.index}")
def test_gradient_matches_finite_differences(mode):
    r, theta = sample_points()
    x, y = r * np.cos(theta), r * np.sin(theta)
    G = mode.eval_grad(r, theta)
    h = 1e-6
    fd_x = (mode.eval_xy(x + h, y) - mode.eval_xy(x - h, y)) / (2 * h)
    fd_y = (mode.eval_xy(x, y + h) - mode.eval_xy(x, y - h)) / (2 * h)
    fd = np.stack([fd_x, fd_y], axis=-1)
    scale = np.max(np.abs(G))
    assert np.max(np.abs(G - fd)) < 1e-8 * scale


def test_angular_derivative_matches_finite_differences():
    for mode in all_modes():
        that = np.linspace(-0.6 * FRAME.omega / 2, 0.6 * FRAME.omega / 2, 11)
        dA, dB = mode.angular_derivative(that)
        h = 1e-6
        A1, B1 = mode.angular(that + h)
        A0, B0 = mode.angular(that - h)
        assert np.allclose(dA, (A1 - A0) / (2 * h), atol=1e-8)
        assert np.allclose(dB, (B1 - B0) / (2 * h), atol=1e-8)


# -- divergence identities ---------------------------------------------------

def test_scaled_divergence_equals_grad_trace_over_eps():
    r, theta = sample_points()
    for i in (1, 2):
        for kind in ("primal", "dual"):
            mode = make_mode("lame", kind, i, FRAME, MAT)
            G = mode.eval_grad(r, theta)
            trace = G[..., 0, 0] + G[..., 1, 1]
            ds = mode.eval_div_scaled(r, theta)
            assert np.max(np.abs(trace / MAT.eps - ds)) < 1e-9 * np.max(np.abs(ds))


def test_stokes_modes_divergence_free():
    r, theta = sample_points()
    for i in (1, 2):
        for kind in ("primal", "dual"):
            mode = make_mode("stokes", kind, i, FRAME, MAT)
            G = mode.eval_grad(r, theta)
            trace = G[..., 0, 0] + G[..., 1, 1]
            assert np.max(np.abs(trace)) < 1e-10 * np.max(np.abs(G))


def test_scaled_divergence_vanishes_in_incompressible_limit():
    mode = make_mode("lame", "primal", 1, FRAME, MaterialParams(1.0, 0.0))
    r, theta = sample_points()
    G = mode.eval_grad(r, theta)
    assert np.max(np.abs(G[..., 0, 0] + G[..., 1, 1])) < 1e-12 * np.max(np.abs(G))


# -- traces ------------------------------------------------------------------

def test_closed_form_nearly_vanishes_on_corner_rays():
    # evaluating just inside the rays must approach zero smoothly
    for mode in all_modes():
        for theta0 in (FRAME.omega1, FRAME.omega2):
            theta = theta0 + (1e-9 if theta0 == FRAME.omega1 else -1e-9)
            v = mode.eval(0.5, theta)
            assert np.max(np.abs(v)) < 1e-7


def test_stokes_pressure_closed_form():
    r, theta = sample_points()
    mode = make_mode("stokes", "primal", 1, FRAME, MAT)
    p = mode.eval_pressure(r, theta)
    that = theta - FRAME.omega_bar
    expected = r ** (mode.a - 1.0) * 4.0 * mode.a * np.sin((1 - mode.a) * that)
    assert np.allclose(p, expected, rtol=1e-14)


# -- structural properties ---------------------------------------------------

def test_dual_negates_exponent():
    for i in (1, 2):
        p = make_mode("lame", "primal", i, FRAME, MAT)
        d = make_mode("lame", "dual", i, FRAME, MAT)
        assert d.a == -p.a


@settings(max_examples=40, deadline=None)
@given(scale=st.floats(0.1, 5.0), r=st.floats(0.05, 2.0),
       theta=st.floats(-1.4, 2.9))
def test_homogeneity(scale, r, theta):
    mode = make_mode("lame", "primal", 1, FRAME, MAT)
    v1 = mode.eval(scale * r, theta)
    v0 = mode.eval(r, theta)
    assert np.allclose(v1, scale ** mode.a * v0, rtol=1e-12, atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(phi=st.floats(-2.0, 2.0), r=st.floats(0.2, 1.5),
       that=st.floats(0.05, 1.4))
def test_rotation_consistency(phi, r, that):
    """Rotating the frame rotates the vector field with it."""
    frame2 = CornerFrame(FRAME.omega1 + phi, FRAME.omega2 + phi)
    m1 = make_mode("lame", "primal", 2, FRAME, MAT)
    m2 = make_mode("lame", "primal", 2, frame2, MAT)
    t1 = FRAME.omega_bar + that
    t2 = frame2.omega_bar + that
    v1 = m1.eval(r, t1)
    v2 = m2.eval(r, t2)
    R = np.array([[math.cos(phi), -math.sin(phi)],
                  [math.sin(phi), math.cos(phi)]])
    assert np.allclose(v2, R @ v1, atol=1e-12)


# -- errors ------------------------------------------------------------------

@pytest.mark.parametrize("rotation", [0.0, 0.37, -2.0])
def test_map_theta_is_continuous_across_both_rays(rotation):
    """Interior angles come back unwrapped; a hair outside a ray stays by it."""
    frame = CornerFrame(FRAME.omega1 + rotation, FRAME.omega2 + rotation)
    inside = np.linspace(frame.omega1 + 1e-3, frame.omega2 - 1e-3, 101)
    rays = np.array([frame.omega1 - 1e-9, frame.omega2 + 1e-9])
    for want in (inside, rays):
        got = map_theta(np.arctan2(np.sin(want), np.cos(want)), frame)
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("family,omega,eps", [
    ("lame", 1.5 * math.pi, 1e-3),         # C = 1.002
    ("lame", 1.5 * math.pi, 1e-1),         # C = 1.2
    ("stokes", 1.2 * math.pi, 0.0),        # one Stokes mode below the critical angle
    ("stokes", 1.5 * math.pi, 0.0),
])
def test_mode_exponent_comes_from_its_family_table(family, omega, eps):
    frame = CornerFrame(0.0, omega)
    material = MaterialParams(1.0, eps)
    table = exponent_table(family, frame.omega, material.C)
    assert exponent_table(family, frame.omega, material.C) is table
    assert table.mode_count == (1 if omega < 1.4 * math.pi else 2)
    for i in range(1, table.mode_count + 1):
        lam = table.exponents[i - 1]
        assert make_mode(family, "primal", i, frame, material).a == lam
        assert make_mode(family, "dual", i, frame, material).a == -lam


def test_error_conditions():
    with pytest.raises(IndexOutOfRange):
        make_mode("lame", "primal", 3, FRAME, MAT)
    below = CornerFrame(0.0, 3.8)  # one Stokes mode below the critical angle
    with pytest.raises(IndexOutOfRange):
        make_mode("stokes", "primal", 2, below, MAT)
    mode = make_mode("lame", "primal", 1, FRAME, MAT)
    with pytest.raises(FamilyMismatch):
        mode.pressure_coeff(0.1)
    with pytest.raises(FamilyMismatch):
        make_mode("stokes", "primal", 1, FRAME, MAT).eval_div_scaled(0.5, 0.0)
    with pytest.raises(NonpositiveRadius):
        mode.eval(0.0, 0.0)
    with pytest.raises(NonpositiveRadius):
        mode.eval(np.array([0.5, -0.1]), np.array([0.0, 0.0]))


@pytest.mark.parametrize("r", [0.0, -0.1, math.nan, math.inf])
def test_polar_rejects_a_radius_that_is_not_finite_and_positive(r):
    with pytest.raises(NonpositiveRadius):
        Polar(np.array([0.5, r]), np.array([0.0, 1.0]))
    with pytest.raises(NonpositiveRadius):
        make_mode("lame", "primal", 1, FRAME, MAT).eval(r, 0.0)


def test_polar_at_maps_into_the_frame_and_computes_cos_sin_once():
    rng = np.random.default_rng(5)
    x, y = rng.uniform(-1.0, 1.0, (2, 40))
    at = Polar.at(x, y, FRAME)
    assert np.array_equal(at.r, np.hypot(x, y))
    assert np.array_equal(at.theta, map_theta(np.arctan2(y, x), FRAME))
    assert at.cos is at.cos and at.sin is at.sin
    assert np.array_equal(at.cos, np.cos(at.theta))
    assert np.array_equal(at.sin, np.sin(at.theta))


# -- bit-exact against the stacked closed forms ------------------------------
# The evaluation of the modes in its earlier form: each unit vector stacked
# on its own (cos and sin computed for each), and both trigonometric values
# of each angular argument in every call.  Evaluation on a shared Polar must
# reproduce it bit for bit.

def _ref_e_r(theta):
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def _ref_e_theta(theta):
    return np.stack([-np.sin(theta), np.cos(theta)], axis=-1)


def _ref_trig(mode, x):
    if mode.index == 1:
        return np.sin(x), np.cos(x)
    return np.cos(x), -np.sin(x)


def _ref_constants(mode):
    a, C, om = mode.a, mode.C, mode.frame.omega
    K = C * math.cos(a * om) + (-1) ** (mode.index - 1) * a * math.cos(om)
    return C - a, C + a, K


def _ref_angular(mode, that):
    cm, cp, K = _ref_constants(mode)
    a = mode.a
    S1, dS1 = _ref_trig(mode, (1 - a) * that)
    S2, dS2 = _ref_trig(mode, (1 + a) * that)
    return -cm * S1 + K * S2, -cp * dS1 + K * dS2


def _ref_angular_derivative(mode, that):
    cm, cp, K = _ref_constants(mode)
    a = mode.a
    S1, dS1 = _ref_trig(mode, (1 - a) * that)
    S2, dS2 = _ref_trig(mode, (1 + a) * that)
    return (-cm * (1 - a) * dS1 + K * (1 + a) * dS2,
            cp * (1 - a) * S1 - K * (1 + a) * S2)


def _ref_eval(mode, r, theta):
    that = theta - mode.frame.omega_bar
    A, B = _ref_angular(mode, that)
    rad = mode.prefactor * r ** mode.a
    return rad[..., None] * (A[..., None] * _ref_e_r(theta) + B[..., None] * _ref_e_theta(theta))


def _ref_eval_grad(mode, r, theta):
    that = theta - mode.frame.omega_bar
    A, B = _ref_angular(mode, that)
    dA, dB = _ref_angular_derivative(mode, that)
    er, et = _ref_e_r(theta), _ref_e_theta(theta)
    T = A[..., None] * er + B[..., None] * et
    dT = (dA - B)[..., None] * er + (A + dB)[..., None] * et
    rad = mode.prefactor * r ** (mode.a - 1.0)
    G = mode.a * T[..., :, None] * er[..., None, :] + dT[..., :, None] * et[..., None, :]
    return rad[..., None, None] * G


def _ref_eval_div_scaled(mode, r, theta):
    that = theta - mode.frame.omega_bar
    a = mode.a
    return -4.0 * mode.mu * a * r ** (a - 1.0) * _ref_trig(mode, (1 - a) * that)[0]


def _ref_eval_pressure(mode, r, theta):
    that = theta - mode.frame.omega_bar
    a = mode.a
    return r ** (a - 1.0) * (4.0 * a * _ref_trig(mode, (1 - a) * that)[0])


@pytest.mark.parametrize("omega", [1.2 * math.pi, 1.5 * math.pi, 1.95 * math.pi],
                         ids=["1.2pi", "1.5pi", "1.95pi"])
def test_evaluation_on_a_shared_polar_is_bit_identical_to_the_stacked_forms(omega):
    frame = CornerFrame(-0.4, omega - 0.4)
    material = MaterialParams(1.3, 1e-3)
    rng = np.random.default_rng(11)
    rho = rng.uniform(1e-3, 2.0, 200)
    phi = rng.uniform(frame.omega1, frame.omega2, 200)
    x, y = rho * np.cos(phi), rho * np.sin(phi)
    at = Polar.at(x, y, frame)
    r, theta = np.hypot(x, y), map_theta(np.arctan2(y, x), frame)
    modes = [make_mode(family, kind, i, frame, material)
             for family in ("lame", "stokes") for kind in ("primal", "dual")
             for i in range(1, exponent_table(family, omega, material.C if family == "lame"
                                              else 1.0).mode_count + 1)]
    assert len(modes) == (6 if omega < 1.4 * math.pi else 8)
    for mode in modes:
        assert np.array_equal(mode.eval(at), _ref_eval(mode, r, theta))
        assert np.array_equal(mode.eval_xy(x, y), _ref_eval(mode, r, theta))
        assert np.array_equal(mode.eval(r, theta), _ref_eval(mode, r, theta))
        assert np.array_equal(mode.eval_grad(at), _ref_eval_grad(mode, r, theta))
        A, B = mode.angular(theta - frame.omega_bar)
        rA, rB = _ref_angular(mode, theta - frame.omega_bar)
        assert np.array_equal(A, rA) and np.array_equal(B, rB)
        if mode.family == "lame":
            assert np.array_equal(mode.eval_div_scaled(at), _ref_eval_div_scaled(mode, r, theta))
        else:
            assert np.array_equal(mode.eval_pressure(at), _ref_eval_pressure(mode, r, theta))
