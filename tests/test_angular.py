"""Angular integrals: normalizers, identity checks, limit behavior."""

import math

import numpy as np
import pytest

import sif_lab.angular
from sif_lab.angular import (QuadratureNotConverged, check_ij_identity,
                             gamma_lame, gamma_limit_study, gamma_stokes,
                             gauss_nodes, kappa_closed, raw_ij)
from sif_lab.modes import CornerFrame, make_mode
from sif_lab.spectral import MaterialParams

FRAME = CornerFrame(-math.pi / 2, math.pi)


def test_gauss_nodes_polynomial_exactness():
    x, w = gauss_nodes(6, -1.0, 2.0)
    for k in range(12):
        exact = (2.0 ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
        assert abs(np.dot(w, x ** k) - exact) < 1e-12 * max(1.0, abs(exact))


def brute_gamma_lame(index, material, frame, panels=96, order=12):
    """Independent route: composite Gauss panels over the raw closed forms."""
    primal = make_mode("lame", "primal", index, frame, material)
    dual = make_mode("lame", "dual", index, frame, material)
    lam = primal.a
    edges = np.linspace(frame.omega1, frame.omega2, panels + 1)
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        x, w = gauss_nodes(order, a, b)
        that = x - frame.omega_bar
        A, B = primal.angular(that)
        At, Bt = dual.angular(that)
        pairing = material.mu * 2.0 * lam * (A * At + B * Bt)
        kap = kappa_closed(index, material.mu, material.C, lam, frame.omega, that)
        total += float(np.dot(w, pairing + kap))
    return total


@pytest.mark.parametrize("index", [1, 2])
@pytest.mark.parametrize("eps", [1e-1, 1e-3, 1e-6])
def test_gamma_lame_against_composite_panels(index, eps):
    material = MaterialParams(1.0, eps)
    g = gamma_lame(index, material, FRAME)
    brute = brute_gamma_lame(index, material, FRAME)
    assert abs(g.gamma - brute) < 1e-10 * abs(brute)
    assert g.parts["pairing"] + g.parts["kappa"] == pytest.approx(g.gamma)


def test_gamma_stokes_against_composite_panels():
    material = MaterialParams(1.0, 0.0)
    for index in (1, 2):
        primal = make_mode("stokes", "primal", index, FRAME, material)
        dual = make_mode("stokes", "dual", index, FRAME, material)
        k = primal.a
        edges = np.linspace(FRAME.omega1, FRAME.omega2, 97)
        total = 0.0
        for a, b in zip(edges, edges[1:]):
            x, w = gauss_nodes(12, a, b)
            that = x - FRAME.omega_bar
            A, B = primal.angular(that)
            At, Bt = dual.angular(that)
            xi = primal.pressure_coeff(that)
            xit = dual.pressure_coeff(that)
            total += float(np.dot(w, 2.0 * k * (A * At + B * Bt) - xi * At + A * xit))
        g = gamma_stokes(index, FRAME)
        assert abs(g.gamma - total) < 1e-10 * abs(total)


def test_gamma_nonzero_and_eps_trend():
    vals = [gamma_lame(1, MaterialParams(1.0, e), FRAME).gamma
            for e in (1e-2, 1e-3, 1e-4, 1e-5)]
    gs = gamma_stokes(1, FRAME).gamma
    assert all(abs(v) > 1e-8 for v in vals)
    gaps = [abs(v - gs) for v in vals]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_raw_identity_pointwise():
    """Raw I+J equals eps times the closed-form integrand on a grid."""
    for eps in (1e-2, 1e-4, 1e-6):
        material = MaterialParams(1.0, eps)
        for index in (1, 2):
            primal = make_mode("lame", "primal", index, FRAME, material)
            dual = make_mode("lame", "dual", index, FRAME, material)
            that = np.linspace(-0.5 * FRAME.omega, 0.5 * FRAME.omega, 301)
            I, J = raw_ij(primal, dual, that)
            kap = kappa_closed(index, material.mu, material.C, primal.a,
                               FRAME.omega, that)
            scale = max(np.max(np.abs(I)), np.max(np.abs(J)))
            assert np.max(np.abs(I + J - eps * kap)) < 1e-13 * scale


def test_check_ij_identity_report():
    rep = check_ij_identity(1, MaterialParams(1.0, 1e-3), FRAME)
    assert rep["max_deviation"] < 1e-12 * rep["scale"]
    assert rep["sup_kappa"] > 0
    with pytest.raises(ValueError):
        check_ij_identity(1, MaterialParams(1.0, 0.5), FRAME)


def test_gamma_limit_study_slopes():
    rows = gamma_limit_study(1, 1.0, [1e-1, 1e-2, 1e-3, 1e-4], FRAME)
    diffs = [r["diff"] for r in rows]
    assert all(b < a for a, b in zip(diffs, diffs[1:]))
    for r in rows[1:]:
        assert 0.8 <= r["slope"] <= 1.2
    with pytest.raises(ValueError):
        gamma_limit_study(1, 1.0, [1e-1, 1e-2], FRAME)
    with pytest.raises(ValueError):
        gamma_limit_study(1, 1.0, [1e-4, 1e-3, 1e-2, 1e-1], FRAME)


def test_quadrature_convergence_guard(monkeypatch):
    monkeypatch.setattr(sif_lab.angular, "DEFAULT_ORDER", 2)
    with pytest.raises(QuadratureNotConverged):
        gamma_lame(1, MaterialParams(1.0, 1e-3), FRAME)
    with pytest.raises(QuadratureNotConverged):
        gamma_stokes(1, FRAME)


def test_stokes_second_mode_absent_below_critical_angle():
    with pytest.raises(IndexError):
        gamma_stokes(2, CornerFrame(0.0, 1.2 * math.pi))


def test_gamma_frame_invariance():
    """The normalizer depends on the opening angle, not the orientation."""
    rot = CornerFrame(FRAME.omega1 + 0.7, FRAME.omega2 + 0.7)
    m = MaterialParams(1.3, 1e-3)
    for index in (1, 2):
        a = gamma_lame(index, m, FRAME).gamma
        b = gamma_lame(index, m, rot).gamma
        assert abs(a - b) < 1e-12 * abs(a)
