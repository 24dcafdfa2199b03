"""Eigenvalue layer: critical angle, root ordering, residuals, failure modes."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sif_lab.spectral import (MaterialParams, MultipleRootsInBracket,
                              NoRootInBracket, UnknownFamily, critical_angle,
                              exponent_table, lame_exponents, stokes_exponents)
from sif_lab.spectral import (_lame_eq, _scan_and_bisect, _scan_grid,
                              _scan_signs)

OMEGAS = [1.1 * math.pi, 1.25 * math.pi, 1.5 * math.pi, 1.75 * math.pi, 1.9 * math.pi]


def lame_eq(lam, omega, C):
    return C * C * math.sin(lam * omega) ** 2 - lam * lam * math.sin(omega) ** 2


def stokes_eq(k, omega):
    return math.sin(k * omega) ** 2 - k * k * math.sin(omega) ** 2


def assert_bisected_to_adjacent_floats(eq, x, *args):
    """eq(x) is 0, or eq changes sign between x and a neighbouring float."""
    fx = eq(x, *args)
    if fx != 0.0:
        neighbours = (eq(math.nextafter(x, d), *args) for d in (-math.inf, math.inf))
        assert any(fx * fn <= 0.0 for fn in neighbours), (x, args)


def test_critical_angle_fixed_point():
    w = critical_angle()
    assert abs(math.tan(w) - w) < 1e-9
    assert 1.4302 <= w / math.pi <= 1.4304
    assert_bisected_to_adjacent_floats(lambda w: math.sin(w) - w * math.cos(w), w)


def test_package_import_leaves_out_scipy_optimize():
    """The exponent roots are bisected in spectral, so importing the whole
    package (the CLI imports every module) loads no scipy.optimize module."""
    code = ("import sys, sif_lab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_material_params_relations():
    m = MaterialParams(2.0, 1e-3)
    assert m.C == 1.0 + 2.0 * m.mu * m.eps
    assert m.nu == 1.0 / m.eps - m.mu


@pytest.mark.parametrize("mu,eps,name", [
    (math.inf, 1e-3, "mu"), (math.nan, 1e-3, "mu"), (-math.inf, 1e-3, "mu"),
    (0.0, 1e-3, "mu"), (1.0, math.inf, "eps"), (1.0, math.nan, "eps"),
    (1.0, -1e-3, "eps"),
])
def test_material_params_reject_nonfinite_and_out_of_range(mu, eps, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        MaterialParams(mu, eps)


@pytest.mark.parametrize("omega", OMEGAS)
@pytest.mark.parametrize("C", [1.0, 1.0 + 2e-4, 1.0 + 2e-3, 1.02, 1.2, 1.26])
def test_lame_ordering_chain(omega, C):
    table = lame_exponents(omega, C)
    e1, e2, e3 = table.exponents
    if C > 1.0:
        assert 0.5 < e1 < math.pi / omega < e2 < 1.0 < e3 < 2.0 * math.pi / omega
    else:
        # incompressible limit: one root sits exactly at 1
        assert 0.5 < e1 < math.pi / omega
        assert e1 < e2 < e3 < 2.0 * math.pi / omega
        assert any(e == 1.0 for e in table.exponents)
    for e in table.exponents:
        assert abs(lame_eq(e, omega, C)) < 1e-12
        if e != 1.0:
            assert_bisected_to_adjacent_floats(_lame_eq, e, omega, C)


@pytest.mark.parametrize("omega", OMEGAS)
def test_stokes_ordering_and_exact_root(omega):
    table = stokes_exponents(omega)
    exps = table.exponents
    assert 0.5 < exps[0] < math.pi / omega
    assert list(exps) == sorted(exps)
    # kappa = 1 solves the equation exactly at every opening angle
    assert any(e == 1.0 for e in exps)
    for e in exps:
        assert abs(stokes_eq(e, omega)) < 1e-12
        if e != 1.0:
            assert_bisected_to_adjacent_floats(_lame_eq, e, omega, 1.0)


def test_mode_count_splits_at_critical_angle():
    wstar = critical_angle()
    assert stokes_exponents(wstar - 0.01).mode_count == 1
    assert stokes_exponents(wstar + 0.01).mode_count == 2
    assert stokes_exponents(1.2 * math.pi).mode_count == 1


def test_lame_at_unit_C_matches_stokes():
    omega = 1.55 * math.pi
    lam = lame_exponents(omega, 1.0)
    sto = stokes_exponents(omega)
    assert np.allclose(lam.exponents, sto.exponents, atol=1e-14)


def test_eps_dependence_is_small_and_monotone_toward_stokes():
    omega = 1.5 * math.pi
    sto = stokes_exponents(omega)
    prev = None
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        lam = lame_exponents(omega, 1.0 + 2.0 * eps)
        gap = abs(lam.exponents[0] - sto.exponents[0])
        if prev is not None:
            assert gap < prev
        prev = gap


@settings(max_examples=60, deadline=None)
@given(omega=st.floats(1.05 * math.pi, 1.95 * math.pi),
       C=st.floats(1.0, 1.3))
def test_ordering_property(omega, C):
    table = lame_exponents(omega, C)
    e1, e2, e3 = table.exponents
    assert 0.5 < e1 < e2 < e3
    for e, res in zip(table.exponents, table.residuals):
        assert abs(lame_eq(e, omega, C)) < 1e-11
        assert res < 1e-11


def test_exponent_table_by_family():
    omega, C = 1.5 * math.pi, 1.002
    assert exponent_table("lame", omega, C) == lame_exponents(omega, C)
    assert exponent_table("stokes", omega, C) == stokes_exponents(omega)
    with pytest.raises(UnknownFamily, match="'penalized'"):
        exponent_table("penalized", omega, C)


def test_rejects_non_reentrant_angle():
    with pytest.raises(Exception):
        lame_exponents(0.9 * math.pi, 1.0)


# -- the bracket scanner ------------------------------------------------------

def test_scan_raises_when_bracket_has_no_sign_change():
    omega, C = 1.5 * math.pi, 1.2
    e1, e2, _ = lame_exponents(omega, C).exponents
    # between two consecutive roots the characteristic function keeps its sign
    with pytest.raises(NoRootInBracket,
                       match=r"^gap: no sign change in \(.*\); scan pattern ([+-])\1+$"):
        _scan_and_bisect(_lame_eq, (omega, C), e1 + 1e-3, e2 - 1e-3, "gap")


@pytest.mark.parametrize("C, b, count", [
    (1.2, 2.0 / 1.5, 3),  # e1, e2, e3 of the compressible equation
    (1.0, 1.0, 2),        # k1, k2 of the Stokes equation above omega*
])
def test_scan_raises_when_bracket_has_several_sign_changes(C, b, count):
    omega = 1.5 * math.pi
    with pytest.raises(MultipleRootsInBracket,
                       match=rf"^wide: {count} sign changes in \(0\.5, .*\); scan pattern [+0-]+$"):
        _scan_and_bisect(_lame_eq, (omega, C), 0.5, b, "wide")


@pytest.mark.parametrize("w", [1.1, 1.25, 1.5, 1.75, 1.9])
@pytest.mark.parametrize("C", [1.0, 1.02, 1.2])
def test_array_form_signs_match_scalar_form(w, C):
    # C = 1 is the Stokes equation; together this is the criterion-02 grid
    omega = w * math.pi
    for a, b in ((0.5, math.pi / omega), (math.pi / omega, 1.0),
                 (1.0, 2.0 * math.pi / omega)):
        xs = _scan_grid(a, b)
        array = _scan_signs(_lame_eq(xs, omega, C, sin=np.sin))
        scalar = _scan_signs(np.array([_lame_eq(x, omega, C) for x in xs]))
        assert np.array_equal(array, scalar)
