"""Angular integrals over the corner arc: normalizers and identity checks.

Everything here is 1D quadrature on [omega1, omega2]; no meshes or FEM are
involved.  The penalized normalizer gamma_i is assembled from the closed-form
integrand that has the 1/eps cancellation performed analytically — the raw
eps-divided integrand exists only inside check_ij_identity, as a verification
path.  The modes come from make_mode, which finds their exponents itself, so
a normalizer is fixed by its index, frame and material alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import SifLabError
from .modes import CornerFrame, SingularMode, make_mode
from .spectral import MaterialParams

__all__ = [
    "AngularIntegrals",
    "QuadratureNotConverged",
    "GammaNearZero",
    "gauss_nodes",
    "gamma_lame",
    "gamma_stokes",
    "check_ij_identity",
    "gamma_limit_study",
]

DEFAULT_ORDER = 64
_GAMMA_FLOOR = 1e-8


class QuadratureNotConverged(SifLabError):
    """Doubling the Gauss order moved the integral more than the tolerance."""


class GammaNearZero(SifLabError):
    """The normalizer is too close to zero to divide by."""


@dataclass(frozen=True)
class AngularIntegrals:
    """One gamma computation with its term breakdown and quadrature diagnostics."""

    family: str
    index: int
    eps: float | None
    gamma: float
    parts: dict
    order: int
    quad_error: float


@lru_cache(maxsize=64)
def _reference_rule(n: int):
    """Read-only leggauss(n) pair, built once per order."""
    x, w = leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_nodes(n: int, a: float, b: float):
    """Gauss-Legendre nodes and weights on [a, b], exact through degree 2n-1."""
    if n < 1:
        raise ValueError("quadrature order must be >= 1")
    x, w = _reference_rule(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def _pair(family: str, frame: CornerFrame, material: MaterialParams,
          index: int) -> tuple[SingularMode, SingularMode]:
    return (make_mode(family, "primal", index, frame, material),
            make_mode(family, "dual", index, frame, material))


def kappa_closed(index: int, mu: float, C: float, lam: float, omega: float, that):
    """Closed form of (I_i + J_i)/eps — bounded uniformly as eps -> 0.

    The subtraction of near-equal O(1) products in the raw definition is done
    symbolically here, leaving only O(mu) trigonometric terms.
    """
    that = np.asarray(that, dtype=float)
    Kc = C * math.cos(lam * omega)
    lc = lam * math.cos(omega)
    if index == 1:
        s1, s2 = np.sin((1 - lam) * that), np.sin((1 + lam) * that)
        bracket = 2.0 * C * s1 * s2 - (Kc - lc) * s1 * s1 - (Kc + lc) * s2 * s2
    else:
        c1, c2 = np.cos((1 - lam) * that), np.cos((1 + lam) * that)
        bracket = 2.0 * C * c1 * c2 - (Kc - lc) * c2 * c2 - (Kc + lc) * c1 * c1
    return 4.0 * mu * lam * bracket


def raw_ij(primal: SingularMode, dual: SingularMode, that):
    """Raw I_i(theta) + J_i(theta) from the defining products (no eps division).

    I = 2*lam*(T.e_r)(Tdual.e_r) and J = (dT.e_theta)(Tdual.e_r)
    - (T.e_r)(dTdual.e_theta); in angular coefficients this is
    2*lam*A*Adual + B'*Adual - A*Bdual'.
    """
    lam = primal.a
    A, B = primal.angular(that)
    At, Bt = dual.angular(that)
    _, dB = primal.angular_derivative(that)
    _, dBt = dual.angular_derivative(that)
    I = 2.0 * lam * A * At
    J = dB * At - A * dBt
    return I, J


def _integrate(f, frame: CornerFrame, order: int):
    x, w = gauss_nodes(order, frame.omega1, frame.omega2)
    return float(np.dot(w, f(x - frame.omega_bar)))


def _doubling_error(what: str, order: int, gamma: float, refined: float) -> float:
    """|refined - gamma|, after the order-doubling and near-zero checks."""
    err = abs(refined - gamma)
    if err > 1e-11 * max(abs(gamma), 1e-30):
        raise QuadratureNotConverged(
            f"{what}: order {order} vs {2 * order} differ by {err}")
    if abs(gamma) < _GAMMA_FLOOR:
        raise GammaNearZero(f"{what} = {gamma}")
    return err


def gamma_lame(index: int, material: MaterialParams, frame: CornerFrame,
               modes: tuple[SingularMode, SingularMode] | None = None) -> AngularIntegrals:
    """Penalized normalizer gamma_i = mu*int 2*lam*T.Tdual + int kappa_i.

    The second term uses the closed-form integrand, never the raw difference
    divided by eps.  Gauss order DEFAULT_ORDER, checked against twice it.
    """
    if material.eps <= 0.0:
        raise ValueError("gamma_lame requires eps > 0")
    order = DEFAULT_ORDER
    if modes is None:
        modes = _pair("lame", frame, material, index)
    primal, dual = modes
    lam = primal.a

    def pairing(that):
        A, B = primal.angular(that)
        At, Bt = dual.angular(that)
        return 2.0 * lam * (A * At + B * Bt)

    def kap(that):
        return kappa_closed(index, material.mu, material.C, lam, frame.omega, that)

    term_pair = material.mu * _integrate(pairing, frame, order)
    term_kappa = _integrate(kap, frame, order)
    gamma = term_pair + term_kappa
    refined = material.mu * _integrate(pairing, frame, 2 * order) \
        + _integrate(kap, frame, 2 * order)
    err = _doubling_error(f"gamma_lame(i={index})", order, gamma, refined)
    return AngularIntegrals(
        family="lame", index=index, eps=material.eps, gamma=gamma,
        parts={"pairing": term_pair, "kappa": term_kappa},
        order=order, quad_error=err)


def gamma_stokes(index: int, frame: CornerFrame, modes=None) -> AngularIntegrals:
    """Stokes normalizer gamma_i^s = int (2k T.Tdual - xi (Tdual.e_r) + (T.e_r) xidual).

    Built from the angular coefficient functions directly (the 1/mu velocity
    prefactors are not part of the normalizer), so the value depends on the
    opening angle only.  A mode the opening angle does not have raises
    IndexOutOfRange from make_mode.  Gauss order DEFAULT_ORDER, checked against
    twice it.
    """
    order = DEFAULT_ORDER
    if modes is None:
        modes = _pair("stokes", frame, MaterialParams(1.0, 0.0), index)
    primal, dual = modes
    k = primal.a

    def integrand(that):
        A, B = primal.angular(that)
        At, Bt = dual.angular(that)
        xi = primal.pressure_coeff(that)
        xit = dual.pressure_coeff(that)
        return 2.0 * k * (A * At + B * Bt) - xi * At + A * xit

    gamma = _integrate(integrand, frame, order)
    refined = _integrate(integrand, frame, 2 * order)
    err = _doubling_error(f"gamma_stokes(i={index})", order, gamma, refined)
    return AngularIntegrals(
        family="stokes", index=index, eps=None, gamma=gamma,
        parts={"integral": gamma}, order=order, quad_error=err)


def check_ij_identity(index: int, material: MaterialParams, frame: CornerFrame) -> dict:
    """Compare raw I+J against eps * closed-form kappa on a 720-point theta grid.

    Returns the max absolute deviation, the scale of the raw terms it should
    be judged against, and sup |kappa| (the uniform-boundedness quantity).
    """
    if not (0.0 < material.eps <= 0.1):
        raise ValueError("identity check expects eps in (0, 0.1]")
    primal, dual = _pair("lame", frame, material, index)
    that = np.linspace(-0.5 * frame.omega, 0.5 * frame.omega, 720)
    I, J = raw_ij(primal, dual, that)
    kap = kappa_closed(index, material.mu, material.C, primal.a, frame.omega, that)
    deviation = np.abs((I + J) - material.eps * kap)
    scale = float(max(np.max(np.abs(I)), np.max(np.abs(J))))
    return {
        "max_deviation": float(np.max(deviation)),
        "scale": scale,
        "sup_kappa": float(np.max(np.abs(kap))),
        "eps": material.eps,
        "index": index,
    }


def gamma_limit_study(index: int, mu: float, eps_grid, frame: CornerFrame) -> list[dict]:
    """Table of gamma_i^eps against its incompressible limit mu * gamma_i^s."""
    eps_grid = [float(e) for e in eps_grid]
    if len(eps_grid) < 4:
        raise ValueError("gamma_limit_study needs at least 4 grid points")
    if any(b >= a for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValueError("eps grid must be strictly decreasing")
    gs = gamma_stokes(index, frame).gamma
    rows = []
    prev = None
    for eps in eps_grid:
        mat = MaterialParams(mu, eps)
        g = gamma_lame(index, mat, frame).gamma
        diff = abs(g - mu * gs)
        slope = None
        if prev is not None:
            (eps0, diff0) = prev
            slope = math.log(diff0 / diff) / math.log(eps0 / eps)
        rows.append({"eps": eps, "gamma": g, "diff": diff, "slope": slope,
                     "gamma_stokes": gs})
        prev = (eps, diff)
    return rows
