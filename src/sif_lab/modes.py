"""Closed-form singular and dual singular functions of the corner sector.

Each mode is a homogeneous field r^a * T(theta) built from trigonometric
angular coefficients; the dual of a mode is the same formula with the exponent
negated.  Values, Cartesian gradients, scaled divergences and (Stokes)
pressures are all evaluated from hand-differentiated closed forms — no
numerical differentiation and no cutoff functions anywhere.  A mode is fixed
by (family, kind, index, frame, material): make_mode reads the exponent from
spectral.exponent_table, which solves each (family, omega, C) once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import SifLabError
from .spectral import MaterialParams, exponent_table

__all__ = [
    "CornerFrame",
    "SingularMode",
    "IndexOutOfRange",
    "FamilyMismatch",
    "NonpositiveRadius",
    "make_mode",
]


class IndexOutOfRange(SifLabError, IndexError):
    """A mode the expansion does not have: only the first two of either family
    exist, and only the first Stokes mode below the critical angle."""


class FamilyMismatch(SifLabError):
    """Operation applied to a mode of the wrong family."""


class NonpositiveRadius(SifLabError):
    """Mode evaluation requested at r <= 0."""


@dataclass(frozen=True)
class CornerFrame:
    """Angular frame of the re-entrant corner: interior is omega1 < theta < omega2."""

    omega1: float
    omega2: float

    @property
    def omega(self) -> float:
        return self.omega2 - self.omega1

    @property
    def omega_bar(self) -> float:
        return 0.5 * (self.omega1 + self.omega2)


def _e_r(theta):
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def _e_theta(theta):
    return np.stack([-np.sin(theta), np.cos(theta)], axis=-1)


@dataclass(frozen=True)
class SingularMode:
    """One singular (a > 0) or dual singular (a < 0) corner function.

    family : "lame" (penalized elastic) or "stokes"
    index  : 1 or 2, selecting the odd/even angular branch
    a      : signed homogeneity exponent of the velocity part
    C      : angular constant (1 + 2*mu*eps for the penalized family, 1 for Stokes)
    """

    family: str
    kind: str
    index: int
    a: float
    frame: CornerFrame
    mu: float
    C: float

    @property
    def prefactor(self) -> float:
        """Velocity amplitude: Stokes modes carry a 1/mu in front."""
        return 1.0 / self.mu if self.family == "stokes" else 1.0

    # -- angular closed forms -------------------------------------------------

    def _trig(self, x):
        """(S(x), S'(x)): (sin, cos) for index 1, the odd branch, and
        (cos, -sin) for index 2, the even one."""
        if self.index == 1:
            return np.sin(x), np.cos(x)
        return np.cos(x), -np.sin(x)

    def _constants(self) -> tuple[float, float, float]:
        a, C, om = self.a, self.C, self.frame.omega
        K = C * math.cos(a * om) + (-1) ** (self.index - 1) * a * math.cos(om)
        return C - a, C + a, K

    def angular(self, that):
        """Radial/tangential coefficients (A, B) at that = theta - omega_bar."""
        cm, cp, K = self._constants()
        a = self.a
        S1, dS1 = self._trig((1 - a) * that)
        S2, dS2 = self._trig((1 + a) * that)
        return -cm * S1 + K * S2, -cp * dS1 + K * dS2

    def angular_derivative(self, that):
        """d/dtheta of the angular coefficients, in closed form."""
        cm, cp, K = self._constants()
        a = self.a
        S1, dS1 = self._trig((1 - a) * that)
        S2, dS2 = self._trig((1 + a) * that)
        return (-cm * (1 - a) * dS1 + K * (1 + a) * dS2,
                cp * (1 - a) * S1 - K * (1 + a) * S2)

    def pressure_coeff(self, that):
        """Angular coefficient of the Stokes pressure, xi(theta - omega_bar)."""
        if self.family != "stokes":
            raise FamilyMismatch("pressure is defined for Stokes modes only")
        a = self.a
        return 4.0 * a * self._trig((1 - a) * that)[0]

    # -- point evaluation -----------------------------------------------------

    def _check_r(self, r):
        if np.any(np.asarray(r) <= 0.0):
            raise NonpositiveRadius("mode evaluation requires r > 0")

    def eval(self, r, theta):
        """Velocity/displacement vector at polar (r, theta); shape (..., 2)."""
        self._check_r(r)
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        that = theta - self.frame.omega_bar
        A, B = self.angular(that)
        rad = self.prefactor * r ** self.a
        return rad[..., None] * (A[..., None] * _e_r(theta) + B[..., None] * _e_theta(theta))

    def eval_pressure(self, r, theta):
        """Stokes pressure scalar r^(a-1) * xi(theta - omega_bar)."""
        self._check_r(r)
        r = np.asarray(r, dtype=float)
        that = np.asarray(theta, dtype=float) - self.frame.omega_bar
        return r ** (self.a - 1.0) * self.pressure_coeff(that)

    def eval_grad(self, r, theta):
        """Cartesian gradient G with G[k, l] = d(velocity_k)/d(x_l); shape (..., 2, 2)."""
        self._check_r(r)
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        that = theta - self.frame.omega_bar
        A, B = self.angular(that)
        dA, dB = self.angular_derivative(that)
        er, et = _e_r(theta), _e_theta(theta)
        T = A[..., None] * er + B[..., None] * et
        # Frame terms: d/dtheta e_r = e_theta, d/dtheta e_theta = -e_r.
        dT = (dA - B)[..., None] * er + (A + dB)[..., None] * et
        rad = self.prefactor * r ** (self.a - 1.0)
        G = self.a * T[..., :, None] * er[..., None, :] + dT[..., :, None] * et[..., None, :]
        return rad[..., None, None] * G

    def eval_div_scaled(self, r, theta):
        """Divergence divided by eps, from the cancellation-free closed form.

        div(r^a T) = r^(a-1) [(a+1)A + B'] and the bracket collapses to
        -2a(C-1) sin((1-a)(theta-omega_bar)) for index 1 (cos for index 2);
        with C - 1 = 2*mu*eps the eps cancels analytically.
        """
        if self.family != "lame":
            raise FamilyMismatch("scaled divergence applies to penalized modes")
        self._check_r(r)
        r = np.asarray(r, dtype=float)
        that = np.asarray(theta, dtype=float) - self.frame.omega_bar
        a = self.a
        return -4.0 * self.mu * a * r ** (a - 1.0) * self._trig((1 - a) * that)[0]

    def eval_xy(self, x, y):
        """Velocity at Cartesian points, with theta mapped into the corner frame."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.hypot(x, y)
        theta = map_theta(np.arctan2(y, x), self.frame)
        return self.eval(r, theta)


def map_theta(theta, frame: CornerFrame):
    """Shift atan2 output by multiples of 2*pi into [omega1, omega2].

    The branch is cut in the middle of the excluded sector, not on the corner
    rays, so a point a rounding error outside a ray keeps that ray's angle.
    """
    theta = np.asarray(theta, dtype=float)
    cut = frame.omega2 + 0.5 * (2.0 * math.pi - frame.omega)
    theta = np.where(theta < cut - 2.0 * math.pi, theta + 2.0 * math.pi, theta)
    theta = np.where(theta >= cut, theta - 2.0 * math.pi, theta)
    return theta


def make_mode(family: str, kind: str, index: int, frame: CornerFrame,
              material: MaterialParams) -> SingularMode:
    """Build a singular or dual mode of family "lame" or "stokes".

    The exponent comes from the family's table at the frame's opening angle
    and the material's C, solved once per (family, omega, C).  The dual is
    obtained by negating the exponent inside the same closed forms; no
    separate formula set is needed.
    """
    if index not in (1, 2):
        raise IndexOutOfRange(f"mode index must be 1 or 2, got {index}")
    if kind not in ("primal", "dual"):
        raise ValueError(f"unknown kind {kind!r}")
    table = exponent_table(family, frame.omega, material.C)
    if index > table.mode_count:
        raise IndexOutOfRange(
            f"{family} mode {index} does not exist at omega={table.omega} "
            f"(M={table.mode_count})")
    lam = table.exponents[index - 1]
    a = lam if kind == "primal" else -lam
    C = material.C if family == "lame" else 1.0
    return SingularMode(family=family, kind=kind, index=index, a=a,
                        frame=frame, mu=material.mu, C=C)

