"""Closed-form singular and dual singular functions of the corner sector.

Each mode is a homogeneous field r^a * T(theta) built from trigonometric
angular coefficients; the dual of a mode is the same formula with the exponent
negated.  Values, Cartesian gradients, scaled divergences and (Stokes)
pressures are all evaluated from hand-differentiated closed forms — no
numerical differentiation and no cutoff functions anywhere.  A mode is fixed
by (family, kind, index, frame, material): make_mode reads the exponent from
spectral.exponent_table, which solves each (family, omega, C) once.

Modes are evaluated on point sets (Polar): one array of points in the
corner frame's polar coordinates, with cos theta and sin theta computed on
first read.  Each evaluation computes each sine or cosine that it reads
once, and sharing a point set between modes changes no floating-point
operation: the values are bit-identical to evaluating each mode alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import SifLabError
from .spectral import MaterialParams, exponent_table

__all__ = [
    "CornerFrame",
    "Polar",
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
    """Mode evaluation requested at a radius that is not finite and positive."""


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


@dataclass(frozen=True, eq=False)
class Polar:
    """Points in the polar coordinates of a corner frame.

    r and theta are float arrays of one shape, theta on the frame's branch;
    cos and sin are computed on first read and kept.  Polar.at(x, y, frame)
    maps Cartesian points; Polar(r, theta) takes given coordinates, scalars
    or arrays that broadcast.  Every r must be finite and positive.
    """

    r: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        r, theta = np.broadcast_arrays(np.asarray(self.r, dtype=float),
                                       np.asarray(self.theta, dtype=float))
        # NaN fails both comparisons.
        if not np.all((r > 0.0) & (r < math.inf)):
            raise NonpositiveRadius("mode evaluation requires a finite r > 0")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "theta", theta)

    @classmethod
    def at(cls, x, y, frame: CornerFrame) -> Polar:
        """The Cartesian points (x, y), with theta mapped into frame."""
        return cls(np.hypot(x, y), map_theta(np.arctan2(y, x), frame))

    @cached_property
    def cos(self) -> np.ndarray:
        return np.cos(self.theta)

    @cached_property
    def sin(self) -> np.ndarray:
        return np.sin(self.theta)


def _points(at, theta) -> Polar:
    """at itself if it is a Polar, else Polar(at, theta)."""
    return at if isinstance(at, Polar) else Polar(at, theta)


def _rotated(X, Y, cos, sin):
    """X e_r + Y e_theta in Cartesian components, one (..., 2) array, for
    e_r = (cos, sin) and e_theta = (-sin, cos)."""
    out = np.empty(np.broadcast_shapes(np.shape(X), np.shape(cos)) + (2,))
    out[..., 0] = X * cos - Y * sin
    out[..., 1] = X * sin + Y * cos
    return out


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

    def _sine(self, x):
        """S(x): sin for index 1, the odd branch, and cos for index 2, the even one."""
        return np.sin(x) if self.index == 1 else np.cos(x)

    def _sines(self, that):
        """(S1, S1', S2, S2'): S and its derivative, (sin, cos) for index 1 and
        (cos, -sin) for index 2, at (1 - a) that and at (1 + a) that; one
        sine and one cosine of each."""
        out = []
        for x in ((1 - self.a) * that, (1 + self.a) * that):
            sin, cos = np.sin(x), np.cos(x)
            out += [sin, cos] if self.index == 1 else [cos, -sin]
        return out

    def _constants(self) -> tuple[float, float, float]:
        a, C, om = self.a, self.C, self.frame.omega
        K = C * math.cos(a * om) + (-1) ** (self.index - 1) * a * math.cos(om)
        return C - a, C + a, K

    def _angular(self, sines):
        cm, cp, K = self._constants()
        S1, dS1, S2, dS2 = sines
        return -cm * S1 + K * S2, -cp * dS1 + K * dS2

    def _angular_derivative(self, sines):
        cm, cp, K = self._constants()
        a = self.a
        S1, dS1, S2, dS2 = sines
        return (-cm * (1 - a) * dS1 + K * (1 + a) * dS2,
                cp * (1 - a) * S1 - K * (1 + a) * S2)

    def angular(self, that):
        """Radial/tangential coefficients (A, B) at that = theta - omega_bar."""
        return self._angular(self._sines(that))

    def angular_derivative(self, that):
        """d/dtheta of the angular coefficients, in closed form."""
        return self._angular_derivative(self._sines(that))

    def pressure_coeff(self, that):
        """Angular coefficient of the Stokes pressure, xi(theta - omega_bar)."""
        if self.family != "stokes":
            raise FamilyMismatch("pressure is defined for Stokes modes only")
        a = self.a
        return 4.0 * a * self._sine((1 - a) * that)

    # -- point evaluation -----------------------------------------------------
    # Each method takes a Polar, or radii r with theta the angles on the
    # frame's branch.

    def eval(self, at, theta=None):
        """Velocity/displacement vector at polar (r, theta); shape (..., 2)."""
        at = _points(at, theta)
        # Read first, so that a point set's kept cos and sin are allocated
        # before this call's temporaries: read after them, repeated eps
        # sweeps grew the process's peak RSS by up to 20%.
        cos, sin = at.cos, at.sin
        A, B = self.angular(at.theta - self.frame.omega_bar)
        v = _rotated(A, B, cos, sin)
        v *= (self.prefactor * at.r ** self.a)[..., None]
        return v

    def eval_pressure(self, at, theta=None):
        """Stokes pressure scalar r^(a-1) * xi(theta - omega_bar)."""
        at = _points(at, theta)
        return at.r ** (self.a - 1.0) * self.pressure_coeff(at.theta - self.frame.omega_bar)

    def eval_grad(self, at, theta=None):
        """Cartesian gradient G with G[k, l] = d(velocity_k)/d(x_l); shape (..., 2, 2)."""
        at = _points(at, theta)
        cos, sin = at.cos, at.sin
        sines = self._sines(at.theta - self.frame.omega_bar)
        A, B = self._angular(sines)
        dA, dB = self._angular_derivative(sines)
        T = _rotated(A, B, cos, sin)
        # Frame terms: d/dtheta e_r = e_theta, d/dtheta e_theta = -e_r.
        dT = _rotated(dA - B, A + dB, cos, sin)
        # Row k of G is a T_k e_r + dT_k e_theta.
        G = _rotated(self.a * T, dT, cos[..., None], sin[..., None])
        G *= (self.prefactor * at.r ** (self.a - 1.0))[..., None, None]
        return G

    def eval_div_scaled(self, at, theta=None):
        """Divergence divided by eps, from the cancellation-free closed form.

        div(r^a T) = r^(a-1) [(a+1)A + B'] and the bracket collapses to
        -2a(C-1) sin((1-a)(theta-omega_bar)) for index 1 (cos for index 2);
        with C - 1 = 2*mu*eps the eps cancels analytically.
        """
        if self.family != "lame":
            raise FamilyMismatch("scaled divergence applies to penalized modes")
        at = _points(at, theta)
        a = self.a
        that = at.theta - self.frame.omega_bar
        return -4.0 * self.mu * a * at.r ** (a - 1.0) * self._sine((1 - a) * that)

    def eval_xy(self, x, y):
        """Velocity at Cartesian points, with theta mapped into the corner frame."""
        return self.eval(Polar.at(x, y, self.frame))


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

