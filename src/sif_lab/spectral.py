"""Transcendental exponent equations for the corner sector.

Solves the characteristic equations whose roots give the strength of the
corner singularity for the penalized elastic operator and for the Stokes
operator, and locates the critical opening angle where the Stokes root
structure changes.  Each root is bracketed by a sign scan and bisected until
the bracket's ends are adjacent floats (_bisect).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import SifLabError

__all__ = [
    "MaterialParams",
    "ExponentTable",
    "NoRootInBracket",
    "MultipleRootsInBracket",
    "UnknownFamily",
    "exponent_table",
    "lame_exponents",
    "stokes_exponents",
    "critical_angle",
]

_SCAN_SAMPLES = 2048


class NoRootInBracket(SifLabError):
    """A bracket expected to contain exactly one root contained none."""


class MultipleRootsInBracket(SifLabError):
    """A bracket expected to contain exactly one root showed several sign changes."""


class UnknownFamily(SifLabError, ValueError):
    """A mode family other than "lame" or "stokes"."""


@dataclass(frozen=True)
class MaterialParams:
    """Viscosity / penalty pair with the derived elastic constants.

    For eps > 0 the penalized problem is equivalent to an elastic system with
    second constant nu = 1/eps - mu, and the combination
    C = (3*mu + nu)/(mu + nu) collapses to 1 + 2*mu*eps.
    """

    mu: float
    eps: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and self.mu > 0.0):
            raise ValueError(f"mu must be finite and positive, got {self.mu}")
        if not (math.isfinite(self.eps) and self.eps >= 0.0):
            raise ValueError(f"eps must be finite and nonnegative, got {self.eps}")

    @property
    def nu(self) -> float:
        if self.eps == 0.0:
            raise ValueError("nu is defined only for eps > 0")
        return 1.0 / self.eps - self.mu

    @property
    def C(self) -> float:
        """Constant of the angular eigen-equation; equals 1 in the eps=0 limit."""
        if self.eps == 0.0:
            return 1.0
        return 1.0 + 2.0 * self.mu * self.eps


@dataclass(frozen=True)
class ExponentTable:
    """First three positive roots of a sector characteristic equation."""

    family: str                  # "lame" | "stokes"
    omega: float
    C: float                     # 1.0 for the Stokes family
    exponents: tuple[float, float, float]
    mode_count: int              # N=2 for lame, M in {1,2} for stokes
    residuals: tuple[float, float, float] = field(default=(0.0, 0.0, 0.0))

    def __post_init__(self) -> None:
        e1, e2, e3 = self.exponents
        if not (e1 < e2 < e3):
            raise ValueError(f"exponents out of order: {self.exponents}")


def _lame_eq(lam, omega: float, C: float, sin=math.sin):
    """C^2 sin^2(lam*omega) - lam^2 sin^2(omega); C = 1 gives the Stokes equation.

    With the default scalar ``sin`` this is the exact form used for root
    refinement and residuals; ``sin=np.sin`` evaluates a whole array of lam.
    """
    return C * C * sin(lam * omega) ** 2 - lam * lam * sin(omega) ** 2


def _scan_grid(a: float, b: float) -> np.ndarray:
    """Sorted sample points strictly inside (a, b) for the sign scan."""
    xs = np.linspace(a, b, _SCAN_SAMPLES + 1)
    # Stay strictly inside: the endpoints may themselves be roots of the
    # defining equation (e.g. the unit exponent of the Stokes family).
    shrink = (b - a) / (4.0 * _SCAN_SAMPLES)
    xs[0] += shrink
    xs[-1] -= shrink
    # Roots can sit arbitrarily close to a bracket endpoint (e.g. within
    # O(eps) of 1 for small penalty parameters), so supplement the uniform
    # grid with geometrically spaced samples near both ends.
    k = np.arange(12, 46)
    geo = (b - a) * 0.5 ** k
    return np.unique(np.concatenate([xs, a + geo, b - geo]))


def _scan_signs(vals: np.ndarray) -> np.ndarray:
    """Signs of the scan samples, 0 where a value is below the noise floor."""
    # Values below the rounding-noise floor carry no reliable sign (this
    # happens next to endpoints that are exact roots of the equation).
    floor = 1e-13 * float(np.max(np.abs(vals)))
    return np.where(np.abs(vals) <= floor, 0.0, np.sign(vals))


def _scan_pattern(signs: np.ndarray) -> str:
    """About 64-character +/-/0 summary of the scan, for error messages."""
    return "".join(
        "+" if s > 0 else ("-" if s < 0 else "0") for s in signs[:: len(signs) // 64]
    )


def _bisect(eq, args: tuple, lo: float, hi: float) -> float:
    """The root of the scalar eq(x, *args) between lo < hi, bisected until the
    bracket's ends are adjacent floats: a point where eq is exactly 0, or else
    the end with the smaller |eq|."""
    flo, fhi = eq(lo, *args), eq(hi, *args)
    if flo and fhi and (flo < 0.0) == (fhi < 0.0):
        raise NoRootInBracket(
            f"no sign change between {lo!r} and {hi!r}: values {flo!r}, {fhi!r}")
    while flo and fhi:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fmid = eq(mid, *args)
        if (fmid < 0.0) == (flo < 0.0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return lo if abs(flo) <= abs(fhi) else hi


def _scan_and_bisect(eq, args: tuple, a: float, b: float, what: str) -> float:
    """Locate the single root of eq(x, *args) in (a, b).

    Pre-scans the open interval in one array evaluation,
    ``eq(xs, *args, sin=np.sin)``, and bisects the sign change to adjacent
    floats (_bisect) on the scalar ``eq(x, *args)``, which also gives the
    residuals; zero or several sign changes abort loudly instead of silently
    picking a root.  With no sign change, a sample below the noise floor is taken as
    the root if there is one.
    """
    xs = _scan_grid(a, b)
    signs = _scan_signs(eq(xs, *args, sin=np.sin))
    nz = np.flatnonzero(signs)
    steps = np.flatnonzero(np.diff(signs[nz]))
    if len(steps) == 0:
        zeros = np.flatnonzero(signs == 0)
        if len(zeros):
            # scalar values, so the pick does not hang on the array sin's last bits
            best = zeros[np.argmin([abs(eq(xs[i], *args)) for i in zeros])]
            return float(xs[best])
        raise NoRootInBracket(
            f"{what}: no sign change in ({a}, {b}); scan pattern {_scan_pattern(signs)}")
    if len(steps) > 1:
        raise MultipleRootsInBracket(
            f"{what}: {len(steps)} sign changes in ({a}, {b}); "
            f"scan pattern {_scan_pattern(signs)}")
    lo, hi = nz[steps[0]], nz[steps[0] + 1]
    return _bisect(eq, args, float(xs[lo]), float(xs[hi]))


def lame_exponents(omega: float, C: float) -> ExponentTable:
    """First three roots of C^2 sin^2(lam*omega) = lam^2 sin^2(omega).

    The roots are bracketed by (1/2, pi/omega), (pi/omega, 1), (1, 2*pi/omega)
    and satisfy the strict ordering 1/2 < e1 < pi/omega < e2 < 1 < e3 < 2*pi/omega
    for C > 1.  At C = 1 the equation degenerates to the Stokes one, where an
    exponent sits exactly at 1; that case is delegated to the Stokes solver.
    """
    if not (math.pi < omega < 2.0 * math.pi):
        raise ValueError(f"omega must be in (pi, 2*pi), got {omega}")
    if C < 1.0:
        raise ValueError(f"C must be >= 1, got {C}")
    if C == 1.0:
        st = stokes_exponents(omega)
        return ExponentTable(
            family="lame", omega=omega, C=1.0, exponents=st.exponents,
            mode_count=2, residuals=st.residuals)

    roots = tuple(
        _scan_and_bisect(_lame_eq, (omega, C), a, b, f"lame exponent {k}")
        for k, (a, b) in enumerate(((0.5, math.pi / omega), (math.pi / omega, 1.0),
                                    (1.0, 2.0 * math.pi / omega)), 1)
    )
    residuals = tuple(abs(_lame_eq(x, omega, C)) for x in roots)
    table = ExponentTable(
        family="lame", omega=omega, C=C, exponents=roots,
        mode_count=2, residuals=residuals)
    _check_lame_ordering(table)
    return table


def _check_lame_ordering(table: ExponentTable) -> None:
    e1, e2, e3 = table.exponents
    om = table.omega
    ok = 0.5 < e1 < math.pi / om < e2 < 1.0 + 1e-15 and e2 <= 1.0 + 1e-15 \
        and 1.0 - 1e-15 <= e3 < 2.0 * math.pi / om
    if not ok:
        raise NoRootInBracket(f"exponent ordering violated: {table.exponents}")


def stokes_exponents(omega: float) -> ExponentTable:
    """First three roots of sin^2(k*omega) = k^2 sin^2(omega).

    k = 1 solves the equation identically at every opening angle and is
    returned exactly.  Below the critical angle it is the second root and a
    single singular mode is active (M = 1); above it a root appears in
    (pi/omega, 1), pushing the unit root to third place (M = 2).
    """
    if not (math.pi < omega < 2.0 * math.pi):
        raise ValueError(f"omega must be in (pi, 2*pi), got {omega}")

    args = (omega, 1.0)  # C = 1: sin^2(k*omega) - k^2 sin^2(omega)
    om_star = critical_angle()
    k1 = _scan_and_bisect(_lame_eq, args, 0.5, math.pi / omega, "stokes exponent 1")
    if omega <= om_star:
        k3 = _scan_and_bisect(_lame_eq, args, 1.0, 2.0 * math.pi / omega,
                              "stokes exponent 3")
        exponents = (k1, 1.0, k3)
        mode_count = 1
    else:
        k2 = _scan_and_bisect(_lame_eq, args, math.pi / omega, 1.0, "stokes exponent 2")
        exponents = (k1, k2, 1.0)
        mode_count = 2
    residuals = tuple(abs(_lame_eq(x, *args)) for x in exponents)
    return ExponentTable(
        family="stokes", omega=omega, C=1.0, exponents=exponents,
        mode_count=mode_count, residuals=residuals)


@lru_cache(maxsize=64)
def exponent_table(family: str, omega: float, C: float) -> ExponentTable:
    """The exponent table of mode family "lame" or "stokes"; Stokes ignores C.

    Solved once per (family, omega, C) and shared: the table is frozen.
    """
    if family == "lame":
        return lame_exponents(omega, C)
    if family == "stokes":
        return stokes_exponents(omega)
    raise UnknownFamily(f"unknown mode family {family!r}; expected 'lame' or 'stokes'")


def critical_angle() -> float:
    """Root of tan(w) = w in (pi, 3*pi/2), approximately 1.4303*pi."""
    # tan has a pole at 3*pi/2; work with sin - w*cos which is smooth.
    f = lambda w: math.sin(w) - w * math.cos(w)
    return _bisect(f, (), math.pi + 1e-9, 1.5 * math.pi - 1e-9)
