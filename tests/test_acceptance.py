"""End-to-end acceptance suite.

Each test prints one verdict line of the form

    [criterion NN] <name>: PASS|FAIL (<elapsed> s)

so a full run doubles as the acceptance report.  Criteria 9 and 10 share a
single penalty sweep (module-scoped fixture).
"""

import math
import time

import numpy as np
import pytest

from sif_lab.angular import check_ij_identity, gamma_limit_study
from sif_lab.extraction import (ProblemData, extract_sifs_penalized,
                                extract_sifs_stokes)
from sif_lab.geometry import BoundaryData, generate_lshape_mesh, lshape_polygon
from sif_lab.harness import load_config, run_eps_sweep, run_manufactured
from sif_lab.modes import CornerFrame, make_mode
from sif_lab.spectral import (MaterialParams, critical_angle, lame_exponents,
                              stokes_exponents)

from test_fem import solve_square

POLY = lshape_polygon(1.0)
FRAME = POLY.frame
OMEGA = FRAME.omega


def verdict(num: int, name: str, ok: bool, t: float, detail: str = ""):
    tail = f" -- {detail}" if detail else ""
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({t:.2f} s){tail}"
    print()
    print(line)
    assert ok, line


# -- 1: critical angle anchor --------------------------------------------------

def test_criterion_01_critical_angle():
    critical_angle()  # warm
    t0 = time.perf_counter()
    w = critical_angle()
    t = time.perf_counter() - t0
    ratio = w / math.pi
    resid = abs(math.tan(w) - w)
    ok = 1.4302 <= ratio <= 1.4304 and resid < 1e-9 and t < 1e-3
    verdict(1, "critical angle anchor", ok, t,
            f"omega*/pi={ratio:.6f} residual={resid:.2e}")


# -- 2: exponent ordering ------------------------------------------------------

def test_criterion_02_exponent_ordering():
    t0 = time.perf_counter()
    ok = True
    notes = []
    om_star = critical_angle()
    for w in (1.1, 1.25, 1.5, 1.75, 1.9):
        om = w * math.pi
        for C in (1.0, 1.02, 1.2):
            tab = lame_exponents(om, C)
            e1, e2, e3 = tab.exponents
            if C > 1.0:
                chain = 0.5 < e1 < math.pi / om < e2 < 1.0 < e3 < 2 * math.pi / om
            else:
                # C=1 degenerates to the Stokes equation: one exponent sits
                # exactly at 1, so the strict chain holds with one equality
                chain = (0.5 < e1 < math.pi / om <= e2 <= 1.0 <= e3
                         < 2 * math.pi / om)
            if not chain or max(tab.residuals) >= 1e-12:
                ok = False
                notes.append(f"lame omega={w}pi C={C}")
        st = stokes_exponents(om)
        inside = sum(1 for e in st.exponents if 0.5 < e < 1.0)
        want = 1 if om <= om_star else 2
        if st.mode_count != want or inside != want or max(st.residuals) >= 1e-12:
            ok = False
            notes.append(f"stokes omega={w}pi")
    t = time.perf_counter() - t0
    ok = ok and t < 0.1
    verdict(2, "exponent ordering on the angle/material grid", ok, t,
            "; ".join(notes) or "15 lame tables + 5 stokes tables")


# -- 3: angular identity + uniform boundedness ---------------------------------

def test_criterion_03_angular_identity_suite():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    eps_grid = [10.0 ** -k for k in range(1, 7)]
    for mu in (0.1, 1.0):
        for i in (1, 2):
            for eps in eps_grid:
                rep = check_ij_identity(i, MaterialParams(mu, eps), FRAME)
                rel = rep["max_deviation"] / rep["scale"]
                worst = max(worst, rel)
                if rel >= 1e-12:
                    ok = False
    # uniform boundedness: sup |kappa| nearly constant across the eps grid
    variation = 0.0
    for i in (1, 2):
        sups = [check_ij_identity(i, MaterialParams(0.1, eps), FRAME)["sup_kappa"]
                for eps in eps_grid]
        variation = max(variation, (max(sups) - min(sups)) / max(sups))
    if variation >= 0.05:
        ok = False
    t = time.perf_counter() - t0
    ok = ok and t < 1.0
    verdict(3, "angular identity and bounded closed form", ok, t,
            f"max deviation/scale={worst:.2e} sup-variation={variation:.2%}")


# -- 4: normalizer limit rate ----------------------------------------------------

def test_criterion_04_gamma_limit():
    t0 = time.perf_counter()
    ok = True
    slopes = []
    eps_grid = [1e-1, 1e-2, 1e-3, 1e-4]
    for i in (1, 2):
        rows = gamma_limit_study(i, 1.0, eps_grid, FRAME)
        diffs = [r["diff"] for r in rows]
        if not all(b < a for a, b in zip(diffs, diffs[1:])):
            ok = False
        slope = float(np.polyfit(np.log(eps_grid), np.log(diffs), 1)[0])
        slopes.append(slope)
        if not (0.8 <= slope <= 1.2):
            ok = False
    t = time.perf_counter() - t0
    ok = ok and t < 1.0
    verdict(4, "normalizer converges linearly in the penalty", ok, t,
            "slopes " + ", ".join(f"{s:.3f}" for s in slopes))


# -- 5: closed-form modes solve their PDEs ---------------------------------------

def _sample_points(n=25, seed=5):
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.4, 0.9, n)
    theta = rng.uniform(FRAME.omega1 + 0.15, FRAME.omega2 - 0.15, n)
    return r * np.cos(theta), r * np.sin(theta), r, theta


def _fd_laplacian(f, x, y, h):
    def lap(s):
        return (f(x + s, y) + f(x - s, y) + f(x, y + s) + f(x, y - s)
                - 4.0 * f(x, y)) / (s * s)
    return (4.0 * lap(h / 2) - lap(h)) / 3.0


def _fd_gradient(f, x, y, h):
    def g(s):
        return np.stack([(f(x + s, y) - f(x - s, y)) / (2 * s),
                         (f(x, y + s) - f(x, y - s)) / (2 * s)], axis=-1)
    return (4.0 * g(h / 2) - g(h)) / 3.0


def test_criterion_05_mode_pde_residuals():
    t0 = time.perf_counter()
    x, y, r, theta = _sample_points()
    h = 3e-3
    mu = 1.0
    ok = True
    worst = 0.0
    for eps in (1e-2, 1e-3):
        mat = MaterialParams(mu, eps)
        for i in (1, 2):
            mode = make_mode("lame", "primal", i, FRAME, mat)
            lap = _fd_laplacian(mode.eval_xy, x, y, h)
            gd = _fd_gradient(
                lambda a, b: mode.eval_div_scaled(np.hypot(a, b),
                                                  np.arctan2(b, a)), x, y, h)
            res = -mu * lap - gd
            scale = np.maximum(np.abs(mu * lap), np.abs(gd)).max(axis=-1)
            rel = float(np.max(np.abs(res).max(axis=-1) / scale))
            worst = max(worst, rel)
            ok = ok and rel < 1e-8
    smat = MaterialParams(mu, 0.0)
    div_worst = 0.0
    for i in (1, 2):
        mode = make_mode("stokes", "primal", i, FRAME, smat)
        lap = _fd_laplacian(mode.eval_xy, x, y, h)
        gp = _fd_gradient(
            lambda a, b: mu * mode.eval_pressure(np.hypot(a, b),
                                                 np.arctan2(b, a)), x, y, h)
        res = -mu * lap + gp
        scale = np.maximum(np.abs(mu * lap), np.abs(gp)).max(axis=-1)
        rel = float(np.max(np.abs(res).max(axis=-1) / scale))
        worst = max(worst, rel)
        ok = ok and rel < 1e-8
        G = mode.eval_grad(r, theta)
        div = float(np.max(np.abs(G[..., 0, 0] + G[..., 1, 1])) / np.max(np.abs(G)))
        div_worst = max(div_worst, div)
        ok = ok and div < 1e-10
    t = time.perf_counter() - t0
    ok = ok and t < 1.0
    verdict(5, "singular modes satisfy their PDEs pointwise", ok, t,
            f"max FD residual={worst:.2e} max div trace={div_worst:.2e}")


# -- 6: FEM rates and no locking -------------------------------------------------

def test_criterion_06_fem_rates_and_locking():
    t0 = time.perf_counter()
    errs = [solve_square(n, 1.0, 1e-2)[1] for n in (5, 10, 20)]
    hs = [0.2, 0.1, 0.05]
    rate_u = float(np.polyfit(np.log(hs), np.log([e["h1"] for e in errs]), 1)[0])
    rate_p = float(np.polyfit(np.log(hs),
                              np.log([e["l2_pressure"] for e in errs]), 1)[0])
    _, e2 = solve_square(12, 1.0, 1e-2)
    _, e6 = solve_square(12, 1.0, 1e-6)
    locking = e6["h1"] / e2["h1"]
    t = time.perf_counter() - t0
    ok = rate_u >= 1.8 and rate_p >= 1.8 and locking < 2.0 and t < 120.0
    verdict(6, "mixed element rates and penalty robustness", ok, t,
            f"rate_u={rate_u:.2f} rate_p={rate_p:.2f} locking={locking:.2f}x")


# -- 7/8: manufactured coefficient recovery ---------------------------------------

MANU_BASE = """
[domain]
kind = lshape
[mesh]
h_levels = {levels}
levels = 6
[material]
mu = 1.0
eps = 1e-3
[data]
case = {case}
"""


def test_criterion_07_penalized_recovery():
    t0 = time.perf_counter()
    cfg = load_config(MANU_BASE.format(levels="0.05 0.025 0.0125",
                                       case="penalized"))
    out = run_manufactured(cfg)
    c_true = out["c_true"]
    rel = [[row["err1"] / abs(c_true[0]), row["err2"] / abs(c_true[1])]
           for row in out["rows"]]
    ok = (rel[0][0] < 0.02 and rel[0][1] < 0.02
          and rel[-1][0] < 0.005 and rel[-1][1] < 0.005)
    for k in (0, 1):
        col = [r[k] for r in rel]
        ok = ok and all(b < a for a, b in zip(col, col[1:]))
    t = time.perf_counter() - t0
    ok = ok and t < 300.0
    verdict(7, "penalized coefficient recovery under refinement", ok, t,
            "relative errors " + "; ".join(
                f"h={row['h']}: ({a:.2e}, {b:.2e})"
                for row, (a, b) in zip(out["rows"], rel)))


def test_criterion_08_stokes_recovery():
    t0 = time.perf_counter()
    cfg = load_config(MANU_BASE.format(levels="0.05", case="stokes"))
    out = run_manufactured(cfg)
    c_true = out["c_true"]
    row = out["rows"][0]
    rel1 = row["err1"] / abs(c_true[0])
    rel2 = row["err2"] / abs(c_true[1])
    t = time.perf_counter() - t0
    ok = rel1 < 0.02 and rel2 < 0.02 and t < 180.0
    verdict(8, "incompressible coefficient recovery", ok, t,
            f"relative errors ({rel1:.2e}, {rel2:.2e}) at h=0.05")


# -- 9/10: penalty-to-incompressible limit at desk scale ---------------------------

SWEEP_CFG = """
[domain]
kind = lshape
[mesh]
h = 0.1
levels = 6
[material]
mu = 1.0
eps_grid = 1e-1 1e-2 1e-3 1e-4
[data]
f_x = 1
f_y = 0
"""


@pytest.fixture(scope="module")
def sweep_report():
    t0 = time.perf_counter()
    out = run_eps_sweep(load_config(SWEEP_CFG))
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_09_coefficient_limit(sweep_report):
    rec = sweep_report["records"]
    r1 = rec[-1].dc1 / rec[0].dc1
    r2 = rec[-1].dc2 / rec[0].dc2
    ok = r1 <= 0.1 and r2 <= 0.1
    ok = ok and all(b.dc1 < a.dc1 for a, b in zip(rec, rec[1:]))
    t = sweep_report["elapsed"]
    ok = ok and t < 600.0
    verdict(9, "coefficients approach the incompressible limit", ok, t,
            f"final/initial gap ratios ({r1:.2e}, {r2:.2e})")


def test_criterion_10_regular_part_limit(sweep_report):
    rec = sweep_report["records"]
    combo = [r.w_diff_h1 + r.sigma_diff_l2 for r in rec]
    ratio = combo[-1] / combo[0]
    ok = ratio <= 0.2 and all(b < a for a, b in zip(combo, combo[1:]))
    verdict(10, "regular parts approach the incompressible limit", ok,
            sweep_report["elapsed"],
            f"final/initial difference ratio {ratio:.2e} "
            "(same run as criterion 9; fixed-mesh floor applies below the "
            "last grid point)")


# -- 11: linearity of the extraction ----------------------------------------------

def _random_data(mesh, rng, scale=1.0):
    a = scale * rng.uniform(-1.0, 1.0, 10)

    def f(x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        return np.stack([a[0] + a[1] * x + a[2] * y * y,
                         a[3] + a[4] * y + a[5] * x * x], axis=-1)

    def g(x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        return np.stack([a[6] * x + a[7] * x * y,
                         a[8] * y + a[9] * (x * x - y * y)], axis=-1)

    traces = {e.tag: g for e in POLY.edges}
    return ProblemData(polygon=POLY, mesh=mesh,
                       material=MaterialParams(1.0, 1e-3),
                       g=BoundaryData(traces=traces, zeta=None), f=f)


def test_criterion_11_extraction_linearity():
    t0 = time.perf_counter()
    mesh = generate_lshape_mesh(POLY, 0.1, levels=5)
    ok = True
    worst = 0.0
    for seed in (101, 202, 303):
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        rep1 = extract_sifs_penalized(_random_data(mesh, rng))
        rng.bit_generator.state = state
        rep2 = extract_sifs_penalized(_random_data(mesh, rng, scale=2.0))
        for one, two in ((rep1.c1, rep2.c1), (rep1.c2, rep2.c2),
                         (rep1.C1, rep2.C1), (rep1.C2, rep2.C2)):
            rel = abs(two - 2.0 * one) / max(abs(two), abs(one), 1e-30)
            worst = max(worst, rel)
            ok = ok and rel < 1e-9
    t = time.perf_counter() - t0
    ok = ok and t < 120.0
    verdict(11, "extraction is linear in the data", ok, t,
            f"3 random data sets, max doubling defect {worst:.2e}")
