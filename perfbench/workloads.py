"""The three benchmark workloads, their inputs and their output checks.

Each workload has ``setup(seed)``, which builds its inputs, and ``unit(state,
i)``, which runs the i-th unit of work through sif-lab's public API and
returns a ``Result``: the values compared between traced and untraced runs,
the failed output checks, and the accuracy figures reported next to the
metrics.  Check thresholds are the Tier-1 acceptance thresholds or stricter.

The library is reached through module attributes (``harness.run_eps_sweep``)
so that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from sif_lab import extraction, geometry, harness
from sif_lab.spectral import MaterialParams

PSI_RESIDUAL_MAX = 1e-10      # solver gate, as in fem.solve
DOUBLING_TOL = 1e-9           # criterion 11
COARSE_REL_TOL = 0.02         # criterion 07 at its coarsest h
FINE_REL_TOL = 0.005          # criterion 07 at its finest h
GAP_RATIO_MAX = 0.1           # criterion 09
REGULAR_RATIO_MAX = 0.2       # criterion 10

# The paper's recovery study at the ROADMAP baseline sizes (criterion 07 runs
# the same config with h = 0.0125 added).
MANUFACTURED_CFG = """
[domain]
kind = lshape
[mesh]
h_levels = 0.05 0.025
levels = 6
[material]
mu = 1.0
eps = 1e-3
[data]
case = penalized
"""

# Criterion 09/10's sweep, one mesh level finer.
SWEEP_CFG = """
[domain]
kind = lshape
[mesh]
h = 0.05
levels = 6
[material]
mu = 1.0
eps_grid = 1e-1 1e-2 1e-3 1e-4
[data]
f_x = 1
f_y = 0
"""

BATCH_H = 0.1
BATCH_LEVELS = 6
BATCH_EPS = 1e-3
BATCH_POOL = 64


@dataclass
class Result:
    fingerprint: tuple
    failures: list = field(default_factory=list)
    report: dict = field(default_factory=dict)
    extractions: int = 0


def _hex(values) -> tuple:
    return tuple(float(v).hex() for v in values)


@contextmanager
def _captured_reports():
    """Collect the SifReports that the harness computes and discards."""
    reports = []
    originals = {}
    for name in ("extract_sifs_penalized", "extract_sifs_stokes"):
        fn = originals[name] = getattr(harness, name)

        def keep(data, _fn=fn):
            rep = _fn(data)
            reports.append(rep)
            return rep
        setattr(harness, name, keep)
    try:
        yield reports
    finally:
        for name, fn in originals.items():
            setattr(harness, name, fn)


def _check_residuals(reports, failures):
    worst = max((r for rep in reports for r in rep.terms["psi_residuals"]),
                default=math.inf)
    if not worst <= PSI_RESIDUAL_MAX:
        failures.append(f"psi residual {worst:.3e} > {PSI_RESIDUAL_MAX:g}")


def _falling(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


# -- manufactured -------------------------------------------------------------

def manufactured_setup(seed: int) -> dict:
    return {"cfg": harness.load_config(MANUFACTURED_CFG)}


def manufactured_unit(state: dict, i: int) -> Result:
    with _captured_reports() as reports:
        out = harness.run_manufactured(state["cfg"])
    c_true = out["c_true"]
    rel = [(row["err1"] / abs(c_true[0]), row["err2"] / abs(c_true[1]))
           for row in out["rows"]]
    failures = []
    if max(rel[0]) >= COARSE_REL_TOL:
        failures.append(f"h={out['rows'][0]['h']}: relative error {max(rel[0]):.3e}")
    if max(rel[-1]) >= FINE_REL_TOL:
        failures.append(f"h={out['rows'][-1]['h']}: relative error {max(rel[-1]):.3e}")
    for k in (0, 1):
        if not _falling([r[k] for r in rel]):
            failures.append(f"error of c{k + 1} does not fall under refinement")
    if len(reports) != len(out["rows"]):
        failures.append(f"{len(reports)} extractions for {len(out['rows'])} meshes")
    _check_residuals(reports, failures)
    return Result(
        fingerprint=_hex(v for row in out["rows"]
                         for v in (row["c1"], row["c2"], row["err1"], row["err2"])),
        failures=failures,
        report={"c_rel_err": max(rel[-1]),
                "rel_err_by_h": {row["h"]: list(r) for row, r in zip(out["rows"], rel)}},
        extractions=len(reports))


# -- eps-sweep ----------------------------------------------------------------

def sweep_setup(seed: int) -> dict:
    return {"cfg": harness.load_config(SWEEP_CFG)}


def sweep_unit(state: dict, i: int) -> Result:
    with _captured_reports() as reports:
        out = harness.run_eps_sweep(state["cfg"])
    rec = out["records"]
    gap = [max(r.dc1, r.dc2) for r in rec]
    combo = [r.w_diff_h1 + r.sigma_diff_l2 for r in rec]
    ratios = {"dc1": rec[-1].dc1 / rec[0].dc1, "dc2": rec[-1].dc2 / rec[0].dc2,
              "regular": combo[-1] / combo[0]}
    failures = []
    for key in ("dc1", "dc2"):
        if not ratios[key] <= GAP_RATIO_MAX:
            failures.append(f"{key} final/initial {ratios[key]:.3e} > {GAP_RATIO_MAX}")
        if not _falling([getattr(r, key) for r in rec]):
            failures.append(f"{key} does not fall monotonically with eps")
    if not (ratios["regular"] <= REGULAR_RATIO_MAX and _falling(combo)):
        failures.append(f"regular-part gap ratio {ratios['regular']:.3e}, "
                        f"falling={_falling(combo)}")
    if len(reports) != len(rec) + 1:
        failures.append(f"{len(reports)} extractions for {len(rec)} eps values")
    _check_residuals(reports, failures)
    values = [v for r in rec
              for k, v in asdict(r).items() if k != "wall_time"]
    values += [v for v in out["slopes"].values() if v is not None]
    return Result(fingerprint=_hex(values), failures=failures,
                  report={"limit_gap_ratio": gap[-1] / gap[0],
                          "final_initial_ratios": ratios},
                  extractions=len(reports))


# -- batch-data ---------------------------------------------------------------

def _polynomial_data(a):
    """Criterion 11's random family: polynomial f, and g vanishing at the corner."""
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
    return f, g


def _sum(u, v):
    return lambda x, y: np.asarray(u(x, y), float) + np.asarray(v(x, y), float)


def batch_setup(seed: int) -> dict:
    """One shared mesh and a pool of data sets drawn from the seed.

    Set k is used three times: as drawn (D), doubled (2D), and with the
    built-in penalized manufactured solution M added (D + M).  M has known
    coefficients, so c(D + M) - c(D) measures recovery on random data.
    """
    polygon = geometry.lshape_polygon(1.0)
    mesh = geometry.generate_lshape_mesh(polygon, BATCH_H, levels=BATCH_LEVELS)
    material = MaterialParams(1.0, BATCH_EPS)
    f_m, traces_m, c_true, _ = harness.manufactured_fields("penalized", material, polygon)
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(BATCH_POOL):
        a = rng.uniform(-1.0, 1.0, 10)
        variants = []
        for f, g in (_polynomial_data(a), _polynomial_data(2.0 * a)):
            variants.append((f, {e.tag: g for e in polygon.edges}))
        f, g = _polynomial_data(a)
        variants.append((_sum(f, f_m),
                         {e.tag: _sum(g, traces_m[e.tag]) for e in polygon.edges}))
        pool.append([extraction.ProblemData(
            polygon=polygon, mesh=mesh, material=material,
            g=geometry.BoundaryData(traces=traces, zeta=None), f=f)
            for f, traces in variants])
    return {"pool": pool, "c_true": c_true}


def batch_unit(state: dict, i: int) -> Result:
    sets = state["pool"][i % BATCH_POOL]
    one, two, plus = [extraction.extract_sifs_penalized(d) for d in sets]
    failures = []
    doubling = 0.0
    for key in ("c1", "c2", "C1", "C2"):
        a, b = getattr(one, key), getattr(two, key)
        doubling = max(doubling, abs(b - 2.0 * a) / max(abs(b), abs(a), 1e-30))
    if not doubling < DOUBLING_TOL:
        failures.append(f"doubling defect {doubling:.3e} >= {DOUBLING_TOL:g}")
    c_true = state["c_true"]
    rel = max(abs(plus.c1 - one.c1 - c_true[0]) / abs(c_true[0]),
              abs(plus.c2 - one.c2 - c_true[1]) / abs(c_true[1]))
    if not rel < COARSE_REL_TOL:
        failures.append(f"recovered manufactured content off by {rel:.3e}")
    _check_residuals((one, two, plus), failures)
    return Result(
        fingerprint=_hex(getattr(rep, k) for rep in (one, two, plus)
                         for k in ("c1", "c2", "C1", "C2", "Cstar")),
        failures=failures,
        report={"c_rel_err": rel, "doubling_defect": doubling},
        extractions=3)


WORKLOADS = {
    "manufactured": (manufactured_setup, manufactured_unit),
    "eps-sweep": (sweep_setup, sweep_unit),
    "batch-data": (batch_setup, batch_unit),
}

# (calls, distinct inputs) of a layer in one traced unit of work, for the call
# graph at the time the benchmark was defined.  batch-data's are per
# extraction.  A later change may move these on purpose, so a mismatch is
# reported, not counted as a failure.
SEED_COUNTS = {
    "manufactured": {"fem.factor": (4, 2), "spectral.tables": (7, 1)},
    "eps-sweep": {"fem.factor": (15, 5), "spectral.tables": (20, 5)},
    "batch-data": {"fem.factor": (2, 1), "spectral.tables": (3, 1)},
}
