"""Experiment driver: manufactured recovery studies, penalty sweeps, reporting.

Configs are INI files with sections [domain], [mesh], [material], [data]
and no others; data fields are analytic expressions in x, y, r, theta.
load_config only reads the file; each command checks the keys it reads, and
build_problem reads everything solve, extract and sweep need before it
meshes.  Reports are plain dicts (JSON) or row tables (CSV) with a versioned
schema.
"""

from __future__ import annotations

import configparser
import csv
import io
import json
import logging
import math
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import SifLabError, expr
from .extraction import (ProblemData, extract_sifs_penalized,
                         extract_sifs_stokes, regular_part)
from .fem import P2Space, diff_norms, dirichlet_values, load_vector
from .geometry import BoundaryData, CornerPolygon, generate_lshape_mesh, lshape_polygon
from .modes import Polar, make_mode
from .spectral import MaterialParams, exponent_table

log = logging.getLogger(__name__)

__all__ = [
    "ConfigError",
    "RunConfig",
    "SweepRecord",
    "SCHEMA",
    "load_config",
    "build_problem",
    "config_number",
    "manufactured_fields",
    "run_manufactured",
    "run_eps_sweep",
    "emit",
]

SCHEMA = "sif-lab/1"

class ConfigError(SifLabError):
    """Missing/invalid section, key, or expression in a run config."""


# The keys some run reads, by section.  Each command reads a subset of
# [mesh] and [material] and checks it; [data] keys depend on the command.
_KEYS = {"domain": ["kind", "size"], "mesh": ["h", "h_levels", "levels"],
         "material": ["mu", "eps", "eps_grid"]}


@dataclass(frozen=True)
class SweepRecord:
    """One penalty value of an eps-sweep against the fixed Stokes reference."""

    eps: float
    lambda1: float
    lambda2: float
    gamma1: float
    gamma2: float
    c1: float
    c2: float
    c1_ref: float
    c2_ref: float
    dc1: float
    dc2: float
    w_diff_h1: float
    sigma_diff_l2: float
    wall_time: float


@dataclass
class RunConfig:
    """The sections of a run config, as text; each command checks the keys
    it reads."""

    domain: dict
    mesh: dict
    material: dict
    data: dict


def config_number(cfg: RunConfig, section: str, key: str, default: str | None = None,
                  kind=float, many: bool = False):
    """[section] key (or default) as one kind, or floats if many; else a ConfigError."""
    text = getattr(cfg, section).get(key, default)
    if text is None:
        raise ConfigError(f"[{section}] {key} is required")
    try:
        values = [kind(tok) for tok in text.replace(",", " ").split()]
        if values and (many or len(values) == 1):
            return values if many else values[0]
    except ValueError:
        pass
    raise ConfigError(f"[{section}] {key} = {text!r}: expected "
                      + ("numbers" if many else f"one {kind.__name__}"))


def _falling(values) -> bool:
    """Whether values are finite, positive and strictly decreasing."""
    return all(0.0 < b < a for a, b in zip([math.inf, *values], values))


def load_config(source: str) -> RunConfig:
    """Read an INI config from a path, or from literal text if it has a newline.

    Checks the sections and that [material] defines mu; the keys and values
    are checked by the command that reads them.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                   comment_prefixes=("#",))
    try:
        if "\n" in source:
            cp.read_string(source)
        elif not cp.read(source):
            raise ConfigError(f"config file not found: {source}")
    except configparser.Error as exc:
        raise ConfigError(" ".join(str(exc).split())) from exc
    for section in cp.sections():
        if section not in _KEYS and section != "data":
            raise ConfigError(f"[{section}]: unknown section; expected one of "
                              + ", ".join([*_KEYS, "data"]))
    for section in ("domain", "mesh", "material", "data"):
        if section not in cp:
            raise ConfigError(f"missing [{section}] section")

    cfg = RunConfig(*({k: v.strip().strip('"') for k, v in cp[name].items()}
                      for name in ("domain", "mesh", "material", "data")))
    if "mu" not in cfg.material:
        raise ConfigError("[material] must define mu")
    return cfg


def _domain(cfg: RunConfig):
    """The [domain] polygon, and its mesher h -> TriMesh with the [mesh] levels
    of corner refinement."""
    _check_keys(cfg, "domain", _KEYS["domain"])
    kind = cfg.domain.get("kind", "lshape")
    if kind != "lshape":
        raise ConfigError(f"unsupported domain kind {kind!r}")
    size = config_number(cfg, "domain", "size", "1.0")
    if not 0.0 < size < math.inf:
        raise ConfigError(f"[domain] size = {cfg.domain['size']!r}: expected a finite "
                          "positive float")
    polygon = lshape_polygon(size)
    levels = config_number(cfg, "mesh", "levels", "6", kind=int)
    return polygon, lambda h: generate_lshape_mesh(polygon, h, levels=levels)


def build_problem(cfg: RunConfig, material_keys: list):
    """(polygon, mesh, mu, f, g, zeta): the [domain] polygon, its mesh at the
    one [mesh] h, the [material] mu and the [data] fields.

    f is None without f_x and f_y, and zeta None without zeta; g is a
    BoundaryData whose per-edge keys g<j>_x/g<j>_y override the global
    g_x/g_y, and whose edges with neither get zero data.  A [mesh] key other
    than h and levels, a [material] key not in `material_keys`, any other
    [data] key, a bad number or an expression that does not parse is a
    ConfigError, found before meshing.
    """
    _check_keys(cfg, "mesh", ["h", "levels"])
    polygon, mesher = _domain(cfg)
    _check_keys(cfg, "material", material_keys)
    mu = config_number(cfg, "material", "mu")
    h = config_number(cfg, "mesh", "h", "0.1")
    _check_keys(cfg, "data", ["f_x", "f_y", "g_x", "g_y", "zeta"]
                + [f"g{e.tag}_{c}" for e in polygon.edges for c in "xy"])
    parsed = {}
    for key, text in cfg.data.items():
        try:
            parsed[key] = expr.parse(text)
        except SifLabError as exc:
            raise ConfigError(f"[data] {key} = {text!r}: {exc}") from exc

    zero = expr.parse("0")

    def data(*keys):
        return _field(polygon.frame, *(parsed.get(k, zero) for k in keys))

    def given(*keys):
        return any(k in parsed for k in keys)

    f = data("f_x", "f_y") if given("f_x", "f_y") else None
    traces = {}
    for edge in polygon.edges:
        keys = (f"g{edge.tag}_x", f"g{edge.tag}_y")
        traces[edge.tag] = data(*(keys if given(*keys) else ("g_x", "g_y")))
    zeta = data("zeta") if given("zeta") else None
    return polygon, mesher(h), mu, f, BoundaryData(traces=traces), zeta


def _field(frame, *exprs):
    """(x, y) -> the expressions' values, each broadcast to the shape of x;
    two or more are stacked as the components of a vector."""
    def func(x, y):
        shape = np.shape(np.asarray(x, dtype=float))
        values = [np.broadcast_to(np.asarray(expr.evaluate(ex, x, y, frame), dtype=float),
                                  shape) for ex in exprs]
        return values[0] if len(values) == 1 else np.stack(values, axis=-1)
    return func


def _check_keys(cfg: RunConfig, section: str, allowed: list) -> None:
    """Reject a [section] key that the run would not read: a typo, or a key
    that only another command reads."""
    for key in getattr(cfg, section):
        if key not in allowed:
            known = key in _KEYS.get(section, ())
            why = "not read by this command" if known else "unknown key"
            raise ConfigError(f"[{section}] {key}: {why}; expected one of "
                              + ", ".join(allowed))


# ---------------------------------------------------------------------------
# manufactured cases
# ---------------------------------------------------------------------------

def manufactured_fields(case: str, material: MaterialParams, polygon: CornerPolygon):
    """Built-in manufactured problems with known coefficients.

    All cases share the divergence-free polynomial w = (2x^2y, -2xy^2), which
    vanishes at the corner together with its trace on both corner edges.

      penalized : u = w + 0.7 Phi1 - 0.3 Phi2,  f = -mu lap(w)
      stokes    : u = w + 1.0 Phi1 + 0.4 Phi2,  p adds x^3 - y^3, zeta = 0
      smooth    : u = w (no singular content),  c_true = (0, 0)

    The singular part keeps the modes that the corner has: below the
    critical angle the Stokes case is u = w + 1.0 Phi1, c_true = (1.0,).
    Returns (f, traces, c_true, family).
    """
    frame = polygon.frame
    mu = material.mu

    def w_poly(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.stack([2.0 * x * x * y, -2.0 * x * y * y], axis=-1)

    singular = {"penalized": ("lame", (0.7, -0.3)), "stokes": ("stokes", (1.0, 0.4))}
    if case in singular:
        mode_family, c_true = singular[case]
        c_true = c_true[:exponent_table(mode_family, frame.omega, material.C).mode_count]
        phis = [make_mode(mode_family, "primal", i, frame, material)
                for i in range(1, len(c_true) + 1)]
    elif case == "smooth":
        c_true = (0.0, 0.0)
        phis = []
    else:
        raise ConfigError(f"unknown manufactured case {case!r}")

    def f(x, y):
        """-mu lap(w), plus grad(x^3 - y^3) in the Stokes case."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        fx, fy = -4.0 * mu * y, 4.0 * mu * x
        if case == "stokes":
            fx, fy = fx + 3.0 * x * x, fy - 3.0 * y * y
        return np.stack([fx, fy], axis=-1)

    def u_exact(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = w_poly(x, y)
        if phis:
            mask = np.hypot(x, y) > 1e-14
            at = Polar.at(x[mask], y[mask], frame)
            sing = sum(c * phi.eval(at) for c, phi in zip(c_true, phis))
            out[mask] += sing
        return out

    traces = {edge.tag: u_exact for edge in polygon.edges}
    family = "stokes" if case == "stokes" else "penalized"
    return f, traces, c_true, family


def run_manufactured(cfg: RunConfig) -> dict:
    """Solve-free extraction of built-in manufactured data across mesh levels."""
    _check_keys(cfg, "data", ["case"])
    _check_keys(cfg, "material", ["mu", "eps"])
    # h_levels or h, not both.
    h_key = "h_levels" if "h_levels" in cfg.mesh else "h"
    _check_keys(cfg, "mesh", [h_key, "levels"])
    case = cfg.data.get("case", "penalized")
    mu = config_number(cfg, "material", "mu")
    eps = config_number(cfg, "material", "eps", "1e-3")
    if case != "stokes" and eps <= 0.0:
        raise ConfigError("penalized manufactured case needs eps > 0")
    material = MaterialParams(mu, 0.0 if case == "stokes" else eps)

    polygon, mesher = _domain(cfg)
    hs = config_number(cfg, "mesh", h_key, "0.1", many=True)
    if not _falling(hs):
        raise ConfigError(f"[mesh] {h_key} = {cfg.mesh[h_key]!r}: expected finite "
                          "positive numbers, strictly decreasing")

    f, traces, c_true, family = manufactured_fields(case, material, polygon)
    g = BoundaryData(traces=traces)

    rows = []
    for h in hs:
        t0 = time.perf_counter()
        data = ProblemData(polygon=polygon, mesh=mesher(h), material=material, g=g, f=f)
        rep = (extract_sifs_stokes(data) if family == "stokes"
               else extract_sifs_penalized(data))
        err1 = abs(rep.c1 - c_true[0])
        err2 = abs(rep.c2 - c_true[1]) if rep.c2 is not None else None
        rows.append({"h": h, "c1": rep.c1, "c2": rep.c2,
                     "err1": err1, "err2": err2,
                     "wall_time": time.perf_counter() - t0})
        log.info("manufactured %s h=%g: c=(%.6g, %s) err=(%.3e, %s)",
                 case, h, rep.c1, rep.c2, err1, err2)
    rates = []
    for prev, cur in zip(rows, rows[1:]):
        denom = math.log(prev["h"] / cur["h"])
        r1 = math.log(prev["err1"] / cur["err1"]) / denom if cur["err1"] > 0 else None
        r2 = None
        if cur["err2"] and prev["err2"]:
            r2 = math.log(prev["err2"] / cur["err2"]) / denom
        rates.append({"h": cur["h"], "rate1": r1, "rate2": r2})
    return {"schema": SCHEMA, "kind": "manufactured", "case": case,
            "family": family, "mu": mu,
            "eps": material.eps if family == "penalized" else None,
            "c_true": list(c_true), "rows": rows, "rates": rates}


# ---------------------------------------------------------------------------
# eps sweep
# ---------------------------------------------------------------------------

def run_eps_sweep(cfg: RunConfig) -> dict:
    """Penalized-to-Stokes comparison over a decreasing eps grid, fixed mesh.

    The Stokes reference (coefficients, regular part) is computed once with
    the same mesh and quadrature settings; per-eps rows report coefficient
    and regular-part differences plus their fitted log-log slopes.  At desk
    meshes the discretization floor limits how far the differences can fall;
    the grid should stop around eps = 1e-5.

    Every material shares one P2Space and its factorizations.  The Stokes
    extraction runs first, so its input check comes before any factorization;
    then one solve_all gives the data's field at eps = 0 and at every eps of
    the grid, as the shifts of one multi-shift PCG (Jegerlehner,
    hep-lat/9612014, 1996; Frommer, Computing 70, 2003).  A row's wall_time
    covers its extraction, regular part and norms, not the shared data solve.
    """
    eps_grid = config_number(cfg, "material", "eps_grid", many=True)
    if len(eps_grid) < 4:
        raise ConfigError("eps_grid needs at least 4 points")
    if not _falling(eps_grid):
        raise ConfigError(f"[material] eps_grid = {cfg.material['eps_grid']!r}: expected "
                          "finite positive numbers, strictly decreasing")

    polygon, mesh, mu, f, g, zeta = build_problem(cfg, ["mu", "eps_grid"])
    space = P2Space(mesh)
    materials = [MaterialParams(mu, eps) for eps in (0.0, *eps_grid)]

    def problem(material):
        return ProblemData(polygon=polygon, mesh=mesh, material=material,
                           g=g, f=f, zeta=zeta, space=space)

    sref = extract_sifs_stokes(problem(materials[0]))
    solved = space.solve_all(materials, load_vector(space, f, zeta)[None],
                             dirichlet_values(space, g.traces)[None])
    ws = regular_part(solved[0][0], sref)
    records = []
    for material, (u,) in zip(materials[1:], solved[1:]):
        t0 = time.perf_counter()
        rep = extract_sifs_penalized(problem(material))
        dn = diff_norms(regular_part(u, rep), ws)
        records.append(SweepRecord(
            eps=material.eps,
            lambda1=rep.modes[0].a, lambda2=rep.modes[1].a,
            gamma1=rep.gamma1, gamma2=rep.gamma2,
            c1=rep.c1, c2=rep.c2,
            c1_ref=sref.c1, c2_ref=sref.c2 if sref.c2 is not None else math.nan,
            dc1=abs(rep.c1 - sref.c1 / mu),
            dc2=abs(rep.c2 - sref.c2 / mu) if sref.c2 is not None else math.nan,
            w_diff_h1=dn["h1"], sigma_diff_l2=dn["l2_pressure"],
            wall_time=time.perf_counter() - t0))
        log.info("sweep eps=%g: dc=(%.3e, %.3e) |w|=%.3e |sigma|=%.3e",
                 material.eps, records[-1].dc1, records[-1].dc2,
                 records[-1].w_diff_h1, records[-1].sigma_diff_l2)

    def fit_slope(vals):
        """The log-log slope of vals against eps, or None unless every value is
        positive (zero data, or no second mode: NaN)."""
        if not all(v > 0.0 for v in vals):
            return None
        return float(np.polyfit(np.log([r.eps for r in records]), np.log(vals), 1)[0])

    slopes = {
        "dc1": fit_slope([r.dc1 for r in records]),
        "dc2": fit_slope([r.dc2 for r in records]),
        "w_diff_h1": fit_slope([r.w_diff_h1 for r in records]),
        "sigma_diff_l2": fit_slope([r.sigma_diff_l2 for r in records]),
    }
    return {"schema": SCHEMA, "kind": "eps_sweep", "mu": mu,
            "mesh_id": sref.mesh_id,
            "records": records, "slopes": slopes}


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, SweepRecord):
        return asdict(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def emit(report, format: str = "json", path: str | None = None) -> str:
    """Serialize a report and write it to path (or stdout); returns the text.

    CSV is available for row tables: a nonempty list of row dicts, whose first
    row's keys are the header, or a report carrying "records" or "rows".
    Everything serializes to JSON.
    """
    if format == "json":
        text = json.dumps(_jsonable(report), indent=2) + "\n"
    elif format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        rows = report.get("records") if isinstance(report, dict) else report
        if rows is None and isinstance(report, dict):
            rows = report.get("rows")
        if not rows:
            raise ValueError("CSV output needs a row table of at least one row")
        rows = [asdict(r) if isinstance(r, SweepRecord) else r for r in rows]
        cols = list(rows[0])
        writer.writerow(cols)
        writer.writerows([r[c] for c in cols] for r in rows)
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown format {format!r}")
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
