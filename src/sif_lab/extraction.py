"""Coefficient extraction: the functionals that turn data into corner intensities.

The coefficient of each singular mode is computed from volume and boundary
integrals of the data against a dual weight (analytic dual mode + finite
element corrector), divided by the angular normalizer.  No cutoff functions
appear: the corrector field plays that role, and every 1/eps quantity enters
through a cancellation-free closed form (the scaled divergence of the dual
mode, or minus the mixed pressure of the corrector).

Quadrature policy:
  * boundary integrals against analytic duals on the two corner edges use
    composite Gauss panels geometrically graded toward the corner
    (ratio 0.5, 30 levels, 8 points per panel);
  * volume integrals of data against analytic duals use a degree-8 rule,
    with corner-incident elements subdivided geometrically toward the corner;
  * everything paired with the finite element corrector uses standard rules
    on the solve mesh.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .angular import GammaNearZero, gamma_lame, gamma_stokes, gauss_nodes
from .fem import (MeshMismatch, MixedField, MixedOperator, P2Space, p1_shape,
                  p2_shape, solve_psi, tri_quadrature)
from .geometry import BoundaryData, CornerPolygon, TriMesh, validate_boundary_data
from .modes import SingularMode, make_mode, map_theta
from .spectral import MaterialParams, lame_exponents, stokes_exponents

log = logging.getLogger(__name__)

__all__ = [
    "SifReport",
    "ProblemData",
    "CornerDataNonzero",
    "ZetaCornerNonzero",
    "GammaNearZero",
    "MeshMismatch",
    "compute_Ci_penalized",
    "compute_Cstar_penalized",
    "compute_Ci_stokes",
    "compute_Cstar_stokes",
    "extract_sifs_penalized",
    "extract_sifs_stokes",
    "regular_part",
]

# Graded boundary quadrature toward the corner.
GRADING_RATIO = 0.5
GRADING_LEVELS = 30
PANEL_POINTS = 8
# Far (smooth) analytic boundary integrals: uniform composite Gauss.
FAR_PANELS = 16
# Geometric subdivision depth for corner-incident volume elements.
CORNER_DEPTH = 16

_CORNER_ATOL = 1e-8


class CornerDataNonzero(Exception):
    """Boundary data does not vanish at the re-entrant corner."""


class ZetaCornerNonzero(Exception):
    """The divergence source does not vanish at the re-entrant corner."""


@dataclass(frozen=True)
class SifReport:
    """Extraction result: normalizers, functionals, coefficients, breakdown.

    The stored values satisfy c1 = C1/gamma1 and, when the second mode exists,
    c2 = (C2 + c1*Cstar)/gamma2, exactly as floating point expressions.
    """

    family: str
    eps: float | None
    gamma1: float
    gamma2: float | None
    C1: float
    C2: float | None
    Cstar: float | None
    c1: float
    c2: float | None
    terms: dict = field(default_factory=dict)
    mesh_id: str = ""


@dataclass
class ProblemData:
    """One extraction problem: domain, mesh, material and data.

    f        : callable (x, y) -> (..., 2) volume force, or None for zero
    g        : Dirichlet boundary data (per-edge traces)
    zeta     : callable (x, y) -> (...) divergence source (Stokes only), or None
    operator : factored MixedOperator of (mesh, material) to reuse, or None
               to have the extraction build its own
    """

    polygon: CornerPolygon
    mesh: TriMesh
    material: MaterialParams
    g: BoundaryData
    f: object = None
    zeta: object = None
    operator: MixedOperator | None = None


def _mesh_id(mesh: TriMesh) -> str:
    return f"{mesh.n_nodes}n-{len(mesh.tris)}t-h{mesh.h:g}"


def _corner_point(polygon: CornerPolygon) -> np.ndarray:
    return np.asarray(polygon.edges[0].p0, dtype=float)


def _operator(data: ProblemData, material: MaterialParams) -> MixedOperator:
    """data.operator after checking it against the problem, or a new one."""
    op = data.operator
    if op is None:
        return MixedOperator(P2Space(data.mesh), material)
    if op.space.mesh is not data.mesh and not np.array_equal(
            op.space.mesh.nodes, data.mesh.nodes):
        raise MeshMismatch("operator was built on a different mesh")
    if op.material != material:
        raise ValueError(f"operator material {op.material} does not match "
                         f"the problem's {material}")
    return op


def _check_corner_data(data: ProblemData) -> None:
    corner = _corner_point(data.polygon)
    tags = (data.polygon.edges[0].tag, data.polygon.edges[-1].tag)
    for tag in tags:
        gval = np.asarray(data.g.traces[tag](corner[0], corner[1]), dtype=float)
        if np.max(np.abs(gval)) > _CORNER_ATOL:
            raise CornerDataNonzero(
                f"boundary trace on edge {tag} is {gval} at the corner; "
                "extraction requires it to vanish there")


def _check_corner_zeta(data: ProblemData) -> None:
    if data.zeta is None:
        return
    corner = _corner_point(data.polygon)
    z = float(np.asarray(data.zeta(corner[0], corner[1])))
    if abs(z) > _CORNER_ATOL:
        raise ZetaCornerNonzero(
            f"divergence source is {z} at the corner; it must vanish there")


# ---------------------------------------------------------------------------
# 1D boundary quadrature along polygon edges
# ---------------------------------------------------------------------------

def _edge_param_rule(edge, graded: bool):
    """Parameter nodes/weights on [0, 1] for one polygon edge.

    Graded rules stack geometric panels toward whichever endpoint is the
    corner; the innermost panel touches t = 0 but its Gauss nodes stay
    strictly inside, so analytic duals remain evaluable.
    """
    if graded:
        r0 = np.hypot(*edge.p0)
        r1 = np.hypot(*edge.p1)
        breaks = [0.0] + [GRADING_RATIO ** k
                          for k in range(GRADING_LEVELS, -1, -1)]
        ts, ws = [], []
        for a, b in zip(breaks, breaks[1:]):
            x, w = gauss_nodes(PANEL_POINTS, a, b)
            ts.append(x)
            ws.append(w)
        t = np.concatenate(ts)
        w = np.concatenate(ws)
        if r1 < r0:  # corner at the t = 1 end
            t = 1.0 - t
        return t, w
    breaks = np.linspace(0.0, 1.0, FAR_PANELS + 1)
    ts, ws = [], []
    for a, b in zip(breaks, breaks[1:]):
        x, w = gauss_nodes(PANEL_POINTS, a, b)
        ts.append(x)
        ws.append(w)
    return np.concatenate(ts), np.concatenate(ws)


def _polar(pts, frame):
    r = np.hypot(pts[..., 0], pts[..., 1])
    theta = map_theta(np.arctan2(pts[..., 1], pts[..., 0]), frame)
    return r, theta


def _boundary_analytic(edge, g, dual: SingularMode, mu: float) -> float:
    """Integral of the analytic-dual boundary integrand over one polygon edge.

    Penalized:  mu g . dn(Phi~)  + (g.n) (div Phi~)/eps    (closed form)
    Stokes:     mu g . dn(mu Phi~) - (g.n) (mu phi~)
    """
    t, w = _edge_param_rule(edge, graded=edge.on_corner_ray)
    pts = edge.point_at(t)
    gv = np.asarray(g(pts[..., 0], pts[..., 1]), dtype=float)
    n = edge.normal
    r, theta = _polar(pts, dual.frame)
    G = dual.eval_grad(r, theta)
    dn = np.einsum("...kl,l->...k", G, n)
    gdotn = gv @ n
    if dual.family == "lame":
        vals = mu * np.einsum("...k,...k->...", gv, dn) \
            + gdotn * dual.eval_div_scaled(r, theta)
    else:
        vals = mu * mu * np.einsum("...k,...k->...", gv, dn) \
            - gdotn * mu * dual.eval_pressure(r, theta)
    return float(edge.length * np.dot(w, vals))


def _boundary_psi(space: P2Space, psi: MixedField, polygon: CornerPolygon,
                  traces: dict, mu: float, tags=None) -> dict:
    """Per-tag integral of mu g . dn(Psi) - (g.n) psi over mesh boundary edges.

    The same expression serves both families: the penalized term
    (g.n) (div Psi)/eps equals -(g.n) psi through the mixed second equation.
    """
    mesh = space.mesh
    tq, wq = gauss_nodes(4, 0.0, 1.0)
    out: dict[int, float] = {}
    normals = {e.tag: e.normal for e in polygon.edges}
    for k, (i, j, tag) in enumerate(mesh.bedges):
        tag = int(tag)
        if tags is not None and tag not in tags:
            continue
        if tag not in traces:
            continue
        p0, p1 = mesh.nodes[int(i)], mesh.nodes[int(j)]
        seg = p1 - p0
        length = float(np.hypot(*seg))
        phys = p0[None, :] + tq[:, None] * seg[None, :]
        m = int(space.bedge_tri[k])
        ref = space.to_reference(m, phys)
        n = normals[tag]
        dpsi = np.einsum("qkl,l->qk", psi.grad_at(m, ref), n)
        psiv = psi.pressure_at(m, ref)
        gv = np.asarray(traces[tag](phys[:, 0], phys[:, 1]), dtype=float)
        vals = mu * np.einsum("qk,qk->q", gv, dpsi) - (gv @ n) * psiv
        out[tag] = out.get(tag, 0.0) + float(length * np.dot(wq, vals))
    return out


# ---------------------------------------------------------------------------
# volume quadrature
# ---------------------------------------------------------------------------

def _tri_deg8(p0, p1, p2, func) -> float:
    pts, w = tri_quadrature(8)
    e1, e2 = p1 - p0, p2 - p0
    area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
    x = p0[0] + pts[:, 0] * e1[0] + pts[:, 1] * e2[0]
    y = p0[1] + pts[:, 0] * e1[1] + pts[:, 1] * e2[1]
    return float(area * np.dot(w, np.asarray(func(x, y), dtype=float)))


def _graded_tri(corner, b, c, func, depth: int) -> float:
    """Integrate func over triangle (corner, b, c), grading toward corner."""
    total = 0.0
    a = corner
    for _ in range(depth):
        mab = 0.5 * (a + b)
        mca = 0.5 * (c + a)
        mbc = 0.5 * (b + c)
        total += _tri_deg8(mab, b, mbc, func)
        total += _tri_deg8(mca, mbc, c, func)
        total += _tri_deg8(mab, mbc, mca, func)
        b, c = mab, mca
    return total + _tri_deg8(a, b, c, func)


def _volume_analytic(space: P2Space, func) -> float:
    """Integral of a scalar integrand that is smooth away from the corner.

    Degree-8 on every element; elements touching the corner vertex are
    replaced by a geometric subdivision stack so the r^(a-1) growth of the
    dual weight is resolved.
    """
    mesh = space.mesh
    rnode = np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1])
    corner_nodes = set(np.where(rnode < 1e-12)[0])
    corner_mask = np.array([bool(corner_nodes & set(t)) for t in mesh.tris])

    pts, w = tri_quadrature(8)
    p = mesh.nodes[mesh.tris]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    x = p[:, None, 0, 0] + pts[None, :, 0] * e1[:, None, 0] + pts[None, :, 1] * e2[:, None, 0]
    y = p[:, None, 0, 1] + pts[None, :, 0] * e1[:, None, 1] + pts[None, :, 1] * e2[:, None, 1]
    keep = ~corner_mask
    vals = np.asarray(func(x[keep], y[keep]), dtype=float)
    total = float(np.einsum("m,mq,q->", space.areas[keep], vals, w))

    for m in np.where(corner_mask)[0]:
        tri = p[m]
        order = np.argsort([np.hypot(*v) for v in tri])
        a, b, c = tri[order[0]], tri[order[1]], tri[order[2]]
        total += _graded_tri(a, b, c, func, CORNER_DEPTH)
    return total


def _volume_fem(space: P2Space, f, zeta, psi: MixedField) -> tuple[float, float]:
    """(integral of f . Psi, integral of zeta * psi) by degree-5 quadrature."""
    mesh = space.mesh
    pts, w = tri_quadrature(5)
    p = mesh.nodes[mesh.tris]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    x = p[:, None, 0, 0] + pts[None, :, 0] * e1[:, None, 0] + pts[None, :, 1] * e2[:, None, 0]
    y = p[:, None, 0, 1] + pts[None, :, 0] * e1[:, None, 1] + pts[None, :, 1] * e2[:, None, 1]
    wa = space.areas[:, None] * w[None, :]
    f_term = 0.0
    if f is not None:
        N = p2_shape(pts)
        vd = space.tri_dofs
        vx = psi.ux[vd] @ N.T
        vy = psi.uy[vd] @ N.T
        fv = np.asarray(f(x, y), dtype=float)
        f_term = float(np.sum(wa * (fv[..., 0] * vx + fv[..., 1] * vy)))
    z_term = 0.0
    if zeta is not None:
        L = p1_shape(pts)
        pv = psi.p[mesh.tris] @ L.T
        zv = np.asarray(zeta(x, y), dtype=float)
        z_term = float(np.sum(wa * zv * pv))
    return f_term, z_term


# ---------------------------------------------------------------------------
# coefficient functionals
# ---------------------------------------------------------------------------

def _ci_terms(data: ProblemData, dual: SingularMode, psi: MixedField,
              space: P2Space) -> tuple[float, dict]:
    """Shared implementation of the coefficient functional for either family."""
    mu = data.material.mu
    family = dual.family
    parts: dict = {}

    vol = 0.0
    if data.f is not None:
        if family == "lame":
            def f_dot_dual(x, y):
                fv = np.asarray(data.f(x, y), dtype=float)
                dv = dual.eval_xy(x, y)
                return np.einsum("...k,...k->...", fv, dv)
        else:
            def f_dot_dual(x, y):
                fv = np.asarray(data.f(x, y), dtype=float)
                dv = mu * dual.eval_xy(x, y)
                return np.einsum("...k,...k->...", fv, dv)
        parts["volume_f_dual"] = _volume_analytic(space, f_dot_dual)
        vol += parts["volume_f_dual"]
    f_psi, z_psi = _volume_fem(space, data.f, data.zeta if family == "stokes" else None, psi)
    if data.f is not None:
        parts["volume_f_psi"] = f_psi
        vol += f_psi
    if family == "stokes" and data.zeta is not None:
        def zeta_dual_p(x, y):
            zv = np.asarray(data.zeta(x, y), dtype=float)
            r, theta = _polar(np.stack([x, y], axis=-1), dual.frame)
            return zv * mu * dual.eval_pressure(r, theta)

        parts["volume_zeta_dual"] = -_volume_analytic(space, zeta_dual_p)
        parts["volume_zeta_psi"] = -z_psi
        vol += parts["volume_zeta_dual"] + parts["volume_zeta_psi"]

    psi_parts = _boundary_psi(space, psi, data.polygon, data.g.traces, mu)
    bnd_total = 0.0
    for edge in data.polygon.edges:
        g = data.g.traces[edge.tag]
        val = _boundary_analytic(edge, g, dual, mu) + psi_parts.get(edge.tag, 0.0)
        parts[f"boundary_edge_{edge.tag}"] = val
        bnd_total += val
    return vol - bnd_total, parts


def compute_Ci_penalized(data: ProblemData, i: int, dual: SingularMode,
                         psi: MixedField) -> float:
    """Coefficient functional of penalized mode i against its dual weight."""
    if dual.family != "lame" or dual.kind != "dual" or dual.index != i:
        raise ValueError(f"expected the penalized dual mode of index {i}")
    if psi.mesh is not data.mesh and not np.array_equal(psi.mesh.nodes, data.mesh.nodes):
        raise MeshMismatch("corrector field was solved on a different mesh")
    _check_corner_data(data)
    value, _ = _ci_terms(data, dual, psi, psi.space)
    return value


def compute_Ci_stokes(data: ProblemData, i: int, dual: SingularMode,
                      psi: MixedField) -> float:
    """Coefficient functional of Stokes mode i (velocity + pressure pairing)."""
    if dual.family != "stokes" or dual.kind != "dual" or dual.index != i:
        raise ValueError(f"expected the Stokes dual mode of index {i}")
    if psi.mesh is not data.mesh and not np.array_equal(psi.mesh.nodes, data.mesh.nodes):
        raise MeshMismatch("corrector field was solved on a different mesh")
    _check_corner_data(data)
    _check_corner_zeta(data)
    value, _ = _ci_terms(data, dual, psi, psi.space)
    return value


def _cstar_terms(primal1: SingularMode, dual2: SingularMode, psi2: MixedField,
                 polygon: CornerPolygon, mu: float) -> tuple[float, dict]:
    """Cross coupling of the first primal mode with the second dual weight.

    Only the far edges contribute; the primal trace plays the role of the
    boundary data in the same integrand as the coefficient functional.
    """
    far_tags = {e.tag for e in polygon.far_edges}

    def primal_trace(x, y):
        return primal1.eval_xy(x, y)

    traces = {tag: primal_trace for tag in far_tags}
    psi_parts = _boundary_psi(psi2.space, psi2, polygon, traces, mu, tags=far_tags)
    parts: dict = {}
    total = 0.0
    for edge in polygon.far_edges:
        val = _boundary_analytic(edge, primal_trace, dual2, mu) \
            + psi_parts.get(edge.tag, 0.0)
        parts[f"cross_edge_{edge.tag}"] = val
        total += val
    return total, parts


def compute_Cstar_penalized(primal1: SingularMode, dual2: SingularMode,
                            psi2: MixedField, polygon: CornerPolygon) -> float:
    if primal1.family != "lame" or primal1.kind != "primal" or primal1.index != 1:
        raise ValueError("expected the first penalized primal mode")
    if dual2.family != "lame" or dual2.kind != "dual" or dual2.index != 2:
        raise ValueError("expected the second penalized dual mode")
    value, _ = _cstar_terms(primal1, dual2, psi2, polygon, primal1.mu)
    return value


def compute_Cstar_stokes(primal1: SingularMode, dual2: SingularMode,
                         psi2: MixedField, polygon: CornerPolygon) -> float:
    if primal1.family != "stokes" or primal1.kind != "primal" or primal1.index != 1:
        raise ValueError("expected the first Stokes primal mode")
    if dual2.family != "stokes" or dual2.kind != "dual" or dual2.index != 2:
        raise ValueError("expected the second Stokes dual mode")
    value, _ = _cstar_terms(primal1, dual2, psi2, polygon, primal1.mu)
    return value


# ---------------------------------------------------------------------------
# full pipelines
# ---------------------------------------------------------------------------

def extract_sifs_penalized(data: ProblemData) -> SifReport:
    """Exponents -> modes -> normalizers -> correctors -> functionals -> c1, c2."""
    material = data.material
    if material.eps <= 0.0:
        raise ValueError("penalized extraction requires eps > 0")
    _check_corner_data(data)
    frame = data.polygon.frame
    table = lame_exponents(frame.omega, material.C)
    primals = [make_mode("lame", "primal", i, frame, material, table) for i in (1, 2)]
    duals = [make_mode("lame", "dual", i, frame, material, table) for i in (1, 2)]
    g1 = gamma_lame(1, material, frame, modes=(primals[0], duals[0]))
    g2 = gamma_lame(2, material, frame, modes=(primals[1], duals[1]))

    op = _operator(data, material)
    space = op.space
    psi = [solve_psi(d, data.mesh, material, data.polygon, operator=op)
           for d in duals]
    C1, t1 = _ci_terms(data, duals[0], psi[0], space)
    C2, t2 = _ci_terms(data, duals[1], psi[1], space)
    Cstar, tstar = _cstar_terms(primals[0], duals[1], psi[1], data.polygon, material.mu)
    c1 = C1 / g1.gamma
    c2 = (C2 + c1 * Cstar) / g2.gamma
    log.info("penalized extraction: c1=%.6g c2=%.6g (eps=%g)", c1, c2, material.eps)
    return SifReport(
        family="penalized", eps=material.eps,
        gamma1=g1.gamma, gamma2=g2.gamma, C1=C1, C2=C2, Cstar=Cstar,
        c1=c1, c2=c2,
        terms={"C1": t1, "C2": t2, "Cstar": tstar,
               "psi_residuals": [p.residual for p in psi],
               "psi_flux_defects": [p.flux_defect for p in psi],
               "gamma_quad_errors": [g1.quad_error, g2.quad_error]},
        mesh_id=_mesh_id(data.mesh))


def extract_sifs_stokes(data: ProblemData) -> SifReport:
    """Stokes pipeline; computes only the first coefficient below the critical angle."""
    material = data.material
    if material.eps != 0.0:
        material = MaterialParams(material.mu, 0.0)
    _check_corner_data(data)
    _check_corner_zeta(data)
    frame = data.polygon.frame
    table = stokes_exponents(frame.omega)
    M = table.mode_count

    primal1 = make_mode("stokes", "primal", 1, frame, material, table)
    dual1 = make_mode("stokes", "dual", 1, frame, material, table)
    g1 = gamma_stokes(1, frame, modes=(primal1, dual1), table=table)
    op = _operator(data, material)
    space = op.space
    psi1 = solve_psi(dual1, data.mesh, material, data.polygon, operator=op)
    C1, t1 = _ci_terms(data, dual1, psi1, space)
    c1 = C1 / g1.gamma
    terms = {"C1": t1, "psi_residuals": [psi1.residual],
             "psi_flux_defects": [psi1.flux_defect],
             "gamma_quad_errors": [g1.quad_error], "mode_count": M}

    if M < 2:
        log.info("stokes extraction: c1=%.6g (single mode, omega=%g)", c1, frame.omega)
        return SifReport(family="stokes", eps=None, gamma1=g1.gamma,
                         gamma2=None, C1=C1, C2=None, Cstar=None,
                         c1=c1, c2=None, terms=terms, mesh_id=_mesh_id(data.mesh))

    primal2 = make_mode("stokes", "primal", 2, frame, material, table)
    dual2 = make_mode("stokes", "dual", 2, frame, material, table)
    g2 = gamma_stokes(2, frame, modes=(primal2, dual2), table=table)
    psi2 = solve_psi(dual2, data.mesh, material, data.polygon, operator=op)
    C2, t2 = _ci_terms(data, dual2, psi2, space)
    Cstar, tstar = _cstar_terms(primal1, dual2, psi2, data.polygon, material.mu)
    c2 = (C2 + c1 * Cstar) / g2.gamma
    terms.update({"C2": t2, "Cstar": tstar,
                  "psi_residuals": [psi1.residual, psi2.residual],
                  "psi_flux_defects": [psi1.flux_defect, psi2.flux_defect],
                  "gamma_quad_errors": [g1.quad_error, g2.quad_error]})
    log.info("stokes extraction: c1=%.6g c2=%.6g", c1, c2)
    return SifReport(family="stokes", eps=None, gamma1=g1.gamma,
                     gamma2=g2.gamma, C1=C1, C2=C2, Cstar=Cstar,
                     c1=c1, c2=c2, terms=terms, mesh_id=_mesh_id(data.mesh))


# ---------------------------------------------------------------------------
# regular part
# ---------------------------------------------------------------------------

def regular_part(u: MixedField, report: SifReport, modes) -> tuple[MixedField, np.ndarray]:
    """Subtract the known singular content from a solved field.

    Returns (w, sigma): w is a velocity field whose pressure slot holds sigma,
    the regular pressure-like scalar, and sigma is also returned directly as
    the P1 nodal array.  For the penalized family sigma adds the closed-form
    scaled divergence of each primal mode (the eps cancels analytically); for
    Stokes it subtracts the singular pressures.  At the corner node itself the
    modes' pressure-like parts are unbounded, so the evaluation radius is
    floored at half the closest node distance.
    """
    if report.mesh_id != _mesh_id(u.mesh):
        raise MeshMismatch(
            f"field mesh {_mesh_id(u.mesh)} does not match report {report.mesh_id}")
    coeffs = [report.c1] + ([report.c2] if report.c2 is not None else [])
    modes = list(modes)
    if len(modes) != len(coeffs):
        raise ValueError(f"expected {len(coeffs)} primal modes, got {len(modes)}")

    space = u.space
    coords = space.dof_coords
    r = np.hypot(coords[:, 0], coords[:, 1])
    interior = r > 1e-12
    ux = u.ux.copy()
    uy = u.uy.copy()
    for c, mode in zip(coeffs, modes):
        if mode.kind != "primal":
            raise ValueError("regular_part expects primal modes")
        vals = np.zeros((len(coords), 2))
        vals[interior] = mode.eval_xy(coords[interior, 0], coords[interior, 1])
        # r^a -> 0 at the corner for a > 0, so the corner node stays zero.
        ux -= c * vals[:, 0]
        uy -= c * vals[:, 1]

    nodes = u.mesh.nodes
    rn = np.hypot(nodes[:, 0], nodes[:, 1])
    pos = rn[rn > 1e-12]
    r_floor = 0.5 * float(pos.min()) if len(pos) else 1.0
    rc = np.maximum(rn, r_floor)
    theta = map_theta(np.arctan2(nodes[:, 1], nodes[:, 0]), modes[0].frame)
    sigma = u.p.copy()
    for c, mode in zip(coeffs, modes):
        if mode.family == "lame":
            sigma += c * mode.eval_div_scaled(rc, theta)
        else:
            sigma -= c * mode.eval_pressure(rc, theta)
    w = MixedField(space=space, material=u.material, ux=ux, uy=uy, p=sigma)
    return w, sigma
