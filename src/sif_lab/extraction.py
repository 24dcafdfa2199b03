"""Coefficient extraction: the functionals that turn data into corner intensities.

The coefficient of each singular mode is computed from volume and boundary
integrals of the data against a dual weight s*Phi~ + Psi, divided by the
angular normalizer.  Phi~ is the analytic dual mode, s the family's dual
scale, and Psi its finite element corrector (solve_psi), whose Dirichlet data
is -s*Phi~ on the far edges and zero on the corner edges.  No cutoff
functions appear: the corrector field plays that role, and every 1/eps
quantity enters through a cancellation-free closed form (the scaled
divergence of the dual mode, or minus the mixed pressure of the corrector).

Each term is one pairing (_ci_terms): the dot product of a sample, a data
set evaluated once (_sample), and a dual weight of the same keys and shapes
(_weight).  C1 and C2 pair the data with the two dual weights; C*
pairs the first primal mode's far-edge trace with the second.

Quadrature policy, fixed by the points a sample is taken at:
  * on each edge, the trace at composite Gauss points, 8 per panel: panels
    graded toward the corner on the two corner edges (ratio 0.5, 30 levels,
    measured from the corner), uniform ones on the far edges;
  * in the volume, f and zeta on one rule (_volume_rule): degree 8 on every
    element, and on corner-incident elements one graded reference rule,
    built once and mapped affinely: degree 8 on a 16-level subdivision
    stack toward the corner;
  * the finite element corrector takes no quadrature of its own: it pairs
    with the data through the discrete system, x_psi . load_vector(f, zeta)
    in the volume and R . g on the boundary nodes, with R the velocity rows
    of K x_psi, Psi's consistent (residual) flux (Babuska & Miller, IJNME 20,
    1984; Carey, Chow & Seager, CMAME 50, 1985), the volume one pointwise:
    the load assembly's transpose is kept, f and zeta are not assembled.

Input: before any solve, _extract names a space of another mesh, and
_check_data g or zeta nonzero at the corner, traces that differ at a vertex,
and Stokes data whose flux of g is not the integral of zeta.

Families: the penalized and the Stokes extraction run the same code.  What
differs between them (the mode family, the normalizer, the scale of the dual
weight, the pressure-like part of a mode and the order of the report's terms)
is one entry of the _FAMILY table.  In both, the divergence source zeta
pairs like the flux g.n: with s times the dual mode's pressure-like part, and
with minus the corrector's pressure.

Reuse: c1 = C1/gamma1 and c2 = (C2 + c1*Cstar)/gamma2 are fixed linear
functionals of the data.  The exponent table, the primal modes, gamma1 and
gamma2, the dual weights and Cstar depend only on the mesh, the polygon, the
material and the family; _dual_weights computes them once, and they are kept
in a single-entry memo that _extract alone reads and writes, with one lookup
per extraction: reused while the mesh and polygon are the same objects, the
material equal and the family the same.  Each data set is sampled once and
paired raw with the kept weights: it evaluates no mode and builds no load
vector, and it still runs the input checks, on the same sample.  The memo
keeps the weights, no corrector field, and two things that serve every
material on its mesh: _SamplePoints, every point, weight and dof list an
extraction reads (read-only and coordinate-major: load_vector's points, the
volume rule's points and the corner in one array, with the rule's weights,
and per edge its rule's points, boundary nodes and ends, with the rule's
weights and the dofs), and the P2Space, whose scalar stiffness and mass
factorizations (fem.P2Space.stiffness_lu, mass_lu) serve another material.
So a warm extraction calls f, zeta and each trace once, maps no point and
builds no rule.  The memo is dropped as soon as an extraction on another
mesh starts, before that mesh's arrays are allocated, and else before a new
entry is computed.  A new entry takes the old one's space when the mesh is
the same object, and its points when the polygon is too.  The entry holds
its mesh and polygon, so no other object can take their place.  Meshes are
treated as immutable (TriMesh is frozen): changing the arrays of a mesh in
place after an extraction is not detected.  The report carries the primal
modes (SifReport.modes), so regular_part(u, report) subtracts c1 and c2
times them without building the modes again.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import SifLabError
from .angular import GammaNearZero, gamma_lame, gamma_stokes, gauss_nodes
from .fem import (InconsistentEdgeData, MeshMismatch, MixedField, P2Space,
                  dirichlet_values, tri_quadrature)
from .geometry import BoundaryData, CornerPolygon, TriMesh, _affine, _images
from .modes import Polar, SingularMode, make_mode, map_theta
from .spectral import MaterialParams, exponent_table

log = logging.getLogger(__name__)

__all__ = [
    "SifReport",
    "ProblemData",
    "CornerDataNonzero",
    "ZetaCornerNonzero",
    "IncompatibleFlux",
    "GammaNearZero",
    "MeshMismatch",
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
_FLUX_RTOL = 1e-10


class CornerDataNonzero(SifLabError):
    """Boundary data does not vanish at the re-entrant corner."""


class ZetaCornerNonzero(SifLabError):
    """The divergence source does not vanish at the re-entrant corner."""


class IncompatibleFlux(SifLabError):
    """Stokes data whose boundary flux differs from the integral of zeta."""


@dataclass(frozen=True)
class _Family:
    """What differs between the penalized and the Stokes extraction.

    modes      : mode family of the exponent table and the modes
    gamma      : (index, material, frame, (primal, dual)) -> normalizer
    dual_scale : mu -> factor s of the dual mode in the dual weight; the
                 corrector's far-edge data is -s times the dual mode
    sigma      : (mode, points) -> pressure-like part paired with g.n and
                 zeta on a modes.Polar: the scaled divergence, or minus the
                 pressure
    terms      : key order of SifReport.terms
    """

    modes: str
    gamma: Callable
    dual_scale: Callable
    sigma: Callable
    terms: tuple


# The lambdas look up gamma_lame/gamma_stokes at call time, so a replaced
# module attribute is what runs.
_FAMILY = {
    "penalized": _Family(
        modes="lame",
        gamma=lambda i, material, frame, modes: gamma_lame(
            i, material, frame, modes=modes),
        dual_scale=lambda mu: 1.0,
        sigma=lambda mode, at: mode.eval_div_scaled(at),
        terms=("C1", "C2", "Cstar", "psi_residuals", "psi_flux_defects",
               "gamma_quad_errors")),
    "stokes": _Family(
        modes="stokes",
        gamma=lambda i, material, frame, modes: gamma_stokes(
            i, frame, modes=modes),
        dual_scale=lambda mu: mu,
        sigma=lambda mode, at: -mode.eval_pressure(at),
        terms=("C1", "psi_residuals", "psi_flux_defects", "gamma_quad_errors",
               "mode_count", "C2", "Cstar")),
}
_BY_MODES = {fam.modes: fam for fam in _FAMILY.values()}


@dataclass(frozen=True)
class SifReport:
    """Extraction result: normalizers, functionals, coefficients, breakdown.

    The stored values satisfy c1 = C1/gamma1 and, when the second mode exists,
    c2 = (C2 + c1*Cstar)/gamma2, exactly as floating point expressions.  modes
    holds the primal modes that c1 (and c2) multiply.
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
    modes: tuple
    terms: dict = field(default_factory=dict)
    mesh_id: str = ""


@dataclass
class ProblemData:
    """One extraction problem: domain, mesh, material and data.

    f     : callable (x, y) -> (..., 2) volume force, or None for zero
    g     : Dirichlet boundary data (per-edge traces)
    zeta  : callable (x, y) -> (...) divergence source, or None (g has none)
    space : P2Space(mesh) to reuse with its factorizations, or None to have
            the extraction take the memo's or build its own; one built on
            other nodes, triangles or boundary edges raises MeshMismatch
    """

    polygon: CornerPolygon
    mesh: TriMesh
    material: MaterialParams
    g: BoundaryData
    f: object = None
    zeta: object = None
    space: P2Space | None = None


def _mesh_id(mesh: TriMesh) -> str:
    """Counts and h, then a digest of the node, triangle and boundary arrays."""
    digest = hashlib.blake2b(digest_size=8)
    for arr, dtype in ((mesh.nodes, np.float64), (mesh.tris, np.int64),
                       (mesh.bedges, np.int64)):
        digest.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return f"{mesh.n_nodes}n-{len(mesh.tris)}t-h{mesh.h:g}-{digest.hexdigest()}"


# ---------------------------------------------------------------------------
# 1D boundary quadrature along polygon edges
# ---------------------------------------------------------------------------

def _composite_rule(breaks):
    """Composite Gauss nodes/weights over consecutive panels, read-only."""
    ts, ws = zip(*(gauss_nodes(PANEL_POINTS, a, b)
                   for a, b in zip(breaks, breaks[1:])))
    t, w = np.concatenate(ts), np.concatenate(ws)
    t.flags.writeable = w.flags.writeable = False
    return t, w


# Parameter rules on [0, 1]: geometric panels toward t = 0, and uniform panels.
_GRADED_EDGE_RULE = _composite_rule(
    [0.0] + [GRADING_RATIO ** k for k in range(GRADING_LEVELS, -1, -1)])
_FAR_EDGE_RULE = _composite_rule(np.linspace(0.0, 1.0, FAR_PANELS + 1))


def _edge_rule(edge):
    """Quadrature points on one polygon edge, and weights summing to 1.

    A corner edge takes the graded rule from its corner end, so the points
    nearest the corner keep full relative precision; the Gauss nodes stay
    strictly inside the innermost panel, so analytic duals remain evaluable.
    """
    if not edge.on_corner_ray:
        t, w = _FAR_EDGE_RULE
        return edge.point_at(t), w
    t, w = _GRADED_EDGE_RULE
    a, b = edge.p0, edge.p1
    if np.hypot(*b) < np.hypot(*a):  # corner at the p1 end
        a, b = b, a
    return a + t[:, None] * (b - a), w


def _edge_dofs(space: P2Space, polygon: CornerPolygon):
    """Each polygon edge with its boundary P2 dofs, in polygon order; a vertex
    shared by two edges belongs to the first of them."""
    seen = np.zeros(space.n_scalar, dtype=bool)
    for edge in polygon.edges:
        dofs = space.boundary_dofs[edge.tag]
        dofs = dofs[~seen[dofs]]
        seen[dofs] = True
        dofs.flags.writeable = False
        yield edge, dofs


# ---------------------------------------------------------------------------
# volume quadrature
# ---------------------------------------------------------------------------

def _graded_reference_rule(depth: int):
    """Degree-8 points (s, t) and weights on the unit triangle, graded toward (0, 0).

    The triangle (a, b, c) is split into the three outer quarters of each of
    depth nested halvings toward a, plus the innermost triangle.  A point maps
    to a + s (b - a) + t (c - a); the weights sum to 1 (multiply by area).
    """
    a, b, c = np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0])
    tris = []
    for _ in range(depth):
        mab, mca, mbc = 0.5 * (a + b), 0.5 * (c + a), 0.5 * (b + c)
        tris += [(mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)]
        b, c = mab, mca
    tris.append((a, b, c))
    origin, J, det = _affine(np.array(tris))
    pts, w = tri_quadrature(8)
    st, wt = _images(origin, J, pts).reshape(-1, 2), (np.abs(det)[:, None] * w).ravel()
    st.flags.writeable = wt.flags.writeable = False
    return st, wt


_GRADED_TRI_RULE = _graded_reference_rule(CORNER_DEPTH)


def _volume_rule(space: P2Space):
    """Points (n, 2) and weights (n,) for integrands smooth away from the corner.

    Degree-8 on every element; elements touching the corner vertex use the
    graded reference rule instead, mapped with the corner as its (0, 0), so
    the r^(a-1) growth of the dual weight is resolved.  The points are stored
    coordinate-major (_coordinate_major).
    """
    mesh = space.mesh
    rnode = np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1])
    corner = np.isin(mesh.tris, np.flatnonzero(rnode < 1e-12)).any(axis=1)

    _, xq, wq = space.rule(8)
    # Corner elements with their vertices ordered by distance to the corner.
    tris = mesh.tris[corner]
    origin, J, _ = _affine(
        mesh.nodes[np.take_along_axis(tris, np.argsort(rnode[tris], axis=1), axis=1)])
    st, wt = _GRADED_TRI_RULE
    x = _coordinate_major([np.compress(~corner, np.moveaxis(xq, -1, 0), axis=1),
                           np.moveaxis(_images(origin, J, st), -1, 0)])
    weights = np.concatenate([wq[~corner].ravel(), (space.areas[corner, None] * wt).ravel()])
    weights.flags.writeable = False
    return x, weights


def _coordinate_major(parts):
    """The points of the coordinate arrays parts (2, ...), in order, as one
    read-only (n, 2) array stored as its (2, n) transpose, so that x = [:, 0]
    and y = [:, 1] are contiguous."""
    x = np.concatenate([np.reshape(p, (2, -1)) for p in parts], axis=1).T
    x.flags.writeable = False
    return x


@dataclass(frozen=True)
class _SamplePoints:
    """Every point, weight and dof list an extraction reads on one (mesh,
    polygon); the points are stored coordinate-major (_coordinate_major).

    volume : the images of the degree-5 rule's points in every element
             (load_vector's points, the first n_load), then the volume rule's
             points (rule), then the corner
    weights: the volume rule's weights
    edges  : per polygon edge in order, (edge, points, w, dofs): its edge
             rule's points, its boundary P2 dofs' coordinates, then its ends
             p0, p1; the edge rule's weights; and those dofs (_edge_dofs)
    """

    volume: np.ndarray
    n_load: int
    weights: np.ndarray
    edges: tuple

    @property
    def rule(self):
        return self.volume[self.n_load:-1]


def _sample_points(space: P2Space, polygon: CornerPolygon) -> _SamplePoints:
    """The _SamplePoints of (space, polygon), with the volume rule of space."""
    edges = []
    for edge, dofs in _edge_dofs(space, polygon):
        pts, we = _edge_rule(edge)
        edges.append((edge, _coordinate_major([pts.T, space.dof_coords[dofs].T,
                                               np.transpose([edge.p0, edge.p1])]), we, dofs))
    x, w = _volume_rule(space)
    _, xq, _ = space.rule(5)
    return _SamplePoints(_coordinate_major([np.moveaxis(xq, -1, 0), x.T, polygon.edges[0].p0]),
                         xq.shape[0] * xq.shape[1], w, tuple(edges))


# ---------------------------------------------------------------------------
# coefficient functionals
# ---------------------------------------------------------------------------

def _sample(points: _SamplePoints, traces: dict, f=None, zeta=None) -> dict:
    """One data set at points, each callable called once, keyed by the term
    it enters: f and zeta at the volume rule's points (volume_*_dual) and at
    load_vector's points (volume_*_psi), both views of the one result, and
    the trace of each edge in traces at its edge rule's points, then at its
    boundary P2 dofs (boundary_edge_<tag>).  A term whose data is absent has
    no key.  Two keys pair with no weight and serve _check_data: ends, each
    trace at its edge's p0 and p1 (k, 2, 2), and zeta_corner, zeta at the
    corner.
    """
    sample: dict = {}
    x, y = points.volume.T
    n = points.n_load
    # f is not called at the corner, where it may be singular.
    if f is not None:
        fv = np.asarray(f(x[:-1], y[:-1]), dtype=float)
        sample["volume_f_dual"], sample["volume_f_psi"] = fv[n:], fv[:n]
    if zeta is not None:
        zv = np.asarray(zeta(x, y), dtype=float)
        sample["volume_zeta_dual"], sample["volume_zeta_psi"] = zv[n:-1], zv[:n]
        sample["zeta_corner"] = float(zv[-1])
    ends = []
    for edge, pts, _, _ in points.edges:
        if edge.tag in traces:
            val = np.broadcast_to(
                np.asarray(traces[edge.tag](pts[:, 0], pts[:, 1]), dtype=float), pts.shape)
            sample[f"boundary_edge_{edge.tag}"] = val[:-2]
            ends.append(val[-2:])
    sample["ends"] = np.array(ends)
    return sample


def _weight_rules(points: _SamplePoints, frame) -> tuple:
    """The point sets a dual weight is evaluated on, each a modes.Polar in
    frame: the volume rule's points, then each edge rule's points, in
    polygon order.  Every dual weight of an extraction shares them."""
    x = points.rule
    return Polar.at(x[:, 0], x[:, 1], frame), tuple(
        Polar.at(pts[:len(w), 0], pts[:len(w), 1], frame) for _, pts, w, _ in points.edges)


def _weight(points: _SamplePoints, dual: SingularMode, psi: MixedField,
            mu: float, rules) -> dict:
    """The dual weight (dual, psi) with the keys and shapes of a _sample at points.

    rules are the _weight_rules of points; the rules' weights and each edge's
    dofs are read from points.  In the volume: s Phi~ w and s sigma(Phi~) w
    on the volume rule, then Psi's velocity and minus its pressure times the
    weights at load_vector's points, whose pairing with f and zeta there is
    x_psi . load_vector(f, zeta); on an edge: s w (mu dn(Phi~) + sigma(Phi~) n),
    w the edge rule's weights times the length, then R at the edge's dofs.
    R, the velocity rows of K x_psi, is Psi's consistent boundary flux: it
    vanishes at the interior dofs, as Psi solves the system with zero volume
    data.
    """
    fam = _BY_MODES[dual.family]
    s = fam.dual_scale(mu)
    volume, edge_rules = rules
    w = points.weights
    weight = {"volume_f_dual": (s * w)[:, None] * dual.eval(volume),
              "volume_zeta_dual": s * w * fam.sigma(dual, volume)}
    # After the dual's evaluations: their temporaries set the heap peak of a
    # cold extraction, and these arrays would add to it.
    pts, wdet = psi.space.weights(5)
    u, p = psi.values(pts)
    u *= wdet[..., None]
    p *= -wdet
    weight.update(volume_f_psi=u.reshape(-1, 2), volume_zeta_psi=p.ravel())
    A, Bx, By, _ = psi.space.stokes_blocks
    R = np.stack([mu * (A @ psi.ux) - Bx.T @ psi.p,
                  mu * (A @ psi.uy) - By.T @ psi.p], axis=-1)
    for (edge, _, we, dofs), at in zip(points.edges, edge_rules):
        flux = mu * (dual.eval_grad(at) @ edge.normal) \
            + fam.sigma(dual, at)[:, None] * edge.normal
        weight[f"boundary_edge_{edge.tag}"] = np.concatenate(
            [(s * edge.length * we)[:, None] * flux, R[dofs]])
    return weight


def _ci_terms(weight: dict, sample: dict) -> tuple[float, dict]:
    """Coefficient functional of a sample against a dual weight, and its terms:
    the dot product of weight and sample per key the weight has, the volume
    ones minus the boundary ones (Green's formula).  It does not check its
    input."""
    parts = {k: float(np.vdot(weight[k], v)) for k, v in sample.items() if k in weight}
    return sum(v if k.startswith("volume") else -v for k, v in parts.items()), parts


def solve_psi(duals: Sequence[SingularMode], space: P2Space, material: MaterialParams,
              polygon: CornerPolygon) -> tuple[MixedField, ...]:
    """Finite element correctors Psi of the dual modes duals, on space for
    material, solved as one batch.

    Zero volume data; Dirichlet data -s Phi~ on the far edges, with s the
    family's dual scale, so the dual weight s Phi~ + Psi vanishes there, and
    exactly zero on the two corner edges.  The boundary dofs of each far edge
    are mapped once, for every dual.
    """
    if any(d.kind != "dual" for d in duals):
        raise ValueError("solve_psi expects dual modes")
    zero = lambda x, y: np.zeros(np.shape(x) + (2,))
    # dirichlet_values calls an edge's trace at its boundary dofs: the points
    # of far[tag].
    far = {e.tag: Polar.at(*space.dof_coords[space.boundary_dofs[e.tag]].T, polygon.frame)
           for e in polygon.far_edges}
    values = []
    for dual in duals:
        s = _BY_MODES[dual.family].dual_scale(material.mu)
        traces = {tag: lambda x, y, at=at, dual=dual, s=s: -s * dual.eval(at)
                  for tag, at in far.items()}
        traces.update((e.tag, zero) for e in polygon.edges if e.on_corner_ray)
        values.append(dirichlet_values(space, traces))
    return tuple(space.solve_all([material], np.zeros((len(duals), space.n_dofs)),
                                 np.array(values))[0])


# ---------------------------------------------------------------------------
# full pipelines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _DualWeights:
    """The data-independent half of an extraction on one (mesh, material).

    The primal modes and normalizers of every mode index, the dual weight of
    each (_weight) with its corrector's residual and flux defect, and the
    cross coupling C* when the second mode exists.  The space and every point
    set an extraction reads (_SamplePoints) are kept; the corrector fields
    are not.
    """

    mesh: TriMesh
    polygon: CornerPolygon
    material: MaterialParams
    family: str
    mesh_id: str
    space: P2Space
    points: _SamplePoints
    primals: tuple
    gammas: tuple
    weights: tuple
    psi_residuals: tuple
    psi_flux_defects: tuple
    Cstar: float | None
    cstar_terms: dict | None


# Single-entry memo of _dual_weights, read and written by _extract alone.  It
# holds the mesh and the polygon strongly, so their ids cannot be reused
# while it lives.
_last_weights: _DualWeights | None = None


def _dual_weights(data: ProblemData, material: MaterialParams, family: str,
                  space: P2Space, points: _SamplePoints) -> _DualWeights:
    """The data-independent half for (data.mesh, data.polygon, material, family).

    points are the _SamplePoints of (space, data.polygon).
    """
    fam = _FAMILY[family]
    frame = data.polygon.frame
    indices = range(1, exponent_table(fam.modes, frame.omega, material.C).mode_count + 1)
    primals = tuple(make_mode(fam.modes, "primal", i, frame, material) for i in indices)
    duals = tuple(make_mode(fam.modes, "dual", i, frame, material) for i in indices)
    gammas = tuple(fam.gamma(i, material, frame, m)
                   for i, m in enumerate(zip(primals, duals), 1))
    psi = solve_psi(duals, space, material, data.polygon)
    rules = _weight_rules(points, frame)
    weights = tuple(_weight(points, dual, p, material.mu, rules)
                    for dual, p in zip(duals, psi))
    Cstar = tstar = None
    if len(duals) >= 2:
        far = {e.tag: primals[0].eval_xy for e in data.polygon.far_edges}
        C, cross = _ci_terms(weights[1], _sample(points, far))
        Cstar = -C  # C* is the boundary pairing, which _ci_terms subtracts
        tstar = {k.replace("boundary", "cross"): v for k, v in cross.items()}
    return _DualWeights(
        mesh=data.mesh, polygon=data.polygon, material=material, family=family,
        mesh_id=_mesh_id(data.mesh), space=space, points=points, primals=primals,
        gammas=gammas, weights=weights, psi_residuals=tuple(p.residual for p in psi),
        psi_flux_defects=tuple(p.flux_defect for p in psi), Cstar=Cstar,
        cstar_terms=tstar)


def _check_data(data: ProblemData, material: MaterialParams, sample: dict,
                points: _SamplePoints) -> None:
    """Every check of the data of an extraction, run before any corrector solve.

    sample is data's _sample at points; its ends and zeta_corner hold the
    traces at the vertices and zeta at the corner, and the flux of g and the
    integral of zeta take the rules' weights in points.  Vertex traces agree
    by the test of dirichlet_values.  Stokes data (eps = 0) need
    |flux of g - integral of zeta| <= _FLUX_RTOL (|g.n| + |zeta|).
    """
    edges = data.polygon.edges
    ends = sample["ends"]  # each trace at p0 and p1 of its edge
    for edge, gval in ((edges[0], ends[0, 0]), (edges[-1], ends[-1, 1])):
        if np.max(np.abs(gval)) > _CORNER_ATOL:
            raise CornerDataNonzero(
                f"boundary trace on edge {edge.tag} is {gval} at the corner; "
                "extraction requires it to vanish there")
    if data.zeta is not None:
        z = sample["zeta_corner"]
        if abs(z) > _CORNER_ATOL:
            raise ZetaCornerNonzero(
                f"divergence source is {z} at the corner; it must vanish there")
    agree = np.isclose(ends[:-1, 1], ends[1:, 0], atol=1e-10).all(axis=1)
    if not agree.all():
        k = int(np.argmin(agree))
        a, b, va, vb = edges[k], edges[k + 1], ends[k, 1], ends[k + 1, 0]
        raise InconsistentEdgeData(
            f"traces of edges {a.tag} and {b.tag} differ at the vertex "
            f"({a.p1[0]:g}, {a.p1[1]:g}): {va} vs {vb}")
    if material.eps > 0.0:
        return
    flux = size = zint = 0.0
    for edge, _, w, _ in points.edges:
        gn = sample[f"boundary_edge_{edge.tag}"][:len(w)] @ edge.normal
        flux += edge.length * float(np.dot(w, gn))
        size += edge.length * float(np.dot(w, np.abs(gn)))
    if data.zeta is not None:
        zeta = sample["volume_zeta_dual"]
        zint = float(zeta @ points.weights)
        size += float(np.abs(zeta) @ points.weights)
    if abs(flux - zint) > _FLUX_RTOL * size:
        raise IncompatibleFlux(f"the flux of g is {flux:.6g} but zeta integrates to "
                               f"{zint:.6g}; the Stokes problem needs them equal")


def _extract(data: ProblemData, material: MaterialParams, family: str) -> SifReport:
    """The data sampled once and checked, the memo's dual weights or new ones,
    then the functionals.  The one place that reads and writes the memo."""
    global _last_weights
    w = _last_weights
    if w is not None and w.mesh is not data.mesh:
        # Nothing in it serves this mesh: free it before this mesh's arrays
        # are allocated, so the two never coexist.
        _last_weights = w = None
    if data.space is None:
        space = P2Space(data.mesh) if w is None else w.space
    elif data.mesh.same_as(data.space.mesh):
        space = data.space
    else:
        raise MeshMismatch("space was built on a different mesh")
    # The points depend on the mesh and the polygon alone.
    same = w is not None and w.polygon is data.polygon
    points = w.points if same else _sample_points(space, data.polygon)
    # Every edge needs a trace: a missing one is a KeyError, not zero data.
    traces = {e.tag: data.g.trace(e.tag) for e in data.polygon.edges}
    sample = _sample(points, traces, data.f, data.zeta)
    _check_data(data, material, sample, points)
    if not (same and (w.material, w.family) == (material, family)):
        _last_weights = w = None    # before the new entry, so two never coexist
        _last_weights = w = _dual_weights(data, material, family, space, points)
    C1, t1 = _ci_terms(w.weights[0], sample)
    c1 = C1 / w.gammas[0].gamma
    gamma2 = C2 = c2 = None
    second: dict = {}
    if len(w.weights) >= 2:
        gamma2 = w.gammas[1].gamma
        C2, t2 = _ci_terms(w.weights[1], sample)
        c2 = (C2 + c1 * w.Cstar) / gamma2
        second = {"C2": t2, "Cstar": dict(w.cstar_terms)}
    parts = {"C1": t1, **second,
             "psi_residuals": list(w.psi_residuals),
             "psi_flux_defects": list(w.psi_flux_defects),
             "gamma_quad_errors": [g.quad_error for g in w.gammas],
             "mode_count": len(w.weights)}
    terms = {k: parts[k] for k in _FAMILY[family].terms if k in parts}
    log.info("%s extraction: c1=%.6g c2=%s (eps=%g)", family, c1, c2, material.eps)
    return SifReport(
        family=family, eps=material.eps if material.eps > 0.0 else None,
        gamma1=w.gammas[0].gamma, gamma2=gamma2, C1=C1, C2=C2, Cstar=w.Cstar,
        c1=c1, c2=c2, modes=w.primals, terms=terms, mesh_id=w.mesh_id)


def extract_sifs_penalized(data: ProblemData) -> SifReport:
    """Exponents -> modes -> normalizers -> correctors -> functionals -> c1, c2."""
    if data.material.eps <= 0.0:
        raise ValueError("penalized extraction requires eps > 0")
    return _extract(data, data.material, "penalized")


def extract_sifs_stokes(data: ProblemData) -> SifReport:
    """Stokes pipeline; computes only the first coefficient below the critical angle."""
    return _extract(data, MaterialParams(data.material.mu, 0.0), "stokes")


# ---------------------------------------------------------------------------
# regular part
# ---------------------------------------------------------------------------

def regular_part(u: MixedField, report: SifReport) -> MixedField:
    """Subtract the singular content that report found from a solved field.

    The coefficients c1 (and c2) of the report multiply its primal modes.
    Returns the regular part w: a velocity field whose pressure slot w.p
    holds sigma, the regular pressure-like scalar, as a P1 nodal array.  For
    the penalized family sigma adds the closed-form scaled divergence of each
    primal mode (the eps cancels analytically); for Stokes it subtracts the
    singular pressures.  At the corner node itself the
    modes' pressure-like parts are unbounded, so the evaluation radius is
    floored at half the closest node distance.
    """
    if report.mesh_id != _mesh_id(u.mesh):
        raise MeshMismatch(
            f"field mesh {_mesh_id(u.mesh)} does not match report {report.mesh_id}")
    pairs = list(zip((report.c1, report.c2), report.modes))

    space = u.space
    frame = report.modes[0].frame
    coords = space.dof_coords
    r = np.hypot(coords[:, 0], coords[:, 1])
    interior = r > 1e-12
    at = Polar.at(coords[interior, 0], coords[interior, 1], frame)
    ux = u.ux.copy()
    uy = u.uy.copy()
    for c, mode in pairs:
        vals = np.zeros((len(coords), 2))
        vals[interior] = mode.eval(at)
        # r^a -> 0 at the corner for a > 0, so the corner node stays zero.
        ux -= c * vals[:, 0]
        uy -= c * vals[:, 1]

    nodes = u.mesh.nodes
    rn = np.hypot(nodes[:, 0], nodes[:, 1])
    pos = rn[rn > 1e-12]
    r_floor = 0.5 * float(pos.min()) if len(pos) else 1.0
    at = Polar(np.maximum(rn, r_floor), map_theta(np.arctan2(nodes[:, 1], nodes[:, 0]), frame))
    sigma = u.p.copy()
    for c, mode in pairs:
        sigma += c * _BY_MODES[mode.family].sigma(mode, at)
    return MixedField(space=space, material=u.material, ux=ux, uy=uy, p=sigma)
