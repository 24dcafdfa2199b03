"""Polygonal domains with one re-entrant corner, meshes and boundary data.

The corner sits at the origin; the two edges meeting there lie on the rays
theta = omega1 and theta = omega2 with opening omega2 - omega1 in (pi, 2*pi).
Meshing is provided for the built-in axis-aligned L-shape family (structured
base grid plus geometric refinement toward the corner).

Meshing, boundary tagging, refinement and mesh validation are array code on
one edge table (_edge_table): the sides of every triangle as (min, max) node
pairs, numbered in order of first occurrence.  Refinement numbers its new
midpoint nodes in that order too, after the existing nodes, and emits each
triangle's children in the parent's order; fem.P2Space numbers its edge dofs
from the same table.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from . import SifLabError
from .modes import CornerFrame, map_theta

__all__ = [
    "NotReentrant",
    "MultipleReentrant",
    "DegenerateEdge",
    "UnsupportedPolygon",
    "NonConforming",
    "NegativeArea",
    "UntaggedBoundaryEdge",
    "MissingEdgeData",
    "Edge",
    "CornerPolygon",
    "TriMesh",
    "BoundaryData",
    "build_polygon",
    "lshape_vertices",
    "lshape_polygon",
    "generate_lshape_mesh",
    "generate_square_mesh",
]

_TOL = 1e-12


class NotReentrant(SifLabError):
    """The designated corner has interior angle <= pi."""


class MultipleReentrant(SifLabError):
    """More than one vertex is re-entrant."""


class DegenerateEdge(SifLabError):
    """Two consecutive vertices coincide."""


class UnsupportedPolygon(SifLabError):
    """The built-in mesh generator only handles the axis-aligned L-shape family."""


class NonConforming(SifLabError):
    """An interior edge is shared by more than two triangles."""


class NegativeArea(SifLabError):
    """A triangle has non-positive signed area."""


class UntaggedBoundaryEdge(SifLabError):
    """A mesh boundary edge carries no polygon-edge tag."""


@dataclass(frozen=True)
class Edge:
    """Polygon edge from p0 to p1, tagged 1..J in boundary order."""

    tag: int
    p0: np.ndarray
    p1: np.ndarray
    normal: np.ndarray
    on_corner_ray: bool

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.p1 - self.p0))

    def point_at(self, ts):
        ts = np.asarray(ts, dtype=float)
        return self.p0 + ts[..., None] * (self.p1 - self.p0)


@dataclass(frozen=True)
class CornerPolygon:
    """Counterclockwise polygon with its single re-entrant vertex at the origin."""

    vertices: np.ndarray          # (J, 2), vertices[0] = corner = origin
    edges: tuple[Edge, ...]       # edges[j-1] joins S_j to S_{j+1}
    omega1: float
    omega2: float

    @property
    def omega(self) -> float:
        return self.omega2 - self.omega1

    @property
    def frame(self) -> CornerFrame:
        return CornerFrame(self.omega1, self.omega2)

    @property
    def far_edges(self) -> tuple[Edge, ...]:
        """Edges not touching the corner (tags 2..J-1)."""
        return self.edges[1:-1]

    @property
    def area(self) -> float:
        v = self.vertices
        return 0.5 * float(np.sum(v[:, 0] * np.roll(v[:, 1], -1)
                                  - np.roll(v[:, 0], -1) * v[:, 1]))

    @property
    def perimeter(self) -> float:
        return sum(e.length for e in self.edges)


def _interior_angle(prev_v, v, next_v) -> float:
    """Interior angle at v for a CCW polygon, in (0, 2*pi)."""
    a_in = math.atan2(*(next_v - v)[::-1])
    a_out = math.atan2(*(prev_v - v)[::-1])
    ang = (a_out - a_in) % (2.0 * math.pi)
    return ang


def build_polygon(vertices) -> CornerPolygon:
    """Build a CornerPolygon from CCW vertices, the first of them the corner,
    at the origin.

    omega1 is the direction of the first edge out of the corner and
    omega2 = omega1 + the interior angle there, so the last edge lies on the
    ray theta = omega2.
    """
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
        raise ValueError("need at least 3 planar vertices")
    if np.linalg.norm(verts[0]) > _TOL:
        raise ValueError("the corner vertex must sit at the origin")
    J = len(verts)
    for j in range(J):
        if np.linalg.norm(verts[(j + 1) % J] - verts[j]) < _TOL:
            raise DegenerateEdge(f"vertices {j} and {(j + 1) % J} coincide")
    area2 = float(np.sum(verts[:, 0] * np.roll(verts[:, 1], -1)
                         - np.roll(verts[:, 0], -1) * verts[:, 1]))
    if area2 <= 0.0:
        raise ValueError("vertices must be in counterclockwise order")

    angles = [_interior_angle(verts[j - 1], verts[j], verts[(j + 1) % J])
              for j in range(J)]
    if angles[0] <= math.pi + _TOL:
        raise NotReentrant(
            f"interior angle at the corner is {angles[0]:.6f} <= pi")
    others = [j for j in range(1, J) if angles[j] > math.pi + _TOL]
    if others:
        raise MultipleReentrant(f"re-entrant vertices also at indices {others}")

    omega1 = math.atan2(verts[1][1], verts[1][0])
    omega2 = omega1 + angles[0]
    edges = []
    for j in range(J):
        p0, p1 = verts[j], verts[(j + 1) % J]
        d = p1 - p0
        n = np.array([d[1], -d[0]]) / np.linalg.norm(d)
        edges.append(Edge(tag=j + 1, p0=p0, p1=p1, normal=n,
                          on_corner_ray=(j == 0 or j == J - 1)))
    return CornerPolygon(vertices=verts, edges=tuple(edges),
                         omega1=omega1, omega2=omega2)


def lshape_vertices(size: float = 1.0) -> np.ndarray:
    """Vertices of the benchmark L-shape: square [-s,s]^2 minus the third quadrant.

    The first corner edge points along theta = -pi/2 and the last lies on
    theta = pi, so the opening is 3*pi/2.
    """
    s = float(size)
    return np.array([
        [0.0, 0.0], [0.0, -s], [s, -s], [s, s], [-s, s], [-s, 0.0]])


def lshape_polygon(size: float = 1.0) -> CornerPolygon:
    return build_polygon(lshape_vertices(size))


# -- meshes -------------------------------------------------------------------


@dataclass(frozen=True)
class TriMesh:
    """Conforming triangulation with tagged boundary edges.

    nodes  : (N, 2) coordinates
    tris   : (M, 3) CCW node triples
    bedges : (K, 3) integer rows (i, j, tag) with tag the 1-based polygon edge
    """

    nodes: np.ndarray
    tris: np.ndarray
    bedges: np.ndarray
    h: float = 0.0

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def same_as(self, other: "TriMesh") -> bool:
        """True if other is this mesh or has equal nodes, tris and bedges."""
        return other is self or all(
            np.array_equal(getattr(self, k), getattr(other, k))
            for k in ("nodes", "tris", "bedges"))

    def areas(self) -> np.ndarray:
        return 0.5 * _affine(self.nodes[self.tris])[2]

    def validate(self) -> None:
        """Check orientation, conformity and boundary tagging; raise on failure."""
        if np.any(self.areas() <= 0.0):
            bad = int(np.argmin(self.areas()))
            raise NegativeArea(f"triangle {bad} has non-positive area")
        n = 1 + int(max(self.tris.max(initial=0), self.bedges.max(initial=0)))
        edges, _, counts = _edge_table(self.tris, n)
        if np.any(counts > 2):
            raise NonConforming("an edge is shared by more than two triangles")
        hit = _find_edges(edges, n, self.bedges[:, 0], self.bedges[:, 1])
        tagged = np.zeros(len(edges), dtype=bool)
        tagged[hit[hit >= 0]] = True
        missing = np.flatnonzero((counts == 1) & ~tagged)
        if len(missing):
            raise UntaggedBoundaryEdge(
                f"{len(missing)} boundary edges carry no tag, "
                f"e.g. {tuple(edges[missing[0]].tolist())}")
        spurious = np.count_nonzero((hit < 0) | (counts[hit] != 1))
        if spurious:
            raise NonConforming(
                f"{spurious} tagged edges are not mesh boundary edges")


def _affine(v):
    """The affine maps of triangles v (m, 3, 2) from the reference triangle
    (0, 0), (1, 0), (0, 1): origins v[:, 0] (m, 2), Jacobians (m, 2, 2) whose
    columns are the edge vectors v1 - v0 and v2 - v0, and their determinants
    (m,), twice the signed areas."""
    J = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=-1)
    return v[:, 0], J, J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]


def _images(origin, J, pts):
    """Images (m, q, 2) of reference points pts (q, 2) under the maps (origin,
    J), stored coordinate-major: [..., 0] and [..., 1] are contiguous (m, q)
    blocks, and moving the last axis first gives a contiguous (2, m, q).  The
    products J pts are one (2m, 2) @ (2, q) matrix product: m stacked 2 x 2
    products cost one BLAS call each."""
    xy = (np.swapaxes(J, 0, 1).reshape(-1, 2) @ pts.T).reshape(2, len(origin), len(pts))
    xy += origin.T[:, :, None]
    return np.moveaxis(xy, 0, -1)


def _first_use(keys):
    """Number the distinct keys in the order they first appear in keys.

    Returns the position of each distinct key's first use, the number of
    every entry of keys, and how often each distinct key occurs.
    """
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse], counts[order]


def _edge_table(tris, n_nodes: int):
    """Edges of a triangle array, numbered in order of first occurrence.

    The sides of triangle (a, b, c) are (a, b), (b, c), (c, a).  Returns the
    edges (E, 2) as (min, max) node pairs, the edge of every side (M, 3) and
    the number of triangles sharing each edge (E,).
    """
    t = np.asarray(tris, dtype=np.int64).reshape(-1, 3)
    s = np.roll(t, -1, axis=1)
    lo, hi = np.minimum(t, s).ravel(), np.maximum(t, s).ravel()
    first, tri_edge, counts = _first_use(lo * n_nodes + hi)
    return np.stack([lo[first], hi[first]], axis=1), tri_edge.reshape(t.shape), counts


def _find_edges(edges, n_nodes: int, i, j):
    """Row of each node pair (i[k], j[k]) in the edge table edges, or -1."""
    keys = edges[:, 0] * n_nodes + edges[:, 1]
    order = np.argsort(keys)
    want = np.minimum(i, j) * n_nodes + np.maximum(i, j)
    pos = order[np.clip(np.searchsorted(keys, want, sorter=order), 0, len(keys) - 1)]
    return np.where(keys[pos] == want, pos, -1)


def _segment_tags(p, q, outline):
    """1-based side of the closed polygon outline holding both p[k] and q[k].

    Side j joins outline[j - 1] to outline[j % J]; the first side that holds
    both points wins, and 0 means none does.
    """
    d = np.roll(outline, -1, axis=0) - outline                 # (J, 2)
    rel = np.stack([p, q])[:, :, None, :] - outline            # (2, K, J, 2)
    t = np.einsum("pkjd,jd->pkj", rel, d) / np.sum(d * d, axis=1)
    off = np.linalg.norm(t[..., None] * d - rel, axis=-1)
    on = np.all((t >= -1e-10) & (t <= 1.0 + 1e-10) & (off <= 1e-10), axis=0)
    return np.where(on.any(axis=1), on.argmax(axis=1) + 1, 0)


def _tag_boundary(nodes, tris, outline) -> np.ndarray:
    """Sorted rows (i, j, tag), i < j, of the edges that only one triangle has."""
    edges, _, counts = _edge_table(tris, len(nodes))
    b = edges[counts == 1]
    tags = _segment_tags(nodes[b[:, 0]], nodes[b[:, 1]], outline)
    if not tags.all():
        i, j = b[np.argmin(tags)]
        raise UntaggedBoundaryEdge(
            f"boundary edge {nodes[i]}-{nodes[j]} lies on no polygon edge")
    return _sorted_bedges(np.column_stack([b, tags]))


def _sorted_bedges(bedges):
    """Rows (i, j, tag) in order of (i, j)."""
    return bedges[np.lexsort((bedges[:, 1], bedges[:, 0]))]


def generate_square_mesh(n: int, size: float = 1.0) -> TriMesh:
    """Uniform triangulation of [0, size]^2 with boundary tags 1..4.

    Verification helper for smooth-solution convergence studies; tags run
    counterclockwise from the bottom edge.
    """
    xs = np.linspace(0.0, size, n + 1)
    outline = size * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return TriMesh(*_tensor_mesh(xs, xs, outline), h=size / n)


def _tensor_mesh(xs, ys, outline, keep=None):
    """Triangulate the tensor grid xs x ys, keeping cells where keep(cx, cy).

    Cells run x-major and each gives the triangles (00, 10, 11), (00, 11, 01);
    nodes are numbered in order of first use.  Returns nodes, tris, bedges.
    """
    ny = len(ys)
    i, j = (a.ravel() for a in np.meshgrid(np.arange(len(xs) - 1),
                                           np.arange(ny - 1), indexing="ij"))
    if keep is not None:
        cell = keep(0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1]))
        i, j = i[cell], j[cell]
    g = i * ny + j
    corners = np.stack([g, g + ny, g + ny + 1, g + 1], axis=1).ravel()
    first, number, _ = _first_use(corners)
    grid = corners[first]
    nodes = np.column_stack([xs[grid // ny], ys[grid % ny]])
    tris = number.reshape(-1, 4)[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3)
    return nodes, tris, _tag_boundary(nodes, tris, outline)


def generate_lshape_mesh(polygon: CornerPolygon, h: float, levels: int = 6) -> TriMesh:
    """Graded triangulation of the axis-aligned L-shape family.

    A structured base grid at spacing ~h is refined toward the corner by
    quadrisecting the triangles that touch the origin levels times (with a
    bisection closure for conformity), so the smallest corner elements have
    diameter ~ h / 2**levels.
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"h must be finite and positive, got {h}")
    if levels < 0:
        raise ValueError("levels must be >= 0")
    verts = polygon.vertices
    s = float(np.max(np.abs(verts)))
    axis_aligned = len(verts) == 6 and all(
        abs(abs(c) - s) < 1e-9 or abs(c) < 1e-9 for c in verts.ravel())
    if not axis_aligned:
        raise UnsupportedPolygon(
            "built-in generator handles the axis-aligned L-shape only")
    m = max(1, round(s / h))
    xs = np.concatenate([-np.linspace(0.0, s, m + 1)[::-1][:-1],
                         np.linspace(0.0, s, m + 1)])

    def keep(cx, cy):
        theta = map_theta(np.arctan2(cy, cx), polygon.frame)
        return (polygon.omega1 < theta) & (theta < polygon.omega2)

    nodes, tris, bedges = _tensor_mesh(xs, xs, verts, keep)
    nodes, tris, bedges = _refine_toward_corner(nodes, tris, bedges, levels)
    return TriMesh(nodes=nodes, tris=tris, bedges=bedges, h=h)


def _refine_toward_corner(nodes, tris, bedges, n_ref: int):
    """Quadrisect the triangles at the corner node n_ref times.

    Each pass splits the edges of the marked triangles at their midpoints,
    numbered after the existing nodes in edge-table order, and emits every
    triangle's children in the parent's triangle order.
    """
    corner = int(np.argmin(np.hypot(nodes[:, 0], nodes[:, 1])))
    if np.hypot(*nodes[corner]) > _TOL:
        raise ValueError("mesh has no node at the origin")
    for _ in range(n_ref):
        n = len(nodes)
        edges, tri_edge, _ = _edge_table(tris, n)
        # Closure: a triangle with split points on two or more edges must be
        # quadrisected too, so grow the marked set until it is stable.
        red = np.any(tris == corner, axis=1)
        split = np.zeros(len(edges), dtype=bool)
        while True:
            split[tri_edge[red]] = True
            hits = split[tri_edge]
            grown = hits.sum(axis=1) >= 2
            if np.array_equal(grown, red):
                break
            red = grown
        mid = np.full(len(edges), -1)
        mid[split] = n + np.arange(np.count_nonzero(split))
        e = edges[split]
        nodes = np.concatenate([nodes, 0.5 * (nodes[e[:, 0]] + nodes[e[:, 1]])])
        # Red triangles have 4 children, green ones (exactly one hanging
        # midpoint) are bisected toward the opposite vertex, the rest stay.
        green = hits.any(axis=1) & ~red
        size = np.where(red, 4, np.where(green, 2, 1))
        start = np.cumsum(size) - size
        out = np.empty((int(size.sum()), 3), dtype=tris.dtype)
        out[start[size == 1]] = tris[size == 1]
        (a, b, c), (ab, bc, ca) = tris[red].T, mid[tri_edge[red]].T
        out[start[red, None] + np.arange(4)] = np.stack(
            [a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1).reshape(-1, 4, 3)
        gi = np.flatnonzero(green)
        slot = np.argmax(hits[gi], axis=1)
        u, v, w = (tris[gi, (slot + k) % 3] for k in range(3))
        m = mid[tri_edge[gi, slot]]
        out[start[green, None] + np.arange(2)] = np.stack(
            [u, m, w, m, v, w], axis=1).reshape(-1, 2, 3)
        tris = out
        # A split boundary edge (i, j) gives way to (i, m) and (j, m).
        bmid = mid[_find_edges(edges, n, bedges[:, 0], bedges[:, 1])]
        cut = bmid >= 0
        i, j, tag = bedges[cut].T
        bedges = np.concatenate([bedges[~cut], np.column_stack([i, bmid[cut], tag]),
                                 np.column_stack([j, bmid[cut], tag])])
    return nodes, tris, _sorted_bedges(bedges)


# -- boundary data ------------------------------------------------------------


class MissingEdgeData(SifLabError, KeyError):
    """A boundary edge with no Dirichlet trace."""
    __str__ = Exception.__str__  # the message, not KeyError's quoted repr of it


@dataclass(frozen=True)
class BoundaryData:
    """Per-edge Dirichlet traces g_j, callables (x, y) -> array(..., 2) on arrays.

    zeta belongs to extraction.ProblemData; the keyword here takes only None.
    """

    traces: dict
    zeta: InitVar[None] = None

    def __post_init__(self, zeta):
        if zeta is not None:
            raise ValueError("BoundaryData takes no zeta; pass the divergence "
                             "source as ProblemData.zeta")

    def trace(self, tag: int):
        if tag not in self.traces:
            raise MissingEdgeData(f"no boundary data for edge {tag}")
        return self.traces[tag]
