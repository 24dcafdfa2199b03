"""Polygonal domains with one re-entrant corner, meshes and boundary data.

The corner sits at the origin; the two edges meeting there lie on the rays
theta = omega1 and theta = omega2 with opening omega2 - omega1 in (pi, 2*pi).
Meshing is provided for the built-in axis-aligned L-shape family (structured
base grid plus geometric refinement toward the corner); anything else comes
in through the text mesh format.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .modes import CornerFrame

__all__ = [
    "NotReentrant",
    "MultipleReentrant",
    "DegenerateEdge",
    "UnsupportedPolygon",
    "MeshFormatError",
    "NonConforming",
    "NegativeArea",
    "UntaggedBoundaryEdge",
    "Edge",
    "CornerPolygon",
    "TriMesh",
    "BoundaryData",
    "build_polygon",
    "lshape_vertices",
    "lshape_polygon",
    "generate_lshape_mesh",
    "generate_square_mesh",
    "load_mesh",
    "serialize_mesh",
    "validate_boundary_data",
]

_TOL = 1e-12


class NotReentrant(Exception):
    """The designated corner has interior angle <= pi."""


class MultipleReentrant(Exception):
    """More than one vertex is re-entrant."""


class DegenerateEdge(Exception):
    """Two consecutive vertices coincide."""


class UnsupportedPolygon(Exception):
    """The built-in mesh generator only handles the axis-aligned L-shape family."""


class MeshFormatError(Exception):
    """Mesh file syntax error, with line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NonConforming(Exception):
    """An interior edge is shared by more than two triangles."""


class NegativeArea(Exception):
    """A triangle has non-positive signed area."""


class UntaggedBoundaryEdge(Exception):
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
    def omega_bar(self) -> float:
        return 0.5 * (self.omega1 + self.omega2)

    @property
    def frame(self) -> CornerFrame:
        return CornerFrame(self.omega1, self.omega2)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

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


def build_polygon(vertices, corner_index: int = 0) -> CornerPolygon:
    """Build a CornerPolygon from CCW vertices with the corner at the origin.

    The vertex list is rotated so the corner comes first; omega1 is the
    direction of the first edge out of the corner and omega2 = omega1 + the
    interior angle there, so the last edge lies on the ray theta = omega2.
    """
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
        raise ValueError("need at least 3 planar vertices")
    verts = np.roll(verts, -corner_index, axis=0)
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
    return build_polygon(lshape_vertices(size), 0)


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
    grading_ratio: float = 0.5
    grading_levels: int = 0
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
        p = self.nodes[self.tris]
        return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                      - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))

    def validate(self) -> None:
        """Check orientation, conformity and boundary tagging; raise on failure."""
        if np.any(self.areas() <= 0.0):
            bad = int(np.argmin(self.areas()))
            raise NegativeArea(f"triangle {bad} has non-positive area")
        counts: dict[tuple[int, int], int] = {}
        for t in self.tris:
            for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
                key = (min(a, b), max(a, b))
                counts[key] = counts.get(key, 0) + 1
        if any(c > 2 for c in counts.values()):
            raise NonConforming("an edge is shared by more than two triangles")
        boundary = {k for k, c in counts.items() if c == 1}
        tagged = {(min(i, j), max(i, j)) for i, j, _tag in self.bedges}
        missing = boundary - tagged
        if missing:
            raise UntaggedBoundaryEdge(
                f"{len(missing)} boundary edges carry no tag, e.g. {next(iter(missing))}")
        spurious = tagged - boundary
        if spurious:
            raise NonConforming(
                f"{len(spurious)} tagged edges are not mesh boundary edges")


def generate_square_mesh(n: int, size: float = 1.0) -> TriMesh:
    """Uniform triangulation of [0, size]^2 with boundary tags 1..4.

    Verification helper for smooth-solution convergence studies; tags run
    counterclockwise from the bottom edge.
    """
    xs = np.linspace(0.0, size, n + 1)
    return _tensor_mesh(xs, xs, tagger=_square_tagger(size), h=size / n)


def _square_tagger(size):
    def tag(p, q):
        mid = 0.5 * (p + q)
        if abs(mid[1]) < _TOL:
            return 1
        if abs(mid[0] - size) < _TOL:
            return 2
        if abs(mid[1] - size) < _TOL:
            return 3
        if abs(mid[0]) < _TOL:
            return 4
        return None
    return tag


def _tensor_mesh(xs, ys, tagger, h, keep=None) -> TriMesh:
    """Triangulate the tensor grid xs x ys, keeping cells where keep(center)."""
    index: dict[tuple[int, int], int] = {}
    nodes = []

    def node(i, j):
        key = (i, j)
        if key not in index:
            index[key] = len(nodes)
            nodes.append((xs[i], ys[j]))
        return index[key]

    tris = []
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            cx, cy = 0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1])
            if keep is not None and not keep(cx, cy):
                continue
            n00, n10 = node(i, j), node(i + 1, j)
            n11, n01 = node(i + 1, j + 1), node(i, j + 1)
            tris.append((n00, n10, n11))
            tris.append((n00, n11, n01))
    nodes = np.array(nodes)
    tris = np.array(tris, dtype=int)
    bedges = _tag_boundary(nodes, tris, tagger)
    return TriMesh(nodes=nodes, tris=tris, bedges=bedges, h=h)


def _tag_boundary(nodes, tris, tagger) -> np.ndarray:
    counts: dict[tuple[int, int], int] = {}
    for t in tris:
        for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    rows = []
    for (i, j), c in counts.items():
        if c != 1:
            continue
        tag = tagger(nodes[i], nodes[j])
        if tag is None:
            raise UntaggedBoundaryEdge(
                f"boundary edge {nodes[i]}-{nodes[j]} lies on no polygon edge")
        rows.append((i, j, tag))
    return np.array(sorted(rows), dtype=int)


def _polygon_tagger(polygon: CornerPolygon):
    def tag(p, q):
        for e in polygon.edges:
            d = e.p1 - e.p0
            L2 = float(d @ d)
            ok = True
            for pt in (p, q):
                t = float((pt - e.p0) @ d) / L2
                if t < -1e-10 or t > 1.0 + 1e-10:
                    ok = False
                    break
                if np.linalg.norm(e.p0 + t * d - pt) > 1e-10:
                    ok = False
                    break
            if ok:
                return e.tag
        return None
    return tag


def generate_lshape_mesh(polygon: CornerPolygon, h: float,
                         grading_ratio: float = 0.5,
                         levels: int = 6) -> TriMesh:
    """Graded triangulation of the axis-aligned L-shape family.

    A structured base grid at spacing ~h is refined toward the corner by
    repeatedly quadrisecting the triangles that touch the origin (with a
    bisection closure for conformity).  The quadrisection count is chosen so
    the smallest corner elements have diameter ~ h * grading_ratio**levels.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    if not (0.0 < grading_ratio < 1.0):
        raise ValueError("grading ratio must be in (0, 1)")
    verts = polygon.vertices
    s = float(np.max(np.abs(verts)))
    axis_aligned = len(verts) == 6 and all(
        abs(abs(c) - s) < 1e-9 or abs(c) < 1e-9 for c in verts.ravel())
    if not axis_aligned:
        raise UnsupportedPolygon(
            "built-in generator handles the axis-aligned L-shape only; "
            "use load_mesh for general domains")
    m = max(1, round(s / h))
    xs = np.concatenate([-np.linspace(0.0, s, m + 1)[::-1][:-1],
                         np.linspace(0.0, s, m + 1)])

    def keep(cx, cy):
        theta = math.atan2(cy, cx)
        if theta < polygon.omega1:
            theta += 2.0 * math.pi
        if theta > polygon.omega2:
            theta -= 2.0 * math.pi
        return polygon.omega1 < theta < polygon.omega2

    mesh = _tensor_mesh(xs, xs, tagger=_polygon_tagger(polygon), h=h, keep=keep)
    if levels > 0:
        n_ref = max(1, round(levels * math.log(1.0 / grading_ratio) / math.log(2.0)))
        mesh = _refine_toward_corner(mesh, n_ref)
    return TriMesh(nodes=mesh.nodes, tris=mesh.tris, bedges=mesh.bedges,
                   grading_ratio=grading_ratio, grading_levels=levels, h=h)


def _refine_toward_corner(mesh: TriMesh, n_ref: int) -> TriMesh:
    nodes = [tuple(p) for p in mesh.nodes]
    tris = [tuple(t) for t in mesh.tris]
    btags = {(min(i, j), max(i, j)): tag for i, j, tag in mesh.bedges}
    corner = int(np.argmin(np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1])))
    if np.hypot(*nodes[corner]) > _TOL:
        raise ValueError("mesh has no node at the origin")

    for _ in range(n_ref):
        midpoint: dict[tuple[int, int], int] = {}

        def mid(a, b):
            key = (min(a, b), max(a, b))
            if key not in midpoint:
                p = (0.5 * (nodes[a][0] + nodes[b][0]),
                     0.5 * (nodes[a][1] + nodes[b][1]))
                midpoint[key] = len(nodes)
                nodes.append(p)
                if key in btags:
                    tag = btags.pop(key)
                    m_ = midpoint[key]
                    btags[(min(a, m_), max(a, m_))] = tag
                    btags[(min(b, m_), max(b, m_))] = tag
            return midpoint[key]

        red = {k for k, t in enumerate(tris) if corner in t}
        # Closure: a triangle with split points on two or more edges must be
        # quadrisected too, so iterate until the marked set is stable.
        while True:
            for k in red:
                a, b, c = tris[k]
                mid(a, b), mid(b, c), mid(c, a)
            grew = False
            for k, (a, b, c) in enumerate(tris):
                if k in red:
                    continue
                hits = sum((min(u, v), max(u, v)) in midpoint
                           for u, v in ((a, b), (b, c), (c, a)))
                if hits >= 2:
                    red.add(k)
                    grew = True
            if not grew:
                break
        new_tris = []
        for k, (a, b, c) in enumerate(tris):
            if k in red:
                ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
                new_tris += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
                continue
            split = [(u, v) for u, v in ((a, b), (b, c), (c, a))
                     if (min(u, v), max(u, v)) in midpoint]
            if not split:
                new_tris.append((a, b, c))
                continue
            # Exactly one hanging midpoint: bisect toward the opposite vertex.
            u, v = split[0]
            w = ({a, b, c} - {u, v}).pop()
            m_ = midpoint[(min(u, v), max(u, v))]
            new_tris += [(u, m_, w), (m_, v, w)]
        tris = new_tris

    bedges = np.array(sorted((i, j, tag) for (i, j), tag in btags.items()), dtype=int)
    return TriMesh(nodes=np.array(nodes), tris=np.array(tris, dtype=int),
                   bedges=bedges, grading_ratio=mesh.grading_ratio,
                   grading_levels=mesh.grading_levels, h=mesh.h)


# -- mesh file format ---------------------------------------------------------


def serialize_mesh(mesh: TriMesh) -> str:
    out = io.StringIO()
    out.write(f"nodes {mesh.n_nodes}\n")
    for x, y in mesh.nodes:
        out.write(f"{float(x)!r} {float(y)!r}\n")
    out.write(f"tris {len(mesh.tris)}\n")
    for a, b, c in mesh.tris:
        out.write(f"{a} {b} {c}\n")
    out.write(f"bedges {len(mesh.bedges)}\n")
    for i, j, tag in mesh.bedges:
        out.write(f"{i} {j} {tag}\n")
    return out.getvalue()


def load_mesh(text: str, polygon: CornerPolygon | None = None) -> TriMesh:
    """Parse the line-oriented mesh format and validate all mesh invariants."""
    lines = text.splitlines()
    pos = 0

    def next_line():
        nonlocal pos
        while pos < len(lines):
            raw = lines[pos]
            pos += 1
            stripped = raw.split("#", 1)[0].strip()
            if stripped:
                return pos, stripped
        return pos, None

    def section(name, width):
        ln, header = next_line()
        if header is None:
            raise MeshFormatError(ln, f"expected '{name} N', got end of file")
        parts = header.split()
        if len(parts) != 2 or parts[0] != name:
            raise MeshFormatError(ln, f"expected '{name} N', got {header!r}")
        try:
            count = int(parts[1])
        except ValueError:
            raise MeshFormatError(ln, f"bad count {parts[1]!r}") from None
        rows = []
        for _ in range(count):
            ln, line = next_line()
            if line is None:
                raise MeshFormatError(ln, f"unexpected end of {name} section")
            cells = line.split()
            if len(cells) != width:
                raise MeshFormatError(ln, f"expected {width} fields, got {len(cells)}")
            rows.append(cells)
        return rows

    try:
        node_rows = [[float(c) for c in row] for row in section("nodes", 2)]
        tri_rows = [[int(c) for c in row] for row in section("tris", 3)]
        bed_rows = [[int(c) for c in row] for row in section("bedges", 3)]
    except ValueError as exc:
        raise MeshFormatError(pos, str(exc)) from None

    mesh = TriMesh(nodes=np.array(node_rows, dtype=float),
                   tris=np.array(tri_rows, dtype=int),
                   bedges=np.array(bed_rows, dtype=int).reshape(-1, 3))
    mesh.validate()
    if polygon is not None:
        tagger = _polygon_tagger(polygon)
        for i, j, tag in mesh.bedges:
            want = tagger(mesh.nodes[i], mesh.nodes[j])
            if want != tag:
                raise UntaggedBoundaryEdge(
                    f"edge ({i},{j}) tagged {tag} but lies on polygon edge {want}")
    return mesh


# -- boundary data ------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryData:
    """Per-edge Dirichlet traces g_j plus an optional divergence source zeta.

    Each trace is a callable (x, y) -> array(..., 2) accepting numpy arrays;
    zeta, when present, is (x, y) -> array.
    """

    traces: dict
    zeta: object = None

    def trace(self, tag: int):
        if tag not in self.traces:
            raise KeyError(f"no boundary data for edge {tag}")
        return self.traces[tag]

    @staticmethod
    def zero(polygon: CornerPolygon) -> "BoundaryData":
        z = lambda x, y: np.zeros(np.shape(x) + (2,))
        return BoundaryData(traces={e.tag: z for e in polygon.edges})


def validate_boundary_data(polygon: CornerPolygon, data: BoundaryData,
                           order: int = 16) -> dict:
    """Report vertex continuity, flux compatibility and corner-vanishing flags."""
    from .angular import gauss_nodes

    J = polygon.n_edges
    mismatch = 0.0
    for e in polygon.edges:
        nxt = polygon.edges[e.tag % J]
        shared = e.p1
        va = np.asarray(data.trace(e.tag)(shared[0], shared[1]), dtype=float)
        vb = np.asarray(data.trace(nxt.tag)(shared[0], shared[1]), dtype=float)
        mismatch = max(mismatch, float(np.max(np.abs(va - vb))))
    flux = 0.0
    for e in polygon.edges:
        ts, ws = gauss_nodes(order, 0.0, 1.0)
        pts = e.point_at(ts)
        g = np.asarray(data.trace(e.tag)(pts[:, 0], pts[:, 1]), dtype=float)
        flux += e.length * float(np.dot(ws, g @ e.normal))
    corner = polygon.vertices[0]
    g1 = np.asarray(data.trace(1)(corner[0], corner[1]), dtype=float)
    gJ = np.asarray(data.trace(J)(corner[0], corner[1]), dtype=float)
    corner_ok = float(max(np.max(np.abs(g1)), np.max(np.abs(gJ))))
    report = {
        "max_vertex_mismatch": mismatch,
        "flux_defect": abs(flux),
        "corner_value": corner_ok,
        "corner_vanishing": corner_ok < 1e-10,
        "vertex_continuity_ok": mismatch < 1e-10,
    }
    if data.zeta is not None:
        report["zeta_corner"] = float(np.abs(data.zeta(corner[0], corner[1])))
    return report
