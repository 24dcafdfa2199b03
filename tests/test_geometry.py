"""Polygons, graded meshes, mesh checks, boundary data."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sif_lab.extraction import (CornerDataNonzero, ProblemData, _check_data,
                                _sample, _sample_points)
import sif_lab.fem
from sif_lab import SifLabError
from sif_lab.fem import P2Space
from sif_lab.geometry import (BoundaryData, MissingEdgeData, NonConforming, NotReentrant,
                              TriMesh,
                              UnsupportedPolygon, UntaggedBoundaryEdge,
                              _affine, _edge_table, _find_edges, _images,
                              build_polygon,
                              generate_lshape_mesh, generate_square_mesh,
                              lshape_polygon, lshape_vertices)
from sif_lab.spectral import MaterialParams


def test_lshape_polygon_angles_and_measures():
    poly = lshape_polygon(1.0)
    assert poly.omega1 == pytest.approx(-math.pi / 2)
    assert poly.omega2 == pytest.approx(math.pi)
    assert poly.omega == pytest.approx(1.5 * math.pi)
    assert poly.area == pytest.approx(3.0)
    assert poly.perimeter == pytest.approx(8.0)
    assert [e.on_corner_ray for e in poly.edges] == [True, False, False, False, False, True]
    assert len(poly.far_edges) == 4


def test_build_polygon_reports_frame_from_first_edge():
    # same L-shape listed from a different starting ray
    verts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (-1.0, 1.0),
             (-1.0, -1.0), (0.0, -1.0)]
    poly = build_polygon(verts)
    assert poly.omega1 == pytest.approx(0.0)
    assert poly.omega2 == pytest.approx(1.5 * math.pi)


def test_convex_polygon_rejected():
    with pytest.raises(NotReentrant):
        build_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def test_outward_normals():
    poly = lshape_polygon(1.0)
    centroid = np.array([0.25, 0.25])
    for e in poly.edges:
        mid = 0.5 * (np.asarray(e.p0) + np.asarray(e.p1))
        assert np.dot(e.normal, mid - centroid) > -0.6  # points away from interior
        # unit length
        assert np.hypot(*e.normal) == pytest.approx(1.0)


@pytest.mark.parametrize("h,levels", [(0.25, 3), (0.125, 5)])
def test_lshape_mesh_invariants(h, levels):
    poly = lshape_polygon(1.0)
    mesh = generate_lshape_mesh(poly, h, levels=levels)
    mesh.validate()
    assert TriMesh.areas(mesh).sum() == pytest.approx(poly.area, abs=1e-12)
    assert np.all(TriMesh.areas(mesh) > 0)
    # boundary edge lengths reproduce the perimeter
    lens = [np.hypot(*(mesh.nodes[j] - mesh.nodes[i])) for i, j, _ in mesh.bedges]
    assert sum(lens) == pytest.approx(poly.perimeter, abs=1e-12)
    tags = {int(t) for _, _, t in mesh.bedges}
    assert tags == {1, 2, 3, 4, 5, 6}


@pytest.mark.parametrize("mesh", [
    generate_lshape_mesh(lshape_polygon(1.0), 0.1, levels=6),
    generate_lshape_mesh(lshape_polygon(1.3), 0.25, levels=3),
    generate_square_mesh(7),
], ids=["lshape", "lshape-1.3", "square"])
def test_affine_maps_the_reference_vertices_onto_each_triangle(mesh):
    """The images of (0, 0), (1, 0), (0, 1) are each triangle's vertices, bit
    for bit on these meshes, and half the determinant is its area."""
    v = mesh.nodes[mesh.tris]
    origin, J, det = _affine(v)
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(_images(origin, J, ref), v)
    assert np.array_equal(0.5 * det, mesh.areas())
    assert np.all(det > 0.0)


def test_corner_grading_reaches_prescribed_scale():
    poly = lshape_polygon(1.0)
    h, levels = 0.25, 4
    mesh = generate_lshape_mesh(poly, h, levels=levels)
    rnode = np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1])
    corner_tris = [t for t in mesh.tris if np.any(rnode[list(t)] < 1e-12)]
    assert corner_tris
    diam = max(np.max(np.linalg.norm(
        mesh.nodes[list(t)][None, :] - mesh.nodes[list(t)][:, None], axis=-1))
        for t in corner_tris)
    target = math.sqrt(2.0) * h / 2 ** levels
    assert diam < 2.0 * target


def test_square_mesh_for_fem_smoke():
    mesh = generate_square_mesh(4, 1.0)
    mesh.validate()
    assert TriMesh.areas(mesh).sum() == pytest.approx(1.0)
    assert {int(t) for _, _, t in mesh.bedges} == {1, 2, 3, 4}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _tri_digest(mesh):
    """Digest of the triangles as coordinates, in mesh order."""
    return _sha(mesh.nodes[mesh.tris].tobytes())


def _bedge_digest(mesh):
    """Digest of the boundary edges as sorted (segment, tag) coordinate rows."""
    p, q = mesh.nodes[mesh.bedges[:, 0]], mesh.nodes[mesh.bedges[:, 1]]
    swap = ((p[:, 0] > q[:, 0]) | ((p[:, 0] == q[:, 0]) & (p[:, 1] > q[:, 1])))[:, None]
    rows = np.column_stack([np.where(swap, q, p), np.where(swap, p, q),
                            mesh.bedges[:, 2]])
    return _sha(rows[np.lexsort(rows.T[::-1])].tobytes())


def _array_digest(mesh):
    return _sha(mesh.nodes.tobytes() + mesh.tris.astype("<i8").tobytes()
                + mesh.bedges.astype("<i8").tobytes())


# (h, levels) -> (_tri_digest, _bedge_digest), as computed by the dict-based
# mesher that the array mesher replaced.  Refinement may number its new nodes
# differently; the triangles, their order and the tagged boundary segments
# may not change.
_LSHAPE_DIGESTS = {
    (0.25, 0): ("eda312959e28442d", "ecee69871d8d02ee"),
    (0.25, 2): ("422209c8f418bd29", "912251a1b24a450a"),
    (0.25, 3): ("61d32a6c2d106138", "93a288a460be417b"),
    (0.25, 6): ("82e3e58f0b2b979b", "c7c919c65050ca77"),
    (0.25, 10): ("64821f192f88b4fc", "8138edfadd16b0b9"),
    (0.1, 0): ("a7b760ec5437b00c", "f8242fdb364d4c23"),
    (0.1, 2): ("d68caaee07c41a04", "8efe201f883166a1"),
    (0.1, 3): ("73a1da3ebca8865f", "0fa6a4b66aabeb73"),
    (0.1, 6): ("c0fa04f730257c0d", "2ee5c8776dc07758"),
    (0.1, 10): ("0eecc1d6605f34ab", "062bca86152ac0bd"),
    (0.05, 0): ("833963419f7fef63", "36ef132c78ea02a9"),
    (0.05, 2): ("5018867123c36ba0", "04c216e91df143a7"),
    (0.05, 3): ("f2aebc933dbb81ef", "3007b85e74797741"),
    (0.05, 6): ("2e7085602b4c0c6e", "1805f53d90badc89"),
    (0.05, 10): ("b9422827e5561ea5", "f6ed774a7db41e2d"),
}


# The cases were pinned as (h, levels, grading ratio).  A ratio r quadrisected
# round(levels * log2(1/r)) times, so every case stays reachable by levels.
@pytest.mark.parametrize("h,levels,ratio", [
    (h, levels, ratio) for h in (0.05, 0.1, 0.25) for levels in (0, 2, 6)
    for ratio in (0.3, 0.5)])
def test_lshape_mesh_matches_pinned_digests(h, levels, ratio):
    poly = lshape_polygon(1.0)
    levels = round(levels * math.log2(1.0 / ratio))
    mesh = generate_lshape_mesh(poly, h, levels=levels)
    assert (_tri_digest(mesh), _bedge_digest(mesh)) == _LSHAPE_DIGESTS[h, levels]
    # The base grid keeps its node numbers, so the node farthest from the
    # corner (the pinned pressure dof at eps = 0) stays where it was.
    base = generate_lshape_mesh(poly, h, levels=0)
    assert np.array_equal(mesh.nodes[:base.n_nodes], base.nodes)
    far = np.argmax(np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1]))
    assert mesh.nodes[far].tolist() == [-1.0, 1.0]


@pytest.mark.parametrize("make,digest", [
    (lambda: generate_lshape_mesh(lshape_polygon(1.0), 0.25, levels=0), "06535c22f9ac224b"),
    (lambda: generate_lshape_mesh(lshape_polygon(1.0), 0.1, levels=0), "c324ae26c8299c3f"),
    (lambda: generate_lshape_mesh(lshape_polygon(1.0), 0.05, levels=0), "fe6f5ae9590a8028"),
    (lambda: generate_square_mesh(1), "eee4bd61280dd9ce"),
    (lambda: generate_square_mesh(4), "7e77edd049d4e77c"),
    (lambda: generate_square_mesh(7), "965418d286ee9892"),
], ids=["lshape-0.25", "lshape-0.1", "lshape-0.05", "square-1", "square-4", "square-7"])
def test_unrefined_meshes_are_bit_identical(make, digest):
    assert _array_digest(make()) == digest


def test_edge_table_numbers_edges_by_first_occurrence():
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    edges, tri_edge, counts = _edge_table(tris, 4)
    assert edges.tolist() == [[0, 1], [1, 2], [0, 2], [2, 3], [0, 3]]
    assert tri_edge.tolist() == [[0, 1, 2], [2, 3, 4]]
    assert counts.tolist() == [1, 1, 2, 1, 1]
    assert _find_edges(edges, 4, np.array([2, 3, 1]), np.array([0, 2, 3])).tolist() == [2, 3, -1]


def _broken_meshes():
    mesh = generate_lshape_mesh(lshape_polygon(1.0), 0.5, levels=2)
    edges, _, counts = _edge_table(mesh.tris, mesh.n_nodes)
    u, v = edges[np.argmax(counts == 2)]
    # A copy of the node opposite (u, v) in its first triangle makes a third
    # triangle on that edge, with positive area.
    t = mesh.tris[np.flatnonzero((mesh.tris == u).any(1) & (mesh.tris == v).any(1))[0]]
    w = t[(t != u) & (t != v)][0]
    third = np.where(t == w, mesh.n_nodes, t)
    return {
        "triply-shared": (NonConforming, replace(
            mesh, nodes=np.vstack([mesh.nodes, mesh.nodes[w]]),
            tris=np.vstack([mesh.tris, third]))),
        "missing-tag": (UntaggedBoundaryEdge, replace(mesh, bedges=mesh.bedges[1:])),
        "spurious-tag": (NonConforming, replace(
            mesh, bedges=np.vstack([mesh.bedges, [u, v, 1]]))),
    }


@pytest.mark.parametrize("case", ["triply-shared", "missing-tag", "spurious-tag"])
def test_mesh_checks_raise_named_errors(case):
    error, mesh = _broken_meshes()[case]
    with pytest.raises(error):
        mesh.validate()


def test_unsupported_polygon_for_mesher():
    verts = [(0.0, 0.0), (0.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
    poly = build_polygon(verts)
    with pytest.raises(UnsupportedPolygon):
        generate_lshape_mesh(poly, 0.25)


@pytest.mark.parametrize("h", [math.inf, math.nan])
def test_mesher_rejects_nonfinite_h(h):
    with pytest.raises(ValueError, match="^h must be finite and positive, got "):
        generate_lshape_mesh(lshape_polygon(1.0), h)


def check_data(data, material):
    """The extraction's input check of data, on the sample an extraction takes."""
    points = _sample_points(P2Space(data.mesh), data.polygon)
    sample = _sample(points, data.g.traces, data.f, data.zeta)
    _check_data(data, material, sample, points)


def test_boundary_data_validation_flags():
    """The findings of the old boundary-data report are now raises of the
    extraction's input check; zeta belongs to ProblemData, not BoundaryData."""
    poly = lshape_polygon(1.0)
    zero = lambda x, y: np.zeros(np.shape(x) + (2,))
    ok = ProblemData(polygon=poly, mesh=generate_lshape_mesh(poly, 0.25, levels=3),
                     material=MaterialParams(1.0, 1e-3),
                     g=BoundaryData(traces={e.tag: zero for e in poly.edges}))
    for eps in (1e-3, 0.0):  # corner values, continuity and flux all pass
        check_data(ok, MaterialParams(1.0, eps))

    const = lambda x, y: np.stack([np.ones(np.shape(x)), np.zeros(np.shape(x))],
                                  axis=-1)
    bad = replace(ok, g=BoundaryData(traces={e.tag: const for e in poly.edges}))
    with pytest.raises(CornerDataNonzero):
        check_data(bad, ok.material)

    with pytest.raises(ValueError, match="ProblemData.zeta"):
        BoundaryData(ok.g.traces, zeta=lambda x, y: 2.0 * x * y)


def test_missing_trace_is_a_named_key_error():
    """A missing trace is the same named error in BoundaryData.trace and
    fem.dirichlet_values, and still a KeyError, whose message is unquoted."""
    assert sif_lab.fem.MissingEdgeData is MissingEdgeData
    assert issubclass(MissingEdgeData, SifLabError) and issubclass(MissingEdgeData, KeyError)
    with pytest.raises(MissingEdgeData) as info:
        BoundaryData({1: None}).trace(3)
    assert str(info.value) == "no boundary data for edge 3"


@settings(max_examples=30, deadline=None)
@given(size=st.floats(0.5, 3.0))
def test_lshape_scaling_property(size):
    poly = lshape_polygon(size)
    assert poly.area == pytest.approx(3.0 * size * size)
    assert poly.omega == pytest.approx(1.5 * math.pi)
    verts = np.asarray(lshape_vertices(size))
    assert np.max(np.abs(verts)) == pytest.approx(size)
