"""Coefficient functionals: manufactured recovery, linearity, reuse, guards."""

import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

import sif_lab.extraction
from sif_lab.extraction import (CORNER_DEPTH, CornerDataNonzero,
                                IncompatibleFlux, MeshMismatch,
                                ProblemData, ZetaCornerNonzero, _ci_terms,
                                _edge_dofs, _edge_rule, _sample, _volume_rule,
                                _weight, _weight_rules, extract_sifs_penalized,
                                extract_sifs_stokes, regular_part, solve_psi)
from sif_lab.fem import (InconsistentEdgeData, P2Space, load_vector,
                         diff_norms, dirichlet_values, error_norms, norms,
                         tri_quadrature)
from sif_lab.geometry import (BoundaryData, TriMesh, build_polygon,
                              generate_lshape_mesh, lshape_polygon,
                              lshape_vertices)
from sif_lab.harness import manufactured_fields
from sif_lab.modes import SingularMode, make_mode
from sif_lab.spectral import MaterialParams, exponent_table
from test_fem import FACTORS_PER_SPACE, count_factorizations, mixed_solve

POLY = lshape_polygon(1.0)
FRAME = POLY.frame
MAT = MaterialParams(1.0, 1e-3)


@pytest.fixture(scope="module")
def coarse_mesh():
    return generate_lshape_mesh(POLY, 0.1, levels=5)


def zero_g():
    zero = lambda x, y: np.zeros(np.shape(x) + (2,))
    return BoundaryData(traces={e.tag: zero for e in POLY.edges}, zeta=None)


def manufactured_data(mesh, case, material):
    f, traces, c_true, family = manufactured_fields(case, material, POLY)
    g = BoundaryData(traces=traces, zeta=None)
    return ProblemData(polygon=POLY, mesh=mesh, material=material, g=g, f=f), c_true


# -- recovery ----------------------------------------------------------------

def test_penalized_recovery_coarse(coarse_mesh):
    data, c_true = manufactured_data(coarse_mesh, "penalized", MAT)
    rep = extract_sifs_penalized(data)
    assert abs(rep.c1 - c_true[0]) < 0.01 * abs(c_true[0])
    assert abs(rep.c2 - c_true[1]) < 0.01 * abs(c_true[1])
    # stored invariants recomputable from parts
    assert rep.c1 == rep.C1 / rep.gamma1
    assert rep.c2 == (rep.C2 + rep.c1 * rep.Cstar) / rep.gamma2
    assert abs(rep.gamma1) > 1e-8 and abs(rep.gamma2) > 1e-8


def test_stokes_recovery_coarse(coarse_mesh):
    smat = MaterialParams(1.0, 0.0)
    data, c_true = manufactured_data(coarse_mesh, "stokes", smat)
    rep = extract_sifs_stokes(data)
    assert abs(rep.c1 - c_true[0]) < 0.01 * abs(c_true[0])
    assert abs(rep.c2 - c_true[1]) < 0.01 * abs(c_true[1])


def _vec(fx, fy):
    """(x, y) -> (..., 2) from two scalar expressions."""
    def field(x, y):
        x, y = np.asarray(x, float), np.asarray(y, float)
        shape = np.broadcast(x, y).shape
        return np.stack([np.broadcast_to(fx(x, y), shape),
                         np.broadcast_to(fy(x, y), shape)], axis=-1)
    return field


# Vanishes on the corner edges; its divergence is the source.
_ZETA_W = (_vec(lambda x, y: x * x * y, lambda x, y: 0.0),
           _vec(lambda x, y: -2.0 * y, lambda x, y: 0.0),
           lambda x, y: 2.0 * np.asarray(x, float) * np.asarray(y, float))

# Added to a built-in case: (case, w, -lap(w), zeta = div w).  The exact c1,
# c2 stay, and the pressure too, since div w = zeta.
INHOMOGENEOUS = {
    # Divergence-free and nonzero on both corner edges.
    "penalized": ("penalized", _vec(lambda x, y: 3.0 * y * y, lambda x, y: -3.0 * x * x),
                  _vec(lambda x, y: -6.0, lambda x, y: 6.0), None),
    "stokes": ("stokes", *_ZETA_W),
    "penalized-zeta": ("penalized", *_ZETA_W),
}


def inhomogeneous_case(key, mu=1.3):
    """(extract, material, f, traces, zeta, c_true) of an INHOMOGENEOUS case."""
    case, w, minus_lap_w, zeta = INHOMOGENEOUS[key]
    material = MaterialParams(mu, 1e-3 if case == "penalized" else 0.0)
    f0, traces, c_true, _ = manufactured_fields(case, material, POLY)

    def f(x, y):
        return np.asarray(f0(x, y), float) + mu * minus_lap_w(x, y)

    traces = {tag: (lambda x, y, _t=tr: _t(x, y) + w(x, y)) for tag, tr in traces.items()}
    extract = extract_sifs_penalized if case == "penalized" else extract_sifs_stokes
    return extract, material, f, traces, zeta, c_true


@pytest.mark.parametrize("key", list(INHOMOGENEOUS))
def test_inhomogeneous_terms_recover_known_coefficients(key):
    """Corner-edge data (penalized) and a nonzero source zeta (both families).

    The built-in case gains a polynomial w in g and -mu lap(w) in f, so the
    graded corner-edge rules and the volume_zeta terms integrate nonzero
    data in a problem with known c1, c2.  Criterion 07's bounds apply.
    """
    extract, material, f, traces, zeta, c_true = inhomogeneous_case(key)
    rel = []
    for h in (0.1, 0.05):
        rep = extract(ProblemData(polygon=POLY, mesh=generate_lshape_mesh(POLY, h, levels=6),
                                  material=material, g=BoundaryData(traces), f=f, zeta=zeta))
        rel.append([abs(rep.c1 - c_true[0]) / abs(c_true[0]),
                    abs(rep.c2 - c_true[1]) / abs(c_true[1])])
    assert max(rel[0]) < 0.02 and max(rel[1]) < 0.005, rel
    # The corrector's residual flux makes the accuracy independent of the data.
    assert rel[1][0] < 5e-4 and rel[1][1] < 2e-5, rel
    assert rel[1][0] < rel[0][0] and rel[1][1] < rel[0][1], rel
    if zeta is not None:
        # zeta = 2xy is even about the L-shape's bisector and the first dual
        # mode's pressure-like part odd, so C1's zeta term is zero; C2's is not.
        assert 7.9 < rep.terms["C2"]["volume_zeta_dual"] < 8.0, rep.terms["C2"]


def test_shared_operator_is_checked_and_changes_nothing(coarse_mesh):
    """A shared space gives the same bits; one of another mesh is refused."""
    data, _ = manufactured_data(coarse_mesh, "penalized", MAT)
    own = extract_sifs_penalized(data)
    shared = extract_sifs_penalized(replace(data, space=P2Space(coarse_mesh)))
    assert (shared.c1, shared.c2) == (own.c1, own.c2)
    other = P2Space(generate_lshape_mesh(POLY, 0.2, levels=3))
    with pytest.raises(MeshMismatch):
        extract_sifs_penalized(replace(data, space=other))


def test_regular_part_removes_singular_content():
    mesh = generate_lshape_mesh(POLY, 0.05, levels=6)
    data, c_true = manufactured_data(mesh, "penalized", MAT)
    rep = extract_sifs_penalized(data)
    u = mixed_solve(mesh, MAT, data.g.traces, data.f)[-1]
    w = regular_part(u, rep)

    def w_poly(x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        return np.stack([2 * x * x * y, -2 * x * y * y], axis=-1)

    def w_poly_grad(x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        return np.stack([
            np.stack([4 * x * y, 2 * x * x], axis=-1),
            np.stack([-2 * y * y, -4 * x * y], axis=-1)], axis=-2)

    err = error_norms(w, w_poly, w_poly_grad)
    scale = norms(w)["h1"]
    assert err["h1"] < 0.05 * scale


def test_regular_part_identity_for_zero_data(coarse_mesh):
    data = ProblemData(polygon=POLY, mesh=coarse_mesh, material=MAT, g=zero_g())
    rep = extract_sifs_penalized(data)
    assert rep.c1 == 0.0 and rep.c2 == 0.0
    u = mixed_solve(coarse_mesh, MAT, data.g.traces)[-1]
    w = regular_part(u, rep)
    assert np.array_equal(w.ux, u.ux) and np.array_equal(w.uy, u.uy)
    assert np.array_equal(w.p, u.p)


def test_regular_part_mesh_mismatch(coarse_mesh):
    data = ProblemData(polygon=POLY, mesh=coarse_mesh, material=MAT, g=zero_g())
    rep = extract_sifs_penalized(data)
    # Equal node, triangle and h counts, one interior node moved.
    interior = np.setdiff1d(np.arange(coarse_mesh.n_nodes), coarse_mesh.bedges[:, :2])
    nodes = coarse_mesh.nodes.copy()
    nodes[interior[len(interior) // 2]] += 1e-6
    moved = replace(coarse_mesh, nodes=nodes)
    for other in (generate_lshape_mesh(POLY, 0.2, levels=3), moved):
        u = mixed_solve(other, MAT, zero_g().traces)[-1]
        with pytest.raises(MeshMismatch):
            regular_part(u, rep)


@pytest.mark.parametrize("extract,family", [
    (extract_sifs_penalized, "lame"), (extract_sifs_stokes, "stokes")],
    ids=["penalized", "stokes"])
def test_report_carries_its_primal_modes(coarse_mesh, extract, family):
    data = ProblemData(polygon=POLY, mesh=coarse_mesh, material=MAT, g=zero_g())
    rep = extract(data)
    assert [(m.family, m.kind, m.index) for m in rep.modes] == [
        (family, "primal", 1), (family, "primal", 2)]
    table = exponent_table(family, FRAME.omega, MAT.C)
    assert [m.a for m in rep.modes] == list(table.exponents[:2])


def flip_one_diagonal(mesh):
    """The same nodes and boundary edges with one interior edge flipped."""
    opposite = {}
    for t, (p, q, r) in enumerate(mesh.tris):
        for a, b, c in ((p, q, r), (q, r, p), (r, p, q)):
            opposite[(a, b)] = (t, c)
    def cross(o, u, v):
        (x1, y1), (x2, y2) = mesh.nodes[u] - mesh.nodes[o], mesh.nodes[v] - mesh.nodes[o]
        return x1 * y2 - y1 * x2

    for (a, b), (t1, c) in opposite.items():
        if (b, a) not in opposite:
            continue
        t2, d = opposite[(b, a)]
        # (a, b, c) and (b, a, d) become (a, d, c) and (d, b, c) if both stay CCW.
        if cross(a, d, c) > 1e-12 and cross(d, b, c) > 1e-12:
            tris = mesh.tris.copy()
            tris[t1], tris[t2] = (a, d, c), (d, b, c)
            flipped = replace(mesh, tris=tris)
            flipped.validate()
            return flipped
    raise AssertionError("no flippable interior edge")


def test_mesh_checks_compare_connectivity(coarse_mesh):
    """A re-triangulation of the same nodes is another mesh."""
    flipped = flip_one_diagonal(coarse_mesh)
    assert np.array_equal(flipped.nodes, coarse_mesh.nodes)
    assert np.array_equal(flipped.bedges, coarse_mesh.bedges)
    data = ProblemData(polygon=POLY, mesh=coarse_mesh, material=MAT, g=zero_g())
    with pytest.raises(MeshMismatch):
        extract_sifs_penalized(replace(data, space=P2Space(flipped)))
    u = mixed_solve(coarse_mesh, MAT, zero_g().traces)[-1]
    v = mixed_solve(flipped, MAT, zero_g().traces)[-1]
    with pytest.raises(MeshMismatch):
        diff_norms(u, v)
    assert coarse_mesh.same_as(replace(coarse_mesh, nodes=coarse_mesh.nodes.copy()))


# -- functional-level properties ---------------------------------------------

def dual_weight(dual, psi):
    """_weight of (dual, psi) on the volume rule of psi's space."""
    x, w = _volume_rule(psi.space)
    return _weight(POLY, dual, psi, psi.material.mu, _weight_rules(POLY, x, w))


def pair(data, dual, psi):
    """The functional of data against the dual weight (dual, psi), and its terms."""
    x, _ = _volume_rule(psi.space)
    sample = _sample(psi.space, POLY, data.g.traces, data.f, data.zeta, x)
    return _ci_terms(dual_weight(dual, psi), sample)


def test_zero_data_gives_exact_zero(coarse_mesh):
    dual = make_mode("lame", "dual", 1, FRAME, MAT)
    (psi,) = solve_psi([dual], P2Space(coarse_mesh), MAT, POLY)
    data = ProblemData(polygon=POLY, mesh=coarse_mesh, material=MAT, g=zero_g())
    assert pair(data, dual, psi)[0] == 0.0
    assert extract_sifs_penalized(data).C1 == 0.0
    # A far edge without a trace is an error, not zero data.
    del data.g.traces[3]
    with pytest.raises(KeyError, match="no boundary data for edge 3"):
        extract_sifs_penalized(data)


def test_ci_linearity_in_f(coarse_mesh):
    dual = make_mode("lame", "dual", 2, FRAME, MAT)
    (psi,) = solve_psi([dual], P2Space(coarse_mesh), MAT, POLY)

    def f1(x, y):
        return np.stack([np.asarray(y, float), np.asarray(x, float) ** 2], axis=-1)

    def f2(x, y):
        return np.stack([np.cos(np.asarray(x, float)),
                         np.sin(np.asarray(y, float))], axis=-1)

    def combo(x, y):
        return 2.5 * f1(x, y) - 0.75 * f2(x, y)

    def make(f):
        return ProblemData(polygon=POLY, mesh=coarse_mesh, material=MAT,
                           g=zero_g(), f=f)

    a, b, c = (pair(make(f), dual, psi)[0] for f in (f1, f2, combo))
    assert abs(c - (2.5 * a - 0.75 * b)) < 1e-12 * max(abs(a), abs(b), abs(c))


def test_cstar_symmetric_domain_and_stub(coarse_mesh):
    """On the bisector-symmetric L-shape the cross coupling cancels."""
    primal1 = make_mode("lame", "primal", 1, FRAME, MAT)
    dual2 = make_mode("lame", "dual", 2, FRAME, MAT)
    (psi2,) = solve_psi([dual2], P2Space(coarse_mesh), MAT, POLY)
    weight = dual_weight(dual2, psi2)
    far = {e.tag: primal1.eval_xy for e in POLY.far_edges}
    val = _ci_terms(weight, _sample(psi2.space, POLY, far))[0]
    assert abs(val) < 1e-8
    far = {e.tag: zero_g().traces[e.tag] for e in POLY.far_edges}
    assert _ci_terms(weight, _sample(psi2.space, POLY, far))[0] == 0.0


def test_pure_zeta_stokes_against_brute_quadrature(coarse_mesh):
    smat = MaterialParams(1.0, 0.0)
    dual = make_mode("stokes", "dual", 1, FRAME, smat)
    (psi,) = solve_psi([dual], P2Space(coarse_mesh), smat, POLY)

    def zeta(x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        return x ** 3 - y ** 3

    data = ProblemData(polygon=POLY, mesh=coarse_mesh, material=smat,
                       g=zero_g(), zeta=zeta)
    got = pair(data, dual, psi)[0]

    # brute force: interior-point rule on a 4x uniform split of every element
    space = psi.space
    mesh = coarse_mesh
    total = 0.0
    for m in range(len(mesh.tris)):
        tri = mesh.nodes[mesh.tris[m]]
        for quad in _split4(tri):
            mids = pts_weights_bary() @ quad
            xs, ys = mids[:, 0], mids[:, 1]
            r = np.hypot(xs, ys)
            theta = np.arctan2(ys, xs)
            theta = np.where(theta < FRAME.omega1, theta + 2 * math.pi, theta)
            phid = smat.mu * dual.eval_pressure(r, theta)
            ref = space.to_reference(m, mids)
            psiv = psi.pressure_at(m, ref)
            area = _area(quad)
            total += -np.sum((area / len(mids)) * zeta(xs, ys) * (phid + psiv))
    assert abs(got - total) < 0.01 * max(abs(got), 1e-10)


def _split4(tri):
    a, b, c = tri
    ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
    return [np.array(t) for t in ((a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca))]


def pts_weights_bary():
    """Barycentric sample matrix (n, 3) for a small interior point cloud."""
    return np.array([
        [0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6], [1 / 3, 1 / 3, 1 / 3],
    ])


def _area(tri):
    (x0, y0), (x1, y1), (x2, y2) = tri
    return 0.5 * abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))


# -- vectorized functionals against element-by-element references ------------

@pytest.mark.parametrize("index", [1, 2])
def test_boundary_flux_is_the_galerkin_residual(coarse_mesh, index):
    """The corrector's boundary flux is its residual R, paired once per node.

    R (the velocity rows of K x_psi) vanishes off the boundary, and the
    corrector rows of the boundary terms, after each edge rule's points, add
    up to R . g over all boundary nodes, so a vertex shared by two edges is
    not counted twice.
    """
    dual = make_mode("lame", "dual", index, FRAME, MAT)
    (psi,) = solve_psi([dual], P2Space(coarse_mesh), MAT, POLY)
    space = psi.space
    A, Bx, By, _ = space.stokes_blocks
    R = np.concatenate([MAT.mu * (A @ psi.ux) - Bx.T @ psi.p,
                        MAT.mu * (A @ psi.uy) - By.T @ psi.p])
    interior = np.tile(space.interior, 2)
    assert np.abs(R[interior]).max() <= 1e-10 * np.linalg.norm(R)

    _, traces, _, _ = manufactured_fields("penalized", MAT, POLY)
    primal = make_mode("lame", "primal", 1, FRAME, MAT)
    zero = zero_g().traces
    far = {e.tag: primal.eval_xy for e in POLY.far_edges}
    weight = dual_weight(dual, psi)
    for trs, full in ((traces, traces), (far, {**zero, **far})):
        sample = _sample(space, POLY, trs)
        _, parts = _ci_terms(weight, sample)
        edges = [e for e in POLY.edges if e.tag in trs]
        assert list(parts) == [f"boundary_edge_{e.tag}" for e in edges]
        psi_parts = []
        for e in edges:
            key = f"boundary_edge_{e.tag}"
            psi_parts.append(np.sum((weight[key] * sample[key])[len(_edge_rule(e)[1]):]))
        want = R @ dirichlet_values(space, full)[:2 * space.n_scalar]
        scale = max(abs(want), *(abs(v) for v in parts.values()))
        assert abs(sum(psi_parts) - want) <= 1e-13 * scale


@pytest.mark.parametrize("index", [1, 2])
def test_corner_edge_integrals_mirror_each_other(coarse_mesh, index):
    """The L-shape is symmetric about theta = pi/4, and so are the two corner edges.

    The first corner edge starts at the corner and the last one ends there;
    both must be integrated to the same precision near the corner.  The
    analytic dual's part is the pairing on the edge rule's points.
    """
    dual = make_mode("lame", "dual", index, FRAME, MAT)
    (psi,) = solve_psi([dual], P2Space(coarse_mesh), MAT, POLY)
    weight = dual_weight(dual, psi)

    def g(x, y):
        return np.stack([x * x - 0.5 * y + x * y, 0.3 * x + y * y], axis=-1)

    def g_mirror(x, y):
        return g(y, x)[..., ::-1]

    edges = (POLY.edges[0], POLY.edges[-1])
    sample = _sample(psi.space, POLY, {edges[0].tag: g, edges[1].tag: g_mirror})
    first, last = (
        np.sum((weight[k] * sample[k])[:len(_edge_rule(e)[1])])
        for e in edges for k in [f"boundary_edge_{e.tag}"])
    # The first mode is odd about the bisector, the second even.
    assert abs(last - (-1) ** index * first) <= 1e-13 * abs(first)


def graded_tri_recursion(a, b, c, func, depth=CORNER_DEPTH):
    """Degree-8 rule on each triangle of the stack halving (a, b, c) toward a."""
    pts, w = tri_quadrature(8)

    def deg8(p0, p1, p2):
        e1, e2 = p1 - p0, p2 - p0
        area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
        x = p0 + pts[:, :1] * e1 + pts[:, 1:] * e2
        return area * (w @ func(x[:, 0], x[:, 1]))

    total = 0.0
    for _ in range(depth):
        mab, mca, mbc = 0.5 * (a + b), 0.5 * (c + a), 0.5 * (b + c)
        total += deg8(mab, b, mbc) + deg8(mca, mbc, c) + deg8(mab, mbc, mca)
        b, c = mab, mca
    return total + deg8(a, b, c)


def integrate(space, func):
    """func integrated on the volume rule of space."""
    x, w = _volume_rule(space)
    return float(func(x[:, 0], x[:, 1]) @ w)


def corner_elements(mesh):
    """Each element at the corner as a one-element space, corner node first."""
    for tri in mesh.tris:
        v = mesh.nodes[tri]
        if np.hypot(v[:, 0], v[:, 1]).min() < 1e-12:
            one = TriMesh(nodes=v, tris=np.array([[0, 1, 2]]),
                          bedges=np.array([[0, 1, 1], [1, 2, 2], [2, 0, 3]]))
            k = int(np.argmin(np.hypot(v[:, 0], v[:, 1])))
            yield P2Space(one), np.roll(v, -k, axis=0)


@pytest.mark.parametrize("lam", [0.5444837, 0.9085292])
def test_graded_rule_matches_subdivision_recursion(coarse_mesh, lam):
    def func(x, y):
        return np.hypot(x, y) ** (lam - 1.0) * (1.0 + x - 2.0 * y + 3.0 * x * y)

    spaces = list(corner_elements(coarse_mesh))
    assert len(spaces) >= 4
    for space, (a, b, c) in spaces:
        want = graded_tri_recursion(a, b, c, func)
        assert abs(integrate(space, func) - want) <= 1e-13 * abs(want)


def test_graded_rule_is_exact_for_degree_8(coarse_mesh):
    """Positive barycentric monomials of total degree 8 on every corner element."""
    rng = np.random.default_rng(7)
    powers = [(i, j, 8 - i - j) for i in range(9) for j in range(9 - i)]
    coef = rng.uniform(0.5, 1.5, len(powers))
    for space, v in corner_elements(coarse_mesh):
        T = np.stack([v[1] - v[0], v[2] - v[0]], axis=-1)

        def poly(x, y):
            l2, l3 = np.linalg.solve(T, np.stack([x - v[0, 0], y - v[0, 1]]))
            bary = (1.0 - l2 - l3, l2, l3)
            return sum(c * bary[0] ** i * bary[1] ** j * bary[2] ** k
                       for c, (i, j, k) in zip(coef, powers))

        area = space.areas[0]
        exact = sum(c * 2.0 * area * math.factorial(i) * math.factorial(j)
                    * math.factorial(k) / math.factorial(10)
                    for c, (i, j, k) in zip(coef, powers))
        assert abs(integrate(space, poly) - exact) <= 1e-14 * exact


# -- invariance ----------------------------------------------------------------

ROTATION = 0.37


def rotated(field):
    """The vector field x -> R field(R^T x), R the rotation by ROTATION."""
    c, s = math.cos(ROTATION), math.sin(ROTATION)
    R = np.array([[c, -s], [s, c]])

    def out(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return np.asarray(field(c * x + s * y, -s * x + c * y)) @ R.T

    return out, R


@pytest.mark.parametrize("case, extract, material", [
    ("penalized", extract_sifs_penalized, MAT),
    ("stokes", extract_sifs_stokes, MaterialParams(1.0, 0.0))])
def test_coefficients_invariant_under_rotation(coarse_mesh, case, extract,
                                               material):
    """Rotating the domain, mesh and data together leaves c1 and c2 alone.

    The rotated interior straddles the arctan2 branch cut at theta = pi.
    """
    data, _ = manufactured_data(coarse_mesh, case, material)
    rep = extract(data)
    f, R = rotated(data.f)
    polygon = build_polygon(lshape_vertices(1.0) @ R.T)
    assert polygon.omega2 > math.pi
    traces = {t: rotated(g)[0] for t, g in data.g.traces.items()}
    turned = extract(replace(
        data, polygon=polygon, f=f, g=BoundaryData(traces=traces, zeta=None),
        mesh=replace(coarse_mesh, nodes=coarse_mesh.nodes @ R.T)))
    for key in ("c1", "c2"):
        want = getattr(rep, key)
        assert abs(getattr(turned, key) - want) <= 1e-9 * abs(want)


def extract_on_lshape(extract, size, material, f, traces, zeta):
    """extract on lshape_polygon(size), meshed at h = 0.1 size, so every size
    gets the same mesh scaled."""
    poly = lshape_polygon(size)
    return extract(ProblemData(
        polygon=poly, mesh=generate_lshape_mesh(poly, 0.1 * size, levels=6),
        material=material, g=BoundaryData(traces), f=f, zeta=zeta))


@pytest.mark.parametrize("key", list(INHOMOGENEOUS))
def test_coefficients_scale_with_the_domain(key):
    """Domain and mesh scaled by s, data f(x/s)/s^2, g(x/s), zeta(x/s)/s: the
    solution is u(x/s), so c_i s^lambda_i does not change."""
    extract, material, f, traces, zeta, _ = inhomogeneous_case(key)
    s = 2.0
    rep = extract_on_lshape(extract, 1.0, material, f, traces, zeta)
    scaled = extract_on_lshape(
        extract, s, material, lambda x, y: f(x / s, y / s) / s ** 2,
        {t: (lambda x, y, _g=g: _g(x / s, y / s)) for t, g in traces.items()},
        None if zeta is None else (lambda x, y: zeta(x / s, y / s) / s))
    for c, c_s, mode in zip((rep.c1, rep.c2), (scaled.c1, scaled.c2), scaled.modes):
        assert abs(c_s * s ** mode.a - c) <= 1e-10 * abs(c)


@pytest.mark.parametrize("key", list(INHOMOGENEOUS))
def test_coefficients_under_scaled_viscosity(key):
    """mu -> t mu and f -> t f keep the velocity and multiply the pressure by
    t.  Penalized, eps -> eps/t keeps C = 1 + 2 mu eps and c; Stokes modes
    carry 1/mu, so c is multiplied by t, as the sweep's dc = c - c_ref/mu
    assumes."""
    extract, material, f, traces, zeta, _ = inhomogeneous_case(key)
    t = 3.0
    rep = extract_on_lshape(extract, 1.0, material, f, traces, zeta)
    stiff = MaterialParams(t * material.mu, material.eps / t)
    other = extract_on_lshape(extract, 1.0, stiff, lambda x, y: t * f(x, y), traces, zeta)
    factor = t if material.eps == 0.0 else 1.0
    for name in ("c1", "c2"):
        want = factor * getattr(rep, name)
        assert abs(getattr(other, name) - want) <= 1e-10 * abs(want)


# -- reuse of the data-independent half --------------------------------------

def fresh_copy(mesh):
    """An equal mesh that is a different object."""
    return replace(mesh, nodes=mesh.nodes.copy())


def report_hex(rep):
    """float.hex of c1, c2, C1, C2, C* and of every number in terms."""
    out = [(k, float(getattr(rep, k)).hex())
           for k in ("c1", "c2", "C1", "C2", "Cstar")]

    def walk(key, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{key}.{k}", v)
        elif isinstance(value, list):
            for i, v in enumerate(value):
                walk(f"{key}[{i}]", v)
        else:
            out.append((key, float(value).hex()))

    walk("terms", rep.terms)
    return out


@pytest.mark.parametrize("case, extract, material", [
    ("penalized", extract_sifs_penalized, MAT),
    ("stokes", extract_sifs_stokes, MaterialParams(1.0, 0.0))])
def test_warm_extraction_is_bit_identical_to_cold(coarse_mesh, monkeypatch,
                                                  case, extract, material):
    mesh = fresh_copy(coarse_mesh)
    data, _ = manufactured_data(mesh, case, material)
    calls = count_factorizations(monkeypatch)
    extract(replace(data, f=None, g=zero_g()))
    warm = extract(data)
    assert len(calls) == FACTORS_PER_SPACE
    cold = extract(replace(data, mesh=fresh_copy(coarse_mesh)))
    assert len(calls) == 2 * FACTORS_PER_SPACE
    assert report_hex(warm) == report_hex(cold)


def test_dual_weights_reused_per_mesh_and_material(coarse_mesh, monkeypatch):
    mesh = fresh_copy(coarse_mesh)
    data, _ = manufactured_data(mesh, "penalized", MAT)
    calls = count_factorizations(monkeypatch)
    for d in (data, replace(data, f=None), replace(data, g=zero_g())):
        extract_sifs_penalized(d)
    assert len(calls) == FACTORS_PER_SPACE
    # Another material on the same mesh keeps the memo's space and its factors.
    extract_sifs_penalized(replace(data, material=MaterialParams(1.0, 1e-2)))
    assert len(calls) == FACTORS_PER_SPACE
    extract_sifs_penalized(replace(data, mesh=fresh_copy(mesh)))
    assert len(calls) == 2 * FACTORS_PER_SPACE


def test_warm_extraction_reuses_the_volume_rule(coarse_mesh, monkeypatch):
    """The memo keeps the volume rule, read-only: a warm extraction builds
    none, and its report is bit-identical to the cold one.  The rule depends
    on the mesh alone, so another material on the mesh builds none either."""
    mesh = fresh_copy(coarse_mesh)
    data, _ = manufactured_data(mesh, "penalized", MAT)
    rules = []

    def counting(space):
        rules.append(_volume_rule(space))
        return rules[-1]

    monkeypatch.setattr(sif_lab.extraction, "_volume_rule", counting)
    cold = extract_sifs_penalized(data)
    assert len(rules) == 1
    assert not any(a.flags.writeable for a in rules[0])
    extract_sifs_penalized(replace(data, g=zero_g()))
    warm = extract_sifs_penalized(data)
    assert len(rules) == 1
    assert report_hex(warm) == report_hex(cold)
    extract_sifs_penalized(replace(data, material=MaterialParams(1.3, 1e-2)))
    assert len(rules) == 1
    extract_sifs_penalized(replace(data, mesh=fresh_copy(mesh)))
    assert len(rules) == 2


def moved_nodes(mesh, seed):
    """The nodes of mesh with its interior ones moved by up to 1e-6."""
    nodes = mesh.nodes.copy()
    interior = np.setdiff1d(np.arange(mesh.n_nodes), mesh.bedges[:, :2])
    nodes[interior] += np.random.default_rng(seed).uniform(-1e-6, 1e-6, (len(interior), 2))
    return nodes


def test_kept_points_never_cross_meshes_or_polygons(coarse_mesh, monkeypatch):
    """An extraction on a fresh mesh of the same size, made after the last
    one is freed, and one on a new polygon object over the same mesh, are
    each bit-identical to a cold extraction: the sample's points pass to
    no other mesh or polygon.  No point set outlives the memo, so none can
    be served to a later mesh at a freed one's address."""
    data, _ = manufactured_data(coarse_mesh, "penalized", MAT)
    nodes = [moved_nodes(coarse_mesh, seed) for seed in range(3)]

    def cold(**changes):
        sif_lab.extraction._last_weights = None
        return report_hex(extract_sifs_penalized(replace(data, **changes)))

    want = [cold(mesh=replace(coarse_mesh, nodes=n)) for n in nodes]
    assert len({tuple(w) for w in want}) == 3    # the meshes give other bits
    built = []    # (polygon, weak reference) of each point set built
    build = sif_lab.extraction._sample_points

    def counted(*args):
        points = build(*args)
        built.append((args[1], weakref.ref(points)))
        return points

    monkeypatch.setattr(sif_lab.extraction, "_sample_points", counted)
    for free in (False, True):
        for n, hexes in zip(nodes, want):
            mesh = replace(coarse_mesh, nodes=n)
            assert report_hex(extract_sifs_penalized(replace(data, mesh=mesh))) == hexes
            if free:    # the memo too, so that the next mesh may take its place
                del mesh
                sif_lab.extraction._last_weights = None
                gc.collect()
                assert all(ref() is None for _, ref in built)
    assert len(built) == 6
    mesh = replace(coarse_mesh, nodes=nodes[0])
    extract_sifs_penalized(replace(data, mesh=mesh))
    polygon = lshape_polygon(1.0)
    assert polygon is not POLY
    again = report_hex(extract_sifs_penalized(replace(data, mesh=mesh, polygon=polygon)))
    assert len(built) == 8 and built[-1][0] is polygon
    assert again == want[0] == cold(mesh=mesh, polygon=polygon)


def test_warm_extraction_still_checks_its_input(coarse_mesh, monkeypatch):
    mesh = fresh_copy(coarse_mesh)
    data, _ = manufactured_data(mesh, "penalized", MAT)
    space = P2Space(mesh)
    other = P2Space(generate_lshape_mesh(POLY, 0.2, levels=3))
    extract_sifs_penalized(data)
    calls = count_factorizations(monkeypatch)
    const = lambda x, y: np.stack([np.ones(np.shape(x)), np.zeros(np.shape(x))],
                                  axis=-1)
    with pytest.raises(CornerDataNonzero):
        extract_sifs_penalized(replace(data, g=BoundaryData(
            traces={e.tag: const for e in POLY.edges}, zeta=None)))
    with pytest.raises(MeshMismatch):
        extract_sifs_penalized(replace(data, space=other))
    extract_sifs_penalized(replace(data, space=space))
    assert calls == []


@pytest.mark.parametrize("key", ["penalized-zeta", "stokes"])
def test_warm_extraction_evaluates_no_mode(coarse_mesh, monkeypatch, key):
    """A warm extraction pairs one sample of the data with the kept weights.

    It evaluates no mode and calls f, zeta and each trace once: a trace on
    its edge rule's points, its boundary nodes and its two end vertices.
    """
    mesh = fresh_copy(coarse_mesh)
    _, w, minus_lap_w, zeta = INHOMOGENEOUS[key]
    material = MaterialParams(1.0, 1e-3 if key.startswith("penalized") else 0.0)
    data = ProblemData(polygon=POLY, mesh=mesh, material=material, zeta=zeta,
                       g=BoundaryData({e.tag: w for e in POLY.edges}), f=minus_lap_w)
    extract = extract_sifs_stokes if key == "stokes" else extract_sifs_penalized
    cold = extract(data)
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append((name, np.size(args[-1])))
            return fn(*args)
        return wrapper

    for name in ("eval", "eval_xy", "eval_grad", "eval_div_scaled", "eval_pressure"):
        monkeypatch.setattr(SingularMode, name, counted("mode", getattr(SingularMode, name)))
    traces = {e.tag: counted(e.tag, w) for e in POLY.edges}
    warm = extract(replace(data, f=counted("f", minus_lap_w),
                           zeta=None if zeta is None else counted("zeta", zeta),
                           g=BoundaryData(traces)))
    assert report_hex(warm) == report_hex(cold)
    names = [name for name, _ in calls]
    assert "mode" not in names
    assert names.count("f") == 1
    assert names.count("zeta") == (zeta is not None)
    for e, dofs in _edge_dofs(P2Space(mesh), POLY):
        sizes = [n for name, n in calls if name == e.tag]
        assert sizes == [len(_edge_rule(e)[1]) + len(dofs) + 2]
    # The count is live: a cold extraction evaluates the modes.
    extract(replace(data, mesh=fresh_copy(coarse_mesh)))
    assert "mode" in [name for name, _ in calls]


def test_warm_sample_holds_the_raw_values(coarse_mesh, monkeypatch):
    """A warm extraction pairs views of the one f and zeta results with the
    kept weights: every volume entry of its sample shares memory with them,
    and it builds no vector over the dofs (no load vector)."""
    mesh = fresh_copy(coarse_mesh)
    _, w, minus_lap_w, zeta = INHOMOGENEOUS["penalized-zeta"]
    data = ProblemData(polygon=POLY, mesh=mesh, material=MAT, zeta=zeta,
                       g=BoundaryData({e.tag: w for e in POLY.edges}), f=minus_lap_w)
    cold = extract_sifs_penalized(data)
    space = sif_lab.extraction._last_weights.space
    results, samples, sizes = {}, [], []

    def kept(name, fn):
        def wrapper(x, y):
            results[name] = fn(x, y)
            return results[name]
        return wrapper

    def recorded(weight, sample):
        samples.append(sample)
        return _ci_terms(weight, sample)

    def zeros(shape, *args, _zeros=np.zeros, **kwargs):
        sizes.append(np.prod(shape))
        return _zeros(shape, *args, **kwargs)

    monkeypatch.setattr(sif_lab.extraction, "_ci_terms", recorded)
    monkeypatch.setattr(np, "zeros", zeros)
    warm = extract_sifs_penalized(replace(data, f=kept("f", minus_lap_w),
                                          zeta=kept("zeta", zeta)))
    monkeypatch.undo()
    assert report_hex(warm) == report_hex(cold)
    assert len(samples) == 2 and samples[0] is samples[1]
    sample = samples[0]
    for key in ("volume_f_psi", "volume_f_dual", "volume_zeta_psi", "volume_zeta_dual"):
        assert np.shares_memory(sample[key], results[key.split("_")[1]]), key
    dof_sizes = {space.n_dofs, 2 * space.n_scalar, space.mesh.n_nodes}
    assert not dof_sizes & {np.size(v) for v in sample.values()}
    assert not dof_sizes & set(sizes)


@pytest.mark.parametrize("h", [0.25, 0.1])
@pytest.mark.parametrize("extract, modes, material", [
    (extract_sifs_penalized, "lame", MAT),
    (extract_sifs_stokes, "stokes", MaterialParams(1.0, 0.0))])
def test_pointwise_corrector_weights_are_the_load_pairing(h, extract, modes, material):
    """The kept weights of the corrector, paired with the raw values of f and
    zeta, are x_psi . load_vector(space, f, zeta): the transpose of the load
    assembly.  Zero data pairs to exactly 0."""
    mesh = generate_lshape_mesh(POLY, h, levels=5)
    extract(ProblemData(polygon=POLY, mesh=mesh, material=material, g=zero_g()))
    kept = sif_lab.extraction._last_weights
    space = kept.space
    duals = [make_mode(modes, "dual", i, FRAME, material)
             for i in range(1, len(kept.weights) + 1)]
    psi = solve_psi(duals, space, material, POLY)
    a = np.random.default_rng(int(100 * h)).uniform(-1.0, 1.0, (3, 6))

    def poly(c, x, y):
        return c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y

    def f(x, y):
        return np.stack([poly(a[0], x, y), poly(a[1], x, y)], axis=-1)

    def zeta(x, y):
        return poly(a[2], x, y)

    def zero_f(x, y):
        return np.zeros(np.shape(x) + (2,))

    def zero_zeta(x, y):
        return np.zeros(np.shape(x))

    load = load_vector(space, f, zeta)
    sample = _sample(space, POLY, {}, f, zeta, kept.points)
    zero = _sample(space, POLY, {}, zero_f, zero_zeta, kept.points)
    for weight, p in zip(kept.weights, psi):
        terms = _ci_terms(weight, sample)[1]
        got = terms["volume_f_psi"] + terms["volume_zeta_psi"]
        want = float(np.concatenate([p.ux, p.uy, p.p]) @ load)
        assert abs(got - want) <= 1e-13 * abs(want), (got, want)
        terms = _ci_terms(weight, zero)[1]
        assert terms["volume_f_psi"] == terms["volume_zeta_psi"] == 0.0


def test_extraction_keeps_no_operator(coarse_mesh, monkeypatch):
    """A cold extraction given a factored space factors nothing."""
    mesh = fresh_copy(coarse_mesh)
    space = P2Space(mesh)
    space.stiffness_lu, space.mass_lu  # factored before the extraction
    calls = count_factorizations(monkeypatch)
    rep = extract_sifs_penalized(
        ProblemData(polygon=POLY, mesh=mesh, material=MAT, g=zero_g(), space=space))
    assert rep.c1 == 0.0 and calls == []


# -- guards ------------------------------------------------------------------

def test_corner_data_nonzero_rejected(coarse_mesh):
    const = lambda x, y: np.stack([np.ones(np.shape(x)), np.zeros(np.shape(x))],
                                  axis=-1)
    g = BoundaryData(traces={e.tag: const for e in POLY.edges}, zeta=None)
    data = ProblemData(polygon=POLY, mesh=coarse_mesh, material=MAT, g=g)
    with pytest.raises(CornerDataNonzero):
        extract_sifs_penalized(data)


def test_zeta_corner_nonzero_rejected(coarse_mesh):
    data = ProblemData(polygon=POLY, mesh=coarse_mesh, material=MAT, g=zero_g(),
                       zeta=lambda x, y: np.ones(np.shape(x)))
    for extract in (extract_sifs_stokes, extract_sifs_penalized):
        with pytest.raises(ZetaCornerNonzero):
            extract(data)


def test_stokes_rejects_incompatible_flux_before_any_solve(coarse_mesh, monkeypatch):
    """g = (x^2 + 3y^2, -2xy) has no net flux, but zeta = 2x + xy integrates to
    0.75 over the L-shape: the Stokes problem has no solution."""
    g = _vec(lambda x, y: x * x + 3.0 * y * y, lambda x, y: -2.0 * x * y)
    data = ProblemData(polygon=POLY, mesh=fresh_copy(coarse_mesh), material=MAT,
                       g=BoundaryData(traces={e.tag: g for e in POLY.edges}),
                       zeta=lambda x, y: 2.0 * x + x * y)
    calls = count_factorizations(monkeypatch)
    with pytest.raises(IncompatibleFlux, match="zeta integrates to 0.75"):
        extract_sifs_stokes(data)
    assert calls == []
    # The penalized problem is well posed with net flux.
    assert np.isfinite(extract_sifs_penalized(data).c2)
    assert len(calls) == FACTORS_PER_SPACE


def test_cold_stokes_extraction_with_zeta_builds_one_space(coarse_mesh, monkeypatch):
    """The flux check and the correctors share the space of the mesh."""
    spaces, init = [], P2Space.__init__

    def counting(self, mesh):
        spaces.append(mesh)
        init(self, mesh)

    monkeypatch.setattr(P2Space, "__init__", counting)
    g = _vec(lambda x, y: x * x * y, lambda x, y: 0.0)
    data = ProblemData(polygon=POLY, mesh=fresh_copy(coarse_mesh),
                       material=MaterialParams(1.0, 0.0),
                       g=BoundaryData(traces={e.tag: g for e in POLY.edges}),
                       zeta=lambda x, y: 2.0 * x * y)
    assert np.isfinite(extract_sifs_stokes(data).c2)
    assert len(spaces) == 1


def test_trace_jump_at_a_vertex_rejected(coarse_mesh, monkeypatch):
    """Edge 4 starts at (1, 1) with the value (2, 0), edge 3 ends there with 0."""
    zero = lambda x, y: np.zeros(np.shape(x) + (2,))
    traces = {e.tag: zero for e in POLY.edges}
    traces[4] = _vec(lambda x, y: x + 1.0, lambda x, y: 0.0)
    mesh = fresh_copy(coarse_mesh)
    data = ProblemData(polygon=POLY, mesh=mesh, material=MAT,
                       g=BoundaryData(traces=traces))
    calls = count_factorizations(monkeypatch)
    for extract in (extract_sifs_penalized, extract_sifs_stokes):
        with pytest.raises(InconsistentEdgeData,
                           match=r"edges 3 and 4 differ at the vertex \(1, 1\)"):
            extract(data)
    assert calls == []
    # A solve on the same data raises the same error.
    with pytest.raises(InconsistentEdgeData):
        dirichlet_values(P2Space(mesh), traces)


def test_penalized_requires_positive_eps(coarse_mesh):
    data = ProblemData(polygon=POLY, mesh=coarse_mesh,
                       material=MaterialParams(1.0, 0.0), g=zero_g())
    with pytest.raises(ValueError):
        extract_sifs_penalized(data)


def test_scaling_data_scales_coefficients(coarse_mesh):
    data, _ = manufactured_data(coarse_mesh, "penalized", MAT)
    rep1 = extract_sifs_penalized(data)
    f0, g0 = data.f, data.g

    def f2(x, y):
        return 2.0 * f0(x, y)

    g2 = BoundaryData(
        traces={t: (lambda x, y, _g=fn: 2.0 * _g(x, y))
                for t, fn in g0.traces.items()}, zeta=None)
    rep2 = extract_sifs_penalized(
        ProblemData(polygon=POLY, mesh=coarse_mesh, material=MAT, g=g2, f=f2))
    assert abs(rep2.c1 - 2.0 * rep1.c1) < 1e-10 * abs(rep1.c1)
    assert abs(rep2.c2 - 2.0 * rep1.c2) < 1e-10 * abs(rep1.c2)
