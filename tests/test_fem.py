"""Mixed FEM layer: manufactured convergence, stability in eps, solver checks."""

import math

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
import sympy as sp

import sif_lab.fem
from sif_lab.extraction import ProblemData, extract_sifs_penalized, solve_psi
from sif_lab.fem import (InconsistentEdgeData, MissingEdgeData, MixedField,
                         P2Space, SolverBreakdown, diff_norms,
                         dirichlet_values, error_norms, load_vector, norms,
                         p1_shape, p2_shape,
                         p2_shape_grad, second_equation_residual,
                         tri_quadrature)
from sif_lab.geometry import (BoundaryData, TriMesh, generate_lshape_mesh,
                              generate_square_mesh, lshape_polygon)
from sif_lab.modes import make_mode
from sif_lab.spectral import MaterialParams


def manufactured_square(mu, eps):
    """Smooth exact pair on the unit square with div u = -eps*p + zeta trick.

    u is divergence-free, p is smooth; the same pair solves the penalized
    system for every eps when zeta = eps*p is fed to the second equation.
    """
    x, y = sp.symbols("x y")
    phi = (sp.sin(sp.pi * x) * sp.sin(sp.pi * y)) ** 2
    ux_s = sp.diff(phi, y)
    uy_s = -sp.diff(phi, x)
    p_s = sp.cos(sp.pi * x) * sp.sin(sp.pi * y)
    fx_s = -mu * (sp.diff(ux_s, x, 2) + sp.diff(ux_s, y, 2)) + sp.diff(p_s, x)
    fy_s = -mu * (sp.diff(uy_s, x, 2) + sp.diff(uy_s, y, 2)) + sp.diff(p_s, y)

    lam = lambda e: sp.lambdify((x, y), e, "numpy")
    ux_f, uy_f, p_f = lam(ux_s), lam(uy_s), lam(p_s)
    fx_f, fy_f = lam(fx_s), lam(fy_s)
    gux = [lam(sp.diff(ux_s, v)) for v in (x, y)]
    guy = [lam(sp.diff(uy_s, v)) for v in (x, y)]

    def velocity(xx, yy):
        return np.stack([ux_f(xx, yy), uy_f(xx, yy)], axis=-1)

    def velocity_grad(xx, yy):
        return np.stack([
            np.stack([gux[0](xx, yy), gux[1](xx, yy)], axis=-1),
            np.stack([guy[0](xx, yy), guy[1](xx, yy)], axis=-1)], axis=-2)

    def pressure(xx, yy):
        return p_f(xx, yy)

    def f(xx, yy):
        return np.stack([fx_f(xx, yy), fy_f(xx, yy)], axis=-1)

    def zeta(xx, yy):
        return eps * p_f(xx, yy)

    return velocity, velocity_grad, pressure, f, zeta


def constrained_dofs(space):
    """Mask of the dofs a solve prescribes: both velocity components of every
    boundary P2 node."""
    free = space.interior
    return np.concatenate([~free, ~free, np.zeros(space.mesh.n_nodes, dtype=bool)])


def mixed_solve(mesh, material, traces, f=None, zeta=None):
    """One solve on a new P2Space: (constrained dofs, rhs, boundary values, field)."""
    space = P2Space(mesh)
    rhs, values = load_vector(space, f, zeta), dirichlet_values(space, traces)
    return constrained_dofs(space), rhs, values, space.solve(material, rhs, values)


def solve_square(n, mu, eps):
    velocity, velocity_grad, pressure, f, zeta = manufactured_square(mu, eps)
    mesh = generate_square_mesh(n, 1.0)
    traces = {tag: velocity for tag in (1, 2, 3, 4)}
    field = mixed_solve(mesh, MaterialParams(mu, eps), traces, f, zeta)[-1]
    err = error_norms(field, velocity, velocity_grad, pressure)
    return field, err


def grid_mean_pressure(field):
    return float(np.mean(field.p))


def test_manufactured_convergence_rates():
    mu, eps = 1.0, 1e-2
    errs = [solve_square(n, mu, eps)[1] for n in (5, 10, 20)]
    for a, b in zip(errs, errs[1:]):
        rate_u = math.log2(a["h1"] / b["h1"])
        assert rate_u > 1.7
    # pressure differs from the exact one by the mean gauge at eps>0? no gauge
    # at eps>0: the mixed second equation pins the level through zeta = eps*p.
    rate_p = math.log2(errs[0]["l2_pressure"] / errs[-1]["l2_pressure"]) / 2.0
    assert rate_p > 1.5


def test_no_locking_in_small_eps():
    _, e2 = solve_square(12, 1.0, 1e-2)
    _, e6 = solve_square(12, 1.0, 1e-6)
    assert e6["h1"] < 2.0 * e2["h1"]


def test_stokes_limit_matches_small_eps_velocity():
    f1, _ = solve_square(8, 1.0, 1e-8)
    velocity, velocity_grad, pressure, f, _ = manufactured_square(1.0, 0.0)
    mesh = generate_square_mesh(8, 1.0)
    field = mixed_solve(mesh, MaterialParams(1.0, 0.0),
                        {t: velocity for t in (1, 2, 3, 4)}, f)[-1]
    d = diff_norms(f1, field)
    assert d["h1"] < 1e-6 * norms(field)["h1"]


@pytest.mark.parametrize("h", [0.1, 0.05])
def test_norms_as_quadratic_forms_match_quadrature(h):
    """norms reads quadratic forms of A and the two masses; error_norms against
    zero fields integrates the same polynomials by the degree-8 rule."""
    velocity, _, _, f, zeta = manufactured_square(1.0, 1e-3)
    mesh = generate_lshape_mesh(lshape_polygon(1.0), h, levels=6)
    traces = {int(t): velocity for t in np.unique(mesh.bedges[:, 2])}
    field = mixed_solve(mesh, MaterialParams(1.0, 1e-3), traces, f, zeta)[-1]
    zero = lambda x, y: 0.0
    quad, forms = error_norms(field, zero, zero, zero), norms(field)
    assert list(forms) == list(quad)
    for k, v in quad.items():
        assert forms[k] == pytest.approx(v, rel=1e-13, abs=0.0), k
    # a constant field: no seminorm left over from rounding, and the L2 norms
    # are its size times sqrt(|Omega|)
    const = MixedField(space=field.space, material=field.material,
                       ux=np.full_like(field.ux, 2.5), uy=np.full_like(field.uy, -1.0),
                       p=np.ones_like(field.p))
    nc = norms(const)
    assert nc["h1_seminorm"] < 1e-12
    assert nc["l2_velocity"] == pytest.approx(math.hypot(2.5, 1.0) * nc["l2_pressure"],
                                              rel=1e-13)


def test_discrete_second_equation_residual_is_machine_zero():
    # no divergence source: div u + eps*p must vanish weakly to solver precision
    velocity, _, _, f, _ = manufactured_square(1.0, 1e-3)
    mesh = generate_square_mesh(8, 1.0)
    field = mixed_solve(mesh, MaterialParams(1.0, 1e-3),
                        {t: velocity for t in (1, 2, 3, 4)}, f)[-1]
    assert second_equation_residual(field) < 1e-12


def test_galerkin_residual_probe():
    velocity, _, _, f, zeta = manufactured_square(1.0, 1e-3)
    mesh = generate_square_mesh(8, 1.0)
    con, rhs, values, field = mixed_solve(
        mesh, MaterialParams(1.0, 1e-3), {t: velocity for t in (1, 2, 3, 4)}, f, zeta)
    x = np.concatenate([field.ux, field.uy, field.p])
    K = sif_lab.fem._mixed_matrix(field.space, field.material)
    resid = (K @ np.where(con, values, x) - rhs)[~con]
    scale = max(np.linalg.norm(rhs), 1.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.standard_normal(resid.shape)
        assert abs(v @ resid) <= 1e-9 * scale * np.linalg.norm(v)


def _reference_p2_numbering(mesh):
    """Element-by-element P2 numbering: vertices first, then edge midpoints in
    order of first use."""
    N = mesh.n_nodes
    index, tri_dofs = {}, []
    for a, b, c in mesh.tris.tolist():
        row = [a, b, c]
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(u, v), max(u, v))
            index.setdefault(key, N + len(index))
            row.append(index[key])
        tri_dofs.append(row)
    coords = list(mesh.nodes) + [0.5 * (mesh.nodes[u] + mesh.nodes[v]) for u, v in index]
    keys = [(min(i, j), max(i, j)) for i, j, _ in mesh.bedges.tolist()]
    by_tag = {}
    for (i, j), tag in zip(keys, mesh.bedges[:, 2].tolist()):
        by_tag.setdefault(tag, set()).update((i, j, index[(i, j)]))
    return (np.array(tri_dofs), np.array(coords),
            {tag: sorted(d) for tag, d in by_tag.items()})


def _shuffled(mesh, seed=0):
    """The same mesh with its triangles reordered and their vertices rotated."""
    rng = np.random.default_rng(seed)
    tris = mesh.tris[rng.permutation(len(mesh.tris))]
    shift = rng.integers(0, 3, len(tris))
    tris = np.stack([np.roll(t, -s) for t, s in zip(tris, shift)])
    return TriMesh(nodes=mesh.nodes, tris=tris, bedges=mesh.bedges[::-1].copy())


@pytest.mark.parametrize("make", [
    lambda: generate_square_mesh(4, 1.0),
    lambda: generate_lshape_mesh(lshape_polygon(1.0), 0.25, levels=3),
    lambda: _shuffled(generate_lshape_mesh(lshape_polygon(1.0), 0.25, levels=3)),
], ids=["square", "lshape", "lshape-shuffled"])
def test_p2_numbering_matches_reference_loop(make):
    mesh = make()
    mesh.validate()
    space = P2Space(mesh)
    tri_dofs, coords, boundary = _reference_p2_numbering(mesh)
    assert np.array_equal(space.tri_dofs, tri_dofs)
    assert np.array_equal(space.dof_coords, coords)
    assert space.n_scalar == len(coords)
    assert list(space.boundary_dofs) == list(boundary)
    for tag, dofs in boundary.items():
        assert space.boundary_dofs[tag].tolist() == dofs


def test_basis_grad_matches_per_element_map():
    space = P2Space(_shuffled(generate_lshape_mesh(lshape_polygon(1.0), 0.25, levels=3)))
    pts = tri_quadrature(8)[0]
    G = space.basis_grad(pts)
    assert G.shape == (len(space.mesh.tris), len(pts), 6, 2)
    for m in range(len(space.mesh.tris)):
        assert np.allclose(G[m], p2_shape_grad(pts) @ space.invJ[m], rtol=0, atol=1e-13)


def test_p2_shape_grad_matches_central_differences():
    """Central differences of a quadratic are exact up to rounding, so they
    check p2_shape_grad independently of its own construction."""
    pts = np.random.default_rng(4).random((40, 2)) * 0.5
    h = 1e-4
    for d in (0, 1):
        step = h * np.eye(2)[d]
        fd = (p2_shape(pts + step) - p2_shape(pts - step)) / (2 * h)
        assert np.allclose(p2_shape_grad(pts)[..., d], fd, rtol=0, atol=1e-9)


@pytest.mark.parametrize("degree", [5, 8])
def test_rule_weights_sum_to_the_area(degree):
    poly = lshape_polygon(1.0)
    space = P2Space(generate_lshape_mesh(poly, 0.25, levels=3))
    pts, x, w = space.rule(degree)
    m = len(space.mesh.tris)
    assert x.shape == (m, len(pts), 2) and w.shape == (m, len(pts))
    assert np.allclose(w.sum(axis=1), space.mesh.areas(), rtol=1e-14, atol=0)
    assert w.sum() == pytest.approx(poly.area, rel=1e-13)


def test_field_values_and_gradient_match_element_loops():
    mesh = _shuffled(generate_lshape_mesh(lshape_polygon(1.0), 0.25, levels=3))
    rng = np.random.default_rng(1)
    space = P2Space(mesh)
    ux, uy = rng.normal(size=(2, space.n_scalar))
    field = MixedField(space=space, material=MaterialParams(1.0, 1e-3),
                       ux=ux, uy=uy, p=rng.normal(size=mesh.n_nodes))
    pts = tri_quadrature(5)[0]
    u, p = field.values(pts)
    g = field.gradient(pts)
    N = p2_shape(pts)
    for m in range(len(mesh.tris)):
        dofs = space.tri_dofs[m]
        want_u = np.stack([N @ field.ux[dofs], N @ field.uy[dofs]], axis=-1)
        assert np.allclose(u[m], want_u, rtol=0, atol=1e-13)
        assert np.allclose(p[m], field.pressure_at(m, pts), rtol=0, atol=1e-13)
        assert np.allclose(g[m], field.grad_at(m, pts), rtol=0, atol=1e-13)


def test_gradient_in_element_blocks_is_bit_identical(monkeypatch):
    """MixedField.gradient gives the same bits for any element block size."""
    space = P2Space(generate_lshape_mesh(lshape_polygon(1.0), 0.1, levels=6))
    rng = np.random.default_rng(2)
    ux, uy = rng.normal(size=(2, space.n_scalar))
    field = MixedField(space=space, material=MaterialParams(1.0, 1e-3),
                       ux=ux, uy=uy, p=rng.normal(size=space.mesh.n_nodes))
    pts = tri_quadrature(8)[0]
    whole = field.gradient(pts)
    assert len(space.mesh.tris) < sif_lab.fem._GRADIENT_BLOCK
    monkeypatch.setattr(sif_lab.fem, "_GRADIENT_BLOCK", 37)
    assert np.array_equal(field.gradient(pts), whole)


def _reference_load_and_residual(field, f, zeta):
    """load_vector(field.space, f, zeta) and second_equation_residual(field)
    as np.add.at scatters of three-operand einsums."""
    space = field.space
    pts, xq, wdet = space.rule(5)
    S, L = space.n_scalar, p1_shape(pts)
    fv, zv = f(xq[..., 0], xq[..., 1]), zeta(xq[..., 0], xq[..., 1])
    rhs = np.zeros(space.n_dofs)
    for k in (0, 1):
        F = np.einsum("mq,qi,mq->mi", wdet, p2_shape(pts), fv[..., k])
        np.add.at(rhs, (space.tri_dofs + k * S).ravel(), F.ravel())
    Z = np.einsum("mq,qk,mq->mk", wdet, L, zv)
    np.add.at(rhs, (space.mesh.tris + 2 * S).ravel(), -Z.ravel())
    g, (_, ph) = field.gradient(pts), field.values(pts)
    div = g[..., 0, 0] + g[..., 1, 1]
    r = np.zeros(space.mesh.n_nodes)
    np.add.at(r, space.mesh.tris.ravel(),
              np.einsum("mq,qk,mq->mk", wdet, L, div + field.material.eps * ph).ravel())
    return rhs, float(np.linalg.norm(r)) / max(norms(field)["l2_pressure"], 1e-30)


@pytest.mark.parametrize("h", [0.1, 0.05])
def test_bincount_scatter_is_bit_identical_to_add_at(h):
    """The load vector and the second-equation residual scatter by
    np.bincount, and load_vector contracts a weighted basis with the values:
    the same bits as the three-operand einsum and np.add.at."""
    space = P2Space(generate_lshape_mesh(lshape_polygon(1.0), h, levels=6))
    rng = np.random.default_rng(3)
    ux, uy = rng.normal(size=(2, space.n_scalar))
    field = MixedField(space=space, material=MaterialParams(1.0, 1e-3),
                       ux=ux, uy=uy, p=rng.normal(size=space.mesh.n_nodes))

    def f(x, y):
        return np.stack([np.sin(3.0 * x) * y, x * x + np.cos(y)], axis=-1)

    def zeta(x, y):
        return x * y + np.exp(x)

    rhs, residual = _reference_load_and_residual(field, f, zeta)
    assert np.array_equal(load_vector(space, f, zeta), rhs)
    assert second_equation_residual(field) == residual


def _reference_mixed_matrix(space, mu, eps):
    """Element-by-element assembly of the mixed matrix into a dict of entries,
    pressure-pressure entries kept even when eps = 0."""
    pts, w = tri_quadrature(5)
    L = p1_shape(pts)
    S = space.n_scalar
    entries = {}
    for m in range(len(space.mesh.tris)):
        G = p2_shape_grad(pts) @ space.invJ[m]
        wq = w * space.areas[m]
        A = sum(wq[q] * G[q] @ G[q].T for q in range(len(w)))
        B = [sum(wq[q] * np.outer(L[q], G[q][:, d]) for q in range(len(w)))
             for d in (0, 1)]
        M = sum(wq[q] * np.outer(L[q], L[q]) for q in range(len(w)))
        v, p = space.tri_dofs[m], space.mesh.tris[m] + 2 * S
        for rows, cols, block in ((v, v, mu * A), (v + S, v + S, mu * A),
                                  (v, p, -B[0].T), (v + S, p, -B[1].T),
                                  (p, v, -B[0]), (p, v + S, -B[1]), (p, p, -eps * M)):
            for i, r in enumerate(rows):
                for j, c in enumerate(cols):
                    entries[r, c] = entries.get((r, c), 0.0) + block[i, j]
    keys = sorted(entries)
    rows, cols = np.array(keys).T
    return scipy.sparse.csr_matrix(([entries[k] for k in keys], (rows, cols)),
                                   shape=(space.n_dofs, space.n_dofs))


@pytest.mark.parametrize("eps", [0.0, 1e-3])
def test_mixed_matrix_matches_element_loop(eps):
    space = P2Space(_shuffled(generate_lshape_mesh(lshape_polygon(1.0), 0.25, levels=3)))
    K = sif_lab.fem._mixed_matrix(space, MaterialParams(1.3, eps))
    ref = _reference_mixed_matrix(space, 1.3, eps)
    assert np.array_equal(K.indptr, ref.indptr)
    assert np.array_equal(K.indices, ref.indices)
    assert np.max(np.abs(K.data - ref.data)) <= 1e-14 * np.max(np.abs(ref.data))
    pressure = K[2 * space.n_scalar:, 2 * space.n_scalar:]
    assert pressure.nnz == ref[2 * space.n_scalar:, 2 * space.n_scalar:].nnz > 0
    assert (pressure.data == 0.0).all() == (eps == 0.0)


def test_dirichlet_data_errors():
    space = P2Space(generate_square_mesh(4, 1.0))
    with pytest.raises(MissingEdgeData):
        dirichlet_values(space, {1: lambda x, y: np.zeros(np.shape(x) + (2,))})
    # conflicting corner values between adjacent edges
    traces = {t: (lambda x, y: np.zeros(np.shape(x) + (2,))) for t in (1, 2, 3, 4)}
    traces[2] = lambda x, y: np.ones(np.shape(x) + (2,))
    with pytest.raises(InconsistentEdgeData):
        dirichlet_values(space, traces)


def test_solve_psi_traces():
    """The corrector is -s times the dual trace on far edges, zero on rays.

    s is the family's dual scale: 1 for the penalized (Lame) dual, mu for
    the Stokes dual.
    """
    poly = lshape_polygon(1.0)
    mesh = generate_lshape_mesh(poly, 0.25, levels=3)
    space = P2Space(mesh)
    far = {e.tag for e in poly.far_edges}
    for family, material, scale in (("lame", MaterialParams(1.0, 1e-3), 1.0),
                                    ("stokes", MaterialParams(1.3, 0.0), 1.3)):
        dual = make_mode(family, "dual", 1, poly.frame, material)
        (psi,) = solve_psi([dual], space, material, poly)
        for tag, dofs in space.boundary_dofs.items():
            for dof in dofs:
                xx, yy = space.dof_coords[dof]
                got = np.array([psi.ux[dof], psi.uy[dof]])
                if tag in far:
                    want = -scale * dual.eval_xy(xx, yy)
                    assert np.allclose(got, want, atol=1e-10)
                else:
                    assert np.allclose(got, 0.0, atol=1e-12)


def test_pressure_zero_mean_at_stokes_gauge():
    velocity, _, _, f, _ = manufactured_square(1.0, 0.0)
    mesh = generate_square_mesh(6, 1.0)
    field = mixed_solve(mesh, MaterialParams(1.0, 0.0),
                        {t: velocity for t in (1, 2, 3, 4)}, f)[-1]
    # weighted mean with the P1 mass vector is removed exactly
    pts_mean = np.einsum("m,mk->", field.space.areas / 3.0,
                         field.p[mesh.tris])
    assert abs(pts_mean) < 1e-10 * max(1.0, np.max(np.abs(field.p)))


# A space factors two matrices on its first solve: the interior block of the
# scalar stiffness A and the pressure mass M.
FACTORS_PER_SPACE = 2


def count_factorizations(monkeypatch):
    """Wrap sif_lab.fem.splu; returns the list of matrix sizes it factored."""
    calls = []
    original = sif_lab.fem.splu

    def counting(A, *args, **kwargs):
        calls.append(A.shape[0])
        return original(A, *args, **kwargs)

    monkeypatch.setattr(sif_lab.fem, "splu", counting)
    return calls


def test_penalized_extraction_factors_once(monkeypatch):
    poly = lshape_polygon(1.0)
    mesh = generate_lshape_mesh(poly, 0.25, levels=3)
    g = lambda x, y: np.stack([x * y, np.zeros_like(x)], axis=-1)
    data = ProblemData(polygon=poly, mesh=mesh, material=MaterialParams(1.0, 1e-3),
                       g=BoundaryData(traces={e.tag: g for e in poly.edges},
                                      zeta=None))
    calls = count_factorizations(monkeypatch)
    rep = extract_sifs_penalized(data)
    assert len(calls) == FACTORS_PER_SPACE
    assert len(rep.terms["psi_residuals"]) == 2


def test_free_dofs_are_the_interior_dofs():
    space = P2Space(_shuffled(generate_lshape_mesh(lshape_polygon(1.0), 0.25, levels=3)))
    assert np.array_equal(np.sort(space._free), np.flatnonzero(space.interior))


def test_rcm_numbering_cuts_the_stiffness_fill():
    """Numbering the interior block of A by reverse Cuthill-McKee before SuperLU
    orders it leaves at most 0.8 of the natural numbering's LU entries (0.76)."""
    space = P2Space(generate_lshape_mesh(lshape_polygon(1.0), 0.1, levels=6))
    A, interior = space.stokes_blocks[0], space.interior
    natural = sif_lab.fem._factor(A[interior][:, interior])
    assert space.stiffness_lu.nnz <= 0.8 * natural.nnz


def _net_flux_g(x, y):
    """Dirichlet data with nonzero net flux through the L-shape boundary."""
    return np.stack([x * y * (1.0 - x), x * x * y], axis=-1)


def test_zero_mean_stokes_solve_matches_bordered_system():
    """eps = 0: the zero-mean Schur solve vs the zero-mean Lagrange multiplier row."""
    poly = lshape_polygon(1.0)
    mesh = generate_lshape_mesh(poly, 0.25, levels=3)
    f = lambda x, y: np.stack([np.ones_like(x), x * y], axis=-1)
    # Nonzero net flux, so the multiplier has something to absorb.
    constrained, rhs, values, field = mixed_solve(
        mesh, MaterialParams(1.0, 0.0), {e.tag: _net_flux_g for e in poly.edges}, f)

    # Reference: K bordered by the P1 mass vector in the pressure rows.
    space = field.space
    S, Np = space.n_scalar, mesh.n_nodes
    mass = np.zeros(Np)
    np.add.at(mass, mesh.tris.ravel(), np.repeat(space.areas / 3.0, 3))
    border = np.concatenate([np.zeros(2 * S), mass])[:, None]
    K = sif_lab.fem._mixed_matrix(space, field.material)
    Kb = scipy.sparse.bmat([[K, border], [border.T, None]]).tocsc()
    con = np.append(constrained, False)
    xb = np.append(values, 0.0)
    rhs_b = np.append(rhs, 0.0) - Kb[:, con] @ xb[con]
    xb[~con] = scipy.sparse.linalg.spsolve(Kb[~con][:, ~con], rhs_b[~con])
    u_ref, p_ref, lam_ref = xb[:2 * S], xb[2 * S:-1], xb[-1]

    u = np.concatenate([field.ux, field.uy])
    assert np.linalg.norm(u - u_ref) <= 1e-10 * np.linalg.norm(u_ref)
    assert np.linalg.norm(field.p - p_ref) <= 1e-8 * np.linalg.norm(p_ref)
    assert abs(field.flux_defect - lam_ref) <= 1e-8 * abs(lam_ref)
    assert abs(lam_ref) > 1e-3


def test_penalized_solve_at_tiny_eps_meets_residual_gate():
    """The corrector solves stay accurate as eps -> 0."""
    poly = lshape_polygon(1.0)
    mesh = generate_lshape_mesh(poly, 0.1, levels=5)
    material = MaterialParams(1.0, 1e-10)
    space = P2Space(mesh)
    for i in (1, 2):
        dual = make_mode("lame", "dual", i, poly.frame, material)
        (psi,) = solve_psi([dual], space, material, poly)
        assert psi.residual <= 1e-10


def test_space_shared_by_two_materials_holds_no_material_state(monkeypatch):
    """The correctors and a data solve of a second material, on a space that
    solved them for a first, are bit-identical to those on a fresh space."""
    poly = lshape_polygon(1.0)
    mesh = generate_lshape_mesh(poly, 0.25, levels=3)
    f = lambda x, y: np.stack([np.ones_like(x), x * y], axis=-1)
    traces = {e.tag: _net_flux_g for e in poly.edges}
    calls = count_factorizations(monkeypatch)

    def run(space, material):
        duals = [make_mode("lame", "dual", i, poly.frame, material) for i in (1, 2)]
        data = space.solve(material, load_vector(space, f),
                           dirichlet_values(space, traces))
        return [*solve_psi(duals, space, material, poly), data]

    shared, second = P2Space(mesh), MaterialParams(1.0, 1e-4)
    run(shared, MaterialParams(1.3, 1e-1))
    for got, want in zip(run(shared, second), run(P2Space(mesh), second), strict=True):
        for name in ("ux", "uy", "p", "residual", "flux_defect", "iterations"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
    assert len(calls) == 2 * FACTORS_PER_SPACE


# The eps of an eps sweep: the Stokes reference and the default grid.
SWEEP_EPS = (0.0, 1e-1, 1e-2, 1e-3, 1e-4)


def _two_rows(h):
    """A space on the L-shape at h and two data rows (rhs, values): f = (1, xy)
    with the net-flux data, and f = (y, -x) with zero data."""
    poly = lshape_polygon(1.0)
    space = P2Space(generate_lshape_mesh(poly, h, levels=6))
    fs = (lambda x, y: np.stack([np.ones_like(x), x * y], axis=-1),
          lambda x, y: np.stack([y, -x], axis=-1))
    zero = lambda x, y: np.zeros(np.shape(x) + (2,))
    rhs = np.array([load_vector(space, f) for f in fs])
    values = np.array([dirichlet_values(space, {e.tag: g for e in poly.edges})
                       for g in (_net_flux_g, zero)])
    return space, rhs, values


def test_shifted_solve_matches_separate_solves():
    """One solve_all over the sweep's eps, as shifts of one PCG, against a
    solve per (row, eps): the per-eps mean -flux_defect/eps included."""
    space, rhs, values = _two_rows(0.1)
    materials = [MaterialParams(1.0, eps) for eps in SWEEP_EPS]
    shifted = space.solve_all(materials, rhs, values)
    assert len(shifted) == len(materials)
    for material, fields in zip(materials, shifted):
        assert len(fields) == len(rhs)
        for j, got in enumerate(fields):
            want = space.solve(material, rhs[j], values[j])
            assert got.material is material and got.residual <= 1e-10
            for name in ("p", "ux", "uy"):
                a, b = getattr(got, name), getattr(want, name)
                assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b), (material, j, name)
            assert got.flux_defect == pytest.approx(want.flux_defect, rel=1e-12, abs=0.0)
            assert abs(got.iterations - want.iterations) <= 1
    assert shifted[0][0].flux_defect != 0.0


def test_shifted_solve_needs_one_mu():
    space, rhs, values = _two_rows(0.25)
    with pytest.raises(ValueError, match="one mu"):
        space.solve_all([MaterialParams(1.0, 1e-2), MaterialParams(1.3, 1e-3)],
                        rhs, values)


def test_one_material_solve_is_unchanged_by_a_shifted_solve():
    """A shifted solve leaves nothing on the space: a one-material solve_all
    after it is bit-identical to the same solve before it."""
    space, rhs, values = _two_rows(0.1)
    material = MaterialParams(1.0, 1e-3)
    before = space.solve_all([material], rhs, values)
    space.solve_all([MaterialParams(1.0, eps) for eps in SWEEP_EPS], rhs, values)
    after = space.solve_all([material], rhs, values)
    for got, want in zip(after[0], before[0], strict=True):
        for name in ("ux", "uy", "p", "residual", "flux_defect", "iterations"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


def _net_flux_solve(h, eps):
    """mixed_solve on the L-shape with f = (1, 0) and the net-flux data."""
    poly = lshape_polygon(1.0)
    mesh = generate_lshape_mesh(poly, h, levels=3)
    f = lambda x, y: np.stack([np.ones_like(x), np.zeros_like(x)], axis=-1)
    return mixed_solve(mesh, MaterialParams(1.0, eps),
                       {e.tag: _net_flux_g for e in poly.edges}, f)


@pytest.mark.parametrize("eps", [1e-1, 1e-4])
def test_penalized_solve_matches_direct_solve_of_free_system(eps):
    con, rhs, values, field = _net_flux_solve(0.25, eps)
    K = sif_lab.fem._mixed_matrix(field.space, field.material).tocsc()
    x = values.copy()
    x[~con] = scipy.sparse.linalg.spsolve(K[~con][:, ~con],
                                          rhs[~con] - K[~con][:, con] @ values[con])
    u_ref = x[:2 * field.space.n_scalar]
    u = np.concatenate([field.ux, field.uy])
    assert np.linalg.norm(u - u_ref) <= 1e-10 * np.linalg.norm(u_ref)
    assert field.flux_defect == 0.0 and field.residual <= 1e-10


def test_schur_iterations_stay_flat_in_h_and_eps():
    counts = [_net_flux_solve(h, eps)[-1].iterations
              for h in (0.25, 0.1, 0.05)
              for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)]
    assert min(counts) > 0
    assert max(counts) - min(counts) <= 10


def test_schur_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(sif_lab.fem, "_PCG_MAX_ITER", 2)
    with pytest.raises(SolverBreakdown, match="2 iterations"):
        _net_flux_solve(0.25, 1e-3)


@pytest.mark.parametrize("eps", [0.0, 1e-3])
@pytest.mark.parametrize("k", [1, 3])
def test_schur_matches_explicit_schur_complement(eps, k):
    """_schur against Bf A^-1 Bf^T / mu + eps M built densely from the blocks
    in the P2 numbering, so the interleaved divergence and the solve's
    layout are pinned independently of each other."""
    space = P2Space(generate_lshape_mesh(lshape_polygon(1.0), 0.25, levels=3))
    mu, (A, Bx, By, M) = 1.3, space.stokes_blocks
    free = space.interior
    A_free = A[free][:, free].tocsc()
    Bfx, Bfy = Bx[:, free], By[:, free]
    schur = (Bfx @ scipy.sparse.linalg.spsolve(A_free, Bfx.T.toarray())
             + Bfy @ scipy.sparse.linalg.spsolve(A_free, Bfy.T.toarray())) / mu
    schur = schur + eps * M.toarray()
    d = np.random.default_rng(7).standard_normal((space.mesh.n_nodes, k))
    got, want = space._schur(mu, eps, d), schur @ d
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class _CountingLU:
    """A factorization's solve, counting its calls and their columns."""

    def __init__(self, lu):
        self.lu, self.columns = lu, []

    def solve(self, b):
        self.columns.append(b.shape[1])
        return self.lu.solve(b)


def _counting_stiffness(space):
    counting = _CountingLU(space.stiffness_lu)
    space.__dict__["stiffness_lu"] = counting
    return counting


def _seed_iterations(fields):
    """Per row: the seed's count, the largest over the materials' fields."""
    return [max(per_material[j].iterations for per_material in fields)
            for j in range(len(fields[0]))]


def test_corrector_pair_makes_one_stiffness_solve_per_iteration():
    """The first right-hand side, one per Schur application and the velocity
    recovery: max(iterations) + 2 solves of 2 columns per live row."""
    poly = lshape_polygon(1.0)
    space = P2Space(generate_lshape_mesh(poly, 0.1, levels=6))
    material = MaterialParams(1.0, 1e-3)
    counting = _counting_stiffness(space)
    duals = [make_mode("lame", "dual", i, poly.frame, material) for i in (1, 2)]
    fields = solve_psi(duals, space, material, poly)
    iterations = _seed_iterations([fields])
    assert iterations[0] != iterations[1]    # one column leaves before the other
    assert len(counting.columns) == max(iterations) + 2
    assert sum(counting.columns) == 2 * sum(iterations) + 2 * 2 + 2 * 2


def test_shifted_solve_makes_one_stiffness_solve_per_iteration():
    space, rhs, values = _two_rows(0.1)
    counting = _counting_stiffness(space)
    materials = [MaterialParams(1.0, eps) for eps in SWEEP_EPS]
    fields = space.solve_all(materials, rhs, values)
    iterations, k, s = _seed_iterations(fields), len(rhs), len(materials)
    assert len(counting.columns) == max(iterations) + 2
    assert sum(counting.columns) == 2 * sum(iterations) + 2 * k + 2 * k * s


@pytest.mark.parametrize("live_row", [0, 1])
def test_zero_row_beside_a_live_row(live_row):
    """A row already solved by zero never enters the PCG: 0 iterations and a
    zero field; the other row keeps the count it gets alone."""
    space, rhs, values = _two_rows(0.1)
    material = MaterialParams(1.0, 1e-3)
    alone = space.solve(material, rhs[0], values[0])
    rows, data = np.zeros((2, space.n_dofs)), np.zeros((2, space.n_dofs))
    rows[live_row], data[live_row] = rhs[0], values[0]
    pair = space.solve_all([material], rows, data)[0]
    empty, live = pair[1 - live_row], pair[live_row]
    assert empty.iterations == 0 and live.iterations == alone.iterations > 0
    assert not empty.p.any() and not empty.ux.any() and not empty.uy.any()
    assert live.residual <= 1e-10
    assert np.linalg.norm(live.p - alone.p) <= 1e-12 * np.linalg.norm(alone.p)
