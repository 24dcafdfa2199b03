"""Mixed P2/P1 (Taylor-Hood) finite elements for the penalized and Stokes systems.

The weak form solved is

    mu (grad u, grad v) - (p, div v) = (f, v)
    (div u, q) + eps (p, q)          = (zeta, q)

with the velocity prescribed on the whole boundary.  The mesh's P2Space
solves it for any material:

    space = P2Space(mesh)
    field = space.solve(material, load_vector(space, f, zeta),
                        dirichlet_values(space, traces))

It never factors the symmetric indefinite mixed matrix.  The velocity block
is diag(mu A, mu A), with A the material-free scalar P2 stiffness, so the
space factors the interior block of A once (P2Space.stiffness_lu; it is SPD)
and every material on that mesh reuses it.  The block's free dofs are
numbered by reverse Cuthill-McKee (P2Space._free; Cuthill & McKee 1969;
George & Liu 1981) before SuperLU orders them by minimum degree, which leaves
about 25% less fill than the P2 numbering.  The pressure solves the Schur
complement  D A^-1 D^T / mu + eps M  by conjugate gradients preconditioned
with the P1 mass M (P2Space.mass_lu), which is spectrally equivalent to it
uniformly in h and eps (Elman, Silvester & Wathen, Finite Elements and Fast
Iterative Solvers, 2014), so the iteration count stays flat in both.  D is
the divergence on the free velocity dofs with the x and y columns of each
dof interleaved (P2Space._free_div), so D^T p read as an (n, 2k) array is
the x and then the y parts of k columns, as the stiffness solve takes them:
one application is one product, one triangular solve and one product.  Both
factorizations are built on first use.  solve_all runs several right-hand
sides, and several materials of one mu, as one batch.  Preconditioned by M,
the Schur complements of every eps form the shifted family
M^-1 D A^-1 D^T / mu + eps I, so one multi-shift PCG solves all of them,
applying the operator of the smallest eps only (Jegerlehner, hep-lat/9612014,
1996; Frommer, Computing 70, 2003); with one eps it is plain PCG.  Its
working arrays hold the columns still running only, and a converged column
leaves them.  The iteration is fixed, so a run is deterministic.

Summing the pressure rows eliminates the free velocity (a field vanishing on
the boundary has no net flux), so the pressure mean follows from the data
alone: eps |Omega| mean(p) = -|Omega| flux_defect.  The solve moves it out of
the right-hand side and iterates in the zero-mean subspace, then adds the
mean back (-flux_defect/eps) for eps > 0.  At eps = 0 the mean is free; the
pressure keeps zero mean and the field reports the absorbed flux defect.

A solved field is evaluated in one place: P2Space.rule gives a reference
rule's points, their images in every element (stored coordinate-major) and
their weights (P2Space.weights the same without the images),
P2Space.basis_grad maps the reference basis gradients into every element,
and MixedField.values and MixedField.gradient give velocity, pressure and
velocity gradient at reference points of every element.  Assembly, the load
vector, error_norms and the second-equation residual read them.  The load
vector calls f and zeta once at the degree-5 images and, like the
second-equation residual, scatters by np.bincount; the extraction pairs the
same values with pointwise weights and builds none.  The norms of a discrete
field need no quadrature: they are quadratic forms of A, of the P2 mass
element by element (_P2_MASS) and of M.  error_norms integrates against
analytic fields by the degree-8 rule.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from . import SifLabError
from .geometry import MissingEdgeData, TriMesh, _affine, _edge_table, _find_edges, _images
from .spectral import MaterialParams

log = logging.getLogger(__name__)

__all__ = [
    "EmptyMesh",
    "MissingEdgeData",
    "InconsistentEdgeData",
    "SolverBreakdown",
    "SingularSystem",
    "MeshMismatch",
    "P2Space",
    "MixedField",
    "load_vector",
    "dirichlet_values",
    "norms",
    "diff_norms",
    "error_norms",
    "second_equation_residual",
]


class EmptyMesh(SifLabError):
    pass


class InconsistentEdgeData(SifLabError):
    pass


class SolverBreakdown(SifLabError):
    pass


class SingularSystem(SifLabError):
    pass


class MeshMismatch(SifLabError):
    pass


# One factorization policy for the two SPD matrices factored (the interior
# block of A and the mass M): a symmetric fill-reducing ordering, diagonal
# pivots only.  MMD breaks ties by the input numbering, so the block of A
# comes in reverse Cuthill-McKee order (P2Space._free); M keeps the vertex
# numbering, where RCM cut its fill by 2-4% and did not speed its solve.
_LU_POLICY = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
              "options": {"SymmetricMode": True}}
_RESIDUAL_GATE = 1e-10
# The Schur-complement PCG stops once its pressure residual is at most
# _PCG_RTOL times the free right-hand side, 1000x inside the gate, and raises
# SolverBreakdown if that takes more than _PCG_MAX_ITER iterations (20 to 36
# on every mesh and eps tried).
_PCG_RTOL = 1e-13
_PCG_MAX_ITER = 200
# MixedField.gradient maps basis gradients this many elements at a time: 1.5 MB
# for the 16-point rule of error_norms.
_GRADIENT_BLOCK = 1024


# Symmetric quadrature rules on the reference triangle (weights sum to 1;
# multiply by element area).  Degree 5: 7 points.  Degree 8: 16 points.
def _sym3(a):
    b = 0.5 * (1.0 - a)
    return [(a, b), (b, a), (b, b)]


def _perm6(a, b, c):
    return [(a, b), (b, a), (a, c), (c, a), (b, c), (c, b)]


_Q5_PTS = np.array(
    [(1.0 / 3.0, 1.0 / 3.0)]
    + _sym3(0.0597158717897698)
    + _sym3(0.7974269853530873))
_Q5_W = np.array(
    [0.225]
    + [0.1323941527885062] * 3
    + [0.1259391805448271] * 3)

_Q8_PTS = np.array(
    [(1.0 / 3.0, 1.0 / 3.0)]
    + _sym3(0.0814148234145538)
    + _sym3(0.6588613844964797)
    + _sym3(0.8989055433659380)
    + _perm6(0.0083947774099576, 0.2631128296346381, 0.7284923929554043))
_Q8_W = np.array(
    [0.1443156076777871]
    + [0.0950916342672846] * 3
    + [0.1032173705347183] * 3
    + [0.0324584976231980] * 3
    + [0.0272303141744350] * 6)


def tri_quadrature(degree: int):
    """Reference-triangle rule (points in barycentric L2, L3; weights sum 1)."""
    if degree <= 5:
        return _Q5_PTS, _Q5_W
    return _Q8_PTS, _Q8_W


def p2_shape(pts):
    """P2 shape functions at reference points; order v1 v2 v3 m12 m23 m31."""
    xi, eta = pts[:, 0], pts[:, 1]
    L1, L2, L3 = 1.0 - xi - eta, xi, eta
    return np.stack([
        L1 * (2 * L1 - 1), L2 * (2 * L2 - 1), L3 * (2 * L3 - 1),
        4 * L1 * L2, 4 * L2 * L3, 4 * L3 * L1], axis=-1)


# The P2 mass of an element over its area (6 x 6): the degree-5 rule
# integrates its degree-4 entries exactly.
_P2_MASS = np.einsum("q,qi,qj->ij", _Q5_W, p2_shape(_Q5_PTS), p2_shape(_Q5_PTS))


# The reference gradients of the barycentric coordinates L1, L2, L3.
_GRAD_L = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


def p2_shape_grad(pts):
    """Reference gradients, shape (npts, 6, 2): (4 L_i - 1) grad L_i at the
    vertices, 4 (L_i grad L_j + L_j grad L_i) at the midpoints."""
    L, j = p1_shape(pts)[:, :, None], [1, 2, 0]
    return np.concatenate([(4 * L - 1) * _GRAD_L,
                           4 * (L * _GRAD_L[j] + L[:, j] * _GRAD_L)], axis=1)


def p1_shape(pts):
    xi, eta = pts[:, 0], pts[:, 1]
    return np.stack([1.0 - xi - eta, xi, eta], axis=-1)


class P2Space:
    """Scalar P2 dof numbering: mesh vertices first, then edge midpoints in
    order of first occurrence in mesh.tris.  Nothing a solve caches here
    depends on the material, so solve and solve_all serve every material."""

    def __init__(self, mesh: TriMesh):
        if len(mesh.tris) == 0:
            raise EmptyMesh("mesh has no triangles")
        self.mesh = mesh
        N = mesh.n_nodes
        edges, tri_edge, _ = _edge_table(mesh.tris, N)
        self.tri_dofs = np.concatenate([mesh.tris, N + tri_edge], axis=1)
        self.n_scalar = N + len(edges)
        self.dof_coords = np.concatenate(
            [mesh.nodes, 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])])
        # The element maps, kept for assembly and evaluation: origins, forward
        # Jacobians (columns the two edge vectors), determinants and inverses
        # (the adjugate over the determinant).
        self.tri_origin, self.J, self.detJ = _affine(mesh.nodes[mesh.tris])
        adjugate = np.swapaxes(self.J[:, ::-1, ::-1], 1, 2) * [[1.0, -1.0], [-1.0, 1.0]]
        self.invJ = adjugate / self.detJ[:, None, None]
        self.areas = 0.5 * self.detJ
        # Scalar dofs on the boundary per edge tag (each boundary edge's two
        # vertices and its midpoint), tags in order of first appearance.
        i, j, tags = mesh.bedges.T
        dofs = np.stack([i, j, N + _find_edges(edges, N, i, j)])
        first = np.sort(np.unique(tags, return_index=True)[1])
        self.boundary_dofs = {int(t): np.unique(dofs[:, tags == t]) for t in tags[first]}

    @property
    def n_dofs(self) -> int:
        """Velocity (two P2 components) plus P1 pressure dofs."""
        return 2 * self.n_scalar + self.mesh.n_nodes

    def to_reference(self, m: int, pts):
        """Map physical points into reference coordinates of element m."""
        rel = np.asarray(pts, dtype=float) - self.tri_origin[m]
        return rel @ self.invJ[m].T

    def weights(self, degree: int):
        """The reference rule of degree (tri_quadrature) on every element: its
        points pts (q, 2) and their weights (m, q), which sum to each
        element's area."""
        pts, w = tri_quadrature(degree)
        return pts, self.areas[:, None] * w

    def rule(self, degree: int):
        """weights(degree) with the points' images in every element: pts
        (q, 2), images (m, q, 2) and weights (m, q)."""
        pts, w = self.weights(degree)
        return pts, _images(self.tri_origin, self.J, pts), w

    def basis_grad(self, pts, elements=slice(None)):
        """Physical P2 basis gradients (m, q, 6, 2) at reference points pts (q, 2)
        of every element, or of the elements in a slice."""
        G, invJ = p2_shape_grad(pts)[..., None], self.invJ[elements, None, None]
        return G[..., 0, :] * invJ[..., 0, :] + G[..., 1, :] * invJ[..., 1, :]

    @cached_property
    def stokes_blocks(self):
        """Material-free blocks (A, Bx, By, M) of the mixed matrix, built once:
        the scalar P2 stiffness A (S x S), the divergence blocks Bx, By
        (pressure test x velocity trial, N x S) and the P1 mass M (N x N)."""
        pts, wdet = self.weights(5)
        L, G = p1_shape(pts), self.basis_grad(pts)           # (q, 3), (m, q, 6, 2)
        vd, pd = self.tri_dofs, self.mesh.tris
        S, N = self.n_scalar, self.mesh.n_nodes
        Ae = np.einsum("mq,mqie,mqje->mij", wdet, G, G, optimize=True)
        Bxe, Bye = np.einsum("mq,qk,mqie->emki", wdet, L, G)
        Me = np.einsum("mq,qk,ql->mkl", wdet, L, L)
        return (_scatter(vd, vd, Ae, (S, S)), _scatter(pd, vd, Bxe, (N, S)),
                _scatter(pd, vd, Bye, (N, S)), _scatter(pd, pd, Me, (N, N)))

    @cached_property
    def interior(self) -> np.ndarray:
        """Mask of the scalar dofs off the boundary: the free dofs of either
        velocity component."""
        mask = np.ones(self.n_scalar, dtype=bool)
        mask[np.concatenate(list(self.boundary_dofs.values()))] = False
        return mask

    @cached_property
    def _free(self) -> np.ndarray:
        """The interior scalar dofs in reverse Cuthill-McKee order of A's
        interior block: the numbering of every free velocity vector a solve
        gathers, factors and scatters."""
        free, A = np.flatnonzero(self.interior), self.stokes_blocks[0]
        return free[reverse_cuthill_mckee(A[free][:, free], symmetric_mode=True)]

    @cached_property
    def stiffness_lu(self):
        """LU of the interior block of A in the _free numbering, built on first
        use; it serves both velocity components of every material on this
        space."""
        A = self.stokes_blocks[0]
        return _factor(A[self._free][:, self._free])

    @cached_property
    def mass_lu(self):
        """LU of the P1 mass M, the Schur-complement preconditioner."""
        return _factor(self.stokes_blocks[3])

    @cached_property
    def _free_div(self):
        """The divergence D (N x 2n, CSR) on the n free velocity dofs and its
        transpose, a CSC view of the same arrays.  D is Bx and By on the free
        columns in _free order, interleaved, so x of free dof i is column 2i
        and y column 2i + 1.  A vector over D's columns, read as an (n, 2)
        array, is one free velocity; D.T @ p read as (n, 2k) holds the x then
        the y parts of k columns, the layout stiffness_lu.solve takes."""
        _, Bx, By, _ = self.stokes_blocks
        n = len(self._free)
        D = sp.hstack([Bx[:, self._free], By[:, self._free]], format="csc")
        D = D[:, np.arange(2 * n).reshape(2, n).T.ravel()].tocsr()
        return D, D.T

    @cached_property
    def _mass_one(self) -> np.ndarray:    # M applied to 1
        return np.asarray(self.stokes_blocks[3].sum(axis=1)).ravel()

    def solve(self, material: MaterialParams, rhs: np.ndarray,
              boundary_values: np.ndarray) -> MixedField:
        """The mixed system of material on this space, for load vector rhs with
        both velocity components prescribed at every boundary P2 node.

        Both vectors span all dofs; only the boundary velocity entries of
        boundary_values are read (dirichlet_values builds it).
        """
        return self.solve_all([material], rhs[None], boundary_values[None])[0][0]

    def solve_all(self, materials: Sequence[MaterialParams], rhs: np.ndarray,
                  boundary_values: np.ndarray) -> list[list[MixedField]]:
        """solve() for every material and each row of rhs and boundary_values
        (k, n_dofs), as one batch: fields[i][j] solves row j for materials[i].

        The materials share mu, and their eps are the shifts of one multi-shift
        PCG (_pcg); every triangular solve takes all right-hand sides at once.

        Raises ValueError for materials of different mu, and SolverBreakdown
        when the PCG needs more than _PCG_MAX_ITER iterations or a solution
        misses the residual gate: the relative residual of the whole free
        system, velocity and pressure rows, against its right-hand side.
        """
        mu = materials[0].mu
        if any(material.mu != mu for material in materials):
            raise ValueError("solve_all needs materials of one mu; got mu = "
                             + ", ".join(f"{material.mu:g}" for material in materials))
        shifts = np.array([material.eps for material in materials])
        A, Bx, By, M = self.stokes_blocks
        S, free, m, (D, Dt) = self.n_scalar, self._free, self._mass_one, self._free_div
        n, k = len(free), len(rhs)
        # Both velocity components of every boundary P2 node, over all dofs.
        fixed = ~self.interior
        constrained = np.concatenate([fixed, fixed, np.zeros(self.mesh.n_nodes, bool)])
        x = np.where(constrained, boundary_values, 0.0).T    # (n_dofs, k)
        ux, uy, f = x[:S], x[S:2 * S], rhs.T
        bu = Bx @ ux + By @ uy    # the prescribed velocity's divergence rows
        # The summed pressure rows hold no free velocity, so they fix the mean.
        flux_defect = (f[2 * S:].sum(axis=0) + bu.sum(axis=0)) / m.sum()
        fp = f[2 * S:] - np.outer(m, flux_defect)
        gx = (f[:S] - mu * (A @ ux))[free]
        gy = (f[S:2 * S] - mu * (A @ uy))[free]
        h = fp + bu
        scale = np.sqrt((gx ** 2).sum(axis=0) + (gy ** 2).sum(axis=0)
                        + (h ** 2).sum(axis=0))
        w = self.stiffness_lu.solve(np.hstack([gx, gy]))
        p, iterations = self._pcg(mu, shifts,
                                  -h - D @ np.ascontiguousarray(w).reshape(2 * n, k) / mu,
                                  _PCG_RTOL * scale)
        # From here on, column i * k + j is row j for materials[i].
        s = len(shifts)
        p, iterations = np.hstack(p), iterations.ravel()
        eps = np.repeat(shifts, k)

        def per_material(a):
            return np.concatenate([a] * s, axis=-1)

        ux, uy, f, fp, flux_defect, scale = map(per_material,
                                                (ux, uy, f, fp, flux_defect, scale))
        w = self.stiffness_lu.solve(np.hstack([per_material(gx), per_material(gy)])
                                    + (Dt @ p).reshape(n, 2 * k * s)) / mu
        ux[free], uy[free] = w[:, :k * s], w[:, k * s:]
        penalized = eps > 0.0
        # The mean; these pairs solve the given rows.
        p[:, penalized] -= flux_defect[penalized] / eps[penalized]
        fp[:, penalized], flux_defect[penalized] = f[2 * S:, penalized], 0.0
        if not all(np.all(np.isfinite(v)) for v in (ux, uy, p)):
            raise SingularSystem("solve produced non-finite values")
        r2 = (((mu * (A @ ux) - Bx.T @ p - f[:S])[free] ** 2).sum(axis=0)
              + ((mu * (A @ uy) - By.T @ p - f[S:2 * S])[free] ** 2).sum(axis=0)
              + ((Bx @ ux + By @ uy + eps * (M @ p) + fp) ** 2).sum(axis=0))
        resid = np.sqrt(r2) / np.maximum(scale, 1e-30)
        if resid.max() > _RESIDUAL_GATE:
            raise SolverBreakdown(
                f"relative residual {resid.max():.3e} exceeds {_RESIDUAL_GATE:g}")
        fields = [MixedField(space=self, material=materials[c // k], ux=ux[:, c].copy(),
                             uy=uy[:, c].copy(), p=p[:, c].copy(),
                             residual=float(resid[c]), flux_defect=float(flux_defect[c]),
                             iterations=int(iterations[c]))
                  for c in range(k * s)]
        return [fields[i * k:(i + 1) * k] for i in range(s)]

    def _schur(self, mu, eps, d):
        """The Schur complement D A^-1 D^T / mu + eps M applied to the k
        columns of d: one product, one triangular solve of 2k columns (the x
        then the y parts, see _free_div) and one product.

        SuperLU.solve rounds each column differently depending on the batch
        it is in: a column's bits are reproducible only for the same batch of
        columns."""
        D, Dt = self._free_div
        n, k = D.shape[1] // 2, d.shape[1]
        w = self.stiffness_lu.solve((Dt @ d).reshape(n, 2 * k))
        out = D @ np.ascontiguousarray(w).reshape(2 * n, k)
        out /= mu
        if eps:
            out += eps * (self.stokes_blocks[3] @ d)
        return out

    def _pcg(self, mu, shifts, b, tol):
        """Mass-preconditioned CG on the Schur complements S0/mu + eps M of
        every shift eps in shifts, for each column of b, as one multi-shift
        run (Jegerlehner, hep-lat/9612014, 1996; Frommer, Computing 70, 2003).

        Preconditioned by M, the operators are the shifted family
        M^-1 S0/mu + eps I, which shares one Krylov space.  So only the seed,
        the smallest shift, applies its Schur complement; every other shift's
        residual is the seed's times a scalar zeta, and its iterate follows the
        zeta recurrences.  A column runs until each of its shifts has residual
        norm at most its tol; a converged shift stops updating, the seed runs
        to the end.  With one shift zeta stays exactly 1 and this is plain PCG.
        All of it is in the zero-mean subspace: b has zero sum, and every
        preconditioned residual is projected to zero mean.

        The working arrays hold the live columns only, in order: a column
        whose shifts have all converged writes its iterates and counts out
        and leaves them, and a column of b already within tol never enters.

        Returns the solutions (s, n, k) and the iteration counts (s, k) of the
        s shifts and the k columns of b.
        """
        m, lu_m = self._mass_one, self.mass_lu
        m_sum = m.sum()

        def precondition(r):
            z = lu_m.solve(r)
            return z - (m @ z) / m_sum

        seed = int(np.argmin(shifts))
        delta = (shifts - shifts[seed])[:, None]
        b = b - np.outer(m, b.sum(axis=0)) / m_sum
        out = np.zeros((len(shifts),) + b.shape)
        iterations = np.zeros((len(shifts), b.shape[1]), dtype=int)
        # The live columns of b, and per live column: the seed's residual r,
        # the iterates x and directions d of every shift, the counts, zeta now
        # and one step back, whether each shift runs, and the seed's rz and
        # its alpha and beta one step back.
        cols = np.flatnonzero(np.linalg.norm(b, axis=0) > tol)
        r, tol = b[:, cols], tol[cols]
        shape = (len(shifts), len(cols))
        x, d = np.zeros((len(shifts),) + r.shape), np.empty((len(shifts),) + r.shape)
        d[:] = precondition(r)
        counts, zeta, zeta_old = np.zeros(shape, dtype=int), np.ones(shape), np.ones(shape)
        run = np.ones(shape, dtype=bool)
        alpha_old, beta_old = np.ones(len(cols)), np.zeros(len(cols))
        rz = np.einsum("ik,ik->k", r, d[seed])
        step = 0
        while len(cols):
            if step == _PCG_MAX_ITER:
                raise SolverBreakdown(
                    f"Schur-complement PCG did not converge in {_PCG_MAX_ITER} iterations")
            step += 1
            sd = self._schur(mu, shifts[seed], d[seed])
            alpha = rz / np.einsum("ik,ik->k", d[seed], sd)
            # zeta_old, zeta, z2: zeta at steps n - 1, n and n + 1.
            z2 = np.where(run, zeta_old * zeta * alpha_old
                          / (alpha * beta_old * (zeta_old - zeta)
                             + zeta_old * alpha_old * (1.0 + delta * alpha)), zeta)
            x += np.where(run, alpha * z2 / zeta, 0.0)[:, None] * d
            r -= alpha * sd
            counts += run
            run &= np.abs(z2) * np.linalg.norm(r, axis=0) > tol
            run[seed] = run.any(axis=0)
            going = run[seed]
            if not going.all():
                done = ~going
                out[:, :, cols[done]], iterations[:, cols[done]] = x[..., done], counts[:, done]
                cols, r, tol, rz, alpha = cols[going], r[:, going], tol[going], rz[going], alpha[going]
                x, d, counts = x[..., going], d[..., going], counts[:, going]
                zeta, z2, run = zeta[:, going], z2[:, going], run[:, going]
            z = precondition(r)
            rz_new = np.einsum("ik,ik->k", r, z)
            beta = rz_new / rz
            d = np.where(run[:, None], z2[:, None] * z + (beta * (z2 / zeta) ** 2)[:, None] * d, d)
            zeta_old, zeta = zeta, z2
            alpha_old, beta_old, rz = alpha, beta, rz_new
        return out, iterations


def _factor(matrix):
    try:
        return splu(matrix.tocsc(), **_LU_POLICY)
    except RuntimeError as exc:
        raise SingularSystem(str(exc)) from None


def _scatter(rows, cols, blocks, shape) -> sp.csr_matrix:
    """Sum element blocks (m, r, c) into the global entries rows (m, r) x cols (m, c)."""
    r = np.broadcast_to(rows[:, :, None], blocks.shape).ravel()
    c = np.broadcast_to(cols[:, None, :], blocks.shape).ravel()
    return sp.coo_matrix((blocks.ravel(), (r, c)), shape=shape).tocsr()


@dataclass
class MixedField:
    """P2 velocity + P1 pressure coefficients on one mesh.

    residual is the solve's relative residual and iterations its count of
    Schur-complement PCG iterations.  At eps = 0, flux_defect is the
    zero-mean multiplier absorbed by the pressure rows; it is 0 for eps > 0.
    """

    space: P2Space
    material: MaterialParams
    ux: np.ndarray
    uy: np.ndarray
    p: np.ndarray
    residual: float = 0.0
    flux_defect: float = 0.0
    iterations: int = 0

    @property
    def mesh(self) -> TriMesh:
        return self.space.mesh

    def values(self, pts):
        """Velocity (m, q, 2) and pressure (m, q) at reference points pts (q, 2)
        of every element."""
        N, vd = p2_shape(pts), self.space.tri_dofs
        u = np.stack([self.ux[vd] @ N.T, self.uy[vd] @ N.T], axis=-1)
        return u, self.p[self.mesh.tris] @ p1_shape(pts).T

    def gradient(self, pts):
        """Velocity gradients (m, q, 2, 2), [k, l] = d(u_k)/d(x_l), at reference
        points pts (q, 2) of every element.  The basis gradients are built
        _GRADIENT_BLOCK elements at a time, never for the whole mesh at once."""
        vd = self.space.tri_dofs
        out = np.empty((len(vd), len(pts), 2, 2))
        for start in range(0, len(vd), _GRADIENT_BLOCK):
            block = slice(start, start + _GRADIENT_BLOCK)
            G = self.space.basis_grad(pts, block)
            out[block, :, 0] = np.einsum("mqie,mi->mqe", G, self.ux[vd[block]])
            out[block, :, 1] = np.einsum("mqie,mi->mqe", G, self.uy[vd[block]])
        return out

    def grad_at(self, m, ref_pts):
        """Velocity gradient tensors d(u_k)/d(x_l) inside element m."""
        G = p2_shape_grad(np.atleast_2d(ref_pts)) @ self.space.invJ[m]
        dofs = self.space.tri_dofs[m]
        gx = np.einsum("qid,i->qd", G, self.ux[dofs])
        gy = np.einsum("qid,i->qd", G, self.uy[dofs])
        return np.stack([gx, gy], axis=1)

    def pressure_at(self, m, ref_pts):
        L = p1_shape(np.atleast_2d(ref_pts))
        return L @ self.p[self.mesh.tris[m]]

    def minus(self, other: "MixedField") -> "MixedField":
        if other.space is not self.space and not self.mesh.same_as(other.mesh):
            raise MeshMismatch("fields live on different meshes")
        return MixedField(space=self.space, material=self.material,
                          ux=self.ux - other.ux, uy=self.uy - other.uy,
                          p=self.p - other.p)


def _mixed_matrix(space: P2Space, material: MaterialParams) -> sp.csr_matrix:
    """Taylor-Hood matrix of the mixed weak form on space, for material: the
    system P2Space.solve solves without assembling it, kept as the tests'
    reference.  At eps = 0 the pressure block keeps M's pattern as explicit
    zeros."""
    A, Bx, By, M = space.stokes_blocks
    mu, eps = material.mu, material.eps
    return sp.bmat([[mu * A, None, -Bx.T],
                    [None, mu * A, -By.T],
                    [-Bx, -By, -eps * M]], format="csr")


def load_vector(space: P2Space, f=None, zeta=None) -> np.ndarray:
    """Right-hand side of the mixed system.

    f    : callable (x, y) -> (..., 2) volume force, or None for zero
    zeta : callable (x, y) -> (...)    prescribed divergence source, or None

    Each is called once, at the images of the degree-5 rule's points
    (P2Space.rule(5)); a weighted basis is contracted with the values and
    scattered by np.bincount.
    """
    rhs = np.zeros(space.n_dofs)
    if f is None and zeta is None:
        return rhs
    pts, xq, wdet = space.rule(5)
    x, y = xq[..., 0], xq[..., 1]
    S, N = space.n_scalar, space.mesh.n_nodes
    if f is not None:
        fv = np.reshape(np.asarray(f(x, y), dtype=float), wdet.shape + (2,))
        wN, vd = np.einsum("mq,qi->mqi", wdet, p2_shape(pts)), space.tri_dofs.ravel()
        for k in (0, 1):
            F = np.einsum("mqi,mq->mi", wN, fv[..., k])
            rhs[k * S:(k + 1) * S] = np.bincount(vd, F.ravel(), S)
    if zeta is not None:
        zv = np.reshape(np.asarray(zeta(x, y), dtype=float), wdet.shape)
        Z = np.einsum("mqk,mq->mk", np.einsum("mq,qk->mqk", wdet, p1_shape(pts)), zv)
        rhs[2 * S:] = np.bincount(space.mesh.tris.ravel(), -Z.ravel(), N)
    return rhs


def dirichlet_values(space: P2Space, traces: dict) -> np.ndarray:
    """Prescribed velocity at every boundary P2 node, as a vector over all dofs.

    traces maps polygon edge tag -> callable (x, y) -> (..., 2); each is
    evaluated once, on the array of its edges' dof coordinates.  Vertex nodes
    shared by two edges must receive consistent values.
    """
    S = space.n_scalar
    vals = np.zeros((S, 2))
    seen = np.zeros(S, dtype=bool)
    for tag, dofs in space.boundary_dofs.items():
        if tag not in traces:
            raise MissingEdgeData(f"no Dirichlet trace for boundary edge tag {tag}")
        x, y = space.dof_coords[dofs].T
        val = np.broadcast_to(np.asarray(traces[tag](x, y), dtype=float),
                              (len(dofs), 2))
        clash = seen[dofs] & ~np.isclose(vals[dofs], val, atol=1e-10).all(axis=1)
        if clash.any():
            k = int(np.argmax(clash))
            raise InconsistentEdgeData(
                f"conflicting Dirichlet values at node {dofs[k]}: "
                f"{vals[dofs[k]]} vs {val[k]}")
        vals[dofs] = val
        seen[dofs] = True
    out = np.zeros(space.n_dofs)
    out[:S], out[S:2 * S] = vals[:, 0], vals[:, 1]
    return out


def norms(field: MixedField) -> dict:
    """H1 (semi)norms of the velocity and L2 norms of both unknowns.

    The integrands are polynomials, so these are quadratic forms of the
    stiffness A, the P2 mass and the P1 mass M: the numbers error_norms gives
    against zero fields, without quadrature.  The P2 mass is never assembled:
    on each element it is the element's area times _P2_MASS, so its form is
    summed over the elements' dofs.  An assembled copy per space left the heap
    to grow by about 10 MB over 50 eps sweeps.
    """
    space = field.space
    A, _, _, M = space.stokes_blocks
    u = np.stack([field.ux, field.uy], axis=1)
    # One row per element and velocity component: its six dofs.
    ue = u[space.tri_dofs].transpose(0, 2, 1).reshape(-1, 6)
    # A does not see constants, so its form drops the mean: a near-constant
    # field's seminorm would otherwise be lost to rounding of order
    # |u|^2 ||A|| eps, which may even leave the form below 0.  The products
    # are summed without a BLAS dot product, whose idle threads can take
    # milliseconds to wake.
    semi2, l2p2 = (max(float(np.sum(v * (K @ v))), 0.0) for K, v in
                   ((A, u - u.mean(axis=0)), (M, field.p)))
    l2v2 = max(float(np.einsum("k,ki,ki->", np.repeat(space.areas, 2),
                               ue @ _P2_MASS, ue)), 0.0)
    return {"h1_seminorm": math.sqrt(semi2), "h1": math.sqrt(semi2 + l2v2),
            "l2_velocity": math.sqrt(l2v2), "l2_pressure": math.sqrt(l2p2)}


def diff_norms(a: MixedField, b: MixedField) -> dict:
    return norms(a.minus(b))


def error_norms(field: MixedField, velocity, velocity_grad=None, pressure=None) -> dict:
    """True discretization errors against analytic fields, by quadrature.

    velocity      : (x, y) -> (..., 2)
    velocity_grad : (x, y) -> (..., 2, 2) with [k, l] = d(u_k)/d(x_l), optional
    pressure      : (x, y) -> (...), optional
    """
    space = field.space
    pts, xq, wa = space.rule(8)
    x, y = np.moveaxis(xq, -1, 0)
    vh, ph = field.values(pts)
    vex = np.asarray(velocity(x, y), dtype=float)
    l2v2 = float(np.sum(wa * np.sum((vh - vex) ** 2, axis=-1)))
    out = {}
    if velocity_grad is not None:
        gex = np.asarray(velocity_grad(x, y), dtype=float)
        d2 = np.sum((field.gradient(pts) - gex) ** 2, axis=-1)
        semi2 = float(np.sum(wa * (d2[..., 0] + d2[..., 1])))
        out["h1_seminorm"] = math.sqrt(semi2)
        out["h1"] = math.sqrt(semi2 + l2v2)
    out["l2_velocity"] = math.sqrt(l2v2)
    if pressure is not None:
        pex = np.asarray(pressure(x, y), dtype=float)
        out["l2_pressure"] = math.sqrt(float(np.sum(wa * (ph - pex) ** 2)))
    return out


def second_equation_residual(field: MixedField) -> float:
    """Norm of (div u_h + eps p_h) tested against P1, relative to ||p_h||."""
    space = field.space
    pts, wa = space.weights(5)
    L = p1_shape(pts)
    g = field.gradient(pts)
    div = g[..., 0, 0] + g[..., 1, 1]
    _, ph = field.values(pts)
    contrib = np.einsum("mq,qk,mq->mk", wa, L, div + field.material.eps * ph)
    r = np.bincount(space.mesh.tris.ravel(), contrib.ravel(), space.mesh.n_nodes)
    pn = norms(field)["l2_pressure"]
    return float(np.linalg.norm(r)) / max(pn, 1e-30)
