"""Global operator assembly for the mixed velocity/scalar wave system.

Assembles, with quadrature exact for every integrand:

* the velocity mass matrix, block-diagonal since the velocity space is
  discontinuous; on affine cells each block is det_K times one reference
  matrix (``u_mass_ref``), so it is stored as that matrix alone and
  inverted once,
* the sparse symmetric scalar mass matrix,
* one sparse gradient matrix per spatial direction, including the
  boundary facet term that imposes Dirichlet data on the scalar weakly
  in 2D and 3D; each facet term is folded into its owner cell's block,
  and the per-cell blocks are kept for element-by-element bounds,
* the boundary data vectors entering the two semi-discrete equations.

The semi-discrete system reads, per velocity component i:

    d/dt (u_mass u_i) = -grad_i h - dirichlet_rhs_i
    d/dt (h_mass  h)  = sum_i grad_i^T u_i - neumann_rhs

Dirichlet data are imposed weakly in 2D and 3D and strongly in 1D.
The weak form adds -n_i (v, h) on each Dirichlet facet to the gradient
and puts n_i (v, g) on the right-hand side. In 1D that cannot give a
trivial kernel. With N cells there are 2N velocity DOFs and 2N+1 scalar
DOFs, so the gradient has more columns than rows and always has a null
vector, whatever facet block it carries. Each Dirichlet end cell carries
one such mode: it sits on the boundary vertex and the cell midpoint and
has zero cell mean, which is all that P1 test functions see. In 1D the
Dirichlet vertices are therefore fixed scalar DOFs. They hold g, the
gradient gets no facet block for them, and the scalar equation is solved
on the free DOFs only (``AssembledOperators.h_free``). In 2D and 3D
every scalar DOF is free. There, the weak form can still leave null
modes in a cell with d Dirichlet facets, such as a corner cell of
``square:N`` (see ``spectral.null_space_dimension``).

Every global matrix is a scatter of per-cell dense blocks (``_scatter``):
the scalar mass, each gradient, each kick operator u_mass^{-1} grad_i and
the discrete Laplacian A = sum_K scatter(A_K) of ``spectral``. Because
grad P2 lies in P1_DG^d, u_mass^{-1} grad_i h is the exact gradient of h,
so under Neumann data (and in 1D) A is the P2 stiffness matrix. Weak
Dirichlet facet blocks change A only on the DOFs of their owner cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .elements import DofMap, P1_DG, P2_CG, quadrature, reference_element, tabulate
from .mesh import CELL_FACETS, BcSpec, Mesh

__all__ = [
    "AssembledOperators",
    "assemble",
]

QUAD_DEGREE = 4  # highest assembled integrand: quadratic x quadratic


@dataclass
class AssembledOperators:
    """Global matrices and boundary vectors of the semi-discrete system.

    Scalar vectors and matrices span all ``m_h`` scalar DOFs. The fixed
    DOFs (strong Dirichlet vertices, 1D only) hold ``h_fixed_values``;
    the scalar equation is posed on the free DOFs ``h_free``.
    """

    dim: int
    dofs: DofMap
    h_mass: sp.csr_matrix
    grad: tuple                 # d sparse matrices, shape (m_u, m_h)
    dirichlet_rhs: tuple        # d vectors of length m_u
    neumann_rhs: np.ndarray     # length m_h
    h_free: np.ndarray          # free scalar DOFs, ascending
    h_fixed: np.ndarray         # fixed scalar DOFs
    h_fixed_values: np.ndarray  # g at the fixed scalar DOFs
    grad_cells: np.ndarray      # (C, n1, n2, d) per-cell gradient blocks,
                                # weak Dirichlet facet terms included
    cell_dets: np.ndarray       # (C,) affine-map determinants
    u_mass_ref: np.ndarray      # (n1, n1) velocity and (n2, n2) scalar mass
    h_mass_ref: np.ndarray      # of the reference cell; cell K's blocks are
                                # cell_dets[K] times these
    _h_factor: object = field(default=None, repr=False, compare=False)
    _kick: object = field(default=None, repr=False, compare=False)

    def free_block(self, mat):
        """Free-by-free block of a scalar-space matrix; ``mat`` itself
        when no scalar DOF is fixed."""
        if len(self.h_fixed) == 0:
            return mat
        return mat[self.h_free][:, self.h_free]

    def divergence(self, u):
        """``sum_i grad_i^T u_i - neumann_rhs``, the right-hand side of
        the scalar equation."""
        return sum((g.T @ u_i for g, u_i in zip(self.grad, u)), -self.neumann_rhs)

    def kick_operator(self):
        """Cached ``(B_i, s_i)`` per velocity component, with
        ``B_i = u_mass^{-1} grad_i`` and ``s_i = u_mass^{-1} dirichlet_rhs_i``,
        so that the velocity equation reads ``du_i/dt = -(B_i h + s_i)``.
        Cell K's block of ``u_mass^{-1}`` is ``inv(u_mass_ref) / cell_dets[K]``,
        and K's velocity DOFs are row K of ``r.reshape(C, n1)``."""
        if self._kick is None:
            inv, d, det = np.linalg.inv(self.u_mass_ref), self.dofs, self.cell_dets
            kick = []
            for i, r in enumerate(self.dirichlet_rhs):
                B = _scatter(d.u_cell_dofs, d.h_cell_dofs,
                             inv @ self.grad_cells[..., i] / det[:, None, None], (d.m_u, d.m_h))
                s = (r.reshape(d.u_cell_dofs.shape) @ inv) / det[:, None]
                kick.append((B, s.ravel()))
            self._kick = tuple(kick)
        return self._kick

    def h_mass_solver(self):
        """Cached LU solve of the free block of the scalar mass matrix. The
        matrix is symmetric positive definite, so the LU takes a symmetric
        fill-reducing ordering and the diagonal pivots."""
        if self._h_factor is None:
            self._h_factor = spla.splu(
                self.free_block(self.h_mass).tocsc(), permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0, options={"SymmetricMode": True}).solve
        return self._h_factor


def _cell_jacobians(mesh: Mesh):
    """Batched inverse Jacobians and volume scale factors of the affine maps."""
    X = mesh.cell_coords
    J = np.transpose(X[:, 1:, :] - X[:, :1, :], (0, 2, 1))
    det = mesh.cell_measures * factorial(mesh.dim)
    Jinv = np.linalg.inv(J)
    return Jinv, det


def _facet_rule(d: int):
    """Facet quadrature embedded in the reference cell.

    Returns barycentric cell points of shape (d+1, n, d+1), one set per
    local facet (``CELL_FACETS`` order, zero on the opposite corner), and
    weights summing to 1 so that scaling by a facet's measure integrates
    over it.
    """
    if d == 1:
        points, weights = np.ones((1, 1)), np.ones(1)
    else:
        rule = quadrature(d - 1, QUAD_DEGREE)
        points, weights = rule.points, rule.weights / rule.weights.sum()
    lam = np.zeros((d + 1, len(weights), d + 1))
    for j, corners in enumerate(CELL_FACETS[d]):
        lam[j][:, corners] = points
    return lam, weights


def _scatter(row_dofs: np.ndarray, col_dofs: np.ndarray, blocks: np.ndarray,
             shape) -> sp.csr_matrix:
    """Global sparse matrix that sums each cell's dense block ``blocks[K]``
    (shape (C, r, c)) into rows ``row_dofs[K]`` and columns ``col_dofs[K]``.

    Exact zeros are not stored: a gradient block has many on structured
    meshes (a quarter of each ``grad_i`` on ``cube:8``), and every product
    with the matrix would multiply them."""
    full = blocks.shape
    rows = np.broadcast_to(row_dofs[:, :, None], full).ravel()
    cols = np.broadcast_to(col_dofs[:, None, :], full).ravel()
    mat = sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=shape).tocsr()
    mat.eliminate_zeros()
    return mat


def _accumulate(index: np.ndarray, values: np.ndarray, length: int) -> np.ndarray:
    """Sum ``values`` at ``index`` into a float vector of ``length``; the cast
    covers an empty ``index``, for which ``np.bincount`` returns integers."""
    return np.bincount(index.ravel(), weights=values.ravel(),
                       minlength=length).astype(float, copy=False)


def assemble(mesh: Mesh, dofs: DofMap, bc: BcSpec) -> AssembledOperators:
    """Assemble all global operators for a mesh and boundary assignment.

    Every marker in ``bc`` must be present on the mesh boundary and every
    boundary marker must be assigned to one of the two sets.
    """
    present = set(np.unique(mesh.boundary_markers).tolist())
    declared = set(bc.dirichlet_markers) | set(bc.neumann_markers)
    if declared - present:
        raise ValueError(f"markers {sorted(declared - present)} not on mesh boundary")
    if present - declared:
        raise ValueError(f"boundary markers {sorted(present - declared)} not "
                         "assigned to either condition")

    d = mesh.dim
    p1 = reference_element(d, P1_DG)
    p2 = reference_element(d, P2_CG)
    rule = quadrature(d, QUAD_DEGREE)
    v1, _ = tabulate(p1, rule.points)
    v2, g2 = tabulate(p2, rule.points)

    Jinv, det = _cell_jacobians(mesh)

    # Affine cells: both mass matrices are the reference ones scaled by det.
    mu_ref = np.einsum("q,qa,qb->ab", rule.weights, v1, v1)
    mh_ref = np.einsum("q,qa,qb->ab", rule.weights, v2, v2)

    # Volume gradient term: contract the reference tensor with each cell's
    # inverse Jacobian (d(basis)/dx_i = d(basis)/dxi_k * Jinv[k, i]).
    grad_ref = np.einsum("q,qa,qbk->abk", rule.weights, v1, g2)
    grad_cells = det[:, None, None, None] * np.einsum("abk,cki->cabi", grad_ref, Jinv)

    m_u, m_h = dofs.m_u, dofs.m_h
    hd = dofs.h_cell_dofs
    ud = dofs.u_cell_dofs
    n1, n2 = p1.n_local, p2.n_local

    h_mass = _scatter(hd, hd, det[:, None, None] * mh_ref, (m_h, m_h))

    # Boundary facets, all at once: each facet's quadrature points are the
    # embedded rule of its local facet, so the owner-cell bases come from
    # one tabulation of the d+1 embedded rules.
    lam, fw = _facet_rule(d)
    nq = len(fw)
    fv1 = tabulate(p1, lam.reshape(-1, d + 1))[0].reshape(d + 1, nq, n1)
    fv2 = tabulate(p2, lam.reshape(-1, d + 1))[0].reshape(d + 1, nq, n2)
    cell, lf = mesh.boundary_cells, mesh.boundary_local_facets
    w = mesh.boundary_measures[:, None] * fw                            # (B, nq)
    pts = np.einsum("bqk,bkx->bqx", lam[lf], mesh.cell_coords[cell])    # (B, nq, d)
    dirichlet = np.isin(mesh.boundary_markers, list(bc.dirichlet_markers))

    def sample(fn, on):
        """Boundary datum at the quadrature points of the selected facets."""
        x = pts[on].reshape(-1, d)
        return np.broadcast_to(np.asarray(fn(x), dtype=float), (len(x),)).reshape(-1, nq)

    # 1D Dirichlet facets are vertices held strongly: a fixed scalar DOF
    # with the value g, and no weak term (module docstring).
    strong = dirichlet if d == 1 else np.zeros_like(dirichlet)
    corner = np.array(CELL_FACETS[d])[lf[strong], 0]
    h_fixed = hd[cell[strong], corner]
    h_fixed_values = sample(bc.g, strong).ravel()
    h_free = np.setdiff1d(np.arange(m_h), h_fixed)

    # Weak Dirichlet facets: -n_i (v, h) joins the owner's gradient block;
    # n_i (v, g) goes to the right-hand side.
    weak = dirichlet & ~strong
    cD, lfD, wD = cell[weak], lf[weak], w[weak]
    nD = mesh.boundary_normals[weak]
    blocks = np.einsum("bq,bqa,bqc->bac", wD, fv1[lfD], fv2[lfD])
    gvec = np.einsum("bq,bqa->ba", wD * sample(bc.g, weak), fv1[lfD])
    dirichlet_rhs = tuple(_accumulate(ud[cD], nD[:, i, None] * gvec, m_u) for i in range(d))

    np.add.at(grad_cells, cD, -blocks[..., None] * nD[:, None, None, :])

    grad = tuple(_scatter(ud, hd, grad_cells[..., i], (m_u, m_h)) for i in range(d))

    # Neumann facets: (v, f) for every scalar test function v
    cN, lfN, wN = cell[~dirichlet], lf[~dirichlet], w[~dirichlet]
    fvec = np.einsum("bq,bqc->bc", wN * sample(bc.f, ~dirichlet), fv2[lfN])
    neumann_rhs = _accumulate(hd[cN], fvec, m_h)

    return AssembledOperators(
        dim=d, dofs=dofs, h_mass=h_mass, grad=grad,
        dirichlet_rhs=dirichlet_rhs, neumann_rhs=neumann_rhs,
        h_free=h_free, h_fixed=h_fixed, h_fixed_values=h_fixed_values,
        grad_cells=grad_cells, cell_dets=det, u_mass_ref=mu_ref, h_mass_ref=mh_ref)
