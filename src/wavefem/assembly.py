"""Global operator assembly for the mixed velocity/scalar wave system.

Assembles, with quadrature exact for every integrand:

* the velocity mass matrix, block-diagonal since the velocity space is
  discontinuous; on affine cells each block is det_K times one reference
  matrix (``u_mass_ref``), so it is stored as that matrix alone and
  inverted once,
* the sparse symmetric scalar mass matrix,
* one gradient per spatial direction, including the boundary facet
  term that imposes Dirichlet data on the scalar weakly in 2D and 3D;
  on affine cells each volume block is det_K times one reference tensor
  contracted with J_K^{-1}, so that tensor and the inverse Jacobians are
  stored, and the facet terms are stored once per owner cell, summed over
  its Dirichlet facets; the per-cell blocks are derived from both for
  element-by-element bounds,
* the boundary data vectors entering the two semi-discrete equations.

On a cell the P1_DG basis is the barycentric coordinates, so its values
at a quadrature point are the point's barycentric coordinates; only the
P2 basis is tabulated (``elements.p2_basis``).

The semi-discrete system reads, per velocity component i (row i of the
velocity array (d, m_u) and of ``dirichlet_rhs``):

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
``square:N`` (see ``spectral.Spectrum.null_count``).

Every global matrix is a scatter of per-cell dense blocks (``_scatter``).
``AssembledOperators.__post_init__`` scatters the scalar mass, and
``spectral`` scatters the discrete Laplacian A = sum_K scatter(A_K) from
the cell blocks alone. The kick and the divergence apply the gradients
cell by cell, so no verb scatters one. Because grad P2 lies in P1_DG^d,
u_mass^{-1} grad_i h is the exact gradient of h at each cell's vertices,
so under Neumann data (and in 1D) A is the P2 stiffness matrix. Weak
Dirichlet facet terms change A only on the DOFs of their owner cells.

One routine, ``_factor``, factors every sparse matrix: the free block of
the scalar mass and the shifted pencils A - sigma M of ``spectral``. A
has the mass's sparsity pattern, so one ordering of the free scalar DOFs
serves all of them. On 3D meshes ``AssembledOperators`` derives a
geometric nested dissection (``_dissection_order``, George 1973; each cut
keeps the smaller one-sided separator) as its ``h_order``; SuperLU's
minimum-degree ordering (MMD) fills badly on 3D P2 patterns (L+U on
``cube:8`` 2.19M entries against 1.27M, on ``cube:12`` 19.1M against 6.81M,
factor time 3.5 s against 0.48 s there on a 2-core VM). It is None in 1D
and 2D, where neither order fills less throughout. Stored L+U of the free
mass, MMD against the dissection: MMD fills less on ``square:48`` (634,186
against 647,782), ``square_150``, ``square_1500`` and ``interval:200``,
the dissection on ``square:32``, 64 and 96 (3,446,132 against 3,096,640
on ``square:96``). Where the dissection fills less, computing it in
Python costs more than it saves on one factor (281 ms against 178 ms on
``square:96``, same VM).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import factorial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .elements import DofMap, h_dof_coords, p2_basis, quadrature
from .mesh import CELL_FACETS, BcSpec

__all__ = [
    "AssembledOperators",
    "assemble",
]

QUAD_DEGREE = 4  # highest assembled integrand: quadratic x quadratic
DISSECTION_LEAF = 16  # parts up to this many DOFs are not split further


@dataclass(eq=False)
class AssembledOperators:
    """Global matrices and boundary vectors of the semi-discrete system.

    The two fields are the inputs: the DOF map ``dofs``, which carries the
    mesh, and the boundary assignment ``bc``. ``__post_init__``, which
    ``dataclasses.replace`` reruns, derives everything else from them:
    ``mesh`` (``dofs.mesh``), ``dim``, the determinants ``cell_dets`` of the
    affine maps (d! |K|), the reference velocity and scalar masses
    ``u_mass_ref`` (n1, n1) and ``h_mass_ref`` (n2, n2), whose cell K blocks
    are ``cell_dets[K]`` times these, the (n1, n2, d) reference gradient
    tensor ``grad_ref``, the boundary terms ``facet_cells``, ``facet_grad``,
    ``dirichlet_rhs``, ``neumann_rhs``, ``h_fixed`` and ``h_fixed_values``
    (``_boundary_terms``), the scalar mass ``h_mass`` scattered from its cell
    blocks, the free scalar DOFs ``h_free``, ascending, and on 3D meshes the
    order ``h_order`` of the module docstring (None in 1D and 2D). The blocks
    ``grad_cells`` are derived on every read; no verb reads the d-tuple
    ``grad`` of (m_u, m_h) gradients, scattered from them on first access
    (a ``replace`` copy scatters its own). Scalar vectors and matrices span
    all ``m_h`` scalar DOFs; the fixed ones (strong Dirichlet vertices, 1D
    only) hold ``h_fixed_values``.
    """

    dofs: DofMap
    bc: BcSpec
    # Cache filled on first use; ``dataclasses.replace`` does not copy it.
    _h_factor: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        hd, m_h = self.dofs.h_cell_dofs, self.dofs.m_h
        self.mesh, self.dim = self.dofs.mesh, self.dofs.mesh.dim
        (self.facet_cells, self.facet_grad, self.dirichlet_rhs, self.neumann_rhs,
         self.h_fixed, self.h_fixed_values) = _boundary_terms(self.dofs, self.bc)
        rule = quadrature(self.dim, QUAD_DEGREE)
        v1 = rule.points  # P1_DG values (module docstring)
        v2, g2 = p2_basis(rule.points)
        self.u_mass_ref = np.einsum("q,qa,qb->ab", rule.weights, v1, v1)
        self.h_mass_ref = np.einsum("q,qa,qb->ab", rule.weights, v2, v2)
        self.grad_ref = np.einsum("q,qa,qbk->abk", rule.weights, v1, g2)
        self.cell_dets = self.mesh.cell_measures * factorial(self.dim)  # det J = d! |K|
        self.h_mass = _scatter(hd, hd, self.cell_dets[:, None, None] * self.h_mass_ref, (m_h, m_h))
        self.h_free = np.setdiff1d(np.arange(m_h), self.h_fixed)
        self._u_mass_inv = np.linalg.inv(self.u_mass_ref)
        vg = np.einsum("ac,cbk->bak", self._u_mass_inv, self.grad_ref)  # d(basis b)/dxi_k at a
        self._vertex_grad = vg.reshape(len(vg), -1)  # row b, column a d + k
        # every DOF is free in 3D, so the order spans the whole mass
        self.h_order = (_dissection_order(self.h_mass, h_dof_coords(self.dofs))
                        if self.dim == 3 else None)

    @property
    def grad_cells(self) -> np.ndarray:
        """(C, d, n1, n2) per-cell gradient blocks: det_K times the reference
        tensor contracted with J_K^{-1}, rows 1..d of the mesh's barycentric
        gradients (d(basis)/dx_i = d(basis)/dxi_k * Jinv[k, i]), plus
        ``facet_grad`` on the owner cells."""
        jinv = self.mesh.barycentric_gradients[:, 1:]
        blocks = np.einsum("abk,cki->ciab", self.grad_ref, jinv)
        blocks = self.cell_dets[:, None, None, None] * blocks
        blocks[self.facet_cells] += self.facet_grad
        return blocks

    @cached_property
    def grad(self) -> tuple:
        blocks, ud, hd = self.grad_cells, self.dofs.u_cell_dofs, self.dofs.h_cell_dofs
        shape = (self.dofs.m_u, self.dofs.m_h)
        return tuple(_scatter(ud, hd, blocks[:, i], shape) for i in range(self.dim))

    def free_block(self, mat):
        """Free-by-free block of a scalar-space matrix; ``mat`` itself
        when no scalar DOF is fixed."""
        if len(self.h_fixed) == 0:
            return mat
        return mat[self.h_free][:, self.h_free]

    def divergence(self, u):
        """``sum_i grad_i^T u_i - neumann_rhs``, the right-hand side of the
        scalar equation, cell by cell: rows det_K (J_K^{-1} u_K) ``grad_ref``,
        plus u_K ``facet_grad`` on the owner cells, summed over ``h_cell_dofs``."""
        (C, n1), (_, n2), d = self.dofs.u_cell_dofs.shape, self.dofs.h_cell_dofs.shape, self.dim
        u, fc = np.reshape(u, (d, C, n1)), self.facet_cells
        w = self.mesh.barycentric_gradients[:, 1:] @ (u * self.cell_dets[:, None]).swapaxes(0, 1)
        rows = w.reshape(C, -1) @ self.grad_ref.transpose(2, 0, 1).reshape(d * n1, n2)
        u_fc = np.take(u, fc, axis=1).swapaxes(0, 1).reshape(len(fc), 1, d * n1)
        rows[fc] += (u_fc @ self.facet_grad.reshape(len(fc), d * n1, n2))[:, 0]
        return _accumulate(self.dofs.h_cell_dofs, rows, self.dofs.m_h) - self.neumann_rhs

    def kick(self, h):
        """``u_mass^{-1} (grad h + dirichlet_rhs)`` as a (d, m_u) array, so
        ``du/dt = -kick(h)``, cell by cell: the gradient of h at K's vertices,
        h_K ``_vertex_grad`` J_K^{-1}, needs no mass inverse; on the owner cells
        (``dirichlet_rhs`` is zero off them) ``facet_grad`` h_K plus K's rows of
        ``dirichlet_rhs`` takes K's block ``inv(u_mass_ref) / cell_dets[K]``."""
        hd, (C, n1), d = self.dofs.h_cell_dofs, self.dofs.u_cell_dofs.shape, self.dim
        k = (h[hd] @ self._vertex_grad).reshape(C, n1, d) @ self.mesh.barycentric_gradients[:, 1:]
        fc = self.facet_cells
        if len(fc):  # no owner cells under Neumann data or in 1D
            r = (self.facet_grad.reshape(len(fc), d * n1, -1) @ h[hd[fc], None]).reshape(-1, d, n1)
            r += np.take(self.dirichlet_rhs.reshape(d, C, n1), fc, axis=1).swapaxes(0, 1)
            r = (r.reshape(-1, n1) @ self._u_mass_inv).reshape(r.shape)  # the inverse is symmetric
            k[fc] += (r / self.cell_dets[fc, None, None]).swapaxes(1, 2)
        return k.transpose(2, 0, 1).reshape(d, -1)

    def h_mass_solver(self):
        """Cached solve with the free block of the scalar mass, factored by
        ``_factor`` in the order ``h_order``."""
        if self._h_factor is None:
            self._h_factor = _factor(self.free_block(self.h_mass), self.h_order)
        return self._h_factor


def _facet_rule(d: int):
    """Facet quadrature embedded in the reference cell.

    Returns barycentric cell points of shape (d+1, n, d+1), one set per
    local facet (``CELL_FACETS`` order, zero on the opposite corner), and
    weights summing to 1 so that scaling by a facet's measure integrates
    over it.
    """
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
    Indices are built as int32 when they fit, the type SciPy casts them to,
    so no cast copies them. Exact zeros are not stored: a gradient block
    has many on structured meshes (a quarter of each ``grad_i`` on
    ``cube:8``), and every product with the matrix would multiply them."""
    full, index = blocks.shape, np.int32 if max(shape) < 2 ** 31 else np.int64
    rows = np.broadcast_to(row_dofs[:, :, None].astype(index), full).ravel()
    cols = np.broadcast_to(col_dofs[:, None, :].astype(index), full).ravel()
    mat = sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=shape).tocsr()
    del rows, cols  # freed before the copies below
    mat.eliminate_zeros()  # may keep views of the unpruned arrays: copy
    mat.data, mat.indices = mat.data.copy(), mat.indices.copy()
    return mat


def _dissection_order(mat, coords: np.ndarray) -> np.ndarray:
    """Geometric nested-dissection order of the rows of the symmetric
    sparsity pattern ``mat``, whose DOFs sit at ``coords`` (George 1973).

    A part is split at the median of its widest coordinate, the median
    value on the left. The smaller of its two one-sided separators (one
    side's DOFs coupled to the other; the left one on a tie) leaves two
    halves that share no entry. The side that held it, then the other
    side, are ordered the same way, and it is numbered last. Parts of at
    most ``DISSECTION_LEAF`` DOFs keep their order. No Kuhn cell crosses a
    vertex plane, so on the Kuhn lattice that separator is one DOF plane,
    where the left one of a midpoint-plane median is two planes thick.
    """
    csr = mat.tocsr()
    ptr, cols, degree = csr.indptr, csr.indices, np.diff(csr.indptr)
    mark = np.zeros(mat.shape[0], dtype=bool)

    def parts(idx):
        if len(idx) <= DISSECTION_LEAF:
            return [idx]
        x = coords[idx]
        key = x[:, np.ptp(x, axis=0).argmax()]
        on_left = key <= np.median(key)
        if on_left.all():  # over half the part on its far face: no split
            return [idx]
        left, right = idx[on_left], idx[~on_left]
        # gather the left rows' column entries; every row holds its diagonal
        count = degree[left]
        first = np.cumsum(count) - count
        entries = np.arange(count.sum()) + np.repeat(ptr[left] - first, count)
        mark[right] = True
        sep = np.logical_or.reduceat(hit := mark[cols[entries]], first)
        mark[cols[entries[hit]]] = False  # symmetric: the right DOFs coupled to the left
        right_sep, mark[right] = ~mark[right], False
        if right_sep.sum() < sep.sum():
            left, right, sep = right, left, right_sep
        return parts(left[~sep]) + parts(right) + [left[sep]]

    return np.concatenate(parts(np.arange(mat.shape[0])))


def _factor(mat, order):
    """Solve function of a sparse symmetric matrix: the scalar mass's free
    block, a shifted pencil A - sigma M or the dt check's indefinite sigma M - A.

    A definite one needs no pivoting, so SuperLU takes the diagonal
    pivots and a symmetric ordering. With ``order`` (3D, the nested
    dissection of the module docstring) it factors ``mat[order][:, order]``
    in that natural order and the solve scatters the result back; without
    it SuperLU orders by minimum degree on A + A^T (MMD), as in 1D and 2D
    (module docstring). The function keeps the factor as ``lu`` (a SuperLU
    object, of the reordered matrix when ``order`` is given) and describes
    it as ``summary``: the ordering (``"nested_dissection"`` or ``"mmd"``)
    and ``factor_nnz``, SuperLU's count of the L and U entries it stores.
    """
    mat = (mat if order is None else mat[order][:, order]).tocsc()  # frees the CSR copy
    lu = spla.splu(mat, permc_spec="MMD_AT_PLUS_A" if order is None else "NATURAL",
                   diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    inverse = None if order is None else np.argsort(order)

    def solve(b):
        return lu.solve(b) if order is None else lu.solve(b[order])[inverse]

    solve.lu = lu
    solve.summary = {"ordering": "mmd" if order is None else "nested_dissection",
                     "factor_nnz": lu.nnz}
    return solve


def _accumulate(index: np.ndarray, values: np.ndarray, length: int) -> np.ndarray:
    """Sum ``values`` at ``index`` into a float vector of ``length``; the cast
    covers an empty ``index``, for which ``np.bincount`` returns integers."""
    return np.bincount(index.ravel(), weights=values.ravel(),
                       minlength=length).astype(float, copy=False)


def _boundary_terms(dofs: DofMap, bc: BcSpec):
    """The boundary-facet pass of ``AssembledOperators``: the ascending cells
    ``facet_cells`` that own a weak Dirichlet facet, their (owners, d, n1, n2)
    blocks ``facet_grad``, each the sum of -n_i (v, h) over the owner's
    Dirichlet facets, ``dirichlet_rhs`` (d, m_u), zero off the owner cells,
    ``neumann_rhs`` (m_h,), ``h_fixed`` and ``h_fixed_values``. A
    ``ValueError`` unless the markers of ``bc`` are exactly those of the
    mesh boundary."""
    mesh = dofs.mesh
    present = set(np.unique(mesh.boundary_markers).tolist())
    declared = set(bc.dirichlet_markers) | set(bc.neumann_markers)
    if declared - present:
        raise ValueError(f"markers {sorted(declared - present)} not on mesh boundary")
    if present - declared:
        raise ValueError(f"boundary markers {sorted(present - declared)} not "
                         "assigned to either condition")

    d = mesh.dim
    m_u, m_h, hd, ud = dofs.m_u, dofs.m_h, dofs.h_cell_dofs, dofs.u_cell_dofs

    # Boundary facets, all at once: each facet's quadrature points are the
    # embedded rule of its local facet, so the owner-cell bases come from
    # the d+1 embedded rules: their barycentric points are the P1_DG
    # values, and one P2 tabulation gives the rest.
    lam, fw = _facet_rule(d)
    nq = len(fw)
    fv2 = p2_basis(lam.reshape(-1, d + 1))[0].reshape(d + 1, nq, -1)
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

    # Weak Dirichlet facets: -n_i (v, h) is a gradient block of the owner
    # cell, summed per owner (``facet_grad``); n_i (v, g) goes to the right-hand side.
    weak = dirichlet & ~strong
    cD, lfD, wD, nD = cell[weak], lf[weak], w[weak], mesh.boundary_normals[weak]
    owners, owner = np.unique(cD, return_inverse=True)
    facet_grad = np.zeros((len(owners), d, d + 1, fv2.shape[-1]))
    np.add.at(facet_grad, owner, np.einsum("bi,bq,bqa,bqc->biac", -nD, wD, lam[lfD], fv2[lfD],
                                           optimize=True))
    gvec = np.einsum("bq,bqa->ba", wD * sample(bc.g, weak), lam[lfD])
    rows = np.arange(d)[:, None, None] * m_u + ud[cD]
    dirichlet_rhs = _accumulate(rows, nD.T[:, :, None] * gvec, d * m_u).reshape(d, m_u)

    # Neumann facets: (v, f) for every scalar test function v
    cN, lfN, wN = cell[~dirichlet], lf[~dirichlet], w[~dirichlet]
    fvec = np.einsum("bq,bqc->bc", wN * sample(bc.f, ~dirichlet), fv2[lfN])
    neumann_rhs = _accumulate(hd[cN], fvec, m_h)
    return owners, facet_grad, dirichlet_rhs, neumann_rhs, h_fixed, h_fixed_values


def assemble(dofs: DofMap, bc: BcSpec) -> AssembledOperators:
    """``AssembledOperators(dofs, bc)``: all global operators on ``dofs.mesh``
    for the boundary assignment ``bc`` (``ValueError`` on a marker mismatch)."""
    return AssembledOperators(dofs, bc)
