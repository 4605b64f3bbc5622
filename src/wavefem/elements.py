"""The P1_DG-P2 element pair on simplices, simplex quadrature, and DOF maps.

The velocity components are discontinuous piecewise linears (one
independent copy per cell) whose basis on a cell is its barycentric
coordinates, so assembly uses the barycentric quadrature points
themselves as the P1_DG basis values. The scalar field is continuous
piecewise quadratic, with DOFs at vertices and edge midpoints;
``p2_basis`` tabulates it. Since grad P2 lies in P1_DG^d, the pair's
discrete gradient is exact. Quadrature rules are collapsed-coordinate
Gauss-Jacobi products (Stroud 1971), exact for all polynomial integrands
up to the requested total degree; each Gauss-Jacobi rule comes from the
eigenvalues of its Jacobi matrix (Golub and Welsch 1969), so the module
needs numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import CELL_EDGES, Mesh

__all__ = [
    "QuadratureRule",
    "DofMap",
    "p2_basis",
    "quadrature",
    "build_dof_maps",
    "h_dof_coords",
]


def p2_basis(points):
    """P2 basis values and reference-coordinate gradients at barycentric
    points, vertex functions first, then edge functions in ``CELL_EDGES``
    order. Returns arrays of shape (n_points, n2) and (n_points, n2, dim).
    """
    lam = np.atleast_2d(np.asarray(points, dtype=float))
    d = lam.shape[1] - 1
    # gradients of the barycentric coordinates w.r.t. reference coordinates
    G = np.vstack([-np.ones((1, d)), np.eye(d)])
    a, b = np.array(CELL_EDGES[d]).T
    vals = np.hstack([lam * (2.0 * lam - 1.0), 4.0 * lam[:, a] * lam[:, b]])
    grads = np.concatenate([(4.0 * lam - 1.0)[:, :, None] * G,
                            4.0 * (lam[:, a, None] * G[b] + lam[:, b, None] * G[a])], axis=1)
    return vals, grads


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    points: np.ndarray   # barycentric, shape (n, dim+1)
    weights: np.ndarray  # sum to the reference-simplex measure 1/dim!


def _gauss_jacobi(n: int, alpha: int):
    """n-point Gauss rule on [-1, 1] for the weight (1 - x)^alpha (Golub and
    Welsch 1969). The nodes are the eigenvalues of the symmetric Jacobi
    matrix of the Jacobi polynomials P_k^(alpha, 0); the weights are the
    squared first components of its eigenvectors times the weight's
    integral 2^(alpha + 1) / (alpha + 1)."""
    k = np.arange(1, n)
    s = 2.0 * k + alpha
    diag = np.append(-alpha / (alpha + 2.0), -alpha ** 2 / (s * (s + 2.0)))
    off = 2.0 * k * (k + alpha) / (s * np.sqrt(s * s - 1.0))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return x, 2.0 ** (alpha + 1) / (alpha + 1) * v[0] ** 2


def quadrature(dim: int, degree: int) -> QuadratureRule:
    """Collapsed-coordinate Gauss rule on the reference simplex.

    Exact for every polynomial of total degree <= ``degree``. Degrees up
    to 6 are supported in dimensions 0 to 3 (degree 4 is the highest any
    assembled integrand needs). Dimension 0 is the single point of
    weight 1. A dim-simplex is swept by x_1 = u in [0, 1] and the
    (dim - 1)-simplex scaled by 1 - u, so the rule is a Gauss-Jacobi rule
    in u for the weight (1 - u)^(dim - 1) times the (dim - 1) rule, whose
    barycentric points are scaled by 1 - u with u inserted as x_1.
    """
    if not 0 <= dim <= 3 or not 1 <= degree <= 6:
        raise ValueError(f"unsupported quadrature request dim={dim} degree={degree}")
    if dim == 0:
        return QuadratureRule(np.ones((1, 1)), np.ones(1))
    base = quadrature(dim - 1, degree)
    x, w = _gauss_jacobi((degree + 2) // 2, dim - 1)
    u, wu = (x + 1.0) / 2.0, w * 0.5 ** dim
    scaled = ((1.0 - u)[:, None, None] * base.points).reshape(-1, dim)
    points = np.insert(scaled, 1, np.repeat(u, len(base.weights)), axis=1)
    return QuadratureRule(points, np.outer(wu, base.weights).ravel())


@dataclass(frozen=True, eq=False)
class DofMap:
    """Element-local to global index maps for both function spaces on
    ``mesh``, the one field; a function given the map reads the mesh there,
    never apart. ``__post_init__``, which ``dataclasses.replace`` reruns,
    derives the read-only maps from it. Cell K owns the velocity DOFs
    K (d+1) ... K (d+1) + d, row K of ``u_cell_dofs`` (C, d+1), never
    shared, so ``m_u`` = C (d+1). ``h_cell_dofs`` (C, local P2 size)
    numbers the ``m_h`` scalar DOFs vertices first, then edge DOFs in
    canonical edge-table order (per-cell midpoints in 1D).
    """

    mesh: Mesh

    def __post_init__(self):
        mesh, d = self.mesh, self.mesh.dim
        nv, n_cells = d + 1, mesh.n_cells
        u_map = np.arange(n_cells * nv, dtype=np.int64).reshape(n_cells, nv)
        if d == 1:
            # the interior P2 node lives on the cell itself
            mids = mesh.n_vertices + np.arange(n_cells, dtype=np.int64)
            h_map = np.column_stack([mesh.cells, mids])
            m_h = mesh.n_vertices + n_cells
        else:
            h_map = np.hstack([mesh.cells, mesh.n_vertices + mesh.cell_edges])
            m_h = mesh.n_vertices + mesh.n_edges
        for arr in (u_map, h_map):
            arr.setflags(write=False)
        # frozen, so the derived attributes go past ``__setattr__``
        self.__dict__.update(u_cell_dofs=u_map, h_cell_dofs=h_map, m_u=n_cells * nv, m_h=m_h)


def build_dof_maps(mesh: Mesh) -> DofMap:
    """The DOF maps of ``mesh``: ``DofMap(mesh)``."""
    return DofMap(mesh)


def h_dof_coords(dofs: DofMap) -> np.ndarray:
    """Physical coordinates of the scalar DOFs of ``dofs.mesh`` (vertices,
    then midpoints); each cell writes its own, the periodic wrap cell too."""
    mesh, d = dofs.mesh, dofs.mesh.dim
    coords = np.empty((dofs.m_h, d))
    coords[:mesh.n_vertices] = mesh.vertices
    coords[dofs.h_cell_dofs[:, d + 1:]] = mesh.cell_coords[:, CELL_EDGES[d]].mean(axis=2)
    return coords
