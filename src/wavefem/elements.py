"""Reference-element bases, simplex quadrature, and DOF maps.

Two Lagrange families are provided on the reference simplex: discontinuous
piecewise linears for the velocity components (one independent copy per
cell) and continuous piecewise quadratics for the scalar field (DOFs at
vertices and edge midpoints). Quadrature rules are conical-product Gauss
rules, exact for all polynomial integrands up to the requested total
degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

from .mesh import CELL_EDGES, Mesh

__all__ = [
    "ReferenceElement",
    "QuadratureRule",
    "DofMap",
    "reference_element",
    "eval_basis",
    "tabulate",
    "quadrature",
    "build_dof_maps",
    "h_dof_coords",
]

P1_DG = "p1_dg"
P2_CG = "p2_cg"

# Gradients of the barycentric coordinates w.r.t. reference coordinates.
_BARY_GRADS = {d: np.vstack([-np.ones((1, d)), np.eye(d)]) for d in (1, 2, 3)}


@dataclass(frozen=True)
class ReferenceElement:
    dim: int
    family: str
    n_local: int
    node_coords: np.ndarray  # barycentric coordinates of the local nodes


def reference_element(dim: int, family: str) -> ReferenceElement:
    if dim not in (1, 2, 3):
        raise ValueError(f"unsupported dimension {dim}")
    nv = dim + 1
    if family == P1_DG:
        nodes = np.eye(nv)
        return ReferenceElement(dim, family, nv, nodes)
    if family == P2_CG:
        nodes = [np.eye(nv)[i] for i in range(nv)]
        for a, b in CELL_EDGES[dim]:
            nodes.append((np.eye(nv)[a] + np.eye(nv)[b]) / 2.0)
        return ReferenceElement(dim, family, nv * (nv + 1) // 2, np.array(nodes))
    raise ValueError(f"unknown element family {family!r}")


def tabulate(element: ReferenceElement, points: np.ndarray):
    """Basis values and reference-coordinate gradients at barycentric points.

    Returns arrays of shape (n_points, n_local) and (n_points, n_local, dim).
    """
    lam = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(lam)
    d = element.dim
    G = _BARY_GRADS[d]
    nv = d + 1
    if element.family == P1_DG:
        vals = lam.copy()
        grads = np.broadcast_to(G, (n, nv, d)).copy()
        return vals, grads
    vals = np.empty((n, element.n_local))
    grads = np.empty((n, element.n_local, d))
    vals[:, :nv] = lam * (2.0 * lam - 1.0)
    for i in range(nv):
        grads[:, i, :] = (4.0 * lam[:, i] - 1.0)[:, None] * G[i]
    for k, (a, b) in enumerate(CELL_EDGES[d]):
        vals[:, nv + k] = 4.0 * lam[:, a] * lam[:, b]
        grads[:, nv + k, :] = 4.0 * (lam[:, a, None] * G[b] + lam[:, b, None] * G[a])
    return vals, grads


def eval_basis(element: ReferenceElement, point):
    """Basis values and gradients at one barycentric point inside the simplex."""
    lam = np.asarray(point, dtype=float)
    if lam.shape != (element.dim + 1,):
        raise ValueError(f"expected {element.dim + 1} barycentric coordinates")
    if lam.min() < -1e-12 or abs(lam.sum() - 1.0) > 1e-12:
        raise ValueError(f"point {lam} is outside the reference simplex")
    vals, grads = tabulate(element, lam[None, :])
    return vals[0], grads[0]


@dataclass(frozen=True)
class QuadratureRule:
    dim: int
    degree: int
    points: np.ndarray   # barycentric, shape (n, dim+1)
    weights: np.ndarray  # sum to the reference-simplex measure 1/dim!


def _gauss01(n):
    x, w = leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def _jacobi01(n, alpha):
    # nodes/weights for weight (1-u)^alpha on [0, 1]
    x, w = roots_jacobi(n, alpha, 0.0)
    return (x + 1.0) / 2.0, w * 0.5 ** (alpha + 1)


def quadrature(dim: int, degree: int) -> QuadratureRule:
    """Conical-product Gauss rule on the reference simplex.

    Exact for every polynomial of total degree <= ``degree``. Degrees up
    to 6 are supported in dimensions 1 to 3 (degree 4 is the highest any
    assembled integrand needs).
    """
    if dim not in (1, 2, 3) or not 1 <= degree <= 6:
        raise ValueError(f"unsupported quadrature request dim={dim} degree={degree}")
    n = (degree + 2) // 2
    if dim == 1:
        x, w = _gauss01(n)
        pts = np.column_stack([1.0 - x, x])
        return QuadratureRule(dim, degree, pts, w)
    if dim == 2:
        u, wu = _jacobi01(n, 1)
        v, wv = _gauss01(n)
        U, V = np.meshgrid(u, v, indexing="ij")
        x = U.ravel()
        y = (V * (1.0 - U)).ravel()
        w = np.outer(wu, wv).ravel()
        pts = np.column_stack([1.0 - x - y, x, y])
        return QuadratureRule(dim, degree, pts, w)
    u, wu = _jacobi01(n, 2)
    v, wv = _jacobi01(n, 1)
    t, wt = _gauss01(n)
    U, V, T = np.meshgrid(u, v, t, indexing="ij")
    x = U.ravel()
    y = (V * (1.0 - U)).ravel()
    z = (T * (1.0 - U) * (1.0 - V)).ravel()
    w = (wu[:, None, None] * wv[None, :, None] * wt[None, None, :]).ravel()
    pts = np.column_stack([1.0 - x - y - z, x, y, z])
    return QuadratureRule(dim, degree, pts, w)


@dataclass(frozen=True)
class DofMap:
    """Element-local to global index maps for both function spaces.

    Velocity DOFs are contiguous per cell and never shared; scalar DOFs
    are numbered vertices first, then edge DOFs in canonical edge-table
    order (per-cell midpoints in 1D).
    """

    dim: int
    n_cells: int
    n_vertices: int
    u_cell_dofs: np.ndarray  # (C, dim+1)
    h_cell_dofs: np.ndarray  # (C, local P2 size)
    m_u: int
    m_h: int


def build_dof_maps(mesh: Mesh) -> DofMap:
    d = mesh.dim
    nv = d + 1
    n_cells = mesh.n_cells
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
    return DofMap(d, n_cells, mesh.n_vertices, u_map, h_map,
                  m_u=n_cells * nv, m_h=m_h)


def h_dof_coords(mesh: Mesh, dofs: DofMap) -> np.ndarray:
    """Physical coordinates of the scalar DOFs (vertices, then midpoints)."""
    coords = np.empty((dofs.m_h, mesh.dim))
    coords[:mesh.n_vertices] = mesh.vertices
    if mesh.dim == 1:
        coords[mesh.n_vertices:] = mesh.cell_coords.mean(axis=1)
    else:
        coords[mesh.n_vertices:] = mesh.vertices[mesh.edges].mean(axis=1)
    return coords
