"""Spectrum of the discrete Laplacian and spurious-mode diagnostics.

Eliminating the velocity from the semi-discrete wave system leaves a
generalized eigenproblem for the scalar field,

    A v = lambda h_mass v,   A = sum_i grad_i^T u_mass^{-1} grad_i,

whose spectrum is the compatibility diagnostic for the element pair: a
stable discretization has a one-dimensional null space (the constant)
under Neumann conditions and none under Dirichlet conditions, with no
small eigenvalues that sink further under mesh refinement.

The pencil is posed on the free scalar DOFs (``ops.h_free``). In 2D and
3D that is every DOF and Dirichlet data enter weakly. In 1D the
Dirichlet vertices are fixed DOFs and drop out (``assembly`` module
docstring). The problem size of every routine here is the pencil's,
which is smaller than ``ops.dofs.m_h`` when DOFs are fixed.

The velocity mass is block-diagonal, with block M_u,K = det_K
``ops.u_mass_ref`` on cell K, and each weak Dirichlet facet term belongs
to its owner cell, so A = sum_K scatter(A_K) exactly, with the cell
Laplacian A_K = sum_i G_Ki^T M_u,K^{-1} G_Ki (``_cell_laplacian``), where
G_Ki = ``ops.grad_cells[K, i]``, derived from the reference gradient
tensor, the facet blocks and J_K^{-1} of ``ops.mesh`` (``ops.dofs.mesh``),
acts on row i of the velocity array. No global gradient matrix is built.
Both ``laplacian_pencil`` and ``cell_lambda_bound`` read these blocks.
Since grad P2 lies in P1_DG^d (the paper's stability argument), M_u,K^{-1}
G_Ki h is the exact gradient of h on K, so A_K is the P2 stiffness matrix
of K unless K owns a weak Dirichlet facet. Hence A = S, the P2 Lagrange
stiffness matrix (grad h, grad v), under Neumann data and in 1D (there
restricted to the free DOFs); under weak Dirichlet data A - S is nonzero
only on the DOFs of cells that own a Dirichlet facet.

The weak Dirichlet terms can leave null modes, and each one vanishes
outside the scalar DOFs private to (shared with no other cell of) a cell
with d Dirichlet facets. Such a cell with p private DOFs carries p - 1
of them: the two corner cells of ``square:N`` have 3 each (the corner
vertex and two boundary midpoints), which gives 4 modes.

In DG terms: with F_i the weak Dirichlet facet block of grad_i,

    A = S - (B + B^T) + L,   B[b, c] = int_{Gamma_D} dn(phi_b) phi_c,
                             L = sum_i F_i^T u_mass^{-1} F_i.

This is a Bassi-Rebay-type DG form whose lifting penalty ||r(h)||^2 onto
P1_DG has coefficient 1, a form that is not coercive in general (Arnold,
Brezzi, Cockburn and Marini, SIAM J. Numer. Anal. 39, 2002). On every
null vector v, v^T S v = v^T B v = v^T L v to rounding, on ``square:N``,
``square_36``, ``cube_44`` and ``cube_200``: the discrete gradient
u_mass^{-1} grad_i v vanishes, so the lifting r(v) equals grad v, and the
boundary term and the penalty each equal ||grad v||^2 and cancel the
stiffness exactly. Past those modes the form still reaches h^4: on
``square:N`` the first six eigenvalues converge to pi^2 (m^2 + n^2) at
rates 3.48 to 3.79 from N = 16 to 32 and 3.79 to 3.91 from 32 to 64,
against 3.97 to 3.99 under Neumann data.

``cell_lambda_bound`` bounds lambda_max from above, cell by cell, with
no global eigensolve; ``dynamics.simulate`` uses it to certify time
steps. At every pencil size lambda_max comes from shift-invert Lanczos
(ARPACK), which finds the eigenvalues nearest a shift sigma, at sigma =
(1 + 1e-3) times the cell bound, where A - sigma M is negative definite
(Ericsson and Ruhe, Math. Comp. 35, 1980). Up to ``DENSE_CUTOFF`` free
DOFs the spectrum is dense and complete; above it its low end comes from
the same solver at a small sigma < 0, where A - sigma M is positive
definite despite the Neumann null space. Both shifts leave a matrix
definite like the scalar mass, with its sparsity pattern, so the routine
that factors the mass, ``assembly._factor``, is ARPACK's ``OPinv`` too,
in the mass's order (``assembly`` module docstring); the dt check factors
sigma M - A, which can be indefinite, only for its pivot signs
(``pivot_inertia``). lambda_max is the
Rayleigh quotient rho of the Ritz vector v, not the Ritz value sigma +
1/nu: on slivers sigma is far above lambda_max (232 times on
``cube_200``), the Ritz value loses that factor in accuracy (to 1.4e-13
on ``cube_400``), and the quotient's error is the square of the
vector's. Lanczos stops at ``LAMBDA_MAX_TOL``. Then rho <= lambda_max <=
rho + eta, eta = ||A v - rho M v||_2 / sqrt(mu v^T M v), as Lanczos
converges to the eigenvalue nearest the shift (Parlett, The Symmetric
Eigenvalue Problem, Sec. 11). mu = min_K det_K lambda_min(M_ref) <=
lambda_min(M) by the assembly argument of ``cell_lambda_bound`` (Wathen,
IMA J. Numer. Anal. 7, 1987), so eta needs no mass factor.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .assembly import AssembledOperators, _factor, _scatter

__all__ = [
    "Spectrum",
    "LambdaMax",
    "laplacian_pencil",
    "laplacian_spectrum",
    "max_eigenvalue",
    "pivot_inertia",
    "cell_lambda_bound",
    "spectrum_to_json",
]

DENSE_CUTOFF = 3000      # pencil size up to which the spectrum is dense and complete
LOWEST_COUNT = 20        # eigenvalues resolved from the low end iteratively
NULL_TOLERANCE = 1e-8    # relative to lambda_max
# ARPACK's tolerance for lambda_max: at 0, most solves on structured meshes
# split a near-double top pair (square:96: gap 6e-12) whose span already
# holds a Rayleigh quotient that close; 1e-8 leaves eta near 1e-9 rho.
LAMBDA_MAX_TOL = 1e-8


class LambdaMax(NamedTuple):
    """One lambda_max solve: rho (``value``), eta (``error``; module
    docstring) and the count of ``solves`` with the factor."""

    value: float
    error: float
    solves: int


def _cell_laplacian(ops: AssembledOperators) -> np.ndarray:
    """Per-cell blocks A_K = sum_i G_Ki^T M_u,K^{-1} G_Ki, shape (C, n2, n2),
    on ``ops.dofs.h_cell_dofs``, with M_u,K^{-1} = inv(u_mass_ref) / det_K;
    weak Dirichlet facet terms are included."""
    u_inv, G = ops._u_mass_inv / ops.cell_dets[:, None, None, None], ops.grad_cells
    return np.einsum("ciab,ciae->cbe", G, u_inv @ G, optimize=True)


def laplacian_pencil(ops: AssembledOperators):
    """Explicit sparse matrices (A, h_mass) of the generalized eigenproblem.

    A = sum_K scatter(A_K) (module docstring), symmetrized to remove the
    floating-point asymmetry of the cell products and of the summation of
    duplicate entries. Both matrices are the free-by-free blocks, of size
    ``len(ops.h_free)``. A mass diagonal entry that is not positive
    (inconsistent assembly) is a ``RuntimeError`` here, before any solve
    forms a shift."""
    M = ops.free_block(ops.h_mass)
    if not (M.diagonal() > 0.0).all():
        raise RuntimeError("scalar mass matrix is not positive definite; assembly is inconsistent")
    hd, m_h = ops.dofs.h_cell_dofs, ops.dofs.m_h
    A = _scatter(hd, hd, _cell_laplacian(ops), (m_h, m_h))
    A = (A + A.T) * 0.5
    return ops.free_block(A.tocsr()), M


@dataclass
class Spectrum:
    """Eigenvalues of the discrete Laplacian, sorted ascending.

    ``eigenvalues`` holds the full spectrum (dense path) or its low end
    (iterative path). ``m_h`` is the pencil's size (free scalar DOFs) and
    ``lambda_max_solve`` the Lanczos solve for the largest eigenvalue
    (``_lambda_max``). ``scipy.linalg.eigh`` on ``laplacian_pencil(ops)``
    gives the eigenpairs.
    """

    eigenvalues: np.ndarray
    m_h: int
    lambda_max_solve: LambdaMax

    @property
    def complete(self) -> bool:
        """Whether ``eigenvalues`` lists every eigenvalue of the pencil."""
        return len(self.eigenvalues) == self.m_h

    @property
    def lambda_max(self) -> float:
        """The largest eigenvalue: the last one of a complete spectrum,
        else the Rayleigh quotient of ``lambda_max_solve``."""
        return float(self.eigenvalues[-1]) if self.complete else self.lambda_max_solve.value

    @property
    def null_threshold(self) -> float:
        """Eigenvalues below this count as null modes."""
        return NULL_TOLERANCE * self.lambda_max

    @property
    def null_count(self) -> int:
        """Number of eigenvalues below ``null_threshold``.

        Exactly 1 for a stable Neumann problem (the constant mode), exactly 0
        for a stable Dirichlet problem. In 1D the strongly imposed Dirichlet
        vertices give 0 for every mesh. Weak Dirichlet data in 2D and 3D leave
        the null modes of the module docstring: 4 on ``square:N``, 3 on the
        coarse ``cube_44`` and ``cube_200``, 1 on ``square_36`` and none on
        ``cube:2``, ``cube:3`` or ``cube_400``.
        """
        return int(np.sum(self.eigenvalues < self.null_threshold))

    @property
    def smallest_nonzero(self) -> Optional[float]:
        """The smallest eigenvalue at or above ``null_threshold``; None when
        every eigenvalue is null."""
        nonzero = self.eigenvalues[self.eigenvalues >= self.null_threshold]
        return float(nonzero[0]) if len(nonzero) else None


def _eigsh(A, M, k, sigma, order, **kw):
    """Shift-invert ARPACK for the ``k`` eigenvalues nearest ``sigma``, with
    ``_factor(A - sigma M, order)`` as ``OPinv``, where ``order`` is the
    mass's (``ops.h_order``). The fixed start vector makes every call give
    the same eigenvalues; it is not constant, since under Neumann data
    that is the null eigenvector, on which Lanczos breaks down. The count
    of solves with the factor follows the eigenpairs: (values, vectors,
    solves), or (values, solves) with ``return_eigenvectors=False``, where
    ARPACK forms no Ritz vector."""
    v0 = np.random.default_rng(0).standard_normal(A.shape[0])
    solve, solves = _factor(A - sigma * M, order), []
    op_inv = spla.LinearOperator(A.shape, lambda x: solves.append(1) or solve(x), dtype=float)
    found = spla.eigsh(A, k=k, M=M, sigma=sigma, OPinv=op_inv, v0=v0, **kw)
    return (*found, len(solves)) if isinstance(found, tuple) else (found, len(solves))


def _lambda_max(A, M, ops: AssembledOperators) -> LambdaMax:
    """Largest eigenvalue of the pencil at any size, with its error bar:
    the Rayleigh quotient of the Ritz vector at the shift (1 + 1e-3)
    ``cell_lambda_bound(ops)`` (module docstring). ARPACK needs more DOFs
    than eigenvalues; a one-DOF pencil is its own eigenvector, with no
    error. A bound that is not finite and positive, or ARPACK
    non-convergence, is a ``RuntimeError``: there is no other solve. Both
    sums of rho = v^T A v / v^T M v are compensated (``math.fsum``)."""
    bound = cell_lambda_bound(ops)
    if not 0.0 < bound < np.inf:
        raise RuntimeError(f"cell bound {bound!r} on lambda_max gives no shift")
    if A.shape[0] == 1:
        return LambdaMax(float(A.diagonal()[0] / M.diagonal()[0]), 0.0, 0)
    try:
        _, vecs, solves = _eigsh(A, M, 1, 1.001 * bound, ops.h_order, tol=LAMBDA_MAX_TOL,
                                 maxiter=5000)
    except spla.ArpackNoConvergence as exc:
        raise RuntimeError("largest-eigenvalue iteration failed to converge") from exc
    v = vecs[:, 0]
    Av, Mv = A @ v, M @ v
    rho = math.fsum(v * Av) / (vMv := math.fsum(v * Mv))
    mu = ops.cell_dets.min() * np.linalg.eigvalsh(ops.h_mass_ref)[0]
    return LambdaMax(rho, float(np.linalg.norm(Av - rho * Mv) / np.sqrt(mu * vMv)), solves)


def laplacian_spectrum(ops: AssembledOperators) -> Spectrum:
    """Eigenvalues of the discrete Laplacian's generalized eigenproblem.

    Up to ``DENSE_CUTOFF`` free scalar DOFs the full spectrum is computed
    densely. Above it, shift-invert Lanczos resolves the lowest
    ``LOWEST_COUNT`` eigenvalues at a small negative shift. On both paths
    ``_lambda_max`` solves for the largest and its error bar.
    """
    A, M = laplacian_pencil(ops)
    m_h = A.shape[0]
    top = _lambda_max(A, M, ops)
    if m_h <= DENSE_CUTOFF:
        return Spectrum(scipy.linalg.eigh(A.toarray(), M.toarray(), eigvals_only=True), m_h, top)

    sigma = -1e-3 * (A.diagonal().mean() / M.diagonal().mean())
    vals = _eigsh(A, M, min(LOWEST_COUNT, m_h - 2), sigma, ops.h_order,
                  return_eigenvectors=False)[0]
    return Spectrum(np.sort(vals), m_h, top)


def max_eigenvalue(ops: AssembledOperators) -> LambdaMax:
    """Largest eigenvalue of the discrete Laplacian and its error bar
    (``_lambda_max``)."""
    A, M = laplacian_pencil(ops)
    return _lambda_max(A, M, ops)


def pivot_inertia(ops: AssembledOperators, sigma: float) -> tuple[int, int]:
    """Count of the pivots of ``_factor(sigma M - A)`` that are not positive
    (NaN included), and its stored L+U entries. Its U is D L^T, so by
    Sylvester's law of inertia the count is that of the eigenvalues at or
    above sigma; 0 proves sigma M - A definite, since the computed factor is
    exact for a nearby definite matrix (backward stability of Cholesky).
    SuperLU leaves the diagonal (``perm_r != perm_c``), or refuses the
    matrix (0 entries), only at an exactly zero pivot: a count of 1 or more."""
    A, M = laplacian_pencil(ops)
    try:
        lu = _factor(sigma * M - A, ops.h_order).lu
    except RuntimeError:  # "Factor is exactly singular"
        return 1, 0
    count = int(np.count_nonzero(~(lu.U.diagonal() > 0.0)))
    return max(count, int(not np.array_equal(lu.perm_r, lu.perm_c))), lu.nnz


def cell_lambda_bound(ops: AssembledOperators) -> float:
    """Element-by-element upper bound on ``max_eigenvalue``.

    A = sum_K scatter(A_K) and h_mass = sum_K scatter(M_K), with A_K the
    cell Laplacian of the module docstring (the P2 stiffness block of K
    unless K owns a weak Dirichlet facet), so
    lambda_max(A, M) <= max_K lambda_max(A_K, M_K) (Fried 1972). On an
    affine cell M_K = det_K L L^T, with L the Cholesky factor of the
    reference scalar mass, so lambda_max(A_K, M_K) is the largest
    eigenvalue of L^{-1} A_K L^{-T} divided by det_K. Fixed scalar DOFs
    (1D strong Dirichlet) only restrict the Rayleigh quotient, so the
    bound holds there too.

    The bound is tight on well-shaped cells (1.08 to 1.25 times
    lambda_max on ``square:8``, ``square:32``, ``cube:3`` and ``cube:8``)
    and loose on slivers (2.95 to 232 times on the fixture meshes), so
    it certifies a dt as stable but is no estimate of the limit.
    """
    A = _cell_laplacian(ops)
    L_inv = np.linalg.inv(np.linalg.cholesky(ops.h_mass_ref))
    return float((np.linalg.eigvalsh(L_inv @ A @ L_inv.T)[:, -1] / ops.cell_dets).max())


def spectrum_to_json(spectrum: Spectrum, path, metadata):
    """Write the spectrum and ``metadata`` as JSON; ``n_h_dofs`` counts the
    pencil's (free) scalar DOFs."""
    payload = {
        "eigenvalues": [float(v) for v in spectrum.eigenvalues],
        "lambda_max": spectrum.lambda_max,
        "lambda_max_solve": spectrum.lambda_max_solve._asdict(),
        "null_space_dimension": spectrum.null_count,
        "null_tolerance": NULL_TOLERANCE,
        "n_h_dofs": spectrum.m_h,
        "complete": spectrum.complete,
        "metadata": metadata,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
