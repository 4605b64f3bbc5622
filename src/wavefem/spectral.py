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
Dirichlet vertices are fixed DOFs and drop out. With the weak form, 1D
would always keep a null vector: N cells give 2N velocity DOFs and
2N+1 scalar DOFs, so the gradient has more columns than rows (see the
``assembly`` module). The problem size of every routine here is the
pencil's, which is smaller than ``ops.dofs.m_h`` when DOFs are fixed.

The velocity mass is block-diagonal, with block M_u,K = det_K
``ops.u_mass_ref`` on cell K, and each weak Dirichlet facet term belongs
to its owner cell, so A = sum_K scatter(A_K) exactly, with the cell
Laplacian A_K = sum_i G_Ki^T M_u,K^{-1} G_Ki (``_cell_laplacian``).
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

``cell_lambda_bound`` bounds lambda_max from above, cell by cell, with
no global eigensolve; ``dynamics.simulate`` uses it to certify time
steps.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .assembly import AssembledOperators, _scatter

__all__ = [
    "Spectrum",
    "SpuriousModeReport",
    "laplacian_pencil",
    "laplacian_spectrum",
    "null_space_dimension",
    "max_eigenvalue",
    "cell_lambda_bound",
    "spurious_mode_report",
    "spectrum_to_csv",
    "spectrum_to_json",
]

DENSE_CUTOFF = 3000      # pencil size up to which the dense solver is used
LOWEST_COUNT = 20        # eigenvalues resolved from the low end iteratively
NULL_TOLERANCE = 1e-8    # relative to max(1, lambda_max)


def _cell_laplacian(ops: AssembledOperators) -> np.ndarray:
    """Per-cell blocks A_K = sum_i G_Ki^T M_u,K^{-1} G_Ki, shape (C, n2, n2),
    on ``ops.dofs.h_cell_dofs``, with M_u,K^{-1} = inv(u_mass_ref) / det_K;
    weak Dirichlet facet terms are included."""
    u_inv, G = np.linalg.inv(ops.u_mass_ref) / ops.cell_dets[:, None, None], ops.grad_cells
    return sum(G[..., i].swapaxes(1, 2) @ (u_inv @ G[..., i]) for i in range(ops.dim))


def laplacian_pencil(ops: AssembledOperators):
    """Explicit sparse matrices (A, h_mass) of the generalized eigenproblem.

    A = sum_K scatter(A_K) is scattered from the cell Laplacians (module
    docstring); it equals the P2 stiffness matrix under Neumann data and
    in 1D, and differs from it under weak Dirichlet data only on the DOFs
    of cells that own a Dirichlet facet. The result is symmetrized to
    remove the floating-point asymmetry of the cell products and of the
    summation of duplicate entries. Both matrices are the free-by-free
    blocks, of size ``len(ops.h_free)``.
    """
    hd, m_h = ops.dofs.h_cell_dofs, ops.dofs.m_h
    A = _scatter(hd, hd, _cell_laplacian(ops), (m_h, m_h))
    A = (A + A.T) * 0.5
    return ops.free_block(A.tocsr()), ops.free_block(ops.h_mass)


@dataclass
class Spectrum:
    """Eigenvalues of the discrete Laplacian, sorted ascending.

    ``eigenvalues`` holds either the full spectrum (dense path) or the
    lowest resolved part (iterative path); ``lambda_max`` is always the
    largest eigenvalue. ``m_h`` is the pencil's size, the number of free
    scalar DOFs, and ``eigenvectors`` live on those DOFs.
    """

    eigenvalues: np.ndarray
    lambda_max: float
    m_h: int
    complete: bool
    eigenvectors: Optional[np.ndarray] = None

    @property
    def null_threshold(self) -> float:
        """Eigenvalues below this count as null modes."""
        return NULL_TOLERANCE * max(1.0, self.lambda_max)


def _dense(A, M, **kw):
    """The dense solve: ``scipy.linalg.eigh`` on the pencil as arrays."""
    try:
        return scipy.linalg.eigh(A.toarray(), M.toarray(), **kw)
    except scipy.linalg.LinAlgError as exc:
        raise RuntimeError("scalar mass matrix is not positive definite; "
                           "assembly is inconsistent") from exc


def _eigsh(A, M, k, **kw):
    """The ARPACK solve, from a fixed start vector so that every call
    gives the same eigenvalues. The vector is not constant: under Neumann
    data that is the null eigenvector, and Lanczos breaks down on it."""
    v0 = np.random.default_rng(0).standard_normal(A.shape[0])
    return spla.eigsh(A, k=k, M=M, v0=v0, **kw)


def _lambda_max(A, M) -> float:
    """Largest eigenvalue of the pencil: dense up to ``DENSE_CUTOFF`` DOFs,
    else by ARPACK. ARPACK non-convergence is a ``RuntimeError``; a dense
    fallback at that size would need two dense n x n arrays."""
    n = A.shape[0]
    if n <= DENSE_CUTOFF:
        return float(_dense(A, M, eigvals_only=True, subset_by_index=(n - 1, n - 1))[0])
    try:
        return float(_eigsh(A, M, 1, which="LM", return_eigenvectors=False,
                            maxiter=5000)[0])
    except spla.ArpackNoConvergence as exc:
        raise RuntimeError("largest-eigenvalue iteration failed to converge") from exc


def laplacian_spectrum(ops: AssembledOperators, compute_vectors: bool = False) -> Spectrum:
    """Solve the symmetric generalized eigenproblem of the discrete Laplacian.

    Up to ``DENSE_CUTOFF`` free scalar DOFs the full spectrum is computed
    densely; above it, shift-invert Lanczos resolves the lowest
    ``LOWEST_COUNT`` eigenvalues and ``_lambda_max`` the largest.
    """
    A, M = laplacian_pencil(ops)
    m_h = A.shape[0]
    if m_h <= DENSE_CUTOFF:
        solved = _dense(A, M, eigvals_only=not compute_vectors)
        vals, vecs = solved if compute_vectors else (solved, None)
        return Spectrum(vals, float(vals[-1]), m_h, complete=True, eigenvectors=vecs)

    # Negative shift keeps the shifted matrix definite even when A has a
    # null space (Neumann constant mode).
    scale = A.diagonal().mean() / max(M.diagonal().mean(), np.finfo(float).tiny)
    sigma = -1e-3 * max(scale, 1.0)
    vals, vecs = _eigsh(A, M, min(LOWEST_COUNT, m_h - 2), sigma=sigma, which="LM")
    order = np.argsort(vals)
    return Spectrum(vals[order], _lambda_max(A, M), m_h, complete=False,
                    eigenvectors=vecs[:, order] if compute_vectors else None)


def null_space_dimension(spectrum: Spectrum) -> int:
    """Number of eigenvalues below ``spectrum.null_threshold``.

    Exactly 1 for a stable Neumann problem (the constant mode), exactly 0
    for a stable Dirichlet problem. In 1D the strongly imposed Dirichlet
    vertices give 0 for every mesh. In 2D and 3D Dirichlet data are weak,
    and a cell with d Dirichlet facets and p private scalar DOFs carries
    p - 1 null modes, supported on those DOFs (module docstring): 4 on
    ``square:N``, 3 on the coarse ``cube_44`` and ``cube_200``, 1 on
    ``square_36`` and none on ``cube:2``, ``cube:3`` or ``cube_400``.
    """
    return int(np.sum(spectrum.eigenvalues < spectrum.null_threshold))


def max_eigenvalue(ops: AssembledOperators) -> float:
    """Largest eigenvalue of the discrete Laplacian."""
    return _lambda_max(*laplacian_pencil(ops))


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

    The bound is tight on well-shaped cells (1.1 to 1.25 times
    lambda_max on ``square:8``, ``square:32``, ``cube:3`` and ``cube:8``)
    and loose on slivers (3 to over 100 times on the fixture meshes), so
    it certifies a dt as stable but is no estimate of the limit.
    """
    A = _cell_laplacian(ops)
    L_inv = np.linalg.inv(np.linalg.cholesky(ops.h_mass_ref))
    lam = np.linalg.eigvalsh(L_inv @ A @ L_inv.T)[:, -1] / ops.cell_dets
    return float(lam.max())


@dataclass
class LevelSummary:
    m_h: int
    null_count: int
    smallest_nonzero: Optional[float]
    lambda_max: float


@dataclass
class SpuriousModeReport:
    levels: list
    flags: list

    @property
    def has_flags(self) -> bool:
        return bool(self.flags)


def spurious_mode_report(spectra: list) -> SpuriousModeReport:
    """Track null-space size and the smallest nonzero eigenvalue across a
    refinement sequence (coarsest first).

    A nonzero eigenvalue that drops by more than a factor of two between
    consecutive levels is flagged: a physical eigenvalue is stable under
    refinement, so a sinking one indicates a spurious mode whose eigenvalue
    tends to zero with the mesh size.
    """
    levels = []
    for s in spectra:
        nnull = null_space_dimension(s)
        nonzero = s.eigenvalues[s.eigenvalues >= s.null_threshold]
        smallest = float(nonzero[0]) if len(nonzero) else None
        levels.append(LevelSummary(s.m_h, nnull, smallest, s.lambda_max))
    flags = []
    for lev in range(1, len(levels)):
        prev, cur = levels[lev - 1], levels[lev]
        if prev.smallest_nonzero is None or cur.smallest_nonzero is None:
            continue
        if cur.smallest_nonzero < 0.5 * prev.smallest_nonzero:
            flags.append(
                f"smallest nonzero eigenvalue dropped "
                f"{prev.smallest_nonzero:.4g} -> {cur.smallest_nonzero:.4g} "
                f"between levels {lev - 1} and {lev}")
    return SpuriousModeReport(levels, flags)


def spectrum_to_csv(spectrum: Spectrum, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "eigenvalue"])
        for i, lam in enumerate(spectrum.eigenvalues):
            writer.writerow([i, repr(float(lam))])


def spectrum_to_json(spectrum: Spectrum, path, metadata=None):
    """Write the spectrum as JSON; ``n_h_dofs`` counts the pencil's
    (free) scalar DOFs."""
    payload = {
        "eigenvalues": [float(v) for v in spectrum.eigenvalues],
        "lambda_max": spectrum.lambda_max,
        "null_space_dimension": null_space_dimension(spectrum),
        "null_tolerance": NULL_TOLERANCE,
        "n_h_dofs": spectrum.m_h,
        "complete": spectrum.complete,
    }
    if metadata:
        payload["metadata"] = metadata
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
