"""Normal-mode analysis of the semi-discrete 1D wave system.

On a uniform periodic grid of spacing dx the semi-discrete equations admit
Bloch waves: the fields of cell j + 1 are those of cell j times e^{i phi},
with the nondimensional wavenumber ``phi`` (k dx), and they vary in time
as e^{-i omega t}; ``w`` is omega dx. The analysis reduces the assembled
operators of one cell to these waves.

On a uniform periodic mesh every cell has the same blocks, so cell 0 of
``generate_interval_mesh(2, 2.0, periodic=True)`` serves; its dx is 1, so
w is omega itself. Its blocks are the 2x3 gradient G_K
(``grad_cells[0, 0]``), the velocity mass M_u = det_K ``u_mass_ref`` and
the scalar mass M_K = det_K ``h_mass_ref``. The cell's scalar DOFs are its
left vertex, its right vertex and its midpoint. The right vertex is the
next cell's left vertex, so a wave with amplitudes h = (h_vertex, h_mid)
puts P(phi) h = (h_vertex, e^{i phi} h_vertex, h_mid) on the cell. With
G(phi) = G_K P the scalar equation becomes the 2x2 Hermitian pencil

    A(phi) h = w^2 M(phi) h,   A = G(phi)^H M_u^{-1} G(phi),  M = P^H M_K P.

One batched Cholesky factor L of M and one batched ``eigh`` of
L^{-1} A L^{-H} give both modes at every phi, lower branch first, and
h = L^{-H} y is M-normalised. w^2 is taken as the Rayleigh quotient
h^H A h rather than the eigenvalue: the eigenvalue carries an absolute
error of about eps times the upper branch's w^2, which at small phi is a
large relative error in the lower branch's w.

The velocity equation gives the cell's velocity values
u = M_u^{-1} G(phi) h / (i w). Scaled so that (u, h) has unit Euclidean
norm, the mode's velocity jump at a grid point is |u_0 - u_1 e^{-i phi}|:
u_0 is the right limit there, and u_1 e^{-i phi} is the left limit, the
previous cell's right value.

The pencil's determinant factors into two branches,

    w = 2 * sqrt((26 + 4 cos(phi) +/- sqrt(474 + 448 cos(phi)
                  - 22 cos(2 phi))) / (6 - 2 cos(phi))),

separated by a spectral gap (``dispersion_closed_form``, ``dispersion_sweep``).
"""

from __future__ import annotations

import numpy as np

from .assembly import assemble
from .elements import build_dof_maps
from .mesh import BcSpec, generate_interval_mesh

__all__ = [
    "AnalysisError",
    "dispersion_closed_form",
    "dispersion_branches",
    "dispersion_sweep",
]


class AnalysisError(RuntimeError):
    """A dispersion-sweep invariant failed (implementation bug indicator)."""


def dispersion_closed_form(phi: float) -> tuple[float, float]:
    """Positive frequencies (w_lower, w_upper) of the two branches at ``phi``.

    The lower branch takes the inner minus sign, the upper the plus sign.
    With c = cos(phi) and a = 26 + 4 c, a^2 - root^2 = 60 (1 - c)(3 - c), so
    the lower radicand (a - root) / denom is taken without cancellation as
    120 sin^2(phi/2) (3 - c) / (denom (a + root)).
    """
    if not np.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi!r}")
    c = np.cos(phi)
    a = 26.0 + 4.0 * c
    root = np.sqrt(474.0 + 448.0 * c - 22.0 * np.cos(2.0 * phi))
    denom = 6.0 - 2.0 * c
    lower_sq = 120.0 * np.sin(0.5 * phi) ** 2 * (3.0 - c) / (denom * (a + root))
    return float(2.0 * np.sqrt(lower_sq)), float(2.0 * np.sqrt((a + root) / denom))


def dispersion_branches(phis) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies ``w`` and velocity jumps ``disc`` of both modes at each
    wavenumber in ``phis`` (module docstring), each of shape (N, 2), lower
    branch first.

    Every wavenumber must lie in (0, pi]; at 0 the lower mode is the
    constant, with w = 0 and no velocity.
    """
    phis = np.asarray(phis, dtype=float).reshape(-1)
    if not np.all((phis > 0.0) & (phis <= np.pi)):
        raise ValueError("every wavenumber must lie in (0, pi]")
    mesh = generate_interval_mesh(2, 2.0, periodic=True)
    ops = assemble(mesh, build_dof_maps(mesh), BcSpec())
    det = ops.cell_dets[0]
    u_mass_inv = np.linalg.inv(det * ops.u_mass_ref)
    shift = np.exp(1j * phis)
    P = np.zeros((len(phis), 3, 2), dtype=complex)
    P[:, 0, 0], P[:, 1, 0], P[:, 2, 1] = 1.0, shift, 1.0
    grad = ops.grad_cells[0, 0] @ P
    A = grad.conj().transpose(0, 2, 1) @ u_mass_inv @ grad
    M = P.conj().transpose(0, 2, 1) @ (det * ops.h_mass_ref) @ P
    L_inv = np.linalg.inv(np.linalg.cholesky(M))
    L_inv_H = L_inv.conj().transpose(0, 2, 1)
    _, y = np.linalg.eigh(L_inv @ A @ L_inv_H)
    h = L_inv_H @ y  # columns: the lower and the upper mode
    gh = grad @ h
    v = u_mass_inv @ gh
    w = np.sqrt(np.einsum("nib,nib->nb", gh.conj(), v).real)
    u = v / (1j * w[:, None, :])
    norm = np.sqrt(np.sum(np.abs(u) ** 2 + np.abs(h) ** 2, axis=1))
    disc = np.abs(u[:, 0] - u[:, 1] * shift.conj()[:, None]) / norm
    return w, disc


def dispersion_sweep(n_samples: int) -> np.ndarray:
    """Sample both branches on a uniform grid of ``n_samples`` wavenumbers
    in (0, pi], one row per wavenumber, shape (n_samples, 5): phi, w_lower,
    w_upper, disc_lower, disc_upper. The spectral gap is
    ``samples[:, 2].min() - samples[:, 1].max()``.

    Raises :class:`AnalysisError` if the lower branch is not strictly
    increasing or if the gap closes; either would mean a broken
    implementation, not a property of the discretization.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    phis = np.pi * np.arange(1, n_samples + 1) / n_samples
    w, disc = dispersion_branches(phis)
    if not np.all(np.diff(w[:, 0]) > 0.0):
        raise AnalysisError("lower dispersion branch is not monotone on (0, pi]")
    if not w[:, 1].min() > w[:, 0].max():
        raise AnalysisError("spectral gap is not positive")
    return np.column_stack([phis, w, disc])
