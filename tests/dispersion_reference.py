"""Hand-derived plane-wave symbol of the semi-discrete 1D wave system.

An independent reference for ``wavefem.dispersion``, which reduces the
assembled cell blocks instead. Inserting the plane-wave ansatz into the
four stencil equations (the two velocity equations of a cell; the scalar
equations at a grid point and at a midpoint) gives a 4x4 complex symbol
matrix in the amplitudes (u+, u-, h_vertex, h_mid). Its determinant
vanishes on the dispersion curves, and its null vector at a root is the
mode shape: |u+ - u-| of the unit-norm mode is the velocity jump at the
grid points.
"""

import numpy as np


def symbol_matrix(phi: float, w: float) -> np.ndarray:
    """4x4 plane-wave symbol of the semi-discrete system.

    Rows: the two velocity equations of a cell, the scalar equation at a
    grid point, the scalar equation at a midpoint (scaled by 6, 6, 30, 30).
    Columns: amplitudes (u+, u-, h_vertex, h_mid).
    """
    e = np.exp(1j * phi)
    eh = np.exp(0.5j * phi)
    c = np.cos(phi)
    ch = np.cos(phi / 2.0)
    return np.array([
        [-2j * w, -1j * w * e, -5.0 + e, 4.0 * eh],
        [-1j * w, -2j * w * e, -1.0 + 5.0 * e, -4.0 * eh],
        [25.0 - 5.0 / e, -25.0 + 5.0 * e, -1j * w * (8.0 - 2.0 * c), -4j * w * ch],
        [-20.0, 20.0 * e, -2j * w * (1.0 + e), -16j * w * eh],
    ])


def null_mode(phi: float, w: float) -> np.ndarray:
    """Unit-norm null vector of the symbol matrix at a dispersion root.

    Extracted as the singular direction of the smallest singular value,
    which stays well-conditioned near degenerate wavenumbers.
    """
    m = symbol_matrix(phi, w)
    _, s, vh = np.linalg.svd(m)
    assert s[2] >= 1e-6 * max(s[0], 1.0), (
        f"symbol matrix null space has dimension > 1 at phi={phi}")
    assert s[3] <= 1e-6 * max(s[0], 1.0), f"w={w} is not a dispersion root at phi={phi}"
    return vh[3].conj()
