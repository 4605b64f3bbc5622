"""Legacy VTK (ASCII unstructured grid) output of field snapshots.

The file carries the scalar field as point data on vertices plus midpoint
nodes (quadratic cells), with the velocity reduced to one cell-averaged
vector per cell. Each block of rows is formatted in one string operation
(``mesh._format_rows``).
"""

from __future__ import annotations

import numpy as np

from .elements import DofMap
from .mesh import _format_rows

__all__ = ["write_vtk"]

# quadratic VTK cell types and the mapping from the canonical local edge
# order (lexicographic corner pairs) to VTK's midpoint ordering
_QUADRATIC_TYPES = {1: 21, 2: 22, 3: 24}
_EDGE_PERM = {1: [0], 2: [0, 2, 1], 3: [0, 3, 1, 2, 4, 5]}


def _xyz(d: int) -> str:
    """Row format of a d-column table written as 3D points or vectors; the
    missing coordinates are the zeros that ``%.16g`` prints as ``0``."""
    return " ".join(["%.16g"] * d + ["0"] * (3 - d)) + "\n"


def write_vtk(path, dofs: DofMap, h, u):
    """Write the quadratic cells of ``dofs.mesh``, the scalar as point data.

    Point order matches the scalar DOF numbering (vertices, then edge
    midpoints), so ``h`` is written verbatim. ``u``, the velocity
    array of shape (d, m_u), is written as cell-averaged vectors.
    """
    d = dofs.mesh.dim
    from .elements import h_dof_coords

    points = h_dof_coords(dofs)
    conn = dofs.h_cell_dofs[:, np.r_[0:d + 1, d + 1 + np.array(_EDGE_PERM[d])]]
    n_cells, k = conn.shape
    means = np.asarray(u, dtype=float).reshape(d, n_cells, d + 1).mean(axis=2).T
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 2.0\nwavefem fields\nASCII\nDATASET UNSTRUCTURED_GRID\n"
                 f"POINTS {len(points)} double\n")
        fh.write(_format_rows(_xyz(d), points))
        fh.write(f"CELLS {n_cells} {n_cells * (1 + k)}\n")
        fh.write(_format_rows(f"{k}" + " %d" * k + "\n", conn))
        fh.write(f"CELL_TYPES {n_cells}\n" + f"{_QUADRATIC_TYPES[d]}\n" * n_cells)
        fh.write(f"POINT_DATA {len(points)}\nSCALARS h double\nLOOKUP_TABLE default\n")
        fh.write(_format_rows("%.16g\n", np.asarray(h, dtype=float).reshape(-1, 1)))
        fh.write(f"CELL_DATA {n_cells}\nVECTORS u_mean double\n")
        fh.write(_format_rows(_xyz(d), means))
