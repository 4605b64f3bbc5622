"""Loop-based reference writers for the legacy VTK files.

They write one row per ``write`` call, the plain way, and pin the bytes
of ``wavefem.vtk_io``: every block of the package writers is formatted in
one string operation and must reproduce these files exactly. The points
are computed here too, from the vertices and each cell's corners, so a
wrong P2 node in the package fails the pins.
"""

import numpy as np

from wavefem.mesh import CELL_EDGES

# quadratic VTK cell types and the mapping from the canonical local edge
# order (lexicographic corner pairs) to VTK's midpoint ordering
_QUADRATIC_TYPES = {1: 21, 2: 22, 3: 24}
_EDGE_PERM = {1: [0], 2: [0, 2, 1], 3: [0, 3, 1, 2, 4, 5]}


def _pad3(coords: np.ndarray) -> np.ndarray:
    out = np.zeros((len(coords), 3))
    out[:, :coords.shape[1]] = coords
    return out


def _write_points(fh, coords):
    fh.write(f"POINTS {len(coords)} double\n")
    for p in _pad3(coords):
        fh.write(f"{p[0]:.16g} {p[1]:.16g} {p[2]:.16g}\n")


def _write_vectors(fh, name, comps):
    data = _pad3(np.column_stack(comps))
    fh.write(f"VECTORS {name} double\n")
    for v in data:
        fh.write(f"{v[0]:.16g} {v[1]:.16g} {v[2]:.16g}\n")


def _points(mesh, dofs):
    """The vertices, then every cell's edge midpoints (x_a + x_b) / 2 at
    the cell's own midpoint DOFs, so the periodic wrap cell uses its own
    corners."""
    d = mesh.dim
    points = np.empty((dofs.m_h, d))
    points[:mesh.n_vertices] = mesh.vertices
    for c in range(mesh.n_cells):
        x = mesh.cell_coords[c]
        for k, (a, b) in enumerate(CELL_EDGES[d]):
            points[dofs.h_cell_dofs[c, d + 1 + k]] = 0.5 * (x[a] + x[b])
    return points


def reference_write_vtk(path, mesh, dofs, h, u):
    """``wavefem.vtk_io.write_vtk``, one row at a time."""
    d = mesh.dim
    points = _points(mesh, dofs)
    perm = _EDGE_PERM[d]
    n_corner = d + 1
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 2.0\n")
        fh.write("wavefem fields\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        _write_points(fh, points)
        n_local = dofs.h_cell_dofs.shape[1]
        fh.write(f"CELLS {mesh.n_cells} {mesh.n_cells * (1 + n_local)}\n")
        for c in range(mesh.n_cells):
            dofs_c = dofs.h_cell_dofs[c]
            conn = list(dofs_c[:n_corner]) + [dofs_c[n_corner + p] for p in perm]
            fh.write(f"{n_local} " + " ".join(str(int(v)) for v in conn) + "\n")
        fh.write(f"CELL_TYPES {mesh.n_cells}\n")
        for _ in range(mesh.n_cells):
            fh.write(f"{_QUADRATIC_TYPES[d]}\n")
        fh.write(f"POINT_DATA {len(points)}\n")
        fh.write("SCALARS h double\nLOOKUP_TABLE default\n")
        for v in np.asarray(h, dtype=float):
            fh.write(f"{v:.16g}\n")
        means = [np.asarray(u_i, dtype=float).reshape(mesh.n_cells, d + 1).mean(axis=1)
                 for u_i in u]
        fh.write(f"CELL_DATA {mesh.n_cells}\n")
        _write_vectors(fh, "u_mean", means)

