#!/usr/bin/env python3
"""Generate the unstructured test meshes committed under meshes/.

Unstructured meshes are Delaunay triangulations (scipy.spatial) of
deterministic point sets, written in Triangle/TetGen format and re-read
through the package parsers. Mesh generation proper is outside the
library; these fixtures stand in for the output of an external generator.

Boundary point spacing is kept coarser than the interior spacing: over-
resolved boundaries enlarge the scalar trace space and reintroduce the
spurious kernel vectors that the Dirichlet spectra are supposed to be
free of on reasonable meshes (the same effect appears at strong boundary
jitter in 3D). The seed search picks square_150 and cube_400 free of
Dirichlet null modes, and cube_44 and cube_200 with 3 each, by design, for
the spurious-mode study; unscreened, square_1500 has 2 and square_36 has 1.

Run from the repository root:  python3 scripts/make_fixture_meshes.py
"""

import os
import sys

import numpy as np
from scipy.spatial import Delaunay

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import wavefem as wf

OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "meshes")


def random_square(n_bnd_side, n_interior, seed, margin=0.03):
    """Evenly spaced boundary points plus uniform random interior points."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, n_bnd_side + 1)
    bnd = ([(v, 0.0) for v in t] + [(v, 1.0) for v in t]
           + [(0.0, v) for v in t[1:-1]] + [(1.0, v) for v in t[1:-1]])
    interior = rng.uniform(margin, 1.0 - margin, (n_interior, 2))
    points = np.vstack([np.array(bnd), interior])
    return wf.Mesh(2, points, Delaunay(points).simplices)


def cube_points(n_side, seed, jitter, surface_only=False):
    """(n+1)^3 lattice with jitter; face points move within their face,
    edge points along their edge, corners stay fixed."""
    rng = np.random.default_rng(seed)
    points = wf.generate_cube_mesh(n_side).vertices
    on_face = (points == 0.0) | (points == 1.0)
    keep = on_face.any(axis=1) | (not surface_only)
    points, on_face = points[keep], on_face[keep]
    h = 1.0 / n_side
    delta = rng.uniform(-jitter * h, jitter * h, points.shape)
    return np.clip(points + np.where(on_face, 0.0, delta), 0.0, 1.0)


def delaunay_mesh_3d(points, min_quality=1e-3):
    cells = Delaunay(points).simplices
    diffs = points[cells[:, 1:]] - points[cells[:, :1]]
    quality = np.abs(np.linalg.det(diffs)) / 6.0 / np.linalg.norm(diffs[:, 0], axis=1) ** 3
    if quality.min() < min_quality:
        raise ValueError(f"sliver tetrahedra (min quality {quality.min():.2e})")
    return wf.Mesh(3, points, cells)


def two_hole_square(seed):
    """A 24-vertex, 36-triangle, 61-edge mesh: Delaunay over the square
    with two non-adjacent interior vertex stars removed. The two holes
    raise the edge count to V + F + 1."""
    rng = np.random.default_rng(seed)
    interior = rng.uniform(0.08, 0.92, (22, 2))
    points = np.vstack([[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)], interior])
    cells = Delaunay(points).simplices
    deg = np.bincount(cells.ravel(), minlength=len(points))
    adjacent = np.zeros((len(points),) * 2, dtype=bool)
    adjacent[cells[:, :, None], cells[:, None, :]] = True
    candidate = (deg[:, None] + deg == len(cells) - 36) & ~adjacent
    for v1, v2 in zip(*np.nonzero(np.triu(candidate[4:, 4:], 1))):
        keep = cells[~np.isin(cells, (v1 + 4, v2 + 4)).any(axis=1)]
        used, remap = np.unique(keep, return_inverse=True)
        try:
            mesh = wf.Mesh(2, points[used], remap.reshape(keep.shape))
        except ValueError:
            continue
        # counts confirm two clean holes (no dangling edges lost)
        if (mesh.n_vertices, mesh.n_cells, mesh.n_edges) == (24, 36, 61):
            return mesh
    raise ValueError("no two-hole mesh")


def first_good(factory, seeds=range(100), kernel_free=None):
    """First seed whose mesh builds and, if kernel_free is given, whose
    Dirichlet kernel is empty (True) or not (False)."""
    for seed in seeds:
        try:
            mesh = factory(seed)
        except ValueError:
            continue
        if kernel_free is not None:
            ops = wf.assemble(mesh, wf.build_dof_maps(mesh), wf.BcSpec.all_dirichlet(mesh))
            if (wf.laplacian_spectrum(ops).null_count == 0) != kernel_free:
                continue
        return mesh, seed
    raise SystemExit("no usable seed found")


def save(name, mesh, seed=None):
    """Print the mesh summary and write it as Triangle or TetGen files."""
    print(f"{name}:" if seed is None else f"{name} (seed {seed}):", mesh)
    facet = "edge" if mesh.dim == 2 else "face"
    wf.write_mesh(mesh, *(os.path.join(OUT_DIR, f"{name}.{e}") for e in ("node", "ele", facet)))


def main():
    os.makedirs(OUT_DIR, exist_ok=True)

    # 150-triangle unit square: 2D spectra and the time-domain run
    save("square_150", *first_good(lambda s: random_square(5, 66, s), kernel_free=True))

    # ~1500-triangle square: DOF-count trend on an unstructured family
    save("square_1500", random_square(16, 750, seed=3))

    # 24-vertex / 36-triangle / 61-edge two-hole mesh (DOF counting)
    save("square_36", *first_good(two_hole_square))

    # 44-tet / 26-vertex / 93-edge surface-only cube: coarse end of the
    # spurious-mode study (Dirichlet kernel expected)
    mesh, seed = first_good(
        lambda s: delaunay_mesh_3d(cube_points(2, s, jitter=0.3, surface_only=True)),
        seeds=range(6, 100), kernel_free=False)
    if (mesh.n_cells, mesh.n_vertices, mesh.n_edges) != (44, 26, 93):
        raise SystemExit("cube_44 counts drifted; rerun the seed search")
    save("cube_44", mesh, seed)

    # ~180-tet cube, strong jitter: middle of the spurious-mode study
    save("cube_200", *first_good(
        lambda s: delaunay_mesh_3d(cube_points(3, s, jitter=0.25)), kernel_free=False))

    # ~430-tet cube, moderate jitter: clean 3D spectra
    save("cube_400", *first_good(
        lambda s: delaunay_mesh_3d(cube_points(4, s, jitter=0.2)), kernel_free=True))


if __name__ == "__main__":
    main()
