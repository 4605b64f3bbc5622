import dataclasses
import os
import subprocess
import sys
from math import factorial

import numpy as np
import pytest

import wavefem as wf
from wavefem.elements import (_gauss_jacobi, build_dof_maps, h_dof_coords, p2_basis,
                              quadrature)
from wavefem.mesh import CELL_EDGES

from conftest import generate


def random_interior_points(dim, n, rng):
    """Barycentric coordinates strictly inside the reference simplex."""
    x = rng.dirichlet(np.ones(dim + 1) * 2.0, size=n)
    return x


def p2_nodes(dim):
    """Barycentric P2 nodes: the vertices, then the edge midpoints in
    ``CELL_EDGES`` order."""
    eye = np.eye(dim + 1)
    return np.vstack([eye] + [(eye[a] + eye[b]) / 2.0 for a, b in CELL_EDGES[dim]])


@pytest.mark.parametrize("dim", [1, 2, 3], ids=lambda d: f"p2_cg-{d}")
def test_partition_of_unity_and_gradient_sum(dim):
    rng = np.random.default_rng(42 + dim)
    pts = random_interior_points(dim, 50, rng)
    vals, grads = p2_basis(pts)
    assert np.abs(vals.sum(axis=1) - 1.0).max() <= 1e-13
    assert np.abs(grads.sum(axis=1)).max() <= 1e-13


@pytest.mark.parametrize("dim", [1, 2, 3], ids=lambda d: f"p2_cg-{d}")
def test_kronecker_at_nodes(dim):
    nodes = p2_nodes(dim)
    vals, _ = p2_basis(nodes)
    assert np.abs(vals - np.eye(len(nodes))).max() <= 1e-13


def test_p2_vertex_values():
    vals, _ = p2_basis((1.0, 0.0, 0.0))
    assert np.allclose(vals[0], [1, 0, 0, 0, 0, 0], atol=1e-14)


def simplex_monomial_integral(exponents):
    """Closed-form integral of prod(x_i^a_i) over the unit simplex."""
    a = list(exponents)
    num = 1
    for e in a:
        num *= factorial(e)
    return num / factorial(sum(a) + len(a))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
def test_quadrature_exactness(dim, degree):
    rule = quadrature(dim, degree)
    xyz = rule.points[:, 1:]  # reference coordinates
    for exps in np.ndindex(*([degree + 1] * dim)):
        if sum(exps) > degree:
            continue
        approx = float(rule.weights @ np.prod(xyz ** np.array(exps), axis=1))
        exact = simplex_monomial_integral(exps)
        assert abs(approx - exact) <= 1e-13 * max(1.0, abs(exact))


def test_quadrature_weight_sums():
    point = quadrature(0, 4)
    assert point.points.tolist() == [[1.0]] and point.weights.tolist() == [1.0]
    assert abs(quadrature(2, 1).weights.sum() - 0.5) <= 1e-15
    assert abs(quadrature(3, 1).weights.sum() - 1.0 / 6.0) <= 1e-16


def test_quadrature_x2y2():
    rule = quadrature(2, 4)
    xy = rule.points[:, 1:]
    val = float(rule.weights @ (xy[:, 0] ** 2 * xy[:, 1] ** 2))
    assert abs(val - 1.0 / 180.0) <= 1e-16


@pytest.mark.parametrize("alpha", [0, 1, 2])
def test_gauss_jacobi_matches_scipy(alpha):
    # the eigenvalue rule reproduces scipy's Gauss-Jacobi nodes and weights
    from scipy.special import roots_jacobi
    for n in range(1, 5):
        x, w = _gauss_jacobi(n, alpha)
        x_ref, w_ref = roots_jacobi(n, alpha, 0.0)
        assert np.abs(x - x_ref).max() <= 1e-14 and np.abs(w - w_ref).max() <= 1e-14


def test_cli_import_leaves_scipy_special_out():
    # scipy.special costs the CLI's start-up time and memory, and nothing needs it
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, wavefem.cli; sys.exit('scipy.special' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_quadrature_unsupported():
    with pytest.raises(ValueError):
        quadrature(2, 7)
    with pytest.raises(ValueError):
        quadrature(4, 2)
    with pytest.raises(ValueError):
        quadrature(-1, 2)


def dof_counts(mesh):
    dofs = build_dof_maps(mesh)
    return dofs.m_u, dofs.m_h


def test_dof_counts_1d():
    mesh = wf.generate_interval_mesh(4, 1.0)
    assert dof_counts(mesh) == (8, 9)
    mesh = wf.generate_interval_mesh(4, 1.0, periodic=True)
    assert dof_counts(mesh) == (8, 8)


def test_dof_counts_2d_paper_mesh(square_36):
    # 36 triangles, 24 vertices, 61 edges
    assert dof_counts(square_36) == (108, 85)


def test_dof_counts_3d_paper_mesh(cube_44):
    # 44 tets, 26 vertices, 93 edges
    assert dof_counts(cube_44) == (176, 119)


def test_dof_map_invariants(square_150):
    dofs = build_dof_maps(square_150)
    # velocity DOFs partition [0, m_u)
    flat = dofs.u_cell_dofs.ravel()
    assert np.array_equal(np.sort(flat), np.arange(dofs.m_u))
    # scalar map is continuous: shared edges reference the same global DOF
    mesh = square_150
    edge_index = {tuple(e): mesh.n_vertices + i for i, e in enumerate(mesh.edges)}
    for c in range(mesh.n_cells):
        cell = mesh.cells[c]
        assert np.array_equal(dofs.h_cell_dofs[c, :3], cell)
        for k, (a, b) in enumerate([(0, 1), (0, 2), (1, 2)]):
            key = tuple(sorted((cell[a], cell[b])))
            assert dofs.h_cell_dofs[c, 3 + k] == edge_index[key]
    assert dofs.m_h == mesh.n_vertices + mesh.n_edges


@pytest.mark.parametrize("name", [
    "interval:1", "interval:7", "interval:2:1:periodic", "interval:3:2:periodic", "square:3",
    "cube:2", "square_36", "square_150", "square_1500", "cube_44", "cube_200", "cube_400"])
def test_p2_numbering_is_vertices_then_edges(request, name):
    # one rule in every dimension: the cell's vertices, then its edges; a
    # 1D cell is its own edge, so the periodic 2-cell interval, whose two
    # cells join the same two vertices, has two edge DOFs, not one
    mesh = generate(name) if ":" in name else request.getfixturevalue(name)
    dofs, d = build_dof_maps(mesh), mesh.dim
    assert dofs.m_h == mesh.n_vertices + mesh.n_edges
    assert np.array_equal(dofs.h_cell_dofs[:, :d + 1], mesh.cells)
    assert np.array_equal(dofs.h_cell_dofs[:, d + 1:], mesh.n_vertices + mesh.cell_edges)


@pytest.mark.parametrize("old,new", [("square:2", "cube:2"), ("cube:2", "interval:3"),
                                     ("interval:3", "square:3")])
def test_replace_mesh_rederives_dof_maps(old, new):
    # the mesh is the map's one input: a copy onto another mesh, of another
    # dimension too, is that mesh's map, read-only like it
    assert [f.name for f in dataclasses.fields(wf.DofMap) if f.init] == ["mesh"]
    mesh = generate(new)
    dofs, want = build_dof_maps(generate(old)), build_dof_maps(mesh)
    copy = dataclasses.replace(dofs, mesh=mesh)
    counts = [(m.m_u, m.m_h) for m in (copy, want, dofs)]
    assert copy.mesh is mesh and counts[0] == counts[1] != counts[2]
    for name in ("u_cell_dofs", "h_cell_dofs"):
        got = getattr(copy, name)
        assert np.array_equal(got, getattr(want, name)) and not got.flags.writeable


def test_dof_ratio_trends():
    # 2D: ratio of velocity to scalar DOFs climbs toward 1.5
    ratios2 = []
    for n in (4, 8, 16, 32, 64):
        mu, mh = dof_counts(wf.generate_square_mesh(n))
        ratios2.append(mu / mh)
    assert all(b > a for a, b in zip(ratios2, ratios2[1:]))
    assert abs(ratios2[-1] - 1.5) / 1.5 <= 0.05
    # 3D: climbs toward 2.5
    ratios3 = []
    for n in (1, 2, 4, 8):
        mu, mh = dof_counts(wf.generate_cube_mesh(n))
        ratios3.append(mu / mh)
    assert all(b > a for a, b in zip(ratios3, ratios3[1:]))
    assert abs(ratios3[-1] - 2.5) / 2.5 <= 0.05


def test_h_dof_coords_midpoints():
    # vertices, then edge midpoints, a 1D cell being its own edge; the
    # periodic wrap cell spans [2/3, 1], so its midpoint is 5/6
    for mesh in (wf.generate_square_mesh(1), wf.generate_cube_mesh(2)):
        dofs = build_dof_maps(mesh)
        coords = h_dof_coords(dofs)
        assert np.array_equal(coords[:mesh.n_vertices], mesh.vertices)
        assert np.allclose(coords[mesh.n_vertices:], mesh.vertices[mesh.edges].mean(axis=1))
    for periodic in (False, True):
        mesh = wf.generate_interval_mesh(3, 1.0, periodic=periodic)
        coords = h_dof_coords(build_dof_maps(mesh))
        assert np.array_equal(coords[:mesh.n_vertices], mesh.vertices)
        assert np.allclose(coords[mesh.n_vertices:, 0], [1 / 6, 1 / 2, 5 / 6])
