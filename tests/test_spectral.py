import dataclasses
import json

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import wavefem as wf
from wavefem import spectral
from wavefem.elements import P2_CG, quadrature, reference_element, tabulate
from wavefem.spectral import (Spectrum, cell_lambda_bound, laplacian_pencil,
                              laplacian_spectrum, max_eigenvalue,
                              null_space_dimension, spectrum_to_csv,
                              spectrum_to_json, spurious_mode_report)

from conftest import assemble_all

PI2 = np.pi ** 2


def interval_bc(kind, f=lambda x: 0.0):
    """Both ends Dirichlet, or Dirichlet at 0 (marker 1) and Neumann at 1."""
    if kind == "dirichlet":
        return wf.BcSpec(dirichlet_markers={1, 2}, f=f)
    return wf.BcSpec(dirichlet_markers={1}, neumann_markers={2}, f=f)


def test_interval_dirichlet_spectrum():
    # continuum oracles on [0, 1]: k^2 pi^2 with both ends Dirichlet,
    # (k - 1/2)^2 pi^2 with a Neumann end at x = 1
    mesh = wf.generate_interval_mesh(64, 1.0)
    dofs = wf.build_dof_maps(mesh)
    for kind, shift, n_neumann in (("dirichlet", 0.0, 0), ("mixed", 0.5, 1)):
        ops = wf.assemble(mesh, dofs, interval_bc(kind, f=lambda x: 1.0))
        # the Neumann end still receives its boundary datum
        assert abs(ops.neumann_rhs.sum() - n_neumann) <= 1e-14
        spec = laplacian_spectrum(ops)
        assert null_space_dimension(spec) == 0
        for k, lam in enumerate(spec.eigenvalues[:3], start=1):
            exact = (k - shift) ** 2 * PI2
            assert abs(lam - exact) / exact <= 1e-3


@pytest.mark.parametrize("kind", ["dirichlet", "mixed"])
@pytest.mark.parametrize("n", [1, 8, 64, 256])
def test_interval_null_space_trivial(n, kind):
    # the Dirichlet vertices are fixed, so the pencil has only the
    # 2N + 1 - (number of Dirichlet ends) free scalar DOFs and no kernel
    mesh = wf.generate_interval_mesh(n, 1.0)
    dofs = wf.build_dof_maps(mesh)
    ops = wf.assemble(mesh, dofs, interval_bc(kind))
    n_fixed = 2 if kind == "dirichlet" else 1
    assert len(ops.h_fixed) == n_fixed
    assert np.array_equal(np.sort(np.concatenate([ops.h_free, ops.h_fixed])),
                          np.arange(dofs.m_h))
    spec = laplacian_spectrum(ops)
    assert spec.m_h == dofs.m_h - n_fixed
    assert null_space_dimension(spec) == 0


def test_square_neumann_spectrum(square_150):
    _, ops = assemble_all(square_150, "neumann")
    spec = laplacian_spectrum(ops)
    # the pencil comes from the cell Laplacians, not the kick operator
    assert ops._kick is None
    assert null_space_dimension(spec) == 1
    targets = [PI2, PI2, 2 * PI2]
    for lam, t in zip(spec.eigenvalues[1:4], targets):
        assert abs(lam - t) / t <= 5e-3


def test_square_dirichlet_spectrum(square_150):
    _, ops = assemble_all(square_150, "dirichlet")
    spec = laplacian_spectrum(ops)
    assert null_space_dimension(spec) == 0
    assert abs(spec.eigenvalues[0] - 2 * PI2) / (2 * PI2) <= 5e-3


def test_constant_vector_in_kernel(square_150):
    dofs, ops = assemble_all(square_150, "neumann")
    A, _ = laplacian_pencil(ops)
    ones = np.ones(dofs.m_h)
    scale = abs(A).max()
    assert np.abs(A @ ones).max() <= 1e-12 * scale


def test_operator_symmetric_psd(cube_44):
    _, ops = assemble_all(cube_44, "dirichlet")
    A, _ = laplacian_pencil(ops)
    rng = np.random.default_rng(5)
    scale = abs(A).max()
    for _ in range(10):
        x = rng.standard_normal(A.shape[0])
        y = rng.standard_normal(A.shape[0])
        assert x @ (A @ x) >= -1e-12 * scale * (x @ x)
        assert abs(x @ (A @ y) - y @ (A @ x)) <= 1e-12 * scale * np.linalg.norm(x) * np.linalg.norm(y)


def test_eigen_residuals(square_36):
    _, ops = assemble_all(square_36, "neumann")
    spec = laplacian_spectrum(ops, compute_vectors=True)
    A, M = laplacian_pencil(ops)
    normA = np.linalg.norm(A.toarray(), 2)
    for k in range(0, spec.eigenvalues.size, 7):
        v = spec.eigenvectors[:, k]
        r = A @ v - spec.eigenvalues[k] * (M @ v)
        assert np.linalg.norm(r) <= 1e-9 * normA * np.linalg.norm(v)


def test_iterative_matches_dense(square_36, monkeypatch):
    _, ops = assemble_all(square_36, "dirichlet")
    dense = laplacian_spectrum(ops)
    monkeypatch.setattr(spectral, "DENSE_CUTOFF", 1)
    iterative = laplacian_spectrum(ops)
    assert not iterative.complete
    k = len(iterative.eigenvalues)
    assert np.abs(iterative.eigenvalues - dense.eigenvalues[:k]).max() \
        <= 1e-6 * dense.lambda_max
    assert abs(iterative.lambda_max - dense.lambda_max) <= 1e-6 * dense.lambda_max
    again = laplacian_spectrum(ops)
    assert np.array_equal(again.eigenvalues, iterative.eigenvalues)
    assert again.lambda_max == iterative.lambda_max


def test_max_eigenvalue_paths(square_36, monkeypatch):
    _, ops = assemble_all(square_36, "dirichlet")
    dense = max_eigenvalue(ops)
    monkeypatch.setattr(spectral, "DENSE_CUTOFF", 1)
    iterative = max_eigenvalue(ops)
    assert abs(dense - iterative) <= 1e-6 * dense
    assert max_eigenvalue(ops) == iterative


def test_lambda_max_no_convergence_raises(square_36, monkeypatch):
    _, ops = assemble_all(square_36, "dirichlet")

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(spectral, "_eigsh", no_convergence)
    monkeypatch.setattr(spectral, "DENSE_CUTOFF", 1)
    with pytest.raises(RuntimeError, match="failed to converge"):
        max_eigenvalue(ops)


def test_indefinite_mass_raises(square_36):
    """Both public solves report a mass matrix that is not positive
    definite as an inconsistent assembly."""
    _, ops = assemble_all(square_36, "dirichlet")
    bad = dataclasses.replace(ops, h_mass=-ops.h_mass)
    for solve in (laplacian_spectrum, max_eigenvalue):
        with pytest.raises(RuntimeError, match="not positive definite"):
            solve(bad)


def with_mixed_markers(mesh):
    """The mesh with marker 2 on the boundary facets left of x = 0.5 and
    marker 1 on the rest; intervals already carry markers 1 and 2."""
    if mesh.dim == 1:
        return mesh
    x = mesh.vertices[mesh.boundary_facets].mean(axis=1)[:, 0]
    return wf.Mesh(mesh.dim, mesh.vertices, mesh.cells, mesh.boundary_facets,
                   np.where(x < 0.5, 2, 1))


BOUND_MESHES = {
    "square:8": lambda: wf.generate_square_mesh(8),
    "cube:3": lambda: wf.generate_cube_mesh(3),
    "interval": lambda: wf.generate_interval_mesh(16, 1.0),
}
FIXTURES = ["square_36", "square_150", "square_1500", "cube_44", "cube_200", "cube_400"]


@pytest.mark.parametrize("kind", ["dirichlet", "neumann", "mixed"])
@pytest.mark.parametrize("name", [*BOUND_MESHES, *FIXTURES])
def test_cell_bound_above_max_eigenvalue(name, kind, request):
    # lambda_max(A, M) <= max_K lambda_max(A_K, M_K); the 1D Dirichlet ends
    # are fixed DOFs, and in 1D Neumann the two are equal up to rounding.
    # On structured meshes the bound is tight; slivers make it loose.
    mesh = BOUND_MESHES[name]() if name in BOUND_MESHES else request.getfixturevalue(name)
    if kind == "mixed":
        mesh = with_mixed_markers(mesh)
        bc = wf.BcSpec(dirichlet_markers={1}, neumann_markers={2})
    else:
        bc = (wf.BcSpec.all_dirichlet(mesh) if kind == "dirichlet"
              else wf.BcSpec.all_neumann(mesh))
    ops = wf.assemble(mesh, wf.build_dof_maps(mesh), bc)
    ratio = cell_lambda_bound(ops) / max_eigenvalue(ops)
    assert ratio >= 1.0 - 1e-10
    if name in ("square:8", "cube:3"):
        assert ratio <= 1.25


def test_cell_bound_periodic_interval():
    mesh = wf.generate_interval_mesh(8, 1.0, periodic=True)
    ops = wf.assemble(mesh, wf.build_dof_maps(mesh), wf.BcSpec())
    lam = max_eigenvalue(ops)
    assert abs(cell_lambda_bound(ops) - lam) <= 1e-10 * lam


def p2_stiffness(mesh, dofs):
    """The P2 Lagrange stiffness matrix (grad h, grad v), dense, from the
    tabulated P2 gradients and a degree-2 rule; no velocity space."""
    d = mesh.dim
    rule = quadrature(d, 2)
    _, g2 = tabulate(reference_element(d, P2_CG), rule.points)
    X = mesh.cell_coords
    J = np.transpose(X[:, 1:, :] - X[:, :1, :], (0, 2, 1))
    grads = np.einsum("qak,cki->cqai", g2, np.linalg.inv(J))
    cells = np.abs(np.linalg.det(J))[:, None, None] * np.einsum(
        "q,cqai,cqbi->cab", rule.weights, grads, grads)
    K = np.zeros((dofs.m_h, dofs.m_h))
    hd = dofs.h_cell_dofs
    np.add.at(K, (hd[:, :, None], hd[:, None, :]), cells)
    return K


IDENTITY_MESHES = {
    "interval:8": lambda: wf.generate_interval_mesh(8, 1.0),
    "square:8": lambda: wf.generate_square_mesh(8),
    "cube:3": lambda: wf.generate_cube_mesh(3),
}


@pytest.mark.parametrize("name", IDENTITY_MESHES)
def test_laplacian_is_p2_stiffness(name):
    # grad P2 lies in P1_DG^d, so u_mass^{-1} grad_i h is the exact
    # gradient of h and A = sum_i grad_i^T u_mass^{-1} grad_i is the P2
    # stiffness matrix under Neumann data and in 1D
    mesh = IDENTITY_MESHES[name]()
    dofs = wf.build_dof_maps(mesh)
    K = p2_stiffness(mesh, dofs)
    ops = wf.assemble(mesh, dofs, wf.BcSpec.all_neumann(mesh))
    A = laplacian_pencil(ops)[0].toarray()
    assert np.linalg.norm(A - K) <= 1e-14 * np.linalg.norm(K)

    ops = wf.assemble(mesh, dofs, wf.BcSpec.all_dirichlet(mesh))
    A = laplacian_pencil(ops)[0].toarray()
    if mesh.dim == 1:
        # strong Dirichlet vertices: A is the free block of K
        K_free = K[np.ix_(ops.h_free, ops.h_free)]
        assert np.linalg.norm(A - K_free) <= 1e-14 * np.linalg.norm(K_free)
        return
    # weak Dirichlet facets change A only on the DOFs of their owner cells
    rows = np.nonzero(np.abs(A - K).max(axis=1) > 1e-12 * np.abs(K).max())[0]
    owners = np.unique(dofs.h_cell_dofs[mesh.boundary_cells])
    assert len(rows) > 0
    assert np.isin(rows, owners).all()


def test_max_eigenvalue_grows_under_refinement():
    vals = []
    for n in (2, 4, 8):
        mesh = wf.generate_square_mesh(n)
        _, ops = assemble_all(mesh, "dirichlet")
        vals.append(max_eigenvalue(ops))
    assert vals[0] < vals[1] < vals[2]


def test_neumann_lambda2_converges():
    # the first nonzero eigenvalue approaches pi^2 from above
    errs = []
    for n in (4, 8, 16):
        mesh = wf.generate_square_mesh(n)
        _, ops = assemble_all(mesh, "neumann")
        spec = laplacian_spectrum(ops)
        errs.append(abs(spec.eigenvalues[1] - PI2))
    assert errs[0] > errs[1] > errs[2]


def test_spurious_transition_3d(cube_44, cube_200, cube_400):
    specs = []
    for mesh in (cube_44, cube_200, cube_400):
        _, ops = assemble_all(mesh, "dirichlet")
        specs.append(laplacian_spectrum(ops))
    report = spurious_mode_report(specs)
    nulls = [lev.null_count for lev in report.levels]
    assert nulls[0] > 0
    assert nulls[-1] == 0
    # smallest nonzero stays near 3 pi^2 across the sequence
    for lev in report.levels:
        assert abs(lev.smallest_nonzero - 3 * PI2) / (3 * PI2) <= 0.02


def test_single_level_report_unflagged(square_36):
    _, ops = assemble_all(square_36, "neumann")
    report = spurious_mode_report([laplacian_spectrum(ops)])
    assert not report.has_flags
    assert len(report.levels) == 1


def test_pesky_mode_flagging():
    # synthetic spectra: a mode sinking by more than half must be flagged
    good = Spectrum(np.array([0.0, 9.9, 20.0]), 20.0, 3, True)
    sinking = Spectrum(np.array([0.0, 3.1, 20.0]), 20.0, 3, True)
    report = spurious_mode_report([good, sinking])
    assert report.has_flags
    stable = Spectrum(np.array([0.0, 9.87, 19.9]), 19.9, 3, True)
    report = spurious_mode_report([good, stable])
    assert not report.has_flags


def test_2d_neumann_stable_under_refinement(square_150, square_1500):
    specs = []
    for mesh in (square_150, square_1500):
        _, ops = assemble_all(mesh, "neumann")
        specs.append(laplacian_spectrum(ops))
    report = spurious_mode_report(specs)
    assert not report.has_flags
    assert [lev.null_count for lev in report.levels] == [1, 1]


def test_exports(tmp_path, square_36):
    _, ops = assemble_all(square_36, "neumann")
    spec = laplacian_spectrum(ops)
    csv_path = tmp_path / "spec.csv"
    spectrum_to_csv(spec, str(csv_path))
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "index,eigenvalue"
    assert len(rows) == 1 + len(spec.eigenvalues)
    json_path = tmp_path / "spec.json"
    spectrum_to_json(spec, str(json_path), metadata={"bc": "neumann"})
    payload = json.loads(json_path.read_text())
    assert payload["null_space_dimension"] == 1
    assert payload["metadata"]["bc"] == "neumann"
