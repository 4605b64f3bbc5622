import dataclasses
import itertools
import json

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg as spla

import wavefem as wf
from wavefem import dynamics, spectral
from wavefem.elements import p2_basis, quadrature
from wavefem.spectral import (cell_lambda_bound, laplacian_pencil, laplacian_spectrum,
                              max_eigenvalue, spectrum_to_json)

from conftest import assemble_all, load_cube, load_square

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
        ops = wf.assemble(dofs, interval_bc(kind, f=lambda x: 1.0))
        # the Neumann end still receives its boundary datum
        assert abs(ops.neumann_rhs.sum() - n_neumann) <= 1e-14
        spec = laplacian_spectrum(ops)
        assert spec.null_count == 0
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
    ops = wf.assemble(dofs, interval_bc(kind))
    n_fixed = 2 if kind == "dirichlet" else 1
    assert len(ops.h_fixed) == n_fixed
    assert np.array_equal(np.sort(np.concatenate([ops.h_free, ops.h_fixed])),
                          np.arange(dofs.m_h))
    spec = laplacian_spectrum(ops)
    assert spec.m_h == dofs.m_h - n_fixed
    assert spec.null_count == 0


def test_square_neumann_spectrum(square_150):
    _, ops = assemble_all(square_150, "neumann")
    spec = laplacian_spectrum(ops)
    assert spec.null_count == 1
    targets = [PI2, PI2, 2 * PI2]
    for lam, t in zip(spec.eigenvalues[1:4], targets):
        assert abs(lam - t) / t <= 5e-3


def test_square_dirichlet_spectrum(square_150):
    _, ops = assemble_all(square_150, "dirichlet")
    spec = laplacian_spectrum(ops)
    assert spec.null_count == 0
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
    # the library's eigenvalues with the vectors of the same dense pencil
    spec = laplacian_spectrum(ops)
    A, M = laplacian_pencil(ops)
    _, vecs = scipy.linalg.eigh(A.toarray(), M.toarray())
    normA = np.linalg.norm(A.toarray(), 2)
    for k in range(0, spec.eigenvalues.size, 7):
        v = vecs[:, k]
        r = A @ v - spec.eigenvalues[k] * (M @ v)
        assert np.linalg.norm(r) <= 1e-9 * normA * np.linalg.norm(v)


def test_iterative_matches_dense(square_36, monkeypatch):
    # the cutoff selects the spectrum's solver, never lambda_max's
    _, ops = assemble_all(square_36, "dirichlet")
    dense = laplacian_spectrum(ops)
    lam = max_eigenvalue(ops)
    monkeypatch.setattr(spectral, "DENSE_CUTOFF", 1)
    iterative = laplacian_spectrum(ops)
    assert max_eigenvalue(ops) == lam == iterative.lambda_max_solve == dense.lambda_max_solve
    assert lam.value == iterative.lambda_max
    assert not iterative.complete
    k = len(iterative.eigenvalues)
    assert np.abs(iterative.eigenvalues - dense.eigenvalues[:k]).max() \
        <= 1e-6 * dense.lambda_max
    assert abs(iterative.lambda_max - dense.lambda_max) <= 1e-6 * dense.lambda_max
    again = laplacian_spectrum(ops)
    assert np.array_equal(again.eigenvalues, iterative.eigenvalues)
    assert again.lambda_max == iterative.lambda_max


@pytest.mark.parametrize("cutoff", [spectral.DENSE_CUTOFF, 1])
@pytest.mark.parametrize("kind", ["neumann", "dirichlet"])
def test_spectrum_invariant_to_mesh_scale(kind, cutoff, monkeypatch):
    # scaling the mesh by s scales every eigenvalue by 1 / s^2 and keeps
    # the null count (1 Neumann, 4 weak Dirichlet) on both paths
    monkeypatch.setattr(spectral, "DENSE_CUTOFF", cutoff)
    base = wf.generate_square_mesh(8)
    spectra = {s: laplacian_spectrum(assemble_all(wf.Mesh(2, s * base.vertices, base.cells),
                                                  kind)[1])
               for s in (1e-5, 1.0, 1e5)}
    ref = spectra[1.0]
    nulls = ref.null_count
    assert nulls == (1 if kind == "neumann" else 4)
    for s, spec in spectra.items():
        assert spec.null_count == nulls
        lam = spec.eigenvalues[nulls:] * s ** 2
        assert np.abs(lam / ref.eigenvalues[nulls:] - 1.0).max() <= 1e-9
        assert abs(spec.lambda_max * s ** 2 / ref.lambda_max - 1.0) <= 1e-9


def test_lambda_max_no_convergence_raises(square_36, monkeypatch):
    _, ops = assemble_all(square_36, "dirichlet")

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(spectral, "_eigsh", no_convergence)
    with pytest.raises(RuntimeError, match="failed to converge"):
        max_eigenvalue(ops)


@pytest.mark.parametrize("bound", [np.nan, np.inf])
def test_lambda_max_without_finite_bound_raises(square_36, monkeypatch, bound):
    # the shift-invert solve has no other shift to fall back on
    _, ops = assemble_all(square_36, "dirichlet")
    monkeypatch.setattr(spectral, "cell_lambda_bound", lambda ops: bound)
    with pytest.raises(RuntimeError, match="gives no shift"):
        max_eigenvalue(ops)


@pytest.mark.parametrize("cutoff", [spectral.DENSE_CUTOFF, 1])
def test_indefinite_mass_raises(square_36, monkeypatch, cutoff):
    """Both public solves report a mass matrix that is not positive
    definite as an inconsistent assembly, on the dense and the iterative
    spectrum alike."""
    monkeypatch.setattr(spectral, "DENSE_CUTOFF", cutoff)
    _, ops = assemble_all(square_36, "dirichlet")
    bad = dataclasses.replace(ops)
    bad.h_mass = -bad.h_mass
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


GENERATED = {
    "square:8": lambda: wf.generate_square_mesh(8),
    "square:12": lambda: wf.generate_square_mesh(12),
    "square:24": lambda: wf.generate_square_mesh(24),
    "cube:3": lambda: wf.generate_cube_mesh(3),
    "interval": lambda: wf.generate_interval_mesh(16, 1.0),
    "interval:1": lambda: wf.generate_interval_mesh(1, 1.0),
    "interval:2": lambda: wf.generate_interval_mesh(2, 1.0),
    "interval:2:periodic": lambda: wf.generate_interval_mesh(2, 1.0, periodic=True),
    "interval:16:periodic": lambda: wf.generate_interval_mesh(16, 1.0, periodic=True),
}
FIXTURES = ["square_36", "square_150", "square_1500", "cube_44", "cube_200", "cube_400"]
KINDS = ["dirichlet", "neumann", "mixed"]


def operators(name, kind, request):
    """A ``GENERATED`` mesh or a fixture and its operators under Dirichlet,
    Neumann or mixed (``with_mixed_markers``) data."""
    mesh = GENERATED[name]() if name in GENERATED else request.getfixturevalue(name)
    if kind == "mixed":
        mesh = with_mixed_markers(mesh)
        bc = wf.BcSpec(dirichlet_markers={1}, neumann_markers={2})
    else:
        bc = (wf.BcSpec.all_dirichlet(mesh) if kind == "dirichlet"
              else wf.BcSpec.all_neumann(mesh))
    return mesh, wf.assemble(wf.build_dof_maps(mesh), bc)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", ["square:8", "cube:3", "interval", *FIXTURES])
def test_cell_bound_above_max_eigenvalue(name, kind, request):
    # lambda_max(A, M) <= max_K lambda_max(A_K, M_K); the 1D Dirichlet ends
    # are fixed DOFs, and in 1D Neumann the two are equal up to rounding.
    # On structured meshes the bound is tight; slivers make it loose.
    _, ops = operators(name, kind, request)
    ratio = cell_lambda_bound(ops) / max_eigenvalue(ops).value
    assert ratio >= 1.0 - 1e-10
    if name in ("square:8", "cube:3"):
        assert ratio <= 1.25


SMALL_PENCILS = ["interval:1", "interval:2", "square:12", "square:24", "cube:3"]
DENSE_ROUNDING_EPS = 5  # relative rounding of the dense eigh, in units of eps


@pytest.mark.parametrize("name,kind", [
    *itertools.product(SMALL_PENCILS + FIXTURES, KINDS), ("interval:2:periodic", "neumann"),
    *itertools.product(["square:8"], KINDS), ("interval", "dirichlet"),
    ("interval:16:periodic", "neumann")])
def test_lambda_max_shift_invert_matches_dense(name, kind, request, monkeypatch):
    # the shift lies just above the cell bound, which is 232 and 112 times
    # lambda_max on cube_200 and cube_400; there the Ritz value misses
    # 1e-13, and the Rayleigh quotient of the Ritz vector meets it. In 1D
    # the small pencils have 1 to 5 free DOFs: 1 on interval:1 under
    # Dirichlet data, which ARPACK cannot take, so it has no error bar.
    # A periodic interval has no boundary, so it has one case.
    mesh, ops = operators(name, kind, request)
    A, M = laplacian_pencil(ops)
    n = A.shape[0]
    dense = scipy.linalg.eigh(A.toarray(), M.toarray(), eigvals_only=True,
                              subset_by_index=(n - 1, n - 1))[0]
    lam = max_eigenvalue(ops)
    assert abs(lam.value - dense) <= 1e-13 * dense
    # rho is a Rayleigh quotient, at most lambda_max, and eta bounds its
    # error; both up to the dense solver's rounding, which on the 1 x 1
    # pencil puts a / (sqrt(m))^2 an ulp from the correctly rounded a / m.
    # The worst case is cube_400 with Neumann data, where rho lies 8.6e-16
    # (3.9 eps) above the dense value: the allowance is the dense solver's
    # rounding, 5 eps, and 1 + 5 eps is the double that 1 + 1e-15 rounds to.
    assert lam.value <= dense * (1.0 + DENSE_ROUNDING_EPS * np.finfo(float).eps)
    assert abs(lam.value - dense) <= lam.error + 1e-15 * dense
    assert (lam.error == 0.0) if n == 1 else (0.0 < lam.error <= 1e-8 * lam.value)
    assert max_eigenvalue(ops) == lam

    # the dt check decides at the dense limit to 1e-6, never accepts a dt
    # above it, and decides with no eigensolve: it accepts on the cell
    # bound's path or the inertia test's, and a rejection names the
    # certified limit
    def run(dt):
        config = wf.SimulationConfig(dt=dt, t_end=dt, ic_h=lambda x: 1.0)
        return wf.simulate(ops, config).dt_check

    def no_eigensolve(ops):
        raise AssertionError("eigensolve called")

    limit = 2.0 / np.sqrt(dense)
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "max_eigenvalue", no_eigensolve)
        check = run((1.0 - 1e-6) * limit)
        assert check["path"] in ("cell_bound", "inertia")
        for above in (1e-6, 1e-13):
            with pytest.raises(wf.ConfigurationError, match="the cell bound certifies dt <= "):
                run((1.0 + above) * limit)
        if n == 1:
            # at the limit itself sigma M - A is exactly 0, which SuperLU
            # refuses to factor as singular: a rejected dt, not a numerical
            # failure
            dt = 2.0 / np.sqrt(lam.value)  # stable_dt_estimate(ops)
            assert (4.0 / dt ** 2 * M - A).count_nonzero() == 0
            with pytest.raises(wf.ConfigurationError, match="the cell bound certifies dt <= "):
                run(dt)


@pytest.mark.parametrize("a,sigma,count", [
    ([[1.0, -1.0], [-1.0, 1.0]], 1.0, 1), ([[1.0]], 1.0, 1), ([[1.0, -1.0], [-1.0, 1.0]], 2.1, 0)],
    ids=["off-diagonal-pivot", "singular", "definite"])
def test_pivot_inertia_zero_pivot(a, sigma, count):
    # with N = I, sigma N - A is [[0, 1], [1, 0]], which SuperLU factors
    # with an off-diagonal pivot and a positive U diagonal, and [[0]], which
    # it refuses as exactly singular; both are indefinite or singular
    A, N = scipy.sparse.csr_matrix(a), scipy.sparse.identity(len(a), format="csr")
    found, nnz = spectral.pivot_inertia(A, N, sigma, None)
    assert found == count and (nnz > 0) == (len(a) > 1)


def test_lambda_max_solve_count():
    # the start vector is fixed, so the count of shift-invert solves is
    # deterministic: 101 on square:48 at tol 1e-8, against 251 at tol 0
    _, ops = assemble_all(wf.generate_square_mesh(48), "dirichlet")
    assert max_eigenvalue(ops).solves <= 120


def test_shift_invert_factors_in_the_mass_order(cube_200, monkeypatch):
    # A - sigma M has the mass's pattern, so both ends of the iterative
    # spectrum factor it in the mass's nested-dissection order
    _, ops = assemble_all(cube_200, "dirichlet")
    orders, spectral_factor = [], spectral._factor

    def factor(mat, order):
        orders.append(order)
        return spectral_factor(mat, order)

    monkeypatch.setattr(spectral, "_factor", factor)
    monkeypatch.setattr(spectral, "DENSE_CUTOFF", 1)
    laplacian_spectrum(ops)
    assert len(orders) == 2 and all(o is ops.h_order for o in orders)


def test_spectral_verbs_build_no_gradient_matrix(square_36, monkeypatch):
    # the pencil, the cell bound and both ends of the iterative spectrum
    # read the cell blocks only; the low end takes no Ritz vectors. Verlet
    # steps apply the gradients cell by cell and scatter none either.
    _, ops = assemble_all(square_36, "dirichlet")
    calls, spectral_eigsh = [], spectral._eigsh

    def eigsh(*args, **kw):
        calls.append(kw.get("return_eigenvectors", True))
        return spectral_eigsh(*args, **kw)

    monkeypatch.setattr(spectral, "_eigsh", eigsh)
    monkeypatch.setattr(spectral, "DENSE_CUTOFF", 1)
    laplacian_spectrum(ops)
    laplacian_pencil(ops)
    cell_lambda_bound(ops)
    assert calls == [True, False]
    assert "grad" not in vars(ops) and "_grad_T" not in vars(ops)
    state = dynamics.interpolate_state(ops.dofs, lambda x: np.sin(x[:, 0]))
    state = dynamics.verlet_step(state, ops, 1e-3, 1.0)
    dynamics.verlet_step(state, ops, 1e-3, 1.0)
    assert "grad" not in vars(ops)


def test_cell_bound_periodic_interval():
    mesh = wf.generate_interval_mesh(8, 1.0, periodic=True)
    ops = wf.assemble(wf.build_dof_maps(mesh), wf.BcSpec())
    lam = max_eigenvalue(ops).value
    assert abs(cell_lambda_bound(ops) - lam) <= 1e-10 * lam


def p2_stiffness(mesh, dofs):
    """The P2 Lagrange stiffness matrix (grad h, grad v), dense, from the
    tabulated P2 gradients and a degree-2 rule; no velocity space."""
    d = mesh.dim
    rule = quadrature(d, 2)
    _, g2 = p2_basis(rule.points)
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
    ops = wf.assemble(dofs, wf.BcSpec.all_neumann(mesh))
    A = laplacian_pencil(ops)[0].toarray()
    assert np.linalg.norm(A - K) <= 1e-14 * np.linalg.norm(K)

    ops = wf.assemble(dofs, wf.BcSpec.all_dirichlet(mesh))
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


def boundary_flux(mesh, dofs):
    """B[b, c] = integral over the boundary of dn(phi_b) phi_c, dense, by a
    degree-4 facet rule mapped onto each facet and pulled back into its
    owner cell."""
    rule = quadrature(mesh.dim - 1, 4)
    B = np.zeros((dofs.m_h, dofs.m_h))
    for facet, cell, normal, measure in zip(mesh.boundary_facets, mesh.boundary_cells,
                                            mesh.boundary_normals, mesh.boundary_measures):
        X = mesh.cell_coords[cell]
        J = (X[1:] - X[0]).T
        xi = np.linalg.solve(J, (rule.points @ mesh.vertices[facet] - X[0]).T).T
        vals, grads = p2_basis(np.column_stack([1.0 - xi.sum(axis=1), xi]))
        dn = grads @ np.linalg.inv(J) @ normal
        w = rule.weights * measure / rule.weights.sum()
        hd = dofs.h_cell_dofs[cell]
        B[np.ix_(hd, hd)] += np.einsum("q,qb,qc->bc", w, dn, vals)
    return B


@pytest.mark.parametrize("name", ["square:4", "square_36", "cube_44", "cube:2"])
def test_dirichlet_laplacian_is_stiffness_minus_flux_plus_lifting(name):
    # grad_i = V_i - F_i with V_i the volume gradient and F_i the weak
    # Dirichlet facet block, and M_u^{-1} V_i h the exact gradient of h,
    # so A = K - (B + B^T) + L with L = sum_i F_i^T M_u^{-1} F_i
    mesh = {"square:4": lambda: wf.generate_square_mesh(4),
            "square_36": lambda: load_square("square_36"),
            "cube_44": lambda: load_cube("cube_44"),
            "cube:2": lambda: wf.generate_cube_mesh(2)}[name]()
    dofs = wf.build_dof_maps(mesh)
    ops = wf.assemble(dofs, wf.BcSpec.all_dirichlet(mesh))
    volume = wf.assemble(dofs, wf.BcSpec.all_neumann(mesh)).grad
    n_cells, n1 = dofs.u_cell_dofs.shape
    u_inv = np.linalg.inv(ops.u_mass_ref) / ops.cell_dets[:, None, None]
    L = np.zeros((dofs.m_h, dofs.m_h))
    for V, G in zip(volume, ops.grad):
        F = (V - G).toarray().reshape(n_cells, n1, dofs.m_h)
        L += np.einsum("cak,cab,cbl->kl", F, u_inv, F)
    K, B = p2_stiffness(mesh, dofs), boundary_flux(mesh, dofs)
    A, M = (X.toarray() for X in laplacian_pencil(ops))
    assert np.linalg.norm(A - (K - B - B.T + L)) <= 1e-13 * np.linalg.norm(K)

    # on each null vector v the three forms agree (spectral docstring)
    lam, vecs = scipy.linalg.eigh(A, M)
    for v in vecs[:, lam < laplacian_spectrum(ops).null_threshold].T:
        k = v @ K @ v
        assert abs(v @ B @ v - k) <= 1e-12 * k and abs(v @ L @ v - k) <= 1e-12 * k


def test_max_eigenvalue_grows_under_refinement():
    vals = []
    for n in (2, 4, 8):
        mesh = wf.generate_square_mesh(n)
        _, ops = assemble_all(mesh, "dirichlet")
        vals.append(max_eigenvalue(ops).value)
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


def test_neumann_eigenvalues_converge_at_order_four():
    # the first six nonzero eigenvalues against pi^2 (m^2 + n^2) on the
    # unit square: the P2 error is O(h^4), and A is the P2 stiffness
    # matrix, so by min-max each lies above its limit; square:32 is past
    # DENSE_CUTOFF, so both shift-invert solves run
    exact = PI2 * np.array([1, 1, 2, 4, 4, 5])
    errs = []
    for n in (16, 32):
        mesh = wf.generate_square_mesh(n)
        spec = laplacian_spectrum(assemble_all(mesh, "neumann")[1])
        assert spec.complete == (n == 16)
        errs.append(spec.eigenvalues[1:7] - exact)
    assert (np.array(errs) > 0).all()
    assert (np.log2(errs[0] / errs[1]) >= 3.9).all()


def eigenvalue_errors(generate, sizes, bc_kind, exact):
    """Errors of the lowest nonzero eigenvalues against ``exact`` on the
    meshes ``generate(n)``, one row per size; null modes are skipped."""
    errs = []
    for n in sizes:
        spec = laplacian_spectrum(assemble_all(generate(n), bc_kind)[1])
        nulls = spec.null_count
        errs.append(spec.eigenvalues[nulls:nulls + len(exact)] - exact)
    return np.array(errs)


def test_cube_neumann_eigenvalues_converge_at_order_four():
    # the first nine nonzero eigenvalues against pi^2 (l^2 + m^2 + n^2) on
    # the unit cube, from above as in 2D; cube:8 takes the shift-invert path
    exact = PI2 * np.array([1, 1, 1, 2, 2, 2, 3, 4, 4])
    errs = eigenvalue_errors(wf.generate_cube_mesh, (4, 8), "neumann", exact)
    assert (errs > 0).all()
    assert (np.log2(errs[0] / errs[1]) >= 3.6).all()


def test_interval_dirichlet_eigenvalues_converge_at_order_four():
    # strong Dirichlet ends on [0, 1]: (k pi)^2 for k = 1..5
    errs = eigenvalue_errors(lambda n: wf.generate_interval_mesh(n, 1.0), (16, 32),
                             "dirichlet", PI2 * np.arange(1, 6) ** 2)
    assert (np.log2(np.abs(errs[0] / errs[1])) >= 3.9).all()


def test_weak_dirichlet_eigenvalues_converge_at_order_four():
    # the first six eigenvalues past the four corner null modes of square:N
    # against pi^2 (m^2 + n^2), m, n >= 1; the measured rates are 3.48 to
    # 3.79 here and rise toward 4 under refinement (``spectral`` docstring)
    exact = PI2 * np.array([2, 5, 5, 8, 10, 10])
    errs = eigenvalue_errors(wf.generate_square_mesh, (16, 32), "dirichlet", exact)
    assert (np.log2(np.abs(errs[0] / errs[1])) >= 3.4).all()


def test_spurious_transition_3d(cube_44, cube_200, cube_400):
    specs = []
    for mesh in (cube_44, cube_200, cube_400):
        _, ops = assemble_all(mesh, "dirichlet")
        specs.append(laplacian_spectrum(ops))
    nulls = [lev.null_count for lev in specs]
    assert nulls[0] > 0
    assert nulls[-1] == 0
    # smallest nonzero stays near 3 pi^2 across the sequence
    for lev in specs:
        assert abs(lev.smallest_nonzero - 3 * PI2) / (3 * PI2) <= 0.02


NULL_MODE_MESHES = {
    **{f"square:{n}": (lambda n=n: wf.generate_square_mesh(n), 4) for n in (2, 3, 4, 8, 16)},
    "cube_44": (lambda: load_cube("cube_44"), 3),
    "cube_200": (lambda: load_cube("cube_200"), 3),
    "square_36": (lambda: load_square("square_36"), 1),
    "cube:2": (lambda: wf.generate_cube_mesh(2), 0),
    "cube:3": (lambda: wf.generate_cube_mesh(3), 0),
}


@pytest.mark.parametrize("name", NULL_MODE_MESHES)
def test_dirichlet_null_modes_live_in_corner_cells(name):
    # every weak-Dirichlet null mode vanishes outside the scalar DOFs that
    # belong to one cell only, in a cell with d Dirichlet facets; each
    # such cell with p private DOFs carries p - 1 of them
    make, expected = NULL_MODE_MESHES[name]
    mesh = make()
    dofs, ops = assemble_all(mesh, "dirichlet")
    A, M = laplacian_pencil(ops)
    lam, vecs = scipy.linalg.eigh(A.toarray(), M.toarray())
    null = vecs[:, lam < laplacian_spectrum(ops).null_threshold]
    corner = np.bincount(mesh.boundary_cells, minlength=mesh.n_cells) == mesh.dim
    cells = dofs.h_cell_dofs[corner]
    private = np.bincount(dofs.h_cell_dofs.ravel())[cells] == 1
    assert null.shape[1] == (private.sum(axis=1) - 1).sum() == expected
    outside = np.ones(dofs.m_h, dtype=bool)
    outside[cells[private]] = False
    assert np.abs(null[outside]).max(initial=0.0) <= 1e-12 * np.abs(null).max(initial=0.0)


def test_2d_neumann_stable_under_refinement(square_150, square_1500):
    specs = []
    for mesh in (square_150, square_1500):
        _, ops = assemble_all(mesh, "neumann")
        specs.append(laplacian_spectrum(ops))
    # no nonzero eigenvalue sinks under refinement: a spurious mode's would
    # tend to zero with the mesh size
    assert specs[1].smallest_nonzero >= 0.5 * specs[0].smallest_nonzero
    assert [lev.null_count for lev in specs] == [1, 1]


def test_exports(tmp_path, square_36, monkeypatch):
    # the JSON contract on both solver paths: the dense spectrum is complete
    # and ends at lambda_max; the iterative one lists its low end, and
    # lambda_max is the Lanczos Rayleigh quotient
    _, ops = assemble_all(square_36, "neumann")
    for dense in (True, False):
        if not dense:
            monkeypatch.setattr(spectral, "DENSE_CUTOFF", 1)
        json_path = tmp_path / f"spec_{dense}.json"
        spectrum_to_json(laplacian_spectrum(ops), str(json_path), metadata={"bc": "neumann"})
        payload = json.loads(json_path.read_text())
        assert set(payload) == {"eigenvalues", "lambda_max", "lambda_max_solve",
                                "null_space_dimension", "null_tolerance", "n_h_dofs",
                                "complete", "metadata"}
        assert payload["null_space_dimension"] == 1
        assert payload["null_tolerance"] == spectral.NULL_TOLERANCE
        assert payload["metadata"] == {"bc": "neumann"}
        assert payload["complete"] is dense
        assert payload["n_h_dofs"] == ops.dofs.m_h
        assert (len(payload["eigenvalues"]) == ops.dofs.m_h) is dense
        solve = payload["lambda_max_solve"]
        assert set(solve) == {"value", "error", "solves"}
        top = payload["eigenvalues"][-1] if dense else solve["value"]
        assert payload["lambda_max"] == top
