from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import wavefem as wf
from wavefem import assembly, spectral
from wavefem.assembly import QUAD_DEGREE, _factor, assemble
from wavefem.elements import h_dof_coords, p2_basis, quadrature

from conftest import assemble_all

# 1D element matrices in spatial node order (left vertex, midpoint, right
# vertex); the P2 DOF order is (left, right, midpoint), permutation below.
C_LOCAL = np.array([[-5.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
                    [-1.0 / 6.0, -2.0 / 3.0, 5.0 / 6.0]])
MU_LOCAL = np.array([[1.0 / 3.0, 1.0 / 6.0],
                     [1.0 / 6.0, 1.0 / 3.0]])
MH_LOCAL = np.array([[2.0 / 15.0, 1.0 / 15.0, -1.0 / 30.0],
                     [1.0 / 15.0, 8.0 / 15.0, 1.0 / 15.0],
                     [-1.0 / 30.0, 1.0 / 15.0, 2.0 / 15.0]])
SPATIAL_ORDER = [0, 2, 1]


def divergence_reference(mesh, dofs, bc):
    """Scalar-equation operators assembled from their own weak integrals:
    test gradient against velocity, minus the Dirichlet facet term. The
    facet term is built facet by facet, with the owner cell, normal and
    barycentric quadrature points found independently of the mesh's
    boundary arrays. By the structure of the weak form the result must
    equal the transposed gradient matrices entrywise.
    """
    d = mesh.dim
    rule = quadrature(d, QUAD_DEGREE)
    # P1_DG basis values are the barycentric coordinates
    v1 = rule.points
    _, g2 = p2_basis(rule.points)
    X = mesh.cell_coords
    J = np.transpose(X[:, 1:, :] - X[:, :1, :], (0, 2, 1))
    det = np.abs(np.linalg.det(J))
    div_ref = np.einsum("q,qbk,qa->bak", rule.weights, g2, v1)
    div_cells = det[:, None, None, None] * np.einsum("bak,cki->cbai", div_ref, np.linalg.inv(J))

    n1, n2 = d + 1, g2.shape[1]
    hd, ud = dofs.h_cell_dofs, dofs.u_cell_dofs
    rows = [np.repeat(hd, n1, axis=1).ravel()]
    cols = [np.tile(ud, (1, n2)).ravel()]
    entries = [[div_cells[:, :, :, i].ravel()] for i in range(d)]

    for facet, marker in zip(mesh.boundary_facets, mesh.boundary_markers):
        if int(marker) not in bc.dirichlet_markers:
            continue
        owners = [c for c, cell in enumerate(mesh.cells) if set(facet) <= set(cell)]
        assert len(owners) == 1
        cell = owners[0]
        on_facet = np.isin(mesh.cells[cell], facet)
        corners = mesh.cell_coords[cell][on_facet]
        opposite = mesh.cell_coords[cell][~on_facet][0]
        if d == 1:
            pts, w, normal = corners, np.ones(1), np.ones(1)
        else:
            edges = corners[1:] - corners[0]
            if d == 2:
                normal = np.array([edges[0, 1], -edges[0, 0]])
                measure = np.linalg.norm(normal)
            else:
                normal = np.cross(edges[0], edges[1])
                measure = np.linalg.norm(normal) / 2.0
            normal = normal / np.linalg.norm(normal)
            frule = quadrature(d - 1, QUAD_DEGREE)
            pts = frule.points @ corners
            w = frule.weights * measure / frule.weights.sum()
        if np.dot(normal, corners.mean(axis=0) - opposite) < 0.0:
            normal = -normal
        A = np.vstack([np.ones(d + 1), mesh.cell_coords[cell].T])
        lam = np.linalg.solve(A, np.vstack([np.ones(len(pts)), pts.T])).T
        fv2, _ = p2_basis(lam)
        block = np.einsum("q,qb,qa->ba", w, fv2, lam)
        rows.append(np.repeat(hd[cell], n1))
        cols.append(np.tile(ud[cell], n2))
        for i in range(d):
            entries[i].append((-normal[i] * block).ravel())

    r = np.concatenate(rows)
    c = np.concatenate(cols)
    return tuple(
        sp.coo_matrix((np.concatenate(entries[i]), (r, c)),
                      shape=(dofs.m_h, dofs.m_u)).tocsr()
        for i in range(d)
    )


def one_element_ops(dx):
    mesh = wf.generate_interval_mesh(1, dx)
    dofs = wf.build_dof_maps(mesh)
    ops = assemble(dofs, wf.BcSpec.all_neumann(mesh))
    return ops


@pytest.mark.parametrize("dx", [1.0, 2.0])
def test_local_1d_matrices(dx):
    ops = one_element_ops(dx)
    c = ops.grad[0].toarray()[:, SPATIAL_ORDER]
    mh = ops.h_mass.toarray()[np.ix_(SPATIAL_ORDER, SPATIAL_ORDER)]
    assert np.abs(c - C_LOCAL).max() <= 1e-14
    assert np.abs(ops.cell_dets[0] * ops.u_mass_ref - dx * MU_LOCAL).max() <= 1e-14
    assert np.abs(mh - dx * MH_LOCAL).max() <= 1e-14


def test_scaling_1d():
    # scaling the element stretches both mass matrices, not the gradient
    ops1 = one_element_ops(1.0)
    ops3 = one_element_ops(3.0)
    assert np.allclose(ops3.cell_dets[0] * ops3.u_mass_ref,
                       3.0 * ops1.cell_dets[0] * ops1.u_mass_ref)
    assert np.allclose(ops3.h_mass.toarray(), 3.0 * ops1.h_mass.toarray())
    assert np.allclose(ops3.grad[0].toarray(), ops1.grad[0].toarray())


def test_gradient_of_constant_is_zero(square_150, cube_200):
    for mesh in (square_150, cube_200, wf.generate_interval_mesh(5, 2.0)):
        dofs, ops = assemble_all(mesh, "neumann")
        ones = np.ones(dofs.m_h)
        for g in ops.grad:
            assert np.abs(g @ ones).max() <= 1e-13


def test_h_mass_total_is_domain_area(square_150):
    _, ops = assemble_all(square_150, "neumann")
    assert abs(ops.h_mass.sum() - 1.0) <= 1e-12


def test_h_mass_positive_definite(square_36):
    _, ops = assemble_all(square_36, "dirichlet")
    vals = np.linalg.eigvalsh(ops.h_mass.toarray())
    assert vals.min() > 0


def test_h_mass_symmetric(cube_44):
    _, ops = assemble_all(cube_44, "neumann")
    asym = (ops.h_mass - ops.h_mass.T)
    assert abs(asym).max() <= 1e-14 * abs(ops.h_mass).max()


def assert_no_stored_zeros(ops):
    """The cell blocks of the gradient hold exact zeros (even on these
    unstructured meshes); ``grad_i`` may not store them, and the
    transposes that the divergence applies share its arrays."""
    assert all((g.data != 0.0).all() for g in ops.grad)
    assert all(np.shares_memory(t.data, g.data) and np.shares_memory(t.indices, g.indices)
               for t, g in zip(ops._grad_T, ops.grad))


@pytest.mark.parametrize("bc_kind", ["neumann", "dirichlet"])
def test_adjointness(square_36, bc_kind):
    # the scalar-side operator assembled from its own integrals must be
    # the exact transpose of the gradient matrices
    mesh = square_36
    dofs = wf.build_dof_maps(mesh)
    bc = (wf.BcSpec.all_neumann(mesh) if bc_kind == "neumann"
          else wf.BcSpec.all_dirichlet(mesh))
    ops = assemble(dofs, bc)
    div = divergence_reference(mesh, dofs, bc)
    for i in range(mesh.dim):
        diff = abs(div[i] - ops.grad[i].T)
        scale = abs(ops.grad[i]).max()
        assert diff.max() <= 1e-13 * scale
    assert_no_stored_zeros(ops)


def test_adjointness_3d(cube_44):
    dofs = wf.build_dof_maps(cube_44)
    bc = wf.BcSpec.all_dirichlet(cube_44)
    ops = assemble(dofs, bc)
    div = divergence_reference(cube_44, dofs, bc)
    for i in range(3):
        assert abs(div[i] - ops.grad[i].T).max() <= 1e-13 * abs(ops.grad[i]).max()
    assert_no_stored_zeros(ops)


def test_dirichlet_facet_term_vs_boundary_data(square_150):
    # with g == 1, the facet part of the gradient applied to the constant
    # scalar equals minus the assembled boundary vector
    mesh = square_150
    dofs = wf.build_dof_maps(mesh)
    ops = assemble(dofs, wf.BcSpec.all_dirichlet(mesh, g=lambda x: 1.0))
    ones = np.ones(dofs.m_h)
    for i in range(mesh.dim):
        assert np.abs(ops.grad[i] @ ones + ops.dirichlet_rhs[i]).max() <= 1e-13


def test_u_mass_inverse_block_1d():
    ops = one_element_ops(1.0)
    inv = np.linalg.inv(ops.cell_dets[0] * ops.u_mass_ref)
    assert np.abs(inv - np.array([[4.0, -2.0], [-2.0, 4.0]])).max() <= 1e-12


def velocity_mass_reference(mesh, dofs):
    """Global velocity mass scattered from per-cell quadrature masses,
    each scaled by the determinant of its cell's own Jacobian."""
    d = mesh.dim
    rule = quadrature(d, QUAD_DEGREE)
    v1 = rule.points  # P1_DG basis values: the barycentric coordinates
    X = mesh.cell_coords
    det = np.abs(np.linalg.det(X[:, 1:, :] - X[:, :1, :]))
    blocks = np.einsum("c,q,qa,qb->cab", det, rule.weights, v1, v1)
    ud = dofs.u_cell_dofs
    rows = np.repeat(ud, ud.shape[1], axis=1).ravel()
    cols = np.tile(ud, (1, ud.shape[1])).ravel()
    return sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(dofs.m_u, dofs.m_u)).tocsr()


@pytest.mark.parametrize("name", ["square_36", "cube_44", "interval:5"])
def test_velocity_mass_reference_form(name, request):
    # energy and kick, which read u_mass as cell_dets[K] * u_mass_ref,
    # against a global M_u built independently
    if name == "interval:5":
        mesh = wf.generate_interval_mesh(5, 2.0)
    else:
        mesh = request.getfixturevalue(name)
    dofs = wf.build_dof_maps(mesh)
    ops = assemble(dofs, wf.BcSpec.all_dirichlet(mesh, g=lambda x: 1.0 + x[..., 0]))
    M_u = velocity_mass_reference(mesh, dofs)
    rng = np.random.default_rng(5)
    state = wf.FieldState(u=[rng.standard_normal(dofs.m_u) for _ in range(mesh.dim)],
                          h=rng.standard_normal(dofs.m_h))
    expected = 0.5 * state.h @ (ops.h_mass @ state.h) + 0.5 * sum(u @ (M_u @ u) for u in state.u)
    assert abs(wf.energy(state, ops) - expected) <= 1e-14 * abs(expected)

    solve = spla.factorized(M_u.tocsc())
    kick = ops.kick(state.h)
    for i in range(mesh.dim):
        ref = solve(ops.grad[i] @ state.h + ops.dirichlet_rhs[i])
        assert np.abs(kick[i] - ref).max() <= 1e-12 * np.abs(ref).max()

    # M_u^{-1} is cell-local: changing one cell's entries of the
    # right-hand side changes exactly that cell's entries of the kick
    x = rng.standard_normal(dofs.m_u)
    x2 = x.copy()
    x2[dofs.u_cell_dofs[3]] += 1.0
    zero = np.zeros(dofs.m_h)
    y, y2 = (replace(ops, dirichlet_rhs=np.array([r] * mesh.dim)).kick(zero)[0]
             for r in (x, x2))
    changed = np.nonzero(np.abs(y2 - y) > 1e-14 * np.abs(y).max())[0]
    assert changed.tolist() == sorted(dofs.u_cell_dofs[3].tolist())


def mmd_splu(mat):
    """The factor every matrix had before the 3D ordering: SuperLU's MMD."""
    return spla.splu(mat.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


@pytest.mark.parametrize("name", ["cube:8", "cube_200"])
def test_dissection_order_solves_like_mmd(name, request):
    # the 3D order permutes the free scalar DOFs, and the mass and the
    # lambda_max pencil A - sigma M, factored in it, solve as MMD's factors do
    mesh = wf.generate_cube_mesh(8) if name == "cube:8" else request.getfixturevalue(name)
    _, ops = assemble_all(mesh, "dirichlet")
    n = len(ops.h_free)
    assert np.array_equal(np.sort(ops.h_order), np.arange(n))
    A, M = wf.laplacian_pencil(ops)
    pencil = A - 1.001 * wf.cell_lambda_bound(ops) * M
    b = np.random.default_rng(0).standard_normal(n)
    for mat, solve in [(M, ops.h_mass_solver()), (pencil, _factor(pencil, ops.h_order))]:
        ref = mmd_splu(mat).solve(b)
        assert np.abs(solve(b) - ref).max() <= 1e-14 * np.abs(ref).max()


def test_dissection_fills_less_than_mmd_on_cube8():
    # entry counts, not timings: L + U is 1.27M against MMD's 1.86M, and
    # SuperLU's stored count (supernodes in full) 1.27M against 2.19M
    _, ops = assemble_all(wf.generate_cube_mesh(8), "dirichlet")
    lu, ref = ops.h_mass_solver().lu, mmd_splu(ops.h_mass)
    assert lu.L.nnz + lu.U.nnz < 0.9 * (ref.L.nnz + ref.U.nnz) < 0.9 * 1.87e6
    assert lu.nnz < 0.75 * ref.nnz


@pytest.mark.parametrize("name,bound", [("cube:8", 1.28e6), ("cube_400", 1.2e5)])
def test_dissection_fill(name, bound, request):
    # entry counts, not timings: the stored L + U of the Dirichlet mass is
    # 1,272,258 on cube:8 and 118,140 on cube_400
    mesh = wf.generate_cube_mesh(8) if name == "cube:8" else request.getfixturevalue(name)
    _, ops = assemble_all(mesh, "dirichlet")
    assert ops.h_mass_solver().lu.nnz <= bound


def test_dissection_keeps_the_one_layer_separator():
    # on a P2 chain of 9 cells the median DOF is the midpoint x = 4.5/9.
    # The left DOFs coupled to the right are it and the vertex 4/9, two
    # layers; the right one is the vertex 5/9 alone. So the order is the
    # right side without it, then the left side, then the vertex 5/9.
    mesh = wf.generate_interval_mesh(9, 1.0)
    dofs, ops = assemble_all(mesh)
    assert dofs.m_h == 19 > assembly.DISSECTION_LEAF
    x = h_dof_coords(dofs)[:, 0]
    order = assembly._dissection_order(ops.h_mass, x[:, None])
    assert np.array_equal(np.sort(order), np.arange(19))
    assert x[order[-1]] == 5.0 / 9.0
    assert (x[order[:8]] > 5.0 / 9.0).all() and (x[order[8:18]] <= 0.5).all()


def test_dissection_stops_at_a_crowded_far_face():
    # with over half of a part's DOFs at its largest coordinate, the median
    # puts every DOF on the left; the part is a leaf, not split again forever
    n = 4 * assembly.DISSECTION_LEAF
    coords = np.ones((n, 1))
    coords[:n // 3, 0] = np.linspace(0.0, 0.5, n // 3)
    chain = sp.diags([np.ones(n - 1), np.ones(n), np.ones(n - 1)], [-1, 0, 1])
    assert np.array_equal(assembly._dissection_order(chain, coords), np.arange(n))


@pytest.mark.parametrize("spec", ["cube:3", "square:8"])
def test_scattered_matrices_own_their_entries(monkeypatch, spec):
    # eliminate_zeros may leave data and indices as views of the unpruned
    # arrays; each scattered matrix must hold exactly its nnz entries
    scatter, made = assembly._scatter, []

    def recording(*args):
        made.append(scatter(*args))
        return made[-1]

    monkeypatch.setattr(assembly, "_scatter", recording)
    monkeypatch.setattr(spectral, "_scatter", recording)
    kind, n = spec.split(":")
    mesh = (wf.generate_cube_mesh if kind == "cube" else wf.generate_square_mesh)(int(n))
    _, ops = assemble_all(mesh, "dirichlet")
    ops.kick(np.ones(ops.dofs.m_h))
    spectral.laplacian_pencil(ops)
    assert len(made) == 2 + mesh.dim  # mass, d gradients, A; the kick scatters none
    for mat in made:
        for entries in (mat.data, mat.indices):
            assert entries.base is None and len(entries) == mat.nnz


def test_only_3d_operators_carry_an_order(square_36):
    # in 1D and 2D neither MMD nor the dissection fills less at every size,
    # and the dissection costs more than it saves, so the mass is factored
    # without an order
    interval = wf.generate_interval_mesh(8, 1.0)
    for mesh, bc in [(interval, wf.BcSpec(dirichlet_markers={1, 2})),
                     (square_36, wf.BcSpec.all_dirichlet(square_36))]:
        ops = assemble(wf.build_dof_maps(mesh), bc)
        assert ops.h_order is None
        b = np.random.default_rng(0).standard_normal(len(ops.h_free))
        M = ops.free_block(ops.h_mass)
        assert np.array_equal(ops.h_mass_solver()(b), mmd_splu(M).solve(b))


def test_replace_drops_cached_solvers(square_36):
    # a copy with a new scalar mass must factor that mass, not reuse the
    # original's factor; the kick and the cell bound of a copy with a new
    # velocity mass invert that mass
    _, ops = assemble_all(square_36)
    ops.h_mass_solver()
    b = np.random.default_rng(0).standard_normal(ops.dofs.m_h)
    kick = ops.kick(b)
    bound = wf.cell_lambda_bound(ops)
    scaled = replace(ops, h_mass_ref=2.0 * ops.h_mass_ref, u_mass_ref=2.0 * ops.u_mass_ref)
    assert np.array_equal(scaled.h_mass.data, 2.0 * ops.h_mass.data)
    x = scaled.h_mass_solver()(b)
    assert np.abs(scaled.h_mass @ x - b).max() <= 1e-12 * np.abs(b).max()
    # A halves with the velocity mass and the scalar mass doubles
    assert abs(4.0 * wf.cell_lambda_bound(scaled) - bound) <= 1e-12 * bound
    assert np.abs(2.0 * scaled.kick(b) - kick).max() <= 1e-14 * np.abs(kick).max()


def test_replace_rederives_global_operators():
    # the global matrices of a copy follow its reference tensor and facet
    # blocks: doubling both doubles the cell blocks, the kick and the
    # divergence and quadruples the Laplacian. The original has applied its
    # gradients already, and the copy must not carry them over.
    mesh = wf.generate_square_mesh(8)
    dofs = wf.build_dof_maps(mesh)
    ops = assemble(dofs, wf.BcSpec.all_dirichlet(mesh, lambda x: x[:, 0] + 2 * x[:, 1]))
    rng = np.random.default_rng(0)
    h, u = rng.standard_normal(dofs.m_h), rng.standard_normal((2, dofs.m_u))
    zero = np.zeros(dofs.m_h)
    ops.kick(h)
    twice = replace(ops, grad_ref=2.0 * ops.grad_ref, facet_grad=2.0 * ops.facet_grad)
    assert len(ops.facet_cells) and np.array_equal(twice.grad_cells, 2.0 * ops.grad_cells)
    for new, old in [(twice.kick(h) - twice.kick(zero), ops.kick(h) - ops.kick(zero)),
                     (twice.divergence(u) + twice.neumann_rhs,
                      ops.divergence(u) + ops.neumann_rhs)]:
        assert np.abs(new - 2.0 * old).max() <= 1e-12 * np.abs(old).max()
    A, A2 = wf.laplacian_pencil(ops)[0], wf.laplacian_pencil(twice)[0]
    assert abs(A2 - 4.0 * A).max() <= 1e-12 * abs(A).max()
    bound = wf.cell_lambda_bound(ops)
    assert abs(wf.cell_lambda_bound(twice) - 4.0 * bound) <= 1e-12 * bound
    # a 3D copy derives its own order of the free scalar DOFs, the original's
    _, cube = assemble_all(wf.generate_cube_mesh(3), "dirichlet")
    copy = replace(cube, neumann_rhs=cube.neumann_rhs.copy())
    assert copy.h_order is not cube.h_order and np.array_equal(copy.h_order, cube.h_order)


@pytest.mark.parametrize("name", ["cube:3", "cube_200"])
def test_operators_derive_geometry_from_their_mesh(name, request):
    # the operators keep their DOF map, which carries the mesh, instead of
    # copies of its geometry, and derive the mesh, the determinants, the
    # cell gradient blocks and the 3D order from it as assembly did
    init = [f.name for f in fields(wf.AssembledOperators) if f.init]
    assert len(init) == 10 and "dofs" in init and "mesh" not in init
    assert not {"cell_jinv", "cell_dets", "h_order"} & set(init)
    mesh = wf.generate_cube_mesh(3) if name == "cube:3" else request.getfixturevalue(name)
    dofs, ops = assemble_all(mesh, "dirichlet")
    det = mesh.cell_measures * 6
    blocks = np.einsum("abk,cki->ciab", ops.grad_ref, mesh.barycentric_gradients[:, 1:])
    blocks = det[:, None, None, None] * blocks
    np.add.at(blocks, ops.facet_cells, ops.facet_grad)
    order = assembly._dissection_order(ops.h_mass, h_dof_coords(dofs))
    assert ops.mesh is dofs.mesh is mesh and len(ops.facet_cells)
    assert np.array_equal(ops.cell_dets, det) and np.array_equal(ops.grad_cells, blocks)
    assert np.array_equal(ops.h_order, order)


@pytest.mark.parametrize("name", ["square:8", "cube:2", "cube_200"])
def test_renumbered_cells_keep_the_spectrum(name, request):
    # each DOF map carries the mesh it numbers, so listing the cells in
    # another order (reversed in 2D, a random permutation in 3D) renumbers
    # the DOFs but leaves both spectra as they were
    generated = {"square:8": lambda: wf.generate_square_mesh(8),
                 "cube:2": lambda: wf.generate_cube_mesh(2)}
    mesh = generated[name]() if name in generated else request.getfixturevalue(name)
    order = (np.arange(mesh.n_cells)[::-1] if mesh.dim == 2
             else np.random.default_rng(0).permutation(mesh.n_cells))
    other = wf.Mesh(mesh.dim, mesh.vertices, mesh.cells[order], mesh.boundary_facets,
                    mesh.boundary_markers)
    for bc in (wf.BcSpec.all_neumann, wf.BcSpec.all_dirichlet):
        want, got = (spectral.laplacian_spectrum(assemble(wf.build_dof_maps(m), bc(m)))
                     for m in (mesh, other))
        assert want.complete and got.complete
        scale = want.eigenvalues[-1]
        assert np.abs(got.eigenvalues - want.eigenvalues).max() <= 1e-10 * scale
        assert got.null_count == want.null_count


def test_replace_rederives_free_dofs():
    # a 1D copy with one of its two Dirichlet vertices fixed leaves the other free
    mesh = wf.generate_interval_mesh(8, 1.0)
    dofs = wf.build_dof_maps(mesh)
    ops = assemble(dofs, wf.BcSpec(dirichlet_markers={1, 2}, g=lambda x: 1.0 + x[:, 0]))
    assert len(ops.h_fixed) == 2 and len(ops.h_free) == dofs.m_h - 2
    one = replace(ops, h_fixed=ops.h_fixed[:1], h_fixed_values=ops.h_fixed_values[:1])
    assert len(one.h_free) == dofs.m_h - 1
    assert np.array_equal(one.h_free, np.delete(np.arange(dofs.m_h), ops.h_fixed[0]))


def test_semidiscrete_rhs_zero_state(square_36):
    # with zero boundary data both right-hand sides vanish at the zero state
    dofs, ops = assemble_all(square_36)
    du = ops.kick(np.zeros(dofs.m_h))
    dh = ops.divergence(np.zeros((2, dofs.m_u)))
    assert np.abs(du).max() == 0.0
    assert np.abs(dh).max() == 0.0


def test_constant_scalar_exerts_no_force(square_150):
    dofs, ops = assemble_all(square_150, "neumann")
    # u_mass^{-1} grad_i scales entries by 1/|K|, so the bound is relative
    # to the largest entry of its cell blocks
    force = ops.kick(3.7 * np.ones(dofs.m_h))
    inv = np.linalg.inv(ops.u_mass_ref)
    for i in range(ops.dim):
        blocks = inv @ ops.grad_cells[:, i] / ops.cell_dets[:, None, None]
        assert np.abs(force[i]).max() <= 1e-13 * np.abs(blocks).max()


def test_periodic_stencil_rows():
    # assembled rows on a uniform periodic grid must reproduce the
    # hand-derived stencil: midpoint mass row dx/30*(2, 16, 2) and
    # divergence row (4, -4)/6
    n, length = 8, 8.0  # dx = 1
    mesh = wf.generate_interval_mesh(n, length, periodic=True)
    dofs = wf.build_dof_maps(mesh)
    ops = assemble(dofs, wf.BcSpec())
    cell = 3
    mid = dofs.h_cell_dofs[cell, 2]
    left, right = dofs.h_cell_dofs[cell, 0], dofs.h_cell_dofs[cell, 1]
    row = ops.h_mass[mid].toarray().ravel()
    assert abs(row[mid] - 16.0 / 30.0) <= 1e-14
    assert abs(row[left] - 2.0 / 30.0) <= 1e-14
    assert abs(row[right] - 2.0 / 30.0) <= 1e-14
    div_row = ops.grad[0].T[mid].toarray().ravel()
    u_plus, u_minus = dofs.u_cell_dofs[cell]
    assert abs(div_row[u_plus] - 4.0 / 6.0) <= 1e-14
    assert abs(div_row[u_minus] + 4.0 / 6.0) <= 1e-14
    # vertex-equation coupling: (1, 5, -5, -1)/6 over the four flanking DOFs
    vrow = ops.grad[0].T[left].toarray().ravel()
    prev_plus, prev_minus = dofs.u_cell_dofs[cell - 1]
    assert abs(vrow[prev_plus] - 1.0 / 6.0) <= 1e-14
    assert abs(vrow[prev_minus] - 5.0 / 6.0) <= 1e-14
    assert abs(vrow[u_plus] + 5.0 / 6.0) <= 1e-14
    assert abs(vrow[u_minus] + 1.0 / 6.0) <= 1e-14


def test_assembly_deterministic(square_36):
    dofs = wf.build_dof_maps(square_36)
    bc = wf.BcSpec.all_dirichlet(square_36)
    a = assemble(dofs, bc)
    b = assemble(dofs, bc)
    assert np.array_equal(a.h_mass.data, b.h_mass.data)
    assert np.array_equal(a.grad[0].data, b.grad[0].data)
    assert np.array_equal(a.cell_dets[:, None, None] * a.u_mass_ref,
                          b.cell_dets[:, None, None] * b.u_mass_ref)


def test_unknown_marker_rejected(square_150):
    dofs = wf.build_dof_maps(square_150)
    with pytest.raises(ValueError, match="not on mesh boundary"):
        assemble(dofs, wf.BcSpec(dirichlet_markers={9},
                                             neumann_markers={1}))
    with pytest.raises(ValueError, match="not\\s+assigned"):
        assemble(dofs, wf.BcSpec())


def test_neumann_data_vector():
    # f == 1 on the whole boundary integrates the P2 trace: the entries
    # must sum to the boundary length
    mesh = wf.generate_square_mesh(2)
    dofs = wf.build_dof_maps(mesh)
    ops = assemble(dofs, wf.BcSpec.all_neumann(mesh, f=lambda x: 1.0))
    assert abs(ops.neumann_rhs.sum() - 4.0) <= 1e-13
    # with no Dirichlet facets the Dirichlet vectors are float zeros
    rhs = ops.dirichlet_rhs
    assert rhs.dtype == np.float64 and rhs.shape == (2, dofs.m_u) and not rhs.any()

