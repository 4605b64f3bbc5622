from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import wavefem as wf
from wavefem.assembly import QUAD_DEGREE, assemble
from wavefem.elements import (P1_DG, P2_CG, quadrature, reference_element,
                              tabulate)

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
    p1 = reference_element(d, P1_DG)
    p2 = reference_element(d, P2_CG)
    rule = quadrature(d, QUAD_DEGREE)
    v1, _ = tabulate(p1, rule.points)
    _, g2 = tabulate(p2, rule.points)
    X = mesh.cell_coords
    J = np.transpose(X[:, 1:, :] - X[:, :1, :], (0, 2, 1))
    det = np.abs(np.linalg.det(J))
    div_ref = np.einsum("q,qbk,qa->bak", rule.weights, g2, v1)
    div_cells = det[:, None, None, None] * np.einsum("bak,cki->cbai", div_ref, np.linalg.inv(J))

    n1, n2 = p1.n_local, p2.n_local
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
        fv1, _ = tabulate(p1, lam)
        fv2, _ = tabulate(p2, lam)
        block = np.einsum("q,qb,qa->ba", w, fv2, fv1)
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
    ops = assemble(mesh, dofs, wf.BcSpec.all_neumann(mesh))
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
    unstructured meshes); neither ``grad_i`` nor the kick operator
    ``B_i`` may store them."""
    for g, (B, _) in zip(ops.grad, ops.kick_operator()):
        assert (g.data != 0.0).all() and (B.data != 0.0).all()


@pytest.mark.parametrize("bc_kind", ["neumann", "dirichlet"])
def test_adjointness(square_36, bc_kind):
    # the scalar-side operator assembled from its own integrals must be
    # the exact transpose of the gradient matrices
    mesh = square_36
    dofs = wf.build_dof_maps(mesh)
    bc = (wf.BcSpec.all_neumann(mesh) if bc_kind == "neumann"
          else wf.BcSpec.all_dirichlet(mesh))
    ops = assemble(mesh, dofs, bc)
    div = divergence_reference(mesh, dofs, bc)
    for i in range(mesh.dim):
        diff = abs(div[i] - ops.grad[i].T)
        scale = abs(ops.grad[i]).max()
        assert diff.max() <= 1e-13 * scale
    assert_no_stored_zeros(ops)


def test_adjointness_3d(cube_44):
    dofs = wf.build_dof_maps(cube_44)
    bc = wf.BcSpec.all_dirichlet(cube_44)
    ops = assemble(cube_44, dofs, bc)
    div = divergence_reference(cube_44, dofs, bc)
    for i in range(3):
        assert abs(div[i] - ops.grad[i].T).max() <= 1e-13 * abs(ops.grad[i]).max()
    assert_no_stored_zeros(ops)


def test_dirichlet_facet_term_vs_boundary_data(square_150):
    # with g == 1, the facet part of the gradient applied to the constant
    # scalar equals minus the assembled boundary vector
    mesh = square_150
    dofs = wf.build_dof_maps(mesh)
    ops = assemble(mesh, dofs, wf.BcSpec.all_dirichlet(mesh, g=lambda x: 1.0))
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
    v1, _ = tabulate(reference_element(d, P1_DG), rule.points)
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
    ops = assemble(mesh, dofs, wf.BcSpec.all_dirichlet(mesh, g=lambda x: 1.0 + x[..., 0]))
    M_u = velocity_mass_reference(mesh, dofs)
    rng = np.random.default_rng(5)
    state = wf.FieldState(u=[rng.standard_normal(dofs.m_u) for _ in range(mesh.dim)],
                          h=rng.standard_normal(dofs.m_h))
    expected = 0.5 * state.h @ (ops.h_mass @ state.h) + 0.5 * sum(u @ (M_u @ u) for u in state.u)
    assert abs(wf.energy(state, ops) - expected) <= 1e-14 * abs(expected)

    solve = spla.factorized(M_u.tocsc())
    for i, (B, s) in enumerate(ops.kick_operator()):
        ref = solve(ops.grad[i] @ state.h + ops.dirichlet_rhs[i])
        assert np.abs(B @ state.h + s - ref).max() <= 1e-12 * np.abs(ref).max()

    # M_u^{-1} is cell-local: changing one cell's entries of the
    # right-hand side changes exactly that cell's entries of s_i
    x = rng.standard_normal(dofs.m_u)
    x2 = x.copy()
    x2[dofs.u_cell_dofs[3]] += 1.0
    y, y2 = (replace(ops, dirichlet_rhs=(r,) * mesh.dim, _kick=None).kick_operator()[0][1]
             for r in (x, x2))
    changed = np.nonzero(np.abs(y2 - y) > 1e-14 * np.abs(y).max())[0]
    assert changed.tolist() == sorted(dofs.u_cell_dofs[3].tolist())


def test_semidiscrete_rhs_zero_state(square_36):
    # with zero boundary data both right-hand sides vanish at the zero state
    dofs, ops = assemble_all(square_36)
    du = [B @ np.zeros(dofs.m_h) + s for B, s in ops.kick_operator()]
    dh = ops.divergence([np.zeros(dofs.m_u)] * 2)
    assert all(np.abs(v).max() == 0.0 for v in du)
    assert np.abs(dh).max() == 0.0


def test_constant_scalar_exerts_no_force(square_150):
    dofs, ops = assemble_all(square_150, "neumann")
    # B_i = u_mass^{-1} grad_i scales entries by 1/|K|, so the bound is
    # relative to the operator's largest entry
    for B, s in ops.kick_operator():
        assert np.abs(B @ (3.7 * np.ones(dofs.m_h)) + s).max() <= 1e-13 * abs(B).max()


def test_periodic_stencil_rows():
    # assembled rows on a uniform periodic grid must reproduce the
    # hand-derived stencil: midpoint mass row dx/30*(2, 16, 2) and
    # divergence row (4, -4)/6
    n, length = 8, 8.0  # dx = 1
    mesh = wf.generate_interval_mesh(n, length, periodic=True)
    dofs = wf.build_dof_maps(mesh)
    ops = assemble(mesh, dofs, wf.BcSpec())
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
    a = assemble(square_36, dofs, bc)
    b = assemble(square_36, dofs, bc)
    assert np.array_equal(a.h_mass.data, b.h_mass.data)
    assert np.array_equal(a.grad[0].data, b.grad[0].data)
    assert np.array_equal(a.cell_dets[:, None, None] * a.u_mass_ref,
                          b.cell_dets[:, None, None] * b.u_mass_ref)


def test_unknown_marker_rejected(square_150):
    dofs = wf.build_dof_maps(square_150)
    with pytest.raises(ValueError, match="not on mesh boundary"):
        assemble(square_150, dofs, wf.BcSpec(dirichlet_markers={9},
                                             neumann_markers={1}))
    with pytest.raises(ValueError, match="not\\s+assigned"):
        assemble(square_150, dofs, wf.BcSpec())


def test_neumann_data_vector():
    # f == 1 on the whole boundary integrates the P2 trace: the entries
    # must sum to the boundary length
    mesh = wf.generate_square_mesh(2)
    dofs = wf.build_dof_maps(mesh)
    ops = assemble(mesh, dofs, wf.BcSpec.all_neumann(mesh, f=lambda x: 1.0))
    assert abs(ops.neumann_rhs.sum() - 4.0) <= 1e-13
    # with no Dirichlet facets the Dirichlet vectors are float zeros
    for vec in ops.dirichlet_rhs:
        assert vec.dtype == np.float64 and vec.shape == (dofs.m_u,) and not vec.any()

