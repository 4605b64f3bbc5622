import os
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import wavefem as wf
from wavefem import dynamics, spectral
from wavefem.dynamics import (ConfigurationError, FieldState,
                              SimulationConfig, energy, interpolate_state,
                              simulate, stable_dt_estimate, verlet_step)
from wavefem.elements import h_dof_coords
from wavefem.spectral import (NULL_TOLERANCE, LambdaMax, cell_lambda_bound, laplacian_pencil,
                              max_eigenvalue)

from conftest import assemble_all, gaussian_bump, generate


def random_state(dofs, dim, seed=0):
    rng = np.random.default_rng(seed)
    return FieldState(u=[rng.standard_normal(dofs.m_u) for _ in range(dim)],
                      h=rng.standard_normal(dofs.m_h))


def test_field_state_velocity_layout():
    # the velocity is one (d, m_u) float array; d equal rows stack to it,
    # and ragged ones are rejected
    rows = [[0, 1, 2, 3], [1, 1, 1, 1]]
    listed = FieldState(u=rows, h=np.zeros(3))
    stacked = FieldState(u=np.array(rows, dtype=float), h=np.zeros(3))
    assert listed.u.shape == (2, 4) and listed.u.dtype == np.float64
    assert np.array_equal(listed.u, stacked.u) and np.array_equal(listed.h, stacked.h)
    with pytest.raises(ValueError):
        FieldState(u=[np.zeros(4), np.zeros(3)], h=np.zeros(3))


def test_zero_state_stays_zero(square_36):
    dofs, ops = assemble_all(square_36, "neumann")
    state = FieldState(u=[np.zeros(dofs.m_u)] * 2, h=np.zeros(dofs.m_h))
    for _ in range(5):
        state = verlet_step(state, ops, 1e-3)
    assert np.abs(state.h).max() == 0.0
    assert all(np.abs(u).max() == 0.0 for u in state.u)


@pytest.mark.parametrize("bc_kind", ["neumann", "dirichlet"])
def test_reversibility(square_36, bc_kind):
    dofs, ops = assemble_all(square_36, bc_kind)
    state = random_state(dofs, 2, seed=1)
    fwd = verlet_step(state, ops, 1e-3)
    back = verlet_step(fwd, ops, -1e-3)
    scale = max(np.abs(state.h).max(),
                max(np.abs(u).max() for u in state.u))
    assert np.abs(back.h - state.h).max() <= 1e-11 * scale
    for i in range(2):
        assert np.abs(back.u[i] - state.u[i]).max() <= 1e-11 * scale


def stepped_state(dofs, ops, seed=2):
    return verlet_step(random_state(dofs, 2, seed=seed), ops, 1e-3)


def fresh(state):
    """The state's fields in new writable arrays, with no carried kick."""
    return FieldState(u=state.u.copy(), h=state.h.copy(), time=state.time)


def test_carried_kick_only_for_its_ops_and_scalar(square_36):
    # a stepped state is read-only and carries the kick of its scalar; a
    # step on another ops or from a changed scalar kicks anew, and so
    # matches the step from the same fields without a carried kick
    dofs, ops = assemble_all(square_36, "dirichlet")
    other = replace(ops, bc=replace(ops.bc, g=lambda x: 1.0))
    state = stepped_state(dofs, ops)
    with pytest.raises(ValueError):
        state.h[0] = 1.0
    with pytest.raises(ValueError):
        state.u[0, 0] = 1.0

    def reassigned(state):
        state.h = state.h + 0.1
        return state

    def written(state):
        state.h.setflags(write=True)
        state.h[:5] += 0.1
        return state

    for target, change in [(ops, lambda s: s), (other, lambda s: s),
                           (ops, reassigned), (ops, written)]:
        state = change(stepped_state(dofs, ops))
        got, expect = verlet_step(state, target, 1e-3), verlet_step(fresh(state), target, 1e-3)
        assert np.array_equal(got.h, expect.h) and np.array_equal(got.u, expect.u)


def test_simulate_interpolates_on_the_operators_mesh():
    # operators assembled on a squashed square:8 carry that mesh, so a run
    # on them starts from the interpolation there, not on the unit square
    square = wf.generate_square_mesh(8)
    squashed = wf.Mesh(2, square.vertices * [1.0, 0.5], square.cells,
                       square.boundary_facets, square.boundary_markers)
    dofs = wf.build_dof_maps(squashed)
    ops = wf.assemble(dofs, wf.BcSpec.all_neumann(squashed))
    h0, seen = gaussian_bump([0.5, 0.5]), {}
    config = SimulationConfig(dt=1e-3, t_end=1e-3, snapshot_stride=1, ic_h=h0)
    result = simulate(ops, config, lambda step, state: seen.setdefault(step, state))
    start, unit = (interpolate_state(wf.build_dof_maps(mesh), h0) for mesh in (squashed, square))
    assert np.array_equal(seen[0].h, start.h)
    assert result.energies[0] == energy(start, ops) != energy(unit, ops)


def test_simulate_kicks_once_per_step(square_36, monkeypatch):
    # the second half-kick of a step serves the first of the next, so a run
    # of N steps computes N + 1 kicks
    _, ops = assemble_all(square_36, "dirichlet")
    kick, calls = type(ops).kick, []

    def counted(self, h):
        calls.append(h)
        return kick(self, h)

    monkeypatch.setattr(type(ops), "kick", counted)
    config = SimulationConfig(dt=1e-3, t_end=0.017, ic_h=gaussian_bump([0.5, 0.5]))
    simulate(ops, config)
    assert len(calls) == config.n_steps + 1 == 18


def two_kick_reference(ops, config):
    """Final (u, h) of Verlet with two kicks per step, each a solve with the
    global block-diagonal velocity mass, and the scalar mass solved by
    SciPy's default sparse factor."""
    u_solve = spla.factorized(sp.block_diag(
        list(ops.cell_dets[:, None, None] * ops.u_mass_ref), format="csc"))
    h_solve = spla.factorized(ops.free_block(ops.h_mass).tocsc())

    def kick(h):
        return np.array([u_solve(g @ h + r) for g, r in zip(ops.grad, ops.dirichlet_rhs)])

    state = interpolate_state(ops.dofs, config.ic_h)
    u, h = state.u, state.h
    h[ops.h_fixed] = ops.h_fixed_values
    half = 0.5 * config.dt * config.c
    for _ in range(config.n_steps):
        u = u - half * kick(h)
        div = sum(g.T @ u_i for g, u_i in zip(ops.grad, u)) - ops.neumann_rhs
        h = h.copy()
        h[ops.h_free] += config.dt * config.c * h_solve(div[ops.h_free])
        u = u - half * kick(h)
    return u, h


@pytest.mark.parametrize("bc_kind", ["dirichlet", "neumann"])
@pytest.mark.parametrize("name", ["square_36", "cube_44", "cube:4", "interval:8"])
def test_simulate_matches_two_kick_reference(request, name, bc_kind):
    # nonzero boundary data on both kinds: g enters the kick, f the drift
    if name == "cube:4":
        mesh = wf.generate_cube_mesh(4)
    elif name == "interval:8":
        mesh = wf.generate_interval_mesh(8, 1.0)
    else:
        mesh = request.getfixturevalue(name)
    data = lambda x: 0.5 + x[..., 0] - 0.3 * x[..., -1] ** 2  # noqa: E731
    bc = (wf.BcSpec.all_dirichlet(mesh, g=data) if bc_kind == "dirichlet"
          else wf.BcSpec.all_neumann(mesh, f=data))
    ops = wf.assemble(wf.build_dof_maps(mesh), bc)
    dt = 0.5 * 2.0 / np.sqrt(cell_lambda_bound(ops))
    config = SimulationConfig(dt=dt, t_end=20 * dt, c=1.3,
                              ic_h=gaussian_bump([0.4] * mesh.dim, width=0.2))
    final = simulate(ops, config).final_state
    u, h = two_kick_reference(ops, config)
    assert np.abs(final.h - h).max() <= 1e-13 * np.abs(h).max()
    assert np.abs(final.u - u).max() <= 1e-13 * np.abs(u).max()


def modified_energy_residual(ops, steps=400, fraction=0.9):
    """max_n |Q_n - Q_0 - W_n| / max(|Q_0|, max_n |W_n|) over ``steps``
    Verlet steps (c = 1, dt at ``fraction`` of the certified limit) from
    random data, the fixed scalar DOFs at their values, for Verlet's
    modified energy Q(u, h) = (h^T M h + |u|^2 - (dt^2 / 4) |k(h)|^2) / 2,
    k(h) = M_u^{-1} (G h + r_D), and the work W_n of the boundary data summed
    over the first n steps. Each step does
    W = -dt (r_N^T hbar + <r_D, a> + div(a)_F . h_F) + (M dh)_F . h_F,
    with a = u_{n+1} + (dt / 2) k(h_{n+1}), hbar the mean of the two scalars,
    div(a) = G^T a - r_N and F the fixed scalar DOFs. The norms are those of
    the velocity mass M_u, built here from dense cell blocks, G stacks the
    assembled gradients, r_D and r_N are ``dirichlet_rhs`` and ``neumann_rhs``.
    Verlet keeps Q - W constant exactly; with zero data W = 0."""
    d, (C, n1), fixed = ops.dim, ops.dofs.u_cell_dofs.shape, ops.h_fixed
    dt = fraction * 2.0 / np.sqrt(cell_lambda_bound(ops))
    M, M_u = ops.h_mass.toarray(), ops.cell_dets[:, None, None] * ops.u_mass_ref
    M_u_inv = np.linalg.inv(M_u)

    def norm2(v):
        v = np.reshape(v, (d, C, n1))
        return np.einsum("ica,cab,icb->", v, M_u, v)

    def kick(h):
        rhs = np.stack([g @ h for g in ops.grad]) + ops.dirichlet_rhs
        return np.einsum("cab,icb->ica", M_u_inv, rhs.reshape(d, C, n1)).reshape(d, -1)

    def Q(state):
        return 0.5 * (state.h @ M @ state.h + norm2(state.u) - dt ** 2 / 4 * norm2(kick(state.h)))

    def work(old, new):
        a = new.u + dt / 2 * kick(new.h)
        div = sum(g.T @ a_i for g, a_i in zip(ops.grad, a)) - ops.neumann_rhs
        h_F = new.h[fixed]
        return (-dt * (ops.neumann_rhs @ (old.h + new.h) / 2 + np.sum(ops.dirichlet_rhs * a)
                       + div[fixed] @ h_F) + (M @ (new.h - old.h))[fixed] @ h_F)

    state = random_state(ops.dofs, d, seed=3)
    state.h[fixed] = ops.h_fixed_values
    q, w = [Q(state)], [0.0]
    for _ in range(steps):
        new = verlet_step(state, ops, dt)
        q.append(Q(new))
        w.append(w[-1] + work(state, new))
        state = new
    q, w = np.array(q), np.array(w)
    return np.abs(q - q[0] - w).max() / max(abs(q[0]), np.abs(w).max())


@pytest.mark.parametrize("bc_kind", ["neumann", "dirichlet"])
@pytest.mark.parametrize("name", ["square_36", "square:16", "cube:4", "cube_200", "interval:12"])
def test_verlet_conserves_its_modified_energy(request, name, bc_kind):
    # the time-stepping oracle to rounding: with zero data the cell-by-cell
    # kick and divergence must keep Verlet's modified energy within 1e-13,
    # where the physical energy only stays within O(dt^2)
    mesh = request.getfixturevalue(name) if "_" in name else generate(name)
    _, ops = assemble_all(mesh, bc_kind)
    assert modified_energy_residual(ops) <= 1e-13


@pytest.mark.parametrize("bc_kind", ["neumann", "dirichlet"])
@pytest.mark.parametrize("name", ["square_36", "square:16", "cube:4", "cube_200", "interval:12"])
def test_verlet_balances_its_modified_energy_with_the_data_work(request, name, bc_kind):
    # the same oracle under nonzero data, g or f = sin 3x + x_d (g = 1 + x
    # in 1D, on the fixed vertices): the change of the modified energy is
    # the work of the data to rounding, which tests the weak Dirichlet facet
    # terms of the kick and the divergence where zero data cannot
    mesh = request.getfixturevalue(name) if "_" in name else generate(name)
    data = lambda x: np.sin(3 * x[..., 0]) + x[..., -1]  # noqa: E731
    bc = (wf.BcSpec.all_neumann(mesh, f=data) if bc_kind == "neumann"
          else wf.BcSpec.all_dirichlet(mesh, g=lambda x: 1.0 + x[..., 0]) if mesh.dim == 1
          else wf.BcSpec.all_dirichlet(mesh, g=data))
    ops = wf.assemble(wf.build_dof_maps(mesh), bc)
    assert modified_energy_residual(ops) <= 1e-13


def test_modified_energy_sees_a_divergence_that_is_no_transpose(monkeypatch):
    # a divergence without the Dirichlet facet blocks is not the transpose of
    # the kick's gradient, so the step conserves no such energy
    mesh = wf.generate_square_mesh(16)
    _, ops = assemble_all(mesh, "dirichlet")
    neumann = replace(ops, bc=wf.BcSpec.all_neumann(mesh))
    monkeypatch.setattr(ops, "divergence", neumann.divergence)
    assert modified_energy_residual(ops) > 1e-10


@pytest.mark.parametrize("name", ["square_36", "cube:4"])
def test_simulate_builds_no_gradient_matrix(request, name):
    mesh = request.getfixturevalue(name) if "_" in name else generate(name)
    _, ops = assemble_all(mesh, "dirichlet")
    simulate(ops, SimulationConfig(dt=1e-3, t_end=5e-3, ic_h=gaussian_bump([0.5] * mesh.dim)))
    assert "grad" not in vars(ops) and "_grad_T" not in vars(ops)


def test_energy_basics(square_36):
    dofs, ops = assemble_all(square_36)
    zero = FieldState(u=[np.zeros(dofs.m_u)] * 2, h=np.zeros(dofs.m_h))
    assert energy(zero, ops) == 0.0
    state = random_state(dofs, 2, seed=2)
    doubled = FieldState(u=[2.0 * u for u in state.u], h=2.0 * state.h)
    assert abs(energy(doubled, ops) - 4.0 * energy(state, ops)) \
        <= 1e-12 * energy(doubled, ops)


def test_plane_wave_frequency_matches_leapfrog_relation():
    # oracle: one-mode recursion of the stepped series; prediction:
    # Omega = 2 asin(w_semi dt / 2) / dt from the semi-discrete frequency
    mesh = wf.generate_interval_mesh(8, 1.0, periodic=True)
    dofs = wf.build_dof_maps(mesh)
    ops = wf.assemble(dofs, wf.BcSpec())
    A, M = laplacian_pencil(ops)
    lam, vecs = scipy.linalg.eigh(A.toarray(), M.toarray())
    k = 3  # an interior nonzero mode
    omega = np.sqrt(lam[k])
    v = vecs[:, k]
    dt = 0.2 / omega
    state = FieldState(u=[np.zeros(dofs.m_u)], h=v.copy())
    series = [state.h @ (M @ v)]
    for _ in range(3):
        state = verlet_step(state, ops, dt)
        series.append(state.h @ (M @ v))
    measured_cos = (series[2] + series[0]) / (2.0 * series[1])
    predicted = 2.0 * np.arcsin(omega * dt / 2.0) / dt
    assert abs(np.arccos(measured_cos) / dt - predicted) <= 1e-9 * predicted


def chebyshev_coefficient(n, lam, dt):
    """T_n(1 - dt^2 lam / 2) for lam > 0 in closed form from
    s = dt sqrt(lam) / 2: 1 - 2 s^2 is cos(2 asin s) for s <= 1 and
    -cosh(2 acosh s) past it. No 1 - dt^2 lam / 2 is formed, so a low
    mode keeps its digits."""
    s = 0.5 * dt * np.sqrt(lam)
    if s <= 1.0:
        return np.cos(2 * n * np.arcsin(s))
    return (-1) ** n * np.cosh(2 * n * np.arccosh(s))


MODAL_MESHES = {
    "square:8": lambda: wf.generate_square_mesh(8),
    "square:16": lambda: wf.generate_square_mesh(16),
    "cube:4": lambda: wf.generate_cube_mesh(4),
    "interval:12": lambda: wf.generate_interval_mesh(12, 1.0),
    "periodic:12": lambda: wf.generate_interval_mesh(12, 1.0, periodic=True),
}


@pytest.mark.parametrize("name,bc_kind,fraction,n_steps,modes", [
    ("square:16", "dirichlet", 0.95, 400, "lmt"),
    ("cube:4", "neumann", 0.95, 400, "lmt"),
    ("square_150", "dirichlet", 0.95, 400, "lmt"),
    ("interval:12", "dirichlet", 0.95, 400, "lmt"),
    ("periodic:12", "neumann", 0.95, 400, "lmt"),
    ("cube_200", "dirichlet", 0.999, 60, "lmt"),
    ("square:8", "neumann", 1.01, 60, "t"),
    ("cube_200", "dirichlet", 1.01, 60, "t"),
])
def test_verlet_modal_recursion(request, name, bc_kind, fraction, n_steps, modes):
    # oracle: from u = 0 and h = v with A v = lam M v, Verlet is the
    # two-term recursion h_n = T_n(1 - dt^2 lam / 2) v, exact but for
    # rounding on any mesh; past the limit the top mode grows as cosh
    mesh = MODAL_MESHES[name]() if name in MODAL_MESHES else request.getfixturevalue(name)
    dofs, ops = assemble_all(mesh, bc_kind)
    A, M = laplacian_pencil(ops)
    lam, vecs = scipy.linalg.eigh(A.toarray(), M.toarray())
    dt = fraction * 2.0 / np.sqrt(lam[-1])
    # the lowest mode past the null space: a null eigenvalue is rounding
    # noise of order 1e-16 lam_max, which T_n amplifies by n^2 dt^2
    lowest = np.searchsorted(lam, NULL_TOLERANCE * lam[-1])
    index = {"l": lowest, "m": len(lam) // 2, "t": len(lam) - 1}
    for k in (index[m] for m in modes):
        v = vecs[:, k]
        h = np.zeros(dofs.m_h)
        h[ops.h_free] = v
        state = FieldState(u=np.zeros((mesh.dim, dofs.m_u)), h=h)
        for _ in range(n_steps):
            state = verlet_step(state, ops, dt)
        expected = chebyshev_coefficient(n_steps, lam[k], dt)
        measured = v @ (M @ state.h[ops.h_free])
        assert abs(measured - expected) <= 1e-10 * max(1.0, abs(expected)), (k, measured, expected)
    if fraction > 1.0:
        assert abs(expected) > 1e7


def test_stable_dt_single_element():
    mesh = wf.generate_interval_mesh(1, 1.0)
    dofs, ops = assemble_all(mesh, "dirichlet")
    est = stable_dt_estimate(ops)
    assert abs(est - 2.0 / np.sqrt(max_eigenvalue(ops).value)) <= 1e-15


def test_stable_dt_decreases_under_refinement():
    vals = []
    for n in (2, 4, 8):
        mesh = wf.generate_square_mesh(n)
        _, ops = assemble_all(mesh, "neumann")
        vals.append(stable_dt_estimate(ops))
    assert vals[0] > vals[1] > vals[2]


def test_wave_speed_scales_stable_dt(square_36):
    _, ops = assemble_all(square_36)
    assert abs(stable_dt_estimate(ops, c=2.0)
               - 0.5 * stable_dt_estimate(ops)) <= 1e-15


def test_stability_boundary(square_36):
    dofs, ops = assemble_all(square_36, "neumann")
    est = stable_dt_estimate(ops)
    state0 = interpolate_state(dofs, gaussian_bump([0.5, 0.5]))
    e0 = energy(state0, ops)

    def max_energy(dt, n):
        state = state0
        peak = e0
        for _ in range(n):
            state = verlet_step(state, ops, dt)
            e = energy(state, ops)
            if not np.isfinite(e):
                return np.inf
            peak = max(peak, e)
            if peak > 50.0 * e0:
                return peak
        return peak

    assert max_energy(0.95 * est, 5000) <= 1.5 * e0
    assert max_energy(1.05 * est, 1000) > 10.0 * e0


def test_energy_error_amplitude_second_order(square_36):
    dofs, ops = assemble_all(square_36, "neumann")
    est = stable_dt_estimate(ops)

    def amplitude(dt):
        state = interpolate_state(dofs, gaussian_bump([0.4, 0.6]))
        e0 = energy(state, ops)
        peak = 0.0
        for _ in range(400):
            state = verlet_step(state, ops, dt)
            peak = max(peak, abs(energy(state, ops) - e0))
        return peak / e0

    a1 = amplitude(0.2 * est)
    a2 = amplitude(0.1 * est)
    assert 3.0 <= a1 / a2 <= 5.3  # ~4 for a second-order method


def test_interval_dirichlet_run_fixed_dofs():
    # 1D Dirichlet vertices are fixed scalar DOFs: a run starts them at g,
    # not at h0 sampled there, and keeps them at g
    mesh = wf.generate_interval_mesh(64, 1.0)
    dofs = wf.build_dof_maps(mesh)
    bc = wf.BcSpec.all_dirichlet(mesh, g=lambda x: 1.0 + x[..., 0])
    ops = wf.assemble(dofs, bc)
    config = SimulationConfig(dt=1e-3, t_end=0.05, ic_h=gaussian_bump([0.3]))
    h = simulate(ops, config).final_state.h
    assert sorted(h[ops.h_fixed]) == [1.0, 2.0]

    # with g = 0 the energy error is second order in dt; h0 is not zero at
    # x = 0, so leaving it on the fixed DOF would stall the error near 3e-2
    bc = wf.BcSpec.all_dirichlet(mesh)
    ops = wf.assemble(dofs, bc)
    est = stable_dt_estimate(ops)

    def max_error(dt):
        config = SimulationConfig(dt=dt, t_end=0.5, ic_h=gaussian_bump([0.3]))
        return np.abs(simulate(ops, config).energy_errors).max()

    e1 = max_error(0.2 * est)
    e2 = max_error(0.1 * est)
    assert e1 <= 1e-4
    assert 3.0 <= e1 / e2 <= 5.3  # ~4 for a second-order method


def test_standing_wave_space_time_order():
    # Neumann standing wave cos(pi x) cos(pi y) from rest, dt = 0.04 / N to
    # t = 0.5: the nodal max error against cos(sqrt(2) pi t) times the mode
    # falls from 1.0e-4 at N = 16 to 1.1e-5 at N = 32 (rate 3.2)
    def mode(x):
        return np.cos(np.pi * x[..., 0]) * np.cos(np.pi * x[..., 1])

    def max_error(n):
        mesh = wf.generate_square_mesh(n)
        dofs, ops = assemble_all(mesh, "neumann")
        config = SimulationConfig(dt=0.04 / n, t_end=0.5, ic_h=mode)
        state = simulate(ops, config).final_state
        exact = np.cos(np.sqrt(2.0) * np.pi * state.time) * mode(h_dof_coords(dofs))
        return np.abs(state.h - exact).max()

    assert np.log2(max_error(16) / max_error(32)) >= 2.8


def standing_wave_error(kind, n, modes, dt):
    """Relative M-norm error at t = 0.5 of a Neumann standing wave
    prod_i cos(pi m_i x_i), from rest on ``kind``:n, against the nodal
    interpolant of the exact solution cos(pi |m| t) times the mode."""
    mesh = (wf.generate_cube_mesh if kind == "cube" else wf.generate_square_mesh)(n)
    dofs, ops = assemble_all(mesh, "neumann")
    k = np.pi * np.array(modes)

    def mode(x):
        return np.prod(np.cos(k * x), axis=-1)

    state = simulate(ops, SimulationConfig(dt=dt, t_end=0.5, ic_h=mode)).final_state
    exact = np.cos(np.linalg.norm(k) * state.time) * mode(h_dof_coords(dofs))
    error = state.h - exact
    return np.sqrt(error @ (ops.h_mass @ error) / (exact @ (ops.h_mass @ exact)))


@pytest.mark.parametrize("kind,sizes,modes,least", [
    ("square", [8, 16, 32], (1, 2), 3.5),  # 2.04e-3, 1.44e-4, 1.02e-5: rates 3.83, 3.81
    ("cube", [4, 8], (1, 1, 1), 3.3)])     # 1.24e-2, 1.04e-3: rate 3.58
def test_standing_wave_rate_in_space(kind, sizes, modes, least):
    # at dt = 0.4 h^2 Verlet's dt^2 error falls as h^4 too, so the error
    # against the interpolant falls at its spatial rate, about 4
    errors = [standing_wave_error(kind, n, modes, 0.4 / n ** 2) for n in sizes]
    assert all(np.log2(e / f) >= least for e, f in zip(errors, errors[1:]))


def test_standing_wave_rate_in_time():
    # at dt = 0.1 h Verlet's dt^2 error takes over: square:32 -> 64 gives
    # 3.23e-5 -> 7.10e-6, rate 2.19
    rate = np.log2(standing_wave_error("square", 32, (1, 2), 0.1 / 32)
                   / standing_wave_error("square", 64, (1, 2), 0.1 / 64))
    assert 1.8 <= rate <= 2.6


def test_interpolate_state_nodal(square_36):
    dofs = wf.build_dof_maps(square_36)
    state = interpolate_state(dofs, lambda x: x[..., 0] + 2.0 * x[..., 1])
    coords = h_dof_coords(dofs)
    assert np.allclose(state.h, coords[:, 0] + 2.0 * coords[:, 1])
    assert state.u.shape == (2, dofs.m_u) and not state.u.any()


def test_simulate_energy_rows(square_36):
    _, ops = assemble_all(square_36, "neumann")
    config = SimulationConfig(dt=1e-3, t_end=0.3, stride=100,
                              ic_h=gaussian_bump([0.5, 0.5]))
    result = simulate(ops, config)
    assert len(result.times) == 4  # steps 0, 100, 200, 300
    assert result.abort_step is None
    assert np.abs(result.energy_errors).max() <= 1e-3


def test_simulate_rejects_unstable_dt(square_36):
    _, ops = assemble_all(square_36, "neumann")
    config = SimulationConfig(dt=1.0, t_end=10.0, ic_h=gaussian_bump([0.5, 0.5]))
    with pytest.raises(ConfigurationError, match="stability"):
        simulate(ops, config)


def test_dt_check_paths(square_36, monkeypatch):
    # a dt below the cell-bound limit runs without an eigensolve, and so
    # does one between that and the exact limit, accepted by the pivot
    # signs of sigma M - A; one above the exact limit is rejected, with no
    # eigensolve either, naming the certified limit
    bc = wf.BcSpec.all_neumann(square_36)
    ops = wf.assemble(wf.build_dof_maps(square_36), bc)
    exact = stable_dt_estimate(ops)
    certified = 2.0 / np.sqrt(cell_lambda_bound(ops))
    assert certified < 0.6 * exact  # slivers: the bound is 3.6x lambda_max
    between = 0.5 * (certified + exact)

    def run(dt):
        config = SimulationConfig(dt=dt, t_end=2 * dt, ic_h=gaussian_bump([0.5, 0.5]))
        return simulate(ops, config)

    def no_eigensolve(ops, **kw):
        raise RuntimeError("eigensolve called")

    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "max_eigenvalue", no_eigensolve)
        check = run(0.9 * certified).dt_check
        assert check == {"path": "cell_bound", "cell_bound_limit": check["cell_bound_limit"]}
        assert 0.9 * certified < check["cell_bound_limit"] <= certified
        for dt in (between, (1.0 - 1e-6) * exact):
            check = run(dt).dt_check
            assert check == {"path": "inertia", "cell_bound_limit": check["cell_bound_limit"],
                             "sigma": 4.0 / dt ** 2, "nonpositive_pivots": 0,
                             "factor_nnz": ops.h_mass_solver().lu.nnz}
            assert check["cell_bound_limit"] < between
        with pytest.raises(ConfigurationError, match="the cell bound certifies dt <= "):
            run((1.0 + 1e-6) * exact)
    forced = simulate(ops, SimulationConfig(dt=0.9 * certified, t_end=1.8 * certified,
                                            ic_h=gaussian_bump([0.5, 0.5]),
                                            allow_unstable_dt=True))
    assert forced.dt_check == {"path": "forced", "cell_bound_limit": None}


def test_exact_dt_path_evaluates_cell_bound_once(square_36, monkeypatch):
    # a dt past the cell bound evaluates the per-cell eigenproblems once,
    # and the inertia test that accepts it solves no eigenproblem
    bc = wf.BcSpec.all_neumann(square_36)
    probe = wf.assemble(wf.build_dof_maps(square_36), bc)
    dt = 0.5 * (2.0 / np.sqrt(cell_lambda_bound(probe)) + stable_dt_estimate(probe))
    ops = wf.assemble(probe.dofs, bc)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    result = simulate(ops, SimulationConfig(dt=dt, t_end=dt, ic_h=gaussian_bump([0.5, 0.5])))
    assert result.dt_check["path"] == "inertia"
    assert calls == [(square_36.n_cells, 6, 6)]

    # a rejected dt takes the same single pass: one batch of per-cell
    # eigenproblems, one factorization of sigma M - A and no eigensolve
    def no_eigsh(*args, **kw):
        raise AssertionError("eigensolve called")

    factors, spectral_factor = [], spectral._factor
    monkeypatch.setattr(spectral, "_eigsh", no_eigsh)
    monkeypatch.setattr(spectral, "_factor", lambda *a: factors.append(1) or spectral_factor(*a))
    calls.clear()
    with pytest.raises(ConfigurationError, match="the cell bound certifies dt <= "):
        simulate(ops, SimulationConfig(dt=3.0 * dt, t_end=3.0 * dt))
    assert calls == [(square_36.n_cells, 6, 6)] and factors == [1]


REJECTION = re.compile(r"sigma = 4/\(c dt\)\^2 = (\S+) is (\d+), and the cell bound "
                       r"certifies dt <= (\S+) \(wavefem spectrum reports lambda_max\); "
                       r"reduce dt or force the run$")


@pytest.mark.parametrize("name,kind", [("square_36", "neumann"), ("square_36", "dirichlet"),
                                       ("square:8", "dirichlet"), ("interval:12", "dirichlet")])
def test_rejection_counts_eigenvalues_by_inertia(name, kind, request):
    # a rejected dt's error gives sigma, the count of eigenvalues at or
    # above it, which by Sylvester's law is the dense one, and the limit the
    # cell bound certifies. interval:12 fixes its Dirichlet ends: the pencil
    # is the free block.
    mesh = request.getfixturevalue(name) if "_" in name else generate(name)
    _, ops = assemble_all(mesh, kind)
    A, M = laplacian_pencil(ops)
    eigenvalues = scipy.linalg.eigh(A.toarray(), M.toarray(), eigvals_only=True)
    bound = cell_lambda_bound(ops) * (1.0 + dynamics.BOUND_MARGIN)
    for c in (1.0, 2.0):
        limit = 2.0 / (c * np.sqrt(eigenvalues[-1]))
        for factor in (1.5, 3.0):
            dt = factor * limit
            with pytest.raises(ConfigurationError, match=REJECTION) as err:
                simulate(ops, SimulationConfig(dt=dt, t_end=dt, c=c))
            sigma, count, certified = REJECTION.search(str(err.value)).groups()
            assert sigma == f"{4.0 / (c * dt) ** 2:.6g}"
            assert int(count) == np.count_nonzero(eigenvalues >= 4.0 / (c * dt) ** 2) > 0
            assert certified == f"{2.0 / (c * np.sqrt(bound)):.6g}"


@pytest.mark.parametrize("lam", [np.nan, np.inf, 0.0, -1.0])
def test_exact_limit_must_be_finite_and_positive(square_36, monkeypatch, lam):
    # a lambda_max that gives no limit is a numerical failure
    _, ops = assemble_all(square_36, "dirichlet")
    monkeypatch.setattr(dynamics, "max_eigenvalue", lambda ops: LambdaMax(lam, 0.0, 0))
    with pytest.raises(RuntimeError, match="gives no stability limit"):
        stable_dt_estimate(ops)


@pytest.mark.parametrize("periodic", [False, True])
def test_cell_bound_limit_at_most_exact_1d(periodic):
    # with Neumann ends the cell bound equals lambda_max up to rounding;
    # its margin keeps the certified limit at or below the exact one. At
    # dt = exact itself sigma sits on lambda_max to rounding, where the
    # inertia test may reject it
    mesh = wf.generate_interval_mesh(16, 1.0, periodic=periodic)
    bc = wf.BcSpec.all_neumann(mesh)
    ops = wf.assemble(wf.build_dof_maps(mesh), bc)
    exact = stable_dt_estimate(ops)
    dt = (1.0 - 1e-6) * exact
    result = simulate(ops, SimulationConfig(dt=dt, t_end=dt, ic_h=gaussian_bump([0.5])))
    limit = result.dt_check["cell_bound_limit"]
    assert (1.0 - 1e-9) * exact <= limit <= exact


def test_simulate_abort_keeps_partial_series(square_36):
    _, ops = assemble_all(square_36, "neumann")
    config = SimulationConfig(dt=0.5, t_end=1000.0, stride=1,
                              ic_h=gaussian_bump([0.5, 0.5]),
                              allow_unstable_dt=True)
    result = simulate(ops, config)
    assert result.abort_step is not None
    assert len(result.times) >= 1
    assert np.all(np.isfinite(result.energies))
    # the final state is the last finite one, from the step before the abort
    final = result.final_state
    assert np.isclose(final.time, (result.abort_step - 1) * config.dt)
    assert all(np.isfinite(v).all() for v in [final.h, *final.u])


def test_simulate_blowup_between_energy_samples():
    # square:4 with Neumann data at dt 0.5 blows up, and the stride-1 run
    # aborts at the first non-finite energy; every stride aborts there with
    # the same final state, and records the stride-1 rows at its multiples
    # and at the last finite step (at the parent, strides 7 and 1000 aborted
    # at steps 63 and 100)
    mesh = wf.generate_square_mesh(4)
    _, ops = assemble_all(mesh, "neumann")

    def run(stride):
        config = SimulationConfig(dt=0.5, t_end=50.0, stride=stride,
                                  ic_h=gaussian_bump([0.5, 0.5]), allow_unstable_dt=True)
        return simulate(ops, config)

    every = run(1)
    abort = every.abort_step
    assert abort is not None and abort < 100
    assert np.isclose(every.final_state.time, (abort - 1) * 0.5)
    assert len(every.times) == abort and np.isfinite(every.energies).all()
    for stride in (1, 7, 1000):
        result = run(stride)
        assert result.abort_step == abort, stride
        for a, b in [(result.final_state.h, every.final_state.h),
                     (result.final_state.u, every.final_state.u),
                     (result.final_state.time, every.final_state.time)]:
            assert np.array_equal(a, b), stride
        # rows at step 0 and the multiples of the stride; the last step,
        # 100, is never reached
        rows = np.arange(0, abort, stride)
        assert np.array_equal(result.times, every.times[rows]), stride
        assert np.array_equal(result.energies, every.energies[rows]), stride


def test_snapshot_callback(square_36):
    _, ops = assemble_all(square_36, "neumann")
    seen = []
    config = SimulationConfig(dt=1e-3, t_end=0.01, stride=5, snapshot_stride=5,
                              ic_h=gaussian_bump([0.5, 0.5]))
    simulate(ops, config, snapshot_callback=lambda step, state: seen.append(step))
    assert seen == [0, 5, 10]
    # without a snapshot stride the callback never runs, step 0 included
    seen.clear()
    simulate(ops, SimulationConfig(dt=1e-3, t_end=0.01, ic_h=gaussian_bump([0.5, 0.5])),
             snapshot_callback=lambda step, state: seen.append(step))
    assert seen == []
    # a stride below 1 would snapshot never (0) or on multiples of |stride|
    for stride in (0, -5):
        with pytest.raises(ConfigurationError, match="snapshot_stride must be >= 1"):
            SimulationConfig(dt=1e-3, t_end=0.01, snapshot_stride=stride)


@pytest.mark.parametrize("field,value", [
    ("dt", 0.0), ("dt", -1e-3), ("dt", np.nan), ("dt", np.inf),
    ("t_end", 0.0), ("t_end", -1.0), ("t_end", np.nan), ("t_end", np.inf),
    ("c", 0.0), ("c", -1.0), ("c", np.nan), ("c", np.inf)])
def test_config_rejects_bad_numbers(field, value):
    kw = {"dt": 1e-3, "t_end": 1e-3, field: value}
    with pytest.raises(ConfigurationError, match=f"{field} must be finite and positive, got"):
        SimulationConfig(**kw)


def test_config_rejects_step_count_overflow():
    with pytest.raises(ConfigurationError, match="t_end / dt overflows"):
        SimulationConfig(dt=1e-300, t_end=1e300)


def test_simulate_rejects_non_finite_initial_data(square_36):
    # a NaN initial field is bad input, not a blow-up at step 1
    _, ops = assemble_all(square_36, "neumann")
    config = SimulationConfig(dt=1e-3, t_end=1e-2, ic_h=lambda x: np.full(len(x), np.nan))
    with pytest.raises(ConfigurationError, match="initial energy is nan"):
        simulate(ops, config)


@pytest.mark.parametrize("kind", ["neumann", "dirichlet"])
def test_simulate_rejects_zero_data(square_36, kind):
    # zero initial and boundary data have the zero solution: bad input, not
    # a run. A nonzero boundary datum alone makes a run from zero.
    config = SimulationConfig(dt=1e-3, t_end=1e-2, ic_h=lambda x: np.zeros(len(x)))
    _, ops = assemble_all(square_36, kind)
    with pytest.raises(ConfigurationError, match="^initial energy and boundary data are "
                                                 "zero: the solution is zero$"):
        simulate(ops, config)
    one = lambda x: 1.0  # noqa: E731
    bc = (wf.BcSpec.all_neumann(square_36, f=one) if kind == "neumann"
          else wf.BcSpec.all_dirichlet(square_36, g=one))
    result = simulate(wf.assemble(ops.dofs, bc), config)
    assert result.energies[0] == 0.0 < result.energies[-1]


def test_readme_library_example_runs():
    # the "As a library" block of README.md runs as written, so the
    # signatures it documents are the library's
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme) as fh:
        section = fh.read().split("## As a library\n", 1)[1]
    lines = section.lstrip("\n").split("\n\n", 1)[0].splitlines()
    assert lines and all(line.startswith("    ") for line in lines)
    scope = {}
    exec("\n".join(line[4:] for line in lines), scope)
    assert scope["run"].abort_step is None and scope["spectrum"].null_count == 4
    assert scope["ops"].mesh is scope["mesh"]
