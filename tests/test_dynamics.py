import numpy as np
import pytest
import scipy.linalg

import wavefem as wf
from wavefem import dynamics
from wavefem.dynamics import (ConfigurationError, FieldState,
                              SimulationConfig, energy, interpolate_state,
                              simulate, stable_dt_estimate, verlet_step)
from wavefem.spectral import cell_lambda_bound, laplacian_pencil, max_eigenvalue

from conftest import assemble_all, gaussian_bump


def random_state(dofs, dim, seed=0):
    rng = np.random.default_rng(seed)
    return FieldState(u=[rng.standard_normal(dofs.m_u) for _ in range(dim)],
                      h=rng.standard_normal(dofs.m_h))


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
    ops = wf.assemble(mesh, dofs, wf.BcSpec())
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


def test_stable_dt_single_element():
    mesh = wf.generate_interval_mesh(1, 1.0)
    dofs, ops = assemble_all(mesh, "dirichlet")
    est = stable_dt_estimate(ops)
    assert abs(est - 2.0 / np.sqrt(max_eigenvalue(ops))) <= 1e-15


def test_stable_dt_decreases_under_refinement():
    vals = []
    for n in (2, 4, 8):
        mesh = wf.generate_square_mesh(n)
        _, ops = assemble_all(mesh, "neumann")
        vals.append(stable_dt_estimate(ops))
    assert vals[0] > vals[1] > vals[2]


def test_wave_speed_scales_stable_dt(square_36):
    _, ops = assemble_all(square_36)
    assert abs(stable_dt_estimate(ops, wave_speed=2.0)
               - 0.5 * stable_dt_estimate(ops)) <= 1e-15


def test_stability_boundary(square_36):
    dofs, ops = assemble_all(square_36, "neumann")
    est = stable_dt_estimate(ops)
    state0 = interpolate_state(square_36, dofs, gaussian_bump([0.5, 0.5]))
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
        state = interpolate_state(square_36, dofs, gaussian_bump([0.4, 0.6]))
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
    ops = wf.assemble(mesh, dofs, bc)
    config = SimulationConfig(dt=1e-3, n_steps=50, ic_h=gaussian_bump([0.3]))
    h = simulate(mesh, bc, config, ops=ops).final_state.h
    assert sorted(h[ops.h_fixed]) == [1.0, 2.0]

    # with g = 0 the energy error is second order in dt; h0 is not zero at
    # x = 0, so leaving it on the fixed DOF would stall the error near 3e-2
    bc = wf.BcSpec.all_dirichlet(mesh)
    ops = wf.assemble(mesh, dofs, bc)
    est = stable_dt_estimate(ops)

    def max_error(dt):
        config = SimulationConfig(dt=dt, n_steps=int(round(0.5 / dt)),
                                  ic_h=gaussian_bump([0.3]))
        return np.abs(simulate(mesh, bc, config, ops=ops).energy_errors).max()

    e1 = max_error(0.2 * est)
    e2 = max_error(0.1 * est)
    assert e1 <= 1e-4
    assert 3.0 <= e1 / e2 <= 5.3  # ~4 for a second-order method


def test_interpolate_state_nodal(square_36):
    dofs = wf.build_dof_maps(square_36)
    state = interpolate_state(square_36, dofs, lambda x: x[..., 0] + 2.0 * x[..., 1],
                              u0=lambda x: np.stack([x[..., 1], -x[..., 0]], axis=-1))
    from wavefem.elements import h_dof_coords

    coords = h_dof_coords(square_36, dofs)
    assert np.allclose(state.h, coords[:, 0] + 2.0 * coords[:, 1])
    c = 5
    for j in range(3):
        x = square_36.cell_coords[c, j]
        assert state.u[0][dofs.u_cell_dofs[c, j]] == pytest.approx(x[1])
        assert state.u[1][dofs.u_cell_dofs[c, j]] == pytest.approx(-x[0])


def test_simulate_energy_rows(square_36):
    bc = wf.BcSpec.all_neumann(square_36)
    config = SimulationConfig(dt=1e-3, n_steps=300, energy_stride=100,
                              ic_h=gaussian_bump([0.5, 0.5]))
    result = simulate(square_36, bc, config)
    assert len(result.times) == 4  # steps 0, 100, 200, 300
    assert not result.aborted
    assert np.abs(result.energy_errors).max() <= 1e-3


def test_simulate_rejects_unstable_dt(square_36):
    bc = wf.BcSpec.all_neumann(square_36)
    config = SimulationConfig(dt=1.0, n_steps=10, ic_h=gaussian_bump([0.5, 0.5]))
    with pytest.raises(ConfigurationError, match="stability"):
        simulate(square_36, bc, config)


def test_dt_check_paths(square_36, monkeypatch):
    # a dt below the cell-bound limit runs without an eigensolve; one
    # between that and the exact limit is accepted by the exact check;
    # one above the exact limit is rejected
    bc = wf.BcSpec.all_neumann(square_36)
    ops = wf.assemble(square_36, wf.build_dof_maps(square_36), bc)
    exact = stable_dt_estimate(ops)
    certified = 2.0 / np.sqrt(cell_lambda_bound(ops))
    assert certified < 0.6 * exact  # slivers: the bound is 3.6x lambda_max
    between = 0.5 * (certified + exact)

    def run(dt):
        config = SimulationConfig(dt=dt, n_steps=2, ic_h=gaussian_bump([0.5, 0.5]))
        return simulate(square_36, bc, config, ops=ops)

    def no_eigensolve(ops):
        raise RuntimeError("eigensolve called")

    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "max_eigenvalue", no_eigensolve)
        result = run(0.9 * certified)
        assert result.dt_check == "cell_bound"
        assert result.stable_dt == result.cell_bound_dt
        assert 0.9 * certified < result.cell_bound_dt <= certified
        with pytest.raises(RuntimeError, match="eigensolve called"):
            run(between)
    for dt in (between, exact):
        result = run(dt)
        assert result.dt_check == "exact"
        assert result.stable_dt == exact
        assert result.cell_bound_dt < between
    with pytest.raises(ConfigurationError, match="stability estimate"):
        run(np.nextafter(exact, 1.0))
    forced = simulate(square_36, bc, SimulationConfig(dt=0.9 * certified, n_steps=2,
                                                      allow_unstable_dt=True), ops=ops)
    assert (forced.dt_check, forced.stable_dt, forced.cell_bound_dt) == ("forced", None, None)


@pytest.mark.parametrize("periodic", [False, True])
def test_cell_bound_limit_at_most_exact_1d(periodic):
    # with Neumann ends the cell bound equals lambda_max up to rounding;
    # its margin keeps the certified limit at or below the exact one
    mesh = wf.generate_interval_mesh(16, 1.0, periodic=periodic)
    bc = wf.BcSpec.all_neumann(mesh)
    ops = wf.assemble(mesh, wf.build_dof_maps(mesh), bc)
    exact = stable_dt_estimate(ops)
    result = simulate(mesh, bc, SimulationConfig(dt=exact, n_steps=1), ops=ops)
    assert result.cell_bound_dt <= exact
    assert result.cell_bound_dt >= (1.0 - 1e-9) * exact


def test_simulate_abort_keeps_partial_series(square_36):
    bc = wf.BcSpec.all_neumann(square_36)
    config = SimulationConfig(dt=0.5, n_steps=2000, energy_stride=1,
                              ic_h=gaussian_bump([0.5, 0.5]),
                              allow_unstable_dt=True)
    result = simulate(square_36, bc, config)
    assert result.aborted
    assert result.abort_step is not None
    assert len(result.times) >= 1
    assert np.all(np.isfinite(result.energies))
    # the final state is the last finite one, from the step before the abort
    final = result.final_state
    assert np.isclose(final.time, (result.abort_step - 1) * config.dt)
    assert all(np.isfinite(v).all() for v in [final.h, *final.u])


def test_snapshot_callback(square_36):
    bc = wf.BcSpec.all_neumann(square_36)
    seen = []
    config = SimulationConfig(dt=1e-3, n_steps=10, energy_stride=5,
                              snapshot_stride=5, ic_h=gaussian_bump([0.5, 0.5]))
    simulate(square_36, bc, config,
             snapshot_callback=lambda step, state: seen.append(step))
    assert seen == [0, 5, 10]
    # a stride below 1 would snapshot never (0) or on multiples of |stride|
    for stride in (0, -5):
        with pytest.raises(ConfigurationError, match="snapshot_stride must be >= 1"):
            SimulationConfig(dt=1e-3, n_steps=10, snapshot_stride=stride)


@pytest.mark.parametrize("field,value", [
    ("dt", 0.0), ("dt", -1e-3), ("dt", np.nan), ("dt", np.inf),
    ("wave_speed", 0.0), ("wave_speed", -1.0), ("wave_speed", np.nan),
    ("wave_speed", np.inf)])
def test_config_rejects_bad_numbers(field, value):
    kw = {"dt": 1e-3, "n_steps": 1, field: value}
    with pytest.raises(ConfigurationError, match=f"{field} must be finite and positive"):
        SimulationConfig(**kw)
