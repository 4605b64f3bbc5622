import numpy as np
import pytest
import scipy.linalg

import wavefem as wf
from wavefem.dynamics import (ConfigurationError, FieldState,
                              SimulationConfig, energy, interpolate_state,
                              simulate, stable_dt_estimate, verlet_step)
from wavefem.spectral import laplacian_pencil, max_eigenvalue

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
                              ic_h=gaussian_bump([0.5, 0.5]))
    simulate(square_36, bc, config,
             snapshot_callback=lambda step, state: seen.append(step),
             snapshot_stride=5)
    assert seen == [0, 5, 10]
