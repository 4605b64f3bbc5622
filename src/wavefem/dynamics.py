"""Time integration of the semi-discrete wave system.

The integrator is the Stormer-Verlet scheme: a half-step kick of the
velocity from the scalar gradient, a full-step drift of the scalar from
the velocity divergence, and a second half-kick from the updated scalar.
It is explicit, time-reversible and symplectic. For g = 0 and f = 0
the discrete energy oscillates within an O(dt^2) band instead of
drifting, so any energy growth signals a stability violation. Nonzero
boundary data do work on the fields and change the energy at any dt;
its error is then no stability signal.

Each half-kick is one sparse product with the cached kick operator
B_i = u_mass^{-1} grad_i, exact since cell K's block of u_mass is
det_K * u_mass_ref; the scalar mass matrix is LU-factorized once and
reused across steps.

The scheme is stable while dt <= 2 / (c sqrt(lambda_max)). ``simulate``
checks a requested dt in two stages. The element-by-element bound
``spectral.cell_lambda_bound`` >= lambda_max costs one batched small
eigenproblem and certifies every dt up to its limit. Only a larger dt
pays for the exact lambda_max (``stable_dt_estimate``), which then
accepts or rejects it. The bound is loose on sliver cells, so it never
rejects a dt by itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .assembly import AssembledOperators, assemble
from .elements import DofMap, build_dof_maps, h_dof_coords
from .mesh import BcSpec, Mesh
from .spectral import cell_lambda_bound, max_eigenvalue

__all__ = [
    "FieldState",
    "SimulationConfig",
    "SimulationResult",
    "ConfigurationError",
    "interpolate_state",
    "verlet_step",
    "energy",
    "stable_dt_estimate",
    "simulate",
]

# Relative margin added to the cell bound before it certifies a dt. In 1D
# with Neumann data the bound equals lambda_max, and the two computations
# may differ in the last bits.
BOUND_MARGIN = 1e-10


class ConfigurationError(ValueError):
    """A run configuration violates its preconditions."""


@dataclass
class FieldState:
    """Coefficient vectors of the velocity components and the scalar."""

    u: list                 # d arrays of length m_u
    h: np.ndarray           # length m_h
    time: float = 0.0

    def __post_init__(self):
        self.u = [np.asarray(c, dtype=float) for c in self.u]
        self.h = np.asarray(self.h, dtype=float)
        lengths = {c.shape for c in self.u}
        if len(lengths) > 1:
            raise ValueError("velocity components have mismatched lengths")


def interpolate_state(mesh: Mesh, dofs: DofMap, h0: Callable,
                      u0: Optional[Callable] = None) -> FieldState:
    """Nodal interpolation of initial data onto the two spaces.

    Both callables are called once with an ``(n, dim)`` array of points.
    ``h0`` is sampled at the scalar nodes (vertices and midpoints) and its
    result is broadcast to ``(n,)``; ``u0``, when given, is sampled at
    every cell's corners (the velocity nodes of each cell's own copy) and
    its result is broadcast to ``(n, dim)``.
    """
    coords = h_dof_coords(mesh, dofs)
    h = np.broadcast_to(np.asarray(h0(coords), dtype=float), (dofs.m_h,)).copy()
    u = [np.zeros(dofs.m_u) for _ in range(mesh.dim)]
    if u0 is not None:
        corners = mesh.cell_coords.reshape(-1, mesh.dim)
        values = np.broadcast_to(np.asarray(u0(corners), dtype=float), corners.shape)
        for i in range(mesh.dim):
            u[i][dofs.u_cell_dofs.ravel()] = values[:, i]
    return FieldState(u=u, h=h, time=0.0)


def verlet_step(state: FieldState, ops: AssembledOperators, dt: float,
                wave_speed: float = 1.0) -> FieldState:
    """One Stormer-Verlet step: half-kick, drift, half-kick. The drift
    moves the free scalar DOFs only."""
    c = wave_speed
    h_solve = ops.h_mass_solver()
    kick = ops.kick_operator()
    half = 0.5 * dt * c
    u_half = [u - half * (B @ state.h + s) for u, (B, s) in zip(state.u, kick)]
    h_new = state.h.copy()
    h_new[ops.h_free] += dt * c * h_solve(ops.divergence(u_half)[ops.h_free])
    u_new = [u - half * (B @ h_new + s) for u, (B, s) in zip(u_half, kick)]
    return FieldState(u=u_new, h=h_new, time=state.time + dt)


def energy(state: FieldState, ops: AssembledOperators) -> float:
    """Discrete energy: half the mass-weighted squares of both fields,
    the velocity's as sum_K det_K u_K^T u_mass_ref u_K. It is conserved
    (up to O(dt^2)) only for g = 0 and f = 0."""
    # A blown-up state overflows here; ``simulate`` reports the non-finite
    # energy, so numpy's warning would only duplicate it.
    with np.errstate(over="ignore", invalid="ignore"):
        e = 0.5 * float(state.h @ (ops.h_mass @ state.h))
        for u in state.u:
            U = u.reshape(len(ops.cell_dets), -1)
            e += 0.5 * float(ops.cell_dets @ np.einsum("ca,ca->c", U @ ops.u_mass_ref, U))
    return e


def stable_dt_estimate(ops: AssembledOperators, wave_speed: float = 1.0) -> float:
    """Linear stability limit of the scheme, 2 / (c sqrt(lambda_max)).

    The fastest oscillation of the semi-discrete system has frequency
    c*sqrt(lambda_max); the leapfrog kernel is stable while that
    oscillation is resolved with dt * frequency <= 2. The limit is exact:
    lambda_max is ``spectral.max_eigenvalue``, a dense solve up to
    ``spectral.DENSE_CUTOFF`` scalar DOFs and ARPACK above it.
    ``simulate`` calls it only for a dt the cell bound cannot certify.
    """
    return 2.0 / (wave_speed * np.sqrt(max_eigenvalue(ops)))


@dataclass
class SimulationConfig:
    dt: float
    n_steps: int
    energy_stride: int = 1
    snapshot_stride: Optional[int] = None  # steps between snapshot callbacks
    ic_h: Callable = lambda x: 0.0
    ic_u: Optional[Callable] = None
    wave_speed: float = 1.0
    allow_unstable_dt: bool = False

    def __post_init__(self):
        for name in ("dt", "wave_speed"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ConfigurationError(f"{name} must be finite and positive")
        if self.n_steps < 1:
            raise ConfigurationError("n_steps must be >= 1")
        if self.energy_stride < 1:
            raise ConfigurationError("energy_stride must be >= 1")
        if self.snapshot_stride is not None and self.snapshot_stride < 1:
            raise ConfigurationError("snapshot_stride must be >= 1")


@dataclass
class SimulationResult:
    """Recorded energy series and final state of a run.

    ``dt_check`` names the path the dt check took: ``"cell_bound"`` (dt
    certified by the element-by-element bound), ``"exact"`` (dt above the
    certified limit, accepted by ``stable_dt_estimate``) or ``"forced"``
    (no check). ``stable_dt`` is the limit that check used: the certified
    limit, the exact one, or None. ``cell_bound_dt`` is the certified
    limit whenever the check ran.
    """

    times: np.ndarray
    energies: np.ndarray
    final_state: FieldState
    stable_dt: Optional[float]
    aborted: bool = False
    abort_step: Optional[int] = None
    dt_check: str = "forced"
    cell_bound_dt: Optional[float] = None

    @property
    def energy_errors(self) -> np.ndarray:
        """Energy relative to step 0; a stability signal only for g = 0
        and f = 0, since boundary data change the energy."""
        e0 = self.energies[0]
        scale = abs(e0) if e0 != 0.0 else 1.0
        return (self.energies - e0) / scale


def simulate(mesh: Mesh, bc: BcSpec, config: SimulationConfig,
             ops: Optional[AssembledOperators] = None,
             snapshot_callback: Optional[Callable] = None) -> SimulationResult:
    """Run the wave system with Verlet stepping and energy recording.

    The run starts from the interpolated initial data, with the fixed
    scalar DOFs (1D Dirichlet vertices) set to their boundary values.
    Energy is sampled at step 0 and every ``energy_stride`` steps; it is
    conserved, and its drift measures stability, only when the boundary
    data g and f are zero. ``snapshot_callback(step, state)`` runs at
    step 0 and every ``config.snapshot_stride`` steps.

    Unless ``config.allow_unstable_dt`` is set, the requested dt is
    checked first (module docstring; the bound is inflated by
    ``BOUND_MARGIN``) and ``ConfigurationError`` rejects it above the
    exact limit. The check accepts and rejects exactly the dt values that
    ``stable_dt_estimate`` alone would. A step that leaves a field or the
    energy non-finite counts as unstable: the run stops there and returns
    the series and final state recorded before it, with ``aborted`` set
    and ``abort_step`` naming the step.
    """
    dofs = ops.dofs if ops is not None else build_dof_maps(mesh)
    if ops is None:
        ops = assemble(mesh, dofs, bc)
    dt_check, stable_dt, cell_bound_dt = "forced", None, None
    if not config.allow_unstable_dt:
        c = config.wave_speed
        cell_bound_dt = 2.0 / (c * np.sqrt(cell_lambda_bound(ops) * (1.0 + BOUND_MARGIN)))
        dt_check, stable_dt = "cell_bound", cell_bound_dt
        if not config.dt <= cell_bound_dt:  # a NaN bound certifies nothing
            dt_check, stable_dt = "exact", stable_dt_estimate(ops, c)
            if config.dt > stable_dt:
                raise ConfigurationError(
                    f"dt={config.dt} exceeds the stability estimate "
                    f"{stable_dt:.6g}; reduce dt or force the run")

    state = interpolate_state(mesh, dofs, config.ic_h, config.ic_u)
    state.h[ops.h_fixed] = ops.h_fixed_values
    times = [0.0]
    energies = [energy(state, ops)]
    if snapshot_callback is not None:
        snapshot_callback(0, state)

    aborted = False
    abort_step = None
    for step in range(1, config.n_steps + 1):
        new = verlet_step(state, ops, config.dt, config.wave_speed)
        record = step % config.energy_stride == 0
        e = energy(new, ops) if record else 0.0
        if not (np.isfinite(e) and np.isfinite(new.h).all()
                and all(np.isfinite(u).all() for u in new.u)):
            aborted = True
            abort_step = step
            break
        state = new
        if record:
            times.append(state.time)
            energies.append(e)
        if (snapshot_callback is not None and config.snapshot_stride
                and step % config.snapshot_stride == 0):
            snapshot_callback(step, state)

    return SimulationResult(
        times=np.array(times), energies=np.array(energies),
        final_state=state, stable_dt=stable_dt,
        aborted=aborted, abort_step=abort_step,
        dt_check=dt_check, cell_bound_dt=cell_bound_dt)
