"""Time integration of the semi-discrete wave system.

The integrator is the Stormer-Verlet scheme: a half-step kick of the
velocity from the scalar gradient, a full-step drift of the scalar from
the velocity divergence, and a second half-kick from the updated scalar.
It is explicit, time-reversible and symplectic. For g = 0 and f = 0
the discrete energy oscillates within an O(dt^2) band instead of
drifting, so any energy growth signals a stability violation. Nonzero
boundary data do work on the fields and change the energy at any dt;
its error is then no stability signal.

``simulate`` takes the operators alone: their DOF map carries the mesh
(``ops.dofs.mesh``), on which the initial data are interpolated.

A half-kick applies ``AssembledOperators.kick`` to the velocity array
(d, m_u), and the drift ``divergence``, both cell by cell: no step builds a
gradient matrix. A step's second kick, of its new scalar, travels with the
state it returns and serves the next step's first, so a step costs one kick.
The scalar mass matrix is factorized once, in the order of the
``assembly`` module docstring (``assembly._factor``), and reused.

The scheme is stable while dt < 2 / (c sqrt(lambda_max)). ``simulate``
checks a requested dt in stages. The element-by-element bound
``spectral.cell_lambda_bound`` >= lambda_max costs one batched small
eigenproblem and certifies every dt up to its limit; it is loose on
sliver cells, so it never rejects a dt by itself. A larger dt is stable
iff sigma M - A is positive definite, sigma = 4 / (c dt)^2, and the pivot
signs of one factorization of it decide that (``spectral.pivot_inertia``).
Their count of non-positive pivots, that of the eigenvalues at or above
sigma, and the certified limit explain a rejected dt: no stage solves an
eigenproblem (``wavefem spectrum`` reports lambda_max).

``simulate`` evaluates the energy after every step, and the first
non-finite one ends the run whatever ``stride`` records: ``h_mass`` and
``u_mass_ref`` are SPD with positive diagonals, so a non-finite entry in
either field makes the energy non-finite. Snapshots fall on the multiples
of ``snapshot_stride``, step 0 included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .assembly import AssembledOperators
from .elements import DofMap, h_dof_coords
from .spectral import cell_lambda_bound, laplacian_pencil, max_eigenvalue, pivot_inertia

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


@dataclass(eq=False)
class FieldState:
    """Coefficient vectors of the velocity components and the scalar."""

    u: np.ndarray           # (d, m_u), component i in row i
    h: np.ndarray           # length m_h
    time: float = 0.0

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.h = np.asarray(self.h, dtype=float)
        self._kick = (None, None, None)  # (ops, h, ops.kick(h)) of ``verlet_step``


def interpolate_state(dofs: DofMap, h0: Callable) -> FieldState:
    """Nodal interpolation of the initial scalar ``h0`` on ``dofs.mesh``,
    with the velocity at rest. ``h0`` is called once with the ``(m_h, dim)``
    array of the scalar nodes (vertices and midpoints), and its result is
    broadcast to ``(m_h,)``."""
    coords = h_dof_coords(dofs)
    h = np.broadcast_to(np.asarray(h0(coords), dtype=float), (dofs.m_h,)).copy()
    return FieldState(u=np.zeros((dofs.mesh.dim, dofs.m_u)), h=h, time=0.0)


def verlet_step(state: FieldState, ops: AssembledOperators, dt: float,
                c: float = 1.0) -> FieldState:
    """One Stormer-Verlet step at wave speed ``c``: half-kick, drift of the
    free scalar DOFs, half-kick. The new state is read-only and carries the
    kick of its ``h``, reused by a step on the same ``ops`` and that ``h``."""
    half = 0.5 * dt * c
    kicked, h, kick = state._kick
    if kicked is not ops or h is not state.h or h.flags.writeable:
        kick = ops.kick(state.h)
    u_half = state.u - half * kick
    free = ops.h_free if len(ops.h_fixed) else slice(None)
    h_new = state.h.copy()
    h_new[free] += dt * c * ops.h_mass_solver()(ops.divergence(u_half)[free])
    kick = ops.kick(h_new)
    new = FieldState(u=u_half - half * kick, h=h_new, time=state.time + dt)
    new.u.flags.writeable = h_new.flags.writeable = False
    new._kick = (ops, h_new, kick)
    return new


def energy(state: FieldState, ops: AssembledOperators) -> float:
    """Discrete energy: half the mass-weighted squares of both fields,
    the velocity's as sum_K det_K u_K^T u_mass_ref u_K. It is conserved
    (up to O(dt^2)) only for g = 0 and f = 0."""
    # A blown-up state overflows here; ``simulate`` reports the non-finite
    # energy, so numpy's warning would only duplicate it.
    with np.errstate(over="ignore", invalid="ignore"):
        U = state.u.reshape(ops.dim, len(ops.cell_dets), -1)
        return 0.5 * float(state.h @ (ops.h_mass @ state.h)
                           + ops.cell_dets @ np.einsum("ica,ica->c", U @ ops.u_mass_ref, U))


def stable_dt_estimate(ops: AssembledOperators, c: float = 1.0) -> float:
    """Linear stability limit of the scheme, 2 / (c sqrt(lambda_max)).

    The fastest oscillation of the semi-discrete system has frequency
    c*sqrt(lambda_max); the leapfrog kernel is stable while that
    oscillation is resolved with dt * frequency <= 2. lambda_max is the
    rho of ``spectral.max_eigenvalue`` (module docstring), so the estimate
    is at or above the limit, within eta / (2 rho) of it; a rho that is
    not finite and positive is a ``RuntimeError``. ``simulate`` never calls it."""
    lam = max_eigenvalue(ops).value
    if not 0.0 < lam < np.inf:
        raise RuntimeError(f"lambda_max {lam!r} gives no stability limit")
    return 2.0 / (c * np.sqrt(lam))


@dataclass
class SimulationConfig:
    """Settings of one ``simulate`` run under the keys of the CLI's config
    file, checked here and nowhere else (``ConfigurationError``):

    ===================== ======== ================================================
    key                   default  check; meaning
    ===================== ======== ================================================
    ``dt``                required finite, > 0; the time step
    ``t_end``             required finite, > 0, t_end / dt finite; the run takes
                                   n_steps = max(1, round(t_end / dt))
    ``stride``            1        >= 1; energy rows at multiples and the last step
    ``snapshot_stride``   None     >= 1 or None; snapshots at its multiples
    ``c``                 1.0      finite, > 0; the wave speed
    ``ic_h``              0        callable initial scalar (CLI: the ``ic`` preset)
    ``allow_unstable_dt`` False    skip the dt check (CLI: ``--force-dt``)
    ===================== ======== ================================================
    """

    dt: float
    t_end: float
    stride: int = 1
    snapshot_stride: Optional[int] = None
    c: float = 1.0
    ic_h: Callable = lambda x: 0.0
    allow_unstable_dt: bool = False

    def __post_init__(self):
        for name in ("dt", "t_end", "c"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ConfigurationError(f"{name} must be finite and positive, got {value!r}")
        if not self.t_end / self.dt < np.inf:
            raise ConfigurationError("t_end / dt overflows")
        if self.stride < 1:
            raise ConfigurationError("stride must be >= 1")
        if self.snapshot_stride is not None and self.snapshot_stride < 1:
            raise ConfigurationError("snapshot_stride must be >= 1")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_end / self.dt)))


@dataclass(eq=False)
class SimulationResult:
    """Recorded energy series and final state of a run.

    ``abort_step`` names the step whose energy was non-finite, or is
    None when the run finished. ``dt_check`` describes the dt check:
    ``path`` is ``"cell_bound"`` (dt certified by the element-by-element
    bound), ``"inertia"`` (dt accepted by the pivot signs of sigma M - A)
    or ``"forced"`` (no check); ``cell_bound_limit`` is the certified limit
    whenever the check ran, else None. The inertia path adds ``sigma`` =
    4 / (c dt)^2, ``nonpositive_pivots`` (0 on every accepted run) and
    ``factor_nnz`` (``spectral.pivot_inertia``); at sigma = 0 ((c dt)^2
    overflows) they are the pencil size and 0, as nothing is factored.
    """

    times: np.ndarray
    energies: np.ndarray
    final_state: FieldState
    dt_check: dict
    abort_step: Optional[int] = None

    @property
    def energy_errors(self) -> np.ndarray:
        """Energy relative to step 0; a stability signal only for g = 0
        and f = 0, since boundary data change the energy."""
        e0 = self.energies[0]
        scale = abs(e0) if e0 != 0.0 else 1.0
        return (self.energies - e0) / scale


def simulate(ops: AssembledOperators, config: SimulationConfig,
             snapshot_callback: Callable = lambda step, state: None) -> SimulationResult:
    """Run the wave system with Verlet stepping and energy recording on
    the operators ``ops`` with their boundary data, from the initial data
    interpolated on ``ops.mesh`` with the fixed scalar DOFs (1D Dirichlet
    vertices) at their boundary values.

    Unless ``config.allow_unstable_dt`` is set, the dt check of the module
    docstring (its bound inflated by ``BOUND_MARGIN``) comes first: a dt
    above its limit is a ``ConfigurationError``, as are a non-finite initial
    energy and a zero one with zero boundary data (the zero solution). The
    first step whose energy is non-finite aborts the run (module docstring);
    the result keeps the rows and state from before that step and names it
    ``abort_step``. Rows are kept at step 0, the multiples of
    ``config.stride`` and the last step; ``snapshot_callback(step, state)``
    runs at step 0 and the multiples of ``config.snapshot_stride``, never
    when that is None."""
    dt_check = {"path": "forced", "cell_bound_limit": None}
    if not config.allow_unstable_dt:
        c = config.c
        bound = 2.0 / (c * np.sqrt(cell_lambda_bound(ops) * (1.0 + BOUND_MARGIN)))
        dt_check = {"path": "cell_bound", "cell_bound_limit": bound}
        if not config.dt <= bound:  # a NaN bound certifies nothing
            tau = c * config.dt
            sigma = 4.0 / (tau * tau)  # 0 where tau * tau overflows: every eigenvalue of A counts
            count, nnz = ((len(ops.h_free), 0) if sigma == 0.0
                          else pivot_inertia(*laplacian_pencil(ops), sigma, ops.h_order))
            dt_check.update(path="inertia", sigma=sigma, nonpositive_pivots=count, factor_nnz=nnz)
            if count:
                raise ConfigurationError(
                    f"dt={config.dt} is not below the stability limit: the count of eigenvalues "
                    f"at or above sigma = 4/(c dt)^2 = {sigma:.6g} is {count}, and the cell bound "
                    f"certifies dt <= {bound:.6g} (wavefem spectrum reports lambda_max); "
                    "reduce dt or force the run")

    times, energies = [], []

    def record(step, state, e):
        if step % config.stride == 0 or step == config.n_steps:
            times.append(state.time)
            energies.append(e)
        if config.snapshot_stride and step % config.snapshot_stride == 0:
            snapshot_callback(step, state)

    state = interpolate_state(ops.dofs, config.ic_h)
    state.h[ops.h_fixed] = ops.h_fixed_values
    if not np.isfinite(e := energy(state, ops)):
        raise ConfigurationError(f"the initial energy is {e!r}; the initial data must be finite")
    if e == 0.0 and not any(map(np.any, (ops.dirichlet_rhs, ops.neumann_rhs, ops.h_fixed_values))):
        raise ConfigurationError("initial energy and boundary data are zero: the solution is zero")
    record(0, state, e)
    abort_step = None
    for step in range(1, config.n_steps + 1):
        new = verlet_step(state, ops, config.dt, config.c)
        e = energy(new, ops)
        if not np.isfinite(e):
            abort_step = step
            break
        state = new
        record(step, state, e)

    return SimulationResult(times=np.array(times), energies=np.array(energies),
                            final_state=state, dt_check=dt_check, abort_step=abort_step)
