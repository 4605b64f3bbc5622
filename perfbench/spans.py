"""Span recorder and the wrappers the traced run installs on ``wavefem``.

A span is one call of a wrapped public function: its name, start, end and
the span that was open when it started. Spans stay in memory and are
written out once the CLI returns. Counts are taken at the same call
boundaries from the values the functions return.

The wrappers patch the names the CLI resolves at call time, so no code of
the program changes: ``cli`` imports the mesh generators and
``build_dof_maps`` by name, and ``dynamics`` imports ``max_eigenvalue``
and ``h_dof_coords`` by name, so those are patched where they are looked
up.
"""

from __future__ import annotations

import functools
import os
import time


class Recorder:
    """Spans as ``[name, parent index or None, start, end]`` plus counts."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        span = [name, self._open[-1] if self._open else None, None, None]
        self.spans.append(span)
        self._open.append(index)
        span[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if on_return is not None:
                on_return(self.counts, result, args)
            return result
        return wrapper


def _dof_counts(counts, dofs, args):
    counts["elements.m_h"] = dofs.m_h
    counts["elements.m_u"] = dofs.m_u


def _operator_counts(counts, ops, args):
    counts["assembly.h_mass_nnz"] = int(ops.h_mass.nnz)
    counts["assembly.grad_nnz"] = int(sum(g.nnz for g in ops.grad))


def _mesh_counts(counts, mesh, args):
    counts["mesh.boundary_facets"] = len(mesh.boundary_facets)


def _stable_dt(counts, dt, args):
    counts["dynamics.stable_dt"] = float(dt)


def _step_count(counts, state, args):
    counts["dynamics.steps"] = counts.get("dynamics.steps", 0) + 1


def _vtk_counts(counts, result, args):
    counts["vtk_io.snapshots"] = counts.get("vtk_io.snapshots", 0) + 1
    counts["vtk_io.bytes"] = counts.get("vtk_io.bytes", 0) + os.path.getsize(args[0])


def install(recorder: Recorder, cli, assembly, dynamics, elements, spectral, vtk_io):
    """Patch the public functions the CLI reaches with span wrappers.

    The modules are passed in so the caller controls when ``wavefem`` is
    imported (the import itself is timed as ``cli.import``).
    """
    wrap = recorder.wrap
    for gen in ("generate_square_mesh", "generate_cube_mesh", "generate_interval_mesh"):
        setattr(cli, gen, wrap("mesh.generate", getattr(cli, gen), _mesh_counts))
    cli.build_dof_maps = wrap("elements.build_dof_maps", cli.build_dof_maps, _dof_counts)
    coords = wrap("elements.h_dof_coords", elements.h_dof_coords)
    elements.h_dof_coords = coords      # vtk_io imports it inside write_vtk
    dynamics.h_dof_coords = coords
    assembly.assemble = wrap("assembly.assemble", assembly.assemble, _operator_counts)

    # Only the first call factorizes; later calls return the cached solver.
    solver = assembly.AssembledOperators.h_mass_solver

    @functools.wraps(solver)
    def h_mass_solver(ops):
        if ops._h_factor is None:
            return recorder.call("assembly.h_mass_factor", solver, ops)
        return solver(ops)

    assembly.AssembledOperators.h_mass_solver = h_mass_solver

    spectral.laplacian_pencil = wrap("spectral.laplacian_pencil", spectral.laplacian_pencil)
    spectral.laplacian_spectrum = wrap("spectral.laplacian_spectrum",
                                       spectral.laplacian_spectrum)
    spectral.spectrum_to_json = wrap("spectral.spectrum_to_json", spectral.spectrum_to_json)
    dynamics.max_eigenvalue = wrap("spectral.max_eigenvalue", dynamics.max_eigenvalue)
    dynamics.simulate = wrap("dynamics.simulate", dynamics.simulate)
    dynamics.stable_dt_estimate = wrap("dynamics.stable_dt_estimate",
                                       dynamics.stable_dt_estimate, _stable_dt)
    dynamics.interpolate_state = wrap("dynamics.interpolate_state", dynamics.interpolate_state)
    dynamics.verlet_step = wrap("dynamics.verlet_step", dynamics.verlet_step, _step_count)
    dynamics.energy = wrap("dynamics.energy", dynamics.energy)
    vtk_io.write_vtk = wrap("vtk_io.write_vtk", vtk_io.write_vtk, _vtk_counts)
    cli.main = wrap("cli.main", cli.main)


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children.

    Calls are single-threaded and nested, so children never overlap and
    their sum is the part of the parent's interval they cover.
    """
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent is not None:
            own[parent] -= end - start
    return own
