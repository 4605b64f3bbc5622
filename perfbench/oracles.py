"""Checks of ``wavefem`` outputs against independent references.

Every check reads the files the CLI wrote, never only its exit code:
``simulate --force-dt`` can exit 0 with non-finite energies. Each check
returns the measured errors and raises :class:`OracleError` when an output
is malformed, non-finite or outside its tolerance. Eigenvalues are not
bit-reproducible (ARPACK starts from a random vector), so every
comparison uses a tolerance.
"""

from __future__ import annotations

import csv
import json
import math
import re


class OracleError(Exception):
    """An output is missing, malformed, non-finite or out of tolerance."""


def _finite(values, what):
    for v in values:
        if not math.isfinite(v):
            raise OracleError(f"{what}: non-finite value {v!r}")


def energy_error_max(path, n_rows) -> float:
    """max |E - E0| / E0 over the energy column of ``energy.csv``."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["time", "energy", "energy_error"]:
        raise OracleError(f"{path}: unexpected header {rows[:1]}")
    try:
        data = [[float(x) for x in row] for row in rows[1:]]
    except ValueError as exc:
        raise OracleError(f"{path}: {exc}") from exc
    if len(data) != n_rows:
        raise OracleError(f"{path}: {len(data)} rows, expected {n_rows}")
    for row in data:
        _finite(row, path)
    e0 = data[0][1]
    if not e0 > 0.0:
        raise OracleError(f"{path}: initial energy {e0!r} is not positive")
    return max(abs(row[1] - e0) / e0 for row in data)


def read_vtk_scalar(path):
    """Points and the point scalar ``h`` of a legacy ASCII VTK file."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    try:
        i = next(k for k, line in enumerate(lines) if line.startswith("POINTS "))
        n = int(lines[i].split()[1])
        points = [[float(x) for x in line.split()] for line in lines[i + 1:i + 1 + n]]
        j = lines.index("SCALARS h double")
        h = [float(x) for x in lines[j + 2:j + 2 + n]]
    except (StopIteration, ValueError, IndexError) as exc:
        raise OracleError(f"{path}: malformed VTK ({exc})") from exc
    if len(points) != n or len(h) != n:
        raise OracleError(f"{path}: truncated point data")
    _finite(h, path)
    return points, h


def standing_wave_error(points, h, modes, t, c=1.0) -> float:
    """Relative max error of ``h`` against the exact Neumann standing wave
    cos(pi |k| c t) * prod_i cos(pi k_i x_i) on the unit box."""
    k = math.pi * math.sqrt(sum(m * m for m in modes))
    phase = math.cos(k * c * t)
    exact = [phase * math.prod(math.cos(math.pi * m * x) for m, x in zip(modes, p))
             for p in points]
    scale = max(abs(v) for v in exact)
    return max(abs(a - b) for a, b in zip(h, exact)) / scale


def check_simulate(out_dir, stdout, n_steps, energy_tol,
                   snapshot_stride=None, modes=None, dt=None, field_tol=None) -> dict:
    """Energy series, and with ``modes`` the last snapshot against the exact
    standing wave at t = n_steps * dt."""
    if f"completed {n_steps} steps" not in stdout:
        raise OracleError(f"simulate did not report {n_steps} completed steps")
    errors = {"energy_error_max": energy_error_max(f"{out_dir}/energy.csv", n_steps + 1)}
    if errors["energy_error_max"] > energy_tol:
        raise OracleError(f"energy error {errors['energy_error_max']:.3e} > {energy_tol:.1e}")
    if snapshot_stride:
        with open(f"{out_dir}/manifest.json") as fh:
            outputs = json.load(fh)["outputs"]
        snapshots = [o for o in outputs if o.endswith(".vtk")]
        if len(snapshots) != n_steps // snapshot_stride + 1:
            raise OracleError(f"{len(snapshots)} snapshots written")
    if modes is not None:
        points, h = read_vtk_scalar(f"{out_dir}/fields_{n_steps:07d}.vtk")
        errors["field_error"] = standing_wave_error(points, h, modes, n_steps * dt)
        if errors["field_error"] > field_tol:
            raise OracleError(f"field error {errors['field_error']:.3e} > {field_tol:.1e}")
    return errors


def dirichlet_square_eigenvalues(count):
    """The ``count`` lowest eigenvalues pi^2 (m^2 + n^2), m, n >= 1, of the
    Dirichlet Laplacian on the unit square, with multiplicity."""
    side = count + 1
    values = sorted(m * m + n * n for m in range(1, side + 1) for n in range(1, side + 1))
    return [math.pi ** 2 * v for v in values[:count]]


def check_spectrum(path, stdout, eig_tol, n_check=8) -> dict:
    """Dirichlet unit-square spectrum: null dimension and the first
    ``n_check`` eigenvalues above the null tolerance.

    The oracle's null dimension is 0; ``spurious_null_modes`` reports how
    many the output has instead. It is a number, not a gate.
    """
    with open(path) as fh:
        spec = json.load(fh)
    eigs = spec["eigenvalues"]
    lam_max = spec["lambda_max"]
    _finite(eigs + [lam_max], path)
    if any(b < a - 1e-9 * abs(lam_max) for a, b in zip(eigs, eigs[1:])):
        raise OracleError(f"{path}: eigenvalues are not ascending")
    if lam_max < eigs[-1]:
        raise OracleError(f"{path}: lambda_max {lam_max} below eigenvalue {eigs[-1]}")
    threshold = spec["null_tolerance"] * max(1.0, lam_max)
    n_null = sum(1 for v in eigs if v < threshold)
    printed = re.search(r"null space dimension: (\d+)", stdout)
    if n_null != spec["null_space_dimension"] or not printed or int(printed.group(1)) != n_null:
        raise OracleError(f"null dimension {n_null} disagrees with the reported one")
    physical = [v for v in eigs if v >= threshold][:n_check]
    if len(physical) < n_check:
        raise OracleError(f"only {len(physical)} nonzero eigenvalues resolved")
    exact = dirichlet_square_eigenvalues(n_check)
    eig_error = max(abs(a / b - 1.0) for a, b in zip(physical, exact))
    if eig_error > eig_tol:
        raise OracleError(f"eigenvalue error {eig_error:.3e} > {eig_tol:.1e}")
    return {"eig_error_max": eig_error, "spurious_null_modes": n_null}
