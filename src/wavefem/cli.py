"""Command-line interface.

Verbs: dof-report, spectrum, dispersion, simulate, mesh-convert. Every
command that writes outputs also writes a JSON run manifest next to them
so a run can be reproduced. The ``simulate`` manifest also records
``dt_check``: the path the dt check took (``cell_bound``, ``exact`` or
``forced``), the limit it used and the cell-bound limit. Exit codes: 0
success, 1 input or usage error, 2 numerical failure, 3 invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from . import __version__
from . import assembly, dispersion, dynamics, spectral, vtk_io
from .elements import build_dof_maps
from .mesh import (BcSpec, Mesh, MeshFormatError, generate_cube_mesh,
                   generate_interval_mesh, generate_square_mesh, read_mesh,
                   write_tetgen_mesh, write_triangle_mesh)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_INVARIANT = 3


def _load_mesh(args) -> tuple[Mesh, str]:
    if args.generate:
        spec = args.generate
        parts = spec.split(":")
        kind = parts[0]
        try:
            if kind == "square":
                return generate_square_mesh(int(parts[1])), spec
            if kind == "cube":
                return generate_cube_mesh(int(parts[1])), spec
            if kind == "interval":
                n = int(parts[1])
                length = float(parts[2]) if len(parts) > 2 else 1.0
                periodic = len(parts) > 3 and parts[3] == "periodic"
                return generate_interval_mesh(n, length, periodic), spec
        except (IndexError, ValueError) as exc:
            raise MeshFormatError(f"bad --generate spec {spec!r}: {exc}") from exc
        raise MeshFormatError(
            f"unknown generator {kind!r}; use square:N, cube:N or "
            "interval:N[:LENGTH[:periodic]]")
    paths = args.mesh
    if len(paths) < 2 or len(paths) > 3:
        raise MeshFormatError("--mesh takes NODE ELE [EDGE|FACE|POLY] paths")
    return read_mesh(*paths), " ".join(paths)


def _bc_for(mesh: Mesh, kind: str) -> BcSpec:
    if kind == "dirichlet":
        return BcSpec.all_dirichlet(mesh)
    if kind == "neumann":
        return BcSpec.all_neumann(mesh)
    raise dynamics.ConfigurationError(f"unknown bc {kind!r}")


def _write_manifest(path, command, parameters, outputs, started, **fields):
    manifest = {
        "command": command,
        "parameters": parameters,
        "outputs": [str(o) for o in outputs],
        "tool_version": __version__,
        "duration_seconds": round(time.monotonic() - started, 6),
        **fields,
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


# -- commands ---------------------------------------------------------------

def cmd_dof_report(args) -> int:
    started = time.monotonic()
    mesh, source = _load_mesh(args)
    dofs = build_dof_maps(mesh)
    rows = [
        ("dim", mesh.dim),
        ("cells", mesh.n_cells),
        ("vertices", mesh.n_vertices),
        ("edges", mesh.n_edges),
        ("u_dofs_per_component", dofs.m_u),
        ("h_dofs", dofs.m_h),
        ("ratio", dofs.m_u / dofs.m_h),
    ]
    for name, value in rows:
        print(f"{name}: {value}")
    outputs = []
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([name for name, _ in rows])
            writer.writerow([value for _, value in rows])
        outputs.append(args.out)
        _write_manifest(args.out + ".manifest.json", "dof-report",
                        {"mesh": source}, outputs, started)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    started = time.monotonic()
    if args.count < 0:
        raise dynamics.ConfigurationError(f"--count must be >= 0, got {args.count}")
    mesh, source = _load_mesh(args)
    dofs = build_dof_maps(mesh)
    bc = _bc_for(mesh, args.bc)
    ops = assembly.assemble(mesh, dofs, bc)
    spec = spectral.laplacian_spectrum(ops)
    nnull = spectral.null_space_dimension(spec)
    count = min(args.count, len(spec.eigenvalues))
    leading = spec.eigenvalues[:count]
    # every scalar DOF, fixed ones included; the JSON n_h_dofs counts the
    # pencil's free DOFs
    print(f"h dofs: {dofs.m_h}, u dofs per component: {dofs.m_u}")
    print("leading eigenvalues: "
          + ", ".join(f"{v:.6g}" for v in leading))
    print(f"lambda_max: {spec.lambda_max:.6g}")
    print(f"null space dimension: {nnull}")
    outputs = []
    if args.out:
        if args.format == "json":
            spectral.spectrum_to_json(spec, args.out, metadata={
                "mesh": source, "bc": args.bc,
                "u_dofs_per_component": dofs.m_u, "h_dofs": dofs.m_h})
        else:
            spectral.spectrum_to_csv(spec, args.out)
        outputs.append(args.out)
        _write_manifest(args.out + ".manifest.json", "spectrum",
                        {"mesh": source, "bc": args.bc, "count": args.count,
                         "format": args.format},
                        outputs, started)
    return EXIT_OK


def cmd_dispersion(args) -> int:
    started = time.monotonic()
    samples, summary = dispersion.dispersion_sweep(args.samples)
    print(f"samples: {len(samples)}")
    print(f"max lower-branch frequency: {summary.max_w_lower:.6f}")
    print(f"min upper-branch frequency: {summary.min_w_upper:.6f}")
    print(f"spectral gap: {summary.gap:.6f}")
    outputs = []
    if args.out:
        dispersion.sweep_to_csv(samples, args.out)
        outputs.append(args.out)
        _write_manifest(args.out + ".manifest.json", "dispersion",
                        {"samples": args.samples}, outputs, started)
    return EXIT_OK


def _parse_config(path) -> dict:
    known = {"dt": float, "t_end": float, "stride": int, "bc": str,
             "ic": str, "center": str, "width": float, "modes": str,
             "c": float, "snapshot_stride": int}
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise dynamics.ConfigurationError(
                    f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in known:
                raise dynamics.ConfigurationError(
                    f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = known[key](value.strip())
            except ValueError as exc:
                raise dynamics.ConfigurationError(
                    f"{path}:{lineno}: bad value for {key!r}") from exc
    return values


def _initial_condition(cfg: dict, dim: int):
    preset = cfg.get("ic", "gaussian")
    if preset == "gaussian":
        center = np.array([float(t) for t in cfg.get("center", "").split()]
                          or [0.5] * dim)
        width = cfg.get("width", 0.1)
        if len(center) != dim:
            raise dynamics.ConfigurationError("center must have one value per dimension")
        if not 0.0 < width < np.inf:
            raise dynamics.ConfigurationError(f"width must be finite and positive, got {width!r}")
        if not np.isfinite(center).all():
            raise dynamics.ConfigurationError("center must be finite")

        def h0(x):
            r2 = np.sum((x - center) ** 2, axis=-1)
            return np.exp(-r2 / (2.0 * width ** 2))

        return h0
    if preset == "standing_wave":
        modes = np.array([int(t) for t in cfg.get("modes", "").split()]
                         or [1] * dim)
        if len(modes) != dim:
            raise dynamics.ConfigurationError("modes must have one value per dimension")

        def h0(x):
            return np.prod(np.cos(np.pi * modes * x), axis=-1)

        return h0
    raise dynamics.ConfigurationError(f"unknown ic preset {preset!r}")


def cmd_simulate(args) -> int:
    started = time.monotonic()
    mesh, source = _load_mesh(args)
    cfg = _parse_config(args.config)
    if args.dt is not None:
        cfg["dt"] = args.dt
    if args.t_end is not None:
        cfg["t_end"] = args.t_end
    cfg.setdefault("c", 1.0)
    for key in ("dt", "t_end", "c"):
        if key not in cfg:
            raise dynamics.ConfigurationError(f"config is missing {key!r}")
        if not 0.0 < cfg[key] < np.inf:
            raise dynamics.ConfigurationError(
                f"{key} must be finite and positive, got {cfg[key]!r}")
    dt = cfg["dt"]
    if not cfg["t_end"] / dt < np.inf:
        raise dynamics.ConfigurationError("t_end / dt overflows")
    n_steps = max(1, int(round(cfg["t_end"] / dt)))
    stride = cfg.get("stride", 1)
    bc = _bc_for(mesh, cfg.get("bc", "neumann"))
    config = dynamics.SimulationConfig(
        dt=dt, n_steps=n_steps, energy_stride=stride,
        snapshot_stride=cfg.get("snapshot_stride"),
        ic_h=_initial_condition(cfg, mesh.dim),
        wave_speed=cfg["c"],
        allow_unstable_dt=args.force_dt)

    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    dofs = build_dof_maps(mesh)
    ops = assembly.assemble(mesh, dofs, bc)

    outputs = []

    def snapshot(step, state):
        path = os.path.join(out_dir, f"fields_{step:07d}.vtk")
        vtk_io.write_vtk(path, mesh, dofs, h=state.h, u=state.u)
        outputs.append(path)

    callback = snapshot if config.snapshot_stride else None
    result = dynamics.simulate(mesh, bc, config, ops=ops, snapshot_callback=callback)

    energy_path = os.path.join(out_dir, "energy.csv")
    with open(energy_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "energy", "energy_error"])
        for t, e, err in zip(result.times, result.energies, result.energy_errors):
            writer.writerow([repr(float(t)), repr(float(e)), repr(float(err))])
    outputs.append(energy_path)
    _write_manifest(os.path.join(out_dir, "manifest.json"), "simulate",
                    {"mesh": source, "config": str(args.config),
                     "dt": dt, "n_steps": n_steps, "stride": stride,
                     "force_dt": args.force_dt},
                    outputs, started,
                    dt_check={"path": result.dt_check, "limit": result.stable_dt,
                              "cell_bound_limit": result.cell_bound_dt})

    if result.aborted:
        print(f"UNSTABLE: aborted at step {result.abort_step}; "
              f"partial series written to {energy_path}")
        return EXIT_NUMERICAL
    print(f"completed {n_steps} steps to t={result.times[-1]:.6g}")
    print(f"max |energy error|: {np.abs(result.energy_errors).max():.3e}")
    return EXIT_OK


def cmd_mesh_convert(args) -> int:
    started = time.monotonic()
    mesh, source = _load_mesh(args)
    prefix = args.out_prefix
    if mesh.dim == 2:
        paths = [prefix + ".node", prefix + ".ele", prefix + ".edge"]
        write_triangle_mesh(mesh, *paths)
    elif mesh.dim == 3:
        paths = [prefix + ".node", prefix + ".ele", prefix + ".face"]
        write_tetgen_mesh(mesh, *paths)
    else:
        raise MeshFormatError("no on-disk format for 1D meshes")
    for p in paths:
        print(f"wrote {p}")
    _write_manifest(prefix + ".manifest.json", "mesh-convert",
                    {"mesh": source}, paths, started)
    return EXIT_OK


# -- parser -----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # exit 1, an input error: argparse's 2 is the numerical-failure code
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _add_mesh_args(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--mesh", nargs="+", metavar="PATH",
                       help="Triangle/TetGen mesh files: NODE ELE [EDGE|FACE|POLY]. "
                            "The NODE header gives the dimension (2 or 3); every "
                            "row has exactly the width its header declares; a "
                            "POLY file's node rows and holes are ignored")
    group.add_argument("--generate", metavar="SPEC",
                       help="structured mesh: square:N, cube:N, "
                            "interval:N[:LENGTH[:periodic]]")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wavefem",
        description="Mixed discontinuous/continuous finite elements for the "
                    "first-order wave system")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dof-report", help="count DOFs of both spaces")
    _add_mesh_args(p)
    p.add_argument("--out", help="also write the table as CSV")
    p.set_defaults(func=cmd_dof_report)

    p = sub.add_parser("spectrum", help="discrete Laplacian spectrum")
    _add_mesh_args(p)
    p.add_argument("--bc", choices=["dirichlet", "neumann"], required=True)
    p.add_argument("--count", type=int, default=8,
                   help="number of leading eigenvalues to print")
    p.add_argument("--out", help="write the spectrum to this path")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("dispersion", help="1D dispersion-relation sweep")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--out", help="write the sweep as CSV")
    p.set_defaults(func=cmd_dispersion)

    p = sub.add_parser("simulate", help="time-domain wave run")
    _add_mesh_args(p)
    p.add_argument("--config", required=True, help="key = value run settings")
    p.add_argument("--out-dir", default="wavefem_out")
    p.add_argument("--dt", type=float, help="override config dt")
    p.add_argument("--t-end", type=float, help="override config t_end")
    p.add_argument("--force-dt", action="store_true",
                   help="skip the stability check on dt")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("mesh-convert", help="write a mesh in Triangle/TetGen format")
    _add_mesh_args(p)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_mesh_convert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MeshFormatError, dynamics.ConfigurationError, FileNotFoundError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        if isinstance(exc, (dispersion.AnalysisError, dispersion.DegenerateModeError)):
            print(f"invariant violation: {exc}", file=sys.stderr)
            return EXIT_INVARIANT
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
