"""Command-line interface.

Verbs: dof-report, spectrum, dispersion, simulate, mesh-convert. A
command that writes outputs returns (exit code, manifest) to ``main``,
which writes the JSON run manifest next to them so a run can be
reproduced. Every manifest has ``command``, ``parameters``, ``outputs``
(the files written), ``tool_version``, ``duration_seconds`` and
``peak_rss_mb`` (the peak resident set size in MiB). ``spectrum`` adds
``lambda_max`` (``spectral.LambdaMax``). ``simulate`` adds ``dt_check``
(``dynamics.SimulationResult.dt_check``: the dt check's path, certified
limit and pivot count), ``mass_solve`` (the ordering and stored L+U
entry count of the scalar-mass factor, ``assembly._factor``) and
``energy_error_max`` (the max |E - E0| / E0 it prints, over the energy
rows kept), and keeps its manifest when a run aborts; a run rejected
before its first step removes the output directories it made. Exit codes: 0
success, 1 input, usage or output-path error, 2 numerical failure, 3
invariant violation.

A ``simulate`` config file's keys besides ``bc`` and the ``ic`` preset are
tabled, with their defaults and checks, in ``dynamics.SimulationConfig``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import sys
import time

import numpy as np

from . import __version__
from . import assembly, dispersion, dynamics, spectral, vtk_io
from .elements import build_dof_maps
from .mesh import (BcSpec, Mesh, MeshFormatError, _format_rows, generate_cube_mesh,
                   generate_interval_mesh, generate_square_mesh, read_mesh,
                   write_mesh)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_INVARIANT = 3


def _load_mesh(args) -> tuple[Mesh, str]:
    if args.generate:
        spec = args.generate
        usage = "use square:N, cube:N or interval:N[:LENGTH[:periodic]]"
        kind, *fields = spec.split(":")
        arity = {"square": 1, "cube": 1, "interval": 3}
        if kind not in arity:
            raise MeshFormatError(f"unknown generator {kind!r}; {usage}")
        if not 1 <= len(fields) <= arity[kind] or fields[2:] not in ([], ["periodic"]):
            raise MeshFormatError(f"bad --generate spec {spec!r}; {usage}")
        try:
            n = int(fields[0])
            if kind == "interval":
                length = float(fields[1]) if len(fields) > 1 else 1.0
                return generate_interval_mesh(n, length, len(fields) == 3), spec
            generate = generate_square_mesh if kind == "square" else generate_cube_mesh
            return generate(n), spec
        except ValueError as exc:
            raise MeshFormatError(f"bad --generate spec {spec!r}: {exc}") from exc
    paths = args.mesh
    if len(paths) < 2 or len(paths) > 3:
        raise MeshFormatError("--mesh takes NODE ELE [EDGE|FACE|POLY] paths")
    return read_mesh(*paths), " ".join(paths)


def _bc_for(mesh: Mesh, kind: str) -> BcSpec:
    """All facets under ``kind``; Dirichlet data on a mesh with no boundary
    facet (a periodic interval) would leave a Neumann problem."""
    if kind == "dirichlet":
        if not len(mesh.boundary_facets):
            raise dynamics.ConfigurationError("bc dirichlet needs boundary facets; "
                                              "the mesh has none")
        return BcSpec.all_dirichlet(mesh)
    if kind == "neumann":
        return BcSpec.all_neumann(mesh)
    raise dynamics.ConfigurationError(f"unknown bc {kind!r}")


def _write_csv(path, header, line, table):
    """The header row, then each row of ``table`` by the %-format ``line``
    (``mesh._format_rows``), with CRLF line endings."""
    with open(path, "w", newline="") as fh:
        fh.write(f"{header}\r\n" + _format_rows(f"{line}\r\n", table))


def _check_output_dir(path, prefix=False):
    """Reject, before the command spends any work, an output path whose
    directory does not exist or, unless it is a file-name prefix, that is
    a directory."""
    if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(f"output directory of {path!r} does not exist")
    if path is not None and not prefix and os.path.isdir(path):
        raise IsADirectoryError(f"output path {path!r} is a directory")


# -- commands ---------------------------------------------------------------

def cmd_dof_report(args):
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
    if not args.out:
        return EXIT_OK, None
    names, values = zip(*rows)
    _write_csv(args.out, ",".join(names), "%d," * 6 + "%r", np.array([values]))
    return EXIT_OK, {"path": args.out + ".manifest.json",
                     "parameters": {"mesh": source}, "outputs": [args.out]}


def cmd_spectrum(args):
    if args.count < 0:
        raise dynamics.ConfigurationError(f"--count must be >= 0, got {args.count}")
    mesh, source = _load_mesh(args)
    dofs = build_dof_maps(mesh)
    bc = _bc_for(mesh, args.bc)
    ops = assembly.assemble(mesh, dofs, bc)
    spec = spectral.laplacian_spectrum(ops)
    count = min(args.count, len(spec.eigenvalues))
    leading = spec.eigenvalues[:count]
    # every scalar DOF, fixed ones included; the JSON n_h_dofs counts the
    # pencil's free DOFs
    print(f"h dofs: {dofs.m_h}, u dofs per component: {dofs.m_u}")
    print("leading eigenvalues: "
          + ", ".join(f"{v:.6g}" for v in leading))
    top = spec.lambda_max_solve
    print(f"lambda_max: {spec.lambda_max:.6g} (error bar {top.error:.2g}, {top.solves} solves)")
    print(f"null space dimension: {spec.null_count}")
    if not args.out:
        return EXIT_OK, None
    if args.format == "json":
        spectral.spectrum_to_json(spec, args.out, metadata={
            "mesh": source, "bc": args.bc,
            "u_dofs_per_component": dofs.m_u, "h_dofs": dofs.m_h})
    else:
        lam = spec.eigenvalues
        _write_csv(args.out, "index,eigenvalue", "%d,%r",
                   np.column_stack([np.arange(len(lam)), lam]))
    return EXIT_OK, {"path": args.out + ".manifest.json",
                     "parameters": {"mesh": source, "bc": args.bc, "count": args.count,
                                    "format": args.format},
                     "outputs": [args.out], "lambda_max": top._asdict()}


def cmd_dispersion(args):
    samples = dispersion.dispersion_sweep(args.samples)
    w_lower, w_upper = samples[:, 1].max(), samples[:, 2].min()
    print(f"samples: {len(samples)}")
    print(f"max lower-branch frequency: {w_lower:.6f}")
    print(f"min upper-branch frequency: {w_upper:.6f}")
    print(f"spectral gap: {w_upper - w_lower:.6f}")
    if not args.out:
        return EXIT_OK, None
    _write_csv(args.out, "phi,w_lower,w_upper,disc_lower,disc_upper", "%r,%r,%r,%r,%r",
               samples)
    return EXIT_OK, {"path": args.out + ".manifest.json",
                     "parameters": {"samples": args.samples}, "outputs": [args.out]}


def _parse_config(path) -> dict:
    known = {"dt": float, "t_end": float, "stride": int, "snapshot_stride": int, "c": float,
             "bc": str, "ic": str, "center": lambda v: list(map(float, v.split())), "width": float,
             "modes": lambda v: np.array(list(map(int, v.split())), dtype=np.int64)}
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            if not sep:
                raise dynamics.ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
            if key not in known:
                raise dynamics.ConfigurationError(
                    f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise dynamics.ConfigurationError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                values[key] = known[key](value)
            except (ValueError, OverflowError) as exc:
                raise dynamics.ConfigurationError(
                    f"{path}:{lineno}: bad value for {key!r}") from exc
    return values


def _initial_condition(cfg: dict, dim: int):
    preset = cfg.get("ic", "gaussian")
    own = {"gaussian": ("center", "width"), "standing_wave": ("modes",)}
    if preset not in own:
        raise dynamics.ConfigurationError(f"unknown ic preset {preset!r}")
    stray = sorted({"center", "width", "modes"}.difference(own[preset]).intersection(cfg))
    if stray:
        raise dynamics.ConfigurationError(f"{stray[0]} is not a setting of ic = {preset}")
    if preset == "gaussian":
        center = np.array(cfg.get("center", [0.5] * dim), dtype=float)
        width = cfg.get("width", 0.1)
        if len(center) != dim:
            raise dynamics.ConfigurationError("center must have one value per dimension")
        if not 0.0 < width < np.inf:
            raise dynamics.ConfigurationError(f"width must be finite and positive, got {width!r}")
        var2 = 2.0 * width * width
        if not 0.0 < var2 < np.inf:
            raise dynamics.ConfigurationError(f"2 width^2 is {var2!r} for width {width!r}")
        if not np.isfinite(center).all():
            raise dynamics.ConfigurationError("center must be finite")
        return np.errstate(over="ignore")(lambda x: np.exp(-((x - center) ** 2).sum(-1) / var2))
    modes = np.array(cfg.get("modes", [1] * dim))
    if len(modes) != dim:
        raise dynamics.ConfigurationError("modes must have one value per dimension")
    return lambda x: np.prod(np.cos(np.pi * modes * x), axis=-1)


def cmd_simulate(args):
    mesh, source = _load_mesh(args)
    cfg = _parse_config(args.config)
    for key in ("dt", "t_end"):
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
        if key not in cfg:
            raise dynamics.ConfigurationError(f"config is missing {key!r}")
    bc = _bc_for(mesh, cfg.get("bc", "neumann"))
    settings = {f.name: cfg[f.name] for f in dataclasses.fields(dynamics.SimulationConfig)
                if f.name in cfg}
    config = dynamics.SimulationConfig(**settings, ic_h=_initial_condition(cfg, mesh.dim),
                                       allow_unstable_dt=args.force_dt)

    # ``made`` is the outermost directory this run creates, which a rejected
    # run removes; an unusable path fails in ``makedirs``, before any work
    out_dir, made = args.out_dir, os.path.abspath(args.out_dir)
    while not os.path.exists(os.path.dirname(made)):
        made = os.path.dirname(made)
    made = None if os.path.exists(made) else made
    os.makedirs(out_dir, exist_ok=True)
    outputs = []

    def snapshot(step, state):
        path = os.path.join(out_dir, f"fields_{step:07d}.vtk")
        vtk_io.write_vtk(path, mesh, dofs, h=state.h, u=state.u)
        outputs.append(path)

    try:
        dofs = build_dof_maps(mesh)
        ops = assembly.assemble(mesh, dofs, bc)
        result = dynamics.simulate(ops, config, snapshot_callback=snapshot)
    except Exception:
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        raise

    energy_path = os.path.join(out_dir, "energy.csv")
    _write_csv(energy_path, "time,energy,energy_error", "%r,%r,%r",
               np.column_stack([result.times, result.energies, result.energy_errors]))
    outputs.append(energy_path)

    error_max = float(np.abs(result.energy_errors).max())  # over the kept rows
    if result.abort_step is None:
        code = EXIT_OK
        print(f"completed {config.n_steps} steps to t={result.final_state.time:.6g}")
        print(f"max |energy error|: {error_max:.3e}")
    else:
        code = EXIT_NUMERICAL
        print(f"UNSTABLE: aborted at step {result.abort_step}; "
              f"partial series written to {energy_path}")
    return code, {"path": os.path.join(out_dir, "manifest.json"),
                  "parameters": {"mesh": source, "config": str(args.config), "dt": config.dt,
                                 "n_steps": config.n_steps, "stride": config.stride,
                                 "force_dt": args.force_dt},
                  "outputs": outputs, "dt_check": result.dt_check,
                  "mass_solve": ops.h_mass_solver().summary, "energy_error_max": error_max}


def cmd_mesh_convert(args):
    mesh, source = _load_mesh(args)
    prefix = args.out_prefix
    paths = [prefix + ext for ext in (".node", ".ele", ".edge" if mesh.dim == 2 else ".face")]
    write_mesh(mesh, *paths)
    for p in paths:
        print(f"wrote {p}")
    return EXIT_OK, {"path": prefix + ".manifest.json",
                     "parameters": {"mesh": source}, "outputs": paths}


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
    p.add_argument("--config", required=True, help="key = value run settings: those of "
                   "wavefem.dynamics.SimulationConfig, bc and the ic preset")
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
    started = time.monotonic()
    try:
        _check_output_dir(getattr(args, "out", None))
        _check_output_dir(getattr(args, "out_prefix", None), prefix=True)
        code, manifest = args.func(args)
        if manifest is not None:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB; bytes on macOS
            rss /= 1024.0 ** (2 if sys.platform == "darwin" else 1)
            with open(manifest.pop("path"), "w") as fh:
                json.dump({"command": args.command, "parameters": manifest.pop("parameters"),
                           "outputs": manifest.pop("outputs"), "tool_version": __version__,
                           "duration_seconds": round(time.monotonic() - started, 6),
                           "peak_rss_mb": round(rss, 3), **manifest}, fh, indent=2)
                fh.write("\n")
        return code
    except dispersion.AnalysisError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    # LinAlgError subclasses ValueError, so it is caught before the input errors
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
