"""End-to-end and per-layer benchmark of the ``wavefem`` CLI.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--out FILE]

Each sample is a fresh ``wavefem`` CLI process started by this one, one at
a time (a closed loop with one client), for S seconds. Every sample's
outputs are checked against an oracle. ``--trace 1`` adds one traced
sample that runs the same command in-process with span wrappers on the
public functions of each layer. The last line of standard output is one
JSON object: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``. ``--workload all`` runs every workload traced and prints
both. See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from typing import Callable, Optional

import oracles
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_SAMPLES = 3
RUN_BUDGET_S = 150      # a run, hung samples included, ends well within 180 s
# One BLAS thread: the work is sparse and single-threaded, and on a small
# shared machine a second BLAS thread only adds run-to-run spread.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "oracle_error": "rel"}

# Per-layer metrics: span self times summed over calls, per-call
# percentiles, layer totals, and the values the wrappers record (spans.py).
SPAN_TOTALS = ["mesh.generate", "elements.build_dof_maps", "assembly.assemble",
               "assembly.h_mass_factor", "dynamics.interpolate_state",
               "spectral.max_eigenvalue", "dynamics.stable_dt_estimate",
               "spectral.laplacian_pencil", "spectral.laplacian_spectrum"]
SPAN_PERCENTILES = [("dynamics.verlet_step", 50), ("dynamics.verlet_step", 90),
                    ("dynamics.energy", 50), ("vtk_io.write_vtk", 50)]
LAYERS = ["elements", "assembly", "spectral", "dynamics", "vtk_io"]
RECORDED = {"elements.m_h": "count", "elements.m_u": "count",
            "assembly.h_mass_nnz": "count", "assembly.grad_nnz": "count",
            "mesh.boundary_facets": "count", "dynamics.steps": "count",
            "vtk_io.snapshots": "count", "vtk_io.bytes": "bytes",
            "dynamics.stable_dt": "s"}


@dataclass
class Case:
    """One workload instance made from a seed."""

    mark: str                           # call whose first return ends set-up
    error_key: str                      # oracle error reported as oracle_error
    args: Callable[[str], list]         # sample directory -> CLI arguments
    check: Callable[[str, str], dict]   # sample directory, stdout -> errors
    config: Optional[dict] = None       # simulate config file contents


@dataclass
class Sample:
    wall_s: float
    peak_rss_mb: float
    setup_s: Optional[float] = None
    errors: dict = field(default_factory=dict)
    failure: Optional[str] = None
    child: dict = field(default_factory=dict)


def cube_simulate(seed, n=8, steps=100, dt=0.002):
    """Gaussian pulse in the Dirichlet cube with the dt check on."""
    rng = random.Random(seed)
    center = [0.5 + rng.uniform(-0.05, 0.05) for _ in range(3)]
    config = {"dt": dt, "t_end": steps * dt, "bc": "dirichlet", "ic": "gaussian",
              "center": " ".join(f"{c:.6f}" for c in center), "width": 0.1}
    return Case(
        mark="verlet_step", error_key="energy_error_max", config=config,
        args=lambda d: ["simulate", "--generate", f"cube:{n}", "--out-dir", d],
        check=lambda d, out: oracles.check_simulate(d, out, steps, energy_tol=1e-3))


def square_snapshots(seed, n=32, steps=500, dt=0.001, stride=25):
    """Neumann standing wave with VTK snapshots and no dt check."""
    modes = random.Random(seed).choice([(2, 3), (3, 2)])
    config = {"dt": dt, "t_end": steps * dt, "bc": "neumann", "ic": "standing_wave",
              "modes": " ".join(map(str, modes)), "snapshot_stride": stride}
    field_tol = 1e-3 * (32 / n) ** 3    # 3x the error measured at n = 32, O(h^3)
    return Case(
        mark="verlet_step", error_key="field_error", config=config,
        args=lambda d: ["simulate", "--generate", f"square:{n}", "--force-dt",
                        "--out-dir", d],
        check=lambda d, out: oracles.check_simulate(
            d, out, steps, energy_tol=1e-3, snapshot_stride=stride, modes=modes,
            dt=dt, field_tol=field_tol))


def square_spectrum(seed, n=48):
    """Dirichlet Laplacian spectrum by shift-invert Lanczos."""
    count = random.Random(seed).randint(8, 20)
    eig_tol = 1e-4 * (48 / n) ** 4      # 10x the error measured at n = 48, O(h^4)
    return Case(
        mark="assemble", error_key="eig_error_max",
        args=lambda d: ["spectrum", "--generate", f"square:{n}", "--bc", "dirichlet",
                        "--count", str(count), "--format", "json",
                        "--out", os.path.join(d, "spectrum.json")],
        check=lambda d, out: oracles.check_spectrum(
            os.path.join(d, "spectrum.json"), out, eig_tol=eig_tol))


WORKLOADS = {"cube-simulate": cube_simulate, "square-snapshots": square_snapshots,
             "square-spectrum": square_spectrum}


def run_sample(case, root, sample_dir, mode, timeout=RUN_BUDGET_S) -> Sample:
    """Start one CLI process, wait for it with ``wait4`` and check its outputs.

    A process still running after ``timeout`` seconds is killed and fails.
    """
    os.makedirs(sample_dir)
    result_path = os.path.join(sample_dir, "child.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), result_path, case.mark, mode,
           *case.args(sample_dir)]
    if case.config is not None:
        cfg = os.path.join(sample_dir, "run.cfg")
        with open(cfg, "w") as fh:
            fh.writelines(f"{k} = {v}\n" for k, v in case.config.items())
        cmd += ["--config", cfg]
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    stdout_path = os.path.join(sample_dir, "stdout.txt")
    with open(stdout_path, "w") as out, open(os.path.join(sample_dir, "stderr.txt"), "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=sample_dir)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        killer.cancel()
    sample = Sample(wall_s=wall, peak_rss_mb=usage.ru_maxrss / 1024.0)
    with open(stdout_path) as fh:
        stdout = fh.read()
    try:
        with open(result_path) as fh:
            sample.child = json.load(fh)
        if proc.returncode != 0:
            raise oracles.OracleError(f"exit code {proc.returncode}")
        sample.setup_s = sample.child["setup_mark"] - start
        sample.errors = case.check(sample_dir, stdout)
    except (OSError, KeyError, ValueError, oracles.OracleError) as exc:
        sample.failure = f"{type(exc).__name__}: {exc}"
        with open(os.path.join(sample_dir, "stderr.txt")) as fh:
            tail = fh.read()[-2000:]
        sample.failure += f" (exit code {proc.returncode}; stderr: {tail!r})"
    shutil.rmtree(sample_dir)
    return sample


def _percentile(values, pct):
    if not values:
        return 0.0
    if len(values) == 1 or pct == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def per_layer(traced: Sample, untraced_wall: float) -> dict:
    """Per-layer metrics from the spans and counts of one traced sample."""
    recorded = traced.child["spans"]
    own = spans.self_times(recorded)
    by_name = {}
    for (name, *_), t in zip(recorded, own):
        by_name.setdefault(name, []).append(t)
    metrics = {f"{name}_s": (sum(by_name.get(name, []), 0.0), "s") for name in SPAN_TOTALS}
    for name, pct in SPAN_PERCENTILES:
        ms = [1e3 * t for t in by_name.get(name, [])]
        metrics[f"{name}_ms.p{pct}"] = (_percentile(ms, pct), "ms")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (sum((t for (name, *_), t in zip(recorded, own)
                                           if name.split(".")[0] == layer), 0.0), "s")
    main = next(s for s in recorded if s[0] == "cli.main")
    metrics["cli.import_s"] = (traced.child["import_s"], "s")
    metrics["cli.self_s"] = (sum(by_name["cli.main"]), "s")
    metrics["trace.wall_s"] = (traced.wall_s, "s")
    metrics["trace.overhead_s"] = (traced.wall_s - untraced_wall, "s")
    metrics["trace.unaccounted_s"] = (
        traced.wall_s - traced.child["import_s"] - (main[3] - main[2]), "s")
    recorded_values = traced.child["counts"]
    for name, unit in RECORDED.items():
        metrics[name] = (recorded_values.get(name, 0), unit)
    metrics["spectral.spurious_null_modes"] = (
        traced.errors.get("spurious_null_modes", 0), "count")
    return metrics


def machine_header(root) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": BLAS_THREADS,
            "commit": commit, "loadavg_before": os.getloadavg()}


def run_workload(name, seed, seconds, trace, root, work) -> dict:
    """Closed loop of untraced samples for ``seconds``, then one traced sample."""
    case = WORKLOADS[name](seed)
    samples = []
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    while time.monotonic() < deadline:
        sample = run_sample(case, root, os.path.join(work, f"{name}-{len(samples)}"), "plain",
                            deadline - time.monotonic())
        samples.append(sample)
        typical = statistics.median(s.wall_s for s in samples)
        if len(samples) >= MIN_SAMPLES and time.monotonic() - start + typical > seconds:
            break
    traced = None
    if trace and time.monotonic() < deadline:
        traced = run_sample(case, root, os.path.join(work, f"{name}-traced"), "trace",
                            deadline - time.monotonic())
    attempted = samples + ([traced] if traced else [])
    failures = [s.failure for s in attempted if s.failure]
    ok = [s for s in samples if s.failure is None]
    for s in attempted:
        print(f"{name} sample: wall {s.wall_s:.3f} s, setup "
              f"{'-' if s.setup_s is None else format(s.setup_s, '.3f')} s, "
              f"rss {s.peak_rss_mb:.1f} MB, {s.errors or s.failure}")
    result = {"workload": name, "seed": seed, "samples": len(ok),
              "attempted": len(attempted), "failed": len(failures), "failures": failures,
              "end_to_end": {}, "per_layer": {}, "oracles": {}}
    if ok:
        e2e = {"wall_s": statistics.median(s.wall_s for s in ok),
               "setup_s": statistics.median(s.setup_s for s in ok),
               "peak_rss_mb": statistics.median(s.peak_rss_mb for s in ok),
               "oracle_error": statistics.median(s.errors[case.error_key] for s in ok)}
        result["end_to_end"] = {k: (v, END_TO_END[k]) for k, v in e2e.items()}
        for key in ok[0].errors:
            result["oracles"][key] = max(s.errors[key] for s in ok)
        if traced is not None and traced.failure is None:
            result["per_layer"] = per_layer(traced, e2e["wall_s"])
    return result


def print_result(result):
    n = result["samples"]
    print(f"{result['workload']} (seed {result['seed']}): fail_rate "
          f"{result['failed'] / result['attempted']:.3g} "
          f"({result['failed']} of {result['attempted']} runs failed)")
    for key, value in result["oracles"].items():
        print(f"  oracle {key}: {value:.6g} (worst of {n})")
    for group in ("end_to_end", "per_layer"):
        for key, (value, unit) in result[group].items():
            suffix = f" (median of {n})" if group == "end_to_end" else ""
            print(f"  {key}: {value:.6g} {unit}{suffix}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="also write every result as JSON to this file")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wavefem", "cli.py")):
        print("error: run from the repository root; src/wavefem is missing", file=sys.stderr)
        return 2
    header = machine_header(root)
    print("header: " + json.dumps(header))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = args.workload == "all" or bool(args.trace)
    work = os.path.join(root, f".perfbench_work-{os.getpid()}")
    try:
        results = [run_workload(name, args.seed, args.seconds, trace, root, work)
                   for name in names]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    header["loadavg_after"] = os.getloadavg()
    print("load average after: " + json.dumps(header["loadavg_after"]))
    for result in results:
        print_result(result)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"header": header, "results": results}, fh, indent=2)
            fh.write("\n")

    groups = ["per_layer"] if args.trace else ["end_to_end"]
    if args.workload == "all":
        groups = ["end_to_end", "per_layer"]
    if any(not r[g] for r in results for g in groups):
        print("error: no successful sample to measure", file=sys.stderr)
        return 1
    summary = {r["workload"]: {
        "correct": r["failed"] == 0, "attempted": r["attempted"], "failed": r["failed"],
        "metrics": {k: {"value": v, "unit": u} for g in groups for k, (v, u) in r[g].items()}}
        for r in results}
    print(json.dumps(summary if args.workload == "all" else summary[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
