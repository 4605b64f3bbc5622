"""Smoke tests of the benchmark itself: tiny variants of the three
workloads through the harness, and corrupted outputs that the oracles
must reject.

Run from the repository root: python3 -m pytest -q perfbench
"""

import csv
import json
import os
import sys

import pytest

import oracles
import run

ROOT = os.path.dirname(run.HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from wavefem import cli  # noqa: E402

TINY = {
    "cube-simulate": dict(n=3, steps=10),
    "square-snapshots": dict(n=8, steps=40, stride=10),
    "square-spectrum": dict(n=28),
}


def _benchmark_names(group):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[group]]


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_workload_through_harness(name, tmp_path):
    case = run.WORKLOADS[name](7, **TINY[name])
    plain = run.run_sample(case, ROOT, str(tmp_path / "plain"), "plain")
    traced = run.run_sample(case, ROOT, str(tmp_path / "traced"), "trace")
    for sample in (plain, traced):
        assert sample.failure is None, sample.failure
        assert 0.0 < sample.setup_s < sample.wall_s
        assert case.error_key in sample.errors
    assert set(run.END_TO_END) == set(_benchmark_names("end_to_end"))

    metrics = run.per_layer(traced, plain.wall_s)
    assert list(metrics) == _benchmark_names("per_layer")
    # Self times of all spans add up to the root span, which with the
    # import and the interpreter's own start and exit is the whole wall.
    own = sum(run.spans.self_times(traced.child["spans"]))
    root = traced.child["spans"][0]
    assert root[0] == "cli.main" and root[1] is None
    assert own == pytest.approx(root[3] - root[2], rel=1e-9)
    accounted = (metrics["cli.import_s"][0] + own + metrics["trace.unaccounted_s"][0])
    assert accounted == pytest.approx(traced.wall_s, rel=1e-9)
    assert metrics["elements.m_h"][0] > 0 and metrics["assembly.grad_nnz"][0] > 0


def _simulate(tmp_path, case):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in case.config.items()))
    out = str(tmp_path / "out")
    assert cli.main(case.args(out) + ["--config", str(cfg)]) == 0
    return out


def test_nan_in_energy_csv_fails(tmp_path, capsys):
    case = run.square_snapshots(7, **TINY["square-snapshots"])
    out = _simulate(tmp_path, case)
    stdout = capsys.readouterr().out
    assert case.check(out, stdout)["field_error"] > 0.0

    path = os.path.join(out, "energy.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[-1][1] = "nan"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(oracles.OracleError, match="non-finite"):
        case.check(out, stdout)


def test_shifted_eigenvalue_fails(tmp_path, capsys):
    case = run.square_spectrum(7, **TINY["square-spectrum"])
    out = str(tmp_path)
    assert cli.main(case.args(out)) == 0
    stdout = capsys.readouterr().out
    errors = case.check(out, stdout)
    assert errors["spurious_null_modes"] >= 0

    path = os.path.join(out, "spectrum.json")
    with open(path) as fh:
        spec = json.load(fh)
    n_null = errors["spurious_null_modes"]
    spec["eigenvalues"][n_null] *= 1.01
    with open(path, "w") as fh:
        json.dump(spec, fh)
    with pytest.raises(oracles.OracleError, match="eigenvalue error"):
        case.check(out, stdout)
