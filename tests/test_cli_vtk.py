import json
import os
from dataclasses import replace

import numpy as np
import pytest

import wavefem as wf
from wavefem import assembly, cli, dispersion, dynamics, spectral
from wavefem.cli import main
from wavefem.elements import h_dof_coords
from wavefem.vtk_io import write_vtk

from conftest import mesh_path
from vtk_reference import reference_write_vtk


def run(argv):
    return main(argv)


def test_dof_report_generated(capsys):
    assert run(["dof-report", "--generate", "square:1"]) == 0
    out = capsys.readouterr().out
    assert "u_dofs_per_component: 6" in out
    assert "h_dofs: 9" in out


def test_dof_report_fixture(capsys, tmp_path):
    out_csv = str(tmp_path / "dofs.csv")
    code = run(["dof-report", "--mesh", mesh_path("square_36.node"),
                mesh_path("square_36.ele"), mesh_path("square_36.edge"),
                "--out", out_csv])
    assert code == 0
    out = capsys.readouterr().out
    assert "u_dofs_per_component: 108" in out
    assert "h_dofs: 85" in out
    header, row = open(out_csv).read().strip().splitlines()
    assert header.split(",")[:4] == ["dim", "cells", "vertices", "edges"]
    assert row.split(",")[1] == "36"
    assert os.path.exists(out_csv + ".manifest.json")


def test_dof_report_periodic_pair_of_cells(tmp_path):
    # the two cells of the periodic 2-cell interval are two edges, so
    # edges and edge DOFs agree: 2 vertices + 2 edges = 4 scalar DOFs
    out_csv = str(tmp_path / "f.csv")
    assert run(["dof-report", "--generate", "interval:2:1:periodic", "--out", out_csv]) == 0
    assert open(out_csv, newline="").read().splitlines()[1] == "1,2,2,2,4,4,1.0"


def test_repeated_triangle_is_an_input_error(tmp_path, capsys):
    # the unit square as triangles 1-2-3, 1-3-4 and 1-2-3 again
    node, ele = tmp_path / "sq.node", tmp_path / "sq.ele"
    node.write_text("4 2 0 0\n1 0 0\n2 1 0\n3 1 1\n4 0 1\n")
    ele.write_text("3 3 0\n1 1 2 3\n2 1 3 4\n3 1 2 3\n")
    assert run(["spectrum", "--mesh", str(node), str(ele), "--bc", "dirichlet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith("facet (0, 2) is shared by 3 cells\n")


def test_dof_report_missing_file(capsys):
    assert run(["dof-report", "--mesh", "nope.node", "nope.ele"]) == 1


def test_dof_report_short_ele_header(capsys, tmp_path):
    node = tmp_path / "m.node"
    node.write_text("3 2 0 0\n1 0 0\n2 1 0\n3 0 1\n")
    ele = tmp_path / "m.ele"
    ele.write_text("1\n1 1 2 3\n")
    assert run(["dof-report", "--mesh", str(node), str(ele)]) == 1
    assert "error:" in capsys.readouterr().err


def test_dof_report_negative_node_count(capsys, tmp_path):
    node = tmp_path / "m.node"
    node.write_text("-1 2 0 0\n")
    ele = tmp_path / "m.ele"
    ele.write_text("1 3 0\n1 1 2 3\n")
    assert run(["dof-report", "--mesh", str(node), str(ele)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "m.node" in err


@pytest.mark.parametrize("node_text,message", [
    ("0 2 0 0\n", "no nodes"),
    ("3 2 0 0\n1 0 0\n2 1 0\n3 0 1\n", "at least one cell")], ids=["nodes", "cells"])
def test_dof_report_empty_mesh(capsys, tmp_path, node_text, message):
    node = tmp_path / "m.node"
    node.write_text(node_text)
    ele = tmp_path / "m.ele"
    ele.write_text("0 3 0\n")
    assert run(["dof-report", "--mesh", str(node), str(ele)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_edge_file_facet_listed_twice(capsys, tmp_path):
    # the left edge "3 1" twice, with markers 1 and 3: this ran and exited
    # 0 with lambda_max 129.447 instead of 120 and 3 null modes instead of 5
    (tmp_path / "s.node").write_text("4 2 0 0\n1 0 0\n2 1 0\n3 0 1\n4 1 1\n")
    (tmp_path / "s.ele").write_text("2 3 0\n1 1 2 3\n2 2 4 3\n")
    (tmp_path / "s.edge").write_text(
        "5 1\n1 1 2 1\n2 2 4 1\n3 4 3 1\n4 3 1 1\n5 3 1 3\n")
    paths = [str(tmp_path / f"s.{ext}") for ext in ("node", "ele", "edge")]
    assert run(["spectrum", "--mesh", *paths, "--bc", "dirichlet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "listed more than once" in err


def test_spectrum_json(capsys, tmp_path):
    out = str(tmp_path / "eigs.json")
    code = run(["spectrum", "--mesh", mesh_path("square_150.node"),
                mesh_path("square_150.ele"), mesh_path("square_150.edge"),
                "--bc", "neumann", "--count", "4",
                "--out", out, "--format", "json"])
    assert code == 0
    payload = json.loads(open(out).read())
    assert payload["null_space_dimension"] == 1
    evs = payload["eigenvalues"][:4]
    for got, want in zip(evs, [0.0, 9.87, 9.87, 19.74]):
        assert abs(got - want) <= 5e-3 * max(1.0, want)
    manifest = json.loads(open(out + ".manifest.json").read())
    assert manifest["command"] == "spectrum"
    assert manifest["tool_version"] == wf.__version__


def read_csv(path):
    """Header and float rows of a CSV file whose every line ends in CRLF."""
    with open(path, newline="") as fh:
        lines = fh.read().split("\r\n")
    assert lines[-1] == "" and "\n" not in "".join(lines)
    return lines[0], np.array([line.split(",") for line in lines[1:-1]], dtype=float)


def test_spectrum_csv_interval(tmp_path, capsys):
    out = str(tmp_path / "eigs.csv")
    code = run(["spectrum", "--generate", "interval:64", "--bc", "dirichlet",
                "--out", out])
    assert code == 0
    header, rows = read_csv(out)
    assert header == "index,eigenvalue"
    # one row per free scalar DOF: 2 * 64 + 1 less the two fixed ends
    assert np.array_equal(rows[:, 0], np.arange(127))
    lam = rows[:, 1]
    assert abs(lam[0] - np.pi ** 2) / np.pi ** 2 <= 1e-3
    assert abs(lam[1] - 4 * np.pi ** 2) / (4 * np.pi ** 2) <= 1e-3
    # the complete dense spectrum ends at lambda_max
    assert f"lambda_max: {lam[-1]:.6g} " in capsys.readouterr().out
    assert (np.diff(lam) >= 0).all()


def test_spectrum_without_out_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["spectrum", "--generate", "square:2", "--bc", "neumann"]) == 0
    assert "null space dimension: 1\n" in capsys.readouterr().out
    assert not list(tmp_path.iterdir())


def test_dispersion_cli(capsys, tmp_path):
    out = str(tmp_path / "disp.csv")
    code = run(["dispersion", "--samples", "100", "--out", out])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "spectral gap: 0.3018" in stdout
    header, rows = read_csv(out)
    assert header == "phi,w_lower,w_upper,disc_lower,disc_upper"
    assert rows.shape == (100, 5)
    # at phi = pi the lower branch ends at 2 sqrt(2.5)
    assert abs(rows[-1, 0] - np.pi) <= 1e-15
    assert abs(rows[-1, 1] - 2.0 * np.sqrt(2.5)) <= 1e-12


def test_dispersion_two_samples(capsys):
    assert run(["dispersion", "--samples", "2"]) == 0
    assert capsys.readouterr().out == ("samples: 2\n"
                                       "max lower-branch frequency: 3.162278\n"
                                       "min upper-branch frequency: 3.464102\n"
                                       "spectral gap: 0.301824\n")


def write_config(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return str(cfg)


def test_simulate_cli(tmp_path, capsys):
    cfg = write_config(tmp_path, (
        "dt = 0.002\n"
        "t_end = 0.2\n"
        "stride = 10\n"
        "bc = neumann\n"
        "ic = gaussian\n"
        "center = 0.5 0.5\n"
        "width = 0.12\n"
        "snapshot_stride = 50\n"))
    out_dir = str(tmp_path / "out")
    code = run(["simulate", "--mesh", mesh_path("square_150.node"),
                mesh_path("square_150.ele"), mesh_path("square_150.edge"),
                "--config", cfg, "--out-dir", out_dir])
    assert code == 0
    rows = open(os.path.join(out_dir, "energy.csv")).read().strip().splitlines()
    assert rows[0] == "time,energy,energy_error"
    assert len(rows) == 1 + 100 // 10 + 1  # header + t=0 + 10 samples
    assert os.path.exists(os.path.join(out_dir, "fields_0000000.vtk"))
    assert os.path.exists(os.path.join(out_dir, "fields_0000050.vtk"))
    assert os.path.exists(os.path.join(out_dir, "manifest.json"))


@pytest.mark.parametrize("text", [
    "dt = 0.5\nt_end = 5\nbc = neumann\n",
    # (c dt)^2 overflows: sigma = 4 / (c dt)^2 is 0, which no dt passes
    "dt = 1e160\nt_end = 1e160\nbc = neumann\n",
    "dt = 1e160\nt_end = 1e160\nbc = dirichlet\n"],
    ids=["dt-0.5", "dt-1e160-neumann", "dt-1e160-dirichlet"])
def test_simulate_refuses_unstable_dt(tmp_path, capsys, text):
    cfg = write_config(tmp_path, text)
    code = run(["simulate", "--generate", "square:3", "--config", cfg,
                "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert "stability estimate" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def max_energy_error(path):
    """Largest |energy_error| of an ``energy.csv``."""
    with open(path) as fh:
        return max(abs(float(row.split(",")[2])) for row in fh.read().split()[1:])


def test_simulate_forced_blowup_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, "dt = 0.5\nt_end = 50\nbc = neumann\n")
    out_dir = str(tmp_path / "out")
    code = run(["simulate", "--generate", "square:3", "--config", cfg,
                "--out-dir", out_dir, "--force-dt"])
    assert code == 2
    assert "UNSTABLE" in capsys.readouterr().out
    energy_path = os.path.join(out_dir, "energy.csv")
    assert os.path.exists(energy_path)
    # an aborted run keeps its manifest
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["dt_check"]["path"] == "forced"
    assert manifest["outputs"] == [energy_path]
    assert manifest["peak_rss_mb"] > 0.0
    # over the rows kept before the blow-up, which are all finite
    assert 0.0 < manifest["energy_error_max"] == max_energy_error(energy_path) < np.inf


def test_simulate_blowup_hidden_by_stride_exit_code(tmp_path, capsys):
    # no energy row falls on steps 1 to 100, but every step's energy is
    # evaluated: the run is a numerical failure at the same step as with
    # stride 1
    lines = []
    for stride in (1, 1000):
        cfg = write_config(tmp_path, f"dt = 0.5\nt_end = 50\nstride = {stride}\nbc = neumann\n")
        code = run(["simulate", "--generate", "square:4", "--config", cfg,
                    "--out-dir", str(tmp_path / f"out{stride}"), "--force-dt"])
        assert code == 2
        lines.append(capsys.readouterr().out.split(";")[0])
    assert lines[0].startswith("UNSTABLE: aborted at step ") and lines[0] == lines[1]


def test_simulate_reports_final_time(tmp_path, capsys):
    # the energy stride does not divide the step count: energy samples
    # fall at steps 30, 60, 90 and the last step, 100, at t = 0.2
    cfg = write_config(tmp_path, "dt = 0.002\nt_end = 0.2\nstride = 30\n")
    assert run(["simulate", "--generate", "square:2", "--config", cfg,
                "--out-dir", str(tmp_path / "out")]) == 0
    assert "completed 100 steps to t=0.2\n" in capsys.readouterr().out


MANIFEST_KEYS = ["command", "parameters", "outputs", "tool_version", "duration_seconds",
                 "peak_rss_mb"]


@pytest.mark.parametrize("argv,manifest,parameters", [
    (["dof-report", "--generate", "square:2", "--out", "{d}/dofs.csv"],
     "{d}/dofs.csv.manifest.json", {"mesh": "square:2"}),
    (["spectrum", "--generate", "square:2", "--bc", "neumann", "--out", "{d}/eigs.json",
      "--format", "json"],
     "{d}/eigs.json.manifest.json",
     {"mesh": "square:2", "bc": "neumann", "count": 8, "format": "json"}),
    (["dispersion", "--samples", "4", "--out", "{d}/sweep.csv"],
     "{d}/sweep.csv.manifest.json", {"samples": 4}),
    (["simulate", "--generate", "square:2", "--config", "{d}/run.cfg", "--out-dir", "{d}/sim"],
     "{d}/sim/manifest.json",
     {"mesh": "square:2", "config": "{d}/run.cfg", "dt": 0.01, "n_steps": 2, "stride": 1,
      "force_dt": False}),
    (["mesh-convert", "--generate", "square:2", "--out-prefix", "{d}/mesh"],
     "{d}/mesh.manifest.json", {"mesh": "square:2"})],
    ids=["dof-report", "spectrum", "dispersion", "simulate", "mesh-convert"])
def test_every_manifest(tmp_path, capsys, argv, manifest, parameters):
    # one manifest layout for every verb; its outputs are every file the
    # run wrote besides the manifest itself
    d = str(tmp_path)
    cfg = write_config(tmp_path, "dt = 0.01\nt_end = 0.02\nsnapshot_stride = 1\n")
    assert run([a.format(d=d) for a in argv]) == 0
    with open(manifest.format(d=d)) as fh:
        record = json.load(fh)
    extra = {"spectrum": ["lambda_max"],
             "simulate": ["dt_check", "mass_solve", "energy_error_max"]}.get(argv[0], [])
    assert list(record) == MANIFEST_KEYS + extra
    assert record["command"] == argv[0]
    assert record["tool_version"] == wf.__version__
    assert record["duration_seconds"] >= 0.0
    assert record["peak_rss_mb"] > 0.0
    assert record["parameters"] == {k: v.format(d=d) if isinstance(v, str) else v
                                    for k, v in parameters.items()}
    written = {os.path.join(root, name) for root, _, names in os.walk(d) for name in names}
    assert set(record["outputs"]) == written - {manifest.format(d=d), cfg}
    assert len(record["outputs"]) == len(set(record["outputs"]))
    if argv[0] == "simulate":
        # the printed max energy error, exact to the energy.csv rows
        error_max = record["energy_error_max"]
        assert f"max |energy error|: {error_max:.3e}\n" in capsys.readouterr().out
        assert error_max == max_energy_error(os.path.join(d, "sim", "energy.csv"))


def test_simulate_manifest_dt_check(tmp_path, capsys):
    # the manifest names the path of the dt check, the certified limit and,
    # on the inertia path, sigma and the factor that decided it
    mesh = wf.read_mesh(*(mesh_path(f"square_36.{ext}")
                                   for ext in ("node", "ele", "edge")))
    ops = wf.assemble(wf.build_dof_maps(mesh), wf.BcSpec.all_neumann(mesh))
    exact = wf.stable_dt_estimate(ops)
    certified = 2.0 / np.sqrt(wf.cell_lambda_bound(ops))
    cfg = write_config(tmp_path, "bc = neumann\n")
    cases = [(0.5 * certified, [], "cell_bound"),
             (0.5 * (certified + exact), [], "inertia"),
             (0.5 * certified, ["--force-dt"], "forced"),
             ((1.0 + 1e-6) * exact, [], None)]
    for k, (dt, flags, path) in enumerate(cases):
        out_dir = str(tmp_path / f"out{k}")
        code = run(["simulate", "--mesh", mesh_path("square_36.node"),
                    mesh_path("square_36.ele"), mesh_path("square_36.edge"),
                    "--config", cfg, "--dt", repr(float(dt)), "--t-end", repr(float(2 * dt)),
                    "--out-dir", out_dir, *flags])
        if path is None:
            assert code == 1 and "stability estimate" in capsys.readouterr().err
            assert not os.path.exists(out_dir)
            continue
        assert code == 0
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        check = manifest["dt_check"]
        nnz = ops.h_mass_solver().lu.nnz
        assert manifest["mass_solve"] == {"ordering": "mmd", "factor_nnz": nnz}
        if path == "forced":
            assert check == {"path": "forced", "cell_bound_limit": None}
        elif path == "inertia":
            assert check == {"path": "inertia", "cell_bound_limit": check["cell_bound_limit"],
                             "sigma": 4.0 / dt ** 2, "nonpositive_pivots": 0,
                             "factor_nnz": nnz}
            assert check["cell_bound_limit"] < dt
        else:
            assert check == {"path": "cell_bound", "cell_bound_limit": check["cell_bound_limit"]}
            assert dt < check["cell_bound_limit"] <= certified


def test_simulate_manifest_mass_solve_3d(tmp_path):
    # a 3D run factors the mass in the nested-dissection order and records
    # the factor's stored entry count
    mesh = wf.generate_cube_mesh(3)
    ops = wf.assemble(wf.build_dof_maps(mesh), wf.BcSpec.all_dirichlet(mesh))
    cfg = write_config(tmp_path, "dt = 0.01\nt_end = 0.02\nbc = dirichlet\n")
    out_dir = str(tmp_path / "out")
    assert run(["simulate", "--generate", "cube:3", "--config", cfg, "--out-dir", out_dir]) == 0
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        solve = json.load(fh)["mass_solve"]
    assert solve == {"ordering": "nested_dissection", "factor_nnz": ops.h_mass_solver().lu.nnz}


@pytest.mark.parametrize("key,value", [("dt", "0"), ("dt", "nan"), ("t_end", "inf"),
                                       ("t_end", "-1"), ("c", "0"), ("c", "-1"),
                                       ("c", "nan")])
def test_simulate_rejects_bad_numbers(tmp_path, capsys, key, value):
    # each bad number is an input error naming its key, raised before any
    # step; dt and t_end come from the command line, c from the config
    text = "dt = 0.01\nt_end = 0.02\nbc = neumann\n"
    flags = ["--" + key.replace("_", "-"), value]
    if key == "c":
        text, flags = text + f"c = {value}\n", []
    out_dir = tmp_path / "out"
    assert run(["simulate", "--generate", "square:2", "--config", write_config(tmp_path, text),
                "--out-dir", str(out_dir), *flags]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} must be finite and positive")
    assert not out_dir.exists()


@pytest.mark.parametrize("line,message", [
    ("width = 0", "width must be finite and positive, got 0.0"),
    ("width = nan", "width must be finite and positive, got nan"),
    ("center = nan 0.5", "center must be finite"),
    ("snapshot_stride = 0", "snapshot_stride must be >= 1"),
    ("snapshot_stride = -5", "snapshot_stride must be >= 1"),
    ("stride = 0", "stride must be >= 1"),
    ("center = 0.5", "center must have one value per dimension"),
    ("ic = standing_wave\nmodes = 1 2 3", "modes must have one value per dimension"),
    ("ic = spiral", "unknown ic preset 'spiral'"),
    ("bc = robin", "unknown bc 'robin'"),
    ("width 0.1", "{cfg}:3: expected 'key = value'"),
    ("center =", "center must have one value per dimension"),
    ("modes = 1 2", "modes is not a setting of ic = gaussian"),
    ("ic = standing_wave\ncenter = 0.2 0.2", "center is not a setting of ic = standing_wave"),
    ("ic = standing_wave\nmodes =", "modes must have one value per dimension"),
    ("ic = standing_wave\nwidth = 0.1", "width is not a setting of ic = standing_wave"),
    # finite widths whose 2 width^2 underflows to 0 or overflows
    ("width = 1e-200", "2 width^2 is 0.0 for width 1e-200"),
    ("width = 1e200", "2 width^2 is inf for width 1e+200"),
    ("ic = standing_wave\nmodes = 100000000000000000000000 1",
     "{cfg}:4: bad value for 'modes'")],
    ids=["width-0", "width-nan", "center-nan", "snapshot-0", "snapshot-neg", "stride-0",
         "center-length", "modes-length", "ic", "bc", "no-equals", "center-empty",
         "modes-under-gaussian", "center-under-standing-wave", "modes-empty",
         "width-under-standing-wave", "width-underflow", "width-overflow", "modes-overflow"])
def test_simulate_rejects_bad_settings(tmp_path, capsys, line, message):
    # bad input, not a numerical failure: exit 1 before the output
    # directory is created
    cfg = write_config(tmp_path, f"dt = 0.01\nt_end = 0.05\n{line}\n")
    out_dir = tmp_path / "out"
    assert run(["simulate", "--generate", "square:2", "--config", cfg,
                "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"
    assert not out_dir.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("center", ["1e200 1e200", "100 100"])
def test_simulate_rejects_a_zero_field(tmp_path, capsys, center):
    # a Gaussian far from the mesh is 0 on it: at 1e200 its squared
    # distance overflows, at 100 its exponential underflows. With zero
    # boundary data the solution is zero, an input error with no numpy
    # warning; it is found after the output directory is made, and the run
    # removes it.
    cfg = write_config(tmp_path, f"dt = 0.01\nt_end = 0.05\ncenter = {center}\n")
    out_dir = tmp_path / "out"
    assert run(["simulate", "--generate", "square:2", "--config", cfg,
                "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == ("error: initial energy and boundary data are zero: "
                                       "the solution is zero\n")
    assert not out_dir.exists()


def test_rejected_simulate_keeps_an_existing_out_dir(tmp_path, capsys):
    # a rejected run removes only the directories it made
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "keep.txt").write_text("")
    cfg = write_config(tmp_path, "dt = 0.01\nt_end = 0.05\ncenter = 100 100\n")
    assert run(["simulate", "--generate", "square:2", "--config", cfg,
                "--out-dir", str(out_dir)]) == 1
    assert "the solution is zero" in capsys.readouterr().err
    assert os.listdir(out_dir) == ["keep.txt"]


@pytest.mark.parametrize("text,key", [("t_end = 0.05\n", "dt"), ("dt = 0.01\n", "t_end")])
def test_simulate_rejects_incomplete_config(tmp_path, capsys, text, key):
    out_dir = tmp_path / "out"
    assert run(["simulate", "--generate", "square:2", "--config", write_config(tmp_path, text),
                "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"error: config is missing {key!r}\n"
    assert not out_dir.exists()


def read_vtk_h(path):
    """Point coordinates and the scalar ``h`` of a VTK snapshot."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    n = int(lines[4].split()[1])  # "POINTS n double"
    start = lines.index("LOOKUP_TABLE default") + 1
    points = np.array([line.split() for line in lines[5:5 + n]], dtype=float)
    return points, np.array(lines[start:start + n], dtype=float)


def test_simulate_standing_wave(tmp_path, capsys):
    # the Neumann mode (1, 2) of the unit square, cos(pi sqrt(5) t)
    # cos(pi x) cos(2 pi y); comments and blank lines in the config are
    # skipped
    cfg = write_config(tmp_path, (
        "# standing wave\n"
        "\n"
        "dt = 0.01  # inside the cell bound\n"
        "t_end = 0.5\n"
        "bc = neumann\n"
        "ic = standing_wave\n"
        "modes = 1 2\n"
        "snapshot_stride = 50\n"))
    out_dir = tmp_path / "out"
    assert run(["simulate", "--generate", "square:8", "--force-dt", "--config", cfg,
                "--out-dir", str(out_dir)]) == 0
    assert "completed 50 steps to t=0.5\n" in capsys.readouterr().out
    points, h = read_vtk_h(out_dir / "fields_0000050.vtk")
    x, y = points[:, 0], points[:, 1]
    exact = np.cos(np.pi * np.sqrt(5.0) * 0.5) * np.cos(np.pi * x) * np.cos(2 * np.pi * y)
    assert np.abs(h - exact).max() <= 1.1e-2  # 3x the error measured here, 3.65e-3


@pytest.mark.parametrize("lines,key", [("center = 0.5 x", "center"),
                                       ("modes = 1.5 2\nic = standing_wave", "modes")],
                         ids=["center", "modes"])
def test_simulate_rejects_non_numeric_vector(tmp_path, capsys, lines, key):
    # a token that is not a number names its key and line, as every other
    # config error does, and exits 1 before the output directory is created
    cfg = write_config(tmp_path, f"dt = 0.01\nt_end = 0.05\n{lines}\n")
    out_dir = tmp_path / "out"
    assert run(["simulate", "--generate", "square:2", "--config", cfg,
                "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:3: bad value for {key!r}\n"
    assert not out_dir.exists()


def test_simulate_rejects_step_count_overflow(tmp_path, capsys):
    cfg = write_config(tmp_path, "dt = 1e-300\nt_end = 1e300\n")
    assert run(["simulate", "--generate", "square:2", "--config", cfg,
                "--out-dir", str(tmp_path / "out")]) == 1
    assert "t_end / dt overflows" in capsys.readouterr().err


def test_simulate_rejects_duplicate_config_key(tmp_path, capsys):
    # the first value is not silently replaced; --dt is the override
    cfg = write_config(tmp_path, "dt = 0.01\nt_end = 0.04\ndt = 0.02\n")
    out_dir = tmp_path / "out"
    assert run(["simulate", "--generate", "square:2", "--config", cfg,
                "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:3: duplicate key 'dt'\n"
    assert not out_dir.exists()


def test_simulate_exact_limit_nan_exit_code(tmp_path, capsys, monkeypatch):
    # a rejected dt names the limit; a NaN one stops the run before step 1
    # as a numerical failure, and no manifest records the NaN. The run
    # removes the directories it made, the new parent too.
    monkeypatch.setattr(dynamics, "max_eigenvalue",
                        lambda ops: spectral.LambdaMax(np.nan, 0.0, 0))
    cfg = write_config(tmp_path, "dt = 1.0\nt_end = 3.0\nbc = dirichlet\n")
    out_dir = tmp_path / "new" / "out"
    assert run(["simulate", "--generate", "square:8", "--config", cfg,
                "--out-dir", str(out_dir)]) == 2
    assert "lambda_max nan gives no stability limit" in capsys.readouterr().err
    assert not (tmp_path / "new").exists() and (tmp_path / "run.cfg").exists()


@pytest.mark.parametrize("error,code,prefix", [
    (np.linalg.LinAlgError, 2, "numerical failure: "),
    (dispersion.AnalysisError, 3, "invariant violation: "),
    (MemoryError, 1, "error: ")],
    ids=["linalg", "analysis", "memory"])
def test_numerical_error_exit_codes(capsys, monkeypatch, error, code, prefix):
    # LinAlgError subclasses ValueError, yet it is a numerical failure,
    # not an input error; a request too large for memory is an input error
    def fail(ops):
        raise error("injected")

    monkeypatch.setattr(spectral, "laplacian_spectrum", fail)
    assert run(["spectrum", "--generate", "square:2", "--bc", "neumann"]) == code
    assert capsys.readouterr().err == prefix + "injected\n"


def test_simulate_bad_config_key(tmp_path):
    cfg = write_config(tmp_path, "dt = 0.001\nt_end = 1\nwhatever = 3\n")
    assert run(["simulate", "--generate", "square:2", "--config", cfg,
                "--out-dir", str(tmp_path / "o")]) == 1


def test_simulate_out_dir_is_a_file(tmp_path, capsys):
    # an OS error on an output path is an input error, not a traceback
    cfg = write_config(tmp_path, "dt = 0.01\nt_end = 0.02\n")
    out = tmp_path / "taken"
    out.write_text("")
    assert run(["simulate", "--generate", "square:2", "--config", cfg,
                "--out-dir", str(out)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--generate", "square:2", "--bc", "dirichlet", "--out"],
    ["dof-report", "--generate", "square:2", "--out"],
    ["dispersion", "--samples", "4", "--out"],
    ["mesh-convert", "--generate", "square:2", "--out-prefix"]],
    ids=["spectrum", "dof-report", "dispersion", "mesh-convert"])
def test_missing_output_directory_rejected_before_work(tmp_path, capsys, monkeypatch, argv):
    def never(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    monkeypatch.setattr(assembly, "assemble", never)
    monkeypatch.setattr(cli, "_load_mesh", never)
    monkeypatch.setattr(dispersion, "dispersion_sweep", never)
    assert run(argv + [str(tmp_path / "nodir" / "x")]) == 1
    assert "nodir" in capsys.readouterr().err
    assert not (tmp_path / "nodir").exists()
    if argv[0] == "mesh-convert":
        # a prefix may name a directory: D.node and the rest go beside it
        with pytest.raises(AssertionError, match="work started"):
            run(argv + [str(tmp_path)])
        return
    # an existing directory is no output file
    assert run(argv + [str(tmp_path)]) == 1
    assert "is a directory" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_mesh_convert_roundtrip(tmp_path):
    prefix = str(tmp_path / "cube")
    assert run(["mesh-convert", "--generate", "cube:1",
                "--out-prefix", prefix]) == 0
    mesh = wf.read_mesh(prefix + ".node", prefix + ".ele",
                               prefix + ".face")
    ref = wf.generate_cube_mesh(1)
    assert np.array_equal(mesh.vertices, ref.vertices)
    assert np.array_equal(mesh.cells, ref.cells)


def test_mesh_convert_rejects_1d(tmp_path, capsys):
    assert run(["mesh-convert", "--generate", "interval:4",
                "--out-prefix", str(tmp_path / "i")]) == 1
    assert "1D" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_mesh_convert_poly_marker_zero(tmp_path):
    # a .poly segment with marker 0 reads as marker 1, as in Triangle, so
    # the mesh can be written back out
    (tmp_path / "t.node").write_text("3 2 0 0\n1 0 0\n2 1 0\n3 0 1\n")
    (tmp_path / "t.ele").write_text("1 3 0\n1 1 2 3\n")
    (tmp_path / "t.poly").write_text("0 2 0 0\n3 1\n1 1 2 0\n2 2 3 2\n3 3 1 0\n")
    paths = [str(tmp_path / f"t.{ext}") for ext in ("node", "ele", "poly")]
    mesh = wf.read_mesh(*paths)
    assert mesh.boundary_markers.tolist() == [1, 2, 1]
    prefix = str(tmp_path / "out")
    assert run(["mesh-convert", "--mesh", *paths, "--out-prefix", prefix]) == 0
    back = wf.read_mesh(prefix + ".node", prefix + ".ele", prefix + ".edge")
    for name in ("vertices", "cells", "boundary_facets", "boundary_markers"):
        assert np.array_equal(getattr(back, name), getattr(mesh, name)), name


@pytest.mark.parametrize("argv", [
    ["spectrum", "--generate", "square:2", "--bc", "foo"],
    ["spectrum", "--generate", "square:2"],
    ["spectrum", "--generate", "square:2", "--bc", "neumann", "--count", "x"],
    ["frobnicate"], []],
    ids=["bad-choice", "missing-option", "bad-int", "unknown-verb", "no-verb"])
def test_usage_error_exits_1(capsys, argv):
    # 2 is the numerical-failure code, so a usage error is an input error
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: wavefem") and "error: " in err


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        run([flag])
    assert exc.value.code == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("verb", ["spectrum", "simulate"])
def test_dirichlet_needs_a_boundary(tmp_path, capsys, monkeypatch, verb):
    # a periodic interval has no boundary facet, so Dirichlet data there
    # would leave the Neumann problem: an input error before assembly or any
    # output. Neumann data still run.
    out = tmp_path / "out"

    def argv(bc):
        if verb == "spectrum":
            return ["spectrum", "--generate", "interval:2:1:periodic", "--bc", bc,
                    "--format", "json", "--out", str(out)]
        cfg = write_config(tmp_path, f"dt = 0.01\nt_end = 0.05\nbc = {bc}\n")
        return ["simulate", "--generate", "interval:2:1:periodic", "--config", cfg,
                "--out-dir", str(out)]

    with monkeypatch.context() as patch:
        patch.setattr(assembly, "assemble", lambda *args: pytest.fail("assembled"))
        assert run(argv("dirichlet")) == 1
    assert capsys.readouterr().err == ("error: bc dirichlet needs boundary facets; "
                                       "the mesh has none\n")
    assert not out.exists()
    assert run(argv("neumann")) == 0 and out.exists()


def test_spectrum_rejects_negative_count(capsys):
    # a negative count used to slice off the last eigenvalues and exit 0
    assert run(["spectrum", "--generate", "square:2", "--bc", "neumann",
                "--count", "-3"]) == 1
    assert capsys.readouterr().err.startswith("error: --count must be >= 0")


@pytest.mark.filterwarnings("error")
def test_bad_generate_spec(tmp_path, capsys):
    # an unknown generator, a misspelt flag and trailing fields are all
    # input errors, found before any mesh is built; so are a size that does
    # not parse and one the generator rejects, an infinite or NaN length
    # before numpy sees it and warns
    usage = "use square:N, cube:N or interval:N[:LENGTH[:periodic]]"
    cases = {"torus:3": f"unknown generator 'torus'; {usage}",
             **{spec: f"bad --generate spec {spec!r}; {usage}"
                for spec in ("interval:4:1:periodc", "square:4:9", "cube:2:x",
                             "interval:4:1:periodic:extra")},
             "square:x": "bad --generate spec 'square:x': "
                         "invalid literal for int() with base 10: 'x'",
             "cube:0": "bad --generate spec 'cube:0': n must be >= 1",
             **{f"interval:3:{length}": f"bad --generate spec 'interval:3:{length}': "
                                        "length must be positive and finite"
                for length in ("-1", "inf", "nan")},
             "interval:1:1:periodic": "bad --generate spec 'interval:1:1:periodic': "
                                      "periodic interval needs at least 2 elements"}
    for spec, message in cases.items():
        assert run(["dof-report", "--generate", spec, "--out", str(tmp_path / "d.csv")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n", spec
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("count", [1, 4])
def test_mesh_path_count(tmp_path, capsys, count):
    paths = [mesh_path(f"square_36.{ext}") for ext in ("node", "ele", "edge", "poly")]
    assert run(["dof-report", "--mesh", *paths[:count], "--out", str(tmp_path / "d.csv")]) == 1
    assert capsys.readouterr().err == "error: --mesh takes NODE ELE [EDGE|FACE|POLY] paths\n"
    assert not list(tmp_path.iterdir())


# -- VTK writers -------------------------------------------------------------

def test_vtk_quadratic_output(tmp_path):
    mesh = wf.generate_square_mesh(2)
    dofs = wf.build_dof_maps(mesh)
    h = np.arange(dofs.m_h, dtype=float)
    u = [np.ones(dofs.m_u), 2.0 * np.ones(dofs.m_u)]
    path = tmp_path / "f.vtk"
    write_vtk(str(path), dofs, h=h, u=u)
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    n_points = mesh.n_vertices + mesh.n_edges
    assert f"POINTS {n_points} double" in text
    assert f"CELL_TYPES {mesh.n_cells}" in text
    assert "22" in text  # quadratic triangles
    assert "VECTORS u_mean double" in text
    idx = text.index("SCALARS h double")
    vals = [float(v) for v in text[idx + 2: idx + 2 + n_points]]
    assert vals == list(range(n_points))


VTK_MESHES = {
    "square:3": lambda: wf.generate_square_mesh(3),
    "cube:2": lambda: wf.generate_cube_mesh(2),
    "interval:4": lambda: wf.generate_interval_mesh(4, 1.0),
    "interval:4:periodic": lambda: wf.generate_interval_mesh(4, 1.0, periodic=True),
}


def awkward_values(n, seed):
    """Random values led by -0.0, 1e-300 and nan, which a formatter may
    print differently from ``format(value, ".16g")``."""
    v = np.random.default_rng(seed).standard_normal(n)
    v[:5] = [-0.0, -0.0, -0.0, 1e-300, np.nan]
    return v


@pytest.mark.parametrize("name", VTK_MESHES)
def test_vtk_bytes_match_reference(tmp_path, name):
    # the block writers reproduce the row-at-a-time writers byte for byte;
    # the first cell's velocity is all -0.0, so its mean prints as -0
    mesh = VTK_MESHES[name]()
    dofs = wf.build_dof_maps(mesh)
    h = awkward_values(dofs.m_h, 0)
    u = [awkward_values(dofs.m_u, i + 1) for i in range(mesh.dim)]
    got, want = tmp_path / "got.vtk", tmp_path / "want.vtk"
    write_vtk(str(got), dofs, h=h, u=u)
    reference_write_vtk(str(want), mesh, dofs, h=h, u=u)
    assert got.read_bytes() == want.read_bytes()


def test_writers_read_the_mesh_of_the_dof_map(tmp_path):
    # h_dof_coords, interpolate_state and write_vtk take no mesh: they read
    # the one the DOF map carries, so a map onto a squashed copy of the
    # same topology gives that copy's nodes and file
    square = wf.generate_square_mesh(3)
    squashed = wf.Mesh(2, square.vertices * [1.0, 0.5], square.cells,
                       square.boundary_facets, square.boundary_markers)
    dofs = wf.build_dof_maps(square)
    moved = replace(dofs, mesh=squashed)
    coords = h_dof_coords(moved)
    assert np.array_equal(coords, h_dof_coords(wf.build_dof_maps(squashed)))
    assert np.array_equal(coords, h_dof_coords(dofs) * [1.0, 0.5])
    state = wf.interpolate_state(moved, lambda x: x[:, 1])
    assert np.array_equal(state.h, coords[:, 1]) and state.u.shape == (2, dofs.m_u)
    h, u = awkward_values(dofs.m_h, 0), [awkward_values(dofs.m_u, i + 1) for i in range(2)]
    got, want, unit = (tmp_path / f"{name}.vtk" for name in ("got", "want", "unit"))
    write_vtk(str(got), moved, h=h, u=u)
    reference_write_vtk(str(want), squashed, dofs, h=h, u=u)
    write_vtk(str(unit), dofs, h=h, u=u)
    assert got.read_bytes() == want.read_bytes() != unit.read_bytes()
