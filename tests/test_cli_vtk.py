import json
import os

import numpy as np
import pytest

import wavefem as wf
from wavefem.cli import main
from wavefem.vtk_io import write_vtk, write_vtk_exploded

from conftest import mesh_path
from vtk_reference import reference_write_vtk, reference_write_vtk_exploded


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


def test_spectrum_csv_interval(tmp_path):
    out = str(tmp_path / "eigs.csv")
    code = run(["spectrum", "--generate", "interval:64", "--bc", "dirichlet",
                "--out", out])
    assert code == 0
    rows = open(out).read().strip().splitlines()[1:]
    lam = [float(r.split(",")[1]) for r in rows[:2]]
    assert abs(lam[0] - np.pi ** 2) / np.pi ** 2 <= 1e-3
    assert abs(lam[1] - 4 * np.pi ** 2) / (4 * np.pi ** 2) <= 1e-3


def test_dispersion_cli(capsys, tmp_path):
    out = str(tmp_path / "disp.csv")
    code = run(["dispersion", "--samples", "100", "--out", out])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "spectral gap: 0.3018" in stdout
    rows = open(out).read().strip().splitlines()
    last = [float(t) for t in rows[-1].split(",")]
    assert abs(last[1] - 3.16228) <= 1e-5


def test_dispersion_two_samples(capsys):
    assert run(["dispersion", "--samples", "2"]) == 0


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


def test_simulate_refuses_unstable_dt(tmp_path, capsys):
    cfg = write_config(tmp_path, "dt = 0.5\nt_end = 5\nbc = neumann\n")
    code = run(["simulate", "--generate", "square:3", "--config", cfg,
                "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert "stability estimate" in capsys.readouterr().err


def test_simulate_forced_blowup_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, "dt = 0.5\nt_end = 50\nbc = neumann\n")
    out_dir = str(tmp_path / "out")
    code = run(["simulate", "--generate", "square:3", "--config", cfg,
                "--out-dir", out_dir, "--force-dt"])
    assert code == 2
    assert "UNSTABLE" in capsys.readouterr().out
    assert os.path.exists(os.path.join(out_dir, "energy.csv"))


def test_simulate_manifest_dt_check(tmp_path):
    # the manifest names the path of the dt check and the limits it used
    mesh = wf.read_mesh(*(mesh_path(f"square_36.{ext}")
                                   for ext in ("node", "ele", "edge")))
    ops = wf.assemble(mesh, wf.build_dof_maps(mesh), wf.BcSpec.all_neumann(mesh))
    exact = wf.stable_dt_estimate(ops)
    certified = 2.0 / np.sqrt(wf.cell_lambda_bound(ops))
    cfg = write_config(tmp_path, "bc = neumann\n")
    cases = [(0.5 * certified, [], "cell_bound"),
             (0.5 * (certified + exact), [], "exact"),
             (0.5 * certified, ["--force-dt"], "forced")]
    for k, (dt, flags, path) in enumerate(cases):
        out_dir = str(tmp_path / f"out{k}")
        code = run(["simulate", "--mesh", mesh_path("square_36.node"),
                    mesh_path("square_36.ele"), mesh_path("square_36.edge"),
                    "--config", cfg, "--dt", repr(float(dt)), "--t-end", repr(float(2 * dt)),
                    "--out-dir", out_dir, *flags])
        assert code == 0
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            check = json.load(fh)["dt_check"]
        assert check["path"] == path
        if path == "forced":
            assert check["limit"] is None and check["cell_bound_limit"] is None
        elif path == "exact":
            assert check["limit"] == exact
            assert check["cell_bound_limit"] < dt
        else:
            assert check["limit"] == check["cell_bound_limit"]
            assert dt < check["limit"] <= certified


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
    ("width = 0", "width must be finite and positive"),
    ("width = nan", "width must be finite and positive"),
    ("center = nan 0.5", "center must be finite"),
    ("snapshot_stride = 0", "snapshot_stride must be >= 1"),
    ("snapshot_stride = -5", "snapshot_stride must be >= 1")],
    ids=["width-0", "width-nan", "center-nan", "snapshot-0", "snapshot-neg"])
def test_simulate_rejects_bad_settings(tmp_path, capsys, line, message):
    # bad input, not a numerical failure: exit 1 before the output
    # directory is created
    cfg = write_config(tmp_path, f"dt = 0.01\nt_end = 0.05\n{line}\n")
    out_dir = tmp_path / "out"
    assert run(["simulate", "--generate", "square:2", "--config", cfg,
                "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out_dir.exists()


def test_simulate_rejects_step_count_overflow(tmp_path, capsys):
    cfg = write_config(tmp_path, "dt = 1e-300\nt_end = 1e300\n")
    assert run(["simulate", "--generate", "square:2", "--config", cfg,
                "--out-dir", str(tmp_path / "out")]) == 1
    assert "t_end / dt overflows" in capsys.readouterr().err


def test_simulate_bad_config_key(tmp_path):
    cfg = write_config(tmp_path, "dt = 0.001\nt_end = 1\nwhatever = 3\n")
    assert run(["simulate", "--generate", "square:2", "--config", cfg,
                "--out-dir", str(tmp_path / "o")]) == 1


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


def test_spectrum_rejects_negative_count(capsys):
    # a negative count used to slice off the last eigenvalues and exit 0
    assert run(["spectrum", "--generate", "square:2", "--bc", "neumann",
                "--count", "-3"]) == 1
    assert capsys.readouterr().err.startswith("error: --count must be >= 0")


def test_bad_generate_spec():
    assert run(["dof-report", "--generate", "torus:3"]) == 1


# -- VTK writers -------------------------------------------------------------

def test_vtk_quadratic_output(tmp_path):
    mesh = wf.generate_square_mesh(2)
    dofs = wf.build_dof_maps(mesh)
    h = np.arange(dofs.m_h, dtype=float)
    u = [np.ones(dofs.m_u), 2.0 * np.ones(dofs.m_u)]
    path = tmp_path / "f.vtk"
    write_vtk(str(path), mesh, dofs, h=h, u=u)
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


def test_vtk_exploded_output(tmp_path):
    mesh = wf.generate_square_mesh(1)
    dofs = wf.build_dof_maps(mesh)
    u = [np.arange(dofs.m_u, dtype=float), np.zeros(dofs.m_u)]
    path = tmp_path / "x.vtk"
    write_vtk_exploded(str(path), mesh, dofs, u=u, h=np.ones(dofs.m_h))
    text = path.read_text().splitlines()
    assert f"POINTS {3 * mesh.n_cells} double" in text
    idx = text.index("VECTORS u double")
    first = [float(t) for t in text[idx + 1].split()]
    assert first == [0.0, 0.0, 0.0]
    # per-corner values survive: corner coefficients are not averaged
    second = [float(t) for t in text[idx + 2].split()]
    assert second[0] == 1.0


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


@pytest.mark.parametrize("with_u", [False, True])
@pytest.mark.parametrize("with_h", [False, True])
@pytest.mark.parametrize("name", VTK_MESHES)
def test_vtk_bytes_match_reference(tmp_path, name, with_h, with_u):
    # the block writers reproduce the row-at-a-time writers byte for byte;
    # the first cell's velocity is all -0.0, so its mean prints as -0
    mesh = VTK_MESHES[name]()
    dofs = wf.build_dof_maps(mesh)
    h = awkward_values(dofs.m_h, 0) if with_h else None
    u = ([awkward_values(dofs.m_u, i + 1) for i in range(mesh.dim)]
         if with_u else None)
    pairs = [(write_vtk, reference_write_vtk, dict(h=h, u=u))]
    if with_u:
        pairs.append((write_vtk_exploded, reference_write_vtk_exploded, dict(u=u, h=h)))
    for writer, reference, kw in pairs:
        got, want = tmp_path / "got.vtk", tmp_path / "want.vtk"
        writer(str(got), mesh, dofs, **kw)
        reference(str(want), mesh, dofs, **kw)
        assert got.read_bytes() == want.read_bytes()
