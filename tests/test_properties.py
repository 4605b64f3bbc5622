"""Property-based tests: operator invariants and parser robustness."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import wavefem as wf
from wavefem.mesh import MeshFormatError

from conftest import load_cube
from test_assembly import divergence_reference

MESHES = {
    "interval": wf.generate_interval_mesh(6, 1.3),
    "square:5": wf.generate_square_mesh(5),
    "cube:3": wf.generate_cube_mesh(3),
    "cube_44": load_cube("cube_44"),
}
DOFS = {name: wf.build_dof_maps(mesh) for name, mesh in MESHES.items()}

coefficient = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(MESHES)), data=st.data())
def test_gradient_exact_for_quadratics(name, data):
    # grad P2 lies in P1_DG^d: for p quadratic and Dirichlet data g = p,
    # the kick (the velocity mass solve of the gradient and the boundary
    # data, as verlet_step applies it) recovers grad p at
    # every cell corner, the facet term cancelling against the data
    mesh, dofs = MESHES[name], DOFS[name]
    d = mesh.dim
    c = data.draw(coefficient)
    b = np.array(data.draw(st.lists(coefficient, min_size=d, max_size=d)))
    A = np.array(data.draw(st.lists(coefficient, min_size=d * d, max_size=d * d))).reshape(d, d)

    def p(x):
        return c + x @ b + np.einsum("...i,ij,...j->...", x, A, x)

    ops = wf.assemble(mesh, dofs, wf.BcSpec.all_dirichlet(mesh, g=p))
    h = wf.interpolate_state(mesh, dofs, p).h
    corners = mesh.cell_coords.reshape(-1, d)
    exact = b + corners @ (A + A.T)
    scale = max(1.0, np.abs(exact).max())
    u = ops.kick(h)
    assert np.abs(u[:, dofs.u_cell_dofs.ravel()] - exact.T).max() <= 1e-12 * scale


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(MESHES)), kind=st.sampled_from(["dirichlet", "neumann"]),
       seed=st.integers(0, 2 ** 32 - 1), fraction=st.floats(0.01, 1.0))
def test_verlet_step_time_reversible(name, kind, seed, fraction):
    # with g = 0 and f = 0, a step of -dt undoes a step of dt
    mesh, dofs = MESHES[name], DOFS[name]
    bc = wf.BcSpec.all_dirichlet(mesh) if kind == "dirichlet" else wf.BcSpec.all_neumann(mesh)
    ops = wf.assemble(mesh, dofs, bc)
    dt = fraction * 2.0 / np.sqrt(wf.cell_lambda_bound(ops))
    rng = np.random.default_rng(seed)
    h = rng.standard_normal(dofs.m_h)
    h[ops.h_fixed] = 0.0
    state = wf.FieldState(u=[rng.standard_normal(dofs.m_u) for _ in range(mesh.dim)], h=h)
    back = wf.verlet_step(wf.verlet_step(state, ops, dt), ops, -dt)
    scale = max(np.abs(v).max() for v in [state.h, *state.u])
    for v, w in zip([back.h, *back.u], [state.h, *state.u]):
        assert np.abs(v - w).max() <= 1e-12 * scale


def jittered(kind, n, seed):
    """``square:n`` or ``cube:n`` with every interior vertex moved by up to
    a tenth of the grid spacing per coordinate."""
    mesh = wf.generate_square_mesh(n) if kind == "square" else wf.generate_cube_mesh(n)
    x = mesh.vertices.copy()
    interior = np.all((x > 1e-12) & (x < 1.0 - 1e-12), axis=1)
    x[interior] += np.random.default_rng(seed).uniform(-0.1, 0.1, x[interior].shape) / n
    return wf.Mesh(mesh.dim, x, mesh.cells, mesh.boundary_facets, mesh.boundary_markers)


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["square", "cube"]), n=st.integers(2, 3),
       bc_kind=st.sampled_from(["dirichlet", "neumann"]), seed=st.integers(0, 2 ** 32 - 1))
def test_gradient_adjoint_to_divergence(kind, n, bc_kind, seed):
    # grad_i^T equals the scalar-side operator assembled from its own
    # integrals, facet term included, on unstructured cells
    mesh = jittered(kind, n, seed)
    dofs = wf.build_dof_maps(mesh)
    bc = wf.BcSpec.all_dirichlet(mesh) if bc_kind == "dirichlet" else wf.BcSpec.all_neumann(mesh)
    ops = wf.assemble(mesh, dofs, bc)
    for grad, div in zip(ops.grad, divergence_reference(mesh, dofs, bc)):
        assert abs(div - grad.T).max() <= 1e-13 * abs(grad).max()


# -- parser fuzzing ----------------------------------------------------------

def _valid_files(kind):
    mesh = wf.generate_square_mesh(2) if kind == "triangle" else wf.generate_cube_mesh(1)
    exts = ("node", "ele", "edge") if kind == "triangle" else ("node", "ele", "face")
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"m.{ext}") for ext in exts]
        wf.write_mesh(mesh, *paths)
        return mesh, {ext: open(path).read() for ext, path in zip(exts, paths)}


VALID = {kind: _valid_files(kind) for kind in ("triangle", "tetgen")}
# a .poly file with inline node rows, the .edge table as its segment
# section, and no holes
POLY = VALID["triangle"][1]["node"] + VALID["triangle"][1]["edge"] + "0\n"

token = st.one_of(
    st.integers(-3, 30).map(str),
    st.sampled_from(["x", "0.5", "-1.5", "nan", "inf", "1e999", "#",
                     "99999999999999999999999", "٣"]))
line = st.lists(token, max_size=6).map(" ".join)


@st.composite
def mangled(draw, text):
    """A valid file with a few lines replaced, dropped, added or cut short."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["replace", "delete", "insert", "truncate"]))
        if op == "insert" or i == len(lines):
            lines.insert(i, draw(line))
        elif op == "replace":
            lines[i] = draw(line)
        elif op == "delete":
            del lines[i]
        else:
            lines[i] = " ".join(lines[i].split()[:draw(st.integers(0, 3))])
    return "\n".join(lines) + "\n"


def _read(kind, texts):
    """Write the texts to files and read them back as one mesh."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for ext, text in texts.items():
            path = os.path.join(tmp, f"m.{ext}")
            with open(path, "wb") as fh:
                fh.write(text if isinstance(text, bytes) else text.encode())
            paths.append(path)
        return wf.read_mesh(*paths)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(VALID)), data=st.data())
def test_malformed_files_raise_mesh_format_error(kind, data):
    _, valid = VALID[kind]
    if kind == "triangle" and data.draw(st.booleans()):
        valid = {"node": valid["node"], "ele": valid["ele"], "poly": POLY}
    texts = {ext: data.draw(st.one_of(st.just(text), mangled(text),
                                      st.lists(line, max_size=5).map("\n".join),
                                      st.binary(max_size=40)))
             for ext, text in valid.items()}
    try:
        mesh = _read(kind, texts)
    except MeshFormatError:
        return
    assert isinstance(mesh, wf.Mesh)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(sorted(VALID)), data=st.data())
def test_facet_files_must_name_boundary_faces(kind, data):
    # facets that are not cell faces, are shared by two cells or are
    # listed twice are rejected; a file naming only boundary faces, each
    # once, is accepted
    mesh, valid = VALID[kind]
    d = mesh.dim
    vertex = st.integers(1, mesh.n_vertices)
    facets = data.draw(st.lists(st.lists(vertex, min_size=d, max_size=d),
                                min_size=1, max_size=5))
    facet_ext = "edge" if kind == "triangle" else "face"
    texts = dict(valid)
    texts[facet_ext] = f"{len(facets)} 1\n" + "".join(
        f"{k} " + " ".join(map(str, f)) + " 1\n" for k, f in enumerate(facets, start=1))
    boundary = {tuple(sorted(f)) for f in (mesh.boundary_facets + 1).tolist()}
    named = [tuple(sorted(f)) for f in facets]
    on_boundary = all(f in boundary for f in named)
    if on_boundary and len(set(named)) == len(named):
        assert len(_read(kind, texts).boundary_facets) == len(facets)
    else:
        try:
            _read(kind, texts)
        except MeshFormatError as exc:
            if on_boundary:
                assert "listed more than once" in str(exc)
            else:
                assert "not a cell face" in str(exc) or "shared by 2 cells" in str(exc)
        else:
            raise AssertionError("facet file naming a non-boundary or repeated face was accepted")
