import os

import numpy as np
import pytest

import wavefem as wf

MESH_DIR = os.path.join(os.path.dirname(__file__), "..", "meshes")


def mesh_path(name):
    return os.path.join(MESH_DIR, name)


def load_square(name):
    return wf.read_mesh(mesh_path(f"{name}.node"),
                                 mesh_path(f"{name}.ele"),
                                 mesh_path(f"{name}.edge"))


def load_cube(name):
    return wf.read_mesh(mesh_path(f"{name}.node"),
                               mesh_path(f"{name}.ele"),
                               mesh_path(f"{name}.face"))


@pytest.fixture(scope="session")
def square_150():
    return load_square("square_150")


@pytest.fixture(scope="session")
def square_36():
    return load_square("square_36")


@pytest.fixture(scope="session")
def square_1500():
    return load_square("square_1500")


@pytest.fixture(scope="session")
def cube_44():
    return load_cube("cube_44")


@pytest.fixture(scope="session")
def cube_200():
    return load_cube("cube_200")


@pytest.fixture(scope="session")
def cube_400():
    return load_cube("cube_400")


def generate(spec):
    """The mesh of a ``square:N``, ``cube:N`` or ``interval:N`` (length 1) spec."""
    kind, n = spec.split(":")
    return getattr(wf, f"generate_{kind}_mesh")(int(n), *([1.0] if kind == "interval" else []))


def assemble_all(mesh, bc_kind="neumann"):
    dofs = wf.build_dof_maps(mesh)
    if bc_kind == "neumann":
        bc = wf.BcSpec.all_neumann(mesh)
    else:
        bc = wf.BcSpec.all_dirichlet(mesh)
    return dofs, wf.assemble(dofs, bc)


def gaussian_bump(center, width=0.1):
    center = np.asarray(center, dtype=float)

    def h0(x):
        r2 = np.sum((x - center) ** 2, axis=-1)
        return np.exp(-r2 / (2.0 * width ** 2))

    return h0
