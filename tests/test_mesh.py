import importlib.util
import os
import re

import numpy as np
import pytest

import wavefem as wf
from wavefem.mesh import CELL_EDGES, CELL_FACETS, Mesh, MeshFormatError, _unique_rows

from conftest import generate, load_cube, load_square, mesh_path


TRI_NODE = "3 2 0 0\n1 0 0\n2 1 0\n3 0 1\n"
TRI_ELE = "1 3 0\n1 1 2 3\n"
TET_NODE = "4 3 0 0\n1 0 0 0\n2 1 0 0\n3 0 1 0\n4 0 0 1\n"
TET_ELE = "1 4 0\n1 1 2 3 4\n"


def write_single_triangle(tmp_path, base=1):
    node = tmp_path / "tri.node"
    ele = tmp_path / "tri.ele"
    o = base
    node.write_text(
        f"3 2 0 0\n{o} 0.0 0.0\n{o+1} 1.0 0.0\n{o+2} 0.0 1.0\n")
    ele.write_text(f"1 3 0\n{o} {o} {o+1} {o+2}\n")
    return str(node), str(ele)


def test_single_triangle_files(tmp_path):
    node, ele = write_single_triangle(tmp_path)
    mesh = wf.read_mesh(node, ele)
    assert mesh.n_vertices == 3
    assert mesh.n_cells == 1
    assert mesh.n_edges == 3
    assert len(mesh.boundary_facets) == 3
    assert set(mesh.boundary_markers.tolist()) == {1}


def test_index_base_detection(tmp_path):
    node0, ele0 = write_single_triangle(tmp_path / "z", base=0) if False else (None, None)
    d0 = tmp_path / "zero"
    d1 = tmp_path / "one"
    d0.mkdir()
    d1.mkdir()
    n0, e0 = write_single_triangle(d0, base=0)
    n1, e1 = write_single_triangle(d1, base=1)
    m0 = wf.read_mesh(n0, e0)
    m1 = wf.read_mesh(n1, e1)
    assert np.array_equal(m0.vertices, m1.vertices)
    assert np.array_equal(m0.cells, m1.cells)


def test_malformed_header_names_file(tmp_path):
    node = tmp_path / "bad.node"
    node.write_text("3 2 0\n")  # short header
    with pytest.raises(MeshFormatError, match="bad.node"):
        wf.read_mesh(str(node), str(node))


@pytest.mark.parametrize("data", [b"\xff\xfe3 2 0 0\n", b"3 2 0 0\n1\x00 0 0\n2 1 0\n3 0 1\n"],
                         ids=["not-utf8", "nul"])
def test_binary_file_rejected(tmp_path, data):
    node = tmp_path / "m.node"
    node.write_bytes(data)
    (tmp_path / "m.ele").write_text(TRI_ELE)
    with pytest.raises(MeshFormatError, match="m.node: not a text file"):
        wf.read_mesh(str(node), str(tmp_path / "m.ele"))


@pytest.mark.parametrize("ext,text", [
    ("node", "3 2 0 0\n1 0 0 7\n2 1 0\n3 0 1\n"),
    ("node", "3 2 0 1\n1 0 0\n2 1 0\n3 0 1\n"),
    ("ele", "1 3 0\n1 1 2 3 1\n"),
    ("edge", "3 1\n1 1 2\n2 2 3\n3 3 1\n")], ids=["node-extra", "node-marker", "ele", "edge"])
def test_rows_have_declared_width(tmp_path, ext, text):
    # a row has exactly the width its header declares; extra tokens are
    # not silently ignored
    texts = {"node": TRI_NODE, "ele": TRI_ELE, "edge": "3 0\n1 1 2\n2 2 3\n3 3 1\n", ext: text}
    for e, t in texts.items():
        (tmp_path / f"m.{e}").write_text(t)
    with pytest.raises(MeshFormatError, match=f"m.{ext}: header promised"):
        wf.read_mesh(*(str(tmp_path / f"m.{e}") for e in texts))


def test_wrong_dimension_rejected(tmp_path):
    # the node header fixes the dimension; the element width must agree.
    # Each message is matched past the path, which names this test.
    node, ele = tmp_path / "m.node", tmp_path / "m.ele"
    for node_text, ele_text, match in [
            ("1 1 0 0\n1 0.0\n", TRI_ELE, "m.node: node dimension 1, expected 2 or 3"),
            ("1 4 0 0\n1 0 0 0 0\n", TRI_ELE, "m.node: node dimension 4, expected 2 or 3"),
            (TET_NODE, TRI_ELE, "m.ele: 3 nodes per element, expected 4 for 3D nodes"),
            (TRI_NODE, TET_ELE, "m.ele: 4 nodes per element, expected 3 for 2D nodes")]:
        node.write_text(node_text)
        ele.write_text(ele_text)
        with pytest.raises(MeshFormatError, match=match):
            wf.read_mesh(str(node), str(ele))


def test_out_of_range_index(tmp_path):
    node, ele = write_single_triangle(tmp_path)
    bad = tmp_path / "bad.ele"
    bad.write_text("1 3 0\n1 1 2 9\n")
    with pytest.raises(MeshFormatError, match="out of range"):
        wf.read_mesh(node, str(bad))


def test_duplicate_index_rejected(tmp_path):
    # a repeated index would leave another row unset
    node, ele = write_single_triangle(tmp_path)
    dup_node = tmp_path / "dup.node"
    dup_node.write_text("3 2 0 0\n1 0.0 0.0\n2 1.0 0.0\n2 0.0 1.0\n")
    with pytest.raises(MeshFormatError, match="duplicate node"):
        wf.read_mesh(str(dup_node), ele)
    dup_ele = tmp_path / "dup.ele"
    dup_ele.write_text("2 3 0\n1 1 2 3\n1 1 3 2\n")
    with pytest.raises(MeshFormatError, match="duplicate element"):
        wf.read_mesh(node, str(dup_ele))


@pytest.mark.parametrize("node,ele,match", [
    ("0 2 0 0\n", TRI_ELE, "no nodes"),
    ("0 2 0 0\n", "0 3 0\n", "no nodes"),
    (TRI_NODE, "0 3 0\n", "at least one cell"),
    ("0 3 0 0\n", TET_ELE, "no nodes"),
    (TET_NODE, "0 4 0\n", "at least one cell")],
    ids=["tri-nodes", "tri-both", "tri-cells", "tet-nodes", "tet-cells"])
def test_empty_tables_rejected(tmp_path, node, ele, match):
    # an empty node table leaves no index base to read the elements with,
    # and a mesh without cells has no DOFs
    (tmp_path / "m.node").write_text(node)
    (tmp_path / "m.ele").write_text(ele)
    with pytest.raises(MeshFormatError, match=match):
        wf.read_mesh(str(tmp_path / "m.node"), str(tmp_path / "m.ele"))


def test_mesh_needs_a_cell():
    with pytest.raises(ValueError, match="at least one cell"):
        Mesh(2, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], np.zeros((0, 3), dtype=int))


TRIANGLE = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]


@pytest.mark.parametrize("args,kwargs,match", [
    ((4, np.zeros((5, 4)), [[0, 1, 2, 3, 4]]), {}, r"dim must be 1, 2 or 3, got 4"),
    ((2, np.zeros((3, 3)), [[0, 1, 2]]), {}, r"vertices must have shape \(V, 2\)"),
    ((2, TRIANGLE, [[0, 1]]), {}, r"cells must have shape \(C, 3\)"),
    ((2, TRIANGLE, [[0, 1, 3]]), {}, "cell vertex index out of range"),
    ((2, TRIANGLE, [[0, 1, 2]]), {"cell_coords": np.zeros((1, 3, 3))},
     "cell_coords shape mismatch"),
    ((2, TRIANGLE, [[0, 1, 2]]), {"boundary_markers": [1, 2]},
     "one marker per boundary facet required")],
    ids=["dim", "vertices", "cells", "index", "cell-coords", "markers"])
def test_mesh_rejects_bad_arrays(args, kwargs, match):
    with pytest.raises(ValueError, match=match):
        Mesh(*args, **kwargs)


@pytest.mark.parametrize("make,match", [
    (lambda: wf.generate_interval_mesh(0, 1.0), "n_elements must be >= 1"),
    (lambda: wf.generate_interval_mesh(4, 0.0), "length must be positive"),
    (lambda: wf.generate_interval_mesh(4, np.inf), "length must be positive and finite"),
    (lambda: wf.generate_interval_mesh(4, np.nan, periodic=True),
     "length must be positive and finite"),
    (lambda: wf.generate_interval_mesh(1, 1.0, periodic=True),
     "periodic interval needs at least 2 elements"),
    (lambda: wf.generate_square_mesh(0), "n must be >= 1")],
    ids=["interval-0", "interval-length", "interval-inf", "interval-nan", "periodic-1",
         "square-0"])
def test_generators_reject_bad_sizes(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_node_id_out_of_range(tmp_path):
    _, ele = write_single_triangle(tmp_path)
    node = tmp_path / "gap.node"
    node.write_text("3 2 0 0\n1 0.0 0.0\n2 1.0 0.0\n5 0.0 1.0\n")
    with pytest.raises(MeshFormatError, match="gap.node: node index 5 out of range"):
        wf.read_mesh(str(node), ele)


def test_first_node_index_must_be_0_or_1(tmp_path):
    _, ele = write_single_triangle(tmp_path)
    node = tmp_path / "two.node"
    node.write_text("3 2 0 0\n2 0.0 0.0\n3 1.0 0.0\n4 0.0 1.0\n")
    with pytest.raises(MeshFormatError, match="two.node: first node index must be 0 or 1, got 2"):
        wf.read_mesh(str(node), ele)


@pytest.mark.parametrize("verts,cells,facet", [
    ([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)], [(0, 1, 2), (0, 2, 3), (0, 1, 2)], (0, 2)),
    ([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (0.5, 2.0)],
     [(0, 1, 2), (0, 1, 3), (0, 1, 4)], (0, 1))],
    ids=["repeated-triangle", "fan"])
def test_facet_of_three_cells_rejected(verts, cells, facet):
    # the unit square with one triangle repeated would have area 1.5 and
    # 2 boundary facets; a fan puts three triangles on one edge
    with pytest.raises(ValueError, match=re.escape(f"facet {facet} is shared by 3 cells")):
        Mesh(2, verts, cells)


@pytest.mark.parametrize("dim,verts,cells,sums", [
    (2, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2), (0, 1, 2)], ("1", "0")),
    (3, [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)],
     [(0, 1, 2, 3), (0, 1, 2, 3)], ("0.333333", "0")),
    (2, [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.5, 0.5)],
     [(4, 0, 1), (4, 1, 2), (4, 2, 3), (4, 3, 0)], ("1.5", "0.7"))],
    ids=["doubled-triangle", "doubled-tetrahedron", "folded-fan"])
def test_cells_that_tile_no_domain_rejected(dim, verts, cells, sums):
    # no facet has three cells, yet the measures cannot sum to the flux of
    # x / d out of the facets of one cell, as a domain's do: a cell listed
    # twice leaves no such facet, and a fan centred outside the unit square
    # covers the triangle between centre and square twice, once inverted
    # (measures 1.5, the square's 1)
    match = f"cell measures sum to {sums[0]}, the flux of x / d out of the facets of one cell to"
    with pytest.raises(ValueError, match=re.escape(match) + f" {sums[1]}$"):
        Mesh(dim, verts, cells)


@pytest.mark.parametrize("name", ["square_36", "square_150", "square_1500", "cube_44", "cube_200",
                                  "cube_400", "interval:7", "interval:3:2.5:periodic",
                                  "square:1", "square:16", "cube:1", "cube:5"])
def test_fixtures_and_generated_meshes_tile_their_domains(name, request):
    # every fixture and generator passes the flux check; the measures sum to
    # the domain's (1 but for square_36, which covers part of the square)
    mesh = request.getfixturevalue(name) if "_" in name else generate(name)
    length = 2.5 if name.startswith("interval:3") else 1.0
    total = mesh.cell_measures.sum()
    assert name == "square_36" or abs(total - length) <= 1e-14 * length


def test_all_interior_edge_file_derives_facets(tmp_path):
    # an .edge file whose rows all have marker 0 names no boundary facet,
    # so the facets are derived, with marker 1
    node, ele = write_single_triangle(tmp_path)
    edge = tmp_path / "tri.edge"
    edge.write_text("3 1\n1 1 2 0\n2 2 3 0\n3 3 1 0\n")
    mesh, ref = wf.read_mesh(node, ele, str(edge)), wf.read_mesh(node, ele)
    assert np.array_equal(mesh.boundary_facets, ref.boundary_facets)
    assert mesh.boundary_markers.tolist() == [1, 1, 1]


def test_write_mesh_rejects_marker_zero(tmp_path):
    mesh = Mesh(2, TRIANGLE, [[0, 1, 2]], [[0, 1], [1, 2], [0, 2]], [1, 0, 1])
    paths = [str(tmp_path / f"m.{ext}") for ext in ("node", "ele", "edge")]
    with pytest.raises(ValueError, match="marker 0 is reserved for interior facets"):
        wf.write_mesh(mesh, *paths)
    assert not list(tmp_path.iterdir())


def test_mesh_repr():
    assert repr(wf.generate_square_mesh(1)) == (
        "Mesh(dim=2, vertices=4, cells=2, edges=5, boundary_facets=4)")


def test_negative_poly_node_count(tmp_path):
    node, ele = write_single_triangle(tmp_path)
    poly = tmp_path / "tri.poly"
    poly.write_text("-3 2 0 0\n1 1 1 2 1\n2 1\n3 0\n")
    with pytest.raises(MeshFormatError, match="negative node count"):
        wf.read_mesh(node, ele, str(poly))


def test_poly_segments_match_edge_file(tmp_path):
    # a .poly file is read for its segment section only: its inline node
    # rows are skipped and the holes after the segments are ignored
    node, ele, edge = (mesh_path(f"square_36.{ext}") for ext in ("node", "ele", "edge"))
    ref = wf.read_mesh(node, ele, edge)
    with open(node) as fh:
        node_text = fh.read()
    with open(edge) as fh:
        edge_text = fh.read()
    holes = "# holes\n2\n1 0.3 0.3\n2 0.7 0.7\n"
    for name, text in [("bare", "0 2 0 0\n" + edge_text),
                       ("inline", node_text + edge_text + holes)]:
        poly = tmp_path / f"{name}.poly"
        poly.write_text(text)
        mesh = wf.read_mesh(node, ele, str(poly))
        assert np.array_equal(mesh.boundary_facets, ref.boundary_facets), name
        assert np.array_equal(mesh.boundary_markers, ref.boundary_markers), name
    cube = [mesh_path(f"cube_44.{ext}") for ext in ("node", "ele")]
    with pytest.raises(MeshFormatError, match="bare.poly: a .poly file needs 2D nodes"):
        wf.read_mesh(*cube, str(tmp_path / "bare.poly"))


def test_single_tetrahedron(tmp_path):
    node = tmp_path / "t.node"
    ele = tmp_path / "t.ele"
    node.write_text("4 3 0 0\n1 0 0 0\n2 1 0 0\n3 0 1 0\n4 0 0 1\n")
    ele.write_text("1 4 0\n1 1 2 3 4\n")
    mesh = wf.read_mesh(str(node), str(ele))
    assert mesh.n_vertices == 4
    assert mesh.n_cells == 1
    assert mesh.n_edges == 6
    assert len(mesh.boundary_facets) == 4


def test_interval_mesh():
    mesh = wf.generate_interval_mesh(4, 1.0)
    assert np.allclose(mesh.vertices.ravel(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert mesh.n_cells == 4
    assert sorted(mesh.boundary_markers.tolist()) == [1, 2]
    dofs = wf.build_dof_maps(mesh)
    assert (dofs.m_u, dofs.m_h) == (8, 9)  # 2I and 2I+1


def test_periodic_interval_mesh():
    mesh = wf.generate_interval_mesh(4, 2.0, periodic=True)
    assert mesh.n_vertices == 4
    assert len(mesh.boundary_facets) == 0
    assert np.allclose(mesh.cell_measures, 0.5)
    dofs = wf.build_dof_maps(mesh)
    assert (dofs.m_u, dofs.m_h) == (8, 8)  # one h DOF fewer than the bounded interval


def test_dirichlet_data_need_a_boundary():
    # a periodic interval has no boundary facet, so Dirichlet data on it
    # would leave the Neumann problem (a constant null mode); Neumann data
    # are what the mesh admits
    mesh = wf.generate_interval_mesh(4, 1.0, periodic=True)
    with pytest.raises(ValueError, match="^bc dirichlet needs boundary facets; "
                                         "the mesh has none$"):
        wf.BcSpec.all_dirichlet(mesh)
    ops = wf.assemble(wf.build_dof_maps(mesh), wf.BcSpec.all_neumann(mesh))
    assert len(ops.h_fixed) == 0 and wf.laplacian_spectrum(ops).null_count == 1


def test_square_mesh_counts():
    mesh = wf.generate_square_mesh(1)
    assert mesh.n_vertices == 4
    assert mesh.n_cells == 2
    assert mesh.n_edges == 5
    mesh2 = wf.generate_square_mesh(2)
    assert abs(mesh2.cell_measures.sum() - 1.0) <= 1e-14
    # reference: vertices in (i, j) order and two explicit triangles per
    # quad, both positively oriented, quads in (i, j) order
    for n in range(1, 5):
        mesh = wf.generate_square_mesh(n)
        s = np.linspace(0.0, 1.0, n + 1)
        cells = []
        for i in range(n):
            for j in range(n):
                v00 = i * (n + 1) + j
                v10, v01, v11 = v00 + n + 1, v00 + 1, v00 + n + 2
                cells += [[v00, v10, v11], [v00, v11, v01]]
        assert np.array_equal(mesh.vertices, [(x, y) for x in s for y in s])
        assert mesh.cells.tolist() == cells


def test_cube_mesh_counts():
    mesh = wf.generate_cube_mesh(1)
    assert mesh.n_vertices == 8
    assert mesh.n_cells == 6
    assert abs(mesh.cell_measures.sum() - 1.0) <= 1e-12
    # reference: six tetrahedra per subcube from an explicit permutation
    # table, each walking from the lowest corner one axis at a time; the
    # odd permutations give inverted cells, whose last two corners the
    # mesh swaps
    perms = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
    odd = (False, True, True, False, False, True)
    for n in range(1, 4):
        mesh = wf.generate_cube_mesh(n)
        s = np.linspace(0.0, 1.0, n + 1)
        stride = ((n + 1) ** 2, n + 1, 1)
        cells = []
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for perm, flip in zip(perms, odd):
                        walk = [i * stride[0] + j * stride[1] + k]
                        for axis in perm:
                            walk.append(walk[-1] + stride[axis])
                        if flip:
                            walk[2], walk[3] = walk[3], walk[2]
                        cells.append(walk)
        assert np.array_equal(mesh.vertices, [(x, y, z) for x in s for y in s for z in s])
        assert mesh.cells.tolist() == cells


def test_edge_extraction_shared_edge():
    verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    cells = [(0, 1, 2), (1, 3, 2)]
    mesh = Mesh(2, verts, cells)
    assert mesh.n_edges == 5  # shared edge counted once


def test_edge_extraction_order_independent():
    mesh = wf.generate_square_mesh(3)
    perm = np.random.default_rng(0).permutation(mesh.n_cells)
    shuffled = Mesh(2, mesh.vertices, mesh.cells[perm])
    assert np.array_equal(mesh.edges, shuffled.edges)
    # reference: every cell's vertex pairs, deduplicated and sorted
    pairs = {tuple(sorted(c[[a, b]].tolist()))
             for c in shuffled.cells for a, b in CELL_EDGES[2]}
    assert shuffled.edges.tolist() == sorted(map(list, pairs))
    # per-cell edge indices point at the cell's own vertex pairs
    for c, cell in enumerate(shuffled.cells):
        for k, (a, b) in enumerate(CELL_EDGES[2]):
            edge = shuffled.edges[shuffled.cell_edges[c, k]]
            assert edge.tolist() == sorted(cell[[a, b]].tolist())


@pytest.mark.parametrize("n,periodic", [(1, False), (5, False), (2, True), (5, True)])
def test_interval_cells_are_their_edges(n, periodic):
    # a 1D cell is its own and only edge, in cell order, the wrap cell
    # (n - 1, 0) too; both cells of the periodic 2-cell interval join
    # vertices 0 and 1, and each is an edge
    mesh = wf.generate_interval_mesh(n, 1.0, periodic=periodic)
    assert np.array_equal(mesh.edges, np.sort(mesh.cells, axis=1))
    assert mesh.cell_edges.tolist() == [[k] for k in range(n)]
    assert mesh.n_edges == n


@pytest.mark.parametrize("shape", [(1, 1), (40, 1), (200, 2), (300, 3)])
def test_unique_rows_match_numpy(shape):
    # the lexsort table against np.unique over rows: same rows in the same
    # order, first occurrences, inverse and counts
    rows = np.random.default_rng(shape[0]).integers(-3, 6, size=shape)
    table, *got = _unique_rows(rows)
    expect, *index = np.unique(rows, axis=0, return_index=True, return_inverse=True,
                               return_counts=True)
    assert np.array_equal(table, expect)
    assert all(np.array_equal(a, b.ravel()) for a, b in zip(got, index))


def test_degenerate_cell_rejected():
    verts = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
    with pytest.raises(ValueError, match="degenerate"):
        Mesh(2, verts, [(0, 1, 2)])


@pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
def test_degeneracy_threshold_scales_with_mesh(scale):
    # a fine mesh of a small domain is accepted, and a collinear cell is
    # rejected at every size
    verts = scale * np.array([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.0, 1.0)])
    with pytest.raises(ValueError, match="degenerate"):
        Mesh(2, verts, [(0, 1, 3), (0, 1, 2)])
    square = wf.generate_square_mesh(100)
    assert Mesh(2, scale * square.vertices, square.cells).n_cells == square.n_cells


def test_non_finite_coordinates_rejected():
    verts = [(0.0, 0.0), (1.0, 0.0), (0.0, np.inf)]
    with pytest.raises(ValueError, match="finite"):
        Mesh(2, verts, [(0, 1, 2)])


def test_cells_reoriented_positive():
    verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    mesh = Mesh(2, verts, [(0, 2, 1)])  # negatively oriented input
    assert mesh.cell_measures[0] > 0
    assert mesh.cells.tolist() == [[0, 1, 2]]
    assert mesh.cell_coords.tolist() == [[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]]
    # only the inverted tetrahedron has its last two corners swapped, in
    # the cells and in the given corner coordinates alike
    verts = np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                      (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)])
    cells = np.array([(0, 1, 2, 3), (0, 1, 2, 4)])
    mesh = Mesh(3, verts, cells, cell_coords=verts[cells])
    assert mesh.cells.tolist() == [[0, 1, 2, 3], [0, 1, 4, 2]]
    assert np.array_equal(mesh.cell_coords, verts[mesh.cells])
    assert np.allclose(mesh.cell_measures, 1.0 / 6.0)


def test_boundary_facet_must_be_on_one_cell():
    verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    cells = [(0, 1, 2), (1, 3, 2)]
    with pytest.raises(ValueError, match="shared by 2"):
        Mesh(2, verts, cells, boundary_facets=[(1, 2)])


def test_boundary_facet_listed_twice():
    # a repeated facet would count twice in every boundary integral: with
    # f = 1 the Neumann load summed to 4.5 on the unit square's perimeter 4
    mesh = wf.generate_square_mesh(2)
    facets = np.vstack([mesh.boundary_facets, mesh.boundary_facets[:1]])
    with pytest.raises(ValueError, match="listed more than once"):
        Mesh(2, mesh.vertices, mesh.cells, facets, np.ones(len(facets)))
    # also when the two listings order the vertices differently
    facets[-1] = facets[0, ::-1]
    with pytest.raises(ValueError, match="listed more than once"):
        Mesh(2, mesh.vertices, mesh.cells, facets, np.ones(len(facets)))


def test_boundary_facet_must_be_a_cell_face():
    verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    cells = [(0, 1, 2), (1, 3, 2)]
    with pytest.raises(ValueError, match="not a cell face"):
        Mesh(2, verts, cells, boundary_facets=[(0, 1), (0, 3)])


def test_boundary_owners_and_normals():
    # reference: loop over cells and local facets for each boundary facet
    mesh = wf.generate_cube_mesh(2)
    for k, facet in enumerate(mesh.boundary_facets):
        owners = [(c, j) for c, cell in enumerate(mesh.cells)
                  for j in range(4) if sorted(np.delete(cell, j)) == sorted(facet)]
        assert owners == [(mesh.boundary_cells[k], mesh.boundary_local_facets[k])]
        c, j = owners[0]
        inward = mesh.cell_coords[c, j] - mesh.vertices[facet].mean(axis=0)
        assert np.dot(mesh.boundary_normals[k], inward) < 0.0
    assert abs(np.linalg.norm(mesh.boundary_normals, axis=1) - 1.0).max() <= 1e-14
    assert abs(mesh.boundary_measures.sum() - 6.0) <= 1e-13  # cube surface area


def reference_boundary_geometry(mesh):
    """Outward unit normals and measures of the boundary facets from their
    corners, one construction per dimension: +-1 in 1D, the rotated
    tangent in 2D and the cross product in 3D, each normal turned away
    from the owner's corner opposite the facet."""
    d, lf = mesh.dim, mesh.boundary_local_facets
    owner = mesh.cell_coords[mesh.boundary_cells]
    corners = np.take_along_axis(owner, np.array(CELL_FACETS[d])[lf][:, :, None], axis=1)
    if d == 1:
        normals, measures = np.ones((len(lf), 1)), np.ones(len(lf))
    elif d == 2:
        t = corners[:, 1] - corners[:, 0]
        normals, measures = np.column_stack([t[:, 1], -t[:, 0]]), np.linalg.norm(t, axis=1)
    else:
        normals = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
        measures = np.linalg.norm(normals, axis=1) / 2.0
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    inward = np.einsum("bi,bi->b", normals, owner[np.arange(len(lf)), lf] - corners[:, 0])
    normals[inward > 0.0] *= -1.0
    return normals, measures


GEOMETRY_MESHES = {
    "square_36": lambda: load_square("square_36"),
    "square_150": lambda: load_square("square_150"),
    "square_1500": lambda: load_square("square_1500"),
    "cube_44": lambda: load_cube("cube_44"),
    "cube_200": lambda: load_cube("cube_200"),
    "cube_400": lambda: load_cube("cube_400"),
    "square:4": lambda: wf.generate_square_mesh(4),
    "cube:2": lambda: wf.generate_cube_mesh(2),
    "interval:5": lambda: wf.generate_interval_mesh(5, 1.0),
    "periodic:5": lambda: wf.generate_interval_mesh(5, 1.0, periodic=True),
}


@pytest.mark.parametrize("name", GEOMETRY_MESHES)
def test_barycentric_gradients_give_boundary_geometry(name):
    mesh = GEOMETRY_MESHES[name]()
    d, G, X = mesh.dim, mesh.barycentric_gradients, mesh.cell_coords
    assert G.shape == (mesh.n_cells, d + 1, d)
    # lambda_j(x_k) = delta_jk, with lambda_j(x_0) = delta_j0 and the
    # gradient carrying it along the edge from x_0 to x_k
    lam = np.eye(d + 1)[:, :1] + G @ np.transpose(X - X[:, :1], (0, 2, 1))
    scale = (np.abs(G).max(axis=(1, 2)) * np.abs(X - X[:, :1]).max(axis=(1, 2)))[:, None, None]
    assert (np.abs(lam - np.eye(d + 1)) <= 1e-12 * scale).all()
    assert (np.abs(G.sum(axis=1)) <= 1e-12 * np.abs(G).max(axis=(1, 2))[:, None]).all()

    normals, measures = reference_boundary_geometry(mesh)
    assert np.abs(mesh.boundary_normals - normals).max(initial=0.0) <= 1e-14
    assert (np.abs(mesh.boundary_measures - measures) <= 1e-14 * measures).all()


def test_roundtrip_square(tmp_path):
    mesh = wf.generate_square_mesh(2)
    paths = [str(tmp_path / f"m.{ext}") for ext in ("node", "ele", "edge")]
    wf.write_mesh(mesh, *paths)
    back = wf.read_mesh(*paths)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.cells, mesh.cells)
    assert np.array_equal(back.boundary_facets, mesh.boundary_facets)
    assert np.array_equal(back.boundary_markers, mesh.boundary_markers)


def test_roundtrip_cube(tmp_path):
    mesh = wf.generate_cube_mesh(1)
    paths = [str(tmp_path / f"m.{ext}") for ext in ("node", "ele", "face")]
    wf.write_mesh(mesh, *paths)
    back = wf.read_mesh(*paths)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.cells, mesh.cells)
    assert np.array_equal(back.boundary_markers, mesh.boundary_markers)


def test_comments_and_interior_edges_ignored(tmp_path):
    node, ele = write_single_triangle(tmp_path)
    edge = tmp_path / "tri.edge"
    edge.write_text("# boundary edges\n3 1\n1 1 2 1\n2 2 3 0\n3 3 1 2\n")
    mesh = wf.read_mesh(node, ele, str(edge))
    # the marker-0 row is interior bookkeeping and must be dropped
    assert len(mesh.boundary_facets) == 2
    assert sorted(mesh.boundary_markers.tolist()) == [1, 2]


def test_fixture_counts(square_36, cube_44):
    assert (square_36.n_vertices, square_36.n_cells, square_36.n_edges) == (24, 36, 61)
    assert (cube_44.n_vertices, cube_44.n_cells, cube_44.n_edges) == (26, 44, 93)


def test_bcspec_disjoint():
    with pytest.raises(ValueError, match="both sets"):
        wf.BcSpec(dirichlet_markers={1}, neumann_markers={1, 2})


@pytest.mark.parametrize("name", ["square_36", "square_150", "square_1500",
                                  "cube_44", "cube_200", "cube_400"])
def test_writers_reproduce_fixture_files(tmp_path, name):
    # the committed fixtures were written by write_mesh; reading one
    # and writing it again gives the same bytes
    exts = ("node", "ele", "edge") if name.startswith("square") else ("node", "ele", "face")
    mesh = wf.read_mesh(*(mesh_path(f"{name}.{ext}") for ext in exts))
    paths = [tmp_path / f"m.{ext}" for ext in exts]
    wf.write_mesh(mesh, *map(str, paths))
    for ext, path in zip(exts, paths):
        with open(mesh_path(f"{name}.{ext}"), "rb") as fh:
            assert path.read_bytes() == fh.read(), ext


def cube_points_loop(n_side, seed, jitter, surface_only):
    """The fixture script's lattice jitter as it was first written: one
    3-value draw per kept point, in i, j, k order."""
    rng = np.random.default_rng(seed)
    h = 1.0 / n_side
    pts = []
    for i in range(n_side + 1):
        for j in range(n_side + 1):
            for k in range(n_side + 1):
                p = np.array([i, j, k], dtype=float) * h
                on_face = [i in (0, n_side), j in (0, n_side), k in (0, n_side)]
                if surface_only and sum(on_face) == 0:
                    continue
                delta = rng.uniform(-jitter * h, jitter * h, 3)
                for axis in np.nonzero(on_face)[0]:
                    delta[axis] = 0.0
                pts.append(np.clip(p + delta, 0.0, 1.0))
    return np.array(pts)


@pytest.fixture(scope="module")
def fixture_script():
    spec = importlib.util.spec_from_file_location(
        "make_fixture_meshes",
        os.path.join(os.path.dirname(__file__), "..", "scripts", "make_fixture_meshes.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n_side", [2, 3, 4])
@pytest.mark.parametrize("surface_only", [False, True])
@pytest.mark.parametrize("jitter", [0.2, 0.3])
def test_fixture_cube_points_match_lattice_loop(fixture_script, n_side, surface_only, jitter):
    # the array version draws the same stream into the same points in the
    # same order; no qhull runs, so this holds whatever scipy triangulates
    for seed in range(10):
        got = fixture_script.cube_points(n_side, seed, jitter, surface_only=surface_only)
        assert np.array_equal(got, cube_points_loop(n_side, seed, jitter, surface_only)), seed
