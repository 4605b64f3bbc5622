"""Simplicial meshes in one, two and three dimensions.

A mesh is topological (vertex-index based); per-cell corner coordinates are
kept in a separate array so that periodic interval meshes, whose wrap-around
cell has no single consistent set of global coordinates, can be assembled
like any other cell.

File I/O covers the Triangle (.node/.ele/.edge/.poly) and TetGen
(.node/.ele/.face) ASCII formats, both reading and writing. One reader,
``read_mesh``, serves both: the .node header gives the dimension, and
every data row must have exactly the width its file header declares.
Of a .poly file only the segments are read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import factorial
from typing import Callable

import numpy as np

__all__ = [
    "Mesh",
    "BcSpec",
    "MeshFormatError",
    "generate_interval_mesh",
    "generate_square_mesh",
    "generate_cube_mesh",
    "read_mesh",
    "write_triangle_mesh",
    "write_tetgen_mesh",
]


class MeshFormatError(ValueError):
    """A mesh file could not be parsed."""


# Local edges of a d-simplex (pairs of local corner indices, lexicographic).
CELL_EDGES = {
    1: ((0, 1),),
    2: ((0, 1), (0, 2), (1, 2)),
    3: ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
}

# Local facets of a d-simplex; entry j is the facet opposite corner j.
CELL_FACETS = {
    1: ((1,), (0,)),
    2: ((1, 2), (0, 2), (0, 1)),
    3: ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)),
}


def _signed_measures(cell_coords: np.ndarray) -> np.ndarray:
    """Signed measure of each simplex from its corner coordinates."""
    dim = cell_coords.shape[2]
    if dim == 1:
        return cell_coords[:, 1, 0] - cell_coords[:, 0, 0]
    diffs = cell_coords[:, 1:, :] - cell_coords[:, :1, :]
    return np.linalg.det(diffs) / factorial(dim)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One structured scalar per integer row, ordered like the rows
    lexicographically, so row tables can be searched with searchsorted."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    fields = [(f"f{i}", np.int64) for i in range(rows.shape[1])]
    return rows.view(np.dtype(fields)).reshape(len(rows))


class Mesh:
    """Simplicial mesh with derived edge table and boundary facets.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1, 2 or 3.
    vertices : (V, dim) array
        Vertex coordinates.
    cells : (C, dim+1) array
        Vertex indices per cell, at least one cell. Cells are reoriented
        so every signed measure is positive; zero-measure cells are
        rejected.
    boundary_facets : (B, dim) array, optional
        Vertex indices of boundary facets. Derived (all facets incident to
        exactly one cell, marker 1) when omitted.
    boundary_markers : (B,) array, optional
        Integer marker per boundary facet; defaults to 1.
    cell_coords : (C, dim+1, dim) array, optional
        Per-cell corner coordinates, overriding ``vertices[cells]``. Used
        by the periodic interval generator for the wrap-around cell.

    Derived attributes: ``edges`` (E, 2), the unique vertex pairs (a < b)
    in lexicographic order, and ``cell_edges`` (C, local edges), each
    cell's rows of that table in ``CELL_EDGES`` order. Per boundary facet:
    ``boundary_cells`` and ``boundary_local_facets`` name the owning cell
    and the local facet (``CELL_FACETS`` order), ``boundary_normals`` is
    the outward unit normal and ``boundary_measures`` the facet measure
    (1 for the points bounding an interval).
    """

    def __init__(self, dim, vertices, cells, boundary_facets=None,
                 boundary_markers=None, cell_coords=None):
        if dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
        self.dim = dim
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != dim:
            raise ValueError(
                f"vertices must have shape (V, {dim}), got {self.vertices.shape}")
        cells = np.ascontiguousarray(cells, dtype=np.int64)
        if cells.ndim != 2 or cells.shape[1] != dim + 1:
            raise ValueError(
                f"cells must have shape (C, {dim + 1}), got {cells.shape}")
        if len(cells) == 0:
            raise ValueError("a mesh needs at least one cell")
        if cells.min() < 0 or cells.max() >= len(self.vertices):
            raise ValueError("cell vertex index out of range")

        if cell_coords is None:
            cell_coords = self.vertices[cells]
        else:
            cell_coords = np.ascontiguousarray(cell_coords, dtype=float)
            if cell_coords.shape != (len(cells), dim + 1, dim):
                raise ValueError("cell_coords shape mismatch")
        if not np.isfinite(cell_coords).all():
            raise ValueError("vertex coordinates must be finite")

        # Canonical orientation: swap the last two corners of inverted cells.
        measures = _signed_measures(cell_coords)
        scale = max(np.ptp(self.vertices, axis=0).max(), 1.0)
        degenerate = np.abs(measures) <= 1e-13 * scale ** dim
        if degenerate.any():
            raise ValueError(
                f"degenerate (zero-measure) cells: {np.nonzero(degenerate)[0].tolist()}")
        flip = measures < 0
        if flip.any():
            cells = cells.copy()
            cells[flip, -2], cells[flip, -1] = (
                cells[flip, -1].copy(), cells[flip, -2].copy())
            cell_coords = cell_coords.copy()
            cell_coords[flip, -2], cell_coords[flip, -1] = (
                cell_coords[flip, -1].copy(), cell_coords[flip, -2].copy())
            measures = np.abs(measures)
        self.cells = cells
        self.cell_coords = cell_coords
        self.cell_measures = measures

        # One row per (cell, local edge), cell-major; the inverse of the
        # unique gives each cell's global edge indices.
        local_edges = np.array(CELL_EDGES[dim])
        edge_rows = np.sort(cells[:, local_edges], axis=2).reshape(-1, 2)
        edges, edge_index = np.unique(edge_rows, axis=0, return_inverse=True)
        self.edges = edges
        self.cell_edges = edge_index.reshape(len(cells), len(local_edges))

        # Facet incidence: one sorted row per (cell, local facet); a facet
        # seen once lies on the boundary, and its single occurrence names
        # the owning cell and local facet.
        n_facets = dim + 1
        facet_rows = np.sort(cells[:, np.array(CELL_FACETS[dim])], axis=2).reshape(-1, dim)
        facets, first, counts = np.unique(facet_rows, axis=0, return_index=True,
                                          return_counts=True)
        if boundary_facets is None:
            on_boundary = counts == 1
            boundary_facets = facets[on_boundary]
            boundary_markers = np.ones(len(boundary_facets), dtype=np.int64)
            owner_rows = first[on_boundary]
        else:
            boundary_facets = np.ascontiguousarray(boundary_facets, dtype=np.int64)
            boundary_facets = boundary_facets.reshape(-1, dim)
            if boundary_markers is None:
                boundary_markers = np.ones(len(boundary_facets), dtype=np.int64)
            else:
                boundary_markers = np.ascontiguousarray(boundary_markers, dtype=np.int64)
            if len(boundary_markers) != len(boundary_facets):
                raise ValueError("one marker per boundary facet required")
            keys = _row_keys(facets)
            wanted = _row_keys(np.sort(boundary_facets, axis=1))
            pos = np.searchsorted(keys, wanted)
            found = pos < len(keys)
            found[found] = keys[pos[found]] == wanted[found]
            if not found.all():
                f = tuple(boundary_facets[np.argmin(found)].tolist())
                raise ValueError(f"boundary facet {f} is not a cell face")
            shared = counts[pos] != 1
            if shared.any():
                k = np.argmax(shared)
                f = tuple(boundary_facets[k].tolist())
                raise ValueError(f"boundary facet {f} is shared by {counts[pos[k]]} cells")
            owner_rows = first[pos]
        self.boundary_facets = boundary_facets
        self.boundary_markers = boundary_markers
        self.boundary_cells = owner_rows // n_facets
        self.boundary_local_facets = owner_rows % n_facets
        self.boundary_normals, self.boundary_measures = self._boundary_geometry()

        for arr in (self.vertices, self.cells, self.cell_coords,
                    self.cell_measures, self.edges, self.cell_edges,
                    self.boundary_facets, self.boundary_markers,
                    self.boundary_cells, self.boundary_local_facets,
                    self.boundary_normals, self.boundary_measures):
            arr.setflags(write=False)

    # -- basic counts ------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def __repr__(self):
        return (f"Mesh(dim={self.dim}, vertices={self.n_vertices}, "
                f"cells={self.n_cells}, edges={self.n_edges}, "
                f"boundary_facets={len(self.boundary_facets)})")

    # -- boundary geometry -------------------------------------------------

    def _boundary_geometry(self):
        """Outward unit normals and measures of all boundary facets.

        Facet corners are taken from the owner's ``cell_coords`` row so
        they stay consistent with the cell geometry; the normal is oriented
        away from the owner's corner opposite the facet.
        """
        d = self.dim
        cells, lf = self.boundary_cells, self.boundary_local_facets
        owner = self.cell_coords[cells]                          # (B, d+1, d)
        corners = np.take_along_axis(
            owner, np.array(CELL_FACETS[d])[lf][:, :, None], axis=1)  # (B, d, d)
        opposite = owner[np.arange(len(lf)), lf]                 # (B, d)
        if d == 1:
            normals = np.ones((len(lf), 1))
            measures = np.ones(len(lf))
        elif d == 2:
            t = corners[:, 1] - corners[:, 0]
            normals = np.column_stack([t[:, 1], -t[:, 0]])
            measures = np.linalg.norm(t, axis=1)
        else:
            normals = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
            measures = np.linalg.norm(normals, axis=1) / 2.0
        normals = normals / np.linalg.norm(normals, axis=1)[:, None]
        outward = np.einsum("bi,bi->b", normals, corners.mean(axis=1) - opposite)
        normals[outward < 0.0] *= -1.0
        return normals, measures


# -- boundary conditions ---------------------------------------------------

def _zero(x):
    return 0.0


@dataclass(frozen=True)
class BcSpec:
    """Boundary-condition assignment by facet marker.

    Markers in ``dirichlet_markers`` prescribe the scalar field (datum
    ``g``); markers in ``neumann_markers`` prescribe its normal derivative
    (datum ``f``). The two sets must be disjoint and together must cover
    every marker present on the mesh boundary.

    Assembly calls ``g`` and ``f`` with ``(n, dim)`` arrays of boundary
    quadrature points; each result is broadcast to ``(n,)``, so a
    constant may be returned as a scalar. In 1D, where Dirichlet data are
    imposed strongly, ``g`` is also sampled at the fixed Dirichlet
    vertices, whose scalar DOFs then hold its values.
    """

    dirichlet_markers: frozenset = frozenset()
    neumann_markers: frozenset = frozenset()
    g: Callable = _zero
    f: Callable = _zero

    def __post_init__(self):
        object.__setattr__(self, "dirichlet_markers",
                           frozenset(self.dirichlet_markers))
        object.__setattr__(self, "neumann_markers",
                           frozenset(self.neumann_markers))
        overlap = self.dirichlet_markers & self.neumann_markers
        if overlap:
            raise ValueError(f"markers {sorted(overlap)} appear in both sets")

    @staticmethod
    def all_dirichlet(mesh: Mesh, g: Callable = _zero) -> "BcSpec":
        return BcSpec(frozenset(np.unique(mesh.boundary_markers).tolist()),
                      frozenset(), g=g)

    @staticmethod
    def all_neumann(mesh: Mesh, f: Callable = _zero) -> "BcSpec":
        return BcSpec(frozenset(),
                      frozenset(np.unique(mesh.boundary_markers).tolist()), f=f)


# -- structured generators -------------------------------------------------

def generate_interval_mesh(n_elements: int, length: float,
                           periodic: bool = False) -> Mesh:
    """Uniform 1D mesh of ``n_elements`` cells on [0, length].

    Non-periodic meshes carry two point boundary facets with markers 1
    (left) and 2 (right). With ``periodic=True`` the end vertices are
    identified: the mesh has ``n_elements`` vertices, no boundary facets,
    and the wrap-around cell's corner coordinates are (x_last, length).
    """
    if n_elements < 1:
        raise ValueError("n_elements must be >= 1")
    if length <= 0:
        raise ValueError("length must be positive")
    if not periodic:
        x = np.linspace(0.0, length, n_elements + 1).reshape(-1, 1)
        cells = np.column_stack([np.arange(n_elements),
                                 np.arange(1, n_elements + 1)])
        facets = np.array([[0], [n_elements]], dtype=np.int64)
        markers = np.array([1, 2], dtype=np.int64)
        return Mesh(1, x, cells, facets, markers)
    if n_elements < 2:
        raise ValueError("periodic interval needs at least 2 elements")
    x = np.linspace(0.0, length, n_elements, endpoint=False).reshape(-1, 1)
    cells = np.column_stack([np.arange(n_elements),
                             (np.arange(n_elements) + 1) % n_elements])
    coords = x[cells]
    coords[-1, 1, 0] = length  # wrap cell spans [x_last, length]
    return Mesh(1, x, cells,
                boundary_facets=np.zeros((0, 1), dtype=np.int64),
                boundary_markers=np.zeros(0, dtype=np.int64),
                cell_coords=coords)


def generate_square_mesh(n: int) -> Mesh:
    """Unit square split into n x n quads, each cut into two triangles."""
    if n < 1:
        raise ValueError("n must be >= 1")
    s = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(s, s, indexing="ij")
    verts = np.column_stack([xx.ravel(), yy.ravel()])
    # lower-left vertex of each quad, quads ordered by (i, j)
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    v10, v01, v11 = v00 + n + 1, v00 + 1, v00 + n + 2
    cells = np.stack([np.column_stack([v00, v10, v11]),
                      np.column_stack([v00, v11, v01])], axis=1)
    return Mesh(2, verts, cells.reshape(-1, 3))


# Kuhn decomposition of the unit cube: one tetrahedron per permutation,
# walking corner-to-corner one axis at a time.
_CUBE_TET_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def generate_cube_mesh(n: int) -> Mesh:
    """Unit cube split into n^3 subcubes of six tetrahedra each."""
    if n < 1:
        raise ValueError("n must be >= 1")
    s = np.linspace(0.0, 1.0, n + 1)
    xx, yy, zz = np.meshgrid(s, s, s, indexing="ij")
    verts = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])
    # vertex-index step along each axis; each tetrahedron walks from the
    # subcube's lowest corner one axis step at a time
    stride = np.array([(n + 1) ** 2, n + 1, 1])
    walks = np.zeros((len(_CUBE_TET_PERMS), 4), dtype=np.int64)
    walks[:, 1:] = np.cumsum(stride[np.array(_CUBE_TET_PERMS)], axis=1)
    i, j, k = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    base = (i * stride[0] + j * stride[1] + k).ravel()
    cells = base[:, None, None] + walks
    return Mesh(3, verts, cells.reshape(-1, 4))


# -- Triangle / TetGen file I/O --------------------------------------------
#
# A file is read as one flat list of tokens. Its header fixes the width of
# every row, so each table is a slice of that list reshaped to (rows,
# width) and cast column by column with Python's int and float rules.

_COMMENT = re.compile(r"#.*")
_NODE_HEADER = ("count", "dimension", "attributes", "markers")


def _tokens(path) -> list:
    """Whitespace-separated tokens of a text file, ``#`` comments dropped."""
    try:
        with open(path) as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise MeshFormatError(f"{path}: not a text file") from exc
    if "\0" in text:  # numpy string arrays drop trailing NULs: "1\0" would read as 1
        raise MeshFormatError(f"{path}: not a text file")
    return _COMMENT.sub("", text).split()


def _cast(path, tokens, dtype, what) -> np.ndarray:
    """``tokens`` cast to ``dtype`` by Python's int or float rules."""
    try:
        return np.asarray(tokens).astype(dtype)
    except (ValueError, OverflowError) as exc:
        raise MeshFormatError(f"{path}: bad {what}: {exc}") from exc


def _header(path, tokens, at, kind, names) -> list:
    """The header integers ``names`` at ``tokens[at:]``. Each is a count
    or a size, so none is negative, and a ``markers`` count is 0 or 1."""
    if len(tokens) < at + len(names):
        raise MeshFormatError(
            f"{path}: {kind} header needs {len(names)} integers ({' '.join(names)})")
    values = _cast(path, tokens[at:at + len(names)], np.int64, f"{kind} header")
    if values.min() < 0:
        raise MeshFormatError(f"{path}: negative {kind} {names[values.argmin()]}")
    if names[-1] == "markers" and values[-1] > 1:
        raise MeshFormatError(f"{path}: {kind} markers must be 0 or 1, got {values[-1]}")
    return values.tolist()


def _rows(path, tokens, at, n, width, kind, trailing=False) -> np.ndarray:
    """The ``n`` rows of exactly ``width`` tokens at ``tokens[at:]`` as a
    string array. The table ends the file unless ``trailing`` is set."""
    end = at + n * width
    if len(tokens) < end or (len(tokens) > end and not trailing):
        raise MeshFormatError(
            f"{path}: header promised {n} {kind}s of {width} values, "
            f"found {len(tokens) - at} values")
    return np.array(tokens[at:end]).reshape(n, width)


def _positions(path, ids, base, kind) -> np.ndarray:
    """Row positions ``ids - base``, which must be a permutation of the
    rows: every id in range and none repeated."""
    pos = ids - base
    bad = (pos < 0) | (pos >= len(ids))
    if bad.any():
        raise MeshFormatError(f"{path}: {kind} index {ids[bad.argmax()]} out of range")
    repeated = np.bincount(pos, minlength=len(ids)) > 1
    if repeated.any():
        raise MeshFormatError(f"{path}: duplicate {kind} index {repeated.argmax() + base}")
    return pos


def _vertex_refs(path, table, base, n_vertices, kind) -> np.ndarray:
    """A table of vertex ids as 0-based vertex rows, each in range."""
    conn = table - base
    bad = ((conn < 0) | (conn >= n_vertices)).any(axis=1)
    if bad.any():
        raise MeshFormatError(
            f"{path}: {kind} row {bad.argmax() + 1}: vertex index out of range")
    return conn


def _read_nodes(path):
    """Vertex coordinates and index base (that of the first row) of a
    .node file."""
    tokens = _tokens(path)
    n, d, n_attr, marked = _header(path, tokens, 0, "node", _NODE_HEADER)
    if d not in (2, 3):
        raise MeshFormatError(f"{path}: node dimension {d}, expected 2 or 3")
    if n == 0:
        raise MeshFormatError(f"{path}: no nodes")
    rows = _rows(path, tokens, 4, n, 1 + d + n_attr + marked, "node")
    ids = _cast(path, rows[:, 0], np.int64, "node index")
    base = int(ids[0])
    if base not in (0, 1):
        raise MeshFormatError(f"{path}: first node index must be 0 or 1, got {base}")
    coords = np.empty((n, d))
    coords[_positions(path, ids, base, "node")] = _cast(path, rows[:, 1:1 + d], float,
                                                        "coordinate")
    return coords, base


def _read_cells(path, d, n_vertices, node_base):
    """Cell vertex rows of a .ele file with d + 1 nodes per element. The
    element ids are 0- or 1-based by the first row, else by the nodes."""
    tokens = _tokens(path)
    n, per, n_attr = _header(path, tokens, 0, "element", ("count", "size", "attributes"))
    if per != d + 1:
        raise MeshFormatError(
            f"{path}: {per} nodes per element, expected {d + 1} for {d}D nodes")
    rows = _rows(path, tokens, 3, n, 1 + per + n_attr, "element")
    table = _cast(path, rows[:, :1 + per], np.int64, "element row")
    ids = table[:, 0]
    base = int(ids[0]) if n and ids[0] in (0, 1) else node_base
    cells = np.empty((n, per), dtype=np.int64)
    cells[_positions(path, ids, base, "element")] = _vertex_refs(
        path, table[:, 1:], node_base, n_vertices, "element")
    return cells


def _facet_table(path, tokens, at, size, node_base, n_vertices, kind, trailing=False):
    """Facet vertex rows and markers (1 when the header declares none)
    of the facet table at ``tokens[at:]``."""
    n, marked = _header(path, tokens, at, kind, ("count", "markers"))
    rows = _rows(path, tokens, at + 2, n, 1 + size + marked, kind, trailing)
    table = _cast(path, rows, np.int64, f"{kind} row")
    markers = table[:, 1 + size] if marked else np.ones(n, dtype=np.int64)
    return _vertex_refs(path, table[:, 1:1 + size], node_base, n_vertices, kind), markers


def _read_facets(path, d, n_vertices, node_base):
    """Boundary facets and markers of a Triangle .edge, TetGen .face or
    Triangle .poly file; ``(None, None)`` when it names none."""
    tokens = _tokens(path)
    if str(path).endswith(".poly"):
        if d != 2:
            raise MeshFormatError(f"{path}: a .poly file needs 2D nodes")
        # skip the inline node rows; what follows the segments is ignored
        n, pd, n_attr, marked = _header(path, tokens, 0, "node", _NODE_HEADER)
        facets, markers = _facet_table(path, tokens, 4 + n * (1 + pd + n_attr + marked),
                                       2, node_base, n_vertices, "segment", trailing=True)
        markers[markers == 0] = 1
    else:
        facets, markers = _facet_table(path, tokens, 0, d, node_base, n_vertices, "facet")
        interior = markers == 0
        facets, markers = facets[~interior], markers[~interior]
    if len(facets) == 0:
        return None, None
    return facets, markers


def read_mesh(node_path, ele_path, facet_path=None) -> Mesh:
    """Read a 2D Triangle or 3D TetGen mesh.

    The dimension d comes from the .node header and must be 2 or 3; the
    .ele header must then give d + 1 nodes per element. Every data row
    has exactly the width its file header declares (index, values,
    attributes, marker), and each file ends with its table. Node indices
    are 0- or 1-based, from the first node row; node and element ids
    must each name every row once.

    Boundary facets come from the optional ``facet_path``: a Triangle
    .edge or TetGen .face file, whose marker-0 rows are interior and
    dropped, or in 2D a Triangle .poly file, whose segments are kept
    with their markers, a marker 0 read as 1 as Triangle does for
    boundary segments; its inline node rows are skipped (vertices come
    from the .node file) and what follows the segments (holes, regional
    attributes) is ignored. Without a facet file, or when it names no
    boundary facet, the facets are derived as those of exactly one cell,
    with marker 1.
    """
    coords, base = _read_nodes(node_path)
    d = coords.shape[1]
    cells = _read_cells(ele_path, d, len(coords), base)
    facets = markers = None
    if facet_path is not None:
        facets, markers = _read_facets(facet_path, d, len(coords), base)
    try:
        return Mesh(d, coords, cells, facets, markers)
    except ValueError as exc:
        raise MeshFormatError(f"{node_path}/{ele_path}: {exc}") from exc


def _format_rows(line: str, table: np.ndarray) -> str:
    """Every row of the 2D array ``table`` formatted by the one-row
    %-format ``line``, in a single string operation."""
    return (line * len(table)) % tuple(table.ravel().tolist())


def _write_mesh_files(mesh, node_path, ele_path, facet_path):
    if (mesh.boundary_markers == 0).any():
        raise ValueError("marker 0 is reserved for interior facets")
    d = mesh.dim
    ints = " ".join(["%d"] * (d + 2)) + "\n"
    facets = np.column_stack([mesh.boundary_facets + 1, mesh.boundary_markers])
    files = [(node_path, f"{mesh.n_vertices} {d} 0 0\n", "%d" + " %r" * d + "\n", mesh.vertices),
             (ele_path, f"{mesh.n_cells} {d + 1} 0\n", ints, mesh.cells + 1),
             (facet_path, f"{len(facets)} 1\n", ints, facets)]
    for path, header, line, table in files:
        if path is not None:
            # 1-based row numbers lead each row; in the float node table
            # they print as integers, since "%d" % 1.0 == "1"
            numbered = np.column_stack([np.arange(1, len(table) + 1), table])
            with open(path, "w") as fh:
                fh.write(header + _format_rows(line, numbered))


def write_triangle_mesh(mesh: Mesh, node_path, ele_path, edge_path=None):
    """Write a 2D mesh in Triangle format with 1-based indices."""
    if mesh.dim != 2:
        raise ValueError("Triangle format is 2D only")
    _write_mesh_files(mesh, node_path, ele_path, edge_path)


def write_tetgen_mesh(mesh: Mesh, node_path, ele_path, face_path=None):
    """Write a 3D mesh in TetGen format with 1-based indices."""
    if mesh.dim != 3:
        raise ValueError("TetGen format is 3D only")
    _write_mesh_files(mesh, node_path, ele_path, face_path)
