"""Simplicial meshes in one, two and three dimensions.

A mesh is topological (vertex-index based); per-cell corner coordinates are
kept in a separate array so that periodic interval meshes, whose wrap-around
cell has no single consistent set of global coordinates, can be assembled
like any other cell.

``generate_square_mesh`` and ``generate_cube_mesh`` build the Kuhn
decomposition of the unit square and cube: n^d subcubes, each cut into
d! simplices, one per permutation of the axes.

File I/O covers the Triangle (.node/.ele/.edge/.poly) and TetGen
(.node/.ele/.face) ASCII formats, both reading and writing. One reader,
``read_mesh``, serves both: the .node header gives the dimension, and
every data row must have exactly the width its file header declares.
Of a .poly file only the segments are read. One writer, ``write_mesh``,
writes both, picking the format by the mesh dimension.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import permutations
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
    "write_mesh",
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


def _unique_rows(rows: np.ndarray):
    """``np.unique(rows, axis=0)`` of an integer table with its index,
    inverse and counts, by one stable ``np.lexsort`` (first occurrences)."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    starts = np.flatnonzero(starts)
    return ordered[starts], order[starts], inverse, np.diff(np.append(starts, len(rows)))


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
        so every signed measure is positive; zero-measure cells, and a
        facet shared by more than two cells, are rejected.
    boundary_facets : (B, dim) array, optional
        Vertex indices of boundary facets. Derived (all facets incident to
        exactly one cell, marker 1) when omitted. Derived and given facets
        go through one lookup: each must be a face of exactly one cell,
        and a facet listed more than once is rejected.
    boundary_markers : (B,) array, optional
        Integer marker per boundary facet; defaults to 1.
    cell_coords : (C, dim+1, dim) array, optional
        Per-cell corner coordinates, overriding ``vertices[cells]``. Used
        by the periodic interval generator for the wrap-around cell.

    Derived attributes: ``edges`` (E, 2), the unique vertex pairs (a < b) in
    lexicographic order, and ``cell_edges`` (C, local edges), each cell's
    rows of that table in ``CELL_EDGES`` order; a 1D cell is its own and
    only edge, so there ``edges`` are the sorted cells in cell order. Cell K
    is the image x = x_0 + J xi of the reference cell, column k of J the
    edge from corner 0 to corner k + 1. ``cell_measures`` is det(J) / d!,
    and row j of ``barycentric_gradients`` (C, d+1, d) is grad lambda_j:
    rows 1..d are J^{-1}, row 0 minus their sum. Boundary facet b is local
    facet j = ``boundary_local_facets[b]`` (``CELL_FACETS`` order) of cell
    K = ``boundary_cells[b]`` and lies on lambda_j = 0, so its outward unit
    normal ``boundary_normals[b]`` is -grad lambda_j / |grad lambda_j| and
    its measure ``boundary_measures[b]`` is d |K| |grad lambda_j|
    (Ciarlet 1978, section 2.2), 1 for the points bounding an interval.
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

        # Canonical orientation: one corner permutation per cell, swapping
        # the last two corners of each inverted cell.
        measures = np.linalg.det(cell_coords[:, 1:] - cell_coords[:, :1]) / factorial(dim)
        degenerate = np.abs(measures) <= 1e-13 * np.ptp(self.vertices, axis=0).max() ** dim
        if degenerate.any():
            raise ValueError(
                f"degenerate (zero-measure) cells: {np.nonzero(degenerate)[0].tolist()}")
        order = np.tile(np.arange(dim + 1), (len(cells), 1))
        order[measures < 0, -2:] = (dim, dim - 1)
        self.cells = cells = np.take_along_axis(cells, order, axis=1)
        self.cell_coords = cell_coords = np.take_along_axis(cell_coords, order[:, :, None], axis=1)
        self.cell_measures = np.abs(measures)
        jac_inv = np.linalg.inv(np.transpose(cell_coords[:, 1:] - cell_coords[:, :1], (0, 2, 1)))
        self.barycentric_gradients = np.concatenate(
            [-jac_inv.sum(axis=1, keepdims=True), jac_inv], axis=1)

        # One row per (cell, local edge), cell-major; the inverse of the
        # unique gives each cell's global edge indices.
        local_edges = np.array(CELL_EDGES[dim])
        edge_rows = np.sort(cells[:, local_edges], axis=2).reshape(-1, 2)
        if dim == 1:  # a 1D cell is its own and only edge (class docstring)
            self.edges, edge_index = edge_rows, np.arange(len(cells))
        else:
            self.edges, _, edge_index, _ = _unique_rows(edge_rows)
        self.cell_edges = edge_index.reshape(len(cells), len(local_edges))

        # Facet incidence: one sorted row per (cell, local facet); a facet
        # seen once lies on the boundary, and its single occurrence names
        # the owning cell and local facet. Derived and given boundary
        # facets go through the same lookup.
        facet_rows = np.sort(cells[:, np.array(CELL_FACETS[dim])], axis=2).reshape(-1, dim)
        facets, first, _, counts = _unique_rows(facet_rows)
        if counts.max() > 2:
            raise ValueError(f"facet {tuple(facets[counts.argmax()].tolist())} "
                             f"is shared by {counts.max()} cells")
        if boundary_facets is None:
            boundary_facets = facets[counts == 1]
        boundary_facets = np.ascontiguousarray(boundary_facets, dtype=np.int64).reshape(-1, dim)
        if boundary_markers is None:
            boundary_markers = np.ones(len(boundary_facets), dtype=np.int64)
        else:
            boundary_markers = np.ascontiguousarray(boundary_markers, dtype=np.int64)
        if len(boundary_markers) != len(boundary_facets):
            raise ValueError("one marker per boundary facet required")
        # a cell face, listed first, heads the group of each wanted copy
        _, head, group, _ = _unique_rows(np.vstack([facets, np.sort(boundary_facets, axis=1)]))
        pos = head[group[len(facets):]]
        missing, pos = pos >= len(facets), np.minimum(pos, len(facets) - 1)
        for bad, what in ((missing, "is not a cell face"),
                          (counts[pos] != 1, "is shared by {} cells"),
                          (np.bincount(pos, minlength=len(facets))[pos] > 1,
                           "is listed more than once")):
            if bad.any():
                k = np.argmax(bad)
                raise ValueError(f"boundary facet {tuple(boundary_facets[k].tolist())} "
                                 + what.format(counts[pos[k]]))
        self.boundary_facets, self.boundary_markers = boundary_facets, boundary_markers
        self.boundary_cells, self.boundary_local_facets = np.divmod(first[pos], dim + 1)
        # outward unit normals and measures (class docstring)
        grads = self.barycentric_gradients[self.boundary_cells, self.boundary_local_facets]
        norms = np.linalg.norm(grads, axis=1)
        self.boundary_normals = -grads / norms[:, None]
        self.boundary_measures = dim * self.cell_measures[self.boundary_cells] * norms

        for arr in (self.vertices, self.cells, self.cell_coords, self.cell_measures,
                    self.barycentric_gradients, self.edges, self.cell_edges,
                    self.boundary_facets, self.boundary_markers, self.boundary_cells,
                    self.boundary_local_facets, self.boundary_normals, self.boundary_measures):
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
        """Dirichlet data on every boundary facet, of which there must be one."""
        if not len(mesh.boundary_facets):
            raise ValueError("bc dirichlet needs boundary facets; the mesh has none")
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
    if not 0 < length < np.inf:
        raise ValueError("length must be positive and finite")
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


def _kuhn_mesh(n: int, d: int) -> Mesh:
    """Kuhn decomposition of the unit d-cube into n^d subcubes of d!
    simplices, one per permutation of the axes: each walks from its
    subcube's lowest corner to the highest, one axis step at a time
    (Kuhn 1960, IBM J. Res. Dev. 4:518)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    s = np.linspace(0.0, 1.0, n + 1)
    verts = np.column_stack([x.ravel() for x in np.meshgrid(*[s] * d, indexing="ij")])
    stride = (n + 1) ** np.arange(d - 1, -1, -1, dtype=np.int64)
    walks = np.zeros((factorial(d), d + 1), dtype=np.int64)
    walks[:, 1:] = np.cumsum(stride[list(permutations(range(d)))], axis=1)
    base = np.ravel_multi_index(np.indices((n,) * d).reshape(d, -1), (n + 1,) * d)
    return Mesh(d, verts, (base[:, None, None] + walks).reshape(-1, d + 1))


def generate_square_mesh(n: int) -> Mesh:
    """Unit square split into n x n quads, each cut into two triangles
    along its (0, 0)-(1, 1) diagonal: the Kuhn decomposition, d! = 2
    simplices per subcube (``_kuhn_mesh``)."""
    return _kuhn_mesh(n, 2)


def generate_cube_mesh(n: int) -> Mesh:
    """Unit cube split into n^3 subcubes of six tetrahedra each: the Kuhn
    decomposition, d! = 6 simplices per subcube (``_kuhn_mesh``)."""
    return _kuhn_mesh(n, 3)


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
    attributes) is ignored. Every facet the file keeps must be a face of
    exactly one cell and be listed once; a facet named twice, even with
    two markers, is a ``MeshFormatError``. Without a facet file, or when
    it names no boundary facet, the facets are derived as those of
    exactly one cell, with marker 1.
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


def write_mesh(mesh: Mesh, node_path, ele_path, facet_path):
    """Write a mesh with 1-based indices, the dual of ``read_mesh``: a 2D
    mesh as Triangle .node/.ele/.edge files, a 3D mesh as TetGen
    .node/.ele/.face files (the row layouts coincide). The facet file
    lists the boundary facets with their markers."""
    d = mesh.dim
    if d == 1:
        raise ValueError("no on-disk format for 1D meshes")
    if (mesh.boundary_markers == 0).any():
        raise ValueError("marker 0 is reserved for interior facets")
    ints = " ".join(["%d"] * (d + 2)) + "\n"
    facets = np.column_stack([mesh.boundary_facets + 1, mesh.boundary_markers])
    files = [(node_path, f"{mesh.n_vertices} {d} 0 0\n", "%d" + " %r" * d + "\n", mesh.vertices),
             (ele_path, f"{mesh.n_cells} {d + 1} 0\n", ints, mesh.cells + 1),
             (facet_path, f"{len(facets)} 1\n", ints, facets)]
    for path, header, line, table in files:
        # 1-based row numbers lead each row; in the float node table they
        # print as integers, since "%d" % 1.0 == "1"
        numbered = np.column_stack([np.arange(1, len(table) + 1), table])
        with open(path, "w") as fh:
            fh.write(header + _format_rows(line, numbered))
