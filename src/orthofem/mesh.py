"""Structured meshes on a square domain.

Builders produce uniform quadrilateral meshes and four triangle
patterns on the N x N lattice:

* ``boxslash``          all diagonals northeast,
* ``alternating-kuhn``  diagonal orientation alternating checkerboard
  fashion (the pattern the dual-basis machinery requires),
* ``unionjack``         eight triangles per square (both diagonals plus
  midlines, adds midpoint/center nodes),
* ``cross``             four triangles per square (both diagonals, adds
  center nodes).

Lattice nodes v(k) = h k are numbered lexicographically by (k2, k1).
Extra nodes of the unionjack/cross patterns are flagged as non-lattice
so operators defined only on lattice meshes can reject those meshes.
The default domain is the unit square; an affine rescaling to any
square ``bounds = (lo, hi)`` is supported for experiment setups.
"""

import numpy as np

__all__ = [
    "StructuredMesh",
    "HalfRefinement",
    "build_quad",
    "build_tri",
    "refine_kuhn_half",
    "element_patch",
]

TRIANGLE_PATTERNS = ("boxslash", "alternating-kuhn", "unionjack", "cross")


class StructuredMesh:
    """Immutable container for a structured mesh on a square.

    Attributes
    ----------
    n : int
        Subdivisions per side.
    kind : str
        ``"quad"`` or ``"triangle"``.
    pattern : str or None
        Triangle pattern tag; None for quad meshes.
    nodes : (nn, 2) float array
        Node coordinates.
    cells : (nc, 3 or 4) int array
        Vertex indices per cell, counter-clockwise.
    boundary : (nn,) bool array
        True for nodes on the domain boundary.
    lattice : (nn,) bool array
        True for nodes of the N-lattice (cell corners).
    h : float
        Physical cell width (side length / n).
    bounds : (float, float)
        Low/high coordinate of the square domain on both axes.
    """

    def __init__(self, n, kind, pattern, nodes, cells, boundary, lattice,
                 bounds, lattice_ids):
        self.n = n
        self.kind = kind
        self.pattern = pattern
        self.nodes = nodes
        self.cells = cells
        self.boundary = boundary
        self.lattice = lattice
        self.bounds = bounds
        self.h = (bounds[1] - bounds[0]) / n
        self.lattice_ids = lattice_ids
        self._node_cells = None
        for arr in (nodes, cells, boundary, lattice, lattice_ids):
            arr.setflags(write=False)

    @property
    def num_nodes(self):
        return len(self.nodes)

    @property
    def num_cells(self):
        return len(self.cells)

    @property
    def is_lattice_mesh(self):
        """True when every node is a lattice node."""
        return bool(np.all(self.lattice))

    def lattice_node(self, k1, k2):
        """Global node id of lattice node v(k1, k2)."""
        return int(self.lattice_ids[k1, k2])

    def interior_lattice_indices(self):
        """Integer index pairs (k1, k2) of interior lattice nodes."""
        n = self.n
        return [(a, b) for b in range(1, n) for a in range(1, n)]

    def cell_areas(self):
        v = self.nodes[self.cells]
        if self.kind == "quad":
            d1 = v[:, 2] - v[:, 0]
            d2 = v[:, 3] - v[:, 1]
            return 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        e1 = v[:, 1] - v[:, 0]
        e2 = v[:, 2] - v[:, 0]
        return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])

    def node_cells(self):
        """List of cell-id arrays, one per node (cached incidence)."""
        if self._node_cells is None:
            flat = self.cells.ravel()
            order = np.argsort(flat, kind="stable")
            sorted_nodes = flat[order]
            cell_of = order // self.cells.shape[1]
            starts = np.searchsorted(sorted_nodes, np.arange(self.num_nodes + 1))
            self._node_cells = [
                cell_of[starts[i]:starts[i + 1]] for i in range(self.num_nodes)
            ]
        return self._node_cells


def _lattice_arrays(n, bounds):
    lo, hi = bounds
    h = (hi - lo) / n
    k = np.arange(n + 1)
    K1, K2 = np.meshgrid(k, k, indexing="xy")  # row index = k2
    nodes = np.stack([lo + K1.ravel() * h, lo + K2.ravel() * h], axis=1)
    boundary = ((K1 == 0) | (K1 == n) | (K2 == 0) | (K2 == n)).ravel()
    ids = np.arange((n + 1) ** 2).reshape(n + 1, n + 1).T  # [k1, k2]
    return nodes, boundary, ids


def build_quad(n, bounds=(0.0, 1.0)):
    """Uniform quadrilateral mesh with n x n cells."""
    if n < 2:
        raise ValueError("need n >= 2 so that interior nodes exist")
    nodes, boundary, ids = _lattice_arrays(n, bounds)
    cells = []
    for b in range(n):
        for a in range(n):
            cells.append((ids[a, b], ids[a + 1, b], ids[a + 1, b + 1], ids[a, b + 1]))
    cells = np.asarray(cells, dtype=np.int64)
    lattice = np.ones(len(nodes), dtype=bool)
    return StructuredMesh(n, "quad", None, nodes, cells, boundary, lattice,
                          tuple(map(float, bounds)), ids)


def _tri_cells_lattice(n, ids, pattern):
    cells = []
    for b in range(n):
        for a in range(n):
            sw, se = ids[a, b], ids[a + 1, b]
            ne, nw = ids[a + 1, b + 1], ids[a, b + 1]
            northeast = pattern == "boxslash" or (a + b) % 2 == 0
            if northeast:
                cells.append((sw, se, ne))
                cells.append((sw, ne, nw))
            else:
                cells.append((sw, se, nw))
                cells.append((se, ne, nw))
    return cells


def build_tri(n, pattern, bounds=(0.0, 1.0)):
    """Structured triangle mesh with the given pattern."""
    if n < 2:
        raise ValueError("need n >= 2 so that interior nodes exist")
    if pattern not in TRIANGLE_PATTERNS:
        raise ValueError(f"unknown triangle pattern {pattern!r}")
    lo, hi = bounds
    h = (hi - lo) / n

    if pattern in ("boxslash", "alternating-kuhn"):
        nodes, boundary, ids = _lattice_arrays(n, bounds)
        cells = _tri_cells_lattice(n, ids, pattern)
        lattice = np.ones(len(nodes), dtype=bool)
        lattice_ids = ids
    elif pattern == "unionjack":
        # all nodes of the half lattice: corners, edge midpoints, centers
        nodes, boundary, half_ids = _lattice_arrays(2 * n, bounds)
        lattice_ids = half_ids[::2, ::2]
        lattice = np.isin(np.arange(len(nodes)), lattice_ids)
        cells = []
        for b in range(n):
            for a in range(n):
                x0, y0 = 2 * a, 2 * b
                c = half_ids[x0 + 1, y0 + 1]
                ring = [(x0, y0), (x0 + 1, y0), (x0 + 2, y0), (x0 + 2, y0 + 1),
                        (x0 + 2, y0 + 2), (x0 + 1, y0 + 2), (x0, y0 + 2), (x0, y0 + 1)]
                for i in range(8):
                    p = half_ids[ring[i]]
                    q = half_ids[ring[(i + 1) % 8]]
                    cells.append((p, q, c))
    else:  # cross
        nodes_l, boundary_l, ids = _lattice_arrays(n, bounds)
        ncorner = (n + 1) ** 2
        centers = []
        for b in range(n):
            for a in range(n):
                centers.append((lo + (a + 0.5) * h, lo + (b + 0.5) * h))
        nodes = np.vstack([nodes_l, np.asarray(centers)])
        boundary = np.concatenate([boundary_l, np.zeros(n * n, dtype=bool)])
        lattice = np.concatenate([np.ones(ncorner, dtype=bool),
                                  np.zeros(n * n, dtype=bool)])
        lattice_ids = ids
        cells = []
        for b in range(n):
            for a in range(n):
                c = ncorner + b * n + a
                sw, se = ids[a, b], ids[a + 1, b]
                ne, nw = ids[a + 1, b + 1], ids[a, b + 1]
                cells.extend([(sw, se, c), (se, ne, c), (ne, nw, c), (nw, sw, c)])

    cells = np.asarray(cells, dtype=np.int64)
    return StructuredMesh(n, "triangle", pattern, np.asarray(nodes, dtype=float),
                          cells, np.asarray(boundary), np.asarray(lattice),
                          tuple(map(float, bounds)), np.asarray(lattice_ids))


class HalfRefinement:
    """Full (two-fold bisection) refinement of an alternating Kuhn mesh.

    Attributes
    ----------
    parent : StructuredMesh
        The coarse alternating-kuhn mesh.
    child : StructuredMesh
        The refined triangulation; children of parent cell t occupy
        slots 4t..4t+3 of ``child.cells``.
    node_patches : dict
        Maps each interior lattice index pair (k1, k2) to the array of
        the 8 child cell ids whose closure contains v(k1, k2).
    """

    def __init__(self, parent, child, node_patches):
        self.parent = parent
        self.child = child
        self.node_patches = node_patches


def refine_kuhn_half(mesh):
    """Bisect every Kuhn triangle twice and collect the node patches."""
    if mesh.kind != "triangle" or mesh.pattern != "alternating-kuhn":
        raise ValueError("half refinement requires the alternating-kuhn pattern")
    m = 2 * mesh.n
    child_nodes, child_boundary, half_ids = _lattice_arrays(m, mesh.bounds)
    child_lattice = np.isin(np.arange(len(child_nodes)), half_ids[::2, ::2])

    # integer (k1, k2) of every parent node
    pk = np.round((mesh.nodes - mesh.bounds[0]) / mesh.h).astype(np.int64)

    child_cells = []
    for tri in mesh.cells:
        kk = 2 * pk[tri]  # doubled integer coordinates
        # right-angle vertex shares one coordinate with each neighbor
        apex_local = next(
            i for i in range(3)
            if np.any(kk[i] == kk[(i + 1) % 3]) and np.any(kk[i] == kk[(i + 2) % 3])
        )
        va = kk[(apex_local + 2) % 3]
        apex = kk[apex_local]
        vb = kk[(apex_local + 1) % 3]
        center = (va + vb) // 2
        ma = (va + apex) // 2
        mb = (apex + vb) // 2
        for tri_k in ((va, ma, center), (ma, apex, center),
                      (apex, mb, center), (mb, vb, center)):
            child_cells.append(tuple(half_ids[p[0], p[1]] for p in tri_k))
    child_cells = np.asarray(child_cells, dtype=np.int64)

    child = StructuredMesh(m, "triangle", "half-kuhn", child_nodes, child_cells,
                           child_boundary, child_lattice,
                           tuple(map(float, mesh.bounds)), half_ids[::2, ::2])

    node_patches = {}
    node_cells = child.node_cells()
    for (a, b) in mesh.interior_lattice_indices():
        nid = half_ids[2 * a, 2 * b]
        patch = np.sort(node_cells[nid])
        if len(patch) != 8:
            raise AssertionError(
                f"node patch at ({a},{b}) has {len(patch)} simplices, expected 8"
            )
        node_patches[(a, b)] = patch
    return HalfRefinement(mesh, child, node_patches)


def element_patch(mesh, cell):
    """Ids of all cells sharing at least one vertex with the given cell."""
    if not 0 <= cell < mesh.num_cells:
        raise IndexError(f"cell id {cell} out of range")
    node_cells = mesh.node_cells()
    ids = np.unique(np.concatenate([node_cells[v] for v in mesh.cells[cell]]))
    return ids
