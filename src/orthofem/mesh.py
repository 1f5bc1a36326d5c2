"""Structured meshes on a square domain.

Builders produce uniform quadrilateral meshes and four triangle
patterns on the N x N lattice.  Each is one template on the half
lattice (index pairs j in 0..2N at lo + j h/2): a table of the cells of
one lattice square, each vertex an offset 0..2 from the square's corner
2 (a, b); a pattern that alternates has a second table for odd a + b.
Cells are numbered square by square, lexicographically by (b, a), then
in table order; ``StructuredMesh.decode`` inverts that numbering, so a
cell is its square's corner plus a template entry.  Nodes are the
half-lattice points the cells touch:

* the lattice points, lexicographically by (k2, k1), for ``quad``,
  ``boxslash`` (all diagonals northeast) and ``alternating-kuhn``
  (diagonals alternating checkerboard fashion, the pattern the
  dual-basis machinery requires);
* every half-lattice point, lexicographically by (j2, j1), for
  ``unionjack`` (both diagonals plus midlines, eight triangles per
  square) and the half refinement of alternating-kuhn;
* the corners first, then the square centres, each lexicographically,
  for ``cross`` (both diagonals, four triangles per square).

Extra nodes of the unionjack/cross patterns are flagged as non-lattice
so operators defined only on lattice meshes can reject those meshes.
The default domain is the unit square; an affine rescaling to any
square ``bounds = (lo, hi)`` is supported for experiment setups.
"""

import math
import operator
from collections import namedtuple

import numpy as np

__all__ = [
    "StructuredMesh",
    "HalfRefinement",
    "build_quad",
    "build_tri",
    "refine_kuhn_half",
    "element_patch",
    "locate",
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

    @property
    def squares(self):
        """Lattice squares per side: n, or the parent's n for a half refinement."""
        return len(self.lattice_ids) - 1

    def coarsened(self):
        """The same family on the same square at n // 2, which is not nested
        in it where n is odd."""
        return _build(self.pattern, self.squares // 2, self.bounds)

    def square_cells(self, a0, a1, b0, b1):
        """Ids of the cells of the lattice squares (a, b), a0 <= a <= a1 and
        b0 <= b <= b1, clipped to the mesh, in increasing order."""
        side = self.squares
        per = self.num_cells // side ** 2
        a0, a1, b0, b1 = max(a0, 0), min(a1, side - 1), max(b0, 0), min(b1, side - 1)
        rows = np.arange(b0, b1 + 1)[:, None] * (side * per)
        return (rows + np.arange(a0 * per, (a1 + 1) * per)).ravel()

    @property
    def offsets(self):
        """Half-lattice offsets 0..2 of each template cell's vertices from its
        square's corner 2 (a, b), (T, per, nv, 2) ints: T = 2 tables where the
        pattern alternates."""
        even, odd, _ = _TEMPLATES[self.pattern]
        return np.array((even,) if even == odd else (even, odd))

    @property
    def template(self):
        """Vertex offsets of each template cell from its square's corner,
        (T, per, nv, 2): ``offsets`` in lengths."""
        return self.offsets * ((self.bounds[1] - self.bounds[0]) / (2 * self.squares))

    def half_lattice(self):
        """Half-lattice position j = (j1, j2) of each node, (nn, 2) ints: the
        node lies at lo + j (hi - lo) / (2 squares)."""
        lo, hi = self.bounds
        return np.rint((self.nodes - lo) * (2 * self.squares / (hi - lo))).astype(np.int64)

    def decode(self, cells):
        """Lattice square (a, b), template table t and slot k of cell ids (an
        int, a sequence of ints or a slice of the cells), the inverse of the
        numbering of ``_build``: the cell is ``template[t, k]`` translated to
        ``corners(a, b)``; t = 1 where the pattern alternates and a + b is odd."""
        if isinstance(cells, slice):
            cells = np.arange(*cells.indices(self.num_cells))
        elif not isinstance(cells, int):  # one int decodes to plain ints
            cells = np.asarray(cells)
        side = self.squares
        square, slot = divmod(cells, self.num_cells // side ** 2)
        b, a = divmod(square, side)
        even, odd, _ = _TEMPLATES[self.pattern]
        return a, b, (a + b) % 2 * (even != odd), slot

    def corners(self, a, b):
        """Lower left corners of the lattice squares (a, b), shaped (..., 2)."""
        lo, hi = self.bounds
        return lo + (hi - lo) / self.squares * np.stack([a, b], axis=-1)

    def interior_lattice_indices(self):
        """Integer index pairs (k1, k2) of interior lattice nodes."""
        n = self.squares
        return [(a, b) for b in range(1, n) for a in range(1, n)]

    def cell_areas(self):
        """Half the cross product of v2 - v0 and v_last - v1 (a quad's
        diagonals) of each cell's template cell."""
        v = self.template
        d1, d2 = v[..., 2, :] - v[..., 0, :], v[..., -1, :] - v[..., 1, :]
        _, _, t, k = self.decode(np.arange(self.num_cells))
        return 0.5 * (d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0])[t, k]


# --- per-square cell tables ------------------------------------------------

def _sectors(per, odd_start=225.0):
    """Rule of equal sectors around the square's centre, the first starting
    southwest (225 degrees), or at ``odd_start`` in squares with odd a + b."""
    def local(f1, f2, odd):
        theta = np.degrees(np.arctan2(f2 - 0.5, f1 - 0.5))
        start = np.where(odd, odd_start, 225.0)
        sector = np.floor(((theta - start) % 360.0) / (360.0 / per)).astype(np.int64)
        return np.clip(sector, 0, per - 1)
    return local


def _fan(ring):
    """Triangles from each edge of a closed ring to the square's centre."""
    return tuple((p, q, (1, 1)) for p, q in zip(ring, ring[1:] + ring[:1]))


# cell vertices as half-lattice offsets (d1, d2) from the square's corner
_SW, _SE, _NE, _NW = (0, 0), (2, 0), (2, 2), (0, 2)
_RING = (_SW, (1, 0), _SE, (2, 1), _NE, (1, 2), _NW, (0, 1))
_QUAD = ((_SW, _SE, _NE, _NW),)
_SLASH = ((_SW, _SE, _NE), (_SW, _NE, _NW))
_UNIONJACK = _fan(_RING)
_CROSS = _fan(_QUAD[0])

# pattern: (cells of a square with even a + b, of one with odd a + b, and
# the rule (f1, f2, odd) -> index of the cell holding the point at f in
# [0, 1]^2 of its square; diagonal ties go to cell 0).  The half refinement
# bisects each Kuhn triangle at its hypotenuse, then both halves at theirs:
# with the northeast diagonal that is the unionjack fan, with the northwest
# one the same fan started from NW.
_TEMPLATES = {
    None: (_QUAD, _QUAD, lambda f1, f2, odd: 0),
    "boxslash": (_SLASH, _SLASH, lambda f1, f2, odd: f1 < f2),
    "alternating-kuhn": (_SLASH, ((_SW, _SE, _NW), (_SE, _NE, _NW)),
                         lambda f1, f2, odd: np.where(odd, f1 + f2 > 1, f1 < f2)),
    "unionjack": (_UNIONJACK, _UNIONJACK, _sectors(8)),
    "cross": (_CROSS, _CROSS, _sectors(4)),
    "half-kuhn": (_UNIONJACK, _fan(_RING[6:] + _RING[:6]), _sectors(8, 135.0)),
}


def _build(pattern, squares, bounds, n=None):
    """Mesh of squares x squares lattice squares, each holding its table's cells."""
    squares = operator.index(squares)
    if squares < 2:
        raise ValueError("need n >= 2 so that interior nodes exist")
    lo, hi = map(float, bounds)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"bounds must be finite with lo < hi, got {tuple(bounds)}")
    m = 2 * squares
    tables = np.array(_TEMPLATES[pattern][:2])  # (2, per, nv, 2)
    # every cell vertex as its flat half-lattice index j2 (m + 1) + j1
    b, a = np.divmod(np.arange(squares ** 2), squares)
    key = 2 * (b * (m + 1) + a)[:, None, None] + (tables @ (1, m + 1))[(a + b) % 2]
    # nodes: the half-lattice points the cells touch, by (j2, j1); unless
    # that is all of them, the square centres (odd j1) after the corners
    used = np.zeros((m + 1) ** 2, dtype=bool)
    used[key] = True
    late = np.tile(np.arange(m + 1) % 2 == 1, m + 1) & ~used.all()
    points = np.concatenate([np.flatnonzero(used & ~late), np.flatnonzero(used & late)])
    ids = np.full((m + 1) ** 2, -1)
    ids[points] = np.arange(len(points))

    j2, j1 = np.divmod(points, m + 1)
    step = (hi - lo) / m
    nodes = np.stack([lo + j1 * step, lo + j2 * step], axis=1)
    boundary = (j1 == 0) | (j1 == m) | (j2 == 0) | (j2 == m)
    lattice = (j1 % 2 == 0) & (j2 % 2 == 0)
    kind = "quad" if tables.shape[2] == 4 else "triangle"
    return StructuredMesh(squares if n is None else n, kind, pattern, nodes,
                          ids[key].reshape(-1, tables.shape[2]), boundary, lattice,
                          (lo, hi), ids.reshape(m + 1, m + 1)[::2, ::2].T.copy())


def build_quad(n, bounds=(0.0, 1.0)):
    """Uniform quadrilateral mesh with n x n cells."""
    return _build(None, n, bounds)


def build_tri(n, pattern, bounds=(0.0, 1.0)):
    """Structured triangle mesh with the given pattern."""
    if pattern not in TRIANGLE_PATTERNS:
        raise ValueError(f"unknown triangle pattern {pattern!r}")
    return _build(pattern, n, bounds)


def locate(mesh, points):
    """Cell ids containing the given points (boundary ties arbitrary): the
    lattice square by floor, clipped to the mesh, then its table's rule."""
    even, _, rule = _TEMPLATES[mesh.pattern]
    side, (lo, hi) = mesh.squares, mesh.bounds
    s = (points - lo) / ((hi - lo) / side)
    a = np.clip(np.floor(s[:, 0]).astype(np.int64), 0, side - 1)
    b = np.clip(np.floor(s[:, 1]).astype(np.int64), 0, side - 1)
    local = rule(s[:, 0] - a, s[:, 1] - b, (a + b) % 2 == 1)
    return len(even) * (b * side + a) + local


# Full (two-fold bisection) refinement of an alternating Kuhn mesh: the
# coarse mesh, the refined triangulation (children of parent cell t in slots
# 4t..4t+3) and a dict from each interior lattice index pair (k1, k2) to the
# ids of the 8 child cells whose closure contains v(k1, k2).
HalfRefinement = namedtuple("HalfRefinement", "parent child node_patches")


def refine_kuhn_half(mesh):
    """Bisect every Kuhn triangle twice and collect the node patches."""
    if mesh.kind != "triangle" or mesh.pattern != "alternating-kuhn":
        raise ValueError("half refinement requires the alternating-kuhn pattern")
    n = mesh.n
    child = _build("half-kuhn", n, mesh.bounds, n=2 * n)
    interior = child.lattice_ids[1:n, 1:n]  # ids increase in (b, a) order
    flat = child.cells.ravel()
    if np.any(np.bincount(flat)[interior] != 8):
        raise AssertionError("a half-refinement node patch does not have 8 simplices")
    # incidence sorted by node; the stable sort keeps each node's cells in order
    order = np.argsort(flat, kind="stable")
    patches = (order[np.isin(flat[order], interior)] // 3).reshape(-1, 8)
    return HalfRefinement(mesh, child, dict(zip(mesh.interior_lattice_indices(), patches)))


def element_patch(mesh, cell):
    """Ids of all cells sharing at least one vertex with the given cell; they
    lie in its lattice square or the eight around it."""
    if not 0 <= cell < mesh.num_cells:
        raise IndexError(f"cell id {cell} out of range")
    a, b, _, _ = mesh.decode(int(cell))
    near = mesh.square_cells(a - 1, a + 1, b - 1, b + 1)
    shares = (mesh.cells[near][:, :, None] == mesh.cells[cell]).any(axis=(1, 2))
    return near[shares]
