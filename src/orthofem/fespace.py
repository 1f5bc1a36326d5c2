"""P1/Q1 finite element spaces, quadrature, and FE-function evaluation.

Quadrature rules are generated by tensor Gauss-Legendre on the
reference square and by the collapsed (Duffy) transform on the
reference triangle; both have positive weights and are exact for
polynomials up to the requested total degree (1..7).  ``map_rule``
takes a rule onto affine pieces, given by the images of (0, 0), (1, 0)
and (0, 1): the template cells here and the dual pieces and boxes of
``interp``.

Every cell of a mesh is a translate of one cell of its per-square
template, so ``FeSpace.gradient_rule`` holds basis gradients and weights
once per template cell, and ``contract`` applies such data to all cells,
viewed square by square.  The rule is all that differs between P1 and Q1.
Quadrature points and point evaluation read a cell as its square's
corner plus its template cell (``StructuredMesh.decode``; a block, a slice,
from its own ids).  ``_field_values`` checks every callable field (Dirichlet
data, source, ``interpolate_nodal``, the inputs of ``interp``): a scalar or
m finite values on m points, else ValueError.

Besides pointwise evaluation this module provides exact integrals of
|partial_i u| over convex polygonal regions, used to measure the
orthotropic stability of interpolation operators: on every cell the
partial derivative of a P1/Q1 function is affine, so Sutherland-Hodgman
clipping plus area-times-centroid integration is exact.  The split where
partial_i u changes sign runs on offsets from the cell's vertex 0, and the
moments are taken about the polygon's first vertex, so that slivers far from
the origin keep their digits.  The clip runs on plain Python floats (on a few
vertices numpy's per-call cost dominates), over the cells of the lattice
squares under the region's bounding box.  It depends on the region and the
mesh only, so it is built once per region and space and kept in the space's
memo, which grows by one entry per distinct region asked of that space.  The
entry also holds, per direction, the tables that take the vertex values of
each cell meeting the region to the affine partial_i u there, gathered from
one table per template cell; so a call computes partial_i u on those cells by
one gather and one matmul.  A piece on which partial_i u keeps its sign is
area times the value at its centroid; the others are split at its root line
in one Sutherland-Hodgman pass, ``_split``, that returns both parts, which
share their cut points and so tile one polygon; its <= 0 part is the clip.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .mesh import locate

__all__ = [
    "FeSpace",
    "FeFunction",
    "QuadratureRule",
    "quadrature_rule",
    "map_rule",
    "interpolate_nodal",
    "abs_partial_integral",
    "contract",
]

MAX_DEGREE = 7


def _gauss01(m):
    x, w = np.polynomial.legendre.leggauss(m)
    return (x + 1) / 2, w / 2


@dataclass(frozen=True)
class QuadratureRule:
    kind: str           # "quad" | "triangle"
    degree: int
    points: np.ndarray  # (npts, 2) on the reference element
    weights: np.ndarray  # sums to the reference measure

    def __post_init__(self):  # read-only, as rules are shared
        self.points.flags.writeable = self.weights.flags.writeable = False


@functools.cache
def quadrature_rule(kind, degree):
    """Positive-weight rule exact for polynomials of total degree <= degree,
    built once per (kind, degree) and shared."""
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"unsupported quadrature degree {degree}")
    if kind == "quad":
        m = (degree + 2) // 2
        x, w = _gauss01(m)
        X, Y = np.meshgrid(x, x, indexing="ij")
        W = np.outer(w, w)
        pts = np.stack([X.ravel(), Y.ravel()], axis=1)
        return QuadratureRule(kind, degree, pts, W.ravel())
    if kind == "triangle":
        m = (degree + 3) // 2
        x, w = _gauss01(m)
        XI, ETA = np.meshgrid(x, x, indexing="ij")
        W = np.outer(w, w)
        pts = np.stack([XI.ravel(), (ETA * (1 - XI)).ravel()], axis=1)
        return QuadratureRule(kind, degree, pts, (W * (1 - XI)).ravel())
    raise ValueError(f"unknown reference element {kind!r}")


def map_rule(rule, corners):
    """A reference rule on affine pieces, given per piece the images of
    (0, 0), (1, 0) and (0, 1), shaped (P, 3, 2): points (P, npts, 2) and
    weights (P, npts) scaled by |det J|, positive on reflected pieces too."""
    # computed (npts, 2, P), so that every operation runs along the pieces
    origin, e1, e2 = np.ascontiguousarray(corners.transpose(1, 2, 0))
    e1, e2 = e1 - origin, e2 - origin
    s, t = rule.points.T[:, :, None, None]
    pts = origin + s * e1 + t * e2
    det = np.abs(e1[0] * e2[1] - e1[1] * e2[0])
    return np.ascontiguousarray(pts.transpose(2, 0, 1)), rule.weights[None, :] * det[:, None]


def contract(x, m, mesh, cells=slice(None)):
    """sum over j (all trailing axes of x) of x[c, j] m[t, k, j, ...] for the
    cells c of the mesh (whole lattice squares), c in slot k of its square s:
    m has one entry per template cell (``FeSpace.gradient_rule``), t = 1 where
    it has two tables (an alternating pattern) and s = (a, b) has odd a + b."""
    per, j = m.shape[1], math.prod(x.shape[1:])
    slots = x.reshape(-1, per, j).swapaxes(0, 1)   # (per, squares, j)
    tables = m.reshape(len(m), per, j, -1)
    out = np.empty((len(x) // per, per, tables.shape[-1]))
    np.matmul(slots, tables[0], out=out.swapaxes(0, 1))
    for table in tables[1:]:
        odd = mesh.decode(cells)[2][::per] == 1
        out[odd] = np.matmul(slots[:, odd], table).swapaxes(0, 1)
    return out.reshape(len(x), *m.shape[x.ndim + 1:])


def _q1_values(pts):
    x, y = pts[:, 0], pts[:, 1]
    return np.stack([(1 - x) * (1 - y), x * (1 - y), x * y, (1 - x) * y], axis=1)


def _q1_grads(pts):
    x, y = pts[:, 0], pts[:, 1]
    gx = np.stack([-(1 - y), (1 - y), y, -y], axis=1)
    gy = np.stack([-(1 - x), -x, x, (1 - x)], axis=1)
    return np.stack([gx, gy], axis=2)


def _p1_values(pts):
    x, y = pts[:, 0], pts[:, 1]
    return np.stack([1 - x - y, x, y], axis=1)


def _p1_grads(pts):
    return np.broadcast_to([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]], (len(pts), 3, 2))


class FeSpace:
    """Conforming P1 (triangles) or Q1 (quads) space over all mesh nodes.

    Boundary nodes stay in the numbering; Dirichlet data is handled by
    the solver through condensation, using the ``interior`` mask.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.ndofs = mesh.num_nodes
        self.interior = ~mesh.boundary
        self._geom = {}
        # how the elements differ: shape values and gradients and the rule for
        # gradient integrals; a P1 gradient is constant on its cell: one point, |cell|
        point = QuadratureRule("triangle", 1, np.full((1, 2), 1 / 3), np.array([0.5]))
        self.kind, self.shape_values, self.shape_grads, self._gradient_points = (
            ("Q1", _q1_values, _q1_grads, self.rule) if mesh.kind == "quad"
            else ("P1", _p1_values, _p1_grads, lambda _: point))
        corners = mesh.template[:, :, [0, 1, -1]]  # images of (0, 0), (1, 0), (0, 1)
        self._jacobians = corners[:, :, 1:] - corners[:, :, :1]
        # flattened to the template index t per + k of ``_placement``
        self._corners = corners.reshape(-1, 3, 2)
        self._inverse = np.linalg.inv(self._jacobians).swapaxes(-1, -2).reshape(-1, 2, 2)

    @property
    def interior_dofs(self):
        return np.flatnonzero(self.interior)

    def rule(self, degree):
        return quadrature_rule(self.mesh.kind, degree)

    def template_rule(self, degree):
        """Quadrature points (J, npts, 2) and weights (J, npts) of the rule on
        the J cells of the per-square template, at their flat indices t per + k
        (``_placement``), with the square's corner at the origin."""
        return map_rule(self.rule(degree), self._corners)

    def rule_geometry(self, degree, cells=slice(None)):
        """Physical quadrature points (nc, npts, 2) and weights (nc, npts) on
        the given cells (a slice or index array; all by default): the rule
        on each cell's template cell, translated to its square's corner."""
        corner, j = self._placement(cells)
        pts, wts = self.template_rule(degree)
        pts = pts.take(j, axis=0)
        pts += corner.repeat(pts.shape[1], axis=0).reshape(pts.shape)  # unbroadcast: faster
        return pts, wts.take(j, axis=0)

    def _placement(self, cells):
        """The corners (nc, 2) of the cells' squares and the flat indices
        t per + k of their template cells."""
        a, b, t, k = self.mesh.decode(cells)
        return self.mesh.corners(a, b), t * self._jacobians.shape[1] + k

    def gradient_rule(self, degree):
        """Physical basis gradients G (T, per, nloc, nq, 2) and weights W
        (T, per, nq) of the rule for integrals of gradients, one entry per
        cell of the per-square template (``StructuredMesh.template``), of
        which every cell is a translate; so their sizes do not depend on n.
        Only the rule depends on the element: tensor Gauss of the degree on
        the one Q1 cell, one point of weight |cell| for P1."""
        key = ("gradient rule", degree)
        if key not in self._geom:
            rule = self._gradient_points(degree)
            weights = map_rule(rule, self._corners)[1]
            self._geom[key] = (self._template_grads(rule.points),
                               weights.reshape(*self._jacobians.shape[:2], -1))
        return self._geom[key]

    def point_shapes(self, points):
        """Vertex ids (p, nloc) of the cells holding the points and their
        shape values there; ValueError off the mesh's square."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        mesh = self.mesh
        lo, hi = mesh.bounds
        if not np.all(np.abs(points - (lo + hi) / 2) <= (hi - lo) * (0.5 + 1e-12)):
            raise ValueError(f"evaluation point outside the mesh's square [{lo}, {hi}]^2")
        cells = locate(mesh, points)
        corner, j = self._placement(cells)
        # reference coordinates: the inverse map of the point's template cell
        offsets = points - corner - self._corners[:, 0].take(j, axis=0)
        ref = np.einsum("pij,pj->pi", self._inverse.take(j, axis=0), offsets)
        return mesh.cells[cells], self.shape_values(ref)

    def _template_grads(self, points):
        """Physical basis gradients g at reference points on each template
        cell, shaped (T, per, nloc, npts, 2): g_ref = J^T g, J the Jacobian of
        the cell's map from the reference element."""
        ref = self.shape_grads(points).T                   # (2, nloc, npts)
        g = np.linalg.solve(self._jacobians, ref.reshape(2, -1))
        return np.ascontiguousarray(np.moveaxis(g.reshape(*g.shape[:3], *ref.shape[1:]), 2, -1))


class FeFunction:
    """Nodal coefficient vector over a FeSpace (boundary values included)."""

    def __init__(self, space, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (space.ndofs,):
            raise ValueError(f"expected {space.ndofs} coefficients, got {coeffs.shape}")
        self.space = space
        self.coeffs = coeffs

    def gradients_on_rule(self, degree, cells=slice(None)):
        """(nc, nq, 2) physical gradients at the points of
        ``space.gradient_rule(degree)`` in the given cells (whole lattice
        squares: a slice or index array; all by default)."""
        mesh = self.space.mesh
        grads, _ = self.space.gradient_rule(degree)
        return contract(self.coeffs[mesh.cells[cells]], grads, mesh, cells)

    def evaluate(self, points):
        """Pointwise values, located on the lattice; ValueError off the mesh's square."""
        ids, shapes = self.space.point_shapes(points)
        return np.einsum("pa,pa->p", shapes, self.coeffs[ids])


def _field_values(f, points):
    """A callable field f at (m, 2) points as m finite floats, where f returns
    a scalar or m values; ValueError for any other result."""
    vals = np.asarray(f(points), dtype=float)
    if vals.ndim == 0:
        vals = np.full(len(points), float(vals))
    elif vals.shape != (len(points),):
        raise ValueError(f"field returned shape {vals.shape} on {len(points)} "
                         "points; expected a scalar or one value per point")
    if not np.all(np.isfinite(vals)):
        raise ValueError("field is not finite at some evaluation point")
    return vals


def interpolate_nodal(space, f):
    """FeFunction with coefficients f(v(k)) at every node (``_field_values``)."""
    return FeFunction(space, _field_values(f, space.mesh.nodes))


# --- exact integrals of |partial_i u| over convex polygons ----------------

def _halfplanes(region):
    """Half-planes a + bx*x + by*y <= 0 bounding a convex CCW polygon, else ValueError."""
    if not all(math.isfinite(c) for vertex in region for c in vertex):
        raise ValueError("region vertices must be finite")
    planes, area, turning, clockwise = [], 0.0, 0.0, False
    for (px, py), (qx, qy), (rx, ry) in zip(region, region[1:] + region[:1],
                                            region[2:] + region[:2]):
        ex, ey, fx, fy = qx - px, qy - py, rx - qx, ry - qy
        cross = ex * fy - ey * fx
        clockwise = clockwise or cross < 0
        turning += math.atan2(cross, ex * fx + ey * fy)
        area += px * qy - qx * py
        planes.append((-(ey * px - ex * py), ey, -ex))  # inside: left of the edge
    # left turns only, winding once (2 pi) around a positive area
    if clockwise or area <= 0 or turning > 3 * math.pi:
        raise ValueError("region is not convex with counter-clockwise vertices")
    return planes


def _area_centroid(poly):
    """Area and centroid of a polygon, both taken about its first vertex (the
    shoelace terms of that vertex vanish); None if it has no area."""
    if len(poly) < 3:
        return None
    (x0, y0), s, sx, sy = poly[0], 0.0, 0.0, 0.0
    x, y = poly[1][0] - x0, poly[1][1] - y0
    for xn, yn in poly[2:]:
        xn, yn = xn - x0, yn - y0
        cross = x * yn - xn * y
        s, sx, sy = s + cross, sx + (x + xn) * cross, sy + (y + yn) * cross
        x, y = xn, yn
    area = 0.5 * s
    if abs(area) < 1e-300:
        return None
    return area, x0 + sx / (6 * area), y0 + sy / (6 * area)


def _split(poly, vals):
    """The parts of a polygon where an affine function of values ``vals`` at
    its vertices is <= 0 and >= 0, in one Sutherland-Hodgman pass: both parts
    take the same cut points, so that they tile the same polygon."""
    below, above = [], []
    for p, q, vp, vq in zip(poly, poly[1:] + poly[:1], vals, vals[1:] + vals[:1]):
        if vp <= 0:
            below.append(p)
        if vp >= 0:
            above.append(p)
        if (vp < 0 < vq) or (vq < 0 < vp):
            t = vp / (vp - vq)
            cut = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
            below.append(cut)
            above.append(cut)
    return below, above


def _clip_to_cell(poly, cell):
    """The part of a convex polygon inside a convex CCW cell: at each cell
    edge p -> q the part where (q - p) x (x - p) >= 0, a value that is exactly
    0 at p and q, so that a vertex on a cell vertex is kept as it is."""
    for (px, py), (qx, qy) in zip(cell, cell[1:] + cell[:1]):
        ex, ey = qx - px, qy - py
        poly = _split(poly, [ex * (y - py) - ey * (x - px) for x, y in poly])[1]
        if len(poly) < 3:
            break
    return poly


def _moment(moments, a, bx, by):
    """|integral of a + bx*x + by*y| over a polygon, from its area and
    centroid (``_area_centroid``)."""
    if moments is None:
        return 0.0
    area, cx, cy = moments
    return abs(area * (a + bx * cx + by * cy))


def _partial_table(space, i):
    """Per template cell t per + k, the (nloc, 3) table that takes a cell's
    vertex values to (a, bx, by) of partial_i u = a + bx (x - x0) + by (y - y0),
    (x0, y0) the cell's vertex 0; built once per space and direction."""
    key = ("partial", i)
    if key not in space._geom:
        # partial_i phi_a is affine on a cell: its value at vertex 0 and its
        # gradient, from its values there and at the images of (1, 0), (0, 1)
        at = space._template_grads(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))[..., i]
        slope = np.linalg.solve(space._jacobians, (at[..., 1:] - at[..., :1]).swapaxes(-1, -2))
        table = np.concatenate([at[..., :1], slope.swapaxes(-1, -2)], axis=-1)
        space._geom[key] = table.reshape(-1, *table.shape[2:])
    return space._geom[key]


def _region_pieces(space, region):
    """The geometry of a convex region (a list of [x, y] floats) on a space,
    built on the first call and kept in ``space._geom``: the vertex ids
    (npieces, nloc) of the cells that meet the region, per direction i their
    partial tables (npieces, nloc, 3) gathered from ``_partial_table``, and per
    cell the clipped polygon on offsets from the cell's vertex 0 with that
    polygon's area and centroid (None if it has no area)."""
    key = ("region", tuple(map(tuple, region)))
    if key in space._geom:
        return space._geom[key]
    planes = _halfplanes(region)
    mesh = space.mesh
    lo, hi = mesh.bounds
    width = (hi - lo) / mesh.squares
    (x0, x1), (y0, y1) = [(min(t), max(t)) for t in zip(*region)]
    a0, b0 = (math.floor((t - lo) / width) for t in (x0, y0))
    a1, b1 = (math.ceil((t - lo) / width) - 1 for t in (x1, y1))
    cells = mesh.square_cells(a0, a1, b0, b1)
    tol = 1e-12 * mesh.h
    kept, pieces = [], []
    for cell, poly in zip(cells.tolist(), mesh.nodes[mesh.cells[cells]].tolist()):
        px, py = zip(*poly)  # skip cells whose box overlaps the region's by <= tol
        if not (min(px) < x1 - tol and max(px) > x0 + tol
                and min(py) < y1 - tol and max(py) > y0 + tol):
            continue
        vx, vy = poly[0]
        # a cell outside one half-plane, up to the vertices on its line, is
        # dropped, and a cell inside every half-plane is its own piece; else
        # the region is clipped against the cell, and not the cell against
        # the region, so that a region vertex inside the cell, as a sliver's
        # apex, is kept as given instead of cut anew from two nearly parallel
        # region edges
        vals = [[pa + pbx * x + pby * y for x, y in poly] for pa, pbx, pby in planes]
        if any(min(v) >= 0 for v in vals):
            continue
        if max(map(max, vals)) > 0:
            poly = _clip_to_cell(region, poly)
            if len(poly) < 3:
                continue
        # (a, bx, by) act on offsets from vertex 0, as small as the cell
        poly = [(x - vx, y - vy) for x, y in poly]
        kept.append(cell)
        pieces.append((poly, _area_centroid(poly)))
    kept = np.array(kept, dtype=np.int64)
    templates = space._placement(kept)[1]
    tables = [_partial_table(space, i)[templates] for i in (0, 1)]
    space._geom[key] = mesh.cells[kept], tables, pieces
    return space._geom[key]


def abs_partial_integral(u, region, i):
    """Exact integral of |partial_i u| over a convex polygonal region given
    by its (k, 2) finite vertices in counter-clockwise order (ValueError
    otherwise), for the direction i, the integer 0 or 1 (ValueError otherwise)."""
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or i not in (0, 1):
        raise ValueError(f"direction must be the integer 0 or 1, got {i!r}")
    ids, tables, pieces = _region_pieces(u.space, np.asarray(region, dtype=float).tolist())
    partials = np.matmul(u.coeffs[ids][:, None, :], tables[i])[:, 0].tolist()
    total = 0.0
    for (a, bx, by), (poly, moments) in zip(partials, pieces):
        if bx or by:  # partial_i u is not constant on the cell (Q1)
            vals = [a + bx * x + by * y for x, y in poly]
            if not (min(vals) > 0 or max(vals) < 0):
                for part in _split(poly, vals):
                    total += _moment(_area_centroid(part), a, bx, by)
                continue
        # partial_i u keeps its sign on the piece, so a split would return the
        # piece whole and leave nothing on the other side
        total += _moment(moments, a, bx, by)
    return total
