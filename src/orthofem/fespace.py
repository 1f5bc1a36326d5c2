"""P1/Q1 finite element spaces, quadrature, and FE-function evaluation.

Quadrature rules are generated by tensor Gauss-Legendre on the
reference square and by the collapsed (Duffy) transform on the
reference triangle; both have positive weights and are exact for
polynomials up to the requested total degree (1..7).  ``map_rule``
takes a rule onto affine pieces, given by the images of (0, 0), (1, 0)
and (0, 1): the FE cells here and the dual pieces and boxes of ``interp``.

Besides pointwise evaluation this module provides exact integrals of
|partial_i u| over convex polygonal regions, used to measure the
orthotropic stability of interpolation operators: on every cell the
partial derivative of a P1/Q1 function is affine, so Sutherland-Hodgman
clipping plus area-times-centroid integration is exact.  The clip runs on
plain Python floats (on a few vertices numpy's per-call cost dominates),
over the cells of the lattice squares under the region's bounding box.
"""

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

_P1_REF_GRADS = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


def _gauss01(m):
    x, w = np.polynomial.legendre.leggauss(m)
    return (x + 1) / 2, w / 2


@dataclass(frozen=True)
class QuadratureRule:
    kind: str           # "quad" | "triangle"
    degree: int
    points: np.ndarray  # (npts, 2) on the reference element
    weights: np.ndarray  # sums to the reference measure


def quadrature_rule(kind, degree):
    """Positive-weight rule exact for polynomials of total degree <= degree."""
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
    origin = corners[:, 0]
    e1, e2 = corners[:, 1] - origin, corners[:, 2] - origin
    s, t = rule.points[:, 0, None], rule.points[:, 1, None]
    pts = origin[:, None] + s * e1[:, None] + t * e2[:, None]
    det = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    return pts, rule.weights[None, :] * det[:, None]


def contract(x, m):
    """sum_j x[c, j] m[c, j, ...] over cells c; an m shared by all cells
    (length 1) keeps the sum one BLAS product."""
    if len(m) == 1:
        return (x @ m[0].reshape(len(m[0]), -1)).reshape(len(x), *m.shape[2:])
    return np.einsum("cj,cj...->c...", x, m)


def _q1_shapes(pts):
    x, y = pts[:, 0], pts[:, 1]
    vals = np.stack([(1 - x) * (1 - y), x * (1 - y), x * y, (1 - x) * y], axis=1)
    gx = np.stack([-(1 - y), (1 - y), y, -y], axis=1)
    gy = np.stack([-(1 - x), -x, x, (1 - x)], axis=1)
    return vals, np.stack([gx, gy], axis=2)


def _p1_shapes(pts):
    x, y = pts[:, 0], pts[:, 1]
    vals = np.stack([1 - x - y, x, y], axis=1)
    grads = np.broadcast_to(_P1_REF_GRADS, (len(pts), 3, 2))
    return vals, grads


class FeSpace:
    """Conforming P1 (triangles) or Q1 (quads) space over all mesh nodes.

    Boundary nodes stay in the numbering; Dirichlet data is handled by
    the solver through condensation, using the ``interior`` mask.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.kind = "Q1" if mesh.kind == "quad" else "P1"
        self.ndofs = mesh.num_nodes
        self.interior = ~mesh.boundary
        self._geom = {}
        self.areas = mesh.cell_areas()
        if self.kind == "P1":
            v = mesh.nodes[mesh.cells]
            det = 2 * self.areas
            grads = np.empty((mesh.num_cells, 3, 2))
            for i in range(3):
                edge = v[:, (i + 2) % 3] - v[:, (i + 1) % 3]
                grads[:, i, 0] = -edge[:, 1] / det
                grads[:, i, 1] = edge[:, 0] / det
            self.cell_basis_grads = grads

    @property
    def interior_dofs(self):
        return np.flatnonzero(self.interior)

    def rule(self, degree):
        key = ("rule", degree)
        if key not in self._geom:
            self._geom[key] = quadrature_rule(self.mesh.kind, degree)
        return self._geom[key]

    def rule_geometry(self, degree, cells=None):
        """Physical quadrature points and weights, shaped (nc, npts, ...).

        With ``cells`` (a slice or index array) only those cells are
        computed, and the result is not cached.
        """
        if cells is not None:
            return self._rule_geometry(degree, cells)
        key = ("geom", degree)
        if key not in self._geom:
            self._geom[key] = self._rule_geometry(degree, slice(None))
        return self._geom[key]

    def _rule_geometry(self, degree, cells):
        # cell vertices 0, 1 and the last are the images of (0, 0), (1, 0), (0, 1)
        corners = self.mesh.nodes[self.mesh.cells[cells][:, [0, 1, -1]]]
        return map_rule(self.rule(degree), corners)

    def ref_shapes(self, degree):
        """Shape values/ref-gradients at the rule points of the given degree."""
        key = ("shapes", degree)
        if key not in self._geom:
            rule = self.rule(degree)
            shapes = _q1_shapes(rule.points) if self.kind == "Q1" else _p1_shapes(rule.points)
            self._geom[key] = shapes
        return self._geom[key]

    def gradient_rule(self, degree):
        """Physical basis gradients G, shaped (C, nloc, nq, 2), and weights W,
        shaped (C, nq), of the rule for integrals of gradients: Q1 cells share
        the tensor Gauss rule of the degree (C = 1); a P1 gradient is constant
        on its cell, so one point of weight |cell| is exact (C = cells)."""
        key = ("gradient rule", degree)
        if key not in self._geom:
            if self.kind == "Q1":
                h = self.mesh.h
                grads = np.ascontiguousarray(self.ref_shapes(degree)[1].transpose(1, 0, 2))
                self._geom[key] = grads[None] / h, (self.rule(degree).weights * h ** 2)[None]
            else:
                self._geom[key] = self.cell_basis_grads[:, :, None, :], self.areas[:, None]
        return self._geom[key]


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
        ``space.gradient_rule(degree)`` in the given cells (a slice or index
        array; all by default); nq = 1 for P1, whose gradient is constant."""
        space = self.space
        grads, _ = space.gradient_rule(degree)
        return contract(self.coeffs[space.mesh.cells[cells]],
                        grads if len(grads) == 1 else grads[cells])

    def evaluate(self, points):
        """Pointwise values, located on the lattice; ValueError off the mesh's square."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        lo, hi = self.space.mesh.bounds
        if not np.all(np.abs(points - (lo + hi) / 2) <= (hi - lo) * (0.5 + 1e-12)):
            raise ValueError(f"evaluation point outside the mesh's square [{lo}, {hi}]^2")
        cells = locate(self.space.mesh, points)
        return self._eval_in_cells(points, cells)

    def _eval_in_cells(self, points, cells):
        mesh = self.space.mesh
        v = mesh.nodes[mesh.cells[cells]]
        uc = self.coeffs[mesh.cells[cells]]
        if self.space.kind == "Q1":
            s = (points - v[:, 0, :]) / mesh.h
            vals, _ = _q1_shapes(s)
        else:
            e1 = v[:, 1] - v[:, 0]
            e2 = v[:, 2] - v[:, 0]
            det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
            d = points - v[:, 0, :]
            x = (d[:, 0] * e2[:, 1] - d[:, 1] * e2[:, 0]) / det
            y = (e1[:, 0] * d[:, 1] - e1[:, 1] * d[:, 0]) / det
            vals = np.stack([1 - x - y, x, y], axis=1)
        return np.einsum("pa,pa->p", vals, uc)


def interpolate_nodal(space, f):
    """FeFunction with coefficients f(v(k)) at every node."""
    vals = np.asarray(f(space.mesh.nodes), dtype=float)
    if vals.ndim == 0:
        vals = np.full(space.ndofs, float(vals))
    if not np.all(np.isfinite(vals)):
        raise ValueError("field is not finite at some mesh node")
    return FeFunction(space, vals)


# --- exact integrals of |partial_i u| over convex polygons ----------------

def _halfplanes(region):
    """Half-planes a + bx*x + by*y <= 0 bounding a convex CCW polygon, else ValueError."""
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


def _clip_halfplane(poly, a, bx, by):
    """Sutherland-Hodgman step: the part of a polygon with a + bx*x + by*y <= 0."""
    vals = [a + bx * x + by * y for x, y in poly]
    if max(vals, default=0.0) <= 0:
        return poly
    out = []
    for p, q, vp, vq in zip(poly, poly[1:] + poly[:1], vals, vals[1:] + vals[:1]):
        if vp <= 0:
            out.append(p)
        if (vp < 0 < vq) or (vq < 0 < vp):
            t = vp / (vp - vq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _moment(poly, a, bx, by):
    """|integral of a + bx*x + by*y| over a polygon, from area and centroid."""
    s = sx = sy = 0.0
    for (x, y), (xn, yn) in zip(poly, poly[1:] + poly[:1]):
        cross = x * yn - xn * y
        s, sx, sy = s + cross, sx + (x + xn) * cross, sy + (y + yn) * cross
    area = 0.5 * s
    if abs(area) < 1e-300:
        return 0.0
    return abs(area * (a + bx * (sx / (6 * area)) + by * (sy / (6 * area))))


def _partial_affine(u, cells, i):
    """Per cell, the floats (a, bx, by) of partial_i u = a + bx*x + by*y."""
    space = u.space
    ids = space.mesh.cells[cells]
    uc = u.coeffs[ids].tolist()
    if space.kind == "P1":
        grads = space.cell_basis_grads[cells, :, i].tolist()
        return [(c0 * g0 + c1 * g1 + c2 * g2, 0.0, 0.0)
                for (c0, c1, c2), (g0, g1, g2) in zip(uc, grads)]
    h = space.mesh.h
    out = []
    for (c0, c1, c2, c3), corner in zip(uc, space.mesh.nodes[ids[:, 0]].tolist()):
        if i == 1:
            c1, c3 = c3, c1  # the same bilinear form with the axes swapped
        slope = ((c2 - c3) - (c1 - c0)) / h ** 2
        base = (c1 - c0) / h - slope * corner[1 - i]
        out.append((base, 0.0, slope) if i == 0 else (base, slope, 0.0))
    return out


def abs_partial_integral(u, region, i):
    """Exact integral of |partial_i u| over a convex polygonal region given
    by its (k, 2) vertices in counter-clockwise order (ValueError otherwise)."""
    region = np.asarray(region, dtype=float).tolist()
    planes = _halfplanes(region)
    mesh = u.space.mesh
    lo, hi = mesh.bounds
    width = (hi - lo) / mesh.squares
    (x0, x1), (y0, y1) = [(min(t), max(t)) for t in zip(*region)]
    a0, b0 = (math.floor((t - lo) / width) for t in (x0, y0))
    a1, b1 = (math.ceil((t - lo) / width) - 1 for t in (x1, y1))
    cells = mesh.square_cells(a0, a1, b0, b1)
    tol = 1e-12 * mesh.h
    total = 0.0
    for poly, (a, bx, by) in zip(mesh.nodes[mesh.cells[cells]].tolist(),
                                 _partial_affine(u, cells, i)):
        px, py = zip(*poly)  # skip cells whose box overlaps the region's by <= tol
        if not (min(px) < x1 - tol and max(px) > x0 + tol
                and min(py) < y1 - tol and max(py) > y0 + tol):
            continue
        for plane in planes:
            poly = _clip_halfplane(poly, *plane)
        if len(poly) < 3:
            continue
        for sign in (1.0, -1.0):  # where partial_i u <= 0, then >= 0
            total += _moment(_clip_halfplane(poly, sign * a, sign * bx, sign * by), a, bx, by)
    return total
