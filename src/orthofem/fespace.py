"""P1/Q1 finite element spaces, quadrature, and FE-function evaluation.

Quadrature rules are generated by tensor Gauss-Legendre on the
reference square and by the collapsed (Duffy) transform on the
reference triangle; both have positive weights and are exact for
polynomials up to the requested total degree (1..7).

Besides pointwise evaluation this module provides exact integrals of
|partial_i u| over convex polygonal regions, used to measure the
orthotropic stability of interpolation operators: on every cell the
partial derivative of a P1/Q1 function is affine, so clipping plus
area-times-centroid integration is exact.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FeSpace",
    "FeFunction",
    "QuadratureRule",
    "quadrature_rule",
    "interpolate_nodal",
    "abs_partial_integral",
    "clip_convex",
    "polygon_area_centroid",
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
        if self.kind == "P1":
            v = mesh.nodes[mesh.cells]
            e1 = v[:, 1] - v[:, 0]
            e2 = v[:, 2] - v[:, 0]
            det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
            self.areas = det / 2
            grads = np.empty((mesh.num_cells, 3, 2))
            for i in range(3):
                edge = v[:, (i + 2) % 3] - v[:, (i + 1) % 3]
                grads[:, i, 0] = -edge[:, 1] / det
                grads[:, i, 1] = edge[:, 0] / det
            self.cell_basis_grads = grads
        else:
            self.areas = np.full(mesh.num_cells, mesh.h ** 2)

    @property
    def interior_dofs(self):
        return np.flatnonzero(self.interior)

    def rule(self, degree):
        key = ("rule", degree)
        if key not in self._geom:
            kind = "quad" if self.kind == "Q1" else "triangle"
            self._geom[key] = quadrature_rule(kind, degree)
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
        rule = self.rule(degree)
        v = self.mesh.nodes[self.mesh.cells[cells]]
        if self.kind == "Q1":
            pts = v[:, None, 0, :] + rule.points[None, :, :] * self.mesh.h
            wts = np.broadcast_to(rule.weights * self.mesh.h ** 2,
                                  (len(v), len(rule.weights)))
        else:
            pts = (v[:, None, 0, :]
                   + rule.points[None, :, 0, None] * (v[:, None, 1, :] - v[:, None, 0, :])
                   + rule.points[None, :, 1, None] * (v[:, None, 2, :] - v[:, None, 0, :]))
            wts = rule.weights[None, :] * (2 * self.areas[cells])[:, None]
        return pts, wts

    def ref_shapes(self, degree):
        """Shape values/ref-gradients at the rule points of the given degree."""
        key = ("shapes", degree)
        if key not in self._geom:
            rule = self.rule(degree)
            shapes = _q1_shapes(rule.points) if self.kind == "Q1" else _p1_shapes(rule.points)
            self._geom[key] = shapes
        return self._geom[key]


class FeFunction:
    """Nodal coefficient vector over a FeSpace (boundary values included)."""

    def __init__(self, space, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (space.ndofs,):
            raise ValueError(f"expected {space.ndofs} coefficients, got {coeffs.shape}")
        self.space = space
        self.coeffs = coeffs

    def copy(self):
        return FeFunction(self.space, self.coeffs.copy())

    def cell_gradients(self):
        """(nc, 2) gradients; exact for P1, cell averages for Q1."""
        space = self.space
        uc = self.coeffs[space.mesh.cells]
        if space.kind == "P1":
            return np.einsum("ca,cai->ci", uc, space.cell_basis_grads)
        c0, c1, c2, c3 = uc.T
        h = space.mesh.h
        return np.stack([((c1 - c0) + (c2 - c3)) / (2 * h),
                         ((c3 - c0) + (c2 - c1)) / (2 * h)], axis=1)

    def gradients_on_rule(self, degree, cells=slice(None)):
        """(nc, npts, 2) physical gradients at the quadrature points of
        the given cells (a slice or index array; all by default)."""
        space = self.space
        uc = self.coeffs[space.mesh.cells[cells]]
        if space.kind == "Q1":
            _, ref_grads = space.ref_shapes(degree)
            return np.tensordot(uc, ref_grads, axes=(1, 1)) / space.mesh.h
        g = np.einsum("ca,cai->ci", uc, space.cell_basis_grads[cells])
        npts = len(space.rule(degree).points)
        return np.broadcast_to(g[:, None, :], (len(uc), npts, 2))

    def evaluate(self, points):
        """Pointwise values; points are located on the structured lattice."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
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


def locate(mesh, points):
    """Cell ids containing the given points (boundary ties arbitrary)."""
    lo, _ = mesh.bounds
    n = mesh.n
    s = (points - lo) / mesh.h
    a = np.clip(np.floor(s[:, 0]).astype(np.int64), 0, n - 1)
    b = np.clip(np.floor(s[:, 1]).astype(np.int64), 0, n - 1)
    f1 = s[:, 0] - a
    f2 = s[:, 1] - b
    square = b * n + a
    if mesh.kind == "quad":
        return square
    if mesh.pattern == "boxslash":
        return 2 * square + (f1 < f2)
    if mesh.pattern == "alternating-kuhn":
        ne = (a + b) % 2 == 0
        second = np.where(ne, f1 < f2, f1 + f2 > 1)
        return 2 * square + second
    if mesh.pattern == "cross":
        theta = np.degrees(np.arctan2(f2 - 0.5, f1 - 0.5))
        sector = np.floor(((theta - 225.0) % 360.0) / 90.0).astype(np.int64)
        return 4 * square + np.clip(sector, 0, 3)
    if mesh.pattern == "unionjack":
        theta = np.degrees(np.arctan2(f2 - 0.5, f1 - 0.5))
        sector = np.floor(((theta - 225.0) % 360.0) / 45.0).astype(np.int64)
        return 8 * square + np.clip(sector, 0, 7)
    raise NotImplementedError(f"point location on pattern {mesh.pattern!r}")


def interpolate_nodal(space, f):
    """FeFunction with coefficients f(v(k)) at every node."""
    vals = np.asarray(f(space.mesh.nodes), dtype=float)
    if vals.ndim == 0:
        vals = np.full(space.ndofs, float(vals))
    if not np.all(np.isfinite(vals)):
        raise ValueError("field is not finite at some mesh node")
    return FeFunction(space, vals)


# --- exact integrals of |partial_i u| over convex polygons ----------------

def polygon_area_centroid(poly):
    """Signed area and centroid of a polygon given as an (k, 2) array."""
    x, y = poly[:, 0], poly[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * np.sum(cross)
    if abs(area) < 1e-300:
        return 0.0, poly.mean(axis=0)
    cx = np.sum((x + xn) * cross) / (6 * area)
    cy = np.sum((y + yn) * cross) / (6 * area)
    return area, np.array([cx, cy])


def _clip_halfplane(poly, a, bx, by):
    """Keep the part of the polygon with a + bx*x + by*y <= 0."""
    if len(poly) == 0:
        return poly
    vals = a + bx * poly[:, 0] + by * poly[:, 1]
    out = []
    k = len(poly)
    for i in range(k):
        j = (i + 1) % k
        vi, vj = vals[i], vals[j]
        if vi <= 0:
            out.append(poly[i])
        if (vi < 0 < vj) or (vj < 0 < vi):
            t = vi / (vi - vj)
            out.append(poly[i] + t * (poly[j] - poly[i]))
    return np.asarray(out).reshape(-1, 2)


def clip_convex(poly, clipper):
    """Sutherland-Hodgman clip of a polygon against a convex CCW clipper."""
    out = np.asarray(poly, dtype=float)
    k = len(clipper)
    for i in range(k):
        p, q = clipper[i], clipper[(i + 1) % k]
        # interior of the CCW clipper is to the left of edge p->q
        bx, by = q[1] - p[1], -(q[0] - p[0])
        a = -(bx * p[0] + by * p[1])
        out = _clip_halfplane(out, a, bx, by)
        if len(out) == 0:
            break
    return out


def _partial_affine(u, cell, i):
    """Coefficients (a, bx, by) of partial_i u = a + bx*x + by*y on a cell."""
    space = u.space
    mesh = space.mesh
    uc = u.coeffs[mesh.cells[cell]]
    if space.kind == "P1":
        g = space.cell_basis_grads[cell]
        return float(uc @ g[:, i]), 0.0, 0.0
    h = mesh.h
    x0, y0 = mesh.nodes[mesh.cells[cell, 0]]
    c0, c1, c2, c3 = uc
    if i == 0:
        base = (c1 - c0) / h
        slope = ((c2 - c3) - (c1 - c0)) / h ** 2
        return base - slope * y0, 0.0, slope
    base = (c3 - c0) / h
    slope = ((c2 - c1) - (c3 - c0)) / h ** 2
    return base - slope * x0, slope, 0.0


def abs_partial_integral(u, region, i):
    """Exact integral of |partial_i u| over a convex polygonal region."""
    mesh = u.space.mesh
    region = np.asarray(region, dtype=float)
    rmin, rmax = region.min(axis=0), region.max(axis=0)
    v = mesh.nodes[mesh.cells]
    cmin, cmax = v.min(axis=1), v.max(axis=1)
    tol = 1e-12 * mesh.h
    candidates = np.flatnonzero(
        (cmin[:, 0] < rmax[0] - tol) & (cmax[:, 0] > rmin[0] + tol)
        & (cmin[:, 1] < rmax[1] - tol) & (cmax[:, 1] > rmin[1] + tol)
    )
    total = 0.0
    for cell in candidates:
        piece = clip_convex(v[cell], region)
        if len(piece) < 3:
            continue
        a, bx, by = _partial_affine(u, cell, i)
        for sign in (1.0, -1.0):
            part = _clip_halfplane(piece, sign * a, sign * bx, sign * by)
            if len(part) < 3:
                continue
            area, cen = polygon_area_centroid(part)
            total += abs(area * (a + bx * cen[0] + by * cen[1]))
    return total
