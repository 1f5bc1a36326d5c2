"""Reference computations shared by several test modules."""

import math

import numpy as np

from orthofem import analysis
from orthofem.fespace import map_rule
from orthofem.linalg import CsrPattern
from orthofem.mesh import locate
from orthofem.nfunc import _check_nonnegative
from orthofem.solver import STRUCTURAL_ZERO


class TripletPattern(CsrPattern):
    """The sort-based pattern build: a CsrPattern of arbitrary COO triplet
    indices ``rows`` and ``cols``, which broadcast against each other
    (triplets in the row-major order of the broadcast shape); with a boolean
    mask ``keep``, of their principal block on the kept nodes, renumbered in
    order.  A boolean ``where``, broadcast the same way, drops each triplet
    where it is False, as it drops one that touches a node outside ``keep``.
    One stable sort of the row-major keys finds the distinct entries, which
    lead each row in column order, its unused slots pointing at the row; a
    row without a diagonal entry gets a zero slot for it.  This is another
    valid layout than ``CsrPattern``'s, whose slots are a node class's."""

    def __init__(self, dim, rows, cols, keep=None, where=None):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        for index in (rows, cols):
            if index.size and (index.min() < 0 or index.max() >= dim):
                raise IndexError("triplet index out of range")
        where = np.asarray(True if where is None else where)
        if where.dtype != bool:
            raise ValueError("where must be a boolean mask of the triplets")
        if keep is not None:
            keep = np.asarray(keep)
            if keep.dtype != bool or keep.shape != (dim,):
                raise ValueError(f"keep must be a boolean mask of shape ({dim},)")
            renumber = np.cumsum(keep) - 1
            dim = int(np.count_nonzero(keep))
            where = where & keep[rows] & keep[cols]
            rows, cols = renumber[rows], renumber[cols]
        keys = rows * dim + cols  # row-major, in the broadcast shape of the triplets
        np.copyto(keys, dim * dim, where=~where)  # a dropped triplet sorts last
        keys = keys.ravel()
        del rows, cols, where  # before the sort
        self.dim = dim
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.ones(len(keys), dtype=np.int64)  # int64: cumsum counts it in place
        first[1:] = keys[1:] != keys[:-1]
        keys = keys[(first == 1) & (keys < dim * dim)]  # the distinct kept entries
        first[:1] = 0  # so that the count below numbers entries from 0
        entry = np.empty_like(order)  # of each triplet, in input order
        entry[order] = np.cumsum(first, out=first)
        del order, first
        r, c = np.divmod(keys, dim)
        counts = np.bincount(r, minlength=dim)
        slot = np.arange(len(r)) - (np.cumsum(counts) - counts)[r]
        self.slots = slot * dim + r
        diag = counts.copy()  # a row without a diagonal entry gets a zero slot
        diag[r[r == c]] = slot[r == c]
        width = int(np.maximum(counts, diag + 1).max(initial=0))
        self.target = np.append(self.slots, width * dim)[entry]
        del entry
        ids = np.arange(dim)
        self.diag = diag * dim + ids
        self.cols = np.tile(ids, (width, 1))
        np.put(self.cols, self.slots, c)
        tkeys = c * dim + r
        del slot, diag, r, c  # before the transpose map's temporaries
        pos = np.searchsorted(keys, tkeys)
        pos[keys.take(pos, mode="clip") != tkeys] = len(keys)  # not stored
        self.transpose = np.arange(width * dim).reshape(width, dim)
        np.put(self.transpose, self.slots, np.append(self.slots, width * dim)[pos])


def cell_pattern(space, coupled, keep=None):
    """The oracle of ``CsrPattern(space.mesh, coupled, keep)``: every pair
    (a, b) of every cell as a triplet, where ``coupled`` marks it."""
    mesh = space.mesh
    _, _, t, k = mesh.decode(np.arange(mesh.num_cells))
    return TripletPattern(space.ndofs, mesh.cells[:, :, None], mesh.cells[:, None, :],
                          keep, coupled[t, k])


def prolongation_layout(fine, coarse):
    """The sort build of ``solver._Transfer``'s padded rows (vals, cols):
    nodal interpolation from ``coarse`` at the fine interior nodes, each
    row's nonzero shape values moved to its front by a stable argsort."""
    ids, shapes = coarse.point_shapes(fine.mesh.nodes[fine.interior])
    shapes[(np.abs(shapes) < STRUCTURAL_ZERO) | coarse.mesh.boundary[ids]] = 0.0
    order = np.argsort(shapes == 0.0, axis=1, kind="stable")  # nonzeros first
    order = order[:, :np.count_nonzero(shapes, axis=1).max()]
    vals = np.take_along_axis(shapes, order, axis=1).T.copy()
    cols = (np.cumsum(coarse.interior) - 1)[np.take_along_axis(ids, order, axis=1).T]
    cols[vals == 0.0] = 0
    return vals, cols


def phi_deriv(phi, t):
    """phi'(t) = t (delta^2 + t^2)^((p-2)/2) of a PowerNFunction phi."""
    _check_nonnegative(t)
    t = np.asarray(t, dtype=float)
    if phi.delta == 0.0:
        out = t ** (phi.p - 1)
    else:
        out = t * (phi.delta ** 2 + t ** 2) ** ((phi.p - 2) / 2)
    return out if out.ndim else float(out)


def integrate(space, cell, integrand, degree):
    """Gauss integral of a pointwise integrand over one cell."""
    pts, wts = space.rule_geometry(degree, [cell])
    return float(np.sum(wts[0] * np.asarray(integrand(pts[0]))))


def pointwise_error_norms(u_h, ms, law, degree=analysis.ERROR_DEGREE):
    """``analysis.error_norms`` with the exact gradient ``ms.grad`` evaluated
    at every quadrature point of every cell (``rule_geometry``), summed over
    blocks of ``analysis.ERROR_BLOCK_CELLS`` cells, as read at the call."""
    space = u_h.space
    p1, p2 = law.exponents
    sum_p1 = sum_p2 = sum_v = 0.0
    for start in range(0, space.mesh.num_cells, analysis.ERROR_BLOCK_CELLS):
        cells = slice(start, start + analysis.ERROR_BLOCK_CELLS)
        pts, wts = space.rule_geometry(degree, cells)
        gu = u_h.gradients_on_rule(degree, cells)
        ge = ms.grad(pts)
        sum_p1 += float(np.sum(wts * np.abs(ge[..., 0] - gu[..., 0]) ** p1))
        sum_p2 += float(np.sum(wts * np.abs(ge[..., 1] - gu[..., 1]) ** p2))
        v1 = law.natural(0, ge[..., 0]) - law.natural(0, gu[..., 0])
        v2 = law.natural(1, ge[..., 1]) - law.natural(1, gu[..., 1])
        sum_v += float(np.sum(wts * (v1 ** 2 + v2 ** 2)))
    e_comb = (sum_p1 + sum_p2) ** (1 / p1) if p1 == p2 else None
    return analysis.ErrorReport(sum_p1 ** (1 / p1), sum_p2 ** (1 / p2), math.sqrt(sum_v),
                                e_comb)


def vertex_rule_geometry(space, degree, cells=slice(None)):
    """Quadrature points and weights of the given cells, each mapped from its
    own vertices 0, 1 and the last, the images of (0, 0), (1, 0), (0, 1)."""
    mesh = space.mesh
    return map_rule(space.rule(degree), mesh.nodes[mesh.cells[cells][:, [0, 1, -1]]])


def vertex_evaluate(u, points):
    """Values of an FE function at points, each inverted by hand on the map
    of its located cell's vertices 0, 1 and the last."""
    mesh = u.space.mesh
    ids = mesh.cells[locate(mesh, points)]
    v0 = mesh.nodes[ids[:, 0]]
    (ax, ay), (bx, by) = ((mesh.nodes[ids[:, k]] - v0).T for k in (1, -1))
    dx, dy = (points - v0).T
    det = ax * by - ay * bx
    ref = np.stack([dx * by - dy * bx, ax * dy - ay * dx], axis=1) / det[:, None]
    return np.einsum("pa,pa->p", u.space.shape_values(ref), u.coeffs[ids])


def p1_basis_grads(mesh, cells=slice(None)):
    """Physical P1 basis gradients of the given cells (all by default), shaped
    (nc, 3, 2), from their vertex coordinates: the gradient of the function
    that is 1 at vertex i and 0 at the others is the opposite edge turned by
    90 degrees, over 2|T|."""
    v = mesh.nodes[mesh.cells[cells]]
    e1, e2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    grads = np.empty((len(v), 3, 2))
    for i in range(3):
        edge = v[:, (i + 2) % 3] - v[:, (i + 1) % 3]
        grads[:, i, 0] = -edge[:, 1] / det
        grads[:, i, 1] = edge[:, 0] / det
    return grads


# --- numpy reference for fespace.abs_partial_integral ----------------------

def polygon_area_centroid(poly):
    """Signed area and centroid of a polygon given as a (k, 2) array, both
    taken about its first vertex, so that far from the origin the products
    stay as small as the polygon."""
    x, y = (poly - poly[0]).T
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * np.sum(cross)
    if abs(area) < 1e-300:
        return 0.0, poly.mean(axis=0)
    cx = np.sum((x + xn) * cross) / (6 * area)
    cy = np.sum((y + yn) * cross) / (6 * area)
    return area, poly[0] + np.array([cx, cy])


def _clip_halfplane(poly, a, bx, by, origin=(0.0, 0.0)):
    """Keep the part of the polygon with a + bx*(x - x0) + by*(y - y0) <= 0,
    (x0, y0) the origin."""
    if len(poly) == 0:
        return poly
    vals = a + bx * (poly[:, 0] - origin[0]) + by * (poly[:, 1] - origin[1])
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
        # interior of the CCW clipper is to the left of edge p->q; taken about
        # p, the value is exactly 0 at p and q
        bx, by = q[1] - p[1], -(q[0] - p[0])
        out = _clip_halfplane(out, 0.0, bx, by, p)
        if len(out) == 0:
            break
    return out


def _partial_affine(u, cell, i):
    """Coefficients (a, bx, by) of partial_i u = a + bx*(x - x0) + by*(y - y0)
    on a cell, (x0, y0) its vertex 0."""
    space = u.space
    mesh = space.mesh
    uc = u.coeffs[mesh.cells[cell]]
    if space.kind == "P1":
        g = p1_basis_grads(mesh, [cell])[0]
        return float(uc @ g[:, i]), 0.0, 0.0
    h = mesh.h
    c0, c1, c2, c3 = uc
    if i == 0:
        return (c1 - c0) / h, 0.0, ((c2 - c3) - (c1 - c0)) / h ** 2
    return (c3 - c0) / h, ((c2 - c1) - (c3 - c0)) / h ** 2, 0.0


def abs_partial_integral(u, region, i):
    """Integral of |partial_i u| over a convex CCW region: the region is
    clipped against every cell whose bounding box overlaps its own, and split
    where partial_i u changes sign."""
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
        piece = clip_convex(region, v[cell]) - v[cell, 0]
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
