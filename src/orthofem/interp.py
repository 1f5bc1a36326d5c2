"""Orthotropically stable interpolation operators on lattice meshes.

Two families are provided:

* ``AveragedInterpolant`` (positivity preserving): nodal values are
  means of the input over the box v(k) + (-h/2, h/2)^2, summed against
  the interior Lagrange basis.  Stable per cell and direction with
  constant one.  For FE inputs on a nested mesh of double resolution
  the box means are exact: every source cell lies in the box of the
  lattice node nearest its centroid (read off the template), so one
  binned sum of the cell integrals gives all boxes at once.

* ``DualBasisProjector``: a genuine projection.  The node functionals
  pair the input with a dual function supported on the patch of the
  node, either piecewise quadratic on the half-refined Kuhn patch
  (the eight triangles around the node, taken from the node patch of
  ``mesh.refine_kuhn_half``; usable for both the Q1 and the P1 target)
  or piecewise bilinear on the four adjacent squares of a quad
  mesh (Q1 target only).  The dual function is biorthogonal to the
  shape functions of the patch nodes, so its coefficients solve the
  patch mass system for the node's unit vector.  Near the boundary
  the input is extended by odd reflection, realized as an evaluation
  rule: query points are reflected into the domain and the value sign
  is flipped once per reflection.

``fespace.map_rule`` takes every rule here onto the pieces around a node:
eight triangles, or four reflected squares (side h for the cubic dual,
h/2 for the averaging box).  ``_dual_family`` declares how the dual
families differ; the patch mass solve and the rules run one path on it.

Lattice nodes are addressed by integer index pairs (k1, k2), located at
lo + h (k1, k2) and read or written through ``mesh.lattice_ids``.

Inputs may be analytic callables on (n, 2) point arrays (integrated by
Gauss rules of degree CALLABLE_DEGREE) or FE functions.  The projection
of an FE input on a quad, boxslash or alternating-kuhn mesh whose lattice
refines the projector's r-fold is a nodal stencil on its lattice values,
the pairings of unit nodal functions read off one evaluation of the
input's shape functions at one node's rule points.

Every other input is paired pointwise on the lattice.  At construction each
rule offset splits into a lattice shift s and a residue r in [0, h)^2, and
the weights are summed per (shift, residue).  An apply evaluates the input
once at v(j) + r for each residue and each node j = k + s that a requested
node k reaches, NODE_BLOCK nodes j at a time, and node k sums over the
shifts.  The four squares of the cubic dual share their sixteen residues, so
each point is evaluated once rather than four times; the Kuhn patches and
the averaging boxes tile the domain, one shift per residue.  Odd
reflection copies and reflects a batch of points only if one of them
leaves the domain, which only the patches of boundary nodes do.

A block's points are written one coordinate at a time into a (2, m) buffer,
so a callable receives its (m, 2) array in Fortran order: it must index
columns (``x[:, 0]``) and not assume C order.  It must return a scalar or m
finite values; any other result raises ValueError (``fespace._field_values``).
"""

from collections import namedtuple

import numpy as np

from .fespace import FeFunction, _field_values, _q1_values, map_rule, quadrature_rule
from .mesh import build_tri, refine_kuhn_half

__all__ = [
    "AveragedInterpolant",
    "DualBasisProjector",
    "build_dual_table",
    "transfer",
]

FE_PAIRING_DEGREE = 4
CALLABLE_DEGREE = 6    # Gauss degree for analytic (callable) inputs
NODE_BLOCK = 512       # lattice nodes per pointwise evaluation of an input
RESIDUE_KEYS = 2 ** 20  # key grid per lattice spacing on which residues merge

def _point_evaluator(w):
    if isinstance(w, FeFunction):
        return w.evaluate
    if callable(w):
        return lambda points: _field_values(w, points)
    raise TypeError("input must be an FeFunction or a callable on point arrays")


def _odd_reflection(ev, bounds):
    """Evaluate through odd reflection across the domain faces, at most once
    per face: a patch reaches at most h beyond a face and the domain is at
    least 2 h wide (n >= 2), so one reflection lands every point inside."""
    lo, hi = bounds

    def reflected(points):
        if lo <= points.min() and points.max() <= hi:
            return ev(points)  # nothing to reflect: every interior patch
        pts = points.copy(order="K")  # keeps the points' Fortran order
        sign = np.ones(len(pts))
        for d in (0, 1):
            mask = pts[:, d] < lo
            pts[mask, d] = 2 * lo - pts[mask, d]
            sign[mask] *= -1.0
            mask = pts[:, d] > hi
            pts[mask, d] = 2 * hi - pts[mask, d]
            sign[mask] *= -1.0
        return sign * ev(pts)

    return reflected


def _lattice_rule(offsets, weights, h):
    """A patch rule (offsets from the node, weights) split on the lattice.

    Each offset is h s + r, a shift s in Z^2 and a residue r in [0, h)^2;
    equal residues are merged on the RESIDUE_KEYS grid and the weights summed
    per (shift, residue).  Residues paired with the same shifts form a group
    (shifts (T, 2), residues (M, 2), weights (T, M))."""
    shifts = np.floor(offsets / h).astype(np.int64)
    residues = offsets - h * shifts
    keys = np.rint(residues * (RESIDUE_KEYS / h)).astype(np.int64)
    _, first, rid = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    shift_set, sid = np.unique(shifts, axis=0, return_inverse=True)
    pairs = sid.ravel(), rid.ravel()
    table = np.zeros((len(shift_set), len(first)))
    np.add.at(table, pairs, weights)
    paired = np.zeros(table.shape, dtype=bool)
    paired[pairs] = True
    signatures, group = np.unique(paired.T, axis=0, return_inverse=True)
    group = group.ravel()
    return [(shift_set[sig], residues[first[group == g]], table[sig][:, group == g])
            for g, sig in enumerate(signatures)]


def _block_points(corners, residues):
    """The points v + r of a block of corners (2, b) and residues (M, 2), in the
    row-major order of (b, M, 2) and shaped (b M, 2), but stored in Fortran
    order: written one coordinate at a time, so that numpy's inner loop runs
    along the points rather than along a pair."""
    buf = np.empty((2, corners.shape[1], len(residues)))
    np.add(corners[:, :, None], residues.T[:, None, :], out=buf)
    return buf.reshape(2, -1).T


def _node_integrals(ev, mesh, kk, rule):
    """Per lattice node k in kk, the sum over the patch rule of
    ev(v(k) + offset) weight, the rule split by ``_lattice_rule``.

    Per group, each lattice node j = k + s that some requested k reaches is
    evaluated once at v(j) + r for all the group's residues r, NODE_BLOCK
    nodes at a time in row-major order, and weighted once per shift s; node
    k then sums, over the shifts s, the values of k + s weighted for s."""
    lo, h, n = mesh.bounds[0], mesh.h, mesh.n
    out = np.zeros(len(kk))
    for shifts, residues, weights in rule:
        # row-major keys of the reached nodes, which lie in [0, n]^2 + shifts
        base, span = shifts.min(axis=0), n + 1 + np.ptp(shifts[:, 1])
        reach = kk[:, None, :] + shifts - base
        reached, at = np.unique(reach[..., 0] * span + reach[..., 1], return_inverse=True)
        corners = lo + h * (np.stack(np.divmod(reached, span)) + base[:, None])  # (2, nodes)
        values = np.concatenate([
            ev(_block_points(v, residues)).reshape(v.shape[1], -1) @ weights.T
            for v in np.split(corners, range(NODE_BLOCK, corners.shape[1], NODE_BLOCK),
                              axis=1)])
        out += values[at.reshape(reach.shape[:2]), np.arange(len(shifts))].sum(axis=1)
    return out


def _require_lattice(mesh, what):
    if not mesh.is_lattice_mesh:
        raise ValueError(f"{what} is defined on lattice meshes only "
                         f"(pattern {mesh.pattern!r} carries non-lattice nodes)")


def _lattice_pair(j):
    """One node index pair as a (1, 2) integer array; rejects non-integers."""
    kk = np.asarray(j, dtype=float)
    if kk.shape != (2,) or np.any(kk != np.round(kk)):
        raise ValueError(f"node index {j} is not an integer pair")
    return kk.astype(np.int64)[None, :]


def _interior_pairs(mesh):
    """Index pairs (k1, k2) of the interior lattice nodes, shape (m, 2).

    Row-major, unlike ``np.argwhere``, so that point arrays built from
    the pairs reshape without a copy."""
    return np.stack(np.nonzero(~mesh.boundary[mesh.lattice_ids]), axis=1)


class AveragedInterpolant:
    """Box-average quasi-interpolant onto a Q1 or lattice P1 space."""

    def __init__(self, space):
        _require_lattice(space.mesh, "the averaged interpolant")
        self.space = space
        h = space.mesh.h
        # quadrant-wise tensor rule on the averaging box, so inputs that
        # are piecewise polynomial on the half lattice integrate exactly
        pts, wts = map_rule(quadrature_rule("quad", CALLABLE_DEGREE), _quadrants(h / 2))
        self._box_points = pts.reshape(-1, 2)     # offsets from the node
        self._box_weights = wts.ravel() / h ** 2  # sums to 1
        self._box_rule = _lattice_rule(self._box_points, self._box_weights, h)

    def _averages_exact(self, w):
        """Box means of an FE input at every lattice node, indexed [k1, k2]."""
        source = w.space.mesh
        mesh = self.space.mesh
        if source.bounds != mesh.bounds or source.n % (2 * mesh.n) != 0:
            raise ValueError(
                "exact box averages need an input mesh nested at double "
                "resolution; pass a callable otherwise")
        # nesting keeps every source cell inside one box: bin it by the
        # lattice node nearest to its centroid
        a, b, t, slot = source.decode(np.arange(source.num_cells))
        centroids = source.corners(a, b) + source.template.mean(axis=2)[t, slot]
        k = np.rint((centroids - mesh.bounds[0]) / mesh.h).astype(np.int64)
        # the vertex mean is the exact cell mean of a P1 or Q1 function
        integrals = np.abs(source.cell_areas()) * w.coeffs[source.cells].mean(axis=1)
        sums = np.bincount(mesh.lattice_ids[k[:, 0], k[:, 1]], weights=integrals,
                           minlength=mesh.num_nodes)
        return sums[mesh.lattice_ids] / mesh.h ** 2

    def _averages(self, w, kk):
        if isinstance(w, FeFunction):
            return self._averages_exact(w)[kk[:, 0], kk[:, 1]]
        return _node_integrals(_point_evaluator(w), self.space.mesh, kk, self._box_rule)

    def box_average(self, w, k):
        """Mean of the input over the box centered at interior node k."""
        kk = _lattice_pair(k)
        if np.any((kk < 1) | (kk > self.space.mesh.n - 1)):
            raise ValueError(
                f"averaging box at node {k} leaves the domain and no "
                "extension rule is supplied")
        return float(self._averages(w, kk)[0])

    def apply(self, w):
        """Interpolant with box-average coefficients, zero on the boundary."""
        mesh = self.space.mesh
        kk = _interior_pairs(mesh)
        coeffs = np.zeros(self.space.ndofs)
        coeffs[mesh.lattice_ids[kk[:, 0], kk[:, 1]]] = self._averages(w, kk)
        return FeFunction(self.space, coeffs)


def _p2_shapes(ref_points):
    x, y = ref_points[:, 0], ref_points[:, 1]
    l0, l1, l2 = 1 - x - y, x, y
    return np.stack([l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
                     4 * l1 * l2, 4 * l2 * l0, 4 * l0 * l1], axis=1)


def _quadrants(side):
    """Per quadrant around the origin, the images of (0, 0), (1, 0) and (0, 1)
    under the reflection of the reference square onto the quadrant's square
    of the given side, shaped (4, 3, 2)."""
    signs = np.array([(qx, qy) for qx in (-1.0, 1.0) for qy in (-1.0, 1.0)])
    return np.stack([0 * signs, signs * (side, 0), signs * (0, side)], axis=1)


# reference element and shape values of the pieces; per piece the images of
# (0, 0), (1, 0), (0, 1) (P, 3, 2) and the shape nodes (P, nloc, 2), as offsets
# from the node; the admissible target kinds
_DualFamily = namedtuple("_DualFamily", "element shapes corners nodes targets")


def _dual_family(kind, mesh):
    """The one declaration of how the two dual families differ."""
    h = mesh.h
    if kind == "simplicial":
        if mesh.pattern != "alternating-kuhn":
            raise ValueError("simplicial dual tables need an alternating-kuhn mesh")
        # the node patch of the half-refined Kuhn mesh: the center node of a
        # 2 x 2 mesh on (-h, h)^2; P2 nodes are the vertices, then the midpoints
        refined = refine_kuhn_half(build_tri(2, "alternating-kuhn", bounds=(-h, h)))
        a, b, t, k = refined.child.decode(refined.node_patches[(1, 1)])
        tris = refined.child.corners(a, b)[:, None] + refined.child.template[t, k]  # (8, 3, 2)
        nodes = np.concatenate([tris, (tris[:, [1, 2, 0]] + tris[:, [2, 0, 1]]) / 2], axis=1)
        return _DualFamily("triangle", _p2_shapes, tris, nodes, ("Q1", "P1"))
    if kind == "cubic":
        if mesh.kind != "quad":
            raise ValueError("cubic dual tables need a quad mesh")
        # the four adjacent squares, each reflected so that its Q1 vertex
        # order reads node, x-neighbor, diagonal, y-neighbor
        corners = _quadrants(h)
        nodes = np.stack([corners[:, 0], corners[:, 1], corners[:, 1] + corners[:, 2],
                          corners[:, 2]], axis=1)
        return _DualFamily("quad", _q1_values, corners, nodes, ("Q1",))
    raise ValueError(f"unknown dual table kind {kind!r}")


def _dual_coefficients(family, h):
    """Coefficients (P, nloc) of the node's dual function on the shapes of the
    pieces: biorthogonal to the shape function of every patch node, so the
    solution of the patch mass system for the node's unit vector."""
    rule = quadrature_rule(family.element, 4)  # exact on products of two shapes
    shapes = family.shapes(rule.points)
    local = np.einsum("pq,qa,qb->pab", map_rule(rule, family.corners)[1], shapes, shapes)
    # number the patch nodes by their position on the quarter lattice
    keys = np.rint(family.nodes.reshape(-1, 2) * (4 / h)).astype(np.int64)
    keys, ids = np.unique(keys, axis=0, return_inverse=True)
    ids = ids.reshape(family.nodes.shape[:2])
    mass = np.zeros((len(keys), len(keys)))
    np.add.at(mass, (ids[:, :, None], ids[:, None, :]), local)
    return np.linalg.solve(mass, np.all(keys == 0, axis=1).astype(float))[ids]


class DualBasisProjector:
    """Projection onto Q1/P1 lattice spaces via a biorthogonal dual basis.

    Parameters
    ----------
    kind : str
        ``"simplicial"`` (piecewise quadratic dual on the half-refined
        Kuhn patch; pairs with both Q1 and P1 targets) or ``"cubic"``
        (piecewise bilinear on the four adjacent squares; Q1 only).
    mesh : StructuredMesh
        Alternating-kuhn triangle mesh (simplicial) or quad mesh
        (cubic); fixes the lattice, spacing, and bounds.

    Analytic inputs are integrated with Gauss rules of degree
    CALLABLE_DEGREE, FE inputs with degree-4 rules (see ``apply``).
    """

    def __init__(self, kind, mesh):
        family = self._family = _dual_family(kind, mesh)
        _require_lattice(mesh, "the dual-basis projector")
        self.kind, self.mesh, self.table = kind, mesh, _dual_coefficients(family, mesh.h)
        self._rules = {}
        for label, degree in (("fe", FE_PAIRING_DEGREE), ("callable", CALLABLE_DEGREE)):
            rule = quadrature_rule(family.element, degree)
            pts, wts = map_rule(rule, family.corners)
            dual = np.einsum("qa,pa->pq", family.shapes(rule.points), self.table)
            self._rules[label] = (pts.reshape(-1, 2), (wts * dual).ravel())
        self._lattice_rules = {label: _lattice_rule(*rule, mesh.h)
                               for label, rule in self._rules.items()}

    def _pairings(self, w, kk):
        ev = _odd_reflection(_point_evaluator(w), self.mesh.bounds)
        label = "fe" if isinstance(w, FeFunction) else "callable"
        return _node_integrals(ev, self.mesh, kk, self._lattice_rules[label])

    def pairing(self, w, j):
        """Pairing of the input with the node dual function.

        Boundary nodes are admissible: the input is extended by odd
        reflection, which makes the pairing vanish there.
        """
        kk = _lattice_pair(j)
        if np.any((kk < 0) | (kk > self.mesh.n)):
            raise ValueError(f"node index {j} outside the lattice")
        return float(self._pairings(w, kk)[0])

    def apply(self, w, target_space):
        """Project onto the target space; zero trace by construction.

        FE inputs on a lattice mesh (every node a lattice node) on the same
        bounds, with n a multiple of the projector's, go through a nodal
        stencil; other inputs are paired pointwise on the lattice."""
        target = target_space.mesh
        if target.bounds != self.mesh.bounds or target.n != self.mesh.n:
            raise ValueError("target lattice does not match the projector")
        _require_lattice(target, "the dual-basis projection target")
        if target_space.kind not in self._family.targets:
            raise ValueError(f"{self.kind} dual tables are biorthogonal to "
                             f"{' and '.join(self._family.targets)} targets only")
        n = self.mesh.n
        source = w.space.mesh if isinstance(w, FeFunction) else None
        if (source is not None and source.is_lattice_mesh
                and source.bounds == self.mesh.bounds and source.n % n == 0):
            values = self._stencil_pairings(w)
        else:
            values = self._pairings(w, _interior_pairs(target)).reshape(n - 1, n - 1)
        coeffs = np.zeros(target_space.ndofs)
        coeffs[target.lattice_ids[1:n, 1:n]] = values
        return FeFunction(target_space, coeffs)

    def _stencil_pairings(self, w):
        """Interior pairings [k1 - 1, k2 - 1] of an FE input on an r-fold refined
        lattice.  Node k's patch lies in the domain and meets the input's nodes
        r k + d, |d1|, |d2| <= r, only: its pairing is a stencil on their values,
        the pairings of unit nodal functions at node (1, 1) and (1, 2), all read
        off one evaluation of the shape functions at the node's rule points: at
        odd r, alternating-kuhn diagonals alternate with k1 + k2."""
        n, space = self.mesh.n, w.space
        r, (offsets, weights) = space.mesh.n // n, self._rules["fe"]
        nodes, stencils = self.mesh.bounds[0] + self.mesh.h * np.array([(1, 1), (1, 2)]), []
        for p in range(1 + (n > 2)):
            ids, shapes = space.point_shapes(nodes[p] + offsets)
            units = np.bincount(ids.ravel(), (shapes * weights[:, None]).ravel(),
                                minlength=space.ndofs)
            stencils.append(units[space.mesh.lattice_ids[:2 * r + 1, r * p:r * p + 2 * r + 1]])
        stencils = np.array(stencils)
        windows = np.lib.stride_tricks.sliding_window_view(
            w.coeffs[space.mesh.lattice_ids], stencils.shape[1:])[::r, ::r]
        values = np.einsum("abij,pij->pab", windows, stencils)
        return np.where(np.indices((n - 1, n - 1)).sum(axis=0) % 2, values[-1], values[0])


def build_dual_table(kind, mesh):
    """Dual-basis projector for the mesh, its coefficients solved on the patch."""
    return DualBasisProjector(kind, mesh)


def transfer(v, target_space):
    """Copy nodal values between Q1 and P1 spaces on matching lattices."""
    source = v.space.mesh
    target = target_space.mesh
    _require_lattice(source, "transfer")
    _require_lattice(target, "transfer")
    if source.n != target.n or source.bounds != target.bounds:
        raise ValueError("transfer needs matching lattices")
    coeffs = np.zeros(target_space.ndofs)
    coeffs[target.lattice_ids] = v.coeffs[source.lattice_ids]
    return FeFunction(target_space, coeffs)
