import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orthofem.analysis import ManufacturedSolution, error_norms
from orthofem.fespace import (FeFunction, FeSpace, _p1_values, _q1_grads, _q1_values,
                              abs_partial_integral, interpolate_nodal,
                              map_rule, quadrature_rule)
from orthofem.mesh import build_quad, build_tri, refine_kuhn_half
from orthofem.nfunc import GrowthLaw
from orthofem.solver import _assembler, assemble_load, assemble_stiffness

import oracles
from oracles import clip_convex, integrate, polygon_area_centroid


def _check_ref_point(kind, xref, tol=1e-12):
    x, y = xref
    if kind == "Q1":
        ok = -tol <= x <= 1 + tol and -tol <= y <= 1 + tol
    else:
        ok = x >= -tol and y >= -tol and x + y <= 1 + tol
    if not ok:
        raise ValueError(f"reference point {xref} outside the reference element")


def basis_eval(space, cell, local, xref):
    """Value of a local basis function at a reference point."""
    _check_ref_point(space.kind, xref)
    pts = np.asarray([xref], dtype=float)
    vals = _q1_values(pts) if space.kind == "Q1" else _p1_values(pts)
    return float(vals[0, local])


def basis_grad(space, cell, local, xref):
    """Physical gradient of a local basis function at a reference point."""
    _check_ref_point(space.kind, xref)
    pts = np.asarray([xref], dtype=float)
    if space.kind == "Q1":
        g = _q1_grads(pts)[0, local] / space.mesh.h
        return np.asarray(g)
    return oracles.p1_basis_grads(space.mesh, [cell])[0, local]


def reference_monomial_integral(kind, a, b):
    if kind == "quad":
        return 1.0 / ((a + 1) * (b + 1))
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def mapped_monomial_integral(kind, corners, a, b):
    """Exact integral of x^a y^b over the affine image of the reference element
    with (0, 0), (1, 0), (0, 1) sent to the corners: x and y expanded as
    polynomials in the reference coordinates, coefficient [i, j] of s^i t^j."""
    (x0, y0), (x1, y1), (x2, y2) = corners
    poly = np.ones((1, 1))
    xs, ys = [[x0, x2 - x0], [x1 - x0, 0.0]], [[y0, y2 - y0], [y1 - y0, 0.0]]
    for factor in [xs] * a + [ys] * b:
        grown = np.zeros((len(poly) + 1, len(poly) + 1))
        for (i, j), c in np.ndenumerate(factor):
            grown[i:i + len(poly), j:j + len(poly)] += c * poly
        poly = grown
    det = abs((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
    return det * sum(c * reference_monomial_integral(kind, i, j)
                     for (i, j), c in np.ndenumerate(poly))


# a reflected piece (negative orientation) and a sheared one
MAPPED_PIECES = (((0.3, -0.2), (-0.9, -0.2), (0.3, 0.5)),
                 ((0.1, 0.2), (0.9, 0.5), (-0.3, 1.1)))


@pytest.mark.parametrize("kind", ["quad", "triangle"])
@pytest.mark.parametrize("degree", range(1, 8))
def test_quadrature_exactness(kind, degree):
    rule = quadrature_rule(kind, degree)
    assert np.all(rule.weights > 0)
    measure = 1.0 if kind == "quad" else 0.5
    assert float(np.sum(rule.weights)) == pytest.approx(measure, abs=1e-14)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            val = float(np.sum(rule.weights * rule.points[:, 0] ** a
                               * rule.points[:, 1] ** b))
            assert val == pytest.approx(reference_monomial_integral(kind, a, b),
                                        abs=1e-13)
    pts, wts = map_rule(rule, np.array(MAPPED_PIECES))
    assert np.all(wts > 0)
    for corners, p, w in zip(MAPPED_PIECES, pts, wts):
        area = mapped_monomial_integral(kind, corners, 0, 0)
        assert area == pytest.approx(0.84 * measure, rel=1e-14)
        assert float(w.sum()) == pytest.approx(area, rel=1e-14)
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                val = float(np.sum(w * p[:, 0] ** a * p[:, 1] ** b))
                assert val == pytest.approx(mapped_monomial_integral(kind, corners, a, b),
                                            abs=1e-13)


@pytest.mark.parametrize("kind", ["quad", "triangle"])
def test_shared_rule_is_read_only(kind):
    rule = quadrature_rule(kind, 4)
    assert quadrature_rule(kind, 4) is rule
    before = rule.points.copy(), rule.weights.copy()
    for array in (rule.points, rule.weights):
        with pytest.raises(ValueError):
            array[0] = 0.0
        with pytest.raises(ValueError):
            array *= 2.0
    assert np.array_equal(rule.points, before[0])
    assert np.array_equal(rule.weights, before[1])


def test_unsupported_degree():
    with pytest.raises(ValueError):
        quadrature_rule("quad", 8)
    with pytest.raises(ValueError):
        quadrature_rule("triangle", 0)


class TestBasis:
    def test_partition_of_unity(self):
        rng = np.random.default_rng(7)
        q1 = FeSpace(build_quad(3))
        p1 = FeSpace(build_tri(3, "boxslash"))
        for _ in range(100):
            xq = rng.random(2)
            total = sum(basis_eval(q1, 0, a, xq) for a in range(4))
            assert total == pytest.approx(1.0, abs=1e-14)
            xt = rng.random(2)
            if xt.sum() > 1:
                xt = 1 - xt
            total = sum(basis_eval(p1, 0, a, xt) for a in range(3))
            assert total == pytest.approx(1.0, abs=1e-14)

    def test_p1_nodal_values(self):
        space = FeSpace(build_tri(2, "boxslash"))
        verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        for a in range(3):
            for b, v in enumerate(verts):
                assert basis_eval(space, 0, a, v) == pytest.approx(float(a == b), abs=0)

    def test_q1_corner_gradient(self):
        space = FeSpace(build_quad(4))
        g = basis_grad(space, 0, 0, (0.0, 0.0))
        assert np.allclose(g, [-4.0, -4.0])  # components are +-1/h with h=1/4

    def test_point_outside_reference_element(self):
        space = FeSpace(build_quad(2))
        with pytest.raises(ValueError):
            basis_eval(space, 0, 0, (1.5, 0.2))
        tri = FeSpace(build_tri(2, "boxslash"))
        with pytest.raises(ValueError):
            basis_eval(tri, 0, 0, (0.7, 0.7))


class TestNodalInterpolation:
    def test_zero_field(self):
        space = FeSpace(build_quad(3))
        u = interpolate_nodal(space, lambda x: np.zeros(len(x)))
        assert np.all(u.coeffs == 0)

    def test_coordinate_reproduced(self):
        space = FeSpace(build_quad(4))
        u = interpolate_nodal(space, lambda x: x[:, 0])
        pts, _ = space.rule_geometry(3)
        vals = u.evaluate(pts.reshape(-1, 2))
        assert np.allclose(vals, pts.reshape(-1, 2)[:, 0], atol=1e-13)

    def test_linear_reproduction_of_gradients(self):
        for space in (FeSpace(build_quad(5)), FeSpace(build_tri(5, "alternating-kuhn"))):
            u = interpolate_nodal(space, lambda x: 2.0 * x[:, 0] - 0.7 * x[:, 1] + 0.3)
            g = u.gradients_on_rule(3)
            assert np.allclose(g[..., 0], 2.0, atol=1e-12)
            assert np.allclose(g[..., 1], -0.7, atol=1e-12)

    def test_saddle_is_discretely_harmonic_for_q1_stencil(self):
        # oracle: assemble the Q1 Laplacian and check the interior residual
        space = FeSpace(build_quad(4))
        u = interpolate_nodal(space, lambda x: (x[:, 0] ** 2 - x[:, 1] ** 2) / 2)
        k_matrix = assemble_stiffness(space)
        residual = k_matrix.matvec(u.coeffs)
        assert np.abs(residual[space.interior_dofs]).max() < 1e-12

    def test_nonfinite_sample_rejected(self):
        space = FeSpace(build_quad(2))
        with pytest.raises(ValueError):
            interpolate_nodal(space, lambda x: np.where(x[:, 0] > 0.4, np.nan, 1.0))


class TestIntegrate:
    def test_constant_gives_area(self):
        for space in (FeSpace(build_quad(3)), FeSpace(build_tri(3, "cross"))):
            areas = space.mesh.cell_areas()
            for cell in (0, 3):
                val = integrate(space, cell, lambda x: np.ones(len(x)), 2)
                assert val == pytest.approx(float(areas[cell]), rel=1e-14)

    def test_bilinear_moment(self):
        rule = quadrature_rule("quad", 2)
        val = float(np.sum(rule.weights * rule.points[:, 0] * rule.points[:, 1]))
        assert val == pytest.approx(0.25, abs=1e-15)

    def test_degree_refinement_of_gradient_power(self):
        # |d1 u|^p for the p = 3/2 exact solution: degree 5 vs 7 agree
        space = FeSpace(build_tri(8, "boxslash"))
        law = GrowthLaw((1.5, 1.5))
        q1 = 3.0

        def integrand(x):
            return np.abs(x[:, 0] ** (q1 - 1)) ** 1.5

        val5 = sum(integrate(space, c, integrand, 5) for c in range(space.mesh.num_cells))
        val7 = sum(integrate(space, c, integrand, 7) for c in range(space.mesh.num_cells))
        assert val5 == pytest.approx(val7, rel=1e-8)
        assert law.exponents == (1.5, 1.5)


class TestEvaluate:
    @pytest.mark.parametrize("pattern", ["boxslash", "alternating-kuhn",
                                         "unionjack", "cross"])
    def test_linear_field_everywhere(self, pattern):
        space = FeSpace(build_tri(4, pattern))
        u = interpolate_nodal(space, lambda x: 3.0 * x[:, 0] + 0.5 * x[:, 1])
        rng = np.random.default_rng(3)
        pts = rng.random((200, 2))
        assert np.allclose(u.evaluate(pts), 3.0 * pts[:, 0] + 0.5 * pts[:, 1],
                           atol=1e-13)

    def test_quad_bilinear_field(self):
        space = FeSpace(build_quad(5))
        u = interpolate_nodal(space, lambda x: x[:, 0] * x[:, 1])
        rng = np.random.default_rng(4)
        pts = rng.random((100, 2))
        each_cell_exact = u.evaluate(pts)
        # bilinear is reproduced exactly on every (axis aligned) cell
        assert np.allclose(each_cell_exact, pts[:, 0] * pts[:, 1], atol=1e-13)

    @pytest.mark.parametrize("bounds", [(0.0, 1.0), (-1.0, 2.0)])
    def test_points_off_the_square_rejected(self, bounds):
        lo, hi = bounds
        u = interpolate_nodal(FeSpace(build_quad(4, bounds)), lambda x: x[:, 0] ** 2)
        # corners and points within roundoff of the square are accepted
        edge = np.array([[lo, lo], [hi, hi], [hi + 1e-14, lo - 1e-14]])
        assert np.allclose(u.evaluate(edge), [lo ** 2, hi ** 2, hi ** 2], atol=1e-12)
        mid = (lo + hi) / 2
        for point in ([hi + 0.5, mid], [lo - 1e-9, mid], [3.0, 3.0], [mid, np.nan]):
            with pytest.raises(ValueError):
                u.evaluate(np.array([[mid, mid], point]))


class TestPolygonTools:
    def test_area_centroid_square(self):
        poly = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
        area, centroid = polygon_area_centroid(poly)
        assert area == pytest.approx(4.0)
        assert np.allclose(centroid, [1.0, 1.0])

    def test_clip_triangle_against_square(self):
        tri = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        piece = clip_convex(tri, square)
        area, _ = polygon_area_centroid(piece)
        assert area == pytest.approx(1.0 - 0.5 * 1.0 * 1.0 / 2 * 0)  # full unit square minus nothing
        # the intersection is the unit square minus the corner above x+y=2: area 1
        assert area == pytest.approx(1.0)

    def test_abs_partial_integral_q1_against_1d_closed_form(self):
        # independent oracle: per cell d1 u = c + d y; split the y-interval at
        # the root and integrate |.| of the linear function in closed form
        space = FeSpace(build_quad(4))
        rng = np.random.default_rng(11)
        u = FeFunction(space, rng.standard_normal(space.ndofs))
        mesh = space.mesh
        h = mesh.h
        for cell in range(mesh.num_cells):
            c0, c1, c2, c3 = u.coeffs[mesh.cells[cell]]
            x0, y0 = mesh.nodes[mesh.cells[cell, 0]]
            base = (c1 - c0) / h
            slope = ((c2 - c3) - (c1 - c0)) / h ** 2

            def f(y):
                return base + slope * (y - y0)

            lo, hi = y0, y0 + h
            if slope != 0 and lo < y0 - base / slope < hi:
                root = y0 - base / slope
                val = abs((root - lo) * f(lo) / 2) + abs((hi - root) * f(hi) / 2)
            else:
                val = abs((f(lo) + f(hi)) / 2 * h)
            expected = h * val
            poly = mesh.nodes[mesh.cells[cell]]
            assert abs_partial_integral(u, poly, 0) == pytest.approx(expected, rel=1e-12)

    def test_abs_partial_integral_p1_constant(self):
        space = FeSpace(build_tri(3, "boxslash"))
        u = interpolate_nodal(space, lambda x: 2.5 * x[:, 0])
        mesh = space.mesh
        poly = mesh.nodes[mesh.cells[0]]
        area = float(mesh.cell_areas()[0])
        assert abs_partial_integral(u, poly, 0) == pytest.approx(2.5 * area, rel=1e-13)
        assert abs_partial_integral(u, poly, 1) == pytest.approx(0.0, abs=1e-15)

    def test_abs_partial_integral_subregion(self):
        # region = half of a cell; field with one-signed slope there
        space = FeSpace(build_quad(2))
        u = interpolate_nodal(space, lambda x: x[:, 0] ** 1)
        region = np.array([[0.0, 0.0], [0.25, 0.0], [0.25, 0.5], [0.0, 0.5]])
        assert abs_partial_integral(u, region, 0) == pytest.approx(0.125, rel=1e-13)

    def test_region_must_be_convex_and_counter_clockwise(self):
        space = FeSpace(build_quad(2))
        u = interpolate_nodal(space, lambda x: x[:, 0])
        region = np.array([[0.0, 0.0], [0.25, 0.0], [0.25, 0.5], [0.0, 0.5]])
        arrow = np.array([[0.0, 0.0], [0.5, 0.0], [0.25, 0.1], [0.25, 0.5]])
        star = np.array([[np.cos(t), np.sin(t)] for t in 0.8 * np.pi * np.arange(5)])
        for bad in (region[::-1], arrow, 0.25 + 0.2 * star, region[:2], region[:1]):
            with pytest.raises(ValueError, match="convex with counter-clockwise"):
                abs_partial_integral(u, bad, 0)
        # collinear vertices are no clockwise turn
        mid = np.insert(region, 1, [0.125, 0.0], axis=0)
        assert abs_partial_integral(u, mid, 0) == pytest.approx(0.125, rel=1e-13)


FAMILIES = [("quad", lambda n, bounds: build_quad(n, bounds))] + [
    (pattern, lambda n, bounds, pattern=pattern: build_tri(n, pattern, bounds))
    for pattern in ("boxslash", "alternating-kuhn", "cross", "unionjack")] + [
    ("half-kuhn", lambda n, bounds: refine_kuhn_half(build_tri(n, "alternating-kuhn",
                                                               bounds)).child)]


@st.composite
def convex_regions(draw, mesh):
    """Convex counter-clockwise regions over a mesh: random polygons on a
    circle (possibly reaching past the domain), whole cells, unions of cells
    (rectangles of lattice squares or their lower right halves, as the
    boxslash cells of a coarser lattice), and slivers sharing an edge with
    a cell."""
    lo, hi = mesh.bounds
    h = mesh.h
    kind = draw(st.sampled_from(["circle", "cell", "squares", "sliver"]))
    if kind == "circle":
        # sorted angles with gaps of at least 2 pi / 90, so that rounding
        # cannot turn a vertex clockwise
        gaps = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=3, max_size=9)))
        angles = draw(st.floats(0, 2 * np.pi)) + 2 * np.pi * (np.cumsum(gaps) - gaps) / gaps.sum()
        center = np.array([draw(st.floats(lo, hi)), draw(st.floats(lo, hi))])
        radius = draw(st.floats(0.05, 0.7)) * (hi - lo)
        return center + radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if kind == "squares":
        a0, b0 = draw(st.integers(0, mesh.n - 1)), draw(st.integers(0, mesh.n - 1))
        a1, b1 = draw(st.integers(a0, mesh.n - 1)), draw(st.integers(b0, mesh.n - 1))
        x0, y0, x1, y1 = lo + a0 * h, lo + b0 * h, lo + (a1 + 1) * h, lo + (b1 + 1) * h
        corners = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
        return corners[:3] if draw(st.booleans()) else corners
    cell = mesh.nodes[mesh.cells[draw(st.integers(0, mesh.num_cells - 1))]]
    if kind == "cell":
        return cell
    j = draw(st.integers(0, len(cell) - 1))
    p, q = cell[j], cell[(j + 1) % len(cell)]
    normal = np.array([p[1] - q[1], q[0] - p[0]])  # left of p -> q: into the cell
    depth = draw(st.floats(1e-6, 0.3))
    if draw(st.booleans()):
        return np.array([p, q, (p + q) / 2 + depth * normal])
    return np.array([q, p, (p + q) / 2 - depth * normal])


def exact_abs_partial_q1(u, cell, region, i):
    """Integral of |partial_i u| over a convex region inside one Q1 cell, in
    rational arithmetic on the values of the floats: the region is split where
    partial_i u (affine on the cell) changes sign, and each part is integrated
    exactly over a fan of triangles."""
    mesh = u.space.mesh
    ids = mesh.cells[cell]
    (x0, y0), (x2, y2) = ([Fraction(c) for c in mesh.nodes[ids[k]]] for k in (0, 2))
    c0, c1, c2, c3 = (Fraction(c) for c in u.coeffs[ids])

    def partial(x, y):
        s, t = (x - x0) / (x2 - x0), (y - y0) / (y2 - y0)
        if i == 0:
            return ((c1 - c0) * (1 - t) + (c2 - c3) * t) / (x2 - x0)
        return ((c3 - c0) * (1 - s) + (c2 - c1) * s) / (y2 - y0)

    poly, total = [tuple(Fraction(c) for c in p) for p in region], Fraction(0)
    for sign in (1, -1):
        part = []
        for a, b in zip(poly, poly[1:] + poly[:1]):
            fa, fb = sign * partial(*a), sign * partial(*b)
            if fa >= 0:
                part.append(a)
            if fa * fb < 0:
                t = fa / (fa - fb)
                part.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
        for k in range(1, len(part) - 1):
            a, b, c = part[0], part[k], part[k + 1]
            area = ((b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])) / 2
            total += sign * area * partial((a[0] + b[0] + c[0]) / 3, (a[1] + b[1] + c[1]) / 3)
    return total


class TestExactIntegralOracle:
    """The plain-float path against the numpy reference in tests/oracles.py."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(FAMILIES), st.integers(2, 5), st.sampled_from([(0.0, 1.0), (-1.5, 0.5)]),
           st.integers(0, 2**32 - 1), st.data())
    def test_agrees_with_oracle(self, family, n, bounds, seed, data):
        mesh = family[1](n, bounds)
        u = FeFunction(FeSpace(mesh), np.random.default_rng(seed).standard_normal(mesh.num_nodes))
        region = data.draw(convex_regions(mesh))
        for i in (0, 1):
            expected = oracles.abs_partial_integral(u, region, i)
            assert abs_partial_integral(u, region, i) == pytest.approx(expected, rel=1e-12,
                                                                       abs=0)

    def test_sliver_far_from_the_origin_is_exact(self):
        # a sliver on cell 0's bottom edge, 1.5 from the origin: shifting
        # partial_i u or the shoelace moments to absolute coordinates loses
        # digits here, so both sides are checked against rational arithmetic
        mesh = build_quad(5, (-1.5, 0.5))
        u = FeFunction(FeSpace(mesh),
                       np.random.default_rng(4294967294).standard_normal(mesh.num_nodes))
        p, q = mesh.nodes[mesh.cells[0, :2]]
        region = np.array([p, q, (p + q) / 2 + 0.0078125 * np.array([p[1] - q[1], q[0] - p[0]])])
        for i in (0, 1):
            exact = float(exact_abs_partial_q1(u, 0, region, i))
            assert abs_partial_integral(u, region, i) == pytest.approx(exact, rel=1e-12, abs=0)
            assert oracles.abs_partial_integral(u, region, i) == pytest.approx(exact, rel=1e-12,
                                                                               abs=0)

    def test_sliver_apex_inside_a_cell_is_exact(self):
        # a sliver 2.7e-6 deep on the diagonal edge of a unionjack triangle,
        # its apex inside the cell: cutting the cell by the region rebuilt the
        # apex from two nearly parallel edges and lost 2e-10 of the area, and
        # left the neighbour across the edge a piece 3e-19 in area
        mesh = build_tri(4, "unionjack", (0.0, 1.0))
        u = FeFunction(FeSpace(mesh), np.random.default_rng(0).standard_normal(mesh.num_nodes))
        cell = 69
        assert mesh.nodes[mesh.cells[cell]].tolist() == [[0.125, 0.75], [0.0, 0.75],
                                                         [0.125, 0.625]]
        region = np.array([[0.0, 0.75], [0.125, 0.625],
                           [0.06250034104197023, 0.6875003410419702]])
        (x0, y0), (x1, y1), (x2, y2) = ([Fraction(c) for c in mesh.nodes[k]]
                                        for k in mesh.cells[cell])
        c0, c1, c2 = (Fraction(c) for c in u.coeffs[mesh.cells[cell]])
        det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        grad = (((c1 - c0) * (y2 - y0) - (c2 - c0) * (y1 - y0)) / det,
                ((x1 - x0) * (c2 - c0) - (x2 - x0) * (c1 - c0)) / det)
        r = [[Fraction(c) for c in p] for p in region]
        area = sum(r[k][0] * r[k - 2][1] - r[k - 2][0] * r[k][1] for k in range(3)) / 2
        for i in (0, 1):
            exact = float(abs(grad[i]) * area)
            assert abs_partial_integral(u, region, i) == pytest.approx(exact, rel=1e-12, abs=0)
            assert oracles.abs_partial_integral(u, region, i) == pytest.approx(exact, rel=1e-12,
                                                                               abs=0)

    def test_split_sliver_agrees_with_oracle(self):
        # a sliver 1e-6 deep on cell 0's top edge, split by the root line of
        # partial_1 u: the two parts share cut points rounded off the sliver's
        # edge, and the integral on the piece's own moments minus twice the
        # negative part would land 4e-12 off the two parts' sum
        mesh = build_quad(2)
        u = FeFunction(FeSpace(mesh), np.random.default_rng(1).standard_normal(mesh.num_nodes))
        p, q = mesh.nodes[mesh.cells[0, 2:]]
        region = np.array([p, q, (p + q) / 2 + 1e-6 * np.array([p[1] - q[1], q[0] - p[0]])])
        expected = oracles.abs_partial_integral(u, region, 1)
        assert abs_partial_integral(u, region, 1) == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("i", [0, 1])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("shape", ["cell", "corner"])
    def test_sliver_split_is_exact(self, i, sign, shape):
        # partial_i u changes sign 1e-9 h from the cell's bottom (i = 0) or left
        # (i = 1) edge, so one side of the split is a sliver: a strip along
        # that edge of the whole cell, or a triangle at vertex 0 of a region
        # cut from it; sign = -1 makes the sliver the negative part
        mesh = build_quad(5, (-1.5, 0.5))
        coeffs = np.random.default_rng(21).standard_normal(mesh.num_nodes)
        v0, v1, v2, v3 = mesh.cells[0]
        delta = 1e-9
        if i == 0:  # partial_0 u runs from (c1 - c0) / h at the bottom to (c2 - c3) / h at the top
            coeffs[v1], coeffs[v2] = coeffs[v0] + delta, coeffs[v3] - 1.0
        else:
            coeffs[v3], coeffs[v2] = coeffs[v0] + delta, coeffs[v1] - 1.0
        u = FeFunction(FeSpace(mesh), sign * coeffs)
        cell = mesh.nodes[mesh.cells[0]]
        region = cell if shape == "cell" else (cell[[0, 2, 3]] if i == 0 else cell[[0, 1, 2]])
        exact = float(exact_abs_partial_q1(u, 0, region, i))
        assert abs_partial_integral(u, region, i) == pytest.approx(exact, rel=1e-12, abs=0)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(FAMILIES), st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_cells_add_up_to_the_domain(self, family, n, seed):
        mesh = family[1](n, (0.0, 1.0))
        u = FeFunction(FeSpace(mesh), np.random.default_rng(seed).standard_normal(mesh.num_nodes))
        domain = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        for i in (0, 1):
            cells = sum(abs_partial_integral(u, cell, i) for cell in mesh.nodes[mesh.cells])
            assert cells == pytest.approx(abs_partial_integral(u, domain, i), rel=1e-12)

    # the clip of a region is kept per space; these check that it is only geometry

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(FAMILIES), st.integers(2, 5), st.sampled_from([(0.0, 1.0), (-1.5, 0.5)]),
           st.integers(0, 2**32 - 1), st.data())
    def test_memo_returns_the_same_bits(self, family, n, bounds, seed, data):
        mesh = family[1](n, bounds)
        coeffs = np.random.default_rng(seed).standard_normal(mesh.num_nodes)
        u = FeFunction(FeSpace(mesh), coeffs)
        region, other = data.draw(convex_regions(mesh)), data.draw(convex_regions(mesh))

        def bits(w):
            return [abs_partial_integral(w, region, i).hex() for i in (0, 1)]

        first = bits(u)
        assert bits(u) == first
        for i in (1, 0):
            abs_partial_integral(u, other, i)
        assert bits(u) == first
        assert bits(FeFunction(FeSpace(mesh), coeffs)) == first

    def test_memo_holds_geometry_only(self):
        mesh = build_quad(4, (-1.5, 0.5))
        rng = np.random.default_rng(11)
        coeffs = [rng.standard_normal(mesh.num_nodes) for _ in range(2)]
        region = np.array([[-1.2, -1.3], [0.3, -0.9], [-0.1, 0.4]])
        shared = FeSpace(mesh)
        for i in (0, 1):
            got = [abs_partial_integral(FeFunction(shared, c), region, i) for c in coeffs]
            alone = [abs_partial_integral(FeFunction(FeSpace(mesh), c), region, i)
                     for c in coeffs]
            assert got == alone and got[0] != got[1]
            for c, value in zip(coeffs, got):
                expected = oracles.abs_partial_integral(FeFunction(shared, c), region, i)
                assert value == pytest.approx(expected, rel=1e-12, abs=0)

    def test_one_memo_entry_per_region(self):
        space = FeSpace(build_tri(4, "boxslash"))
        u = FeFunction(space, np.random.default_rng(12).standard_normal(space.ndofs))
        vertices = [[0.1, 0.2], [0.8, 0.3], [0.4, 0.9]]
        for i in (0, 1):
            abs_partial_integral(u, vertices, i)
        size = len(space._geom)
        for region in (tuple(map(tuple, vertices)), np.array(vertices)):
            for i in (0, 1):
                abs_partial_integral(u, region, i)
        assert len(space._geom) == size
        abs_partial_integral(u, np.array(vertices) / 2, 0)
        assert len(space._geom) == size + 1

    @pytest.mark.parametrize("i", [-1, 2, 0.0, 1.5, "0", None, True, np.float64(1.0)])
    def test_invalid_direction_raises_and_adds_no_entry(self, i):
        space = FeSpace(build_quad(3))
        u = FeFunction(space, np.random.default_rng(14).standard_normal(space.ndofs))
        for _ in range(2):
            with pytest.raises(ValueError, match="direction must be the integer 0 or 1"):
                abs_partial_integral(u, [[0.1, 0.2], [0.8, 0.3], [0.4, 0.9]], i)
        assert len(space._geom) == 0

    def test_numpy_integer_directions_accepted(self):
        space = FeSpace(build_quad(3))
        u = FeFunction(space, np.random.default_rng(15).standard_normal(space.ndofs))
        region = [[0.1, 0.2], [0.8, 0.3], [0.4, 0.9]]
        for i in (0, 1):
            expected = abs_partial_integral(u, region, i)
            for j in (np.int64(i), np.int32(i), np.uint8(i)):
                assert abs_partial_integral(u, region, j) == expected
        assert len(space._geom) == 3  # the region and one partial table per direction

    @pytest.mark.parametrize("region, message", [
        ([[0.0, 0.0], [0.5, 0.5], [1.0, 0.0]], "convex with counter-clockwise"),
        ([[0.0, 0.0], [0.5, 0.0], [0.25, 0.1], [0.25, 0.5]], "convex with counter-clockwise"),
        ([[0.0, 0.0], [np.nan, 0.0], [0.0, 1.0]], "finite"),
        ([[0.0, 0.0], [np.inf, 0.0], [0.0, 1.0]], "finite")],
        ids=["clockwise", "non-convex", "nan", "inf"])
    def test_invalid_region_raises_every_time(self, region, message):
        space = FeSpace(build_quad(3))
        u = FeFunction(space, np.random.default_rng(13).standard_normal(space.ndofs))
        size = len(space._geom)
        for _ in range(2):
            for i in (0, 1):
                with pytest.raises(ValueError, match=message):
                    abs_partial_integral(u, region, i)
        assert len(space._geom) == size


def oracle_gradients(space, degree):
    """(nc, nq, 2) gradients of a space's functions' basis at the points of its
    gradient rule, cell by cell from the vertex coordinates: P1 through
    oracles.p1_basis_grads (nq = 1), Q1 as reference gradients over the side."""
    mesh = space.mesh
    if space.kind == "P1":
        return oracles.p1_basis_grads(mesh)[:, :, None, :]
    side = mesh.nodes[mesh.cells[:, 1], 0] - mesh.nodes[mesh.cells[:, 0], 0]
    ref = _q1_grads(quadrature_rule("quad", degree).points)   # (nq, 4, 2)
    return ref.transpose(1, 0, 2)[None] / side[:, None, None, None]


class TestGradientRule:
    """One gradient-rule entry per template cell, checked against gradients
    from each cell's own vertex coordinates."""

    TEMPLATE_CELLS = {"quad": 1, "boxslash": 2, "alternating-kuhn": 4, "cross": 4,
                      "unionjack": 8, "half-kuhn": 16}

    @pytest.mark.parametrize("family", FAMILIES, ids=[name for name, _ in FAMILIES])
    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("bounds", [(0.0, 1.0), (-1.0, 1.0), (-2.5, 4.0)])
    def test_template_entries_match_vertex_oracle(self, family, n, bounds):
        name, build = family
        mesh = build(n, bounds)
        space = FeSpace(mesh)
        degree = 4
        grads, weights = space.gradient_rule(degree)
        assert grads.shape[:2] == weights.shape[:2]
        assert grads.shape[0] * grads.shape[1] == self.TEMPLATE_CELLS[name] <= 16
        assert _assembler(space).products.shape[:2] == grads.shape[:2]
        # the T tables each cover one square
        assert weights.sum() / len(weights) * mesh.squares ** 2 == pytest.approx(
            (bounds[1] - bounds[0]) ** 2, rel=1e-13)
        u = FeFunction(space, np.random.default_rng(n).standard_normal(space.ndofs))
        expected = np.einsum("ca,caqk->cqk", u.coeffs[mesh.cells],
                             oracle_gradients(space, degree))
        scale = np.abs(expected).max()
        got = u.gradients_on_rule(degree)
        assert np.abs(got - expected).max() <= 1e-13 * scale
        side = mesh.squares
        for block in [(0, 0, 0, 0), (1, 2, 2, 4), (side - 3, side - 1, 0, side - 1),
                      (0, side - 1, 1, 1)]:
            cells = mesh.square_cells(*block)
            got = u.gradients_on_rule(degree, cells)
            assert np.abs(got - expected[cells]).max() <= 1e-13 * scale


class TestTemplateGeometry:
    """Quadrature points and point evaluation read each cell as its square's
    corner plus a template cell; checked against maps from the cell's own
    vertex coordinates."""

    @pytest.mark.parametrize("family", FAMILIES, ids=[name for name, _ in FAMILIES])
    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("bounds", [(0.0, 1.0), (-1.0, 1.0), (-2.5, 4.0)])
    def test_rule_geometry_matches_vertex_oracle(self, family, n, bounds):
        mesh = family[1](n, bounds)
        space = FeSpace(mesh)
        rng = np.random.default_rng(n)
        # all cells, a run that splits squares, and scattered cells in any order
        for cells in (slice(None), slice(3, 3 + 2 * n + 1),
                      rng.permutation(mesh.num_cells)[:2 * n + 1]):
            for degree in (1, 4, 5):
                pts, wts = space.rule_geometry(degree, cells)
                expected_pts, expected_wts = oracles.vertex_rule_geometry(space, degree, cells)
                assert pts.shape == expected_pts.shape and wts.shape == expected_wts.shape
                assert np.abs(pts - expected_pts).max() <= 1e-14 * np.abs(expected_pts).max()
                assert np.abs(wts - expected_wts).max() <= 1e-14 * expected_wts.max()

    @pytest.mark.parametrize("family", FAMILIES, ids=[name for name, _ in FAMILIES])
    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("bounds", [(0.0, 1.0), (-1.0, 1.0), (-2.5, 4.0)])
    def test_evaluate_matches_vertex_oracle(self, family, n, bounds):
        mesh = family[1](n, bounds)
        space = FeSpace(mesh)
        rng = np.random.default_rng(n)
        u = FeFunction(space, rng.standard_normal(space.ndofs))
        lo, hi = bounds
        # random points, every node and the quadrature points of every cell
        points = np.concatenate([lo + (hi - lo) * rng.random((500, 2)), mesh.nodes,
                                 space.rule_geometry(3)[0].reshape(-1, 2)])
        expected = oracles.vertex_evaluate(u, points)
        assert np.abs(u.evaluate(points) - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_space_keeps_no_per_cell_array(self):
        law = GrowthLaw((3.0, 3.0))
        ms = ManufacturedSolution(law)
        mesh = build_tri(160, "boxslash", (-1.0, 1.0))
        u = FeFunction(FeSpace(mesh), ms.value(mesh.nodes))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            load = assemble_load(u.space, lambda x: x[:, 0] * x[:, 1])
            error_norms(u, ms, law)
            del load
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # one float per cell would be 0.4 MB; the template data are a few kB
        assert kept < 0.1e6
