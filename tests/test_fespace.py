import math

import numpy as np
import pytest

from orthofem.fespace import (FeFunction, FeSpace, _p1_shapes, _q1_shapes,
                              abs_partial_integral, clip_convex,
                              interpolate_nodal, polygon_area_centroid,
                              quadrature_rule)
from orthofem.mesh import build_quad, build_tri
from orthofem.nfunc import GrowthLaw
from orthofem.solver import assemble_stiffness

from oracles import integrate


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
    vals = _q1_shapes(pts)[0] if space.kind == "Q1" else _p1_shapes(pts)[0]
    return float(vals[0, local])


def basis_grad(space, cell, local, xref):
    """Physical gradient of a local basis function at a reference point."""
    _check_ref_point(space.kind, xref)
    pts = np.asarray([xref], dtype=float)
    if space.kind == "Q1":
        g = _q1_shapes(pts)[1][0, local] / space.mesh.h
        return np.asarray(g)
    return space.cell_basis_grads[cell, local].copy()


def reference_monomial_integral(kind, a, b):
    if kind == "quad":
        return 1.0 / ((a + 1) * (b + 1))
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


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
