from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from orthofem import analysis
from orthofem.analysis import (ConvergenceTable, ManufacturedSolution, eoc,
                               error_norms)
from orthofem.fespace import FeFunction, FeSpace, interpolate_nodal, quadrature_rule
from orthofem.linalg import CgConfig
from orthofem.mesh import build_quad, build_tri
from orthofem.nfunc import GrowthLaw
from orthofem.solver import FlowConfig, ProblemSpec, solve

FAMILIES = ["quad", "boxslash", "alternating-kuhn", "unionjack", "cross"]


def _mesh(family, n, bounds):
    return build_quad(n, bounds) if family == "quad" else build_tri(n, family, bounds)


class TestManufacturedSolution:
    def test_symmetric_zero(self):
        ms = ManufacturedSolution(GrowthLaw((1.5, 1.5)))  # q1 = q2 = 3
        assert ms.value(np.array([[0.5, 0.5]]))[0] == pytest.approx(0.0, abs=1e-16)

    def test_first_partial(self):
        ms = ManufacturedSolution(GrowthLaw((1.5, 2.0)))  # q1 = 3
        g = ms.grad(np.array([[0.5, 0.3]]))
        assert g[0, 0] == pytest.approx(0.25, abs=1e-15)

    def test_flux_of_gradient_is_coordinate(self):
        # A_1(d1 u) = x1 and A_2(d2 u) = -x2: the composed powers cancel
        law = GrowthLaw((3.0, 1.5))
        ms = ManufacturedSolution(law)
        rng = np.random.default_rng(8)
        pts = rng.random((20, 2)) * 0.9 + 0.05
        g = ms.grad(pts)
        assert np.allclose(law.flux(0, g[:, 0]), pts[:, 0], atol=1e-13)
        assert np.allclose(law.flux(1, g[:, 1]), -pts[:, 1], atol=1e-13)

    def test_divergence_free_by_finite_differences(self):
        # oracle: central differences of the coordinate fluxes at 1e-5
        law = GrowthLaw((3.0, 1.5))
        ms = ManufacturedSolution(law)
        rng = np.random.default_rng(9)
        pts = rng.random((20, 2)) * 0.8 + 0.1
        step = 1e-5
        for x, y in pts:
            def a1(xx):
                return law.flux(0, ms.grad(np.array([[xx, y]]))[0, 0])
            def a2(yy):
                return law.flux(1, ms.grad(np.array([[x, yy]]))[0, 1])
            div = ((a1(x + step) - a1(x - step)) / (2 * step)
                   + (a2(y + step) - a2(y - step)) / (2 * step))
            assert abs(div) < 1e-8

    @pytest.mark.parametrize("p1", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("p2", [1.5, 2.0, 3.0])
    def test_divergence_free_all_exponent_pairs(self, p1, p2):
        law = GrowthLaw((p1, p2))
        ms = ManufacturedSolution(law)
        rng = np.random.default_rng(10)
        pts = rng.random((100, 2)) * 0.8 + 0.1
        step = 1e-5
        worst = 0.0
        for x, y in pts:
            def a1(xx):
                return law.flux(0, ms.grad(np.array([[xx, y]]))[0, 0])
            def a2(yy):
                return law.flux(1, ms.grad(np.array([[x, yy]]))[0, 1])
            div = ((a1(x + step) - a1(x - step)) / (2 * step)
                   + (a2(y + step) - a2(y - step)) / (2 * step))
            worst = max(worst, abs(div))
        assert worst < 1e-7

    @pytest.mark.parametrize("p", [(1.5, 2.0), (3.0, 1.5), (4.0, 4.0)])
    def test_grad_stacks_the_partials(self, p):
        # d_i u depends on x_i alone, and grad is those partials bit for bit,
        # signed zeros included
        ms = ManufacturedSolution(GrowthLaw(p))
        rng = np.random.default_rng(11)
        points = rng.uniform(-1.0, 1.0, (7, 5, 2))
        points[0] = [[0.0, -0.0], [-0.0, 0.0], [1.0, -1.0], [-1.0, 1.0], [0.5, -0.5]]
        g = ms.grad(points)
        assert g.shape == points.shape
        for i in (0, 1):
            expected = ms.partial(i, points[..., i])
            assert g[..., i].tobytes() == expected.tobytes()


class TestErrorNorms:
    def test_interpolant_of_quadratic_on_p1(self):
        # P1 cannot reproduce x^2: error positive and roughly halving
        law = GrowthLaw((2.0, 2.0))
        ms = ManufacturedSolution(law)
        values = []
        for n in (8, 16):
            space = FeSpace(build_tri(n, "boxslash"))
            u = interpolate_nodal(space, ms.value)
            values.append(error_norms(u, ms, law).e_V)
        assert values[0] > 0
        ratio = values[1] / values[0]
        assert 0.45 < ratio < 0.55

    def test_exact_reproduction_gives_zero(self):
        # u = x1 is reproduced by Q1; compare against its own gradient field
        class Linear:
            def partial(self, i, t):
                return np.full(np.shape(t), 1.0 if i == 0 else 0.0)

        law = GrowthLaw((2.0, 2.0))
        space = FeSpace(build_quad(6))
        u = interpolate_nodal(space, lambda x: x[:, 0])
        report = error_norms(u, Linear(), law)
        assert report.e_p1 < 1e-12
        assert report.e_p2 < 1e-12
        assert report.e_V < 1e-12
        assert report.e_comb < 1e-12

    @pytest.mark.parametrize("family", FAMILIES)
    def test_blocks_cover_the_mesh(self, family):
        # 40 cells are whole squares on every family and leave a partial last
        # block on each; the block sums may round otherwise than one sum
        law = GrowthLaw((2.0, 2.0))
        ms = ManufacturedSolution(law)
        mesh = _mesh(family, 12, (-1.0, 1.0))
        space = FeSpace(mesh)
        noise = 0.01 * np.random.default_rng(4).standard_normal(space.ndofs)
        u = FeFunction(space, ms.value(mesh.nodes) + noise)
        assert mesh.num_cells % 40 != 0
        reports = []
        for block in (40, mesh.num_cells):
            with mock.patch.object(analysis, "ERROR_BLOCK_CELLS", block):
                reports.append(astuple(error_norms(u, ms, law)))
        assert reports[0] == pytest.approx(reports[1], rel=1e-14, abs=0.0)

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(FAMILIES), n=st.integers(2, 40),
           bounds=st.sampled_from([(0.0, 1.0), (-1.0, 1.0)]), degree=st.integers(1, 7),
           p=st.tuples(*[st.sampled_from([1.5, 2.0, 3.0, 4.0])] * 2),
           noise=st.sampled_from([0.0, 1e-3, 0.1]), squares=st.integers(2, 64),
           seed=st.integers(0, 2 ** 16))
    def test_matches_the_pointwise_oracle(self, family, n, bounds, degree, p, noise,
                                          squares, seed):
        # the per-line tables give the same floats as the exact gradient at
        # every point, summed in the same order: equal reports, bit for bit,
        # over blocks of whole squares that leave a partial last block
        assume(n * n % squares)
        law = GrowthLaw(p)
        ms = ManufacturedSolution(law)
        mesh = _mesh(family, n, bounds)
        space = FeSpace(mesh)
        perturb = noise * np.random.default_rng(seed).standard_normal(space.ndofs)
        u = FeFunction(space, ms.value(mesh.nodes) + perturb)
        block = squares * mesh.num_cells // n ** 2
        with mock.patch.object(analysis, "ERROR_BLOCK_CELLS", block):
            expected = astuple(oracles.pointwise_error_norms(u, ms, law, degree))
            assert astuple(error_norms(u, ms, law, degree)) == expected

    @pytest.mark.parametrize("family", FAMILIES)
    def test_exact_side_is_tabulated_once_per_line(self, family):
        # d_i u is asked at most once per lattice line, template cell and rule
        # point, not once per quadrature point of every cell
        law = GrowthLaw((3.0, 1.5))
        calls = {0: 0, 1: 0}

        class Counting(ManufacturedSolution):
            def partial(self, i, t):
                calls[i] += np.size(t)
                return super().partial(i, t)

        ms = Counting(law)
        n, degree = 8, 5
        mesh = _mesh(family, n, (-1.0, 1.0))
        u = interpolate_nodal(FeSpace(mesh), ms.value)
        error_norms(u, ms, law, degree)
        template_cells = mesh.offsets.shape[0] * mesh.offsets.shape[1]
        nq = len(quadrature_rule(mesh.kind, degree).weights)
        for i in (0, 1):
            assert 0 < calls[i] <= n * template_cells * nq

    def test_combined_norm_only_for_equal_exponents(self):
        law = GrowthLaw((3.0, 1.5))
        ms = ManufacturedSolution(law)
        space = FeSpace(build_tri(4, "boxslash"))
        u = interpolate_nodal(space, ms.value)
        assert error_norms(u, ms, law).e_comb is None

    def test_degree_stability(self):
        # |grad(u - u_h)|^p has kinks where the error changes sign inside
        # cells, so the norms stabilize at quadrature accuracy, not at
        # machine precision: e_V to ~1e-5 relative, the split p-norms to
        # the percent level (the same effect limits the reference tables
        # at their finest rows)
        law = GrowthLaw((1.5, 1.5))
        ms = ManufacturedSolution(law)
        space = FeSpace(build_tri(8, "boxslash", bounds=(-1.0, 1.0)))
        u = interpolate_nodal(space, ms.value)
        r5 = error_norms(u, ms, law, degree=5)
        r7 = error_norms(u, ms, law, degree=7)
        assert r5.e_V == pytest.approx(r7.e_V, rel=1e-4)
        assert r5.e_p1 == pytest.approx(r7.e_p1, rel=2e-2)

    def test_first_reference_row_value(self):
        law = GrowthLaw((1.5, 1.5))
        ms = ManufacturedSolution(law)
        space = FeSpace(build_tri(10, "boxslash", bounds=(-1.0, 1.0)))
        spec = ProblemSpec(law=law, space=space, dirichlet=ms.value)
        u, report = solve(spec, FlowConfig(tol=1e-12, cg=CgConfig(tol=1e-13)))
        assert report.converged
        e_v = error_norms(u, ms, law).e_V
        assert e_v == pytest.approx(1.7311e-01, rel=0.05)

    def test_vanishing_rate_of_eV_on_doubling_meshes(self):
        law = GrowthLaw((1.5, 1.5))
        ms = ManufacturedSolution(law)
        rows = []
        for n in (8, 16, 32, 64):
            space = FeSpace(build_tri(n, "boxslash", bounds=(-1.0, 1.0)))
            spec = ProblemSpec(law=law, space=space, dirichlet=ms.value)
            u, report = solve(spec, FlowConfig(tol=1e-12, cg=CgConfig(tol=1e-13)))
            assert report.converged
            rows.append((space.ndofs, error_norms(u, ms, law).e_V))
        rates = [eoc(*prev, *curr) for prev, curr in zip(rows, rows[1:])]
        for rate in rates[-2:]:
            assert -0.55 <= rate <= -0.45


class TestEoc:
    def test_textbook_value(self):
        assert eoc(100, 1e-1, 400, 5e-2) == pytest.approx(-0.5, abs=1e-12)

    def test_equal_errors(self):
        assert eoc(100, 3.0, 400, 3.0) == 0.0

    def test_reference_table_first_increment(self):
        rate = eoc(121, 1.7311e-01, 441, 8.6589e-02)
        assert round(rate, 2) == -0.54

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            eoc(400, 1.0, 100, 0.5)
        with pytest.raises(ValueError):
            eoc(100, 0.0, 400, 0.5)


class TestConvergenceTable:
    def test_rates_computed_between_rows(self):
        table = ConvergenceTable()
        table.add_row(100, {"e_V": 1e-1})
        table.add_row(400, {"e_V": 5e-2})
        assert table.rows[0].rates == {}
        assert table.rows[1].rates["e_V"] == pytest.approx(-0.5)

    def test_dims_must_increase(self):
        table = ConvergenceTable()
        table.add_row(100, {"e_V": 1.0})
        with pytest.raises(ValueError):
            table.add_row(100, {"e_V": 0.5})

    def test_column_access(self):
        table = ConvergenceTable()
        table.add_row(10, {"e_p1": 1.0, "e_V": 2.0})
        table.add_row(40, {"e_p1": 0.5, "e_V": 1.0})
        assert table.column("e_p1") == [(10, 1.0), (40, 0.5)]
        assert len(table.rate_column("e_V")) == 1
