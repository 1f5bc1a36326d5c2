import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orthofem import linalg, solver
from orthofem.analysis import ManufacturedSolution
from orthofem.fespace import FeFunction, FeSpace, interpolate_nodal
from orthofem.linalg import CgConfig
from orthofem.mesh import build_quad, build_tri
from orthofem.nfunc import GrowthLaw
from orthofem.solver import (FlowConfig, ProblemSpec, assemble_load,
                             assemble_stiffness, assemble_weighted_stiffness,
                             energy, flow_step, galerkin_residual, solve)

Q1_STENCIL = np.array([[-1.0, -1.0, -1.0],
                       [-1.0, 8.0, -1.0],
                       [-1.0, -1.0, -1.0]]) / 3.0


def dense_reference_stiffness(space, law=None, u=None, clamp=1e-10, npts=3):
    """Independent dense assembly by plain quadrature loops."""
    mesh = space.mesh
    ndofs = space.ndofs
    out = np.zeros((ndofs, ndofs))
    gx, gw = np.polynomial.legendre.leggauss(npts)
    gx, gw = (gx + 1) / 2, gw / 2
    for c in range(mesh.num_cells):
        verts = mesh.nodes[mesh.cells[c]]
        if space.kind == "P1":
            e1, e2 = verts[1] - verts[0], verts[2] - verts[0]
            det = e1[0] * e2[1] - e1[1] * e2[0]
            area = det / 2
            grads = np.zeros((3, 2))
            for a in range(3):
                edge = verts[(a + 2) % 3] - verts[(a + 1) % 3]
                grads[a] = [-edge[1] / det, edge[0] / det]
            if law is None:
                w1 = w2 = 1.0
            else:
                gu = sum(u.coeffs[mesh.cells[c, a]] * grads[a] for a in range(3))
                w1 = law.weight(0, gu[0], clamp)
                w2 = law.weight(1, gu[1], clamp)
            for a in range(3):
                for b in range(3):
                    val = (w1 * grads[a][0] * grads[b][0]
                           + w2 * grads[a][1] * grads[b][1]) * area
                    out[mesh.cells[c, a], mesh.cells[c, b]] += val
        else:
            h = mesh.h
            x0, y0 = verts[0]
            for xi, wx in zip(gx, gw):
                for eta, wy in zip(gx, gw):
                    grads = np.array([[-(1 - eta), -(1 - xi)],
                                      [(1 - eta), -xi],
                                      [eta, xi],
                                      [-eta, (1 - xi)]]) / h
                    if law is None:
                        w1 = w2 = 1.0
                    else:
                        gu = sum(u.coeffs[mesh.cells[c, a]] * grads[a]
                                 for a in range(4))
                        w1 = law.weight(0, gu[0], clamp)
                        w2 = law.weight(1, gu[1], clamp)
                    for a in range(4):
                        for b in range(4):
                            val = (w1 * grads[a][0] * grads[b][0]
                                   + w2 * grads[a][1] * grads[b][1]) * wx * wy * h * h
                            out[mesh.cells[c, a], mesh.cells[c, b]] += val
    return out


class TestStiffness:
    def test_q1_interior_stencil(self):
        # derived by hand-assembling the four cells around an interior
        # node, cross-checked here against the dense reference assembly
        space = FeSpace(build_quad(4))
        mesh = space.mesh
        k = assemble_stiffness(space)
        dense = k.todense()
        ref = dense_reference_stiffness(space, npts=2)
        assert np.abs(dense - ref).max() < 1e-13
        center = mesh.lattice_node(2, 2)
        for da in (-1, 0, 1):
            for db in (-1, 0, 1):
                neighbor = mesh.lattice_node(2 + da, 2 + db)
                assert dense[center, neighbor] == pytest.approx(
                    Q1_STENCIL[da + 1, db + 1], abs=1e-14)

    def test_p1_row_sums_vanish(self):
        space = FeSpace(build_tri(4, "boxslash"))
        k = assemble_stiffness(space).todense()
        sums = k.sum(axis=1)
        assert np.abs(sums).max() < 1e-13

    def test_spd_on_interior(self):
        space = FeSpace(build_quad(5))
        k = assemble_stiffness(space)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = np.zeros(space.ndofs)
            x[space.interior_dofs] = rng.standard_normal(len(space.interior_dofs))
            assert x @ k.matvec(x) > 0


class TestWeightedStiffness:
    def test_p_equal_two_reduces_to_stiffness(self):
        for space in (FeSpace(build_quad(4)), FeSpace(build_tri(4, "boxslash"))):
            law = GrowthLaw((2.0, 2.0))
            rng = np.random.default_rng(1)
            u = FeFunction(space, rng.standard_normal(space.ndofs))
            k = assemble_stiffness(space)
            kb = assemble_weighted_stiffness(space, u, law)
            assert np.abs(k.todense() - kb.todense()).max() < 1e-13

    def test_degenerate_iterate_gives_zero_matrix(self):
        space = FeSpace(build_quad(4))
        law = GrowthLaw((3.0, 3.0))
        u = FeFunction(space, np.zeros(space.ndofs))
        kb = assemble_weighted_stiffness(space, u, law)
        assert np.abs(kb.values).max() == 0.0

    @pytest.mark.parametrize("make_space", [
        lambda: FeSpace(build_tri(4, "boxslash")),
        lambda: FeSpace(build_quad(4)),
        lambda: FeSpace(build_tri(4, "alternating-kuhn")),
        lambda: FeSpace(build_tri(4, "unionjack")),
        lambda: FeSpace(build_tri(4, "cross")),
        lambda: FeSpace(build_quad(5)),  # h = 1/5 is not a power of two
    ])
    def test_matches_dense_quadrature_reference(self, make_space):
        space = make_space()
        law = GrowthLaw((3.0, 1.5))
        rng = np.random.default_rng(12)
        u = FeFunction(space, rng.standard_normal(space.ndofs))
        kb = assemble_weighted_stiffness(space, u, law, clamp=1e-10)
        npts = 1 if space.kind == "P1" else 2
        ref = dense_reference_stiffness(space, law, u, npts=npts)
        assert np.abs(kb.todense() - ref).max() < 1e-12

    def test_positive_semidefinite_on_random_iterates(self):
        space = FeSpace(build_tri(4, "alternating-kuhn"))
        law = GrowthLaw((3.0, 1.5))
        rng = np.random.default_rng(3)
        for _ in range(3):
            u = FeFunction(space, rng.standard_normal(space.ndofs))
            kb = assemble_weighted_stiffness(space, u, law).todense()
            assert np.abs(kb - kb.T).max() < 1e-13
            eigenvalues = np.linalg.eigvalsh(kb)
            assert eigenvalues.min() > -1e-11


class TestEnergy:
    def test_zero_function(self):
        space = FeSpace(build_quad(3))
        assert energy(space, np.zeros(space.ndofs), GrowthLaw((2.0, 2.0))) == 0.0

    def test_linear_ramp_quadratic_law(self):
        space = FeSpace(build_quad(4))
        u = interpolate_nodal(space, lambda x: x[:, 0])
        assert energy(space, u, GrowthLaw((2.0, 2.0))) == pytest.approx(0.5, rel=1e-13)

    def test_linear_ramp_cubic_law(self):
        space = FeSpace(build_tri(4, "boxslash"))
        u = interpolate_nodal(space, lambda x: x[:, 0])
        assert energy(space, u, GrowthLaw((3.0, 3.0))) == pytest.approx(1 / 3, rel=1e-13)

    def test_regularization_offset_removed(self):
        space = FeSpace(build_quad(3))
        law = GrowthLaw((2.0, 2.0), deltas=(0.5, 0.5))
        assert energy(space, np.zeros(space.ndofs), law) == pytest.approx(0.0, abs=1e-15)


FAMILIES = ["quad", "boxslash", "alternating-kuhn", "unionjack", "cross"]


def family_space(family, n):
    return FeSpace(build_quad(n) if family == "quad" else build_tri(n, family))


class TestGradientIntegrals:
    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(FAMILIES), n=st.integers(2, 5),
           p1=st.floats(1.5, 6.0), p2=st.floats(1.5, 6.0), seed=st.integers(0, 2 ** 16))
    def test_residual_is_the_energy_derivative(self, family, n, p1, p2, seed):
        # r(u).v is the derivative of J along v, and K_B(u) u = r(u) at f = 0:
        # all three integrate on the rule of degree GRADIENT_DEGREE, so only
        # the central difference errs
        space = family_space(family, n)
        law = GrowthLaw((p1, p2))
        rng = np.random.default_rng(seed)
        u, v = rng.standard_normal((2, space.ndofs))
        r = galerkin_residual(space, u, law)
        eps = 1e-6
        slope = (energy(space, u + eps * v, law) - energy(space, u - eps * v, law)) / (2 * eps)
        assert abs(slope - r @ v) <= 1e-6 * (np.abs(r) @ np.abs(v))
        kb_u = assemble_weighted_stiffness(space, u, law).matvec(u)
        assert np.abs(kb_u - r).max() <= 1e-12 * np.abs(r).max()


class TestInteriorAssembly:
    @pytest.mark.parametrize("make_space", [
        lambda: FeSpace(build_tri(5, "cross")),
        lambda: FeSpace(build_quad(5)),
    ] + [lambda family=family: FeSpace(build_tri(5, family))
         for family in ("boxslash", "alternating-kuhn", "unionjack")])
    def test_interior_block_matches_submatrix(self, make_space):
        # oracle: the interior rows and columns of the dense all-node matrix
        space = make_space()
        law = GrowthLaw((3.0, 1.5))
        u = FeFunction(space, np.random.default_rng(4).standard_normal(space.ndofs))
        interior = space.interior_dofs
        pairs = [(assemble_stiffness(space, interior_only=True), assemble_stiffness(space)),
                 (assemble_weighted_stiffness(space, u, law, interior_only=True),
                  assemble_weighted_stiffness(space, u, law))]
        for block, full in pairs:
            expected = full.todense()[np.ix_(interior, interior)]
            assert block.dim == len(interior)
            assert np.abs(block.todense() - expected).max() <= 1e-13 * np.abs(expected).max()
            sub = full.submatrix(space.interior)
            assert np.array_equal(block.pattern.slots, sub.pattern.slots)
            assert np.array_equal(block.pattern.cols, sub.pattern.cols)
            assert np.abs(block.values - sub.values).max() < 1e-13


# sha256 of the int64 bytes of cols, slots, diag, transpose and target, in
# that order, of the stiffness pattern on all nodes or on the interior: the
# layout every matrix of the flow shares, recorded before the interior
# condensation moved into CsrPattern
PATTERN_LAYOUT_SHA256 = {
    ("boxslash", 4, False): "02f571ffa21722e81f5b96bd0cb5d671be5528d938d9af14e36b912001fade43",
    ("boxslash", 4, True): "f740f6a6cc626bdbb5b2888f160344ed1d6e88ef2c6adc1aa88765f309372f00",
    ("quad", 3, False): "e8930c40ce10568eba0fd8337609d10e5fc7a6a6a96b13dc7becb6296f6330b4",
    ("quad", 3, True): "2e5e69f521c6117f4900109f08766843ec457de93c600cfbb473d227a61017fb",
}


@pytest.mark.parametrize("family,n,interior_only", list(PATTERN_LAYOUT_SHA256))
def test_pattern_layout_golden(family, n, interior_only):
    pattern = assemble_stiffness(family_space(family, n), interior_only).pattern
    digest = hashlib.sha256()
    for name in ("cols", "slots", "diag", "transpose", "target"):
        digest.update(getattr(pattern, name).astype("<i8").tobytes())
    assert digest.hexdigest() == PATTERN_LAYOUT_SHA256[family, n, interior_only]


def step_matrix(space, law, u, tau):
    """The flow's step matrix K_II/tau + K_B,II(u), one shifted assembly."""
    return assemble_weighted_stiffness(space, FeFunction(space, u), law,
                                       interior_only=True, shift=1 / tau)


class TestFlowStep:
    def test_huge_tau_reproduces_linear_solve(self):
        space = FeSpace(build_quad(4))
        law = GrowthLaw((2.0, 2.0))
        ms = ManufacturedSolution(law)
        g = interpolate_nodal(space, ms.value).coeffs
        boundary = space.mesh.boundary
        interior = space.interior
        u0 = np.where(boundary, g, 0.0)
        residual = galerkin_residual(space, u0, law)
        u1, _ = flow_step(step_matrix(space, law, u0, 1e12), residual, u0, interior,
                          CgConfig(tol=1e-14))
        # oracle: dense direct solve of the condensed linear system
        kd = assemble_stiffness(space).todense()
        rhs = -kd[np.ix_(interior, boundary)] @ g[boundary]
        direct = np.linalg.solve(kd[np.ix_(interior, interior)], rhs)
        assert np.abs(u1[interior] - direct).max() < 1e-8
        assert np.array_equal(u1[boundary], g[boundary])

    def test_fixed_point(self):
        space = FeSpace(build_quad(4))
        law = GrowthLaw((2.0, 2.0))
        ms = ManufacturedSolution(law)
        u_star = interpolate_nodal(space, ms.value).coeffs
        residual = galerkin_residual(space, u_star, law)
        u1, _ = flow_step(step_matrix(space, law, u_star, 1.0), residual, u_star,
                          space.interior, CgConfig(tol=1e-14))
        assert np.abs(u1 - u_star).max() < 1e-10

    def test_zero_data_stays_zero(self):
        space = FeSpace(build_tri(4, "boxslash"))
        law = GrowthLaw((1.5, 3.0))
        u0 = np.zeros(space.ndofs)
        u1, iterations = flow_step(step_matrix(space, law, u0, 1.0), np.zeros(space.ndofs),
                                   u0, space.interior)
        assert np.abs(u1).max() == 0.0
        assert iterations == 0

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("tau", [1e-3, 1.0, 1e12])
    def test_shifted_assembly_is_k_over_tau_plus_kb(self, family, tau):
        space = family_space(family, 4)
        law = GrowthLaw((3.0, 1.5))
        u = np.random.default_rng(11).standard_normal(space.ndofs)
        expected = (assemble_stiffness(space, interior_only=True).todense() / tau
                    + assemble_weighted_stiffness(space, u, law, interior_only=True).todense())
        got = step_matrix(space, law, u, tau).todense()
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


class TestSolve:
    def test_quadratic_case_matches_interpolant(self):
        # the 9-point stencil annihilates x^2 - y^2, so the discrete
        # solution is the nodal interpolant; verified by direct solve
        law = GrowthLaw((2.0, 2.0))
        ms = ManufacturedSolution(law)
        for n in (4, 8):
            space = FeSpace(build_quad(n))
            spec = ProblemSpec(law=law, space=space, dirichlet=ms.value)
            u, report = solve(spec, FlowConfig(tol=1e-20, cg=CgConfig(tol=1e-14)))
            assert report.converged
            exact = interpolate_nodal(space, ms.value)
            assert np.abs(u.coeffs - exact.coeffs).max() < 1e-9
            k = assemble_stiffness(space).todense()
            interior = space.interior
            rhs = -k[np.ix_(interior, ~interior)] @ exact.coeffs[~interior]
            direct = np.linalg.solve(k[np.ix_(interior, interior)], rhs)
            assert np.abs(u.coeffs[interior] - direct).max() < 1e-9

    def test_zero_data_converges_immediately(self):
        law = GrowthLaw((3.0, 1.5))
        space = FeSpace(build_quad(4))
        spec = ProblemSpec(law=law, space=space, dirichlet=lambda x: np.zeros(len(x)))
        u, report = solve(spec, FlowConfig())
        assert np.abs(u.coeffs).max() == 0.0
        assert report.converged
        assert report.iterations == 1

    def test_galerkin_residual_small_at_convergence(self):
        law = GrowthLaw((3.0, 1.5))
        ms = ManufacturedSolution(law)
        space = FeSpace(build_tri(8, "boxslash", bounds=(-1.0, 1.0)))
        spec = ProblemSpec(law=law, space=space, dirichlet=ms.value)
        cfg = FlowConfig(tol=1e-12, residual_target=5e-7, cg=CgConfig(tol=1e-13))
        u, report = solve(spec, cfg)
        assert report.converged
        res = galerkin_residual(space, u, law)
        assert np.abs(res[space.interior_dofs]).max() < 1e-6
        assert report.final_residual < 1e-6

    def test_tau_halving_schedule(self):
        # a start far from the solution makes the residual grow tenfold
        # over its best, which halves tau
        law = GrowthLaw((6.0, 6.0))
        space = FeSpace(build_quad(3))
        spec = ProblemSpec(law=law, space=space, dirichlet=ManufacturedSolution(law).value)
        start = 100 * np.random.default_rng(0).standard_normal(space.ndofs)
        _, report = solve(spec, FlowConfig(max_iter=300, tol=1e-12, residual_target=1e-8),
                          start=start)
        steps, taus = zip(*report.tau_schedule)
        assert len(steps) > 1 and steps[0] == 0 and taus[0] == 1.0
        assert all(b > a for a, b in zip(steps, steps[1:]))
        assert all(b == a / 2 for a, b in zip(taus, taus[1:]))
        assert report.converged

    def test_increment_running_minimum_decreases(self):
        law = GrowthLaw((1.5, 1.5))
        ms = ManufacturedSolution(law)
        space = FeSpace(build_tri(8, "boxslash", bounds=(-1.0, 1.0)))
        spec = ProblemSpec(law=law, space=space, dirichlet=ms.value)
        u, report = solve(spec, FlowConfig(tol=1e-12, cg=CgConfig(tol=1e-13)))
        assert report.converged
        increments = np.asarray(report.increments)
        assert np.all(np.isfinite(increments))
        running_min = np.minimum.accumulate(increments)
        assert running_min[-1] < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(family=st.sampled_from(FAMILIES), n=st.integers(2, 6),
           p1=st.floats(1.5, 6.0), p2=st.floats(1.5, 6.0),
           target=st.sampled_from([1e-4, 1e-7, 1e-10]))
    def test_converged_means_below_the_target(self, family, n, p1, p2, target):
        # exponents stay away from 1.1, where the flow stalls
        law = GrowthLaw((p1, p2))
        space = family_space(family, n)
        spec = ProblemSpec(law=law, space=space, dirichlet=ManufacturedSolution(law).value)
        _, report = solve(spec, FlowConfig(tol=1e-12, residual_target=target, max_iter=200))
        assert report.iterations == len(report.increments)
        if report.converged:
            assert report.final_residual < target
        else:
            assert report.iterations == 200

    def test_max_iterations_flagged(self):
        law = GrowthLaw((3.0, 1.5))
        ms = ManufacturedSolution(law)
        space = FeSpace(build_quad(4, bounds=(-1.0, 1.0)))
        spec = ProblemSpec(law=law, space=space, dirichlet=ms.value)
        u, report = solve(spec, FlowConfig(tol=1e-14, max_iter=3))
        assert not report.converged
        assert report.iterations == 3

    def test_max_iterations_return_best_iterate(self, monkeypatch):
        # the last correction overshoots tenfold, so the last iterate is
        # not the one with the smallest residual
        law = GrowthLaw((3.0, 1.5))
        ms = ManufacturedSolution(law)
        space = FeSpace(build_quad(4, bounds=(-1.0, 1.0)))
        spec = ProblemSpec(law=law, space=space, dirichlet=ms.value)
        calls = []

        def overshooting(a, b, cfg=None):
            x, iterations = linalg.cg_solve(a, b, cfg)
            calls.append(None)
            return (10 * x if len(calls) == 3 else x), iterations

        norms = []

        def recording(space, u, law, f=None):
            res = galerkin_residual(space, u, law, f)
            norms.append(np.abs(res[space.interior]).max())
            return res

        monkeypatch.setattr(solver, "cg_solve", overshooting)
        monkeypatch.setattr(solver, "galerkin_residual", recording)
        u, report = solve(spec, FlowConfig(tol=1e-14, max_iter=3))
        assert not report.converged
        assert len(norms) == 4 and norms[-1] > min(norms)
        assert report.final_residual == min(norms)
        returned = np.abs(galerkin_residual(space, u, law)[space.interior]).max()
        assert returned == report.final_residual

    def test_cg_iteration_count_guard(self):
        # forcing-term inner solves need about 1 200 CG iterations here;
        # solving every step to 5e-14 of the full right-hand side needs 8 601
        law = GrowthLaw((3.0, 1.5))
        ms = ManufacturedSolution(law)
        space = FeSpace(build_tri(40, "boxslash", bounds=(-1.0, 1.0)))
        spec = ProblemSpec(law=law, space=space, dirichlet=ms.value)
        cfg = FlowConfig(tol=1e-12, residual_target=5e-7, cg=CgConfig(tol=5e-14))
        _, report = solve(spec, cfg)
        assert report.converged
        assert report.cg_iterations <= 2500

    def test_nonfinite_dirichlet_rejected(self):
        law = GrowthLaw((2.0, 2.0))
        space = FeSpace(build_quad(4))
        spec = ProblemSpec(law=law, space=space,
                           dirichlet=lambda x: np.where(x[:, 0] > 0.9, np.inf, 0.0))
        with pytest.raises(ValueError):
            solve(spec, FlowConfig())

    def test_start_boundary_values_ignored(self):
        # two starts that differ only on the boundary give the same run,
        # and the solution keeps the Dirichlet values
        law = GrowthLaw((3.0, 1.5))
        ms = ManufacturedSolution(law)
        space = FeSpace(build_tri(6, "cross", bounds=(-1.0, 1.0)))
        spec = ProblemSpec(law=law, space=space, dirichlet=ms.value)
        boundary = space.mesh.boundary
        start = np.random.default_rng(3).uniform(-1.0, 1.0, space.ndofs)
        start[boundary] = 1e3
        cfg = FlowConfig(tol=1e-12, cg=CgConfig(tol=1e-13))
        u, report = solve(spec, cfg, start)
        start[boundary] = np.nan
        v, other = solve(spec, cfg, start)
        assert report.converged
        assert np.array_equal(u.coeffs, v.coeffs)
        assert report.increments == other.increments
        g = ms.value(space.mesh.nodes)
        assert np.array_equal(u.coeffs[boundary], g[boundary])

    def test_invalid_start_rejected(self):
        law = GrowthLaw((3.0, 1.5))
        ms = ManufacturedSolution(law)
        space = FeSpace(build_quad(4, bounds=(-1.0, 1.0)))
        spec = ProblemSpec(law=law, space=space, dirichlet=ms.value)
        with pytest.raises(ValueError):
            solve(spec, FlowConfig(), np.zeros(space.ndofs - 1))
        with pytest.raises(ValueError):
            solve(spec, FlowConfig(), np.zeros((space.ndofs, 1)))
        start = np.zeros(space.ndofs)
        start[np.flatnonzero(space.interior)[0]] = np.nan
        with pytest.raises(ValueError):
            solve(spec, FlowConfig(), start)

    @pytest.mark.parametrize("make_mesh", [
        lambda: build_quad(8, bounds=(-1.0, 1.0)),
        lambda: build_tri(8, "boxslash", bounds=(-1.0, 1.0)),
    ])
    def test_converged_start_stops_at_once(self, make_mesh):
        law = GrowthLaw((3.0, 1.5))
        ms = ManufacturedSolution(law)
        space = FeSpace(make_mesh())
        spec = ProblemSpec(law=law, space=space, dirichlet=ms.value)
        cfg = FlowConfig(tol=1e-12, residual_target=5e-7, cg=CgConfig(tol=5e-14))
        u, cold = solve(spec, cfg)
        _, warm = solve(spec, cfg, u.coeffs)
        assert cold.converged and warm.converged
        assert cold.iterations > 2 and warm.iterations <= 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FlowConfig(tau=0.0)
        with pytest.raises(ValueError):
            FlowConfig(max_iter=0)
        for clamp in (0.0, -1e-10):
            with pytest.raises(ValueError):
                FlowConfig(clamp=clamp)
        # NaN compares False with every bound, so it must fail each check too
        nan = float("nan")
        for name in ("tau", "tol", "clamp", "residual_target"):
            for value in (nan, -1.0, 0.0):
                with pytest.raises(ValueError, match=name):
                    FlowConfig(**{name: value})
        with pytest.raises(ValueError, match="max_iter"):
            FlowConfig(max_iter=nan)


def test_scalar_source_is_a_constant_field():
    for space in (FeSpace(build_quad(4)), FeSpace(build_tri(4, "cross"))):
        expected = assemble_load(space, lambda x: np.full(len(x), 2.5))
        assert np.array_equal(assemble_load(space, lambda x: 2.5), expected)


def test_nonfinite_source_rejected():
    # a NaN load would stop CG at once, as NaN compares False, and the flow
    # would report convergence with a NaN residual
    law = GrowthLaw((3.0, 1.5))
    space = FeSpace(build_tri(4, "boxslash"))
    ms = ManufacturedSolution(law)
    spec = ProblemSpec(law=law, space=space, dirichlet=ms.value,
                       source=lambda x: np.where(x[:, 0] > 0.5, np.nan, 1.0))
    with pytest.raises(ValueError):
        solve(spec, FlowConfig(max_iter=3))


def test_source_term_load_vector():
    space = FeSpace(build_quad(4))
    load = assemble_load(space, lambda x: np.ones(len(x)))
    # rows sum to the total volume: integral of the partition of unity
    assert float(load.sum()) == pytest.approx(1.0, rel=1e-13)
    assert np.all(load >= 0)
