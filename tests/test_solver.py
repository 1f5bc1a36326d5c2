import gc
import hashlib
import re
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orthofem import linalg, solver
from orthofem.analysis import ManufacturedSolution
from orthofem.cli import StudyConfig, run_study
from orthofem.fespace import FeFunction, FeSpace, interpolate_nodal
from orthofem.linalg import CgConfig
from orthofem.mesh import build_quad, build_tri
from orthofem.nfunc import GrowthLaw
from orthofem.solver import (FlowConfig, ProblemSpec, assemble_load,
                             assemble_stiffness, assemble_weighted_stiffness,
                             energy, flow_step, galerkin_residual, solve)

import oracles

Q1_STENCIL = np.array([[-1.0, -1.0, -1.0],
                       [-1.0, 8.0, -1.0],
                       [-1.0, -1.0, -1.0]]) / 3.0


def dense_reference_stiffness(space, law=None, u=None, clamp=1e-10, npts=3, gradients=None):
    """Independent dense assembly by plain quadrature loops; the weights are
    taken at ``gradients`` (nc, points, 2), the gradient of u at each cell's
    points in loop order, where given, else at the loops' own."""
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
                gu = (sum(u.coeffs[mesh.cells[c, a]] * grads[a] for a in range(3))
                      if gradients is None else gradients[c, 0])
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
            for ix, (xi, wx) in enumerate(zip(gx, gw)):
                for iy, (eta, wy) in enumerate(zip(gx, gw)):
                    grads = np.array([[-(1 - eta), -(1 - xi)],
                                      [(1 - eta), -xi],
                                      [eta, xi],
                                      [-eta, (1 - xi)]]) / h
                    if law is None:
                        w1 = w2 = 1.0
                    else:
                        gu = (sum(u.coeffs[mesh.cells[c, a]] * grads[a] for a in range(4))
                              if gradients is None else gradients[c, ix * npts + iy])
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
        center = mesh.lattice_ids[2, 2]
        for da in (-1, 0, 1):
            for db in (-1, 0, 1):
                neighbor = mesh.lattice_ids[2 + da, 2 + db]
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

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_newton_weight_gives_the_jacobian(self, family, seed):
        # K_A'(u) v is the derivative of r along v: both integrate on the
        # rule of degree GRADIENT_DEGREE, so only the central difference errs
        space = family_space(family, 4)
        law = GrowthLaw((3.0, 1.5))
        rng = np.random.default_rng(seed)
        u, v = rng.standard_normal((2, space.ndofs))
        eps = 1e-6
        slope = (galerkin_residual(space, u + eps * v, law)
                 - galerkin_residual(space, u - eps * v, law)) / (2 * eps)
        jv = assemble_weighted_stiffness(space, u, law, weight="derivative").matvec(v)
        assert np.abs(jv - slope).max() <= 1e-6 * np.abs(jv).max()


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

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(FAMILIES), n=st.integers(2, 6),
           p1=st.floats(1.5, 6.0), p2=st.floats(1.5, 6.0), seed=st.integers(0, 2 ** 16))
    @example(family="quad", n=4, p1=2.0, p2=1.5, seed=566)
    @example(family="cross", n=6, p1=2.0, p2=1.5, seed=99)
    def test_dropped_pairs_are_zero(self, family, n, p1, p2, seed):
        # oracle: the dense plain-loop assembly, which computes every pair; the
        # pairs the pattern leaves out hold rounding there at most.  It weighs
        # at the assembly's own gradients: where p_i < 2 and d_i u is small,
        # B_i = |t|^(p_i - 2) would amplify the rounding between two gradient
        # computations past the gate
        space = family_space(family, n)
        law = GrowthLaw((p1, p2))
        u = FeFunction(space, np.random.default_rng(seed).standard_normal(space.ndofs))
        ref = dense_reference_stiffness(space, law, u, npts=1 if space.kind == "P1" else 2,
                                        gradients=u.gradients_on_rule(solver.GRADIENT_DEGREE))
        scale = np.abs(ref).max()
        rows, cols, _ = assemble_weighted_stiffness(space, u, law).entries()
        stored = np.zeros(ref.shape, dtype=bool)
        stored[rows, cols] = True
        assert np.abs(ref[~stored]).max(initial=0.0) <= 1e-13 * scale
        block = assemble_weighted_stiffness(space, u, law, interior_only=True).todense()
        expected = ref[np.ix_(space.interior, space.interior)]
        assert np.abs(block - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_assembly_does_not_depend_on_the_block_size(self, family):
        # BLOCK = 8 is whole squares on every family, against one block: the
        # per-cell values are summed by one bincount either way, so the
        # stiffness is the same bit for bit; the residual and the energy may
        # round otherwise only in the batched matmul of each block
        space = family_space(family, 12)
        law = GrowthLaw((3.0, 1.5))
        u = FeFunction(space, np.random.default_rng(8).standard_normal(space.ndofs))
        results = []
        for block in (8, space.mesh.num_cells):
            with mock.patch.object(solver, "BLOCK", block):
                results.append((assemble_weighted_stiffness(space, u, law).values,
                                galerkin_residual(space, u, law), energy(space, u, law)))
        (k_blocks, r_blocks, j_blocks), (k_one, r_one, j_one) = results
        assert np.array_equal(k_blocks, k_one)
        assert np.abs(r_blocks - r_one).max() <= 1e-14 * np.abs(r_one).max()
        assert j_blocks == pytest.approx(j_one, rel=1e-14, abs=0.0)


# sha256 of the int64 bytes of cols, slots, diag, transpose and target, in
# that order, of the stiffness pattern on all nodes or on the interior: the
# layout every matrix of the flow shares.  They date from when a row's
# slots became its node class's, with an absent neighbour's slot pointing at
# the row, in place of the entries-first layout
PATTERN_LAYOUT_SHA256 = {
    ("boxslash", 4, False): "c24e606aef3d3616ef3f183d7773c5a9995e7e8af2d765c23c93aced5bb1ece1",
    ("boxslash", 4, True): "30c4be0d866ccfc93845fc0c3050a5a899c2ce8f99876cd78820aaf4107ff72d",
    ("quad", 3, False): "0241ef589640adb051f411b22deebb425effa93a2ec989d73664dce0036c69ea",
    ("quad", 3, True): "b299f67f55df4c51deb7ec5dd49ecda1a742fc84c7c7da5386940d2d6bc860b6",
    ("cross", 3, False): "f9f6c8ecf789dac513fcecc8c173b573cdef894d7290f31426466964256ab6ca",
    ("cross", 3, True): "7063bfde2e4f3db86dda32e4948d1e57037e470120aab8f1b1d49ec19322cc23",
    ("unionjack", 2, True): "dfeae6a111d835fb30810467c23d59434b19a88d5c9f054808a838225425f12e",
    ("alternating-kuhn", 4, True):
        "c0cc308975688ede30770fa91aa8f40fa4e8af88bba626efe1bc8f89bb7a63d5",
}


@pytest.mark.parametrize("family,n,interior_only", list(PATTERN_LAYOUT_SHA256))
def test_pattern_layout_golden(family, n, interior_only):
    pattern = assemble_stiffness(family_space(family, n), interior_only).pattern
    digest = hashlib.sha256()
    for name in ("cols", "slots", "diag", "transpose", "target"):
        digest.update(getattr(pattern, name).astype("<i8").tobytes())
    assert digest.hexdigest() == PATTERN_LAYOUT_SHA256[family, n, interior_only]


@pytest.mark.parametrize("family,width", [("boxslash", 5), ("alternating-kuhn", 5),
                                          ("unionjack", 5), ("cross", 9), ("quad", 9)])
def test_interior_pattern_width(family, width):
    # right triangles with legs along the axes couple no pair across the
    # hypotenuse, so those three families keep the 5-point stencil
    pattern = assemble_stiffness(family_space(family, 6), interior_only=True).pattern
    assert pattern.cols.shape[0] == width


def step_matrix(space, law, u, tau):
    """K_II/tau + K_B,II(u), one shifted assembly; for p = 2 it is also the
    flow's step matrix K_II/tau + K_A',II(u), as A' = B = 1."""
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
        delta, _ = flow_step(step_matrix(space, law, u0, 1e12), residual, interior,
                             CgConfig(tol=1e-14))
        # oracle: dense direct solve of the condensed linear system
        kd = assemble_stiffness(space).todense()
        rhs = -kd[np.ix_(interior, boundary)] @ g[boundary]
        direct = np.linalg.solve(kd[np.ix_(interior, interior)], rhs)
        assert np.abs((u0 + delta)[interior] - direct).max() < 1e-8
        assert not np.any(delta[boundary])

    def test_fixed_point(self):
        space = FeSpace(build_quad(4))
        law = GrowthLaw((2.0, 2.0))
        ms = ManufacturedSolution(law)
        u_star = interpolate_nodal(space, ms.value).coeffs
        residual = galerkin_residual(space, u_star, law)
        delta, _ = flow_step(step_matrix(space, law, u_star, 1.0), residual,
                             space.interior, CgConfig(tol=1e-14))
        assert np.abs(delta).max() < 1e-10

    def test_zero_data_stays_zero(self):
        space = FeSpace(build_tri(4, "boxslash"))
        law = GrowthLaw((1.5, 3.0))
        u0 = np.zeros(space.ndofs)
        delta, iterations = flow_step(step_matrix(space, law, u0, 1.0), np.zeros(space.ndofs),
                                      space.interior)
        assert np.abs(delta).max() == 0.0
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

    def test_far_start_converges_at_one_tau(self):
        # a start far from the solution, which once made the residual grow
        # tenfold over its best, is damped by the line search alone
        law = GrowthLaw((6.0, 6.0))
        space = FeSpace(build_quad(3))
        spec = ProblemSpec(law=law, space=space, dirichlet=ManufacturedSolution(law).value)
        start = 100 * np.random.default_rng(0).standard_normal(space.ndofs)
        _, report = solve(spec, FlowConfig(max_iter=300, tol=1e-12, residual_target=1e-8),
                          start=start)
        assert report.converged
        assert report.tau_schedule == [(0, FlowConfig.tau)]

    @pytest.mark.parametrize("family,n,p,bounds,target", [
        # frozen-weight steps at tau = 1 cycled on all six
        ("quad", 6, (5.61, 4.23), (0.0, 1.0), 1e-10),
        ("unionjack", 6, (3.23, 5.99), (0.0, 1.0), 1e-10),
        ("boxslash", 6, (6.0, 6.0), (0.0, 1.0), 1e-10),
        ("boxslash", 20, (6.0, 6.0), (-1.0, 1.0), 5e-7),
        ("boxslash", 20, (1.25, 4.0), (-1.0, 1.0), 5e-7),
        ("cross", 20, (1.5, 6.0), (-1.0, 1.0), 5e-7),
    ])
    def test_converges_across_the_exponent_range(self, family, n, p, bounds, target):
        law = GrowthLaw(p)
        space = FeSpace(build_quad(n, bounds) if family == "quad"
                        else build_tri(n, family, bounds))
        spec = ProblemSpec(law=law, space=space, dirichlet=ManufacturedSolution(law).value)
        _, report = solve(spec, FlowConfig(tol=1e-12, residual_target=target, max_iter=200))
        assert report.converged and report.final_residual < target

    @settings(max_examples=25, deadline=None)
    @given(family=st.sampled_from(FAMILIES), n=st.integers(2, 6),
           p1=st.floats(1.5, 6.0), p2=st.floats(1.5, 6.0),
           target=st.sampled_from([1e-4, 1e-7, 1e-10]))
    # the predicted decrease falls below the rounding of J here: a line search
    # that does not forgive it backtracks on noise and stalls above the target
    @example(family="unionjack", n=4, p1=4.45, p2=5.61, target=1e-10)
    def test_energy_never_increases(self, family, n, p1, p2, target):
        law = GrowthLaw((p1, p2))
        space = family_space(family, n)
        spec = ProblemSpec(law=law, space=space, dirichlet=ManufacturedSolution(law).value)
        iterates = []

        def recording(space, u, law, f=None):
            iterates.append(u.copy())
            return galerkin_residual(space, u, law, f)

        with mock.patch.object(solver, "galerkin_residual", recording):
            _, report = solve(spec, FlowConfig(tol=1e-12, residual_target=target,
                                               max_iter=200))
        assert report.converged and len(iterates) == report.iterations + 1
        values = [energy(space, u, law) for u in iterates]  # f = 0: Phi = J
        for before, after in zip(values, values[1:]):
            assert after <= before + 1e-13 * abs(before)

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
        # the last correction overshoots tenfold, and a line search that
        # forgives any rise of Phi keeps it, so the last iterate is not the
        # one with the smallest residual
        law = GrowthLaw((3.0, 1.5))
        ms = ManufacturedSolution(law)
        space = FeSpace(build_quad(4, bounds=(-1.0, 1.0)))
        spec = ProblemSpec(law=law, space=space, dirichlet=ms.value)
        calls = []

        def overshooting(a, b, cfg=None, precondition=None):
            x, iterations = linalg.cg_solve(a, b, cfg, precondition)
            calls.append(None)
            return (10 * x if len(calls) == 3 else x), iterations

        norms = []

        def recording(space, u, law, f=None):
            res = galerkin_residual(space, u, law, f)
            norms.append(np.abs(res[space.interior]).max())
            return res

        monkeypatch.setattr(solver, "cg_solve", overshooting)
        monkeypatch.setattr(solver, "galerkin_residual", recording)
        monkeypatch.setattr(solver, "ROUNDING", np.inf)
        u, report = solve(spec, FlowConfig(tol=1e-14, max_iter=3))
        assert not report.converged
        assert len(norms) == 4 and norms[-1] > min(norms)
        assert report.final_residual == min(norms)
        returned = np.abs(galerkin_residual(space, u, law)[space.interior]).max()
        assert returned == report.final_residual

    def test_rejected_step_returns_best_iterate(self, monkeypatch):
        # an uphill correction passes the line search at no step length, so
        # the step is rejected and the flow stops with its best iterate
        law = GrowthLaw((3.0, 1.5))
        space = FeSpace(build_quad(4, bounds=(-1.0, 1.0)))
        spec = ProblemSpec(law=law, space=space, dirichlet=ManufacturedSolution(law).value)
        calls, norms = [], []

        def uphill(a, b, cfg=None, precondition=None):
            x, iterations = linalg.cg_solve(a, b, cfg, precondition)
            calls.append(None)
            return (-x if len(calls) == 3 else x), iterations

        def recording(space, u, law, f=None):
            res = galerkin_residual(space, u, law, f)
            norms.append(np.abs(res[space.interior]).max())
            return res

        monkeypatch.setattr(solver, "cg_solve", uphill)
        monkeypatch.setattr(solver, "galerkin_residual", recording)
        u, report = solve(spec, FlowConfig(tol=1e-14, max_iter=10))
        assert not report.converged
        assert len(calls) == 3 and report.iterations == 2 and len(norms) == 3
        assert report.final_residual == min(norms)
        returned = np.abs(galerkin_residual(space, u, law)[space.interior]).max()
        assert returned == report.final_residual

    def test_cg_iteration_count_guard(self):
        # a cold level climbs its V-cycle levels n = 10 and 20 first (10 and
        # 25 PCG iterations), then takes 37 on n = 40; both gates sit at
        # about twice those counts, for the fine level and for all three
        law = GrowthLaw((3.0, 1.5))
        ms = ManufacturedSolution(law)
        space = FeSpace(build_tri(40, "boxslash", bounds=(-1.0, 1.0)))
        spec = ProblemSpec(law=law, space=space, dirichlet=ms.value)
        cfg = FlowConfig(tol=1e-12, residual_target=5e-7, cg=CgConfig(tol=5e-14))
        _, report = solve(spec, cfg)
        assert report.converged
        assert report.cg_iterations <= 75
        assert report.cg_iterations + sum(c.cg_iterations for c in report.coarse) <= 150

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

    @pytest.mark.parametrize("max_iter", [2.5, 3.0, "3"])
    def test_max_iter_must_be_an_integer(self, max_iter):
        # a float passed the bound check, and solve() then failed in range()
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            FlowConfig(max_iter=max_iter)


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


# per bad field result: the result on an (m, 2) point array, and the shape
# its ValueError names on m points, None for a non-finite result
BAD_FIELDS = {
    "too short": (lambda x: x[1:, 0], lambda m: (m - 1,)),
    "column": (lambda x: x[:, :1], lambda m: (m, 1)),
    "pairs": (lambda x: x.copy(), lambda m: (m, 2)),
    "nan": (lambda x: np.full(len(x), np.nan), None),
    "inf": (lambda x: np.where(x[:, 0] == x[:, 0].max(), np.inf, 1.0), None),
}


class TestFieldCheck:
    """Dirichlet data, the source and ``interpolate_nodal`` check a field's
    result through one helper: a scalar or m finite values on m points."""

    @staticmethod
    def _calls():
        """Per caller, the call on a field and the number of points it asks
        the field for: the boundary nodes, the load's quadrature points and
        all nodes."""
        law = GrowthLaw((3.0, 1.5))
        space = FeSpace(build_tri(4, "boxslash", (-1.0, 1.0)))
        ms = ManufacturedSolution(law)
        loads = space.mesh.num_cells * len(space.rule(solver.LOAD_DEGREE).points)
        return {
            "dirichlet": (lambda f: solve(ProblemSpec(law, space, f), FlowConfig(max_iter=1)),
                          int(np.count_nonzero(space.mesh.boundary))),
            "source": (lambda f: solve(ProblemSpec(law, space, ms.value, f),
                                       FlowConfig(max_iter=1)), loads),
            "interpolate_nodal": (lambda f: interpolate_nodal(space, f), space.ndofs),
        }

    @pytest.mark.parametrize("bad", list(BAD_FIELDS))
    def test_bad_result_rejected(self, bad):
        field, shape = BAD_FIELDS[bad]
        for name, (call, m) in self._calls().items():
            message = ("field is not finite at some evaluation point" if shape is None
                       else f"field returned shape {shape(m)} on {m} points; "
                            "expected a scalar or one value per point")
            with pytest.raises(ValueError, match=re.escape(message)):
                call(field)

    def test_scalar_and_per_point_results_accepted(self):
        for call, _ in self._calls().values():
            assert call(lambda x: 0.5) is not None
            assert call(lambda x: np.ones(len(x))) is not None

    def test_dirichlet_data_is_evaluated_on_the_boundary_only(self):
        # the interior values of the data are never used, so a field that is
        # NaN inside gives the run of the data it equals on the boundary
        law = GrowthLaw((3.0, 1.5))
        ms = ManufacturedSolution(law)
        space = FeSpace(build_tri(6, "cross", (-1.0, 1.0)))

        def inside_nan(x):
            return np.where(np.abs(x).max(axis=1) < 1.0, np.nan, ms.value(x))

        cfg = FlowConfig(tol=1e-12, cg=CgConfig(tol=1e-13))
        u, report = solve(ProblemSpec(law, space, inside_nan), cfg)
        v, other = solve(ProblemSpec(law, space, ms.value), cfg)
        assert report.converged
        assert np.array_equal(u.coeffs, v.coeffs)
        assert report.increments == other.increments


def test_load_vector_assembled_once_per_solve(monkeypatch):
    # the flow subtracts one load vector from every residual
    law = GrowthLaw((3.0, 1.5))
    space = FeSpace(build_tri(8, "boxslash", (-1.0, 1.0)))
    source = lambda x: np.sin(x[:, 0]) * x[:, 1]  # noqa: E731
    spec = ProblemSpec(law=law, space=space, dirichlet=ManufacturedSolution(law).value,
                       source=source)
    calls = []

    def counting(space, f):
        calls.append(f)
        return assemble_load(space, f)

    monkeypatch.setattr(solver, "assemble_load", counting)
    u, report = solve(spec, FlowConfig(tol=1e-12, residual_target=1e-9))
    assert report.converged and calls == [source]
    residual = galerkin_residual(space, u.coeffs, law, source)[space.interior]
    assert np.abs(residual).max() == report.final_residual


def test_source_term_load_vector():
    space = FeSpace(build_quad(4))
    load = assemble_load(space, lambda x: np.ones(len(x)))
    # rows sum to the total volume: integral of the partition of unity
    assert float(load.sum()) == pytest.approx(1.0, rel=1e-13)
    assert np.all(load >= 0)


def step_and_vcycle(space, law, u, tau=100.0, clamp=1e-10):
    """The flow's step matrix at u and its V-cycle."""
    transfers = solver._hierarchy(space)
    weights = np.empty((space.mesh.num_cells, 2))
    system = assemble_weighted_stiffness(space, u, law, clamp, interior_only=True,
                                         shift=1 / tau, weight="derivative", _cell_means=weights)
    return system, solver._vcycle(transfers, system, weights)


class TestMultigrid:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [16, 20, 21])
    def test_prolongation_is_nodal_interpolation(self, family, n):
        # oracle: FeFunction.evaluate of the coarse function at the fine
        # interior nodes; restriction is its transpose.  From odd n the
        # coarse mesh is not nested in the fine one
        fine = family_space(family, n)
        transfer = solver._Transfer(fine, FeSpace(fine.mesh.coarsened()))
        coarse = transfer.coarse
        rng = np.random.default_rng(n)
        x = rng.standard_normal(transfer.dim)
        full = np.zeros(coarse.ndofs)
        full[coarse.interior] = x
        expected = FeFunction(coarse, full).evaluate(fine.mesh.nodes[fine.interior])
        px = transfer.prolong(x)
        assert np.abs(px - expected).max() <= 1e-14 * np.abs(x).max()
        # exact zeros and boundary columns are left out: on nested meshes a
        # fine node lies on a coarse edge, else some lie inside coarse triangles
        assert len(transfer.vals) == (4 if family == "quad" else 2 + n % 2)
        y = rng.standard_normal(len(px))
        assert abs(px @ y - x @ transfer.restrict(y)) <= 1e-13 * np.abs(px).sum() * np.abs(y).max()

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("bounds", [(0.0, 1.0), (-1.0, 1.0)])
    @pytest.mark.parametrize("n", [5, 8, 17, 40, 41])
    def test_prolongation_layout_matches_the_sort_build(self, family, bounds, n):
        # the padded rows are compacted by a running count of each row's
        # nonzeros: the same arrays, bit for bit, as the oracle's stable argsort
        fine = FeSpace(build_quad(n, bounds) if family == "quad"
                       else build_tri(n, family, bounds))
        coarse = FeSpace(fine.mesh.coarsened())
        transfer = solver._Transfer(fine, coarse)
        vals, cols = oracles.prolongation_layout(fine, coarse)
        for got, want in ((transfer.vals, vals), (transfer.cols, cols)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from(FAMILIES), n=st.sampled_from([8, 15, 16, 24, 25, 32]),
           p1=st.floats(1.5, 6.0), p2=st.floats(1.5, 6.0), seed=st.integers(0, 2 ** 16))
    def test_vcycle_is_symmetric_positive(self, family, n, p1, p2, seed):
        # 15 and 25 coarsen through odd n, to non-nested levels
        space = family_space(family, n)
        law = GrowthLaw((p1, p2))
        rng = np.random.default_rng(seed)
        u = FeFunction(space, rng.standard_normal(space.ndofs))
        system, precondition = step_and_vcycle(space, law, u)
        r, s = rng.standard_normal((2, system.dim))
        mr, ms = precondition(r), precondition(s)
        assert abs(mr @ s - r @ ms) <= 1e-12 * np.linalg.norm(mr) * np.linalg.norm(s)
        assert mr @ r > 0

    @pytest.mark.parametrize("family,n,p", [(family, 16, (3.0, 1.5)) for family in FAMILIES]
                             + [("boxslash", 21, (3.0, 3.0)), ("boxslash", 42, (3.0, 3.0))],
                             ids=[*FAMILIES, "boxslash-21", "boxslash-42"])
    def test_multigrid_path_matches_jacobi(self, family, n, p):
        # both stop below the residual target, so they differ by at most the
        # residuals over the smallest eigenvalue of the Jacobian.  21 is odd
        # and 42 halves to it; at p_2 = 1.5 an odd n stalls both paths
        law = GrowthLaw(p)
        space = FeSpace(build_quad(n, (-1.0, 1.0)) if family == "quad"
                        else build_tri(n, family, (-1.0, 1.0)))
        spec = ProblemSpec(law=law, space=space, dirichlet=ManufacturedSolution(law).value)
        cfg = FlowConfig(tol=1e-12, residual_target=1e-9)

        def jacobi(a, b, cfg=None, precondition=None):
            return linalg.cg_solve(a, b, cfg)

        with mock.patch.object(solver, "cg_solve", jacobi):
            u_jacobi, _ = solve(spec, cfg)
        u_multigrid, report = solve(spec, cfg)
        assert report.converged and report.final_residual < cfg.residual_target
        interior = space.interior
        residuals = sum(np.linalg.norm(galerkin_residual(space, u, law)[interior])
                        for u in (u_jacobi, u_multigrid))
        jacobian = assemble_weighted_stiffness(space, u_jacobi, law, cfg.clamp,
                                               interior_only=True, weight="derivative")
        smallest = np.linalg.eigvalsh(jacobian.todense())[0]
        assert np.linalg.norm(u_multigrid.coeffs - u_jacobi.coeffs) <= residuals / smallest

    @pytest.mark.parametrize("family", FAMILIES)
    def test_cell_means_are_the_step_weights(self, family):
        # the V-cycle coarsens the means the step matrix's assembly wrote, in
        # blocks of BLOCK cells: bit for bit each cell's mean weight, as if the
        # cycle had taken it from the gradients itself
        space = family_space(family, 12)
        law = GrowthLaw((3.0, 1.5))
        u = FeFunction(space, np.random.default_rng(9).standard_normal(space.ndofs))
        means = np.full((space.mesh.num_cells, 2), np.nan)
        with mock.patch.object(solver, "BLOCK", 8):
            assemble_weighted_stiffness(space, u, law, 1e-10, interior_only=True, shift=0.01,
                                        weight="derivative", _cell_means=means)
        expected = solver._weights(u, law, 1e-10, 0.01, "derivative").mean(axis=1)
        assert np.array_equal(means, expected)

    def test_hierarchy_depth(self):
        # down to the first level with at most COARSEST interior unknowns,
        # through odd n too; a level that small is its own coarsest
        for family, n, coarse in [("boxslash", 10, []), ("unionjack", 6, []),  # 81, 121
                                  ("boxslash", 16, [8]),  # 225
                                  ("boxslash", 100, [50, 25, 12]),  # 9 801, 121 at 12
                                  ("boxslash", 102, [51, 25, 12])]:  # 10 201
            transfers = solver._hierarchy(family_space(family, n))
            assert [t.coarse.mesh.n for t in transfers] == coarse

    @pytest.mark.parametrize("family,n", [("quad", 14), ("boxslash", 10),
                                          ("alternating-kuhn", 10), ("unionjack", 6),
                                          ("cross", 8)], ids=FAMILIES)
    def test_coarsest_level_is_solved_exactly(self, family, n):
        # with no coarser level the V-cycle is the dense inverse of the step
        # matrix: one PCG iteration a step
        law = GrowthLaw((3.0, 1.5))
        space = FeSpace(build_quad(n, (-1.0, 1.0)) if family == "quad"
                        else build_tri(n, family, (-1.0, 1.0)))
        assert np.count_nonzero(space.interior) <= solver.COARSEST
        spec = ProblemSpec(law=law, space=space, dirichlet=ManufacturedSolution(law).value)
        _, report = solve(spec, FlowConfig(tol=1e-12, residual_target=5e-7))
        assert report.converged and report.cg_iterations == report.iterations

    def test_every_level_is_preconditioned(self):
        # a study whose levels lie on both sides of COARSEST, 81 to 1 521
        # interior unknowns: every step's CG gets the V-cycle
        preconditioners = []

        def recording(a, b, cfg=None, precondition=None):
            preconditioners.append(precondition)
            return linalg.cg_solve(a, b, cfg, precondition)

        with mock.patch.object(solver, "cg_solve", recording):
            run_study(StudyConfig(mesh="boxslash", p1=3.0, p2=1.5, n_list=(10, 20, 40)))
        assert preconditioners and all(p is not None for p in preconditioners)


ACCEPTANCE = dict(tol=1e-12, cg_tol=5e-14, residual_target=5e-7)
ACCEPTANCE_FLOW = FlowConfig(tol=1e-12, residual_target=5e-7, cg=CgConfig(tol=5e-14))


def acceptance_spec(family, n, p):
    law = GrowthLaw(p)
    space = FeSpace(build_quad(n, (-1.0, 1.0)) if family == "quad"
                    else build_tri(n, family, (-1.0, 1.0)))
    return ProblemSpec(law=law, space=space, dirichlet=ManufacturedSolution(law).value)


class TestNestedStart:
    """A solve without a start climbs its V-cycle's levels, coarsest first."""

    @pytest.mark.parametrize("family,p,sizes", [
        ("boxslash", (3.0, 1.5), (10, 20, 40, 80)),
        ("quad", (3.0, 1.5), (8, 16, 32, 64)),
        ("cross", (3.0, 1.5), (10, 20, 40)),
        # 40 halves to 20, 10 and 5: the odd 5 and all below it are left out
        ("unionjack", (3.0, 1.5), (10, 20, 40)),
        ("boxslash", (3.0, 1.5), (50, 100)),
        ("boxslash", (3.0, 3.0), (50, 101)),
    ], ids=["boxslash", "quad", "cross", "unionjack", "boxslash-100", "boxslash-101"])
    def test_cold_solve_is_the_finest_level_of_the_sweep(self, family, p, sizes):
        # the chain is the sweep over the even levels n // 2, n // 4, ...: the
        # same starts, the same levels, so the same bits
        cfg = StudyConfig(mesh=family, p1=p[0], p2=p[1], n_list=sizes, **ACCEPTANCE)
        solutions = []

        def recording(spec, flow, start):
            u, report = solve(spec, flow, start)
            solutions.append(u.coeffs)
            return u, report

        with mock.patch("orthofem.cli.solve", recording):
            table, reports = run_study(cfg)
        assert table.complete
        u, report = solve(acceptance_spec(family, sizes[-1], p), cfg.flow)
        assert report.converged
        assert np.array_equal(u.coeffs, solutions[-1])
        assert report.increments == reports[-1].increments
        assert reports[0].coarse == ()
        assert [r.increments for r in report.coarse] == [r.increments for r in reports[:-1]]

    def test_one_hierarchy_and_one_space_per_level(self, monkeypatch):
        # each coarser level runs on the transfers below it, built once
        hierarchies, spaces, original = [], [], solver._hierarchy

        def hierarchy(space):
            hierarchies.append(space.mesh.n)
            return original(space)

        def fe_space(mesh):
            spaces.append(mesh.n)
            return FeSpace(mesh)

        monkeypatch.setattr(solver, "_hierarchy", hierarchy)
        monkeypatch.setattr(solver, "FeSpace", fe_space)
        _, report = solve(acceptance_spec("boxslash", 80, (3.0, 1.5)), ACCEPTANCE_FLOW)
        assert report.converged
        assert hierarchies == [80] and spaces == [40, 20, 10]
        assert len(report.coarse) == 3

    @pytest.mark.parametrize("p,n,chain", [((3.0, 1.5), 80, [10, 20, 40]),
                                           # 100 halves to 50, 25 and 12
                                           ((3.0, 1.5), 100, [50]),
                                           ((3.0, 3.0), 101, [50])])
    def test_coarse_reports_are_the_chain(self, monkeypatch, p, n, chain):
        levels, original = [], solver._flow

        def flow(law, space, *args):
            solution, report = original(law, space, *args)
            levels.append((space.mesh.n, report))
            return solution, report

        monkeypatch.setattr(solver, "_flow", flow)
        _, report = solve(acceptance_spec("boxslash", n, p), ACCEPTANCE_FLOW)
        assert [level for level, _ in levels] == chain + [n]
        assert report is levels[-1][1] and report.converged
        assert len(report.coarse) == len(chain)
        assert all(got is want for got, (_, want) in zip(report.coarse, levels))
        assert all(r.converged and r.coarse == () for r in report.coarse)

    def test_given_start_runs_no_coarse_solve(self, monkeypatch):
        spaces, original = [], solver._flow

        def flow(law, space, *args):
            spaces.append(space.mesh.n)
            return original(law, space, *args)

        monkeypatch.setattr(solver, "_flow", flow)
        spec = acceptance_spec("boxslash", 40, (3.0, 1.5))
        _, report = solve(spec, ACCEPTANCE_FLOW, np.zeros(spec.space.ndofs))
        assert report.converged and report.coarse == () and spaces == [40]

    @pytest.mark.parametrize("family,n,coarser", [
        # at most COARSEST interior unknowns: no coarser level
        ("quad", 14, []), ("boxslash", 10, []), ("unionjack", 6, []), ("cross", 8, []),
        # n // 2 odd: the flow runs all max_iter steps there without converging
        ("boxslash", 30, [15]), ("quad", 18, [9]),
    ])
    def test_starts_from_zero_without_an_even_coarser_level(self, family, n, coarser):
        spec = acceptance_spec(family, n, (3.0, 1.5))
        assert [t.coarse.mesh.n for t in solver._hierarchy(spec.space)] == coarser
        u, report = solve(spec, ACCEPTANCE_FLOW)
        v, other = solve(spec, ACCEPTANCE_FLOW, np.zeros(spec.space.ndofs))
        assert report.converged and report.coarse == ()
        assert np.array_equal(u.coeffs, v.coeffs)
        assert report.increments == other.increments

    def test_spaces_are_freed_without_the_cycle_collector(self, monkeypatch):
        # no space sits in a reference cycle: once the caller drops it, it
        # goes at once, with its assembler, patterns and coarser levels
        refs = []

        def fe_space(mesh):
            space = FeSpace(mesh)
            refs.append(weakref.ref(space))
            return space

        monkeypatch.setattr(solver, "FeSpace", fe_space)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            spec = acceptance_spec("boxslash", 40, (3.0, 1.5))
            refs.append(weakref.ref(spec.space))
            u, report = solve(spec, ACCEPTANCE_FLOW)
            assert report.converged and len(refs) == 3  # 40, 20 and 10
            del u, spec
            assert [ref() for ref in refs] == [None] * 3
        finally:
            if enabled:
                gc.enable()


@pytest.mark.xfail(strict=True, reason="Newton stalls next to x_2 = 0 at odd n with p_2 < 2 "
                                       "(ROADMAP item 8), from the nested start too")
def test_odd_level_converges():
    cfg = StudyConfig(mesh="boxslash", p1=3.0, p2=1.5, n_list=(17, 34), max_iter=300,
                      **ACCEPTANCE)
    table, reports = run_study(cfg)
    assert table.complete and all(report.converged for report in reports)
