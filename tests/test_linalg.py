import numpy as np
import pytest

from orthofem.fespace import FeFunction, FeSpace
from orthofem.linalg import (CgConfig, CsrMatrix, CsrPattern,
                             IterativeSolveError, cg_solve)
from orthofem.mesh import build_quad, build_tri
from orthofem.nfunc import GrowthLaw
from orthofem.solver import assemble_stiffness, assemble_weighted_stiffness


def dense_solve(a, b):
    """Direct dense solve, as an oracle for moderate problem sizes."""
    if a.dim > 2000:
        raise ValueError("dense fallback is limited to dim <= 2000")
    return np.linalg.solve(a.todense(), np.asarray(b, dtype=float))


def laplacian_1d(n):
    rows, cols, vals = [], [], []
    for i in range(n):
        rows.append(i); cols.append(i); vals.append(2.0)
        if i + 1 < n:
            rows += [i, i + 1]
            cols += [i + 1, i]
            vals += [-1.0, -1.0]
    return CsrPattern(n, rows, cols).assemble(vals)


class TestFromTriplets:
    def test_duplicates_summed(self):
        a = CsrPattern(2, [0, 0], [0, 0]).assemble([1.0, 1.0])
        assert a.todense()[0, 0] == 2.0
        assert a.nnz == 1

    def test_empty_matrix(self):
        a = CsrPattern(3, [], []).assemble([])
        assert np.all(a.matvec(np.ones(3)) == 0)

    def test_random_triplets_match_dense_accumulation(self):
        rng = np.random.default_rng(99)
        n, nnz = 17, 300
        rows = rng.integers(0, n, nnz)
        cols = rng.integers(0, n, nnz)
        vals = rng.standard_normal(nnz)
        dense = np.zeros((n, n))
        np.add.at(dense, (rows, cols), vals)
        a = CsrPattern(n, rows, cols).assemble(vals)
        assert np.allclose(a.todense(), dense, atol=0)
        x = rng.standard_normal(n)
        assert np.allclose(a.matvec(x), dense @ x, atol=1e-13)

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            CsrPattern(2, [2], [0])

    def test_pattern_reuse(self):
        rows = np.array([0, 1, 1, 0])
        cols = np.array([0, 1, 1, 1])
        pattern = CsrPattern(2, rows, cols)
        a = pattern.assemble(np.array([1.0, 2.0, 3.0, 4.0]))
        b = pattern.assemble(np.array([5.0, 6.0, 7.0, 8.0]))
        assert np.allclose(a.todense(), [[1.0, 4.0], [0.0, 5.0]])
        assert np.allclose(b.todense(), [[5.0, 8.0], [0.0, 13.0]])

    def test_submatrix_matches_dense(self):
        rng = np.random.default_rng(5)
        n = 12
        m = rng.standard_normal((n, n))
        m = m + m.T + 10 * np.eye(n)
        rows, cols = np.nonzero(np.abs(m) > 0.7)
        a = CsrPattern(n, rows, cols).assemble(m[rows, cols])
        keep = rng.random(n) > 0.4
        sub = a.submatrix(keep)
        assert np.allclose(sub.todense(), a.todense()[np.ix_(keep, keep)], atol=0)


class TestCg:
    def test_identity(self):
        n = 9
        eye = CsrPattern(n, np.arange(n), np.arange(n)).assemble(np.ones(n))
        b = np.linspace(-1, 2, n)
        x, iterations = cg_solve(eye, b)
        assert np.allclose(x, b, atol=1e-13)
        assert iterations <= 2

    def test_1d_laplacian_against_dense(self):
        a = laplacian_1d(4)
        b = np.ones(4)
        x, _ = cg_solve(a, b)
        assert np.allclose(x, dense_solve(a, b), atol=1e-10)

    def test_q1_stiffness_against_dense(self):
        space = FeSpace(build_quad(8))
        k = assemble_stiffness(space).submatrix(space.interior)
        rng = np.random.default_rng(42)
        b = rng.standard_normal(k.dim)
        x, _ = cg_solve(k, b, CgConfig(tol=1e-13))
        assert np.abs(x - dense_solve(k, b)).max() < 1e-9

    def test_warm_start_reduces_iterations(self):
        a = laplacian_1d(50)
        b = np.ones(50)
        x, cold = cg_solve(a, b)
        _, warm = cg_solve(a, b, x0=x + 1e-10)
        assert warm < cold

    def test_matvec_count(self):
        # one matvec per iteration plus two for the symmetry probe; only a
        # start iterate costs one more, for its residual
        class CountingMatrix(CsrMatrix):
            calls = 0

            def matvec(self, x):
                self.calls += 1
                return super().matvec(x)

        lap = laplacian_1d(40)
        a = CountingMatrix(lap.dim, lap.indptr, lap.indices, lap.values)
        _, iterations = cg_solve(a, np.ones(40))
        assert iterations > 0 and a.calls == iterations + 2
        a.calls = 0
        _, iterations = cg_solve(a, np.ones(40), x0=np.full(40, 0.5))
        assert iterations > 0 and a.calls == iterations + 3

    def test_max_iter_breach_reports_residual(self):
        a = laplacian_1d(64)
        b = np.ones(64)
        with pytest.raises(IterativeSolveError) as err:
            cg_solve(a, b, CgConfig(tol=1e-13, max_iter=2))
        assert err.value.iterations == 2
        assert np.isfinite(err.value.residual) and err.value.residual > 0

    def test_symmetry_check(self):
        a = CsrPattern(3, [0, 1], [1, 2]).assemble([1.0, 3.0])
        with pytest.raises(ValueError):
            cg_solve(a, np.ones(3))

    def test_a_norm_error_monotone(self):
        space = FeSpace(build_tri(6, "boxslash"))
        k = assemble_stiffness(space).submatrix(space.interior)
        rng = np.random.default_rng(17)
        b = rng.standard_normal(k.dim)
        exact = dense_solve(k, b)
        energies = []

        def record(x):
            d = x - exact
            energies.append(float(d @ k.matvec(d)))

        cg_solve(k, b, CgConfig(tol=1e-12), callback=record)
        assert all(e2 <= e1 * (1 + 1e-10) for e1, e2 in zip(energies, energies[1:]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CgConfig(tol=2.0)
        with pytest.raises(ValueError):
            CgConfig(max_iter=0)


class TestSymmetryOfAssemblies:
    @pytest.mark.parametrize("make", [
        lambda: assemble_stiffness(FeSpace(build_quad(6))),
        lambda: assemble_stiffness(FeSpace(build_tri(6, "alternating-kuhn"))),
        lambda: assemble_stiffness(FeSpace(build_tri(4, "unionjack"))),
    ])
    def test_bilinear_symmetry(self, make):
        a = make()
        rng = np.random.default_rng(1)
        for _ in range(4):
            x = rng.standard_normal(a.dim)
            y = rng.standard_normal(a.dim)
            assert x @ a.matvec(y) == pytest.approx(y @ a.matvec(x), abs=1e-12)

    def test_weighted_symmetry(self):
        space = FeSpace(build_quad(5))
        law = GrowthLaw((3.0, 1.5))
        rng = np.random.default_rng(2)
        u = FeFunction(space, rng.standard_normal(space.ndofs))
        kb = assemble_weighted_stiffness(space, u, law)
        x = rng.standard_normal(kb.dim)
        y = rng.standard_normal(kb.dim)
        assert x @ kb.matvec(y) == pytest.approx(y @ kb.matvec(x), abs=1e-12)


def test_dense_solve_size_guard():
    a = CsrPattern(2001, np.arange(2001), np.arange(2001)).assemble(np.ones(2001))
    with pytest.raises(ValueError):
        dense_solve(a, np.ones(2001))
