import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from orthofem.fespace import FeFunction, FeSpace
from orthofem.linalg import (CgConfig, CsrMatrix, CsrPattern,
                             IterativeSolveError, _check_symmetric, cg_solve)
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

    @pytest.mark.parametrize("keep", [np.ones(5, bool), [0, 2, 1], np.ones(3)],
                             ids=["too-long", "index-list", "float"])
    def test_malformed_mask_rejected(self, keep):
        # an index list must not be read as a mask, nor a mask of other length
        with pytest.raises(ValueError, match="boolean mask"):
            laplacian_1d(3).submatrix(keep)


@st.composite
def triplets(draw, symmetric=False):
    """(dim, rows, cols, vals): duplicates and empty rows are likely."""
    dim = draw(st.integers(1, 8))
    index = st.integers(0, dim - 1)
    entries = draw(st.lists(st.tuples(index, index, st.floats(-10, 10)), max_size=30))
    if symmetric:
        entries += [(c, r, v) for r, c, v in entries]
    rows = np.array([e[0] for e in entries], dtype=np.int64)
    cols = np.array([e[1] for e in entries], dtype=np.int64)
    return dim, rows, cols, np.array([e[2] for e in entries], dtype=float)


def dense_oracle(dim, rows, cols, vals):
    dense = np.zeros((dim, dim))
    np.add.at(dense, (rows, cols), vals)
    return dense


def oracle_close(actual, expected, dense):
    scale = np.abs(dense).max(initial=0.0) * max(len(dense), 1)
    np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-13 * (1 + scale))


class TestPaddedLayout:
    """The padded-row layout against a dense accumulation of the triplets."""

    @settings(max_examples=80, deadline=None)
    @given(triplets(), st.data())
    def test_operations_match_dense_oracle(self, case, data):
        dense = dense_oracle(*case)
        a = CsrPattern(*case[:3]).assemble(case[3])
        dim = case[0]
        assert a.nnz == len(set(zip(case[1].tolist(), case[2].tolist())))
        x = np.array(data.draw(st.lists(st.floats(-5, 5), min_size=dim, max_size=dim)))
        oracle_close(a.todense(), dense, dense)
        oracle_close(a.matvec(x), dense @ x, dense * 5)
        oracle_close(a.diagonal(), np.diag(dense), dense)
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=dim, max_size=dim)))
        oracle_close(a.submatrix(keep).todense(), dense[np.ix_(keep, keep)], dense)
        # the block built straight from the triplets; a dropped one goes past the end
        pattern = CsrPattern(*case[:3], keep)
        oracle_close(pattern.assemble(case[3]).todense(), dense[np.ix_(keep, keep)], dense)
        dropped = ~(keep[case[1]] & keep[case[2]])
        assert np.all(pattern.target[dropped] == pattern.cols.size)
        assert np.all(pattern.target[~dropped] < pattern.cols.size)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(triplets(), triplets(symmetric=True)))
    def test_symmetry_check_is_exact(self, case):
        dense = dense_oracle(*case)
        a = CsrPattern(*case[:3]).assemble(case[3])
        if np.abs(dense - dense.T).max() > 1e-10 * np.abs(dense).max():
            with pytest.raises(ValueError):
                _check_symmetric(a)
        else:
            _check_symmetric(a)

    def test_values_are_read_only(self):
        a = laplacian_1d(4)
        with pytest.raises(ValueError):
            a.values[0, 0] = 1.0
        with pytest.raises(ValueError):
            CsrMatrix(a.pattern, np.ones(3))


FAMILIES = [lambda n: build_quad(n)] + [
    lambda n, pattern=pattern: build_tri(n, pattern)
    for pattern in ("boxslash", "alternating-kuhn", "cross", "unionjack")]


class TestAssembledSymmetry:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(FAMILIES), st.integers(2, 6), st.floats(1.1, 6), st.floats(1.1, 6),
           st.integers(0, 2**32 - 1), st.booleans())
    def test_exactly_symmetric_and_perturbation_rejected(self, family, n, p1, p2, seed,
                                                        interior_only):
        space = FeSpace(family(n))
        u = FeFunction(space, np.random.default_rng(seed).standard_normal(space.ndofs))
        law = GrowthLaw((p1, p2))
        for a in (assemble_stiffness(space, interior_only=interior_only),
                  assemble_weighted_stiffness(space, u, law, interior_only=interior_only)):
            _check_symmetric(a)
            rows, cols, _ = a.entries()
            off_diagonal = np.flatnonzero(rows != cols)
            assume(len(off_diagonal) and np.abs(a.values).max() > 0)
            values = np.array(a.values)
            values.flat[a.pattern.slots[off_diagonal[seed % len(off_diagonal)]]] += (
                1e-8 * np.abs(values).max())
            with pytest.raises(ValueError):
                _check_symmetric(CsrMatrix(a.pattern, values))


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

    def test_matvec_count(self):
        # one matvec per iteration (the symmetry check reads the entries)
        class CountingMatrix(CsrMatrix):
            calls = 0

            def matvec(self, x):
                self.calls += 1
                return super().matvec(x)

        lap = laplacian_1d(40)
        a = CountingMatrix(lap.pattern, lap.values)
        _, iterations = cg_solve(a, np.ones(40))
        assert iterations > 0 and a.calls == iterations

    def test_max_iter_breach_reports_residual(self):
        a = laplacian_1d(64)
        b = np.ones(64)
        with pytest.raises(IterativeSolveError) as err:
            cg_solve(a, b, CgConfig(tol=1e-13, max_iter=2))
        assert err.value.iterations == 2
        assert np.isfinite(err.value.residual) and err.value.residual > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rhs_rejected(self, bad):
        # a NaN makes the stopping test rr > tol^2 bb False, so it would
        # pass as convergence after zero iterations
        b = np.ones(8)
        b[3] = bad
        with pytest.raises(ValueError):
            cg_solve(laplacian_1d(8), b)

    def test_symmetry_check(self):
        a = CsrPattern(3, [0, 1], [1, 2]).assemble([1.0, 3.0])
        with pytest.raises(ValueError):
            cg_solve(a, np.ones(3))

    def test_a_norm_error_monotone(self):
        space = FeSpace(build_tri(12, "boxslash"))
        k = assemble_stiffness(space).submatrix(space.interior)
        rng = np.random.default_rng(17)
        b = rng.standard_normal(k.dim)
        exact = dense_solve(k, b)
        # a tighter tolerance runs the same deterministic iteration further,
        # so these iterates are ever longer prefixes of one CG sequence
        counts, energies = [], []
        for tol in 10.0 ** -np.arange(1, 13):
            x, iterations = cg_solve(k, b, CgConfig(tol=tol))
            d = x - exact
            counts.append(iterations)
            energies.append(float(d @ k.matvec(d)))
        assert np.all(np.diff(counts) > 0)  # twelve distinct iterates
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
