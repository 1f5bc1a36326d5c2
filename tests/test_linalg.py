import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from orthofem.fespace import FeFunction, FeSpace
from orthofem.linalg import (CgConfig, CsrMatrix, CsrPattern, IterativeSolveError,
                             _check_symmetric, _node_mask, cg_solve)
from orthofem.mesh import build_quad, build_tri, refine_kuhn_half
from orthofem.nfunc import GrowthLaw
from orthofem.solver import _assembler, assemble_stiffness, assemble_weighted_stiffness

from oracles import TripletPattern, cell_pattern, jacobi


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
    return TripletPattern(n, rows, cols).assemble(vals)


class TestFromTriplets:
    def test_duplicates_summed(self):
        a = TripletPattern(2, [0, 0], [0, 0]).assemble([1.0, 1.0])
        assert a.todense()[0, 0] == 2.0
        assert a.nnz == 1

    def test_empty_matrix(self):
        a = TripletPattern(3, [], []).assemble([])
        assert np.all(a.matvec(np.ones(3)) == 0)

    def test_random_triplets_match_dense_accumulation(self):
        rng = np.random.default_rng(99)
        n, nnz = 17, 300
        rows = rng.integers(0, n, nnz)
        cols = rng.integers(0, n, nnz)
        vals = rng.standard_normal(nnz)
        dense = np.zeros((n, n))
        np.add.at(dense, (rows, cols), vals)
        a = TripletPattern(n, rows, cols).assemble(vals)
        assert np.allclose(a.todense(), dense, atol=0)
        x = rng.standard_normal(n)
        assert np.allclose(a.matvec(x), dense @ x, atol=1e-13)

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            TripletPattern(2, [2], [0])

    def test_pattern_reuse(self):
        rows = np.array([0, 1, 1, 0])
        cols = np.array([0, 1, 1, 1])
        pattern = TripletPattern(2, rows, cols)
        a = pattern.assemble(np.array([1.0, 2.0, 3.0, 4.0]))
        b = pattern.assemble(np.array([5.0, 6.0, 7.0, 8.0]))
        assert np.allclose(a.todense(), [[1.0, 4.0], [0.0, 5.0]])
        assert np.allclose(b.todense(), [[5.0, 8.0], [0.0, 13.0]])
        for wrong in (np.ones(3), np.ones(5)):  # one value per triplet
            with pytest.raises(ValueError, match="do not match the pattern"):
                pattern.assemble(wrong)

    def test_submatrix_matches_dense(self):
        rng = np.random.default_rng(5)
        n = 12
        m = rng.standard_normal((n, n))
        m = m + m.T + 10 * np.eye(n)
        rows, cols = np.nonzero(np.abs(m) > 0.7)
        a = TripletPattern(n, rows, cols).assemble(m[rows, cols])
        keep = rng.random(n) > 0.4
        sub = a.submatrix(keep)
        assert np.allclose(sub.todense(), a.todense()[np.ix_(keep, keep)], atol=0)

    @pytest.mark.parametrize("keep", [np.ones(5, bool), [0, 2, 1], np.ones(3)],
                             ids=["too-long", "index-list", "float"])
    def test_malformed_mask_rejected(self, keep):
        # an index list must not be read as a mask, nor a mask of other length
        with pytest.raises(ValueError, match="boolean mask"):
            laplacian_1d(3).submatrix(keep)

    def test_triplet_mask_must_be_boolean(self):
        # an index list must not be read as a mask of the triplets either
        with pytest.raises(ValueError, match="boolean mask"):
            TripletPattern(3, [0, 1, 2], [0, 1, 2], where=[0, 2])

    def test_broadcast_triplets(self):
        # the cells' index pairs, broadcast, are the repeated and tiled triplets
        cells = np.array([[0, 1, 3], [1, 2, 3]])
        broadcast = TripletPattern(4, cells[:, :, None], cells[:, None, :])
        flat = TripletPattern(4, np.repeat(cells, 3, axis=1), np.tile(cells, (1, 3)))
        for name in ("cols", "slots", "diag", "transpose", "target"):
            assert np.array_equal(getattr(broadcast, name), getattr(flat, name))


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
        a = TripletPattern(*case[:3]).assemble(case[3])
        dim = case[0]
        assert a.nnz == len(set(zip(case[1].tolist(), case[2].tolist())))
        x = np.array(data.draw(st.lists(st.floats(-5, 5), min_size=dim, max_size=dim)))
        oracle_close(a.todense(), dense, dense)
        oracle_close(a.matvec(x), dense @ x, dense * 5)
        oracle_close(a.diagonal(), np.diag(dense), dense)
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=dim, max_size=dim)))
        oracle_close(a.submatrix(keep).todense(), dense[np.ix_(keep, keep)], dense)
        # the block built straight from the triplets, less those masked by
        # where; a dropped one goes past the end
        where = np.array(data.draw(st.lists(st.booleans(), min_size=len(case[1]),
                                            max_size=len(case[1]))), dtype=bool)
        pattern = TripletPattern(*case[:3], keep, where)
        kept = dense_oracle(dim, case[1][where], case[2][where], case[3][where])
        oracle_close(pattern.assemble(case[3]).todense(), kept[np.ix_(keep, keep)], dense)
        dropped = ~(keep[case[1]] & keep[case[2]] & where)
        assert np.all(pattern.target[dropped] == pattern.cols.size)
        assert np.all(pattern.target[~dropped] < pattern.cols.size)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(triplets(), triplets(symmetric=True)))
    def test_symmetry_check_is_exact(self, case):
        dense = dense_oracle(*case)
        a = TripletPattern(*case[:3]).assemble(case[3])
        if np.abs(dense - dense.T).max() > 1e-10 * np.abs(dense).max():
            with pytest.raises(ValueError):
                _check_symmetric(a)
        else:
            _check_symmetric(a)

    @settings(max_examples=40, deadline=None)
    @given(triplets(), st.data())
    def test_submatrix_target_takes_the_entries(self, case, data):
        # the sliced pattern assembles the parent's entries, row by row, into
        # the submatrix itself
        a = TripletPattern(*case[:3]).assemble(case[3])
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=case[0],
                                           max_size=case[0])), dtype=bool)
        sub = a.submatrix(keep)
        assert np.array_equal(sub.pattern.assemble(a.entries()[2]).values, sub.values)

    def test_matvec_rejects_a_vector_of_another_length(self):
        # a longer x would be read up to the matrix's columns and its tail
        # dropped without a word
        a = laplacian_1d(9)
        for x in (np.ones(12), np.ones(8), np.ones((9, 1)), 1.0):
            with pytest.raises(ValueError, match=r"x must have shape \(9,\)"):
                a.matvec(x)

    def test_values_are_read_only(self):
        a = laplacian_1d(4)
        with pytest.raises(ValueError):
            a.values[0, 0] = 1.0
        with pytest.raises(ValueError):
            CsrMatrix(a.pattern, np.ones(3))


FAMILIES = [lambda n: build_quad(n)] + [
    lambda n, pattern=pattern: build_tri(n, pattern)
    for pattern in ("boxslash", "alternating-kuhn", "cross", "unionjack")]


def template_mesh(family, n, bounds):
    """A mesh of one of the five families, or the half-refinement child."""
    if family == "quad":
        return build_quad(n, bounds)
    if family == "half-kuhn":
        return refine_kuhn_half(build_tri(n, "alternating-kuhn", bounds)).child
    return build_tri(n, family, bounds)


TEMPLATE_CASES = (
    st.sampled_from(["quad", "boxslash", "alternating-kuhn", "unionjack", "cross", "half-kuhn"]),
    st.integers(2, 40), st.sampled_from([(0.0, 1.0), (-1.0, 1.0)]),
    st.sampled_from(["all", "interior", "random"]), st.integers(0, 2 ** 32 - 1))


def template_case(family, n, bounds, nodes, seed):
    """A space, its coupled table, a kept-node mask and a seeded generator."""
    space = FeSpace(template_mesh(family, n, bounds))
    rng = np.random.default_rng(seed)
    keep = {"all": None, "interior": space.interior,
            "random": rng.random(space.ndofs) < 0.8}[nodes]
    return space, _assembler(space).coupled, keep, rng


def cell_values(space, coupled, rng):
    """Random triplet values, symmetric in each cell."""
    vals = rng.standard_normal((space.mesh.num_cells,) + coupled.shape[2:])
    return vals + vals.swapaxes(1, 2)


class TestTemplatePattern:
    """The pattern read off the mesh template against the sort-based
    oracle, which takes every pair of every cell as a triplet and lays the
    entries out first in each row: the same matrix in another layout."""

    @settings(max_examples=60, deadline=None)
    @given(*TEMPLATE_CASES)
    def test_matches_the_sort_build(self, family, n, bounds, nodes, seed):
        space, coupled, keep, rng = template_case(family, n, bounds, nodes, seed)
        pattern = CsrPattern(space.mesh, coupled, keep)
        vals = cell_values(space, coupled, rng)
        a, b = pattern.assemble(vals), cell_pattern(space, coupled, keep).assemble(vals)
        assert a.dim == b.dim and a.nnz == b.nnz
        assert all(np.array_equal(x, y) for x, y in zip(a.entries(), b.entries()))
        assert np.array_equal(a.diagonal(), b.diagonal())
        if a.dim <= 2000:
            assert np.array_equal(a.todense(), b.todense())
        x = rng.standard_normal(a.dim)
        assert a.matvec(x).tobytes() == b.matvec(x).tobytes()
        _check_symmetric(a)
        rows, cols, _ = a.entries()
        off_diagonal = np.flatnonzero(rows != cols)
        assume(len(off_diagonal))
        values = np.array(a.values)
        values.flat[a.pattern.slots[off_diagonal[seed % len(off_diagonal)]]] += (
            1e-8 * np.abs(values).max())
        with pytest.raises(ValueError):
            _check_symmetric(CsrMatrix(a.pattern, values))
        # and the block of a kept-node mask, sliced from the matrix of all nodes
        if keep is not None:
            sub = CsrPattern(space.mesh, coupled).assemble(vals).submatrix(keep)
            for name in ("cols", "slots", "diag", "transpose"):
                assert np.array_equal(getattr(sub.pattern, name), getattr(pattern, name))
            assert np.array_equal(sub.values, a.values)

    @settings(max_examples=60, deadline=None)
    @given(*TEMPLATE_CASES)
    def test_a_rows_slots_are_its_node_classs(self, family, n, bounds, nodes, seed):
        # slot s of every row of one class, j mod 4 on the half lattice,
        # points at the neighbour of one offset or at the row itself, the
        # diagonal slot at offset 0, and a self-pointing slot holds zero
        space, coupled, keep, rng = template_case(family, n, bounds, nodes, seed)
        pattern = CsrPattern(space.mesh, coupled, keep)
        j = space.mesh.half_lattice()[_node_mask(keep, space.ndofs)]
        node_class = (j[:, 0] % 4) * 4 + j[:, 1] % 4
        rows = np.arange(pattern.dim)
        step = j[pattern.cols] - j  # (width, dim, 2)
        to_self = pattern.cols == rows
        for c in np.unique(node_class):
            in_class = node_class == c
            for s in range(len(pattern.cols)):
                assert len(np.unique(step[s, in_class & ~to_self[s]], axis=0)) <= 1
            assert len(np.unique(pattern.diag[in_class] // pattern.dim)) == 1
        assert np.array_equal(pattern.diag % max(pattern.dim, 1), rows)
        assert np.all(to_self.flat[pattern.diag])
        unused = to_self.copy()
        unused.flat[pattern.diag] = False
        a = pattern.assemble(cell_values(space, coupled, rng))
        assert np.all(a.values[unused] == 0.0)
        assert not np.any(unused.flat[pattern.slots])

    def test_coupled_must_be_a_symmetric_table_with_its_diagonal(self):
        space = FeSpace(build_tri(3, "boxslash"))
        coupled = _assembler(space).coupled
        lower = np.tril(np.ones(coupled.shape[2:], dtype=bool))
        off_diagonal = ~np.eye(coupled.shape[2], dtype=bool)
        for bad in (coupled[:, :1], coupled.astype(int), coupled & lower, coupled & off_diagonal):
            with pytest.raises(ValueError, match="symmetric boolean table"):
                CsrPattern(space.mesh, bad)


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
        eye = TripletPattern(n, np.arange(n), np.arange(n)).assemble(np.ones(n))
        b = np.linspace(-1, 2, n)
        x, iterations = cg_solve(eye, b, None, jacobi(eye))
        assert np.allclose(x, b, atol=1e-13)
        assert iterations <= 2

    def test_1d_laplacian_against_dense(self):
        a = laplacian_1d(4)
        b = np.ones(4)
        x, _ = cg_solve(a, b, None, jacobi(a))
        assert np.allclose(x, dense_solve(a, b), atol=1e-10)

    def test_q1_stiffness_against_dense(self):
        space = FeSpace(build_quad(8))
        k = assemble_stiffness(space).submatrix(space.interior)
        rng = np.random.default_rng(42)
        b = rng.standard_normal(k.dim)
        x, _ = cg_solve(k, b, CgConfig(tol=1e-13), jacobi(k))
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
        _, iterations = cg_solve(a, np.ones(40), None, jacobi(a))
        assert iterations > 0 and a.calls == iterations

    def test_preconditioner(self):
        # Jacobi as a division gives the bits of the oracle's product with the
        # inverse diagonal, a power of two here; the exact inverse converges in
        # one iteration, each iteration applying the preconditioner once
        space = FeSpace(build_tri(12, "boxslash"))
        k = assemble_stiffness(space).submatrix(space.interior)
        b = np.random.default_rng(5).standard_normal(k.dim)
        divided = cg_solve(k, b, CgConfig(tol=1e-10), lambda r: r / k.diagonal())
        x, iterations = cg_solve(k, b, CgConfig(tol=1e-10), jacobi(k))
        assert np.array_equal(divided[0], x) and divided[1] == iterations
        inverse, applied = np.linalg.inv(k.todense()), []

        def exact(r):
            applied.append(r)
            return inverse @ r

        x, iterations = cg_solve(k, b, CgConfig(tol=1e-10), exact)
        assert iterations == 1 and len(applied) == 2
        assert np.abs(x - dense_solve(k, b)).max() < 1e-10

    def test_max_iter_breach_reports_residual(self):
        a = laplacian_1d(64)
        b = np.ones(64)
        with pytest.raises(IterativeSolveError) as err:
            cg_solve(a, b, CgConfig(tol=1e-13, max_iter=2), jacobi(a))
        assert err.value.iterations == 2
        assert np.isfinite(err.value.residual) and err.value.residual > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rhs_rejected(self, bad):
        # a NaN makes the stopping test rr > tol^2 bb False, so it would
        # pass as convergence after zero iterations
        b = np.ones(8)
        b[3] = bad
        a = laplacian_1d(8)
        with pytest.raises(ValueError):
            cg_solve(a, b, None, jacobi(a))

    def test_rhs_of_another_length_rejected(self):
        a = laplacian_1d(8)
        for b in (np.ones(9), np.ones(7), np.ones((8, 1))):
            with pytest.raises(ValueError, match=r"b must have shape \(8,\)"):
                cg_solve(a, b, None, jacobi(a))

    def test_symmetry_check(self):
        a = TripletPattern(3, [0, 1], [1, 2]).assemble([1.0, 3.0])
        with pytest.raises(ValueError):
            cg_solve(a, np.ones(3), None, np.copy)

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
            x, iterations = cg_solve(k, b, CgConfig(tol=tol), jacobi(k))
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

    @pytest.mark.parametrize("max_iter", [2.5, 3.0, "3", float("nan")])
    def test_max_iter_must_be_an_integer(self, max_iter):
        # cg_solve would compare its count with 2.5 and quietly stop at 3
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            CgConfig(max_iter=max_iter)
        assert CgConfig(max_iter=np.int64(3)).max_iter == 3


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
    a = TripletPattern(2001, np.arange(2001), np.arange(2001)).assemble(np.ones(2001))
    with pytest.raises(ValueError):
        dense_solve(a, np.ones(2001))


def test_symmetry_check_holds_one_values_sized_buffer():
    a = laplacian_1d(50_000)
    tracemalloc.start()
    try:
        _check_symmetric(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * a.values.nbytes
