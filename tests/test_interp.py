import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orthofem import interp
from orthofem.fespace import (FeFunction, FeSpace, abs_partial_integral,
                              interpolate_nodal)
from orthofem.interp import NODE_BLOCK, AveragedInterpolant, build_dual_table, transfer
from orthofem.mesh import build_quad, build_tri, element_patch, locate, refine_kuhn_half

import oracles
from oracles import integrate

# stability/locality constants measured once by the deterministic sweeps
# below and frozen; the sweeps reproduce them exactly run to run.
STABILITY_FIXTURES = {
    ("simplicial", "P1"): 2.8700069634135135,
    ("simplicial", "Q1"): 2.1475370259179263,
    ("cubic", "Q1"): 1.4051947899053674,
}
LOCALITY_FIXTURES = {
    ("simplicial", "P1"): 6.776183276081389,
    ("cubic", "Q1"): 5.194969853984732,
}


@pytest.fixture(scope="module")
def fine_source():
    return FeSpace(build_quad(16))


def random_fine(space, rng):
    coeffs = np.zeros(space.ndofs)
    coeffs[space.interior_dofs] = rng.standard_normal(len(space.interior_dofs))
    return FeFunction(space, coeffs)


def cell_integrals(u, mesh):
    out = np.empty((mesh.num_cells, 2))
    polys = mesh.nodes[mesh.cells]
    for c in range(mesh.num_cells):
        for i in (0, 1):
            out[c, i] = abs_partial_integral(u, polys[c], i)
    return out


def box_averages_by_scan(w, mesh):
    """Oracle: for each interior node, the exact mean over the source cells
    whose centroid lies in the node's box, found by scanning every cell."""
    source = w.space.mesh
    centroids = source.nodes[source.cells].mean(axis=1)
    integrals = np.abs(source.cell_areas()) * w.coeffs[source.cells].mean(axis=1)
    out = np.zeros(mesh.num_nodes)
    for k1 in range(1, mesh.n):
        for k2 in range(1, mesh.n):
            node = mesh.lattice_ids[k1, k2]
            inside = (np.abs(centroids - mesh.nodes[node]) < mesh.h / 2).all(axis=1)
            out[node] = integrals[inside].sum() / mesh.h ** 2
    return out


class TestBoxAverage:
    def test_constant(self):
        interp = AveragedInterpolant(FeSpace(build_quad(4)))
        assert interp.box_average(lambda x: np.full(len(x), 3.25), (2, 2)) \
            == pytest.approx(3.25, rel=1e-14)

    def test_coordinate_average(self):
        interp = AveragedInterpolant(FeSpace(build_quad(4)))
        assert interp.box_average(lambda x: x[:, 0], (2, 2)) \
            == pytest.approx(0.5, abs=1e-15)

    def test_fine_fe_matches_quadrature_oracle(self, fine_source):
        # oracle: map a degree-3 tensor rule over every fine cell in the box
        rng = np.random.default_rng(0)
        w = random_fine(fine_source, rng)
        target = FeSpace(build_quad(8))
        interp = AveragedInterpolant(target)
        k = (3, 5)
        value = interp.box_average(w, k)
        h = target.mesh.h
        center = np.array([k[0] * h, k[1] * h])
        total = 0.0
        centroids = fine_source.mesh.nodes[fine_source.mesh.cells].mean(axis=1)
        inside = np.flatnonzero(
            (np.abs(centroids - center) < h / 2).all(axis=1))
        for c in inside:
            total += integrate(fine_source, int(c), w.evaluate, 3)
        assert value == pytest.approx(total / h ** 2, abs=1e-13)

    @pytest.mark.parametrize("target_pattern", ["quad", "boxslash"])
    @pytest.mark.parametrize("source_pattern", ["quad", "boxslash", "cross"])
    @pytest.mark.parametrize("factor", [2, 4])
    def test_apply_matches_cell_scan_oracle(self, target_pattern, source_pattern,
                                            factor):
        def space(n, pattern):
            return FeSpace(build_quad(n) if pattern == "quad"
                           else build_tri(n, pattern))

        target = space(6, target_pattern)
        source = space(6 * factor, source_pattern)
        rng = np.random.default_rng(8)
        w = FeFunction(source, rng.standard_normal(source.ndofs))
        got = AveragedInterpolant(target).apply(w).coeffs
        expected = box_averages_by_scan(w, target.mesh)
        scale = np.abs(expected).max()
        assert np.abs(got - expected).max() <= 1e-13 * scale

    def test_non_integer_node_rejected(self, fine_source):
        interp = AveragedInterpolant(FeSpace(build_quad(8)))
        w = random_fine(fine_source, np.random.default_rng(9))
        for k in ((1.5, 2), (2, 2.5)):
            with pytest.raises(ValueError):
                interp.box_average(w, k)
            with pytest.raises(ValueError):
                interp.box_average(lambda x: x[:, 0], k)

    def test_boundary_node_rejected(self):
        interp = AveragedInterpolant(FeSpace(build_quad(4)))
        with pytest.raises(ValueError):
            interp.box_average(lambda x: x[:, 0], (0, 2))

    def test_misaligned_fe_source_rejected(self):
        target = FeSpace(build_quad(4))
        other = FeSpace(build_quad(6))
        w = FeFunction(other, np.zeros(other.ndofs))
        with pytest.raises(ValueError):
            AveragedInterpolant(target).box_average(w, (2, 2))

    def test_non_lattice_target_rejected(self):
        with pytest.raises(ValueError):
            AveragedInterpolant(FeSpace(build_tri(4, "unionjack")))


class TestAveragedInterpolant:
    def test_zero_input(self):
        interp = AveragedInterpolant(FeSpace(build_tri(4, "boxslash")))
        out = interp.apply(lambda x: np.zeros(len(x)))
        assert np.all(out.coeffs == 0)

    def test_positivity(self, fine_source):
        rng = np.random.default_rng(1)
        w = random_fine(fine_source, rng)
        w = FeFunction(fine_source, np.abs(w.coeffs))
        for target in (FeSpace(build_quad(8)), FeSpace(build_tri(8, "boxslash"))):
            out = AveragedInterpolant(target).apply(w)
            assert np.all(out.coeffs >= 0)

    def test_vanishes_on_boundary(self, fine_source):
        rng = np.random.default_rng(2)
        w = random_fine(fine_source, rng)
        target = FeSpace(build_quad(8))
        out = AveragedInterpolant(target).apply(w)
        assert np.all(out.coeffs[target.mesh.boundary] == 0)

    @pytest.mark.parametrize("make_target", [
        lambda: FeSpace(build_quad(8)),
        lambda: FeSpace(build_tri(8, "boxslash")),
    ])
    def test_stability_constant_one(self, make_target, fine_source):
        # per cell and direction: int_T |d_i P w| <= int_{N_T} |d_i w|,
        # both sides integrated exactly (clipping + centroid rule)
        target = make_target()
        mesh = target.mesh
        interp = AveragedInterpolant(target)
        patches = [element_patch(mesh, c) for c in range(mesh.num_cells)]
        rng = np.random.default_rng(3)
        for _ in range(8):
            w = random_fine(fine_source, rng)
            pw = interp.apply(w)
            lhs = cell_integrals(pw, mesh)
            rhs = cell_integrals(w, mesh)
            for c in range(mesh.num_cells):
                for i in (0, 1):
                    assert lhs[c, i] <= rhs[patches[c], i].sum() + 1e-12

    def test_boundary_invariance_for_ramp(self):
        # p(x) = q x1 vanishes on {x1 = 0}; on boundary cells away from
        # the corners the interpolant reproduces it exactly because the
        # averaging boxes never touch the boundary
        target = FeSpace(build_quad(8))
        mesh = target.mesh
        q = 1.7
        out = AveragedInterpolant(target).apply(lambda x: q * x[:, 0])
        for l in range(1, mesh.n - 1):
            cell = l * mesh.n + 0  # cells are ordered row-major by (b, a)
            verts = mesh.nodes[mesh.cells[cell]]
            assert np.allclose(verts[:, 0].min(), 0.0)
            vals = out.coeffs[mesh.cells[cell]]
            assert np.allclose(vals, q * verts[:, 0], atol=1e-13)


# the paper's dual coefficients in units of h^-2: on the simplicial patch by
# node class, keyed by the sorted (|x|, |y|) / h of the node, vertex classes
# first; on each cubic square in the order node, x-neighbor, diagonal, y-neighbor
SIMPLICIAL_DUAL_CLASSES = {
    (0.0, 0.0): 36.0,
    (0.0, 0.5): 6.0,
    (0.5, 0.5): 6.0,
    (0.25, 0.5): 6.0,
    (0.0, 0.25): -1.5,
    (0.25, 0.25): -1.5,
}
CUBIC_DUAL_ROW = [4.0, -2.0, 1.0, -2.0]


class TestDualTables:
    def test_solved_tables_are_the_papers(self):
        for n, bounds in itertools.product((4, 7), ((0.0, 1.0), (-1.0, 1.0))):
            simplicial = build_dual_table("simplicial", build_tri(n, "alternating-kuhn", bounds))
            h = simplicial.mesh.h
            classes = [[SIMPLICIAL_DUAL_CLASSES[tuple(sorted(round(abs(c) / h, 6) for c in node))]
                        for node in piece] for piece in simplicial._family.nodes]
            assert simplicial.table == pytest.approx(np.array(classes) / h ** 2, rel=1e-12)
            cubic = build_dual_table("cubic", build_quad(n, bounds))
            assert cubic.table == pytest.approx(np.tile(CUBIC_DUAL_ROW, (4, 1)) / h ** 2,
                                                rel=1e-12)

    def test_cubic_pairing_is_one_on_h_half(self):
        mesh = build_quad(2)  # h = 1/2
        proj = build_dual_table("cubic", mesh)
        space = FeSpace(mesh)
        hat = FeFunction(space, np.eye(space.ndofs)[mesh.lattice_ids[1, 1]])
        assert proj.pairing(hat, (1, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_kind_mesh_mismatch(self):
        with pytest.raises(ValueError):
            build_dual_table("simplicial", build_quad(4))
        with pytest.raises(ValueError):
            build_dual_table("cubic", build_tri(4, "alternating-kuhn"))
        with pytest.raises(ValueError):
            build_dual_table("simplicial", build_tri(4, "boxslash"))
        with pytest.raises(ValueError):
            build_dual_table("mystery", build_quad(4))


@pytest.fixture(scope="module")
def setup():
    mesh = build_tri(4, "alternating-kuhn")
    quad_mesh = build_quad(4)
    return (build_dual_table("simplicial", mesh), FeSpace(mesh),
            build_dual_table("cubic", quad_mesh), FeSpace(quad_mesh))


class TestDualPairing:
    def test_biorthogonality(self, setup):
        proj, space, projq, spaceq = setup
        pairs = space.mesh.interior_lattice_indices()
        for j in pairs:
            for m in pairs:
                hat = FeFunction(space, np.eye(space.ndofs)[space.mesh.lattice_ids[m]])
                hatq = FeFunction(spaceq, np.eye(spaceq.ndofs)[spaceq.mesh.lattice_ids[m]])
                expected = 1.0 if m == j else 0.0
                assert proj.pairing(hat, j) == pytest.approx(expected, abs=1e-12)
                assert proj.pairing(hatq, j) == pytest.approx(expected, abs=1e-12)
                assert projq.pairing(hatq, j) == pytest.approx(expected, abs=1e-12)

    def test_boundary_pairing_vanishes_by_odd_reflection(self, setup):
        proj, space, projq, spaceq = setup
        rng = np.random.default_rng(4)
        w = FeFunction(spaceq, rng.standard_normal(spaceq.ndofs))
        n = space.mesh.n
        boundary = [(0, 2), (n, 1), (2, 0), (3, n), (0, 0), (n, n)]
        for j in boundary:
            assert abs(proj.pairing(w, j)) < 1e-12
            assert abs(projq.pairing(w, j)) < 1e-12

    def test_out_of_lattice_node_rejected(self, setup):
        proj = setup[0]
        with pytest.raises(ValueError):
            proj.pairing(lambda x: x[:, 0], (9, 1))

    def test_non_integer_node_rejected(self, setup):
        proj, space, projq, spaceq = setup
        w = FeFunction(space, np.arange(space.ndofs, dtype=float))
        for p in (proj, projq):
            for j in ((1.5, 2), (2, 0.5)):
                with pytest.raises(ValueError):
                    p.pairing(w, j)


class TestProjection:
    def test_idempotent_on_target(self):
        mesh = build_tri(4, "alternating-kuhn")
        proj = build_dual_table("simplicial", mesh)
        rng = np.random.default_rng(5)
        for space in (FeSpace(mesh), FeSpace(build_quad(4))):
            coeffs = np.zeros(space.ndofs)
            coeffs[space.interior_dofs] = rng.standard_normal(len(space.interior_dofs))
            v = FeFunction(space, coeffs)
            assert np.abs(proj.apply(v, space).coeffs - v.coeffs).max() < 1e-12

    def test_zero_input(self):
        mesh = build_quad(4)
        proj = build_dual_table("cubic", mesh)
        out = proj.apply(lambda x: np.zeros(len(x)), FeSpace(mesh))
        assert np.abs(out.coeffs).max() < 1e-15

    def test_linearity(self):
        mesh = build_tri(4, "alternating-kuhn")
        proj = build_dual_table("simplicial", mesh)
        space = FeSpace(mesh)
        f = lambda x: np.sin(x[:, 0] * 3)
        g = lambda x: np.cos(x[:, 1] * 2)
        both = proj.apply(lambda x: 2 * f(x) + 3 * g(x), space)
        separate = 2 * proj.apply(f, space).coeffs + 3 * proj.apply(g, space).coeffs
        assert np.allclose(both.coeffs, separate, atol=1e-13)

    def test_cubic_rejects_p1_target(self):
        proj = build_dual_table("cubic", build_quad(4))
        with pytest.raises(ValueError):
            proj.apply(lambda x: x[:, 0], FeSpace(build_tri(4, "boxslash")))

    def test_lattice_mismatch_rejected(self):
        proj = build_dual_table("simplicial", build_tri(4, "alternating-kuhn"))
        with pytest.raises(ValueError):
            proj.apply(lambda x: x[:, 0], FeSpace(build_quad(8)))

    def test_fe_input_on_another_domain_rejected(self):
        # the input lives on (0, 1)^2, the patches cover (-1, 1)^2
        proj = build_dual_table("cubic", build_quad(4, (-1.0, 1.0)))
        source = FeSpace(build_quad(4))
        w = interpolate_nodal(source, lambda x: x[:, 0] ** 2)
        with pytest.raises(ValueError):
            proj.apply(w, FeSpace(build_quad(4, (-1.0, 1.0))))

    @pytest.mark.parametrize("kind,target_kind,seed", [
        ("simplicial", "P1", 101),
        ("simplicial", "Q1", 102),
        ("cubic", "Q1", 103),
    ])
    def test_stability_fixture(self, kind, target_kind, seed, fine_source):
        # dashint_T |d_i P w| <= C dashint_{N_T} |d_i w|; C frozen by this
        # very sweep (seeded), asserted stable across runs
        if target_kind == "P1":
            target = FeSpace(build_tri(8, "alternating-kuhn"))
        else:
            target = FeSpace(build_quad(8))
        base = target.mesh if kind == "cubic" else build_tri(8, "alternating-kuhn")
        proj = build_dual_table(kind, base)
        mesh = target.mesh
        areas = np.abs(mesh.cell_areas())
        patches = [element_patch(mesh, c) for c in range(mesh.num_cells)]
        patch_areas = np.array([areas[p].sum() for p in patches])
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(50):
            w = random_fine(fine_source, rng)
            pw = proj.apply(w, target)
            lhs = cell_integrals(pw, mesh)
            rhs_cells = cell_integrals(w, mesh)
            for c in range(mesh.num_cells):
                for i in (0, 1):
                    rhs = rhs_cells[patches[c], i].sum()
                    if rhs > 1e-13:
                        worst = max(worst,
                                    (lhs[c, i] / areas[c]) / (rhs / patch_areas[c]))
        frozen = STABILITY_FIXTURES[(kind, target_kind)]
        assert worst == pytest.approx(frozen, rel=1e-6)

    @pytest.mark.parametrize("kind,target_kind,seed", [
        ("simplicial", "P1", 104),
        ("cubic", "Q1", 105),
    ])
    def test_sup_locality_fixture(self, kind, target_kind, seed, fine_source):
        # sup_S |P w| <= C dashint_{N_S} |w|
        if target_kind == "P1":
            target = FeSpace(build_tri(8, "alternating-kuhn"))
        else:
            target = FeSpace(build_quad(8))
        proj = build_dual_table(kind, target.mesh if kind == "cubic"
                                else build_tri(8, "alternating-kuhn"))
        mesh = target.mesh
        areas = np.abs(mesh.cell_areas())
        patches = [element_patch(mesh, c) for c in range(mesh.num_cells)]
        owner = locate(mesh, fine_source.mesh.nodes[fine_source.mesh.cells].mean(axis=1))
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(10):
            w = random_fine(fine_source, rng)
            pw = proj.apply(w, target)
            absint = np.zeros(mesh.num_cells)
            for k in range(fine_source.mesh.num_cells):
                absint[owner[k]] += integrate(fine_source, k,
                                              lambda pts: np.abs(w.evaluate(pts)), 3)
            for c in range(mesh.num_cells):
                sup = np.abs(pw.coeffs[mesh.cells[c]]).max()
                denom = absint[patches[c]].sum() / areas[patches[c]].sum()
                if denom > 1e-13:
                    worst = max(worst, sup / denom)
        assert worst == pytest.approx(LOCALITY_FIXTURES[(kind, target_kind)], rel=1e-6)


def _space(n, pattern, bounds=(0.0, 1.0)):
    return FeSpace(build_quad(n, bounds) if pattern == "quad"
                   else build_tri(n, pattern, bounds))


# (dual kind, target pattern): the simplicial dual pairs with Q1 and P1
# targets, the cubic dual with Q1 targets only
PROJECTIONS = [("simplicial", "alternating-kuhn"), ("simplicial", "boxslash"),
               ("simplicial", "quad"), ("cubic", "quad")]


def _projector(kind, n, bounds):
    base = build_quad(n, bounds) if kind == "cubic" else build_tri(n, "alternating-kuhn", bounds)
    return build_dual_table(kind, base)


def _pointwise(proj, w, target):
    """Oracle: the pointwise pairing at every interior node, in node order."""
    kk = np.argwhere(~target.mesh.boundary[target.mesh.lattice_ids])
    coeffs = np.zeros(target.ndofs)
    coeffs[target.mesh.lattice_ids[kk[:, 0], kk[:, 1]]] = proj._pairings(w, kk)
    return coeffs


class TestNestedStencil:
    """``apply`` on nested FE inputs goes through a nodal stencil; the
    pointwise pairings stay the definition it must reproduce."""

    @settings(max_examples=60, deadline=None)
    @given(projection=st.sampled_from(PROJECTIONS),
           pattern=st.sampled_from(["quad", "boxslash", "alternating-kuhn"]),
           n=st.integers(2, 8), r=st.integers(1, 3),
           bounds=st.sampled_from([(0.0, 1.0), (-1.0, 1.0)]),
           scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2 ** 16))
    def test_agrees_with_pointwise_pairings(self, projection, pattern, n, r, bounds,
                                            scale, seed):
        kind, target_pattern = projection
        source = _space(r * n, pattern, bounds)
        target = _space(n, target_pattern, bounds)
        w = FeFunction(source, scale * np.random.default_rng(seed).standard_normal(
            source.ndofs))
        proj = _projector(kind, n, bounds)
        got = proj.apply(w, target).coeffs
        expected = _pointwise(proj, w, target)
        assert np.abs(got - expected).max() <= 1e-12 * max(1.0, np.abs(w.coeffs).max())

    @pytest.mark.parametrize("kind,target_pattern", PROJECTIONS)
    @pytest.mark.parametrize("pattern,source_n,bounds", [
        ("cross", 8, (0.0, 1.0)), ("unionjack", 4, (0.0, 1.0)), ("quad", 6, (0.0, 1.0)),
        ("alternating-kuhn", 10, (0.0, 1.0)), ("quad", 8, (-1.0, 1.0)),
        ("half-kuhn", 8, (0.0, 1.0))])
    def test_other_inputs_stay_pointwise(self, kind, target_pattern, pattern, source_n,
                                         bounds):
        # non-lattice meshes, the half-refinement child among them, lattices
        # that do not refine n = 4 and inputs on a larger square stay on the
        # pointwise path, bit for bit
        source = (FeSpace(refine_kuhn_half(build_tri(source_n // 2, "alternating-kuhn")).child)
                  if pattern == "half-kuhn" else _space(source_n, pattern, bounds))
        target = _space(4, target_pattern)
        w = FeFunction(source, np.random.default_rng(10).standard_normal(source.ndofs))
        proj = _projector(kind, 4, (0.0, 1.0))
        assert np.array_equal(proj.apply(w, target).coeffs, _pointwise(proj, w, target))

    @pytest.mark.parametrize("kind,target_pattern", PROJECTIONS)
    def test_evaluated_points_do_not_grow_with_n(self, kind, target_pattern,
                                                 monkeypatch):
        # every evaluation of the input's shape functions, through
        # FeFunction.evaluate or not, goes through point_shapes
        counted = []
        point_shapes = FeSpace.point_shapes

        def counting(self, points):
            counted.append(len(points))
            return point_shapes(self, points)

        monkeypatch.setattr(FeSpace, "point_shapes", counting)
        totals = []
        for n in (8, 32):
            source = _space(2 * n, "quad")
            w = FeFunction(source, np.ones(source.ndofs))
            counted.clear()
            _projector(kind, n, (0.0, 1.0)).apply(w, _space(n, target_pattern))
            totals.append(sum(counted))
        assert totals[0] == totals[1]


class TestBlockedEvaluation:
    """Callable inputs are evaluated NODE_BLOCK nodes at a time."""

    @staticmethod
    def _wave(x):
        return np.sin(1.0 + 5.0 * x[:, 0]) * np.cos(0.3 + 7.0 * x[:, 1])

    @staticmethod
    def _at_once(f, space, offsets, weights):
        """Per interior lattice node (k1, k2) of the space, the weighted sum of
        f at its offsets, from one evaluation at all points; indexed like
        ``space.mesh.lattice_ids[1:n, 1:n]``."""
        mesh = space.mesh
        kk = np.stack(np.nonzero(~mesh.boundary[mesh.lattice_ids]), axis=1)
        points = (mesh.bounds[0] + mesh.h * kk)[:, None, :] + offsets
        values = f(points.reshape(-1, 2)).reshape(len(kk), -1) @ weights
        return values.reshape(mesh.n - 1, mesh.n - 1)

    @pytest.mark.parametrize("pattern", ["quad", "boxslash"])
    def test_averaged_interpolant_agrees_with_one_evaluation(self, pattern):
        space = _space(40, pattern, (-1.0, 1.0))
        assert (space.mesh.n - 1) ** 2 > 2 * NODE_BLOCK
        op = AveragedInterpolant(space)
        expected = self._at_once(self._wave, space, op._box_points, op._box_weights)
        got = op.apply(self._wave).coeffs[space.mesh.lattice_ids[1:40, 1:40]]
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()

    @pytest.mark.parametrize("kind,target_pattern", PROJECTIONS)
    def test_projection_agrees_with_one_evaluation(self, kind, target_pattern):
        space = _space(40, target_pattern, (-1.0, 1.0))
        assert (space.mesh.n - 1) ** 2 > 2 * NODE_BLOCK
        proj = _projector(kind, 40, (-1.0, 1.0))
        # interior dual supports stay in the domain: no reflection
        expected = self._at_once(self._wave, space, *proj._rules["callable"])
        got = proj.apply(self._wave, space).coeffs[space.mesh.lattice_ids[1:40, 1:40]]
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_cubic_projection_of_a_callable_stays_small(self):
        space = FeSpace(build_quad(64))
        u = random_fine(space, np.random.default_rng(12))
        proj = build_dual_table("cubic", space.mesh)
        tracemalloc.start()
        try:
            out = proj.apply(u.evaluate, space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.abs(out.coeffs - u.coeffs).max() < 1e-12
        assert peak < 20e6


def _wave_of(a, b, c, d):
    return lambda x: np.sin(a + b * x[:, 0]) * np.cos(c + d * x[:, 1])


def _node_subset(n, rng):
    """A shuffled subset of the lattice nodes [0, n]^2, boundary nodes included."""
    nodes = np.array(list(itertools.product(range(n + 1), repeat=2)))
    boundary = np.flatnonzero((nodes == 0).any(axis=1) | (nodes == n).any(axis=1))
    chosen = rng.choice(len(nodes), rng.integers(1, len(nodes) + 1), replace=False)
    chosen = np.union1d(chosen, rng.choice(boundary, 1))
    return nodes[rng.permutation(chosen)]


class TestLatticeEvaluation:
    """The pointwise pairings evaluate each distinct point v(j) + r once; the
    rules ``_rules`` and ``_box_points``/``_box_weights`` stay the definition."""

    @staticmethod
    def _reference(f, mesh, kk, offsets, weights, reflect):
        """Per node, the rule's sum from one evaluation at v(k) + offsets."""
        ev = interp._odd_reflection(f, mesh.bounds) if reflect else f
        points = (mesh.bounds[0] + mesh.h * kk)[:, None, :] + offsets
        return ev(points.reshape(-1, 2)).reshape(len(kk), -1) @ weights

    @settings(max_examples=60, deadline=None)
    @given(operator=st.sampled_from(["simplicial", "cubic", "averaged"]),
           n=st.integers(2, 40), bounds=st.sampled_from([(0.0, 1.0), (-1.0, 1.0)]),
           wave=st.tuples(st.floats(-3.0, 3.0), st.floats(-20.0, 20.0),
                          st.floats(-3.0, 3.0), st.floats(-20.0, 20.0)),
           seed=st.integers(0, 2 ** 16))
    def test_agrees_with_one_evaluation(self, operator, n, bounds, wave, seed):
        f = _wave_of(*wave)
        kk = _node_subset(n, np.random.default_rng(seed))
        if operator == "averaged":
            # the box is not reflected: a boundary node's box leaves the domain
            op = AveragedInterpolant(_space(n, "quad", bounds))
            got = op._averages(f, kk)
            offsets, weights = op._box_points, op._box_weights
            expected = self._reference(f, op.space.mesh, kk, offsets, weights, reflect=False)
        else:
            proj = _projector(operator, n, bounds)
            got = proj._pairings(f, kk)
            offsets, weights = proj._rules["callable"]
            expected = self._reference(f, proj.mesh, kk, offsets, weights, reflect=True)
        # |f| <= 1, so the weights' absolute sum bounds every pairing
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(weights).sum()

    @pytest.mark.parametrize("n", [2, 5, 40])
    @pytest.mark.parametrize("bounds", [(0.0, 1.0), (-1.0, 1.0)])
    def test_evaluation_counts(self, n, bounds):
        f, counted = _wave_of(0.3, 5.0, 1.0, 7.0), []

        def counting(points):
            counted.append(len(points))
            return f(points)

        _projector("cubic", n, bounds).apply(counting, _space(n, "quad", bounds))
        # 16 residues of the degree-6 square rule at the n^2 nodes [0, n)^2,
        # against 4 squares of 16 points at each of the (n - 1)^2 nodes
        assert sum(counted) <= 16 * n ** 2
        counted.clear()
        # the Kuhn patches and the boxes tile the domain: one shift per residue
        _projector("simplicial", n, bounds).apply(counting, _space(n, "alternating-kuhn", bounds))
        assert sum(counted) == 128 * (n - 1) ** 2
        counted.clear()
        AveragedInterpolant(_space(n, "quad", bounds)).apply(counting)
        assert sum(counted) == 64 * (n - 1) ** 2

    @pytest.mark.parametrize("kind", ["simplicial", "cubic"])
    @pytest.mark.parametrize("fe", [False, True])
    def test_shuffled_nodes_match_single_pairings(self, kind, fe):
        n = 6
        proj = _projector(kind, n, (-1.0, 1.0))
        rng = np.random.default_rng(13)
        if fe:  # a non-lattice source: the pointwise path with the FE rule
            source = _space(4, "cross", (-1.0, 1.0))
            w = FeFunction(source, rng.standard_normal(source.ndofs))
        else:
            w = _wave_of(0.5, 4.0, -1.0, 6.0)
        kk = rng.permutation(np.array(list(itertools.product(range(n + 1), repeat=2))))
        got = proj._pairings(w, kk)
        single = np.array([proj.pairing(w, k) for k in kk])
        assert np.abs(got - single).max() <= 1e-14 * np.abs(single).max()


    @settings(max_examples=60, deadline=None)
    @given(operator=st.sampled_from(["simplicial", "cubic", "averaged"]),
           n=st.integers(2, 40), bounds=st.sampled_from([(0.0, 1.0), (-1.0, 1.0)]),
           seed=st.integers(0, 2 ** 16))
    def test_points_are_the_row_major_sums(self, operator, n, bounds, seed):
        # a callable receives, block by block and in order, the sums v(j) + r
        # built row-major from the reached nodes j and the group's residues r,
        # reflected once across each face they leave for the dual projectors;
        # only the layout differs: the arrays are in Fortran order
        kk = _node_subset(n, np.random.default_rng(seed))
        received = []

        def recording(x):
            received.append(x.copy(order="K"))
            return np.sin(x[:, 0]) * np.cos(x[:, 1])

        if operator == "averaged":
            op = AveragedInterpolant(_space(n, "quad", bounds))
            op._averages(recording, kk)
            mesh, rule, reflect = op.space.mesh, op._box_rule, False
        else:
            proj = _projector(operator, n, bounds)
            proj._pairings(recording, kk)
            mesh, rule, reflect = proj.mesh, proj._lattice_rules["callable"], True
        lo, hi = bounds
        expected = []
        for shifts, residues, _ in rule:
            reached = np.unique((kk[:, None, :] + shifts).reshape(-1, 2), axis=0)
            corners = lo + mesh.h * reached
            for start in range(0, len(corners), NODE_BLOCK):
                points = (corners[start:start + NODE_BLOCK, None] + residues).reshape(-1, 2)
                if reflect:
                    points = np.where(points < lo, 2 * lo - points,
                                      np.where(points > hi, 2 * hi - points, points))
                expected.append(points)
        assert len(received) == len(expected)
        for got, want in zip(received, expected):
            assert got.shape == want.shape and got.flags.f_contiguous
            assert np.array_equal(got, want)


# per bad result, the message its ValueError matches
BAD_RESULTS = {
    "nan": (lambda x: np.full(len(x), np.nan), "not finite"),
    "nan scalar": (lambda x: np.nan, "not finite"),
    "inf": (lambda x: np.where(x[:, 0] == x[:, 0].max(), np.inf, 1.0), "not finite"),
    "too short": (lambda x: x[1:, 0], "expected a scalar or one value per point"),
    "pairs": (lambda x: x.copy(), "expected a scalar or one value per point"),
}


class TestCallableResults:
    """A callable's result is checked before it enters the coefficients."""

    @staticmethod
    def _calls(n=6):
        quad = _space(n, "quad")
        kuhn = _space(n, "alternating-kuhn")
        averaged = AveragedInterpolant(quad)
        simplicial = _projector("simplicial", n, (0.0, 1.0))
        cubic = _projector("cubic", n, (0.0, 1.0))
        return {
            "averaged apply": averaged.apply,
            "box average": lambda f: averaged.box_average(f, (2, 3)),
            "simplicial apply": lambda f: simplicial.apply(f, kuhn),
            "cubic apply": lambda f: cubic.apply(f, quad),
            "simplicial pairing": lambda f: simplicial.pairing(f, (0, 2)),
            "cubic pairing": lambda f: cubic.pairing(f, (3, 3)),
        }

    @pytest.mark.parametrize("bad", list(BAD_RESULTS))
    def test_bad_result_rejected(self, bad):
        field, message = BAD_RESULTS[bad]
        for name, call in self._calls().items():
            with pytest.raises(ValueError, match=message):
                call(field)

    def test_scalar_and_per_point_results_accepted(self):
        for call in self._calls().values():
            assert call(lambda x: 0.0) is not None
            assert call(lambda x: np.ones(len(x))) is not None


class TestTransfer:
    def test_nodal_copy(self):
        src = FeSpace(build_quad(4))
        dst = FeSpace(build_tri(4, "boxslash"))
        v = interpolate_nodal(src, lambda x: x[:, 0] * x[:, 1])
        out = transfer(v, dst)
        for k1 in range(5):
            for k2 in range(5):
                assert out.coeffs[dst.mesh.lattice_ids[k1, k2]] \
                    == v.coeffs[src.mesh.lattice_ids[k1, k2]]

    def test_round_trip_identity(self):
        src = FeSpace(build_quad(4))
        dst = FeSpace(build_tri(4, "alternating-kuhn"))
        rng = np.random.default_rng(6)
        v = FeFunction(src, rng.standard_normal(src.ndofs))
        back = transfer(transfer(v, dst), src)
        assert np.array_equal(back.coeffs, v.coeffs)

    def test_commutation_with_projection(self):
        # P-projection equals transfer of the Q-projection
        mesh = build_tri(4, "alternating-kuhn")
        proj = build_dual_table("simplicial", mesh)
        space_p = FeSpace(mesh)
        space_q = FeSpace(build_quad(4))
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b, c, d = rng.standard_normal(4)
            w = lambda x: np.sin(a + 2 * b * x[:, 0]) * np.cos(c + 2 * d * x[:, 1])
            lhs = proj.apply(w, space_p).coeffs
            rhs = transfer(proj.apply(w, space_q), space_p).coeffs
            assert np.abs(lhs - rhs).max() < 1e-11

    def test_mismatched_lattice_rejected(self):
        v = FeFunction(FeSpace(build_quad(4)), np.zeros(25))
        with pytest.raises(ValueError):
            transfer(v, FeSpace(build_tri(8, "boxslash")))

    @pytest.mark.parametrize("pattern", ["unionjack", "cross"])
    def test_non_lattice_space_rejected(self, pattern):
        lattice = FeSpace(build_quad(4))
        other = FeSpace(build_tri(4, pattern))
        with pytest.raises(ValueError):
            transfer(FeFunction(other, np.zeros(other.ndofs)), lattice)
        with pytest.raises(ValueError):
            transfer(FeFunction(lattice, np.zeros(lattice.ndofs)), other)


class TestDegenerateKernelEquivalence:
    def test_zero_and_nonzero_cases(self):
        # d_k of the Q projection vanishes on a cell exactly when d_k of
        # the P projection vanishes on both triangles of that cell
        mesh = build_tri(6, "alternating-kuhn")
        proj = build_dual_table("simplicial", mesh)
        space_p = FeSpace(mesh)
        p1_grads = oracles.p1_basis_grads(mesh)
        space_q = FeSpace(build_quad(6))
        inputs = [
            lambda x: np.sin(3 * x[:, 1]) + 0 * x[:, 0],          # d1-degenerate
            lambda x: np.cos(2.2 * x[:, 0]) + 0 * x[:, 1],        # d2-degenerate
            lambda x: np.sin(2 * x[:, 0] + 1) * np.cos(3 * x[:, 1]),
        ]
        saw_zero = saw_nonzero = False
        for w in inputs:
            pq = proj.apply(w, space_q)
            pp = proj.apply(w, space_p)
            mesh_q = space_q.mesh
            tri_cells = mesh.cells
            for c in range(mesh_q.num_cells):
                quad_nodes = mesh_q.cells[c]
                tris = locate(mesh, mesh_q.nodes[quad_nodes].mean(axis=0)[None, :])
                pair = (2 * c, 2 * c + 1)
                for k in (0, 1):
                    gq = pq.gradients_on_rule(2)[c, :, k]
                    q_zero = np.abs(gq).max() < 1e-10
                    p_zero = all(
                        abs(float(np.einsum("a,a->", pp.coeffs[tri_cells[t]],
                                            p1_grads[t, :, k]))) < 1e-10
                        for t in pair)
                    assert q_zero == p_zero
                    saw_zero |= q_zero
                    saw_nonzero |= not q_zero
        assert saw_zero and saw_nonzero
