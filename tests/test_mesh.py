import numpy as np
import pytest

from orthofem.mesh import (HalfRefinement, build_quad, build_tri,
                           element_patch, refine_kuhn_half)

QUAD2_DUMP = (
    "n 0 0 1\nn 0.5 0 1\nn 1 0 1\nn 0 0.5 1\nn 0.5 0.5 0\nn 1 0.5 1\n"
    "n 0 1 1\nn 0.5 1 1\nn 1 1 1\n"
    "c 0 1 4 3\nc 1 2 5 4\nc 3 4 7 6\nc 4 5 8 7\n"
)


def dump(mesh):
    """Plain-text mesh dump: node lines 'n x y b', cell lines 'c i j k [l]'."""
    lines = []
    for (x, y), b in zip(mesh.nodes, mesh.boundary):
        lines.append(f"n {x:.17g} {y:.17g} {int(b)}")
    for cell in mesh.cells:
        lines.append("c " + " ".join(str(int(v)) for v in cell))
    return "\n".join(lines) + "\n"


def brute_force_patch(mesh, cell):
    verts = set(mesh.cells[cell])
    return np.array(sorted(
        c for c in range(mesh.num_cells) if verts & set(mesh.cells[c])
    ))


class TestQuadBuilder:
    def test_counts(self):
        mesh = build_quad(4)
        assert mesh.num_nodes == 25
        assert mesh.num_cells == 16
        assert int(np.sum(~mesh.boundary)) == 9

    def test_single_interior_node(self):
        mesh = build_quad(2)
        inner = mesh.nodes[~mesh.boundary]
        assert inner.shape == (1, 2)
        assert np.allclose(inner[0], [0.5, 0.5])

    def test_interior_patches_have_nine_cells(self):
        mesh = build_quad(4)
        for c in range(mesh.num_cells):
            vmin = mesh.nodes[mesh.cells[c]].min(axis=0)
            vmax = mesh.nodes[mesh.cells[c]].max(axis=0)
            if vmin.min() > 0 and vmax.max() < 1:
                assert len(element_patch(mesh, c)) == 9

    def test_too_coarse_rejected(self):
        with pytest.raises(ValueError):
            build_quad(1)


class TestTriBuilders:
    def test_boxslash_counts(self):
        mesh = build_tri(4, "boxslash")
        assert mesh.num_cells == 32
        assert np.allclose(mesh.cell_areas(), mesh.h ** 2 / 2)

    def test_unionjack_counts(self):
        mesh = build_tri(2, "unionjack")
        assert mesh.num_cells == 32
        assert np.allclose(mesh.cell_areas(), mesh.h ** 2 / 8)

    def test_cross_counts(self):
        # derived by construction enumeration: (n+1)^2 corners + n^2 centers
        mesh = build_tri(3, "cross")
        assert mesh.num_cells == 36
        used = {v for cell in mesh.cells for v in cell}
        assert len(used) == 16 + 9
        assert mesh.num_nodes == 25
        assert np.allclose(mesh.cell_areas(), mesh.h ** 2 / 4)

    def test_alternating_counts(self):
        mesh = build_tri(4, "alternating-kuhn")
        assert mesh.num_cells == 32
        assert mesh.num_nodes == 25

    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            build_tri(4, "herringbone")

    def test_non_lattice_nodes_flagged(self):
        uj = build_tri(2, "unionjack")
        assert int(np.sum(uj.lattice)) == 9
        cross = build_tri(3, "cross")
        assert int(np.sum(cross.lattice)) == 16
        assert build_tri(3, "boxslash").is_lattice_mesh
        assert not uj.is_lattice_mesh


@pytest.mark.parametrize("builder,args", [
    (build_quad, ()),
    (build_tri, ("boxslash",)),
    (build_tri, ("alternating-kuhn",)),
    (build_tri, ("unionjack",)),
    (build_tri, ("cross",)),
])
def test_area_conservation_all_sizes(builder, args):
    for n in range(2, 65):
        mesh = builder(n, *args)
        assert abs(float(np.sum(mesh.cell_areas())) - 1.0) < 1e-12


@pytest.mark.parametrize("builder,args", [
    (build_quad, ()),
    (build_tri, ("boxslash",)),
    (build_tri, ("alternating-kuhn",)),
    (build_tri, ("unionjack",)),
    (build_tri, ("cross",)),
])
def test_cells_distinct_and_counterclockwise(builder, args):
    mesh = builder(5, *args)
    assert np.all(mesh.cell_areas() > 0)
    for cell in mesh.cells:
        assert len(set(cell)) == len(cell)
    if mesh.kind == "quad":
        v = mesh.nodes[mesh.cells]
        for k in range(4):
            a = v[:, (k + 1) % 4] - v[:, k]
            b = v[:, (k + 2) % 4] - v[:, (k + 1) % 4]
            assert np.all(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0] > 0)


def test_scaled_bounds():
    mesh = build_tri(4, "boxslash", bounds=(-1.0, 1.0))
    assert mesh.h == pytest.approx(0.5)
    assert abs(float(np.sum(mesh.cell_areas())) - 4.0) < 1e-12
    assert np.allclose(mesh.nodes.min(axis=0), [-1, -1])


@pytest.mark.parametrize("n", [2, 3, 7, 10])
@pytest.mark.parametrize("bounds", [(0.0, 1.0), (-1.0, 1.0), (-0.3, 2.2)])
def test_half_lattice_of_unionjack_and_half_refinement(n, bounds):
    # oracle: the half lattice written out; 2n + 1 nodes per side, numbered
    # by (j2, j1), with the N-lattice at even index pairs
    lo, hi = bounds
    m = 2 * n
    j1, j2 = np.meshgrid(np.arange(m + 1), np.arange(m + 1), indexing="xy")
    nodes = np.stack([lo + j1.ravel() * ((hi - lo) / m),
                      lo + j2.ravel() * ((hi - lo) / m)], axis=1)
    boundary = ((j1 == 0) | (j1 == m) | (j2 == 0) | (j2 == m)).ravel()
    lattice = ((j1 % 2 == 0) & (j2 % 2 == 0)).ravel()
    ids = np.arange((m + 1) ** 2).reshape(m + 1, m + 1).T
    for mesh in (build_tri(n, "unionjack", bounds),
                 refine_kuhn_half(build_tri(n, "alternating-kuhn", bounds)).child):
        assert np.array_equal(mesh.nodes, nodes)
        assert np.array_equal(mesh.boundary, boundary)
        assert np.array_equal(mesh.lattice, lattice)
        assert np.array_equal(mesh.lattice_ids, ids[::2, ::2])


class TestHalfRefinement:
    def test_child_count(self):
        mesh = build_tri(2, "alternating-kuhn")
        refined = refine_kuhn_half(mesh)
        assert isinstance(refined, HalfRefinement)
        assert refined.child.num_cells == 4 * mesh.num_cells

    def test_node_patch_has_eight_simplices(self):
        refined = refine_kuhn_half(build_tri(2, "alternating-kuhn"))
        assert len(refined.node_patches[(1, 1)]) == 8

    def test_node_patch_area_is_h_squared(self):
        mesh = build_tri(4, "alternating-kuhn")
        refined = refine_kuhn_half(mesh)
        areas = refined.child.cell_areas()
        for patch in refined.node_patches.values():
            assert float(np.sum(areas[patch])) == pytest.approx(mesh.h ** 2, rel=1e-13)

    def test_node_patches_are_translates(self):
        # exact integer arithmetic on the half-lattice index pairs
        mesh = build_tri(4, "alternating-kuhn")
        refined = refine_kuhn_half(mesh)
        child = refined.child
        half = child.h
        ints = np.round((child.nodes - child.bounds[0]) / half).astype(int)

        def signature(j):
            tris = []
            for c in refined.node_patches[j]:
                kk = ints[child.cells[c]] - 2 * np.array(j)
                tris.append(tuple(sorted(map(tuple, kk))))
            return tuple(sorted(tris))

        keys = list(refined.node_patches)
        base = signature(keys[0])
        for j in keys[1:]:
            assert signature(j) == base

    def test_node_patch_reflection_symmetry(self):
        mesh = build_tri(4, "alternating-kuhn")
        refined = refine_kuhn_half(mesh)
        child = refined.child
        half = child.h
        ints = np.round((child.nodes - child.bounds[0]) / half).astype(int)
        j = (2, 2)
        tris = {tuple(sorted(map(tuple, ints[child.cells[c]] - 2 * np.array(j))))
                for c in refined.node_patches[j]}
        for axis in (0, 1):
            reflected = set()
            for tri in tris:
                flipped = tuple(sorted(
                    tuple(-v if d == axis else v for d, v in enumerate(p)) for p in tri
                ))
                reflected.add(flipped)
            assert reflected == tris

    def test_wrong_pattern_rejected(self):
        with pytest.raises(ValueError):
            refine_kuhn_half(build_tri(4, "boxslash"))
        with pytest.raises(ValueError):
            refine_kuhn_half(build_quad(4))


class TestElementPatch:
    def test_quad_corner_patch(self):
        mesh = build_quad(4)
        assert len(element_patch(mesh, 0)) == 4

    def test_quad_interior_patch(self):
        mesh = build_quad(4)
        assert len(element_patch(mesh, 5)) == 9

    def test_matches_brute_force_scan(self):
        mesh = build_tri(4, "boxslash")
        for cell in range(mesh.num_cells):
            assert np.array_equal(element_patch(mesh, cell),
                                  brute_force_patch(mesh, cell))

    def test_contains_self(self):
        mesh = build_tri(3, "cross")
        for cell in (0, 7, 20):
            assert cell in element_patch(mesh, cell)

    def test_invalid_id(self):
        mesh = build_quad(3)
        with pytest.raises(IndexError):
            element_patch(mesh, 99)


def test_dump_golden():
    assert dump(build_quad(2)) == QUAD2_DUMP


def test_dump_roundtrip_counts():
    mesh = build_tri(3, "unionjack")
    lines = dump(mesh).strip().splitlines()
    assert sum(ln.startswith("n ") for ln in lines) == mesh.num_nodes
    assert sum(ln.startswith("c ") for ln in lines) == mesh.num_cells
