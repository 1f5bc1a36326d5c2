import hashlib

import numpy as np
import pytest

from orthofem import mesh as mesh_module
from orthofem.mesh import (TRIANGLE_PATTERNS, HalfRefinement, build_quad, build_tri,
                           element_patch, locate, refine_kuhn_half)

QUAD2_DUMP = (
    "n 0 0 1\nn 0.5 0 1\nn 1 0 1\nn 0 0.5 1\nn 0.5 0.5 0\nn 1 0.5 1\n"
    "n 0 1 1\nn 0.5 1 1\nn 1 1 1\n"
    "c 0 1 4 3\nc 1 2 5 4\nc 3 4 7 6\nc 4 5 8 7\n"
)


# sha256 of dump(mesh) at n = 3 on (-0.3, 2.2), recorded from the per-family
# builders the template builder replaced: node and cell numbering are pinned
NUMBERING_SHA256 = {
    "quad": "86bd1a21f38451948cac13734828c15d0ee66b9fd822b117af01ef2a87fcf69a",
    "boxslash": "2145e10512b0020b9f7863d99ea309b8c0527e97b1c71a403d7b57a46cdb3b3d",
    "alternating-kuhn": "0b6c551d4cd3579ac7a10f0b838748d17b1a9c386ce9e9e44e7d99e01ef04bbd",
    "unionjack": "1d3fc8416a8bb58d2f29aae80f39bbbe23e293d79aa3048d5b62a3c060af8b4c",
    "cross": "d5a0df3dc7ed5628fedf06267f5d4bd16e9c5134ab38a8b14e877e027ecd7b00",
    "half-kuhn": "e2ed6b7fdc4336307fce5474ba9369a5ca74f433979a18b8c941281644547e98",
}

# sha256 of the int64 bytes of locate(mesh, half_lattice_points(3, bounds)) on
# the same meshes, recorded from the per-pattern rules locate replaced: the
# points where cells meet, so these pin its tie conventions
LOCATE_TIES_SHA256 = {
    "quad": "047f2fe373a861a4ab1247ea509b013b29dbecc7fd5144c77c64478ee4ef53f9",
    "boxslash": "ac95b2fdc5a6dd98b2c67e75864dee1200d82bd3177e71eb2d4eb89020ba19ef",
    "alternating-kuhn": "c920e360f6ecd71663d3ab01ea582dc8cdc09b32746d9091a68e13d68662c200",
    "unionjack": "7a4ea46fa017172867261fe09d32a15e8efe53f5cd3a6d1e7931e5207ef6fd91",
    "cross": "e7ade82bb0f64a10cc2ad0f80767839496accc857c9a28aabe9b5bdeaa17ad53",
}


def half_lattice_points(n, bounds):
    """Every point lo + j h/2, j in 0..2n, ordered by (j2, j1)."""
    lo, hi = bounds
    half = lo + (hi - lo) * np.arange(2 * n + 1) / (2 * n)
    return np.stack(np.meshgrid(half, half), axis=-1).reshape(-1, 2)


def family_mesh(family, n, bounds=(0.0, 1.0)):
    """Mesh of one of the five families, or the half-refinement child."""
    if family == "quad":
        return build_quad(n, bounds)
    if family == "half-kuhn":
        return refine_kuhn_half(build_tri(n, "alternating-kuhn", bounds)).child
    return build_tri(n, family, bounds)


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


@pytest.mark.parametrize("builder,args", [(build_quad, ()), (build_tri, ("cross",))])
def test_builder_input_checks(builder, args):
    for bounds in [(1.0, 0.0), (0.5, 0.5), (0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0)]:
        with pytest.raises(ValueError, match="bounds"):
            builder(4, *args, bounds=bounds)
    for n in (2.0, 2.5, "4"):
        with pytest.raises(TypeError):
            builder(n, *args)
    mesh = builder(np.int64(4), *args)
    assert mesh.n == 4 and mesh.h == 0.25
    assert np.array_equal(mesh.cells, builder(4, *args).cells)


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


def sorted_numbering(pattern, n, bounds=(0.0, 1.0)):
    """Nodes and cells as ``mesh._build`` numbered them before it selected
    corners and centres by mask: the used half-lattice points, and where
    they are not all of them, a stable sort of the parity of j1."""
    m, (lo, hi) = 2 * n, bounds
    tables = np.array(mesh_module._TEMPLATES[pattern][:2])
    b, a = np.divmod(np.arange(n ** 2), n)
    key = 2 * (b * (m + 1) + a)[:, None, None] + (tables @ (1, m + 1))[(a + b) % 2]
    used = np.zeros((m + 1) ** 2, dtype=bool)
    used[key] = True
    points = np.flatnonzero(used)
    if not used.all():
        points = points[np.argsort(points % (m + 1) % 2, kind="stable")]
    ids = np.full((m + 1) ** 2, -1)
    ids[points] = np.arange(len(points))
    j2, j1 = np.divmod(points, m + 1)
    step = (hi - lo) / m
    return (np.stack([lo + j1 * step, lo + j2 * step], axis=1),
            ids[key].reshape(-1, tables.shape[2]))


@pytest.mark.parametrize("family", ["cross", "unionjack"])
@pytest.mark.parametrize("n", [2, 3, 17])
def test_numbering_matches_the_sorted_construction(family, n):
    mesh = build_tri(n, family)
    nodes, cells = sorted_numbering(family, n)
    assert np.array_equal(mesh.nodes, nodes)
    assert np.array_equal(mesh.cells, cells)


@pytest.mark.parametrize("family", list(NUMBERING_SHA256))
@pytest.mark.parametrize("n,bounds", [(2, (0.0, 1.0)), (5, (-0.3, 2.2))])
def test_half_lattice_positions(family, n, bounds):
    # each node at lo + j (hi - lo) / (2 squares), each lattice node at even j,
    # and the template's vertices on the half lattice
    mesh = family_mesh(family, n, bounds)
    lo, hi = bounds
    j = mesh.half_lattice()
    assert j.dtype == np.int64 and j.min() == 0 and j.max() == 2 * mesh.squares
    assert np.array_equal(mesh.nodes, lo + j * ((hi - lo) / (2 * mesh.squares)))
    assert np.array_equal(j[mesh.lattice_ids.ravel()] // 2,
                          np.argwhere(mesh.lattice_ids >= 0))
    assert np.array_equal(mesh.template, mesh.offsets * ((hi - lo) / (2 * mesh.squares)))


@pytest.mark.parametrize("family", [None, *TRIANGLE_PATTERNS])
def test_lattice_ids_own_their_data(family):
    # a strided view would keep the whole half-lattice table alive
    mesh = build_quad(6) if family is None else build_tri(6, family)
    assert mesh.lattice_ids.base is None and mesh.lattice_ids.size == 7 ** 2
    assert mesh.lattice_ids.flags.c_contiguous and not mesh.lattice_ids.flags.writeable


def test_coarsened_halves_n_on_the_same_square():
    for n in (6, 7):
        coarse = build_tri(n, "cross", bounds=(-1.0, 1.0)).coarsened()
        assert (coarse.n, coarse.pattern, coarse.bounds) == (3, "cross", (-1.0, 1.0))
    with pytest.raises(ValueError, match="n >= 2"):
        coarse.coarsened()


class TestHalfRefinement:
    def test_child_count(self):
        mesh = build_tri(2, "alternating-kuhn")
        refined = refine_kuhn_half(mesh)
        assert isinstance(refined, HalfRefinement)
        assert refined.child.num_cells == 4 * mesh.num_cells

    def test_node_patch_has_eight_simplices(self):
        refined = refine_kuhn_half(build_tri(2, "alternating-kuhn"))
        assert len(refined.node_patches[(1, 1)]) == 8

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_node_patches_match_brute_force_scan(self, n):
        refined = refine_kuhn_half(build_tri(n, "alternating-kuhn"))
        child = refined.child
        assert list(refined.node_patches) == child.interior_lattice_indices()
        for (k1, k2), patch in refined.node_patches.items():
            node = child.lattice_ids[k1, k2]
            assert np.array_equal(patch, np.flatnonzero((child.cells == node).any(axis=1)))

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

    @pytest.mark.parametrize("family", list(NUMBERING_SHA256))
    def test_matches_brute_force_scan(self, family):
        mesh = family_mesh(family, 4)
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


@pytest.mark.parametrize("family", list(NUMBERING_SHA256))
def test_numbering_golden(family):
    text = dump(family_mesh(family, 3, (-0.3, 2.2)))
    assert hashlib.sha256(text.encode()).hexdigest() == NUMBERING_SHA256[family]


@pytest.mark.parametrize("family", list(LOCATE_TIES_SHA256))
def test_locate_ties_golden(family):
    bounds = (-0.3, 2.2)
    cells = locate(family_mesh(family, 3, bounds), half_lattice_points(3, bounds))
    assert hashlib.sha256(cells.astype("<i8").tobytes()).hexdigest() \
        == LOCATE_TIES_SHA256[family]


@pytest.mark.parametrize("family", list(NUMBERING_SHA256))
@pytest.mark.parametrize("n,bounds", [(3, (0.0, 1.0)), (4, (-0.3, 2.2))])
def test_located_cell_contains_the_point(family, n, bounds):
    # random points, and every half-lattice point: the vertices, edge
    # midpoints and centres where the cells of a square meet
    mesh = family_mesh(family, n, bounds)
    lo, hi = bounds
    points = np.vstack([lo + (hi - lo) * np.random.default_rng(n).random((400, 2)),
                        half_lattice_points(n, bounds)])
    v = mesh.nodes[mesh.cells[locate(mesh, points)]]
    tol = 1e-12 * mesh.h
    if mesh.kind == "quad":
        assert np.all((points >= v[:, 0] - tol) & (points <= v[:, 2] + tol))
        return
    e1, e2, d = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0], points - v[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    x = (d[:, 0] * e2[:, 1] - d[:, 1] * e2[:, 0]) / det
    y = (e1[:, 0] * d[:, 1] - e1[:, 1] * d[:, 0]) / det
    # signed distance to the edge opposite each vertex: barycentric times height
    edges = np.linalg.norm(v[:, [2, 0, 1]] - v[:, [1, 2, 0]], axis=2)
    assert np.all(np.stack([1 - x - y, x, y], axis=1) * det[:, None] / edges >= -tol)


def test_dump_roundtrip_counts():
    mesh = build_tri(3, "unionjack")
    lines = dump(mesh).strip().splitlines()
    assert sum(ln.startswith("n ") for ln in lines) == mesh.num_nodes
    assert sum(ln.startswith("c ") for ln in lines) == mesh.num_cells


@pytest.mark.parametrize("family", list(NUMBERING_SHA256))
@pytest.mark.parametrize("n,bounds", [(3, (0.0, 1.0)), (4, (-0.3, 2.2))])
def test_decode_inverts_the_numbering(family, n, bounds):
    mesh = family_mesh(family, n, bounds)
    ids = np.arange(mesh.num_cells)
    a, b, t, k = mesh.decode(ids)
    vertices = mesh.nodes[mesh.cells]
    # locate finds every cell at its centroid, in the square decode names
    centroids = vertices.mean(axis=1)
    assert np.array_equal(locate(mesh, centroids), ids)
    width = (bounds[1] - bounds[0]) / mesh.squares
    assert np.array_equal(np.floor((centroids - bounds[0]) / width).astype(int),
                          np.stack([a, b], axis=1))
    # the cell is its template cell at its square's corner
    placed = mesh.corners(a, b)[:, None, :] + mesh.template[t, k]
    assert np.abs(placed - vertices).max() <= 1e-14 * np.abs(bounds).max()
    alternates = len(mesh.template) == 2
    assert np.array_equal(t, (a + b) % 2 if alternates else np.zeros_like(t))
    # square_cells lists a square's cells by slot; one id decodes to plain ints
    for cell in ids:
        square = mesh.square_cells(a[cell], a[cell], b[cell], b[cell])
        assert square[k[cell]] == cell
        assert mesh.decode(int(cell)) == (a[cell], b[cell], t[cell], k[cell])
        assert all(type(x) is int for x in mesh.decode(int(cell)))
