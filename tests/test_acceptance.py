"""Acceptance suite: one test per criterion, each printing a PASS line.

The convergence studies reproduce the published reference tables at
desk scale (dimensions up to 25921); each study runs once per session
and is shared by the value, rate, and residual criteria.  Rate bands
are checked on the last two refinement increments of a study except
where a criterion asks for every increment.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from orthofem.analysis import ManufacturedSolution
from orthofem.cli import (StudyConfig, _metadata_header, emit_table, load_paper_table,
                          run_study)
from orthofem.fespace import (FeFunction, FeSpace, abs_partial_integral,
                              interpolate_nodal)
from orthofem.interp import AveragedInterpolant, build_dual_table, transfer
from orthofem.linalg import CgConfig
from orthofem.mesh import build_quad, build_tri, element_patch
from orthofem.nfunc import GrowthLaw
from orthofem.solver import FlowConfig, ProblemSpec, solve

VALUE_RTOL = 0.05
RUN_KWARGS = dict(tol=1e-12, cg_tol=5e-14, residual_target=5e-7)
# the CSV files that ``orthofem`` writes for these studies, header included
GOLDEN_CSV = Path(__file__).parent / "data" / "acceptance"


def run(name, **kwargs):
    cfg = StudyConfig(**dict(RUN_KWARGS, **kwargs))
    start = time.time()
    table, reports = run_study(cfg)
    elapsed = time.time() - start
    assert table.complete, f"{name}: some level did not converge"
    return {"table": table, "reports": reports, "elapsed": elapsed, "name": name,
            "cfg": cfg}


@pytest.fixture(scope="session")
def study_table1():
    return run("table1", mesh="boxslash", p1=1.5, p2=1.5, n0=10, levels=5)


@pytest.fixture(scope="session")
def study_table2():
    return run("table2", mesh="boxslash", p1=3.0, p2=3.0, n0=10, levels=5)


@pytest.fixture(scope="session")
def study_table3():
    return run("table3", mesh="boxslash", p1=3.0, p2=1.5, n0=10, levels=5)


@pytest.fixture(scope="session")
def study_table4():
    return run("table4", mesh="unionjack", p1=3.0, p2=1.5, n_list=(20, 40))


@pytest.fixture(scope="session")
def study_table5():
    return run("table5", mesh="cross", p1=3.0, p2=1.5, n_list=(40, 80))


@pytest.fixture(scope="session")
def study_table6():
    return run("table6", mesh="quad", p1=3.0, p2=1.5, n0=16, levels=4)


@pytest.fixture(scope="session")
def all_studies(study_table1, study_table2, study_table3, study_table4,
                study_table5, study_table6):
    return [study_table1, study_table2, study_table3, study_table4,
            study_table5, study_table6]


def check_values(study, reference_name, columns):
    reference = {row.dim: row for row in load_paper_table(reference_name).rows}
    checked = 0
    for row in study["table"].rows:
        ref = reference.get(row.dim)
        assert ref is not None, f"dim {row.dim} not in {reference_name}"
        for col in columns:
            value, target = row.errors[col], ref.errors[col]
            assert value == pytest.approx(target, rel=VALUE_RTOL), (
                f"{study['name']} dim {row.dim} {col}: {value:.4E} vs "
                f"paper {target:.4E}")
            checked += 1
    return checked


def check_rates(study, col, center, tol, increments="last-two"):
    rates = [rate for _, rate in study["table"].rate_column(col)]
    subset = rates[-2:] if increments == "last-two" else rates
    assert subset, f"no {col} rates recorded"
    for rate in subset:
        assert center - tol <= rate <= center + tol, (
            f"{study['name']} {col} rate {rate:.3f} outside "
            f"{center}+-{tol} ({increments})")
    return subset


def test_criterion_1_table1_reproduction(study_table1):
    checked = check_values(study_table1, "table1", ("e_V", "e_comb"))
    check_rates(study_table1, "e_V", -0.50, 0.03)
    assert study_table1["elapsed"] < 300, "desk-scale run exceeded five minutes"
    print(f"\nACCEPTANCE 1 PASS: table 1 values ({checked} cells within 5%), "
          f"e_V rates -0.50+-0.03, runtime {study_table1['elapsed']:.0f}s")


def test_criterion_2_table2_reproduction(study_table2):
    checked = check_values(study_table2, "table2", ("e_V", "e_comb"))
    ev = check_rates(study_table2, "e_V", -0.50, 0.03, increments="all")
    comb = check_rates(study_table2, "e_comb", -0.42, 0.05, increments="all")
    print(f"\nACCEPTANCE 2 PASS: table 2 values ({checked} cells), e_V rates "
          f"{[f'{r:.2f}' for r in ev]}, e_comb rates {[f'{r:.2f}' for r in comb]}")


def test_criterion_3_table3_reproduction(study_table3):
    checked = check_values(study_table3, "table3", ("e_p1", "e_p2", "e_V"))
    check_rates(study_table3, "e_p1", -0.42, 0.05)
    check_rates(study_table3, "e_p2", -0.50, 0.05)
    check_rates(study_table3, "e_V", -0.50, 0.03)
    print(f"\nACCEPTANCE 3 PASS: table 3 values ({checked} cells within 5%), "
          "split-norm rates in bands")


def test_criterion_4_table6_reproduction(study_table6):
    checked = check_values(study_table6, "table6", ("e_p1", "e_p2", "e_V"))
    check_rates(study_table6, "e_p1", -0.42, 0.05)
    check_rates(study_table6, "e_p2", -0.50, 0.05)
    check_rates(study_table6, "e_V", -0.50, 0.03)
    print(f"\nACCEPTANCE 4 PASS: table 6 (quad) values ({checked} cells), "
          "rates in bands")


def test_criterion_5_pattern_spot_checks(study_table4, study_table5):
    c4 = check_values(study_table4, "table4", ("e_V",))
    c5 = check_values(study_table5, "table5", ("e_V",))
    lookup = {row.dim: row for row in study_table5["table"].rows}
    assert lookup[12961].errors["e_V"] == pytest.approx(2.1466e-02, rel=VALUE_RTOL)
    print(f"\nACCEPTANCE 5 PASS: union jack ({c4} cells) and cross ({c5} cells) "
          "e_V within 5%")


def test_criterion_6_averaged_interpolant_stability():
    source = FeSpace(build_quad(16))
    targets = (FeSpace(build_quad(8)), FeSpace(build_tri(8, "boxslash")))
    interps = [AveragedInterpolant(t) for t in targets]
    patches = [[element_patch(t.mesh, c) for c in range(t.mesh.num_cells)]
               for t in targets]
    rng = np.random.default_rng(606)
    cells_checked = 0
    for _ in range(50):
        coeffs = np.zeros(source.ndofs)
        coeffs[source.interior_dofs] = rng.standard_normal(len(source.interior_dofs))
        w = FeFunction(source, coeffs)
        for target, interp, patch in zip(targets, interps, patches):
            mesh = target.mesh
            pw = interp.apply(w)
            polys = mesh.nodes[mesh.cells]
            lhs = np.empty((mesh.num_cells, 2))
            rhs = np.empty((mesh.num_cells, 2))
            for c in range(mesh.num_cells):
                for i in (0, 1):
                    lhs[c, i] = abs_partial_integral(pw, polys[c], i)
                    rhs[c, i] = abs_partial_integral(w, polys[c], i)
            for c in range(mesh.num_cells):
                for i in (0, 1):
                    assert lhs[c, i] <= rhs[patch[c], i].sum() + 1e-12
                    cells_checked += 1
    print(f"\nACCEPTANCE 6 PASS: constant-one stability on {cells_checked} "
          "cell/direction checks for both averaged interpolants")


def test_criterion_7_dual_basis_suite():
    mesh = build_tri(4, "alternating-kuhn")
    quad_mesh = build_quad(4)
    proj = build_dual_table("simplicial", mesh)
    space_p, space_q = FeSpace(mesh), FeSpace(quad_mesh)

    pairs = mesh.interior_lattice_indices()
    for j in pairs:
        for m in pairs:
            expected = 1.0 if j == m else 0.0
            hat_p = FeFunction(space_p, np.eye(space_p.ndofs)[mesh.lattice_ids[m]])
            hat_q = FeFunction(space_q, np.eye(space_q.ndofs)[quad_mesh.lattice_ids[m]])
            assert proj.pairing(hat_p, j) == pytest.approx(expected, abs=1e-12)
            assert proj.pairing(hat_q, j) == pytest.approx(expected, abs=1e-12)

    rng = np.random.default_rng(707)
    for space in (space_p, space_q):
        coeffs = np.zeros(space.ndofs)
        coeffs[space.interior_dofs] = rng.standard_normal(len(space.interior_dofs))
        v = FeFunction(space, coeffs)
        assert np.abs(proj.apply(v, space).coeffs - v.coeffs).max() < 1e-12

    for _ in range(20):
        a, b, c, d = rng.standard_normal(4)
        w = lambda x: np.sin(a + 2 * b * x[:, 0]) * np.cos(c + 2 * d * x[:, 1])
        lhs = proj.apply(w, space_p).coeffs
        rhs = transfer(proj.apply(w, space_q), space_p).coeffs
        assert np.abs(lhs - rhs).max() < 1e-11

    w = FeFunction(space_q, rng.standard_normal(space_q.ndofs))
    n = mesh.n
    for j in [(0, 0), (0, 1), (0, 2), (1, 0), (2, n), (n, 2), (n, n), (3, 0)]:
        assert abs(proj.pairing(w, j)) < 1e-12

    print("\nACCEPTANCE 7 PASS: biorthogonality (81 pairs, both families), "
          "idempotence, commutation on 20 inputs, odd-reflection pairings")


def test_criterion_8_equivalence_ratio_fixtures():
    from test_nfunc import EQUIVALENCE_BOUNDS
    grid = np.concatenate([-np.logspace(-4, 2, 25)[::-1], np.logspace(-4, 2, 25)])
    for p, (c_lo, c_hi) in EQUIVALENCE_BOUNDS.items():
        law = GrowthLaw((p, p))
        s, t = np.meshgrid(grid, grid, indexing="ij")
        mask = s != t
        ratio = ((law.flux(0, s) - law.flux(0, t)) * (s - t))[mask] \
            / ((law.natural(0, s) - law.natural(0, t)) ** 2)[mask]
        assert 0 < c_lo
        assert ratio.min() >= c_lo - 1e-12
        assert ratio.max() <= c_hi + 1e-12
    print("\nACCEPTANCE 8 PASS: monotonicity/distance ratio inside frozen "
          "brute-force bounds for p in {1.5, 2, 3}")


def test_criterion_9_linear_baseline():
    law = GrowthLaw((2.0, 2.0))
    ms = ManufacturedSolution(law)
    for n in (4, 8):
        space = FeSpace(build_quad(n))
        mesh = space.mesh
        spec = ProblemSpec(law=law, space=space, dirichlet=ms.value)
        u, report = solve(spec, FlowConfig(tol=1e-20, cg=CgConfig(tol=1e-14)))
        assert report.converged

        exact = interpolate_nodal(space, ms.value)
        # independent check that the interpolant is discretely harmonic:
        # apply the 9-point stencil (1/3)[-1 ring, 8 center] by hand
        for k1 in range(1, n):
            for k2 in range(1, n):
                total = 8.0 * exact.coeffs[mesh.lattice_ids[k1, k2]]
                for da in (-1, 0, 1):
                    for db in (-1, 0, 1):
                        if (da, db) != (0, 0):
                            total -= exact.coeffs[mesh.lattice_ids[k1 + da, k2 + db]]
                assert abs(total / 3.0) < 1e-12

        from orthofem.solver import assemble_stiffness
        k_dense = assemble_stiffness(space).todense()
        interior = space.interior
        rhs = -k_dense[np.ix_(interior, ~interior)] @ exact.coeffs[~interior]
        direct = np.linalg.solve(k_dense[np.ix_(interior, interior)], rhs)
        assert np.abs(u.coeffs[interior] - direct).max() < 1e-9
        assert np.abs(u.coeffs - exact.coeffs).max() < 1e-9
    print("\nACCEPTANCE 9 PASS: gradient flow equals the direct linear solve "
          "and the nodal interpolant to 1e-9 on N in {4, 8}")


def test_criterion_10_galerkin_residuals(all_studies):
    worst = 0.0
    for study in all_studies:
        for report in study["reports"]:
            worst = max(worst, report.final_residual)
            assert report.final_residual < 1e-6, (
                f"{study['name']}: residual {report.final_residual:.2e}")
    print(f"\nACCEPTANCE 10 PASS: max-norm Galerkin residual at convergence "
          f"{worst:.2e} < 1e-6 across all acceptance runs")


@pytest.mark.parametrize("name", [f"table{k}" for k in range(1, 7)])
def test_acceptance_csv_bytes_are_golden(name, request):
    study = request.getfixturevalue(f"study_{name}")
    text = _metadata_header(study["cfg"], study["reports"]) + emit_table(study["table"])
    assert text.encode("utf-8") == (GOLDEN_CSV / f"{name}.csv").read_bytes(), (
        f"{name}: the CSV bytes differ from {GOLDEN_CSV / name}.csv")
