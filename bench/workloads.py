"""The benchmark workloads: each builds its reusable objects once and then
runs timed repetitions, checking every output it produces.

Every call into orthofem goes through a module attribute (``cli.run_study``,
``fespace.abs_partial_integral``, ...) so that the traced run, which swaps
those attributes for span-recording wrappers, sees the calls.

Solver workloads are the paper's fixed reference problems and ignore the
seed; the interpolation workload draws all of its inputs from it.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from orthofem import cli, fespace, interp, mesh, solver
from orthofem.fespace import FeFunction, FeSpace

# the acceptance settings of tests/test_acceptance.py
RUN_KWARGS = dict(tol=1e-12, cg_tol=5e-14, residual_target=5e-7)
VALUE_RTOL = 0.05          # a reference cell may deviate by at most 5 %
RESIDUAL_LIMIT = 1e-6      # Galerkin residual at convergence
OPERATOR_TOL = 1e-12       # exact operators: relative to the input scale
COMMUTATION_TOL = 1e-11    # dual projection commutes with transfer


def _rep_stats():
    """Per-repetition figures every workload reports, zero where idle."""
    return {"solver.outer_steps": 0, "solver.cg_iters": 0, "solver.tau_halvings": 0,
            "solver.final_residual_max": 0.0, "analysis.ref_dev_max": 0.0,
            "interp.stability_checks": 0, "interp.stability_violations": 0}


class Checks:
    """Tally of attempted and failed correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok


@contextmanager
def _level_starts(starts):
    """Record in ``starts[n]`` when run_study builds the mesh of level n,
    which is where that level starts."""
    saved = cli.build_quad, cli.build_tri

    def marked(build):
        def build_marked(n, *args, **kwargs):
            starts[n] = time.perf_counter()
            return build(n, *args, **kwargs)
        return build_marked

    cli.build_quad, cli.build_tri = (marked(build) for build in saved)
    try:
        yield
    finally:
        cli.build_quad, cli.build_tri = saved


@dataclass(frozen=True)
class SolverStudy:
    """A refinement sweep on the symmetric domain: one run_study call over
    all levels per repetition, as tests/test_acceptance.py drives it, so
    that each level can start from the levels before it."""

    mesh: str
    p: tuple
    sizes: tuple
    tiny_sizes: tuple
    table: str
    columns: tuple

    def setup(self, seed, tiny):
        del seed  # the paper's fixed problem
        config = cli.StudyConfig(mesh=self.mesh, p1=self.p[0], p2=self.p[1],
                                 n_list=self.tiny_sizes if tiny else self.sizes,
                                 **RUN_KWARGS)
        reference = {row.dim: dict(row.errors)
                     for row in cli.load_paper_table(self.table).rows}
        return {"config": config, "reference": reference}

    def rep(self, state, checks):
        cfg, stats, starts = state["config"], _rep_stats(), {}
        table, reports, raised = None, [], None
        start = time.perf_counter()
        with _level_starts(starts):
            try:
                table, reports = cli.run_study(cfg)
            except Exception as exc:  # noqa: BLE001 - counted; the run goes on
                raised = exc
        end = time.perf_counter()
        checks.check(raised is None, f"run_study raised {raised!r}")
        stats["wall_s"] = end - start
        stats["largest_level_s"] = end - starts.get(cfg.n_list[-1], start)

        rows = {row.dim: row for row in table.rows} if table is not None else {}
        for level, n in enumerate(cfg.n_list):
            report = reports[level] if level < len(reports) else None
            if report is not None:
                stats["solver.outer_steps"] += report.iterations
                stats["solver.cg_iters"] += report.cg_iterations
                stats["solver.tau_halvings"] += len(report.tau_schedule) - 1
                stats["solver.final_residual_max"] = max(
                    stats["solver.final_residual_max"], report.final_residual)
            checks.check(report is not None and report.converged,
                         f"N={n}: flow did not converge or did not run")
            residual = report.final_residual if report is not None else float("inf")
            checks.check(residual < RESIDUAL_LIMIT, f"N={n}: residual {residual:.2e}")
            # both P1 and Q1 have one dof per node of the n x n lattice
            dim = (n + 1) ** 2
            row, ref = rows.get(dim), state["reference"].get(dim)
            for col in self.columns:
                if row is None or ref is None or col not in row.errors:
                    checks.check(False, f"dim {dim} {col}: no value to compare")
                    continue
                dev = abs(row.errors[col] - ref[col]) / ref[col]
                stats["analysis.ref_dev_max"] = max(stats["analysis.ref_dev_max"], dev)
                checks.check(dev <= VALUE_RTOL,
                             f"dim {dim} {col}: {row.errors[col]:.4E} vs "
                             f"reference {ref[col]:.4E}")
        return stats

    def largest_system(self, state):
        """(nnz, dim) of the interior system CG solves at the largest level."""
        cfg = state["config"]
        n = cfg.n_list[-1]
        if cfg.mesh == "quad":
            m = mesh.build_quad(n, cfg.bounds())
        else:
            m = mesh.build_tri(n, cfg.mesh, cfg.bounds())
        space = FeSpace(m)
        system = solver.assemble_stiffness(space).submatrix(space.interior)
        return system.nnz, system.dim


def _interior_random(space, rng):
    coeffs = np.zeros(space.ndofs)
    coeffs[space.interior_dofs] = rng.standard_normal(len(space.interior_dofs))
    return coeffs


def _box_averages(source, coeffs, n):
    """Oracle for the averaged interpolant on an n-lattice from a Q1 input
    on the nested 2n quad mesh: the box around target node (k1, k2) is the
    union of the four source cells at source node (2 k1, 2 k2), so its mean
    is the mean of their four cell means.  Returned indexed [k1-1, k2-1]."""
    means = coeffs[source.mesh.cells].mean(axis=1).reshape(2 * n, 2 * n)  # [b, a]
    inner = means[1:2 * n - 1, 1:2 * n - 1]
    return inner.reshape(n - 1, 2, n - 1, 2).mean(axis=(1, 3)).T


def _scale(values):
    return max(1.0, float(np.abs(values).max()))


def _wave(a, b, c, d):
    return lambda x: np.sin(a + 2 * b * x[:, 0]) * np.cos(c + 2 * d * x[:, 1])


@dataclass(frozen=True)
class InterpStability:
    """Operator pass at n_op (averaged interpolant, dual-basis projections,
    transfer) and the criterion-6 stability pass at n_stab -> n_stab / 2."""

    n_op: int
    n_stab: int
    averaged_inputs: int
    waves: int
    stability_inputs: int

    def setup(self, seed, tiny):
        if tiny:
            return InterpStability(8, 8, 1, 1, 1).setup(seed, False)
        rng = np.random.default_rng(seed)
        n = self.n_op
        source = FeSpace(mesh.build_quad(2 * n))
        quad = FeSpace(mesh.build_quad(n))
        kuhn = FeSpace(mesh.build_tri(n, "alternating-kuhn"))
        stab_source = FeSpace(mesh.build_quad(self.n_stab))
        return {
            "n": n,
            "source": source,
            "quad": quad,
            "boxslash": FeSpace(mesh.build_tri(n, "boxslash")),
            "kuhn": kuhn,
            "averaged_inputs": [_interior_random(source, rng)
                                for _ in range(self.averaged_inputs)],
            "waves": [tuple(rng.standard_normal(4)) for _ in range(self.waves)],
            "stab_source": stab_source,
            "stab_targets": (FeSpace(mesh.build_quad(self.n_stab // 2)),
                             FeSpace(mesh.build_tri(self.n_stab // 2, "boxslash"))),
            "stab_inputs": [_interior_random(stab_source, rng)
                            for _ in range(self.stability_inputs)],
            # one input per idempotence check: FE inputs on kuhn, quad, quad,
            # then a Q1 input passed to the cubic projection as a callable
            "idempotent_inputs": [_interior_random(space, rng)
                                  for space in (kuhn, quad, quad, quad)],
        }

    def rep(self, state, checks):
        start = time.perf_counter()
        self._operators(state, checks)
        operators_s = time.perf_counter() - start
        stats = _rep_stats()
        stats.update(self._stability(state, checks))
        stats["wall_s"] = time.perf_counter() - start
        stats["largest_level_s"] = operators_s
        return stats

    def _operators(self, state, checks):
        n, source = state["n"], state["source"]
        quad, boxslash, kuhn = state["quad"], state["boxslash"], state["kuhn"]
        targets = (quad, boxslash)
        averaged = [interp.AveragedInterpolant(t) for t in targets]
        for coeffs in state["averaged_inputs"]:
            w = FeFunction(source, coeffs)
            expected = _box_averages(source, coeffs, n)
            for target, op in zip(targets, averaged):
                out = op.apply(w).coeffs
                got = out[target.mesh.lattice_ids[1:n, 1:n]]
                ok = (np.abs(got - expected).max() <= OPERATOR_TOL * _scale(expected)
                      and not np.any(out[target.mesh.boundary]))
                checks.check(ok, f"averaged interpolant onto {target.kind} "
                                 "differs from the box averages")

        simplicial = interp.build_dual_table("simplicial", kuhn.mesh)
        cubic = interp.build_dual_table("cubic", quad.mesh)
        for params in state["waves"]:
            w = _wave(*params)
            direct = simplicial.apply(w, kuhn).coeffs
            via_q1 = interp.transfer(simplicial.apply(w, quad), kuhn).coeffs
            checks.check(np.abs(direct - via_q1).max() < COMMUTATION_TOL,
                         "simplicial projection does not commute with transfer")

        # projections reproduce their own targets: FE inputs on both dual
        # families, and the callable path of the cubic family
        *fe_inputs, callable_input = state["idempotent_inputs"]
        for proj, space, coeffs in zip((simplicial, simplicial, cubic),
                                       (kuhn, quad, quad), fe_inputs):
            out = proj.apply(FeFunction(space, coeffs), space).coeffs
            checks.check(np.abs(out - coeffs).max() < OPERATOR_TOL * _scale(coeffs),
                         f"{proj.kind} projection is not idempotent on {space.kind}")
        out = cubic.apply(FeFunction(quad, callable_input).evaluate, quad).coeffs
        checks.check(np.abs(out - callable_input).max()
                     < OPERATOR_TOL * _scale(callable_input),
                     "cubic projection of a callable Q1 input is not idempotent")

    def _stability(self, state, checks):
        """Constant-one stability of the averaged interpolant, cell by cell
        and direction by direction, as in acceptance criterion 6."""
        source, targets = state["stab_source"], state["stab_targets"]
        averaged = [interp.AveragedInterpolant(t) for t in targets]
        patches = [[mesh.element_patch(t.mesh, c) for c in range(t.mesh.num_cells)]
                   for t in targets]
        cells_checked = violations = 0
        for coeffs in state["stab_inputs"]:
            w = FeFunction(source, coeffs)
            for target, op, patch in zip(targets, averaged, patches):
                pw = op.apply(w)
                polys = target.mesh.nodes[target.mesh.cells]
                lhs = np.array([[fespace.abs_partial_integral(pw, poly, i) for i in (0, 1)]
                                for poly in polys])
                rhs = np.array([[fespace.abs_partial_integral(w, poly, i) for i in (0, 1)]
                                for poly in polys])
                for c in range(target.mesh.num_cells):
                    for i in (0, 1):
                        ok = lhs[c, i] <= rhs[patch[c], i].sum() + 1e-12
                        violations += not checks.check(
                            ok, f"stability violated on {target.kind} cell {c} "
                                f"direction {i}")
                        cells_checked += 1
        return {"interp.stability_checks": cells_checked,
                "interp.stability_violations": violations}

    def largest_system(self, state):
        return None


WORKLOADS = {
    # the paper's orthotropic headline case, nested levels
    "p1-orth-sweep": SolverStudy("boxslash", (3.0, 1.5), (10, 20, 40, 80), (10, 20),
                                 "table3", ("e_p1", "e_p2", "e_V")),
    # one level, working set larger than L2
    "p1-large": SolverStudy("boxslash", (3.0, 3.0), (160,), (10,),
                            "table2", ("e_V", "e_comb")),
    # the Q1 branch: degree-2 weighted assembly, degree-4 residual
    "q1-orth-sweep": SolverStudy("quad", (3.0, 1.5), (16, 32, 64), (16,),
                                 "table6", ("e_p1", "e_p2", "e_V")),
    # interpolation operators and polygon integrals, no solver
    "interp-stability": InterpStability(n_op=64, n_stab=16, averaged_inputs=3,
                                        waves=3, stability_inputs=4),
}
