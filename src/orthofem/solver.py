"""Nonlinear system assembly and the damped Newton flow.

Each pseudo-time step solves for a correction on the interior nodes,

    (K_II / tau + K_A',II(u^k)) delta_I = -r_I(u^k),

with delta = 0 on the boundary, so the Dirichlet values of the start
iterate are kept.  K is the plain Laplacian stiffness, K_A' the weighted
stiffness with entries sum_i A_i'(d_i u^k) d_i phi_a d_i phi_b, which is
the Jacobian of the Galerkin residual r, and II marks the interior block,
assembled on an interior-only pattern: the step matrix is one weighted
stiffness, of weight A_i'(d_i u^k) + 1/tau.  The weight B_i of
A_i(t) = B_i(t) t gives K_B instead, and K_B(u) u - F = r(u).  The
patterns leave out the pairs that the element makes structurally zero
(``_Assembler``; ``linalg`` gives the widths per family).

The step u^{k+1} = u^k + alpha delta takes the largest alpha in {1, 1/2,
...} with Phi(u^k + alpha delta) <= Phi(u^k) + ARMIJO alpha <r(u^k), delta>
plus the rounding of Phi(u) = J(u) - <F, u>, F the load vector: once the
predicted decrease falls below that rounding, Phi cannot tell a decrease
from an increase.  This Armijo backtracking on the energy globalizes
inexact Newton as in Ern and Vohralik (SIAM J. Sci. Comput. 35, 2013); for
the p-Laplacian see Huang, Li and Liu (J. Sci. Comput. 32, 2007).

K, K_B, K_A', r and J integrate basis gradients on one rule,
``FeSpace.gradient_rule(GRADIENT_DEGREE)``, stored once per cell of the
per-square mesh template, each in one ``fespace.contract`` over all
cells, points and both directions (K_B, K_A', r and J in blocks of BLOCK
cells, which bounds their gradient and weight temporaries, written into
one per-cell array that one ``bincount`` or one sum reduces): one point of weight
|cell| for P1; tensor Gauss of degree 2 for Q1, exact for its stiffness.  The load
vector has a rule of its own.  CG solves for the correction from zero to
the relative tolerance FORCING on |r_I| (a constant forcing term in the
sense of Eisenstat and Walker), or to the configured CG tolerance if that
is looser.  The iteration stops once the energy of the increment,

    J(w) = sum_i int of phi_i(|d_i w|) - phi_i(0),

falls below an absolute tolerance (optionally also requiring a small
Galerkin residual, which the increment alone does not guarantee).

A' varies by orders of magnitude, so on every level a V-cycle on the same
family at n // 2, n // 4, ... (nodal interpolation between levels, which
need not be nested, as they are not after an odd n; Bermejo and Infante,
SIAM J. Sci. Comput. 21, 2000) preconditions CG: at most 11 PCG iterations
a step on the acceptance studies' largest levels, against up to 207 Jacobi
ones.  A level with at most COARSEST interior unknowns has no coarser
level: its cycle is the dense inverse of the step matrix, so it is solved
exactly, in one PCG iteration a step.  A solve without a start first
solves the next of these levels in the same way, if its n is even, and
starts from that solution (``solve``).
"""

from dataclasses import dataclass, field

import numpy as np

from .fespace import FeFunction, FeSpace, _field_values, contract
from .linalg import CgConfig, CsrPattern, _check_max_iter, cg_solve
from .mesh import locate

__all__ = [
    "ProblemSpec",
    "FlowConfig",
    "SolveReport",
    "assemble_stiffness",
    "assemble_weighted_stiffness",
    "assemble_load",
    "energy",
    "galerkin_residual",
    "flow_step",
    "solve",
]

GRADIENT_DEGREE = 2    # every gradient integral; Q1 stiffness entries are quadratic per direction
STRUCTURAL_ZERO = 1e-12  # pair products below this, relative to the largest, are rounding
LOAD_DEGREE = 4
FORCING = 0.1          # CG tolerance of a step, relative to |r_I(u^k)|
ARMIJO = 1e-4          # share of the predicted decrease a step must achieve
ROUNDING = 1e-14       # rounding of Phi, relative to J + |<F, u>|
MAX_BACKTRACKS = 30    # step lengths down to 2^-30 before a step is rejected
COARSEST = 200         # interior unknowns of the V-cycle's coarsest level, solved densely
SMOOTHING = 0.6        # Jacobi damping in the V-cycle; 0.7 tripled PCG iterations on Q1
BLOCK = 8192           # cells per block of every sweep over the cells (``_blocks``)


@dataclass
class ProblemSpec:
    """Problem data: growth law, space, Dirichlet trace, and source."""

    law: object
    space: object
    dirichlet: object          # callable on an (n, 2) point array
    source: object = None      # callable or None for f = 0


@dataclass
class FlowConfig:
    tau: float = 100.0
    tol: float = 1e-10                 # absolute energy-increment tolerance
    max_iter: int = 5000
    clamp: float = 1e-10
    cg: CgConfig = field(default_factory=CgConfig)
    residual_target: float | None = None

    def __post_init__(self):
        for name in ("tau", "tol", "clamp", "residual_target"):
            value = getattr(self, name)
            if value is not None and not 0 < value < np.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite")
        _check_max_iter(self.max_iter)


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    increments: list
    final_residual: float
    cg_iterations: int
    tau_schedule: list     # [(0, tau)]: one pseudo-time step for all iterations
    coarse: tuple = ()     # reports of the coarser levels that gave the start, coarsest first


class _Assembler:
    """Tables of the gradient rule for one space, and its sparsity patterns
    (of the interior block, which serves the flow, or of all nodes), each
    built once, when first asked for."""

    def __init__(self, space):
        # the mesh and mask, not the space, which keeps this in ``_geom``:
        # no reference cycle, so a dropped space is freed at once
        self.mesh, self.interior = space.mesh, space.interior
        self._patterns = {}
        grads, self.weights = space.gradient_rule(GRADIENT_DEGREE)
        # per template cell, at point q: d_i phi_a d_i phi_b W by (q, i, a, b)
        # for the stiffness, d_i phi_a W by (q, i, a) for the residual
        self.products = np.einsum("tpaqi,tpbqi,tpq->tpqiab", grads, grads, self.weights)
        self.weighted_grads = np.einsum("tpaqi,tpq->tpqia", grads, self.weights)
        # the pairs (a, b) of each template cell that couple in some direction
        # at some point; the others hold rounding only and get no slot
        size = np.abs(self.products).max(axis=(2, 3))
        self.coupled = size > STRUCTURAL_ZERO * size.max()

    def pattern(self, interior_only):
        """Pattern of the interior block, or of all nodes, of the coupled
        pairs, read off the mesh template."""
        if interior_only not in self._patterns:
            self._patterns[interior_only] = CsrPattern(
                self.mesh, self.coupled, self.interior if interior_only else None)
        return self._patterns[interior_only]


def _assembler(space):
    if "assembler" not in space._geom:
        space._geom["assembler"] = _Assembler(space)
    return space._geom["assembler"]


def assemble_stiffness(space, interior_only=False):
    """Laplacian stiffness over all nodes, or its interior block K_II."""
    asm = _assembler(space)
    ones = np.ones((space.mesh.num_cells, *asm.products.shape[2:4]))
    return asm.pattern(interior_only).assemble(contract(ones, asm.products, space.mesh))


def _blocks(mesh):
    """Slices of BLOCK cells, whole lattice squares, that cover the mesh."""
    return [slice(start, start + BLOCK) for start in range(0, mesh.num_cells, BLOCK)]


def _weights(u, law, clamp, shift, weight, cells=slice(None)):
    """Law method ``weight`` at grad u plus ``shift``, (nc, nq, 2), on the rule in ``cells``."""
    g = u.gradients_on_rule(GRADIENT_DEGREE, cells)
    weigh = getattr(law, weight)
    return np.stack([weigh(i, g[..., i], clamp) + shift for i in range(2)], axis=-1)


def assemble_weighted_stiffness(space, u_k, law, clamp=FlowConfig.clamp, interior_only=False,
                                shift=0.0, weight="weight", _cell_means=None):
    """Stiffness weighted per direction by the GrowthLaw method ``weight``
    at the gradient of u_k plus ``shift``, over all nodes or as its interior
    block: B_i ("weight") gives K_B, A_i' ("derivative") the Jacobian K_A'
    of the residual, and with shift 1/tau the flow's step matrix.  An
    (nc, 2) ``_cell_means`` receives each cell's mean weight over the rule,
    which the flow's V-cycle coarsens."""
    u = u_k if isinstance(u_k, FeFunction) else FeFunction(space, u_k)
    asm = _assembler(space)
    vals = np.empty((space.mesh.num_cells, *asm.products.shape[-2:]))
    for cells in _blocks(space.mesh):
        weights = _weights(u, law, clamp, shift, weight, cells)
        vals[cells] = contract(weights, asm.products, space.mesh, cells)
        if not np.all(np.isfinite(vals[cells])):
            raise FloatingPointError("non-finite weight in the weighted stiffness")
        if _cell_means is not None:
            _cell_means[cells] = weights.mean(axis=1)
    return asm.pattern(interior_only).assemble(vals)


def assemble_load(space, f):
    """Load vector for a source field f, checked by ``fespace._field_values``
    at the quadrature points; zero vector when f is None."""
    if f is None:
        return np.zeros(space.ndofs)
    pts, wts = space.rule_geometry(LOAD_DEGREE)
    shapes = space.shape_values(space.rule(LOAD_DEGREE).points)
    fv = _field_values(f, pts.reshape(-1, 2)).reshape(pts.shape[:2])
    contrib = np.einsum("cq,qa->ca", wts * fv, shapes)
    return np.bincount(space.mesh.cells.ravel(), weights=contrib.ravel(),
                       minlength=space.ndofs)


def energy(space, w, law):
    """J(w) = sum_i int of phi_i(|d_i w|) - phi_i(0).

    Subtracting phi_i(0) removes the constant delta-contribution, so
    the value is zero for w = 0 also in the regularized case.
    """
    u = w if isinstance(w, FeFunction) else FeFunction(space, w)
    phi1, phi2 = law.phi(0), law.phi(1)
    zero = phi1.value(0.0) + phi2.value(0.0)
    weights = _assembler(space).weights
    per_cell = np.empty(space.mesh.num_cells)
    for cells in _blocks(space.mesh):
        g = u.gradients_on_rule(GRADIENT_DEGREE, cells)
        dens = phi1.value(np.abs(g[..., 0])) + phi2.value(np.abs(g[..., 1])) - zero
        per_cell[cells] = contract(dens, weights, space.mesh, cells)
    return float(np.sum(per_cell))


def galerkin_residual(space, u, law, f=None):
    """Residual vector of the discrete nonlinear system at u.

    Entry a is  int of sum_i A_i(d_i u) d_i phi_a  -  int of f phi_a.  The
    caller restricts to interior nodes.
    """
    uf = u if isinstance(u, FeFunction) else FeFunction(space, u)
    weighted_grads = _assembler(space).weighted_grads
    contrib = np.empty(space.mesh.cells.shape)
    for cells in _blocks(space.mesh):
        g = uf.gradients_on_rule(GRADIENT_DEGREE, cells)
        flux = np.stack([law.flux(i, g[..., i]) for i in range(2)], axis=-1)
        # sum over points q and directions i of A_i(d_i u) W d_i phi_a
        contrib[cells] = contract(flux, weighted_grads, space.mesh, cells)
    res = np.bincount(space.mesh.cells.ravel(), weights=contrib.ravel(), minlength=space.ndofs)
    if f is not None:
        res -= assemble_load(space, f)
    return res


def flow_step(system, residual, interior, cg_cfg, precondition):
    """CG from zero on ``system`` delta = -residual[interior]: the
    correction over all nodes, zero on the boundary, and its iterations.
    ``system`` is the step matrix, ``residual`` the Galerkin residual at
    u^k over all nodes; ``precondition`` goes to ``cg_solve``."""
    delta = np.zeros(len(residual))
    delta[interior], iterations = cg_solve(system, -residual[interior], cg_cfg, precondition)
    return delta, iterations


class _Transfer:
    """From a space to ``coarse``, the same family at n // 2: nodal interpolation
    at the fine interior nodes in the padded-row layout (``vals``, ``cols``),
    and the coarse cell holding each fine cell's centroid (``parent``)."""

    def __init__(self, fine, coarse):
        self.coarse, self.dim = coarse, int(np.count_nonzero(coarse.interior))
        ids, shapes = coarse.point_shapes(fine.mesh.nodes[fine.interior])
        # a fine node on a coarse cell's edge has shape values zero up to rounding
        shapes[(np.abs(shapes) < STRUCTURAL_ZERO) | coarse.mesh.boundary[ids]] = 0.0
        # each row's nonzeros to its front, in order: a running count of a
        # row's nonzeros so far is the slot of its next one
        self.vals = np.zeros((np.count_nonzero(shapes, axis=1).max(), len(shapes)))
        self.cols = np.zeros(self.vals.shape, dtype=np.int64)
        renumber, slot = np.cumsum(coarse.interior) - 1, np.zeros(len(shapes), dtype=np.int64)
        for column, vertex in zip(shapes.T, ids.T):
            rows = np.flatnonzero(column)
            self.vals[slot[rows], rows] = column[rows]
            self.cols[slot[rows], rows] = renumber[vertex[rows]]
            slot[rows] += 1
        centroids, parents = fine.mesh.template.mean(axis=2), []
        for cells in _blocks(fine.mesh):  # in blocks and int32: less memory
            a, b, t, k = fine.mesh.decode(cells)
            parents.append(locate(coarse.mesh, fine.mesh.corners(a, b) + centroids[t, k])
                           .astype(np.int32))
        self.parent = np.concatenate(parents)
        self.counts = np.bincount(self.parent, minlength=coarse.mesh.num_cells)[:, None]
        _assembler(coarse).pattern(interior_only=True)

    def prolong(self, x):
        return np.einsum("ij,ij->j", self.vals, x.take(self.cols))

    def restrict(self, y):
        """The transpose of ``prolong``."""
        return np.bincount(self.cols.ravel(), weights=(self.vals * y).ravel(),
                           minlength=self.dim)

    def mean(self, weights):
        """Each coarse cell's mean of (nc, 2) weights over the fine cells it holds."""
        return np.stack([np.bincount(self.parent, weights=weights[:, i],
                                     minlength=len(self.counts)) for i in range(2)], -1) / self.counts


def _hierarchy(space):
    """Transfers through n // 2, n // 4, ... down to at most COARSEST interior
    unknowns; none for a space that has at most that many."""
    transfers, fine = [], space
    while np.count_nonzero(fine.interior) > COARSEST:
        transfers.append(_Transfer(fine, FeSpace(fine.mesh.coarsened())))
        fine = transfers[-1].coarse
    return transfers


def _vcycle(transfers, system, weights):
    """One V-cycle on the step matrix as a function r -> M r: one damped
    Jacobi step (SMOOTHING) before and one after each coarse correction,
    a dense inverse on the coarsest, so M is symmetric.  ``weights`` (nc, 2)
    are the fine cells' mean A_i' + shift, and a coarse weight is the mean
    of the finer weights over the finer cells it holds."""
    matrices = [system]
    for transfer in transfers:
        weights = transfer.mean(weights)
        coarse, asm = transfer.coarse, _assembler(transfer.coarse)
        at_points = np.repeat(weights[:, None, :], asm.weights.shape[-1], axis=1)
        matrices.append(asm.pattern(True).assemble(contract(at_points, asm.products, coarse.mesh)))
    coarsest = np.linalg.inv(matrices.pop().todense())
    coarsest = (coarsest + coarsest.T) / 2  # symmetric up to rounding
    levels = [(a, SMOOTHING / a.diagonal(), transfer) for a, transfer in zip(matrices, transfers)]

    def precondition(r):
        steps = []
        for a, smoother, transfer in levels:
            x = smoother * r
            steps.append((r, x))
            r = transfer.restrict(r - a.matvec(x))
        x = coarsest @ r
        for (a, smoother, transfer), (r, x0) in zip(levels[::-1], steps[::-1]):
            x = x0 + transfer.prolong(x)
            x += smoother * (r - a.matvec(x))
        return x

    return precondition


def _potential(space, u, law, load):
    """Phi(u) = J(u) - <F, u>, and the rounding the line search forgives."""
    j, work = energy(space, u, law), float(load @ u)
    return j - work, ROUNDING * (j + abs(work))


def solve(spec, cfg=None, start=None):
    """Run the damped Newton flow until the energy increment (and optional
    residual target) is met.

    The flow starts from ``start``, a coefficient vector of length
    ``ndofs`` whose boundary values are always replaced by the Dirichlet
    data.  A start of the wrong shape or with non-finite interior values
    raises ValueError.  With no start, the flow starts from the solution
    of the next coarser V-cycle level n // 2, solved first in the same way
    with ``cfg``, if that n is even (on an odd level with some p_i < 2 the
    flow can stall for all ``max_iter`` steps), else from zero interior
    values: nested iteration, or full multigrid (Brandt, Math. Comp. 31, 1977).
    The Dirichlet data is evaluated and checked (``fespace._field_values``)
    at the boundary nodes only, as only those values are used.

    Returns (FeFunction, SolveReport); the report's ``coarse`` holds the
    reports of the coarser levels, coarsest first.  A maximum-iteration
    breach, or a step rejected because no step length down to
    2^-MAX_BACKTRACKS passes the line search, returns the iterate with the
    smallest residual (start included) with ``converged=False``, on a
    coarser level too, whose iterate then starts the next; CG failures
    raise IterativeSolveError.
    """
    cfg = cfg or FlowConfig()
    space = spec.space
    if start is not None:
        start = np.array(start, dtype=float)
        if start.shape != (space.ndofs,):
            raise ValueError(f"start iterate has shape {start.shape}, "
                             f"expected ({space.ndofs},)")
        if not np.all(np.isfinite(start[space.interior])):
            raise ValueError("start iterate is not finite at some interior node")
    boundary = _field_values(spec.dirichlet, space.mesh.nodes[space.mesh.boundary])
    _assembler(space).pattern(interior_only=True)  # before the iterates: a lower peak
    solution, reports = _climb(spec, space, _hierarchy(space), cfg, start, boundary)
    report = reports.pop()
    report.coarse = tuple(reports)
    return solution, report


def _climb(spec, space, transfers, cfg, start, boundary):
    """The flow on ``space``, preconditioned through ``transfers``, from
    ``start``, or with none from the next coarser level's solution, solved
    on this path first, if its n is even, else from zero interior values;
    ``boundary``, the Dirichlet data, replaces the start on the boundary.
    Returns the solution and every solved level's report, coarsest first."""
    reports = []
    if start is None and transfers and transfers[0].coarse.mesh.n % 2 == 0:
        coarse = transfers[0].coarse
        solution, reports = _climb(spec, coarse, transfers[1:], cfg, None, _field_values(
            spec.dirichlet, coarse.mesh.nodes[coarse.mesh.boundary]))
        start = solution.evaluate(space.mesh.nodes)
    elif start is None:
        start = np.zeros(space.ndofs)
    start[space.mesh.boundary] = boundary
    solution, report = _flow(spec.law, space, spec.source, start, cfg, transfers)
    return solution, reports + [report]


def _flow(law, space, source, u, cfg, transfers):
    """The flow on ``space`` from the coefficients ``u``, which hold the
    Dirichlet data on the boundary, preconditioned by the V-cycle through
    ``transfers``; returns (FeFunction, SolveReport) as ``solve`` does."""
    interior = space.interior
    cg_cfg = CgConfig(tol=max(cfg.cg.tol, FORCING), max_iter=cfg.cg.max_iter)
    load = assemble_load(space, source)
    phi, rounding = _potential(space, u, law, load)
    residual = galerkin_residual(space, u, law) - load
    residual_norm = float(np.max(np.abs(residual[interior])))
    best_u, best_residual = u, residual_norm
    increments = []
    cg_total = 0
    converged = False
    # the step weights' mean per cell, which the V-cycle coarsens
    cell_weights = np.empty((space.mesh.num_cells, 2))

    for _ in range(cfg.max_iter):
        system = assemble_weighted_stiffness(space, u, law, cfg.clamp, interior_only=True,
                                             shift=1 / cfg.tau, weight="derivative",
                                             _cell_means=cell_weights)
        # the V-cycle is passed on, not kept: its matrices go with the CG call
        delta, iterations = flow_step(system, residual, interior, cg_cfg,
                                      _vcycle(transfers, system, cell_weights))
        cg_total += iterations
        slope = float(residual @ delta)  # <r(u^k), delta>, negative downhill
        for alpha in 0.5 ** np.arange(MAX_BACKTRACKS + 1):
            trial = u + alpha * delta
            trial_phi, trial_rounding = _potential(space, trial, law, load)
            if trial_phi <= phi + ARMIJO * alpha * slope + rounding:  # NaN fails too
                break
        else:
            break  # no step length passes: the step is rejected
        u, phi, rounding = trial, trial_phi, trial_rounding
        increments.append(energy(space, np.multiply(delta, alpha, out=delta), law))
        residual = galerkin_residual(space, u, law) - load
        residual_norm = float(np.max(np.abs(residual[interior])))
        if increments[-1] < cfg.tol and (cfg.residual_target is None
                                         or residual_norm < cfg.residual_target):
            converged = True
            break
        if residual_norm < best_residual:
            best_u, best_residual = u, residual_norm

    if not converged:
        u, residual_norm = best_u, best_residual
    report = SolveReport(converged, len(increments), increments, residual_norm, cg_total,
                         tau_schedule=[(0, cfg.tau)])
    return FeFunction(space, u), report
