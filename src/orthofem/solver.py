"""Nonlinear system assembly and the preconditioned semi-implicit flow.

Writing the flux as A_i(t) = B_i(t) t, each pseudo-time step freezes
the weights at the current iterate u^k and solves for a correction on
the interior nodes,

    (K_II / tau + K_B,II(u^k)) delta_I = -r_I(u^k),    u^{k+1} = u^k + delta,

with delta = 0 on the boundary, so the Dirichlet values of the start
iterate are kept.  K is the plain Laplacian stiffness (the
preconditioner term), K_B the weighted stiffness with entries
sum_i B_i(d_i u^k) d_i phi_a d_i phi_b, r the Galerkin residual, and
the subscript II marks the interior block, assembled directly on an
interior-only pattern: K/tau + K_B is one weighted stiffness, of weight
B_i(d_i u^k) + 1/tau.  K_B(u) u - F = r(u), so the step is
(K/tau + K_B) u^{k+1} = F + K u^k / tau in correction form.

The patterns store only the structurally nonzero pairs of the template:
a local pair whose products d_i phi_a d_i phi_b W stay below
STRUCTURAL_ZERO of the largest, in both directions at every point, gets
no slot, and its triplets share the discarded slot past the end.  Those
are the vertices across the hypotenuse of a right triangle with legs
along the axes, so the padded width is 5 on boxslash, alternating-kuhn
and unionjack, and 9 on cross and quad.

K, K_B, r and J integrate basis gradients on one rule,
``FeSpace.gradient_rule(GRADIENT_DEGREE)``, stored once per cell of the
per-square mesh template, each in one ``fespace.contract`` over all
cells, points and both directions: one point of weight |cell| for P1,
whose gradient is constant on the cell; tensor Gauss of degree 2 for
Q1, exact for its stiffness.  The load vector has a rule of its own.

A step only has to reduce the current residual, so CG solves for the
correction from zero to the relative tolerance FORCING on |r_I| (a
constant forcing term of an inexact Newton method, in the sense of
Eisenstat and Walker), or to the configured CG tolerance if that is
looser.  The iteration stops once the energy of the increment,

    J(w) = sum_i int of phi_i(|d_i w|) - phi_i(0),

falls below an absolute tolerance (optionally also requiring a small
Galerkin residual, which the increment alone does not guarantee).
"""

from dataclasses import dataclass, field

import numpy as np

from .fespace import FeFunction, contract
from .linalg import CgConfig, CsrPattern, cg_solve

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

GRADIENT_DEGREE = 2    # K, K_B, r and J; Q1 stiffness entries are quadratic per direction
STRUCTURAL_ZERO = 1e-12  # pair products below this, relative to the largest, are rounding
LOAD_DEGREE = 4
FORCING = 0.1          # CG tolerance of a step, relative to |r_I(u^k)|
MAX_TAU_HALVINGS = 20
RESIDUAL_GROWTH_FACTOR = 10.0   # residual growth over the best that halves tau


@dataclass
class ProblemSpec:
    """Problem data: growth law, space, Dirichlet trace, and source."""

    law: object
    space: object
    dirichlet: object          # callable on an (n, 2) point array
    source: object = None      # callable or None for f = 0


@dataclass
class FlowConfig:
    tau: float = 1.0
    tol: float = 1e-10                 # absolute energy-increment tolerance
    max_iter: int = 5000
    clamp: float = 1e-10
    cg: CgConfig = field(default_factory=CgConfig)
    residual_target: float | None = None

    def __post_init__(self):
        for name in ("tau", "tol", "clamp", "residual_target"):
            value = getattr(self, name)
            if value is not None and not value > 0:  # NaN fails too
                raise ValueError(f"{name} must be positive")
        if not self.max_iter >= 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    increments: list
    final_residual: float
    cg_iterations: int
    tau_schedule: list     # (outer iteration, tau) pairs, first entry at 0


class _Assembler:
    """Tables of the gradient rule for one space, and its sparsity patterns
    (of the interior block, which serves the flow, or of all nodes), each
    built once, when first asked for."""

    def __init__(self, space):
        self.space = space
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
        pairs; the triplets are broadcast from the cells, never stored."""
        if interior_only not in self._patterns:
            mesh = self.space.mesh
            _, _, t, k = mesh.decode(np.arange(mesh.num_cells))
            self._patterns[interior_only] = CsrPattern(
                self.space.ndofs, mesh.cells[:, :, None], mesh.cells[:, None, :],
                self.space.interior if interior_only else None, self.coupled[t, k])
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


def assemble_weighted_stiffness(space, u_k, law, clamp=1e-10, interior_only=False,
                                shift=0.0):
    """Stiffness weighted per direction by B_i at the gradient of u_k plus
    ``shift``, over all nodes or as its interior block: with shift 1/tau it
    is the flow's step matrix K/tau + K_B."""
    u = u_k if isinstance(u_k, FeFunction) else FeFunction(space, u_k)
    asm = _assembler(space)
    g = u.gradients_on_rule(GRADIENT_DEGREE)
    weights = np.stack([law.weight(i, g[..., i], clamp) + shift for i in range(2)], axis=-1)
    vals = contract(weights, asm.products, space.mesh)
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError("non-finite weight in the weighted stiffness")
    return asm.pattern(interior_only).assemble(vals)


def assemble_load(space, f):
    """Load vector for a source field, which may return one scalar; zero
    vector when f is None.  ValueError where the field is not finite."""
    if f is None:
        return np.zeros(space.ndofs)
    pts, wts = space.rule_geometry(LOAD_DEGREE)
    shapes = space.shape_values(space.rule(LOAD_DEGREE).points)
    fv = np.asarray(f(pts.reshape(-1, 2)), dtype=float)
    fv = np.full(pts.shape[:2], fv) if fv.ndim == 0 else fv.reshape(pts.shape[:2])
    if not np.all(np.isfinite(fv)):
        raise ValueError("source is not finite at some quadrature point")
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
    g = u.gradients_on_rule(GRADIENT_DEGREE)
    dens = phi1.value(np.abs(g[..., 0])) + phi2.value(np.abs(g[..., 1])) - zero
    return float(np.sum(contract(dens, _assembler(space).weights, space.mesh)))


def galerkin_residual(space, u, law, f=None):
    """Residual vector of the discrete nonlinear system at u.

    Entry a is  int of sum_i A_i(d_i u) d_i phi_a  -  int of f phi_a.  The
    caller restricts to interior nodes.
    """
    uf = u if isinstance(u, FeFunction) else FeFunction(space, u)
    g = uf.gradients_on_rule(GRADIENT_DEGREE)
    flux = np.stack([law.flux(i, g[..., i]) for i in range(2)], axis=-1)
    # sum over points q and directions i of A_i(d_i u) W d_i phi_a
    contrib = contract(flux, _assembler(space).weighted_grads, space.mesh)
    res = np.bincount(space.mesh.cells.ravel(), weights=contrib.ravel(),
                      minlength=space.ndofs)
    return res - assemble_load(space, f)


def flow_step(system, residual, u_k, interior, cg_cfg=None):
    """One semi-implicit step in correction form; returns (new
    coefficients, cg iterations).

    Solves ``system`` delta = -residual[interior] by CG from zero and adds
    delta to u_k on the interior nodes.  ``system`` is the step matrix
    K_II/tau + K_B,II(u_k), one weighted assembly of the interior block
    with weights B_i + 1/tau; ``residual`` is the Galerkin residual at
    u_k over all nodes.
    """
    delta, iterations = cg_solve(system, -residual[interior], cg_cfg)
    u_next = u_k.copy()
    u_next[interior] += delta
    return u_next, iterations


def solve(spec, cfg=None, start=None):
    """Run the gradient flow until the energy increment (and optional
    residual target) is met.

    The flow starts from ``start``, a coefficient vector of length
    ``ndofs`` whose boundary values are always replaced by the Dirichlet
    data, or from zero interior values when ``start`` is None.  A start
    of the wrong shape or with non-finite interior values raises
    ValueError.

    Returns (FeFunction, SolveReport).  A maximum-iteration breach
    returns the iterate with the smallest residual, start iterate
    included, with ``converged=False``; CG failures propagate as
    IterativeSolveError.
    """
    cfg = cfg or FlowConfig()
    space = spec.space
    law = spec.law
    boundary = space.mesh.boundary
    interior = space.interior

    g_vals = np.asarray(spec.dirichlet(space.mesh.nodes), dtype=float)
    if g_vals.ndim == 0:
        g_vals = np.full(space.ndofs, float(g_vals))
    if not np.all(np.isfinite(g_vals[boundary])):
        raise ValueError("Dirichlet data is not finite at some boundary node")
    start = np.zeros(space.ndofs) if start is None else np.asarray(start, dtype=float)
    if start.shape != (space.ndofs,):
        raise ValueError(f"start iterate has shape {start.shape}, "
                         f"expected ({space.ndofs},)")
    if not np.all(np.isfinite(start[interior])):
        raise ValueError("start iterate is not finite at some interior node")

    _assembler(space).pattern(interior_only=True)  # before the iterates: a lower peak
    cg_cfg = CgConfig(tol=max(cfg.cg.tol, FORCING), max_iter=cfg.cg.max_iter)
    u = np.where(boundary, g_vals, start)
    residual = galerkin_residual(space, u, law, spec.source)
    residual_norm = float(np.max(np.abs(residual[interior])))
    best_u, best_residual = u, residual_norm

    tau = cfg.tau
    tau_schedule = [(0, tau)]
    halvings = 0
    increments = []
    cg_total = 0
    converged = False

    for k in range(cfg.max_iter):
        system = assemble_weighted_stiffness(space, u, law, cfg.clamp,
                                             interior_only=True, shift=1 / tau)
        u_new, iterations = flow_step(system, residual, u, interior, cg_cfg)
        cg_total += iterations
        increment = energy(space, u_new - u, law)
        increments.append(increment)
        u = u_new
        residual = galerkin_residual(space, u, law, spec.source)
        residual_norm = float(np.max(np.abs(residual[interior])))
        if increment < cfg.tol and (cfg.residual_target is None
                                    or residual_norm < cfg.residual_target):
            converged = True
            break
        if (residual_norm > RESIDUAL_GROWTH_FACTOR * best_residual
                and halvings < MAX_TAU_HALVINGS):
            tau /= 2.0
            halvings += 1
            tau_schedule.append((k + 1, tau))
        if residual_norm < best_residual:
            best_u, best_residual = u, residual_norm

    if not converged:
        u, residual_norm = best_u, best_residual
    report = SolveReport(
        converged=converged,
        iterations=len(increments),
        increments=increments,
        final_residual=residual_norm,
        cg_iterations=cg_total,
        tau_schedule=tau_schedule,
    )
    return FeFunction(space, u), report
