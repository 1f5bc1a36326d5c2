"""Manufactured solution, orthotropic error functionals, and EOC rates.

With q_i the Hoelder conjugates of the growth exponents, the field

    u(x) = |x_1|^{q_1} / q_1  -  |x_2|^{q_2} / q_2

has coordinate fluxes A_1(d_1 u) = x_1 and A_2(d_2 u) = -x_2, so its
orthotropic divergence vanishes identically and it serves as the exact
solution for every convergence study (with its own trace as Dirichlet
data).

Errors are reported as the split gradient norms e_{p_i}, the natural
distance e_V = ||V(grad u) - V(grad u_h)||_{L^2}, and, when the two
exponents agree, the combined norm || ||grad(u-u_h)||_{l^p} ||_{L^p},
integrated with the space's rule: tensor Gauss on quads, the collapsed
(Duffy) rule on triangles.  The field is orthotropic: d_i u depends on x_i
alone (``ManufacturedSolution.partial``), and a quadrature point's x_i is
its lattice line's coordinate plus a template point, so ``error_norms``
tabulates d_i u and V_i(d_i u) once per lattice line, template cell and
rule point, and each cell gathers its rows from those tables.
Rates are measured against dim V_h, i.e. log(e''/e') / log(dim''/dim'),
which is about -1/2 for first-order convergence in two dimensions.
"""

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .nfunc import conjugate_exponent

__all__ = [
    "ManufacturedSolution",
    "ErrorReport",
    "ConvergenceTable",
    "TableRow",
    "error_norms",
    "eoc",
]

ERROR_BLOCK_CELLS = 4096   # bounds the temporaries of error_norms
ERROR_DEGREE = 5           # Gauss degree of error_norms, the CLI's default quad_degree


class ManufacturedSolution:
    """Closed-form exact solution attached to a growth law."""

    def __init__(self, law):
        self.law = law
        self.q1, self.q2 = (conjugate_exponent(p) for p in law.exponents)

    def value(self, points):
        points = np.asarray(points, dtype=float)
        x, y = points[..., 0], points[..., 1]
        return np.abs(x) ** self.q1 / self.q1 - np.abs(y) ** self.q2 / self.q2

    def partial(self, i, t):
        """d_i u as a function of x_i = t alone, for the direction i in (0, 1):
        sign(t) |t|^(q_1 - 1) and -sign(t) |t|^(q_2 - 1)."""
        t = np.asarray(t, dtype=float)
        if i == 0:
            return np.sign(t) * np.abs(t) ** (self.q1 - 1)
        return -np.sign(t) * np.abs(t) ** (self.q2 - 1)

    def grad(self, points):
        points = np.asarray(points, dtype=float)
        return np.stack([self.partial(i, points[..., i]) for i in (0, 1)], axis=-1)


@dataclass(frozen=True)
class ErrorReport:
    e_p1: float
    e_p2: float
    e_V: float
    e_comb: float | None   # only for p1 == p2


ERROR_COLUMNS = tuple(f.name for f in fields(ErrorReport))


def error_norms(u_h, ms, law, degree=ERROR_DEGREE):
    """Orthotropic error functionals of a discrete solution.

    All integrands are evaluated with the space's rule of the given degree
    (tensor Gauss on quads, the collapsed (Duffy) rule on triangles); V is
    always the unregularized natural-distance map.  The exact side is read
    from ``ms.partial(i, t)``, d_i u as a function of x_i alone: a
    quadrature point's x_i is its square's corner plus a template point, so
    d_i u and V_i(d_i u) are tabulated once per call on the lattice's lines,
    shaped (squares, J, nq) for the J template cells and nq rule points, and
    each cell gathers its rows by (a or b, template cell).  The integrals
    are summed over blocks of ERROR_BLOCK_CELLS cells.
    """
    space = u_h.space
    mesh = space.mesh
    p1, p2 = law.exponents
    points, weights = space.template_rule(degree)  # (J, nq, 2), (J, nq)
    lines = np.arange(mesh.squares)
    corners = mesh.corners(lines, lines)  # x_1 of column a, x_2 of row b
    exact, natural = [], []  # per direction, d_i u and V_i(d_i u) at rows a J + j
    for i in (0, 1):
        g = ms.partial(i, points[None, :, :, i] + corners[:, i, None, None])
        exact.append(g.reshape(-1, g.shape[-1]))
        natural.append(law.natural(i, exact[-1]))
    per, template = mesh.num_cells // mesh.squares ** 2, len(points)
    sum_p1 = sum_p2 = sum_v = 0.0
    for start in range(0, mesh.num_cells, ERROR_BLOCK_CELLS):
        cells = slice(start, start + ERROR_BLOCK_CELLS)
        a, b, t, k = mesh.decode(cells)
        j = t * per + k
        rows = a * template + j, b * template + j
        wts = weights.take(j, axis=0)
        gu = u_h.gradients_on_rule(degree, cells)
        ge1, ge2 = (exact[i].take(rows[i], axis=0) for i in (0, 1))
        sum_p1 += float(np.sum(wts * np.abs(ge1 - gu[..., 0]) ** p1))
        sum_p2 += float(np.sum(wts * np.abs(ge2 - gu[..., 1]) ** p2))
        v1 = natural[0].take(rows[0], axis=0) - law.natural(0, gu[..., 0])
        v2 = natural[1].take(rows[1], axis=0) - law.natural(1, gu[..., 1])
        sum_v += float(np.sum(wts * (v1 ** 2 + v2 ** 2)))
    e_comb = (sum_p1 + sum_p2) ** (1 / p1) if p1 == p2 else None
    return ErrorReport(sum_p1 ** (1 / p1), sum_p2 ** (1 / p2), math.sqrt(sum_v), e_comb)


def eoc(dim_prev, e_prev, dim_curr, e_curr):
    """Experimental order of convergence against space dimension."""
    if min(dim_prev, dim_curr) <= 0 or dim_curr <= dim_prev:
        raise ValueError("dimensions must be positive and increasing")
    if e_prev <= 0 or e_curr <= 0:
        raise ValueError("errors must be positive to measure a rate")
    return math.log(e_curr / e_prev) / math.log(dim_curr / dim_prev)


@dataclass
class TableRow:
    dim: int
    errors: dict                      # column name -> float (subset of ERROR_COLUMNS)
    rates: dict = field(default_factory=dict)  # column name -> float or None


class ConvergenceTable:
    """Rows of (dim V_h, errors, rates) for one refinement study."""

    def __init__(self):
        self.rows = []
        self.complete = True

    def add_row(self, dim, errors, rates=None):
        if self.rows and dim <= self.rows[-1].dim:
            raise ValueError("dim must be strictly increasing")
        errors = {k: errors[k] for k in ERROR_COLUMNS if errors.get(k) is not None}
        if rates is None:
            rates = {}
            if self.rows:
                prev = self.rows[-1]
                for key, val in errors.items():
                    if key in prev.errors:
                        rates[key] = eoc(prev.dim, prev.errors[key], dim, val)
        self.rows.append(TableRow(dim, errors, rates))

    def add_report(self, dim, report):
        self.add_row(dim, asdict(report))

    def column(self, name):
        """(dim, value) pairs for an error column."""
        return [(r.dim, r.errors[name]) for r in self.rows if name in r.errors]

    def rate_column(self, name):
        """(dim, rate) pairs, starting from the second row."""
        return [(r.dim, r.rates[name]) for r in self.rows if name in r.rates]
