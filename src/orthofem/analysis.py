"""Manufactured solution, orthotropic error functionals, and EOC rates.

With q_i the Hoelder conjugates of the growth exponents, the field

    u(x) = |x_1|^{q_1} / q_1  -  |x_2|^{q_2} / q_2

has coordinate fluxes A_1(d_1 u) = x_1 and A_2(d_2 u) = -x_2, so its
orthotropic divergence vanishes identically and it serves as the exact
solution for every convergence study (with its own trace as Dirichlet
data).

Errors are reported as the split gradient norms e_{p_i}, the natural
distance e_V = ||V(grad u) - V(grad u_h)||_{L^2}, and, when the two
exponents agree, the combined norm || ||grad(u-u_h)||_{l^p} ||_{L^p}.
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

    def grad(self, points):
        points = np.asarray(points, dtype=float)
        x, y = points[..., 0], points[..., 1]
        g1 = np.sign(x) * np.abs(x) ** (self.q1 - 1)
        g2 = -np.sign(y) * np.abs(y) ** (self.q2 - 1)
        return np.stack([g1, g2], axis=-1)


@dataclass(frozen=True)
class ErrorReport:
    e_p1: float
    e_p2: float
    e_V: float
    e_comb: float | None   # only for p1 == p2


ERROR_COLUMNS = tuple(f.name for f in fields(ErrorReport))


def error_norms(u_h, ms, law, degree=ERROR_DEGREE):
    """Orthotropic error functionals of a discrete solution.

    All integrands are evaluated with a per-element Gauss rule of the
    given degree; V is always the unregularized natural-distance map.
    The integrals are summed over blocks of ERROR_BLOCK_CELLS cells.
    """
    space = u_h.space
    p1, p2 = law.exponents
    sum_p1 = sum_p2 = sum_v = 0.0
    for start in range(0, space.mesh.num_cells, ERROR_BLOCK_CELLS):
        cells = slice(start, start + ERROR_BLOCK_CELLS)
        pts, wts = space.rule_geometry(degree, cells)
        gu = u_h.gradients_on_rule(degree, cells)
        ge = ms.grad(pts)
        sum_p1 += float(np.sum(wts * np.abs(ge[..., 0] - gu[..., 0]) ** p1))
        sum_p2 += float(np.sum(wts * np.abs(ge[..., 1] - gu[..., 1]) ** p2))
        v1 = law.natural(0, ge[..., 0]) - law.natural(0, gu[..., 0])
        v2 = law.natural(1, ge[..., 1]) - law.natural(1, gu[..., 1])
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
