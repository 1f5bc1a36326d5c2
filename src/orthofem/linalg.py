"""Minimal sparse linear algebra: padded-row sparse matrices and
preconditioned CG.

A ``CsrPattern`` is built once from COO triplet indices, an optional mask
of kept nodes and an optional mask of kept triplets.  One sort of the
row-major keys finds the distinct entries, which are laid out row by row
in the padded-row (ELLPACK) format of Bell and Garland (SC '09): column j
of a ``(width, dim)`` array holds row j's entries in column order, every
row has a slot for its diagonal, and unused slots point at the row itself
and hold zero.  A dropped triplet, whether it touches a dropped node or is
masked itself, shares the one discarded slot past the end.  The flow's
patterns drop the couplings that the element makes structurally zero, so
the width is that of the nonzero entries: 5 on boxslash, alternating-kuhn
and unionjack, 9 on cross and quad (``solver._Assembler``).  Every matrix on
a pattern shares its layout, so an assembly (one per flow step) is one
``bincount`` of the triplet values into their slots, and a matvec is
one ``take`` and one ``einsum``; ``cg_solve`` reduces through ``einsum``
too, and takes a preconditioner, by default Jacobi.
"""

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CsrMatrix",
    "CsrPattern",
    "CgConfig",
    "IterativeSolveError",
    "cg_solve",
]


class IterativeSolveError(RuntimeError):
    """CG failed; carries the final relative residual and iteration count."""

    def __init__(self, message, residual, iterations):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class CsrPattern:
    """Reusable sparsity pattern built from triplet indices ``rows`` and
    ``cols``, which broadcast against each other (triplets in the row-major
    order of the broadcast shape); with a boolean mask ``keep``, of their
    principal block on the kept nodes, renumbered in order.  A boolean
    ``where``, broadcast the same way, drops each triplet where it is False,
    as it drops one that touches a node outside ``keep``.  ``cols`` is the
    padded ``(width, dim)`` column array.  ``target``, ``slots``, ``diag``
    and ``transpose`` are flat positions in it: of each input triplet, of
    each distinct entry in row-major order, of each row's diagonal and of
    each slot's transpose entry.  Position ``width * dim``, one past the
    end, takes dropped triplets and missing transpose entries.
    """

    def __init__(self, dim, rows, cols, keep=None, where=None):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        for index in (rows, cols):
            if index.size and (index.min() < 0 or index.max() >= dim):
                raise IndexError("triplet index out of range")
        where = np.asarray(True if where is None else where)
        if where.dtype != bool:
            raise ValueError("where must be a boolean mask of the triplets")
        if keep is not None:
            keep = np.asarray(keep)
            if keep.dtype != bool or keep.shape != (dim,):
                raise ValueError(f"keep must be a boolean mask of shape ({dim},)")
            renumber = np.cumsum(keep) - 1
            dim = int(np.count_nonzero(keep))
            where = where & keep[rows] & keep[cols]
            rows, cols = renumber[rows], renumber[cols]
        keys = rows * dim + cols  # row-major, in the broadcast shape of the triplets
        np.copyto(keys, dim * dim, where=~where)  # a dropped triplet sorts last
        keys = keys.ravel()
        del rows, cols, where  # before the sort
        self.dim = dim
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.ones(len(keys), dtype=np.int64)  # int64: cumsum counts it in place
        first[1:] = keys[1:] != keys[:-1]
        keys = keys[(first == 1) & (keys < dim * dim)]  # the distinct kept entries
        first[:1] = 0  # so that the count below numbers entries from 0
        entry = np.empty_like(order)  # of each triplet, in input order
        entry[order] = np.cumsum(first, out=first)
        del order, first
        r, c = np.divmod(keys, dim)
        counts = np.bincount(r, minlength=dim)
        slot = np.arange(len(r)) - (np.cumsum(counts) - counts)[r]
        self.slots = slot * dim + r
        diag = counts.copy()  # a row without a diagonal entry gets a zero slot
        diag[r[r == c]] = slot[r == c]
        width = int(np.maximum(counts, diag + 1).max(initial=0))
        self.target = np.append(self.slots, width * dim)[entry]
        del entry
        ids = np.arange(dim)
        self.diag = diag * dim + ids
        self.cols = np.tile(ids, (width, 1))
        np.put(self.cols, self.slots, c)
        tkeys = c * dim + r
        del slot, diag, r, c  # before the transpose map's temporaries
        pos = np.searchsorted(keys, tkeys)
        pos[keys.take(pos, mode="clip") != tkeys] = len(keys)  # not stored
        self.transpose = np.arange(width * dim).reshape(width, dim)
        np.put(self.transpose, self.slots, np.append(self.slots, width * dim)[pos])

    def assemble(self, vals):
        """Sum the triplet values, one per input triplet in its order, into a
        CsrMatrix: one ``bincount`` into their slots."""
        vals = np.asarray(vals, dtype=float).ravel()
        if len(vals) != len(self.target):
            raise ValueError("the triplet values do not match the pattern")
        sums = np.bincount(self.target, weights=vals, minlength=self.cols.size + 1)
        return CsrMatrix(self, sums[:-1].reshape(self.cols.shape))


class CsrMatrix:
    """Square sparse matrix on a CsrPattern: ``values[k, j]`` (read-only)
    is the entry of row j in column ``pattern.cols[k, j]``."""

    def __init__(self, pattern, values):
        values = np.asarray(values, dtype=float).view()
        if values.shape != pattern.cols.shape:
            raise ValueError("values do not match the sparsity pattern")
        values.flags.writeable = False
        self.pattern, self.values, self.dim = pattern, values, pattern.dim

    @property
    def nnz(self):
        return len(self.pattern.slots)

    def matvec(self, x):
        x = np.asarray(x, dtype=float)
        return np.einsum("ij,ij->j", self.values, x.take(self.pattern.cols))

    def diagonal(self):
        return self.values.take(self.pattern.diag)

    def entries(self):
        """Rows, columns and values of the stored entries, row by row."""
        slots = self.pattern.slots
        return slots % self.dim, self.pattern.cols.take(slots), self.values.take(slots)

    def todense(self):
        out = np.zeros((self.dim, self.dim))
        rows, cols, vals = self.entries()
        out[rows, cols] = vals
        return out

    def submatrix(self, keep):
        """Principal submatrix on the True entries of a boolean mask."""
        rows, cols, vals = self.entries()
        return CsrPattern(self.dim, rows, cols, keep).assemble(vals)


@dataclass
class CgConfig:
    """Tolerance is on the relative residual |b - Ax| / |b|."""

    tol: float = 1e-12
    max_iter: int | None = None  # defaults to 10 * dim

    def __post_init__(self):
        if not 0 < self.tol < 1:
            raise ValueError(f"cg_tol must lie in (0, 1), got {self.tol}")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


def _dot(u, v):
    """Inner product through einsum, which never wakes the BLAS threads."""
    return float(np.einsum("i,i->", u, v))


def _check_symmetric(a, rtol=1e-10):
    """|a_ij - a_ji| <= rtol * max|a| entrywise; a missing entry is zero."""
    transpose = a.pattern.transpose
    gap = a.values.take(transpose, mode="clip")
    gap[transpose == a.values.size] = 0.0  # the end slot: no transpose entry
    np.abs(np.subtract(a.values, gap, out=gap), out=gap)
    scale = max(a.values.max(initial=0.0), -a.values.min(initial=0.0))
    if gap.max(initial=0.0) > rtol * scale:
        raise ValueError("matrix is not symmetric; CG needs A = A^T")


def cg_solve(a, b, cfg=None, precondition=None):
    """Preconditioned conjugate gradients for SPD systems, from zero.

    ``precondition`` maps r to M r, M symmetric positive definite; None is
    Jacobi.  Returns ``(x, iterations)``; raises IterativeSolveError when
    the iteration budget is exhausted before the relative residual drops
    below the configured tolerance, and ValueError for a non-finite b.  A
    call costs one matvec and one preconditioner per iteration.
    """
    cfg = cfg or CgConfig()
    _check_symmetric(a)
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side is not finite")
    max_iter = cfg.max_iter if cfg.max_iter is not None else 10 * a.dim
    diag = a.diagonal()
    if np.any(diag <= 0):
        raise ValueError("nonpositive diagonal entry; matrix is not SPD")
    if precondition is None:
        precondition = functools.partial(np.multiply, 1.0 / diag)
    bb = _dot(b, b)
    if bb == 0.0:
        return np.zeros_like(b), 0
    x, r = np.zeros_like(b), b.copy()
    z = precondition(r)
    p = z.copy()
    rz, rr = _dot(r, z), _dot(r, r)
    iterations = 0
    while rr > cfg.tol ** 2 * bb:
        if iterations >= max_iter:
            residual = np.sqrt(rr / bb)
            raise IterativeSolveError(
                f"cg did not converge in {max_iter} iterations "
                f"(relative residual {residual:.3e})",
                residual=residual, iterations=iterations)
        ap = a.matvec(p)
        alpha = rz / _dot(p, ap)
        x += np.multiply(alpha, p, out=z)  # z is scratch until recomputed
        r -= np.multiply(alpha, ap, out=ap)
        z = precondition(r)
        rz_new = _dot(r, z)
        p *= rz_new / rz
        p += z
        rz, rr = rz_new, _dot(r, r)
        iterations += 1
    return x, iterations
