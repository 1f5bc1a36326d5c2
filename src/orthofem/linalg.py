"""Minimal sparse linear algebra: CSR matrices and preconditioned CG.

Assembly from COO triplets uses a lexicographic sort with duplicate
summing; the sort/segment data can be kept as a ``CsrPattern`` so that
repeated assemblies on a fixed mesh (one per gradient-flow step) only
pay for a gather and a segmented reduction.
"""

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
    """Reusable sparsity pattern built from triplet indices."""

    def __init__(self, dim, rows, cols):
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        if rows.shape != cols.shape:
            raise ValueError("row/col index arrays must have equal length")
        if len(rows) and (rows.min() < 0 or rows.max() >= dim
                          or cols.min() < 0 or cols.max() >= dim):
            raise IndexError("triplet index out of range")
        self.dim = dim
        self.order = np.lexsort((cols, rows))
        r, c = rows[self.order], cols[self.order]
        if len(r):
            first = np.empty(len(r), dtype=bool)
            first[0] = True
            first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
            self.segments = np.flatnonzero(first)
            self.rows = r[self.segments]
            self.cols = c[self.segments]
        else:
            self.segments = np.empty(0, dtype=np.int64)
            self.rows = np.empty(0, dtype=np.int64)
            self.cols = np.empty(0, dtype=np.int64)
        counts = np.bincount(self.rows, minlength=dim)
        self.indptr = np.concatenate([[0], np.cumsum(counts)])

    def assemble(self, vals):
        """Sum triplet values (in original order) into a CsrMatrix."""
        vals = np.asarray(vals, dtype=float).ravel()
        if len(self.order) == 0:
            data = np.zeros(0)
        else:
            data = np.add.reduceat(vals[self.order], self.segments)
        return CsrMatrix(self.dim, self.indptr, self.cols, data, rows=self.rows)


class CsrMatrix:
    """Square sparse matrix in CSR form with sorted column indices."""

    def __init__(self, dim, indptr, indices, values, rows=None):
        self.dim = dim
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=float)
        if rows is None:
            rows = np.repeat(np.arange(dim), np.diff(self.indptr))
        self._rows = rows

    @property
    def nnz(self):
        return len(self.values)

    def matvec(self, x):
        x = np.asarray(x, dtype=float)
        return np.bincount(self._rows, weights=self.values * x[self.indices],
                           minlength=self.dim)

    def diagonal(self):
        mask = self._rows == self.indices
        return np.bincount(self._rows[mask], weights=self.values[mask],
                           minlength=self.dim)

    def todense(self):
        out = np.zeros((self.dim, self.dim))
        out[self._rows, self.indices] = self.values
        return out

    def with_values(self, values):
        """Matrix on the same sparsity pattern with other values."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.values.shape:
            raise ValueError("values do not match the sparsity pattern")
        return CsrMatrix(self.dim, self.indptr, self.indices, values, rows=self._rows)

    def submatrix(self, keep):
        """Principal submatrix on the True entries of a boolean mask."""
        keep = np.asarray(keep, dtype=bool)
        renumber = -np.ones(self.dim, dtype=np.int64)
        idx = np.flatnonzero(keep)
        renumber[idx] = np.arange(len(idx))
        mask = keep[self._rows] & keep[self.indices]
        rows = renumber[self._rows[mask]]
        cols = renumber[self.indices[mask]]
        counts = np.bincount(rows, minlength=len(idx))
        # entries stay sorted by (row, col) under monotone renumbering
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return CsrMatrix(len(idx), indptr, cols, self.values[mask], rows=rows)


@dataclass
class CgConfig:
    """Tolerance is on the relative residual |b - Ax| / |b|."""

    tol: float = 1e-12
    max_iter: int | None = None  # defaults to 10 * dim

    def __post_init__(self):
        if not 0 < self.tol < 1:
            raise ValueError("cg tolerance must lie in (0, 1)")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


def _check_symmetric(a, rtol=1e-10):
    rng = np.random.default_rng(12345)
    u = rng.standard_normal(a.dim)
    v = rng.standard_normal(a.dim)
    left = u @ a.matvec(v)
    right = v @ a.matvec(u)
    vmax = np.abs(a.values).max() if len(a.values) else 0.0
    scale = vmax * np.linalg.norm(u) * np.linalg.norm(v) + 1e-300
    if abs(left - right) > rtol * scale:
        raise ValueError("matrix fails the symmetry probe; CG needs A = A^T")


def cg_solve(a, b, cfg=None, x0=None, callback=None):
    """Jacobi-preconditioned conjugate gradients for SPD systems.

    Returns ``(x, iterations)``; raises IterativeSolveError when the
    iteration budget is exhausted before the relative residual drops
    below the configured tolerance.  ``callback``, if given, receives
    the current iterate after every iteration.  A call costs one matvec
    per iteration, two for the symmetry probe, and one more only for a
    start iterate ``x0``.
    """
    cfg = cfg or CgConfig()
    _check_symmetric(a)
    b = np.asarray(b, dtype=float)
    max_iter = cfg.max_iter if cfg.max_iter is not None else 10 * a.dim
    diag = a.diagonal()
    if np.any(diag <= 0):
        raise ValueError("nonpositive diagonal entry; matrix is not SPD")
    if x0 is None:
        x, r = np.zeros_like(b), b.copy()
    else:
        x = np.asarray(x0, dtype=float).copy()
        r = b - a.matvec(x)
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros_like(b), 0
    z = r / diag
    p = z.copy()
    rz = r @ z
    iterations = 0
    while np.linalg.norm(r) > cfg.tol * norm_b:
        if iterations >= max_iter:
            raise IterativeSolveError(
                f"cg did not converge in {max_iter} iterations "
                f"(relative residual {np.linalg.norm(r) / norm_b:.3e})",
                residual=np.linalg.norm(r) / norm_b,
                iterations=iterations,
            )
        ap = a.matvec(p)
        alpha = rz / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        z = r / diag
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
        iterations += 1
        if callback is not None:
            callback(x.copy())
    return x, iterations
