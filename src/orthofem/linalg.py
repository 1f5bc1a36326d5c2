"""Minimal sparse linear algebra: padded-row sparse matrices and
preconditioned CG.

A ``CsrPattern`` is read off the per-square template of a structured mesh,
with no sort.  Every node is a half-lattice point j, and the template
tables repeat every two squares, so a node's star is that of its class
j mod 4: one scan of the template gives each class its coupled offsets,
ordered once by the column id they reach, which is the same order in every
row of the class.  The entries are laid out in the padded-row (ELLPACK)
format of Bell and Garland (SC '09): column j of a ``(width, dim)`` array
holds row j's slots, and slot s of a row is always its class's offset s.
Where a neighbour lies outside the domain or is dropped by the kept-node
mask, and past the offsets of a class with fewer, the slot points at the
row itself and holds zero; the diagonal is the class's own offset.  A zero
slot inside a row leaves the matvec's sums bit for bit as they are: they
run over the slots in order from +0.0, and a zero product adds exactly.
Each triplet (cell, a, b) finds its slot by broadcasting over the squares,
and one of an uncoupled pair or a dropped node shares the one discarded
slot past the end.  The flow's patterns drop the couplings that the
element makes structurally zero, so the width is the widest star of the
nonzero entries: 5 on boxslash, alternating-kuhn and unionjack, 9 on cross
and quad (``solver._Assembler``).  ``CsrMatrix.submatrix`` slices the padded arrays
of a matrix the same way, with no pattern build.  Every matrix on a
pattern shares its layout, so an assembly (one per flow step) is one
``bincount`` of the triplet values into their slots, and a matvec is one
``take`` and one ``einsum``; ``cg_solve`` reduces through ``einsum`` too,
and takes a preconditioner, by default Jacobi.
"""

import functools
import numbers
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
    """Sparsity pattern of the pairs of vertices that ``coupled``, a
    symmetric boolean (T, per, nv, nv) table over the cells of the
    per-square template (``StructuredMesh.offsets``) that couples each
    vertex to itself, marks in the cells of ``mesh``; with a boolean mask
    ``keep`` of the nodes, of its principal block on the kept nodes,
    renumbered in order.

    The pattern is read off the template by node class, the half-lattice
    position j mod 4: slot s of a row is its class's offset s, in column
    order, and a slot whose neighbour is absent points at the row and holds
    zero.  ``cols`` is the padded ``(width, dim)`` column array.
    ``target``, ``slots``, ``diag`` and ``transpose`` are flat positions in
    it: of each triplet (cell, a, b) in row-major order, of each entry in
    row-major order, of each row's diagonal and of each slot's transpose
    entry (itself in an unused slot).  Position ``width * dim``, one past
    the end, takes the triplets of uncoupled pairs and of dropped nodes.
    """

    def __init__(self, mesh, coupled, keep=None):
        offsets = mesh.offsets  # (T, per, nv, 2)
        coupled = np.asarray(coupled)
        nv, side = offsets.shape[2], 2 * mesh.squares + 1
        if (coupled.dtype != bool or coupled.shape != offsets.shape[:3] + (nv,)
                or not np.array_equal(coupled, coupled.swapaxes(2, 3))
                or not np.diagonal(coupled, axis1=2, axis2=3).all()):
            raise ValueError("coupled must be a symmetric boolean table of the template's "
                             "pairs, true on the diagonal")
        j1, j2 = mesh.half_lattice().T
        nodes = len(j1)
        keep = _node_mask(keep, nodes)
        renumber = np.cumsum(keep) - 1
        dim = int(np.count_nonzero(keep))
        j1, j2 = j1[keep], j2[keep]
        # the squares (a, b) of one period, {0, 1}^2 by (b, a): the class
        # 4 (j1 mod 4) + j2 mod 4 of each pair's row vertex, and its offset
        # (of the column vertex, from the row vertex) + 2
        b, a = np.divmod(np.arange(4), 2)
        table = (a + b) % len(offsets)
        vertex = 2 * np.stack([a, b], axis=-1)[:, None, None] + offsets[table]
        pairs = coupled[table]
        row_class = np.broadcast_to((vertex[..., 0] % 4 * 4 + vertex[..., 1] % 4)[..., None],
                                    pairs.shape)
        step = vertex[:, :, None, :, :] - vertex[:, :, :, None, :] + 2
        star = np.zeros((16, 5, 5), dtype=bool)  # each class's offsets, + 2
        star[row_class[pairs], step[..., 0][pairs], step[..., 1][pairs]] = True
        # a class's offsets in the order of the column ids they reach: ids
        # run by (j2, j1), except that where not every half-lattice point is
        # a node, square centres (odd j1) follow the corners
        e1, e2 = np.divmod(np.arange(25), 5)
        late = (np.arange(16)[:, None] // 4 + e1) % 2 * (nodes < side ** 2)
        key = (25 * late + 5 * e2 + e1).reshape(16, 5, 5)
        rank = ((key[:, None, None] < key[..., None, None]) & star[:, None, None]).sum(axis=(3, 4))
        width = int(star.sum(axis=(1, 2)).max(initial=0))
        # per slot (rank) and class: the step on the id grid, whether it is
        # an offset, and the slot of its transpose entry
        cls, e1, e2 = np.nonzero(star)
        s = rank[cls, e1, e2]
        grid_step = np.zeros((width, 16), dtype=np.int64)
        grid_step[s, cls] = (e1 - 2) * (side + 4) + e2 - 2
        valid = np.zeros((width, 16), dtype=bool)
        valid[s, cls] = True
        mirror = np.zeros((width, 16), dtype=np.int64)
        mirror[s, cls] = rank[(cls // 4 + e1 - 2) % 4 * 4 + (cls % 4 + e2 - 2) % 4, 4 - e1, 4 - e2]
        # the renumbered ids on the half lattice, with a margin of 2 without nodes
        grid = np.full((side + 4) ** 2, -1, dtype=np.int64)
        place = (j1 + 2) * (side + 4) + j2 + 2
        grid[place] = np.arange(dim)
        node_class = (j1 & 3) << 2 | j2 & 3  # 4 (j1 mod 4) + j2 mod 4
        del j1, j2
        cols = grid_step.take(node_class, axis=1)
        cols += place
        grid.take(cols, out=cols, mode="clip")  # in place; the margin keeps every step in
        present = valid.take(node_class, axis=1)
        present &= cols >= 0  # a neighbour outside the domain or dropped
        del grid, place
        ids = np.arange(dim)
        np.copyto(cols, ids, where=~present)  # an absent slot points at the row
        self.dim, self.cols = dim, cols
        self.diag = rank[node_class, 2, 2] * dim + ids
        self.transpose = np.where(present, mirror.take(node_class, axis=1),
                                  np.arange(width)[:, None])
        self.transpose *= dim
        self.transpose += cols
        absent = np.append(~present, True)  # of each slot, and the end
        del ids, present
        # each triplet's position, square by square: the slot of its offset
        # in the class of its row, width past the last for an uncoupled pair,
        # and a dropped row past them all
        slot = np.where(pairs, rank[row_class, step[..., 0], step[..., 1]], width) * dim
        rows = np.where(keep, renumber, width * dim)[mesh.cells].ravel()
        line = np.empty((2, mesh.squares, slot[0].size), dtype=np.int64)  # a row of squares
        for k in range(4):
            line[b[k], a[k]::2] = slot[k].ravel()
        target = np.repeat(rows, nv).reshape(mesh.squares, *line.shape[1:])
        for parity in (0, 1):
            target[parity::2] += line[parity]
        self.target = target.ravel()
        del rows, line
        # the end takes those and a dropped column's triplets
        self.target[absent.take(self.target, mode="clip")] = width * dim

    @functools.cached_property
    def slots(self):
        """The flat positions of the stored entries, row by row: each row's
        diagonal and every slot that points at another row.  Only the
        entries' reader needs them, not the flow."""
        stored = self.cols != np.arange(self.dim)
        stored.flat[self.diag] = True
        return np.arange(stored.size).reshape(stored.shape).T[stored.T]

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
        if x.shape != (self.dim,):
            raise ValueError(f"x must have shape ({self.dim},), got {x.shape}")
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
        """Principal submatrix on the True entries of a boolean mask, sliced
        from the padded arrays: the kept rows, their slots in place, with a
        dropped column's slot unused, and the kept columns renumbered.  Its
        pattern's ``target`` takes this matrix's entries, row by row."""
        pattern, dim = self.pattern, self.dim
        keep = _node_mask(keep, dim)
        renumber = np.cumsum(keep) - 1
        sub = CsrPattern.__new__(CsrPattern)
        sub.dim = int(np.count_nonzero(keep))
        width, rows = len(pattern.cols), np.arange(sub.dim)
        cols = pattern.cols[:, keep]
        present = keep[cols]
        sub.cols = np.where(present, renumber[cols], rows)
        sub.diag = pattern.diag[keep] // dim * sub.dim + rows
        # a transpose entry lies in the row of the column, at slot
        # transpose // dim: width, past the slots, where none is stored
        transpose = np.where(present, pattern.transpose[:, keep] // dim, np.arange(width)[:, None])
        sub.transpose = np.minimum(transpose * sub.dim + sub.cols, width * sub.dim)
        slot, row = np.divmod(pattern.slots, dim)
        sub.target = np.where(keep[row] & keep[pattern.cols.take(pattern.slots)],
                              slot * sub.dim + renumber[row], width * sub.dim)
        return CsrMatrix(sub, np.where(present, self.values[:, keep], 0.0))


def _node_mask(keep, dim):
    """A boolean mask of ``dim`` nodes: all of them where ``keep`` is None."""
    if keep is None:
        return np.ones(dim, dtype=bool)
    keep = np.asarray(keep)
    if keep.dtype != bool or keep.shape != (dim,):
        raise ValueError(f"keep must be a boolean mask of shape ({dim},)")
    return keep


@dataclass
class CgConfig:
    """Tolerance is on the relative residual |b - Ax| / |b|."""

    tol: float = 1e-12
    max_iter: int | None = None  # defaults to 10 * dim

    def __post_init__(self):
        if not 0 < self.tol < 1:
            raise ValueError(f"cg_tol must lie in (0, 1), got {self.tol}")
        if self.max_iter is not None:
            _check_max_iter(self.max_iter)


def _check_max_iter(max_iter):
    """Raise ValueError unless ``max_iter`` is an integer of at least 1."""
    if not isinstance(max_iter, numbers.Integral) or max_iter < 1:
        raise ValueError(f"max_iter must be an integer of at least 1, got {max_iter!r}")


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
    if b.shape != (a.dim,):
        raise ValueError(f"b must have shape ({a.dim},), got {b.shape}")
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
