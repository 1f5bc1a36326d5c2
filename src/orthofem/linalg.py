"""Minimal sparse linear algebra: padded-row sparse matrices and
preconditioned CG.

A ``CsrPattern`` is read off the per-square template of a structured mesh,
with no sort.  Every node is a half-lattice point j, and the template
tables repeat every two squares, so a node's star is that of its class
j mod 4: one scan of the template gives each class its coupled offsets,
ordered once by the column id they reach, which is the same order in every
row of the class.  The entries are laid out in the padded-row (ELLPACK)
format of Bell and Garland (SC '09): column j of a ``(width, dim)`` array
holds row j's entries in column order, every row has a slot for its
diagonal, and unused slots point at the row itself and hold zero.  A row
gets the slots of its class's offsets; where a neighbour lies outside the
domain or is dropped by the kept-node mask, the row's later entries move up
(a cumsum of the slots' presence, over those rows only).  Each triplet
(cell, a, b) finds its slot by broadcasting over the squares, and one of an
uncoupled pair or a dropped node shares the one discarded slot past the
end.  The flow's patterns drop the couplings that the element makes
structurally zero, so the width is that of the nonzero entries: 5 on
boxslash, alternating-kuhn and unionjack, 9 on cross and quad
(``solver._Assembler``).  ``CsrMatrix.submatrix`` slices the padded arrays
of a matrix the same way, with no pattern build.  Every matrix on a
pattern shares its layout, so an assembly (one per flow step) is one
``bincount`` of the triplet values into their slots, and a matvec is one
``take`` and one ``einsum``; ``cg_solve`` reduces through ``einsum`` too,
and takes a preconditioner, by default Jacobi.
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
    """Sparsity pattern of the pairs of vertices that ``coupled``, a
    symmetric boolean (T, per, nv, nv) table over the cells of the
    per-square template (``StructuredMesh.offsets``) that couples each
    vertex to itself, marks in the cells of ``mesh``; with a boolean mask
    ``keep`` of the nodes, of its principal block on the kept nodes,
    renumbered in order.

    The pattern is read off the template by node class, the half-lattice
    position j mod 4: a row's raw slots are its class's offsets in column
    order, and a row that lacks one of them moves its later entries up.
    ``cols`` is the padded ``(width, dim)`` column array, and row j has
    ``counts[j]`` entries, in its first slots.  ``target``, ``slots``,
    ``diag`` and ``transpose`` are flat positions in it: of each triplet
    (cell, a, b) in row-major order, of each entry in row-major order, of
    each row's diagonal and of each slot's transpose entry.  Position
    ``width * dim``, one past the end, takes the triplets of uncoupled pairs
    and of dropped nodes.
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
        raw = int(star.sum(axis=(1, 2)).max(initial=0))
        # per raw slot (rank) and class: the step on the id grid, whether
        # it is an offset, and the slot of its transpose entry (itself in an
        # unused slot)
        cls, e1, e2 = np.nonzero(star)
        s = rank[cls, e1, e2]
        grid_step = np.zeros((raw, 16), dtype=np.int64)
        grid_step[s, cls] = (e1 - 2) * (side + 4) + e2 - 2
        valid = np.zeros((raw, 16), dtype=bool)
        valid[s, cls] = True
        mirror = np.repeat(np.arange(raw), 16).reshape(raw, 16)
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
        layout = _Compaction(present, valid.sum(axis=0)[node_class], rank[node_class, 2, 2])
        del present
        transpose = (mirror * dim).take(node_class, axis=1)
        transpose += cols
        self._lay_out(layout, cols, layout.place(transpose, cols))
        del cols, transpose
        # each triplet's raw position, square by square: the raw slot of its
        # offset in the class of its row, raw past the last for an uncoupled
        # pair, and a dropped row past them all
        slot = np.where(pairs, rank[row_class, step[..., 0], step[..., 1]], raw) * dim
        rows = np.where(keep, renumber, raw * dim)[mesh.cells].ravel()
        line = np.empty((2, mesh.squares, slot[0].size), dtype=np.int64)  # a row of squares
        for k in range(4):
            line[b[k], a[k]::2] = slot[k].ravel()
        target = np.repeat(rows, nv).reshape(mesh.squares, *line.shape[1:])
        for parity in (0, 1):
            target[parity::2] += line[parity]
        self.target = layout.place(target.reshape(-1, nv), rows).ravel()

    def _lay_out(self, layout, cols, transpose):
        """Set ``dim``, ``cols``, ``transpose``, ``diag`` and ``counts`` from
        a _Compaction and the raw arrays of its columns and transpose entries
        (compact flat positions), both moved in place."""
        self.dim, rows = layout.dim, layout.rows
        self.cols = layout.settle(cols, rows)  # unused slots point at the row
        own = np.arange(layout.width)[:, None] * layout.dim + rows
        self.transpose = layout.settle(transpose, own)
        self.diag, self.counts = layout.diag, layout.counts

    @functools.cached_property
    def slots(self):
        """The first ``counts`` slots of each row, row by row: only the
        entries' reader needs them, not the flow."""
        stored = np.arange(len(self.cols))[:, None] < self.counts
        return np.arange(stored.size).reshape(stored.shape).T[stored.T]

    def assemble(self, vals):
        """Sum the triplet values, one per input triplet in its order, into a
        CsrMatrix: one ``bincount`` into their slots."""
        vals = np.asarray(vals, dtype=float).ravel()
        if len(vals) != len(self.target):
            raise ValueError("the triplet values do not match the pattern")
        sums = np.bincount(self.target, weights=vals, minlength=self.cols.size + 1)
        return CsrMatrix(self, sums[:-1].reshape(self.cols.shape))


class _Compaction:
    """A padded layout from a raw one of shape (raw, dim): each row's
    ``present`` slots move to its front, in order.  A row with ``full``
    present slots keeps them where they are, which must be its first ones;
    only the rows with fewer, ``rows``, move.  ``diag`` is each row's raw
    diagonal slot; a row without a present one gets the slot after its
    entries, unused, which must lie within the raw slots."""

    def __init__(self, present, full, diag):
        raw, self.dim = present.shape
        self.counts = present.sum(axis=0)
        moves = self.counts < full
        self.rows = np.flatnonzero(moves)
        self.moves = np.append(moves, False)  # and a row id past the last
        ids = np.arange(self.dim)
        has_diag = present[diag, ids]
        self.width = int((self.counts + ~has_diag).max(initial=0))
        # the compact slot of each raw slot of the moving rows: width where
        # absent, and so at raw and past
        kept = present[:, self.rows]
        self.slot = np.full((raw + 1, len(self.rows)), self.width)
        self.slot[:-1][kept] = (np.cumsum(kept, axis=0) - 1)[kept]
        self.index = np.zeros(self.dim, dtype=np.int64)  # of a moving row in rows
        self.index[self.rows] = np.arange(len(self.rows))
        self.diag = np.where(has_diag, self.place(diag * self.dim + ids, ids),
                             self.counts * self.dim + ids)

    def place(self, flat, rows):
        """The compact flat positions, in place, of the raw ones ``flat`` in
        rows ``rows``, the shape of its leading axes; a position at raw
        times dim and past it, or in a moving row's absent slot, is the end,
        width times dim."""
        hit = np.nonzero(self.moves.take(rows, mode="clip"))
        slot, row = np.divmod(flat[hit], self.dim)
        flat[hit] = self.slot[np.minimum(slot, len(self.slot) - 1), self.index[row]] * self.dim + row
        return np.minimum(flat, self.width * self.dim, out=flat)

    def settle(self, raw, fill):
        """The compact layout of a raw array, in place: ``fill``, broadcast to
        (width, len(rows)), in the moving rows' slots after their entries."""
        block = np.empty((self.width + 1, len(self.rows)), dtype=raw.dtype)
        block[:-1] = fill
        block[self.slot[:-1], np.arange(len(self.rows))] = raw[:, self.rows]
        raw[:self.width, self.rows] = block[:-1]
        return raw[:self.width]


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
        """Principal submatrix on the True entries of a boolean mask, sliced
        from the padded arrays: the kept rows, their entries in kept columns
        renumbered and moved to the front.  Its pattern's ``target`` takes
        this matrix's entries, row by row."""
        pattern, dim = self.pattern, self.dim
        keep = _node_mask(keep, dim)
        renumber = np.cumsum(keep) - 1
        width = len(pattern.cols)
        stored = np.zeros(width * dim, dtype=bool)
        stored[pattern.slots] = True
        stored = stored.reshape(width, dim)[:, keep]
        cols = pattern.cols[:, keep]
        present = stored & keep[cols]
        layout = _Compaction(present, stored.sum(axis=0), pattern.diag[keep] // dim)
        cols = renumber[cols]
        # a transpose entry lies in the row of the column, at slot
        # transpose // dim: width, past the raw slots, where none is stored
        transpose = pattern.transpose[:, keep] // dim
        transpose *= layout.dim
        transpose += cols
        sub = CsrPattern.__new__(CsrPattern)
        sub._lay_out(layout, cols, layout.place(transpose, cols))
        slot, row = np.divmod(pattern.slots, dim)
        row = np.where(keep[row], renumber[row], width * layout.dim)  # a dropped row: past all
        sub.target = layout.place(slot * layout.dim + row, row)
        return CsrMatrix(sub, layout.settle(self.values[:, keep], 0.0))


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
