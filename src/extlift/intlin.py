"""Exact integer linear algebra over products of cyclic groups.

One engine: a triangular lattice basis in Z^n (an (n, n) int64 array) that
contains the lattice of the coordinate moduli, so membership and subgroup
orders in prod_i Z/m_i reduce to divisibility by the pivots.  A step whose
products could leave int64 raises BoundExceeded instead of wrapping.
Expressions are kept mod lcm(moduli), as lcm times a generator lies in the
modulus lattice; rows still equal to m_i e_i are never walked, as a step
against one only reduces entry i mod m_i.
"""

from __future__ import annotations

from bisect import bisect_left
from math import lcm, prod
from typing import Optional, Sequence

import numpy as np

from .errors import BoundExceeded

__all__ = ["ext_gcd", "TriangularLattice", "kernel_order"]

_INT64_MAX = (1 << 63) - 1

# dual rows kernel_order reduces against the lattice at once
_KERNEL_BLOCK_ROWS = 256


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        return -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _fits(bound: int) -> None:
    if bound > _INT64_MAX:
        raise BoundExceeded("lattice entries would leave the 64-bit range")


def _absmax(a: np.ndarray) -> int:
    return int(np.abs(a).max()) if a.size else 0


def _int64(values) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise BoundExceeded("integer entries leave the 64-bit range") from None


class TriangularLattice:
    """Upper-triangular basis of a lattice L with diag(moduli) <= L <= Z^n.

    The basis keeps one pivot row per coordinate (the initial rows are the
    moduli times unit vectors), so it stays square and triangular as vectors
    are inserted.  Each row carries an expression vector recording how it
    was assembled from inserted generators; reducing a vector against the
    basis then recovers generator coefficients (coboundary witnesses).
    Between inserts every entry lies in [0, max(moduli)]; after a
    BoundExceeded the lattice is unusable.
    """

    def __init__(self, moduli: Sequence[int], expr_len: int = 0):
        if any(m < 1 for m in moduli):
            raise ValueError("moduli must be positive")
        self.n = len(moduli)
        self.moduli = tuple(int(m) for m in moduli)
        self.expr_len = expr_len
        self._mod = _int64(self.moduli)
        self._top = max(self.moduli, default=0)
        self._lcm = lcm(*self.moduli)
        if expr_len:
            _fits(2 * (self._lcm - 1) ** 2)
        # pages of zeros stay unmapped: an untouched row costs one page
        self.rows = np.zeros((self.n, self.n), dtype=np.int64)
        np.fill_diagonal(self.rows, self._mod)
        self.exprs = np.zeros((self.n, expr_len), dtype=np.int64)
        self._piv: list[int] = []       # rows whose pivot fell below the modulus
        self._pivots: list[int] = []    # and those pivots

    def det(self) -> int:
        return prod(self.rows.diagonal().tolist())

    def span_order(self) -> int:
        """Order of L / diag(moduli), i.e. of the spanned subgroup of prod Z/m_i."""
        d = self.det()
        total = prod(self.moduli)
        if total % d:
            raise AssertionError("lattice does not contain the modulus lattice")
        return total // d

    def _vector(self, vec, n: Optional[int] = None) -> np.ndarray:
        v, n = _int64(vec), self.n if n is None else n
        if v.shape != (n,):
            raise ValueError(f"expected vector of length {n}, got {v.size}")
        return v

    def insert(self, vec: Sequence[int], expr: Optional[Sequence[int]] = None) -> None:
        """Grow the lattice by an integer vector, restoring triangular form."""
        v = self._vector(vec)
        L, rows, exprs, mod = self._lcm, self.rows, self.exprs, self._mod
        e = (np.zeros(self.expr_len, dtype=np.int64) if expr is None
             else self._vector(expr, self.expr_len) % L)
        piv, track = rows.diagonal(), self.expr_len > 0
        changed: list[int] = []
        i = 0
        while i < self.n:
            # next entry to step on: a multiple of an untouched m_i is passed over
            tail = v[i:]
            live = np.flatnonzero(np.where(piv[i:] < mod[i:], tail, tail % mod[i:]))
            if not live.size:
                break
            i += int(live[0])
            vi, p = int(v[i]), int(piv[i])
            # the pivot entries are set, not computed: only tails are bounded
            row, tail = rows[i, i + 1:], v[i + 1:]
            big, wide = _absmax(tail), (_absmax(row) if p < mod[i] else 0)
            if vi % p == 0:
                q = vi // p
                _fits(big + abs(q) * wide)
                tail -= q * row
                if track:
                    e = (e - (q % L) * exprs[i]) % L
            else:
                g, a, b = ext_gcd(p, vi)
                pg, vg = p // g, vi // g
                _fits(max(abs(a) * wide + abs(b) * big, pg * big + abs(vg) * wide))
                row[:], tail[:] = a * row + b * tail, pg * tail - vg * row
                rows[i, i] = g
                if track:
                    exprs[i], e = (((a % L) * exprs[i] + (b % L) * e) % L,
                                   ((pg % L) * e - (vg % L) * exprs[i]) % L)
                changed.append(i)
            v[i] = 0
            i += 1
        self._piv = np.flatnonzero(piv < mod).tolist()
        self._pivots = piv[self._piv].tolist()
        # keep off-pivot entries small: walk each changed row against those below
        for at, i in enumerate(changed):
            row = rows[i]
            taken = self._taken(*self._walk(row, i + 1, dirty=changed[at + 1:]))
            exprs[i] = (exprs[i] - taken) % L
            free = piv[i + 1:] == mod[i + 1:]
            row[i + 1:][free] %= mod[i + 1:][free]

    def _walk(self, v: np.ndarray, start: int = 0,
              dirty: Sequence[int] = ()) -> tuple[list[int], list[int]]:
        """Take multiples of the rows from `start` on whose pivot fell below
        the modulus off v, in pivot order, leaving each pivot entry in
        [0, pivot); return the rows stepped on and their multiples.  Entries
        under untouched modulus rows are left to the caller.  Rows in
        `dirty` changed in this insert and are measured, not assumed small.
        """
        rows, js, qs, big = self.rows, [], [], None
        first = bisect_left(self._piv, start)
        for j, p in zip(self._piv[first:], self._pivots[first:]):
            q = int(v[j]) // p
            if q:
                step = abs(q) * (_absmax(rows[j, j:]) if j in dirty else self._top)
                # a running bound only grows: measure when it would fail
                big = (_absmax(v[j:]) if big is None or big + step > _INT64_MAX
                       else big) + step
                _fits(big)
                v[j:] -= q * rows[j, j:]
                js.append(j)
                qs.append(q)
        return js, qs

    def _taken(self, js: Sequence[int], qs) -> np.ndarray:
        """The expression of rows js taken qs times, mod lcm; qs is one
        multiple per row, or a block of them, one line per vector."""
        if not self.expr_len:
            return np.zeros(np.shape(qs)[:-1] + (0,), dtype=np.int64)
        L = self._lcm
        _fits(len(js) * (L - 1) ** 2)
        return (np.asarray(qs, dtype=np.int64) % L) @ self.exprs[list(js)] % L

    def reduce(self, vec: Sequence[int]) -> Optional[np.ndarray]:
        """Express vec over the basis; return the generator expression or None.

        The expression is an int64 array mod lcm(moduli), returned when vec
        lies in the lattice.  The basis is not modified.
        """
        v = self._vector(vec)
        js, qs = self._walk(v)
        # on a member every floor step divides exactly: the steps of its expression
        if (v % self._mod).any():
            return None
        return self._taken(js, qs)

    def contains(self, vec: Sequence[int]) -> bool:
        return self.reduce(vec) is not None

    def remainder(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Canonical coset representative of vec modulo the lattice.

        Every coordinate is a pivot column, so reducing each entry into
        [0, pivot) left to right leaves a unique representative: two reduced
        vectors in one coset differ by a lattice element whose first nonzero
        entry would be a pivot multiple smaller than the pivot.
        """
        v = self._vector(vec)
        self._walk(v)
        return tuple((v % self._mod).tolist())

    def _remainders(self, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The remainder of every row of an int64 block, in place, and the
        multiples of the rows in _piv the walk took off each: a row lies in
        the lattice iff its remainder is zero, and then _taken(_piv, its
        multiples) is its expression, as reduce gives it."""
        big = _absmax(block)
        taken = np.zeros((len(block), len(self._piv)), dtype=np.int64)
        for at, (j, p) in enumerate(zip(self._piv, self._pivots)):
            q = taken[:, at] = block[:, j] // p
            step = _absmax(q) * self._top
            if step:
                big = (_absmax(block[:, j:]) if big + step > _INT64_MAX else big) + step
                _fits(big)
                block[:, j:] -= q[:, None] * self.rows[j, j:]
        block %= self._mod
        return block, taken


def kernel_order(rows, row_moduli, col_moduli) -> int:
    """Count solutions of T v = 0 in prod_j Z/col_moduli[j].

    `rows` is a dense integer matrix (anything numpy can ingest); equation s
    is a congruence mod row_moduli[s].  The map must be well defined, i.e.
    row_moduli[s] must divide rows[s][j] * col_moduli[j] for every entry.

    The count is |domain| / |image|: the determinant of the lattice that the
    scaled matrix rows span with the moduli on the Pontryagin dual side.
    Rows are reduced against it a block at a time and only those left
    nonzero are inserted, which spans the same lattice.
    """
    col = _int64(col_moduli).reshape(-1)
    n = col.size
    if n == 0:
        return 1
    lattice = TriangularLattice(col.tolist())
    mat = _int64(rows).reshape(-1, n)
    rm = _int64(row_moduli).reshape(-1)
    if mat.shape[0] != rm.size:
        raise ValueError("one modulus per row required")
    _fits(int(rm.max(initial=0)) * int(col.max()))
    # the only dedupe of (row, modulus) pairs: callers pass every congruence
    # they build, and identical ones are common.  Rows are sorted and each
    # compared with its neighbour (np.unique(axis=0) would import numpy.ma)
    stacked = np.concatenate([mat % rm[:, None], rm[:, None]], axis=1)
    stacked = stacked[np.lexsort(stacked.T[::-1])]
    fresh = np.ones(len(stacked), dtype=bool)
    fresh[1:] = (stacked[1:] != stacked[:-1]).any(axis=1)
    stacked = stacked[fresh]
    for start in range(0, len(stacked), _KERNEL_BLOCK_ROWS):
        part = stacked[start:start + _KERNEL_BLOCK_ROWS]
        scaled, e = part[:, :n] * col, part[:, n:]
        if (scaled % e).any():
            raise ValueError("system not well defined for the given moduli")
        block = (scaled // e) % col
        while block.size:
            block = lattice._remainders(block)[0]
            block = block[block.any(axis=1)]
            if block.size:
                lattice.insert(block[0])
                block = block[1:]
    return prod(lattice.moduli) // lattice.span_order()
