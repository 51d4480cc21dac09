"""Exact integer linear algebra over products of cyclic groups.

One engine: a triangular lattice basis in Z^n that contains the lattice of
the coordinate moduli, so membership and subgroup orders in prod_i Z/m_i
reduce to divisibility by the pivots.  Only the rows whose pivot fell below
the modulus are stored, in (r, n) int64 arrays that grow with r; a row still
equal to m_i e_i is implicit and never walked, as a step against one only
reduces entry i mod m_i.  A step whose products could leave int64 raises
BoundExceeded instead of wrapping.  Expressions are kept mod lcm(moduli), as
lcm times a generator lies in the modulus lattice.
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

    The basis keeps one pivot row per coordinate.  The initial rows are the
    moduli times unit vectors; they stay implicit until an insert lowers
    their pivot, and only then is the row stored.  `_diag` holds every
    pivot, and the row of column `_piv[k]` is `_rows[_at[k]]`, so the
    arrays hold r <= (inserted vectors) rows, not n.  Each row carries an
    expression vector recording how it was assembled from inserted
    generators; reducing a vector against the basis then recovers generator
    coefficients (coboundary witnesses).  Between inserts every entry lies
    in [0, max(moduli)]; after a BoundExceeded the lattice is unusable.
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
        self._diag = self._mod.copy()
        self._rows = np.zeros((0, self.n), dtype=np.int64)
        self._exprs = np.zeros((0, expr_len), dtype=np.int64)
        self._piv: list[int] = []       # columns whose pivot fell below the modulus
        self._pivots: list[int] = []    # and those pivots
        self._at: list[int] = []        # and where their rows are stored

    def det(self) -> int:
        return prod(self._diag.tolist())

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

    def _store(self, i: int) -> None:
        """Store the implicit row m_i e_i, with a zero expression."""
        r = len(self._at)
        if r == len(self._rows):
            size = min(max(2 * r, 4), self.n)
            self._rows, self._exprs = (
                np.concatenate([a, np.zeros((size - r, a.shape[1]), dtype=np.int64)])
                for a in (self._rows, self._exprs))
        self._rows[r, i] = self._mod[i]
        at = bisect_left(self._piv, i)
        self._piv.insert(at, i)
        self._pivots.insert(at, self.moduli[i])
        self._at.insert(at, r)

    def insert(self, vec: Sequence[int], expr: Optional[Sequence[int]] = None) -> None:
        """Grow the lattice by an integer vector, restoring triangular form."""
        v = self._vector(vec)
        L, piv, mod = self._lcm, self._diag, self._mod
        e = (np.zeros(self.expr_len, dtype=np.int64) if expr is None
             else self._vector(expr, self.expr_len) % L)
        track = self.expr_len > 0
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
            if p == mod[i]:
                # only the gcd step fires on m_i e_i, so its pivot falls
                self._store(i)
            at = bisect_left(self._piv, i)
            s, exprs = self._at[at], self._exprs
            # the pivot entries are set, not computed: only tails are bounded
            row, tail = self._rows[s, i + 1:], v[i + 1:]
            big, wide = _absmax(tail), _absmax(row)
            if vi % p == 0:
                q = vi // p
                _fits(big + abs(q) * wide)
                tail -= q * row
                if track:
                    e = (e - (q % L) * exprs[s]) % L
            else:
                g, a, b = ext_gcd(p, vi)
                pg, vg = p // g, vi // g
                _fits(max(abs(a) * wide + abs(b) * big, pg * big + abs(vg) * wide))
                row[:], tail[:] = a * row + b * tail, pg * tail - vg * row
                self._rows[s, i] = piv[i] = self._pivots[at] = g
                if track:
                    exprs[s], e = (((a % L) * exprs[s] + (b % L) * e) % L,
                                   ((pg % L) * e - (vg % L) * exprs[s]) % L)
                changed.append(i)
            v[i] = 0
            i += 1
        # keep off-pivot entries small: walk each changed row against those below
        for at, i in enumerate(changed):
            s = self._at[bisect_left(self._piv, i)]
            row = self._rows[s]
            taken = self._taken(*self._walk(row, i + 1, dirty=changed[at + 1:]))
            self._exprs[s] = (self._exprs[s] - taken) % L
            free = piv[i + 1:] == mod[i + 1:]
            row[i + 1:][free] %= mod[i + 1:][free]

    def _walk(self, v: np.ndarray, start: int = 0,
              dirty: Sequence[int] = ()) -> tuple[list[int], list[int]]:
        """Take multiples of the rows from `start` on whose pivot fell below
        the modulus off v, in pivot order, leaving each pivot entry in
        [0, pivot); return where the rows stepped on are stored and their
        multiples.  Entries under untouched modulus rows are left to the
        caller.  Rows in `dirty` changed in this insert and are measured,
        not assumed small.
        """
        rows, ats, qs, big = self._rows, [], [], None
        piv, pivots, where = self._piv, self._pivots, self._at
        if start:
            first = bisect_left(piv, start)
            piv, pivots, where = piv[first:], pivots[first:], where[first:]
        for j, p, s in zip(piv, pivots, where):
            q = int(v[j]) // p
            if q:
                row = rows[s, j:]
                step = abs(q) * (_absmax(row) if j in dirty else self._top)
                # a running bound only grows: measure when it would fail
                big = (_absmax(v[j:]) if big is None or big + step > _INT64_MAX
                       else big) + step
                _fits(big)
                v[j:] -= q * row
                ats.append(s)
                qs.append(q)
        return ats, qs

    def _taken(self, ats: Sequence[int], qs) -> np.ndarray:
        """The expression of the stored rows ats taken qs times, mod lcm; qs
        is one multiple per row, or a block of them, one line per vector."""
        if not self.expr_len:
            return np.zeros(np.shape(qs)[:-1] + (0,), dtype=np.int64)
        L = self._lcm
        _fits(len(ats) * (L - 1) ** 2)
        return (np.asarray(qs, dtype=np.int64) % L) @ self._exprs[ats] % L

    def reduce(self, vec: Sequence[int]) -> Optional[np.ndarray]:
        """Express vec over the basis; return the generator expression or None.

        The expression is an int64 array mod lcm(moduli), returned when vec
        lies in the lattice.  The basis is not modified.
        """
        v = self._vector(vec)
        ats, qs = self._walk(v)
        # on a member every floor step divides exactly: the steps of its expression
        if (v % self._mod).any():
            return None
        return self._taken(ats, qs)

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
        the lattice iff its remainder is zero, and then _taken(_at, its
        multiples) is its expression, as reduce gives it."""
        big = _absmax(block)
        taken = np.zeros((len(block), len(self._piv)), dtype=np.int64)
        for at, (j, p, s) in enumerate(zip(self._piv, self._pivots, self._at)):
            q = taken[:, at] = block[:, j] // p
            step = _absmax(q) * self._top
            if step:
                big = (_absmax(block[:, j:]) if big + step > _INT64_MAX else big) + step
                _fits(big)
                block[:, j:] -= q[:, None] * self._rows[s, j:]
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
