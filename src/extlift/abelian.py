"""Invariant-factor coordinates on abelian subgroups.

An abelian subgroup N decomposes as Z/d_1 x ... x Z/d_k with d_1 | d_2 |
... | d_k; elements become integer coordinate vectors (entry i mod d_i) and
endomorphisms become integer matrices (entry (i, j) meaningful mod d_i).
The decomposition is computed by repeatedly splitting off a cyclic summand
generated by an element of maximal order; the complement is cut out by an
explicit retraction onto that summand, so each step is verified.

AbelianStructure is the one owner of these coordinates, held as read-only
int64 arrays: coords[i] the coordinates of member i, and member_at[r] the
member whose coordinates c have the mixed-radix index r = c . radix, a
member being named by its position in N (its index in N.as_group()).
Every other table of N coordinates (the matrix of an endomorphism, the
G-indexed tables and the action matrices of wells.ExtensionData) is a
gather from these.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import InputError, ParentMismatch
from .groups import (FiniteGroup, GroupAutomorphism, Subgroup, _integers,
                     is_integer)

__all__ = [
    "AbelianStructure",
    "abelian_structure",
    "matrix_of_endomorphism",
    "restrict_to_matrix",
]

Vector = tuple[int, ...]


class AbelianStructure:
    """Coordinates N = Z/d_1 x ... x Z/d_k for an abelian subgroup N.

    Indices refer to the standalone subgroup group (N.as_group()), as do
    the arrays coords and member_at (module docstring); use
    coords_of_member / member_of_coords for parent-group element indices.
    """

    def __init__(self, subgroup: Subgroup):
        subgroup.require_abelian()
        self.subgroup = subgroup
        self.n_group = subgroup.as_group()
        gens, factors = _decompose(self.n_group)
        self.generators = tuple(gens)            # n_group elements, one per factor
        self.invariant_factors = tuple(factors)  # d_1 | d_2 | ... | d_k
        self.rank = len(factors)
        self.coords, self.member_at, self.radix = _coordinate_table(
            self.n_group, self.generators, self.invariant_factors)
        self._matrices: dict[tuple, np.ndarray] = {}   # see restrict_to_matrix

    def __repr__(self) -> str:
        return f"AbelianStructure({' x '.join(f'Z/{d}' for d in self.invariant_factors) or '1'})"

    def coords_of_member(self, g_index: int) -> Vector:
        """Coordinates of a parent-group element lying in the subgroup."""
        if not is_integer(g_index):
            raise InputError(f"element index {g_index!r} is not an integer")
        pos = self.subgroup.position.get(g_index)
        if pos is None:
            raise ParentMismatch(f"element {g_index} is not in the subgroup")
        return tuple(self.coords[pos].tolist())

    def member_of_coords(self, coords: Sequence[int]) -> int:
        """The parent-group element with these coordinates, read mod d_i."""
        c = _integers(coords, "coordinates must be integers")
        if len(c) != self.rank:
            raise InputError(f"expected {self.rank} coordinates, got {len(c)}")
        index = sum(x % d * r for x, d, r in
                    zip(c, self.invariant_factors, self.radix.tolist()))
        return self.subgroup.members[self.member_at[index]]


def abelian_structure(subgroup: Subgroup) -> AbelianStructure:
    """Invariant-factor decomposition of an abelian subgroup."""
    return AbelianStructure(subgroup)


def _decompose(N: FiniteGroup) -> tuple[list[int], list[int]]:
    """Split N into cyclic summands, largest order first, then reverse.

    Returns (generators, orders) with orders forming a divisor chain
    d_1 | d_2 | ... | d_k (each >= 2).
    """
    orders = N.element_orders()
    current = list(range(N.order))
    gens_big_first: list[int] = []
    facts_big_first: list[int] = []
    while len(current) > 1:
        m = max(orders[x] for x in current)
        a = next(x for x in current if orders[x] == m)
        rho = _retraction(N, current, a, m)
        gens_big_first.append(a)
        facts_big_first.append(m)
        current = sorted(x for x in current if rho[x] == 0)
    return gens_big_first[::-1], facts_big_first[::-1]


def _retraction(N: FiniteGroup, members: list[int], a: int, m: int) -> dict[int, int]:
    """Homomorphism rho: <members> -> Z/m with rho(a) = 1.

    Exists because m is the exponent of the subgroup; built by extending
    element by element.  ker(rho) is a complement of <a>.
    """
    rho: dict[int, int] = {}
    x, j = 0, 0
    while True:
        rho[x] = j
        x = N.mul(x, a)
        j += 1
        if x == 0:
            break
    if j != m:
        raise AssertionError("generator order mismatch")
    member_set = set(members)
    for x in members:
        if x in rho:
            continue
        if x not in member_set:
            raise AssertionError("element outside subgroup")
        # least r with x^r already reached; r divides ord(x) which divides m
        r = 1
        p = x
        while p not in rho:
            p = N.mul(p, x)
            r += 1
        c = rho[p]
        if c % r:
            raise AssertionError("retraction extension must be solvable")
        v = (c // r) % (m // r)
        known = list(rho.items())
        xp, step = x, v
        for t in range(1, r):
            for e, val in known:
                rho[N.mul(e, xp)] = (val + step) % m
            xp = N.mul(xp, x)
            step = (step + v) % m
    return rho


def _coordinate_table(N: FiniteGroup, gens: Sequence[int], factors: Sequence[int]
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """coords, member_at and radix (module docstring), read-only: member_at
    lists the products of generator powers in mixed-radix order, and is
    checked to be a bijection onto N."""
    d = np.array(factors, dtype=np.int64)
    radix = np.cumprod((1,) + tuple(factors))[:-1]
    member_at = np.zeros(1, dtype=np.intp)
    for g, m in zip(gens, factors):
        powers = [0]
        for _ in range(1, m):
            powers.append(N.mul(powers[-1], g))
        # index e * radix_i + r: the r-th product so far times g^e
        member_at = N.cayley[member_at, np.array(powers)[:, None]].reshape(-1)
    if (np.bincount(member_at, minlength=N.order) > 1).any():
        raise AssertionError("duplicate coordinates for one element")
    if member_at.size != N.order:
        raise AssertionError("coordinate table incomplete")
    coords = np.empty((N.order, d.size), dtype=np.int64)
    coords[member_at] = np.arange(N.order)[:, None] // radix % d
    for a in (coords, member_at, radix):
        a.flags.writeable = False
    return coords, member_at, radix


def matrix_of_endomorphism(structure: AbelianStructure,
                           image: Sequence[int]) -> np.ndarray:
    """(k, k) int64 matrix, acting on coordinate columns, of a map given on
    n_group elements; entry (i, j) lies in [0, d_i).  Column j is one
    gather: the coordinates of the image of the j-th unit vector."""
    units = structure.member_at[structure.radix].tolist()
    return structure.coords[[image[u] for u in units]].T


def restrict_to_matrix(structure: AbelianStructure,
                       theta: GroupAutomorphism) -> np.ndarray:
    """Coordinate matrix of an automorphism of the standalone subgroup group.

    Read-only, and built once per image: the structure keeps at most
    |Aut N| such (k, k) arrays.
    """
    if theta.group is not structure.n_group:
        raise ParentMismatch("automorphism is not defined on this subgroup")
    M = structure._matrices.get(theta.image)
    if M is None:
        M = matrix_of_endomorphism(structure, theta.image)
        M.flags.writeable = False
        structure._matrices[theta.image] = M
    return M
