"""Invariant-factor coordinates on abelian subgroups.

An abelian subgroup N decomposes as Z/d_1 x ... x Z/d_k with d_1 | d_2 |
... | d_k; elements become integer coordinate vectors (entry i mod d_i) and
endomorphisms become integer matrices (entry (i, j) meaningful mod d_i).
The decomposition is computed by repeatedly splitting off a cyclic summand
generated by an element of maximal order; the complement is cut out by an
explicit retraction onto that summand, so each step is verified.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .errors import InputError, ParentMismatch
from .groups import FiniteGroup, GroupAutomorphism, Subgroup

__all__ = [
    "AbelianStructure",
    "abelian_structure",
    "vec_reduce",
    "matrix_of_endomorphism",
    "restrict_to_matrix",
]

Vector = tuple[int, ...]


def vec_reduce(v: Sequence[int], moduli: Sequence[int]) -> Vector:
    return tuple(x % m for x, m in zip(v, moduli))


class AbelianStructure:
    """Coordinates N = Z/d_1 x ... x Z/d_k for an abelian subgroup N.

    Indicies refer to the standalone subgroup group (N.as_group()); use
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
        self.order = subgroup.order
        self._coords = _coordinate_table(self.n_group, self.generators,
                                         self.invariant_factors)
        self._from_coords = {c: i for i, c in enumerate(self._coords)}
        self._matrices: dict[tuple, np.ndarray] = {}   # see restrict_to_matrix
        if len(self._from_coords) != self.order:
            raise AssertionError("coordinate map is not injective")

    def __repr__(self) -> str:
        return f"AbelianStructure({' x '.join(f'Z/{d}' for d in self.invariant_factors) or '1'})"

    @property
    def moduli(self) -> Vector:
        return self.invariant_factors

    def zero(self) -> Vector:
        return (0,) * self.rank

    def to_coords(self, n_index: int) -> Vector:
        """Coordinates of an element of the standalone subgroup group."""
        return self._coords[n_index]

    def from_coords(self, coords: Sequence[int]) -> int:
        key = vec_reduce(coords, self.invariant_factors)
        try:
            return self._from_coords[key]
        except KeyError:
            raise InputError(f"no element has coordinates {key}") from None

    def coords_of_member(self, g_index: int) -> Vector:
        """Coordinates of a parent-group element lying in the subgroup."""
        pos = self.subgroup.position.get(g_index)
        if pos is None:
            raise ParentMismatch(f"element {g_index} is not in the subgroup")
        return self._coords[pos]

    def member_of_coords(self, coords: Sequence[int]) -> int:
        return self.subgroup.members[self.from_coords(coords)]


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


def _coordinate_table(N: FiniteGroup, gens: Sequence[int],
                      factors: Sequence[int]) -> list[Vector]:
    """to_coords for every element, by exhausting products of generator powers."""
    k = len(gens)
    coords = [None] * N.order  # type: list[Optional[Vector]]
    coords_list: list[tuple[Vector, int]] = [((0,) * k, 0)]
    for i in range(k):
        step = gens[i]
        extended = list(coords_list)
        x = 0
        for e in range(1, factors[i]):
            x = N.mul(x, step)
            for vec, elem in coords_list:
                new = list(vec)
                new[i] = e
                extended.append((tuple(new), N.mul(elem, x)))
        coords_list = extended
    for vec, elem in coords_list:
        if coords[elem] is not None:
            raise AssertionError("duplicate coordinates for one element")
        coords[elem] = vec
    if any(c is None for c in coords):
        raise AssertionError("coordinate table incomplete")
    return coords  # type: ignore[return-value]


def matrix_of_endomorphism(structure: AbelianStructure,
                           image: Sequence[int]) -> np.ndarray:
    """(k, k) int64 matrix, acting on coordinate columns, of a map given on
    n_group elements; entry (i, j) lies in [0, d_i)."""
    k = structure.rank
    cols = []
    for j in range(k):
        unit = tuple(1 if i == j else 0 for i in range(k))
        cols.append(structure.to_coords(image[structure.from_coords(unit)]))
    return np.array(cols, dtype=np.int64).reshape(k, k).T


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
