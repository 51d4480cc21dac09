"""Finite groups as explicit Cayley tables.

Elements are integers 0..order-1 and the identity is always element 0;
constructors relabel if needed.  All derived data (inverses, orders,
subgroups, automorphisms) is deterministic given the table, so equal tables
always produce byte-identical downstream reports.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

import numpy as np

from . import config
from .errors import (
    BadParameters,
    BoundExceeded,
    ClosureBoundExceeded,
    InputError,
    NoIdentity,
    NotAbelian,
    NotAssociative,
    NotLatinSquare,
    NotNormal,
    PrimeDoesNotDivide,
)

__all__ = [
    "FiniteGroup",
    "Subgroup",
    "GroupHomomorphism",
    "GroupAutomorphism",
    "group_from_cayley",
    "group_from_permutations",
    "quotient_group",
    "center",
    "derived_subgroup",
    "sylow_subgroup",
    "automorphism_group",
    "hom_by_generator_images",
    "generating_set",
    "is_commuting_automorphism",
    "is_nilpotent",
    "nilpotency_class",
    "all_subgroups",
    "abelian_normal_subgroups",
    "is_prime",
    "prime_factors",
]

ASSOC_FULL_CHECK_LIMIT = 512
ASSOC_RANDOM_SEED = 0


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class FiniteGroup:
    """Immutable finite group given by a validated Cayley table.

    table[a][b] is the product a*b.  Element 0 is the identity.  cayley is
    the same table as a read-only int64 array, for vectorised callers.
    """

    def __init__(self, table: Sequence[Sequence[int]], name: str = "G",
                 labels: Optional[Sequence[str]] = None):
        tab = tuple(tuple(int(v) for v in row) for row in table)
        self.cayley = _validate_table(tab)
        self.table = tab
        self.order = len(tab)
        self.name = name
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != self.order:
            raise InputError("labels length must match group order")
        inverse = [0] * self.order
        for a, row in enumerate(tab):
            inverse[a] = row.index(0)
        self.inverse = tuple(inverse)
        self._element_orders: Optional[tuple[int, ...]] = None
        self._is_abelian: Optional[bool] = None
        self._automorphisms: Optional[list["GroupAutomorphism"]] = None
        self._subgroups: Optional[list["Subgroup"]] = None
        self._center: Optional["Subgroup"] = None
        self._derived: Optional["Subgroup"] = None

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"

    def elements(self) -> range:
        return range(self.order)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conjugate(self, a: int, g: int) -> int:
        """g^-1 * a * g."""
        t = self.table
        return t[t[self.inverse[g]][a]][g]

    def commutator(self, a: int, b: int) -> int:
        """a^-1 * b^-1 * a * b."""
        t = self.table
        return t[t[self.inverse[a]][self.inverse[b]]][t[a][b]]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inverse[a], -k
        out = 0
        t = self.table
        while k:
            if k & 1:
                out = t[out][a]
            a = t[a][a]
            k >>= 1
        return out

    def element_order(self, a: int) -> int:
        return self.element_orders()[a]

    def element_orders(self) -> tuple[int, ...]:
        if self._element_orders is None:
            orders = []
            t = self.table
            for a in range(self.order):
                k, x = 1, a
                while x != 0:
                    x = t[x][a]
                    k += 1
                orders.append(k)
            self._element_orders = tuple(orders)
        return self._element_orders

    @property
    def is_abelian(self) -> bool:
        if self._is_abelian is None:
            t = self.table
            self._is_abelian = all(
                t[a][b] == t[b][a] for a in range(self.order) for b in range(a)
            )
        return self._is_abelian

    def require_abelian(self) -> None:
        if not self.is_abelian:
            t = self.table
            for a in range(self.order):
                for b in range(a):
                    if t[a][b] != t[b][a]:
                        raise NotAbelian(f"elements {b} and {a} of {self.name} do not commute")
        return None

    def closure(self, seed: Iterable[int]) -> tuple[int, ...]:
        """Sorted elements of the subgroup generated by seed."""
        t = self.table
        for g in seed:
            if not 0 <= g < self.order:
                raise InputError(f"element {g} out of range for {self.name}")
        gens = sorted(set(seed) | {0})
        members = {0}
        queue = [0]
        head = 0
        while head < len(queue):
            a = queue[head]
            head += 1
            row = t[a]
            for b in gens:
                p = row[b]
                if p not in members:
                    members.add(p)
                    queue.append(p)
        return tuple(sorted(members))

    def subgroup(self, members: Iterable[int]) -> "Subgroup":
        return Subgroup(self, members)

    def whole_subgroup(self) -> "Subgroup":
        return Subgroup(self, range(self.order))

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (0,))


def _validate_table(tab: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Check the group axioms; return the table as a read-only int64 array."""
    n = len(tab)
    if n == 0:
        raise InputError("Cayley table must be nonempty")
    for i, row in enumerate(tab):
        if len(row) != n:
            raise InputError(f"Cayley table row {i} has length {len(row)}, expected {n}")
        for v in row:
            if not 0 <= v < n:
                raise InputError(f"Cayley table entry {v} in row {i} out of range")
    m = np.array(tab, dtype=np.int64)
    ar = np.arange(n, dtype=np.int64)
    row_ok = (np.sort(m, axis=1) == ar).all(axis=1)
    if not row_ok.all():
        raise NotLatinSquare(f"row {int(np.flatnonzero(~row_ok)[0])} is not a permutation")
    col_ok = (np.sort(m, axis=0) == ar[:, None]).all(axis=0)
    if not col_ok.all():
        raise NotLatinSquare(f"column {int(np.flatnonzero(~col_ok)[0])} is not a permutation")
    if not ((m[0] == ar).all() and (m[:, 0] == ar).all()):
        raise NoIdentity("element 0 is not a two-sided identity")
    if n <= ASSOC_FULL_CHECK_LIMIT:
        for a in range(n):
            left = m[m[a], :]          # (a*b)*c
            right = m[a, :][m]         # a*(b*c): row b,c -> m[a][m[b][c]]
            if not np.array_equal(left, right):
                bad = np.argwhere(left != right)[0]
                raise NotAssociative(f"associativity fails at ({a},{int(bad[0])},{int(bad[1])})")
    else:
        rng = random.Random(ASSOC_RANDOM_SEED)
        for _ in range(10 * n * n):
            a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            if tab[tab[a][b]][c] != tab[a][tab[b][c]]:
                raise NotAssociative(f"associativity fails at ({a},{b},{c})")
    m.flags.writeable = False
    return m


def group_from_cayley(table: Sequence[Sequence[int]], name: str = "G") -> FiniteGroup:
    """Validate a raw Cayley table; relabels so the identity is element 0."""
    tab = [list(int(v) for v in row) for row in table]
    n = len(tab)
    if n == 0:
        raise InputError("Cayley table must be nonempty")
    for i, row in enumerate(tab):
        if len(row) != n:
            raise InputError(f"Cayley table row {i} has length {len(row)}, expected {n}")
        for v in row:
            if not 0 <= v < n:
                raise InputError(f"Cayley table entry {v} in row {i} out of range")
    ident = None
    for e in range(n):
        if all(tab[e][x] == x for x in range(n)) and all(tab[x][e] == x for x in range(n)):
            ident = e
            break
    if ident is None:
        raise NoIdentity("no two-sided identity element found")
    if ident != 0:
        # swap labels 0 <-> ident
        sigma = list(range(n))
        sigma[0], sigma[ident] = ident, 0
        tab = [[sigma[tab[sigma[x]][sigma[y]]] for y in range(n)] for x in range(n)]
    return FiniteGroup(tab, name=name)


def _compose_perm(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """(p o q)(i) = p[q[i]]: apply q first."""
    return tuple(p[i] for i in q)


def group_from_permutations(degree: int, generators: Sequence[Sequence[int]],
                            name: str = "G",
                            closure_bound: Optional[int] = None) -> FiniteGroup:
    """Close permutation generators under composition; element order is BFS order."""
    if degree < 1:
        raise InputError("degree must be positive")
    bound = config.DEFAULT_CLOSURE_BOUND if closure_bound is None else closure_bound
    gens = []
    for gi, g in enumerate(generators):
        p = tuple(int(v) for v in g)
        if sorted(p) != list(range(degree)):
            raise InputError(f"generator {gi} is not a permutation of 0..{degree - 1}")
        gens.append(p)
    ident = tuple(range(degree))
    index = {ident: 0}
    elems = [ident]
    head = 0
    while head < len(elems):
        cur = elems[head]
        head += 1
        for g in gens:
            nxt = _compose_perm(cur, g)
            if nxt not in index:
                if len(elems) >= bound:
                    raise ClosureBoundExceeded(
                        f"permutation closure exceeded bound {bound}")
                index[nxt] = len(elems)
                elems.append(nxt)
    n = len(elems)
    table = [[index[_compose_perm(a, b)] for b in elems] for a in elems]
    return FiniteGroup(table, name=name)


class Subgroup:
    """A subgroup of a FiniteGroup, stored as a sorted member tuple."""

    def __init__(self, group: FiniteGroup, members: Iterable[int]):
        mem = tuple(sorted(set(int(v) for v in members)))
        if not mem or mem[0] != 0:
            raise InputError("subgroup must contain the identity 0")
        for v in mem:
            if not 0 <= v < group.order:
                raise InputError(f"member {v} out of range for {group.name}")
        mset = frozenset(mem)
        t = group.table
        for a in mem:
            row = t[a]
            for b in mem:
                if row[b] not in mset:
                    raise InputError(
                        f"members {a},{b} have product {row[b]} outside the subgroup")
        self.group = group
        self.members = mem
        self.member_set = mset
        self.order = len(mem)
        self.position = {v: i for i, v in enumerate(mem)}
        self._as_group: Optional[FiniteGroup] = None

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.group.name})"

    def __contains__(self, g: int) -> bool:
        return g in self.member_set

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Subgroup) and other.group is self.group
                and other.members == self.members)

    def __hash__(self) -> int:
        return hash((id(self.group), self.members))

    def is_normal(self) -> bool:
        try:
            self.require_normal()
        except NotNormal:
            return False
        return True

    def require_normal(self) -> None:
        G = self.group
        for g in range(G.order):
            for s in self.members:
                if G.conjugate(s, g) not in self.member_set:
                    raise NotNormal(
                        f"conjugate of {s} by {g} leaves the subgroup in {G.name}")

    @property
    def is_abelian(self) -> bool:
        t = self.group.table
        return all(t[a][b] == t[b][a] for a in self.members for b in self.members if b < a)

    def require_abelian(self) -> None:
        if not self.is_abelian:
            t = self.group.table
            for a in self.members:
                for b in self.members:
                    if b < a and t[a][b] != t[b][a]:
                        raise NotAbelian(f"subgroup members {b} and {a} do not commute")

    def as_group(self) -> FiniteGroup:
        """The subgroup as a standalone group; element i is self.members[i]."""
        if self._as_group is None:
            if self.order == self.group.order:
                self._as_group = self.group
            else:
                pos = self.position
                t = self.group.table
                table = [[pos[t[a][b]] for b in self.members] for a in self.members]
                self._as_group = FiniteGroup(table, name=f"{self.group.name}[{self.order}]")
        return self._as_group

    def conjugate_by(self, g: int) -> "Subgroup":
        G = self.group
        return Subgroup(G, (G.conjugate(s, g) for s in self.members))


class GroupHomomorphism:
    """A verified homomorphism between finite groups, stored as an image list."""

    def __init__(self, source: FiniteGroup, target: FiniteGroup,
                 image: Sequence[int], check: bool = True):
        img = tuple(int(v) for v in image)
        if len(img) != source.order:
            raise InputError("homomorphism image list has wrong length")
        for v in img:
            if not 0 <= v < target.order:
                raise InputError(f"homomorphism image {v} out of range")
        if check:
            ts, tt = source.table, target.table
            for a in range(source.order):
                ia = img[a]
                row = ts[a]
                for b in range(source.order):
                    if img[row[b]] != tt[ia][img[b]]:
                        raise InputError(
                            f"not a homomorphism: images of {a}*{b} disagree")
        self.source = source
        self.target = target
        self.image = img

    def __call__(self, a: int) -> int:
        return self.image[a]

    def __repr__(self) -> str:
        return f"GroupHomomorphism({self.source.name}->{self.target.name})"

    def is_bijective(self) -> bool:
        return (self.source.order == self.target.order
                and len(set(self.image)) == self.source.order)

    def kernel(self) -> Subgroup:
        return Subgroup(self.source, (a for a, v in enumerate(self.image) if v == 0))


class GroupAutomorphism:
    """A verified automorphism of a finite group."""

    def __init__(self, group: FiniteGroup, image: Sequence[int], check: bool = True):
        img = tuple(int(v) for v in image)
        if len(img) != group.order or sorted(img) != list(range(group.order)):
            raise InputError("automorphism image is not a permutation of the group")
        if check:
            t = group.table
            for a in range(group.order):
                ia = img[a]
                row = t[a]
                for b in range(group.order):
                    if img[row[b]] != t[ia][img[b]]:
                        raise InputError(
                            f"not a homomorphism: images of {a}*{b} disagree")
        self.group = group
        self.image = img

    def __call__(self, a: int) -> int:
        return self.image[a]

    def __repr__(self) -> str:
        return f"GroupAutomorphism({self.group.name}, {self.image})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GroupAutomorphism)
                and other.group is self.group and other.image == self.image)

    def __hash__(self) -> int:
        return hash((id(self.group), self.image))

    @property
    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.image))

    def compose(self, other: "GroupAutomorphism") -> "GroupAutomorphism":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        if other.group is not self.group:
            raise InputError("cannot compose automorphisms of different groups")
        return GroupAutomorphism(
            self.group, tuple(self.image[v] for v in other.image), check=False)

    def inverse_aut(self) -> "GroupAutomorphism":
        inv = [0] * len(self.image)
        for i, v in enumerate(self.image):
            inv[v] = i
        return GroupAutomorphism(self.group, inv, check=False)

    @staticmethod
    def identity(group: FiniteGroup) -> "GroupAutomorphism":
        return GroupAutomorphism(group, range(group.order), check=False)


def quotient_group(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, GroupHomomorphism]:
    """G/N with cosets ordered by minimal member, plus the projection map."""
    if N.group is not G:
        raise InputError("subgroup belongs to a different group")
    N.require_normal()
    t = G.table
    pi = [-1] * G.order
    reps: list[int] = []
    for g in range(G.order):
        if pi[g] >= 0:
            continue
        idx = len(reps)
        reps.append(g)
        for s in N.members:
            pi[t[g][s]] = idx
    h = len(reps)
    table = [[pi[t[reps[x]][reps[y]]] for y in range(h)] for x in range(h)]
    H = FiniteGroup(table, name=f"{G.name}/{N.order}")
    return H, GroupHomomorphism(G, H, pi, check=True)


def center(G: FiniteGroup) -> Subgroup:
    if G._center is None:
        t = G.table
        members = [a for a in range(G.order)
                   if all(t[a][b] == t[b][a] for b in range(G.order))]
        G._center = Subgroup(G, members)
    return G._center


def derived_subgroup(G: FiniteGroup) -> Subgroup:
    if G._derived is None:
        comms = {G.commutator(a, b) for a in range(G.order) for b in range(G.order)}
        G._derived = Subgroup(G, G.closure(comms))
    return G._derived


def sylow_subgroup(G: FiniteGroup, p: int) -> Subgroup:
    """The first maximal p-subgroup found by smallest-index growth."""
    if not is_prime(p):
        raise BadParameters(f"{p} is not prime")
    n = G.order
    target = 1
    while n % p == 0:
        target *= p
        n //= p
    if target == 1:
        raise PrimeDoesNotDivide(f"{p} does not divide |{G.name}| = {G.order}")
    orders = G.element_orders()
    def p_power(k: int) -> bool:
        while k % p == 0:
            k //= p
        return k == 1
    candidates = [x for x in range(G.order) if p_power(orders[x])]
    current = (0,)
    size = 1
    while size < target:
        grown = False
        cur_set = set(current)
        for x in candidates:
            if x in cur_set:
                continue
            cl = G.closure(current + (x,))
            if p_power(len(cl)):
                current, size, grown = cl, len(cl), True
                break
        if not grown:  # cannot happen for a p-subgroup below full p-part
            raise AssertionError("Sylow growth stalled")
    return Subgroup(G, current)


def generating_set(G: FiniteGroup) -> list[int]:
    """Small generating set: repeatedly adjoin the smallest element outside the closure."""
    gens: list[int] = []
    cl = (0,)
    while len(cl) < G.order:
        nxt = next(x for x in range(G.order) if x not in set(cl))
        gens.append(nxt)
        cl = G.closure(gens)
    return gens


def hom_by_generator_images(G: FiniteGroup, T: FiniteGroup,
                            gen_pairs: Sequence[tuple[int, int]]
                            ) -> Optional[dict[int, int]]:
    """Map determined by generator images, or None if inconsistent.

    Closes {identity} under right multiplication by the given generators,
    propagating images; a collision with a differing image means no
    homomorphism has those generator images.  A consistent result is a
    genuine homomorphism on the generated subgroup (induction on word
    length), so no quadratic recheck is needed.
    """
    m = {0: 0}
    queue = [0]
    head = 0
    ts, tt = G.table, T.table
    while head < len(queue):
        a = queue[head]
        head += 1
        fa = m[a]
        for g, y in gen_pairs:
            b = ts[a][g]
            c = tt[fa][y]
            got = m.get(b)
            if got is None:
                m[b] = c
                queue.append(b)
            elif got != c:
                return None
    return m


def automorphism_group(G: FiniteGroup, bound: Optional[int] = None) -> list[GroupAutomorphism]:
    """All automorphisms, sorted lexicographically by image tuple."""
    if G._automorphisms is not None:
        return list(G._automorphisms)
    limit = config.max_order() if bound is None else bound
    if G.order > limit:
        raise BoundExceeded(
            f"automorphism enumeration limited to order {limit}, got {G.order}")
    gens = generating_set(G)
    orders = G.element_orders()
    cands = [[x for x in range(G.order) if orders[x] == orders[g]] for g in gens]
    found: list[tuple[int, ...]] = []

    def walk(depth: int, pairs: list[tuple[int, int]]) -> None:
        if depth == len(gens):
            m = hom_by_generator_images(G, G, pairs)
            if m is not None and len(m) == G.order and len(set(m.values())) == G.order:
                found.append(tuple(m[a] for a in range(G.order)))
            return
        for y in cands[depth]:
            chosen = pairs + [(gens[depth], y)]
            if hom_by_generator_images(G, G, chosen) is not None:
                walk(depth + 1, chosen)

    walk(0, [])
    found.sort()
    auts = [GroupAutomorphism(G, img, check=False) for img in found]
    G._automorphisms = auts
    return list(auts)


def is_commuting_automorphism(G: FiniteGroup, a: GroupAutomorphism) -> bool:
    """True when every x commutes with its image a(x)."""
    if a.group is not G:
        raise InputError("automorphism belongs to a different group")
    t = G.table
    img = a.image
    return all(t[x][img[x]] == t[img[x]][x] for x in range(G.order))


def nilpotency_class(G: FiniteGroup) -> Optional[int]:
    """Length of the upper central series, or None when it stalls below G."""
    if G.order == 1:
        return 0
    Z = center(G)
    if Z.order == 1:
        return None
    if Z.order == G.order:
        return 1
    Q, _ = quotient_group(G, Z)
    sub = nilpotency_class(Q)
    return None if sub is None else sub + 1


def is_nilpotent(G: FiniteGroup) -> bool:
    return nilpotency_class(G) is not None


def all_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Every subgroup, found by closure growth; sorted by (order, members)."""
    if G._subgroups is not None:
        return list(G._subgroups)
    seen: set[tuple[int, ...]] = {(0,)}
    frontier = [(0,)]
    while frontier:
        nxt: list[tuple[int, ...]] = []
        for S in frontier:
            base = set(S)
            for g in range(1, G.order):
                if g in base:
                    continue
                T = G.closure(S + (g,))
                if T not in seen:
                    seen.add(T)
                    nxt.append(T)
        frontier = nxt
    subs = [Subgroup(G, mem) for mem in sorted(seen, key=lambda m: (len(m), m))]
    G._subgroups = subs
    return list(subs)


def abelian_normal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    return [S for S in all_subgroups(G) if S.is_normal() and S.is_abelian]
