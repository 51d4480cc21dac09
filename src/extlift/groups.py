"""Finite groups as explicit Cayley tables.

Elements are integers 0..order-1 and the identity is always element 0;
constructors relabel if needed.  All derived data (inverses, orders,
subgroups, automorphisms) is deterministic given the table, so equal tables
always produce byte-identical downstream reports.
"""

from __future__ import annotations

import operator
from collections import abc
from itertools import chain, repeat
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
    "AutomorphismArray",
    "group_from_cayley",
    "group_from_permutations",
    "quotient_group",
    "center",
    "derived_subgroup",
    "sylow_subgroup",
    "automorphism_group",
    "hom_by_generator_images",
    "generating_set",
    "require_closed",
    "is_commuting_automorphism",
    "is_nilpotent",
    "nilpotency_class",
    "all_subgroups",
    "abelian_normal_subgroups",
    "is_prime",
    "prime_factors",
]


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
    the same table as a read-only int64 array, for vectorised callers, and
    generators the greedy generating set found while validating it.
    """

    def __init__(self, table: Sequence[Sequence[int]], name: str = "G"):
        self.cayley, self.generators = _validate_table(table)
        tab = tuple(map(tuple, self.cayley.tolist()))
        self.table = tab
        self.order = len(tab)
        self.name = name
        inverse = [0] * self.order
        for a, row in enumerate(tab):
            inverse[a] = row.index(0)
        self.inverse = tuple(inverse)
        self._element_orders: Optional[tuple[int, ...]] = None
        self._is_abelian: Optional[bool] = None
        self._automorphisms: Optional["AutomorphismArray"] = None
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
            self._is_abelian = bool((self.cayley == self.cayley.T).all())
        return self._is_abelian

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


def is_integer(value: object) -> bool:
    """An integer that is not a boolean: a float or a bool never truncates
    into a table entry or a parameter."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _integer_kinds(values) -> bool:
    """Whether every value is an integer and none a boolean, asked once per
    value type rather than once per value."""
    return all(issubclass(t, (int, np.integer)) and not issubclass(t, bool)
               for t in set(map(type, values)))


def _integers(values, message: str) -> tuple[int, ...]:
    """values as a tuple of Python ints, or InputError(message) when one is
    a float, a boolean or another non-integer (never truncated)."""
    vals = tuple(values)
    if set(map(type, vals)) <= {int}:       # nothing to check or convert
        return vals
    if not _integer_kinds(vals):
        raise InputError(message)
    return tuple(map(int, vals))


def _table_array(table) -> np.ndarray:
    """A square table of integers in [0, n) as an int64 array."""
    n = len(table)
    if n == 0:
        raise InputError("Cayley table must be nonempty")
    for i, row in enumerate(table):
        if len(row) != n:
            raise InputError(f"Cayley table row {i} has length {len(row)}, expected {n}")
    if not _integer_kinds(chain.from_iterable(table)):
        i = next(i for i, row in enumerate(table) if not all(map(is_integer, row)))
        raise InputError(f"Cayley table row {i} must be a list of integers")
    try:
        m = np.array(table, dtype=np.int64)
    except OverflowError:
        raise InputError("Cayley table entry out of range") from None
    bad = np.argwhere((m < 0) | (m >= n))
    if bad.size:
        i, j = (int(v) for v in bad[0])
        raise InputError(f"Cayley table entry {int(m[i, j])} in row {i} out of range")
    return m


def _validate_table(tab: tuple[tuple[int, ...], ...]
                    ) -> tuple[np.ndarray, tuple[int, ...]]:
    """Check the group axioms; return the table as a read-only int64 array
    and its greedy generators.

    Associativity is Light's test: the elements a with (xa)y = x(ay) for all
    x, y contain 1 and are closed under products, since (x(ab))y = ((xa)b)y
    = (xa)(by) = x(a(by)) = x((ab)y); so (xg)y = x(gy) for g in a set that
    generates the table under products proves it for every element.
    Left-normed products (...(g1 g2)...)gk lie in the closure of the
    generators under products, so closing {1} under right multiplication by
    them would be enough to reach everything; once the check has passed,
    both closures are the subgroup the generators generate.  Greedy
    generators over either closure are therefore the same list.
    """
    m = _table_array(tab)
    n = len(m)
    ar = np.arange(n, dtype=np.int64)
    row_ok = (np.sort(m, axis=1) == ar).all(axis=1)
    if not row_ok.all():
        raise NotLatinSquare(f"row {int(np.flatnonzero(~row_ok)[0])} is not a permutation")
    col_ok = (np.sort(m, axis=0) == ar[:, None]).all(axis=0)
    if not col_ok.all():
        raise NotLatinSquare(f"column {int(np.flatnonzero(~col_ok)[0])} is not a permutation")
    if not ((m[0] == ar).all() and (m[:, 0] == ar).all()):
        raise NoIdentity("element 0 is not a two-sided identity")
    gens = _table_generators(m)
    for g in gens:
        bad = m[m[:, g]] != m[:, m[g]]        # (xg)y against x(gy)
        if bad.any():
            x, y = (int(v) for v in np.argwhere(bad)[0])
            raise NotAssociative(f"associativity fails at ({x},{g},{y})")
    m.flags.writeable = False
    return m, tuple(gens)


def _table_generators(m: np.ndarray) -> list[int]:
    """Greedy generators: repeatedly adjoin the smallest element outside the
    closure under products of those taken so far."""
    reached, gens = np.arange(len(m)) == 0, []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        reached[gens[-1]] = True
        while True:
            have = np.flatnonzero(reached)
            products = m[have[:, None], have]
            if reached[products].all():
                break
            reached[products] = True
    return gens


def group_from_cayley(table: Sequence[Sequence[int]], name: str = "G") -> FiniteGroup:
    """Validate a raw Cayley table; relabels so the identity is element 0."""
    m = _table_array(table)
    ar = np.arange(len(m))
    ident = np.flatnonzero((m == ar).all(axis=1) & (m == ar[:, None]).all(axis=0))
    if not ident.size:
        raise NoIdentity("no two-sided identity element found")
    sigma = ar.copy()
    sigma[[0, ident[0]]] = ident[0], 0          # swap labels 0 <-> identity
    return FiniteGroup(sigma[m[np.ix_(sigma, sigma)]].tolist(), name=name)


def _compose_perm(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """(p o q)(i) = p[q[i]]: apply q first."""
    return tuple(p[i] for i in q)


def group_from_permutations(degree: int, generators: Sequence[Sequence[int]],
                            name: str = "G") -> FiniteGroup:
    """Close permutation generators under composition; element order is BFS order."""
    if not is_integer(degree) or degree < 1:
        raise InputError("degree must be a positive integer")
    bound = config.DEFAULT_CLOSURE_BOUND
    gens = []
    for gi, g in enumerate(generators):
        if not all(map(is_integer, g)):
            raise InputError(f"generator {gi} must be a list of integers")
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
        mem = tuple(sorted(set(_integers(members, "subgroup members must be integers"))))
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
        try:
            self.require_abelian()
        except NotAbelian:
            return False
        return True

    def require_abelian(self) -> None:
        t = self.group.table
        for a in self.members:
            for b in self.members:
                if b >= a:
                    break
                if t[a][b] != t[b][a]:
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


def _require_homomorphism(source: FiniteGroup, target: FiniteGroup,
                          img: Sequence[int]) -> None:
    """Raise InputError naming the first pair (a, b) with img(ab) != img(a)img(b).

    img(a*s) = img(a) img(s) for every a and every s in {1} and the
    generators makes img a homomorphism: s = 1 gives img(1) = 1, and then
    img(a*b) = img(a) img(b) by induction on the length of a positive word
    for b (as in hom_by_generator_images).  Only when this fails are all
    pairs scanned, to name the first bad one.
    """
    ts, tt = source.table, target.table
    gens = (0,) + source.generators
    for a in range(source.order):
        row, ia = ts[a], tt[img[a]]
        for s in gens:
            if img[row[s]] != ia[img[s]]:
                _raise_first_bad_pair(source, target, img)


def _raise_first_bad_pair(source: FiniteGroup, target: FiniteGroup,
                          img: Sequence[int]) -> None:
    ts, tt = source.table, target.table
    for a in range(source.order):
        ia = img[a]
        row = ts[a]
        for b in range(source.order):
            if img[row[b]] != tt[ia][img[b]]:
                raise InputError(f"not a homomorphism: images of {a}*{b} disagree")


class GroupHomomorphism:
    """A verified homomorphism between finite groups, stored as an image list."""

    def __init__(self, source: FiniteGroup, target: FiniteGroup,
                 image: Sequence[int]):
        img = _integers(image, "homomorphism image must be a list of integers")
        if len(img) != source.order:
            raise InputError("homomorphism image list has wrong length")
        for v in img:
            if not 0 <= v < target.order:
                raise InputError(f"homomorphism image {v} out of range")
        _require_homomorphism(source, target, img)
        self.source = source
        self.target = target
        self.image = img

    def __call__(self, a: int) -> int:
        return self.image[a]

    def __repr__(self) -> str:
        return f"GroupHomomorphism({self.source.name}->{self.target.name})"

    def kernel(self) -> Subgroup:
        return Subgroup(self.source, (a for a, v in enumerate(self.image) if v == 0))


class GroupAutomorphism:
    """A verified automorphism of a finite group."""

    __slots__ = ("group", "image")     # automorphism_group keeps one per row

    def __init__(self, group: FiniteGroup, image: Sequence[int]):
        img = _integers(image, "automorphism image must be a list of integers")
        if len(img) != group.order or sorted(img) != list(range(group.order)):
            raise InputError("automorphism image is not a permutation of the group")
        _require_homomorphism(group, group, img)
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
        return GroupAutomorphism._trusted(
            self.group, tuple(self.image[v] for v in other.image))

    @classmethod
    def _trusted(cls, group: FiniteGroup, image: tuple[int, ...]) -> "GroupAutomorphism":
        """An automorphism whose image tuple the caller has already checked."""
        self = cls.__new__(cls)
        self.group, self.image = group, image
        return self

    @staticmethod
    def identity(group: FiniteGroup) -> "GroupAutomorphism":
        return GroupAutomorphism._trusted(group, tuple(range(group.order)))


class AutomorphismArray(abc.Sequence):
    """Automorphisms of a group as a read-only sequence over one array.

    rows is the read-only (m, |G|) int32 array of their images.  Indexing
    (negative indices and slices too) and iteration build
    GroupAutomorphism objects on demand, _SEARCH_CHUNK rows at a time, and
    keep one per row, so asking for a row twice gives the same object.
    view(mask) lists the rows a mask keeps, in the same order, over the
    same array and the same objects, and mask(other) the members of this
    sequence that another sequence over that array lists.
    """

    __slots__ = ("group", "_all", "_at", "_objects", "_ready")

    def __init__(self, group: FiniteGroup, rows: np.ndarray,
                 at: Optional[np.ndarray] = None, objects: Optional[list] = None):
        self.group, self._all, self._at = group, rows, at   # at: None lists every row
        self._objects = [None] * len(rows) if objects is None else objects
        self._ready = False         # every object of this sequence is built

    @property
    def rows(self) -> np.ndarray:
        if self._at is None:
            return self._all
        rows = self._all[self._at]
        rows.flags.writeable = False
        return rows

    def view(self, mask: np.ndarray) -> "AutomorphismArray":
        at = np.flatnonzero(mask)
        if self._at is not None:
            at = self._at[at]
        elif len(at) == len(self._all):     # every row: rows needs no copy
            at = None
        return AutomorphismArray(self.group, self._all, at, self._objects)

    def mask(self, other: "AutomorphismArray") -> np.ndarray:
        """Which members of this sequence other, a sequence over the same
        array (a view of the same AutomorphismArray), lists."""
        if other._all is not self._all:
            raise InputError("the sequences are not views of one array")
        listed = other._listed()
        return listed if self._at is None else listed[self._at]

    def _listed(self) -> np.ndarray:
        """Which rows of the array this sequence lists."""
        listed = np.zeros(len(self._all), dtype=bool)
        listed[slice(None) if self._at is None else self._at] = True
        return listed

    def __len__(self) -> int:
        return len(self._all) if self._at is None else len(self._at)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[k] for k in range(*i.indices(len(self))))
        i, n = operator.index(i), len(self)
        if not -n <= i < n:
            raise IndexError("automorphism index out of range")
        i %= n
        r = i if self._at is None else int(self._at[i])
        if self._objects[r] is None:
            self._chunk(i - i % _SEARCH_CHUNK)
        return self._objects[r]

    def __iter__(self):
        if self._ready:
            objs = self._objects
            return iter(objs) if self._at is None else map(objs.__getitem__, self._at.tolist())
        return self._walk()

    def _walk(self):
        for lo in range(0, len(self), _SEARCH_CHUNK):
            yield from self._chunk(lo)
        self._ready = True

    def _chunk(self, lo: int) -> list:
        """The objects at positions lo .. lo + _SEARCH_CHUNK - 1, built
        from their rows where missing."""
        hi = min(lo + _SEARCH_CHUNK, len(self))
        at = range(lo, hi) if self._at is None else self._at[lo:hi].tolist()
        objs = self._objects
        missing = [r for r in at if objs[r] is None]
        if missing:
            trusted, G = GroupAutomorphism._trusted, self.group
            for r, image in zip(missing, map(tuple, self._all[missing].tolist())):
                objs[r] = trusted(G, image)
        return [objs[r] for r in at]

    def __repr__(self) -> str:
        return f"AutomorphismArray({self.group.name}, {len(self)} automorphisms)"


def _require_automorphisms(G: FiniteGroup, img: np.ndarray, message: str) -> None:
    """Raise AssertionError(message) unless each row of img, (m, |G|) entries
    in range(|G|), is a permutation with img(a*s) = img(a) img(s) for all a
    and s in {1} and the generators (_require_homomorphism's lemma, as a
    block), adding GroupAutomorphism's message on the first failing row."""
    gens = np.array((0,) + G.generators, dtype=np.intp)
    bad = ~((np.sort(img, axis=1) == np.arange(G.order)).all(axis=1)
            & (img[:, G.cayley[:, gens]]
               == G.cayley[img[:, :, None], img[:, None, gens]]).all(axis=(1, 2)))
    if bad.any():
        try:
            GroupAutomorphism(G, img[np.argmax(bad)].tolist())
        except InputError as exc:
            raise AssertionError(f"{message}: {exc}") from exc
        raise AssertionError(message)


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
    return H, GroupHomomorphism(G, H, pi)


def center(G: FiniteGroup) -> Subgroup:
    if G._center is None:
        commutes = G.cayley == G.cayley.T
        G._center = Subgroup(G, np.flatnonzero(commutes.all(axis=1)).tolist())
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
    """Small generating set: repeatedly adjoin the smallest element outside the
    closure.  Found once per group, while its table is validated."""
    return list(G.generators)


def _row_keys(R: np.ndarray) -> list:
    """Each row of the integer array R as bytes: equal rows, and only they,
    have equal keys, so a lookup by key needs no precondition on R."""
    R = np.ascontiguousarray(R, dtype=np.int64)
    return R.view(np.dtype((np.void, 8 * R.shape[1]))).ravel().tolist()


def _row_index(K: np.ndarray) -> dict:
    """The index of each row of K by its _row_keys key (the first of equal rows)."""
    keys = _row_keys(K)
    return dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))


def _find_rows(index: dict, P: np.ndarray) -> list:
    """The index of each row of P in a _row_index, -1 where it is none."""
    return list(map(index.get, _row_keys(P), repeat(-1)))


def require_closed(K: np.ndarray, message: str) -> tuple[list[int], list[np.ndarray]]:
    """Check that the rows of K, permutations of range(L) composed as
    (r o s)(i) = r[s[i]], form a group; return generators and products.

    S grows greedily, in the order of the rows: each generator is the first
    row not yet reached.  For each s in S one gather over all of K,
    K[:, s], must give rows of K (else AssertionError(message)), each
    looked up by its key; then the identity, which must be a row, is
    closed under right multiplication by S in index space.  When every
    row is reached, K is a finite set containing the identity and closed
    under right multiplication by S: it is the subgroup S generates, hence
    closed under all products.  Conversely a subgroup passes, and the
    empty set counts as closed, so this accepts exactly the sets that
    checking all |K|^2 products accepts, at cost O(|K| * |S|); each
    generator at least doubles the reached subgroup, so |S| <= log2 |K|.
    Returns the indices of S and, per generator s, the index of each
    K_k o s (equal rows count as the first of them).
    """
    m, L = K.shape
    if not m:
        return [], []
    index = _row_index(K)
    identity = _find_rows(index, np.arange(L)[None])[0]
    if identity < 0:
        raise AssertionError(message)
    canon = range(m) if len(index) == m else _find_rows(index, K)
    reached = bytearray(m)
    reached[identity] = True
    order = [identity]
    gens: list[int] = []
    steps: list[list[int]] = []
    for s in range(m):
        if reached[canon[s]]:
            continue
        step = _find_rows(index, K[:, K[s]])
        if -1 in step:
            raise AssertionError(message)
        gens.append(s)
        steps.append(step)
        done = len(order)       # order[:done] is closed under the earlier gens
        for i, a in enumerate(order):       # runs over appended members too
            for st in (steps[-1:] if i < done else steps):
                b = st[a]
                if not reached[b]:
                    reached[b] = True
                    order.append(b)
    return gens, [np.array(st, dtype=np.intp) for st in steps]


def hom_by_generator_images(G: FiniteGroup, T: FiniteGroup,
                            gen_pairs: Sequence[tuple[int, int]]
                            ) -> Optional[dict[int, int]]:
    """close_generator_images over the Cayley tables of G and T."""
    return close_generator_images(0, 0, gen_pairs, G.mul, T.mul)


def close_generator_images(identity, target_identity, gen_pairs, mul,
                           target_mul) -> Optional[dict]:
    """Map determined by generator images, or None if inconsistent.

    Elements are hashable keys multiplied by mul, images by target_mul.
    Closes {identity} under right multiplication by the given generators,
    propagating images; a collision with a differing image means no
    homomorphism has those generator images.  A consistent result is a
    genuine homomorphism on the generated subgroup (induction on word
    length), so no quadratic recheck is needed.
    """
    m = {identity: target_identity}
    queue = [identity]
    for a in queue:                 # runs over appended members too
        fa = m[a]
        for g, y in gen_pairs:
            b = mul(a, g)
            c = target_mul(fa, y)
            got = m.get(b)
            if got is None:
                m[b] = c
                queue.append(b)
            elif got != c:
                return None
    return m


# partial maps per block of the automorphism search; memory is O(block * |G|)
_SEARCH_CHUNK = 512


class _Level:
    """The closure program of K_d = <g_1..g_d> from K_(d-1), built once.

    gen is g_d and cands its candidate images (the elements of its order);
    old lists K_(d-1).  The BFS from K_(d-1) and g_d reaches each new member
    b of K_d by a tree edge b = a*s, s in g_1..g_d; each BFS layer is a
    stage, and stage i fills its members from columns filled before it.  The
    products a*s still to test are those with s = g_d or a new, less the
    tree edges and 1*g_d; each is tested at the first stage after which a,
    s and a*s are all filled.  stages holds (fill, checks), each a (b, a, s)
    triple of arrays or None; stage 0 fills nothing, and a stage with
    nothing to fill or test is left out.
    """

    def __init__(self, G: FiniteGroup, gens: Sequence[int], d: int,
                 old: list[int]):
        t, g, step = G.table, gens[d], gens[:d + 1]
        orders = G.element_orders()
        self.gen = g
        self.cands = np.array([x for x in range(G.order) if orders[x] == orders[g]])
        self.old, known = np.array(old), set(old)
        stage = dict.fromkeys(old + [g], 0)       # the stage filling each member
        layer, tree, fills = old + [g], {(0, g)}, [[]]
        while layer:
            edges = []
            for a in layer:
                for s in step:
                    b = t[a][s]
                    if b not in stage:
                        stage[b] = len(fills)
                        tree.add((a, s))
                        edges.append((b, a, s))
            fills.append(edges)
            layer = [b for b, _, _ in edges]
        checks = [[] for _ in fills]
        for a in sorted(stage):
            for s in step:
                if (s == g or a not in known) and (a, s) not in tree:
                    b = t[a][s]
                    checks[max(stage[b], stage[a], stage[s])].append((b, a, s))
        self.members = sorted(stage)
        self.stages = [tuple(tuple(np.array(c) for c in zip(*e)) if e else None
                             for e in pair)
                       for pair in zip(fills, checks) if pair != ([], [])]


def _automorphism_rows(G: FiniteGroup) -> np.ndarray:
    """Images of all automorphisms of G, one int32 row each, in the order
    the search finds them (ascending, see automorphism_group).

    Level d extends each partial map on K_(d-1) = <g_1..g_(d-1)> by an image
    y of g_d (the generators of G), fills the members of K_d along the BFS
    tree edges, img(a*s) = img(a) img(s), and keeps the maps that are
    injective homomorphisms on K_d.  Why this finds every automorphism and
    nothing else:

    - Homomorphism: a map with img(1) = 1 and img(a*s) = img(a) img(s) for
      every a in K_d and every s in g_1..g_d is a homomorphism on K_d, by
      induction on the length of a positive word for b in img(a*b) =
      img(a) img(b) (hom_by_generator_images makes the same argument).  The
      pairs with a in K_(d-1) and s in g_1..g_(d-1) held at level d-1, the
      tree edges hold by construction, the rest are checked.
    - Injective: a homomorphism is injective exactly when its kernel is
      trivial.  The members of K_(d-1) other than 1 already have images
      other than 1, and y is not 1 (the image of 1 is taken), so only the
      members each stage fills are tested.
    - Pruning: an automorphism restricts to an injective homomorphism on
      every K_d, and g_d lies outside K_(d-1), so dropping the non-injective
      maps and the images y already taken by K_(d-1) loses none, and y must
      have the order of g_d.
    - At the last level K_r = G, and an injective map of G to itself is a
      bijection.

    The search runs depth first.  A block extends _SEARCH_CHUNK // |cands|
    maps (at least one), so it builds at most max(_SEARCH_CHUNK, |G|) maps
    and memory is O(_SEARCH_CHUNK * |G|) per level.  Every map built counts
    against config.AUT_SEARCH_BOUND; passing it raises BoundExceeded.
    """
    gens, n = list(G.generators), G.order
    levels, old = [], [0]
    for d in range(len(gens)):
        levels.append(_Level(G, gens, d, old))
        old = levels[-1].members
    mul = G.cayley.astype(np.int32).ravel()      # a*b at a*n + b < 2**31
    bound, built, found = config.AUT_SEARCH_BOUND, 0, []

    def search(d: int, maps: np.ndarray) -> None:
        # maps[a, j] is the image of a under map j, for a in K_(d-1)
        nonlocal built
        if d == len(levels):
            found.append(maps.T)
            return
        lv = levels[d]
        per = max(1, _SEARCH_CHUNK // len(lv.cands))     # maps per block
        for lo in range(0, maps.shape[1], per):
            block = maps[:, lo:lo + per]
            taken = np.zeros((block.shape[1], n), dtype=bool)
            taken[np.arange(block.shape[1]), block[lv.old]] = True
            j, y = np.nonzero(~taken[:, lv.cands])
            built += len(j)
            if built > bound:
                raise BoundExceeded(
                    f"automorphism search of {G.name} passed {bound} partial maps")
            x = block[:, j]
            x[lv.gen] = lv.cands[y]
            for fill, checks in lv.stages:
                keep = np.ones(x.shape[1], dtype=bool)
                if fill is not None:
                    b, a, s = fill
                    x[b] = mul.take(x[a] * n + x[s])
                    keep &= (x[b] != 0).all(axis=0)
                if checks is not None:
                    b, a, s = checks
                    keep &= (x[b] == mul.take(x[a] * n + x[s])).all(axis=0)
                if not keep.all():
                    x = x[:, keep]
            if x.shape[1]:
                search(d + 1, x)

    search(0, np.zeros((n, 1), dtype=np.int32))
    return np.concatenate(found)


def automorphism_group(G: FiniteGroup) -> AutomorphismArray:
    """All automorphisms of G, in aut:IDX order (ascending image rows), as
    one read-only AutomorphismArray found once per group.

    The search emits its rows in that order, so nothing is sorted: each
    generator g_d is the smallest element outside K_(d-1)
    (_table_generators), so two maps that agree on K_(d-1) first differ in
    column g_d; and the depth-first search extends its parents in order,
    trying the images of g_d in ascending order.  By induction on d its
    rows come out in ascending order, which one pass over the array
    checks: at the first column where a row differs from the one before
    it, it is greater (so the rows are distinct too).
    """
    if G._automorphisms is None:
        limit = config.max_order()
        if G.order > limit:
            raise BoundExceeded(
                f"automorphism enumeration limited to order {limit}, got {G.order}")
        rows = _automorphism_rows(G)
        # one array check for what GroupAutomorphism checks per object: each
        # row of |G| entries takes every value
        hit = np.zeros(rows.shape, dtype=bool)
        hit[np.arange(len(rows))[:, None], rows] = True
        if not hit.all():
            raise AssertionError(f"automorphism search of {G.name} built a non-permutation")
        step = rows[1:] - rows[:-1]        # > 0 at the first nonzero column
        first = (step != 0).argmax(axis=1)
        if not (step[np.arange(len(step)), first] > 0).all():
            raise AssertionError(f"automorphism search of {G.name} emitted rows out of order")
        rows.flags.writeable = False
        G._automorphisms = AutomorphismArray(G, rows)
    return G._automorphisms


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
