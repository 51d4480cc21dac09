"""Normalized cochains of H with coefficients in a finite abelian group.

Coefficients live in Z/d_1 x ... x Z/d_k coordinates.  A 1-cochain is a
read-only int64 array of shape (h, k) and a 2-cochain one of shape
(h, h, k), reduced into [0, d_i) once, at construction.  H acts through a
read-only (h, k, k) int64 array of matrices A(x) (None meaning the trivial
action), composed so that A(xy) = A(y) A(x).  Cocycle and coboundary counts
come from one exact int64 lattice engine (intlin.TriangularLattice): B^2 is
held in a lattice whose rows remember how they were assembled (witnesses chi
with coboundary f), class keys are its canonical remainders, and |Z^2| is the
determinant of the lattice spanned by the dual of the constraint system.

The cocycle identity is asked only at generator middle arguments.  Write

    D(x, y, z) = f(xy, z) + A(z) f(x, y) - f(x, yz) - f(y, z),

so f is a 2-cocycle when D vanishes.  For a well-defined right action
(A(wz) = A(z) A(w)) and any 2-cochain f, expanding the terms gives

    D(x, sw, z) = D(xs, w, z) + D(x, s, wz) - A(z) D(x, s, w) - D(s, w, z).

Every y != 1 is a positive word s w in the generators S of H, with w one
letter shorter, so if D(x, s, z) = 0 for every s in S and all x, z, then
induction on the word length of y gives D = 0 everywhere (a triple with an
identity argument holds by normalization, using A(1) = 1).  Hence f is a
2-cocycle iff the identity holds at the (h-1)^2 |S| triples (x, s, z).

D is written once, in _identity, which evaluates it unreduced at index
arrays x, y, z that broadcast together, on any array F indexed [x, y, ...]
(the action reduced mod d).  Every use of the identity calls it:

- _generator_defects tests the (x, s, z) in one call of shape
  (h-1, |S|, h-1, k, ...), one flag per cochain of a stack on F's
  trailing axes; two_cocycle_defect asks it of one cochain: the factor
  set in wells._build_mu and the f of class_of.  A cochain solved or keyed
  is otherwise proven once, by membership or else by the identity: one
  that reduces to zero in the B^2 lattice is a coboundary once its witness
  chi passes d(chi) = f.  coboundary_solve does so for one cochain, and
  _keys_of for a stack the package built as cocycles (never user input).
- two_cocycle_defect scans all (h-1)^3 triples only when a generator
  triple fails, a block of first arguments at a time in O(h^2 k) memory,
  to name the lexicographically first failing one.
- |Z^2|: unknowns are the values f(x, y) for x, y != 1 only; normalization
  fixes the rest.  The system is re-parametrized by the slice values
  f(x, s), s in S: E[x, y, c, r] is the coefficient of slice unknown r in
  coordinate c of f(x, y), a stack of 2-cochains.  E is filled by peeling
  the second argument along a breadth-first spanning tree: while
  E[:, s w] is still zero, D(x, s, w) is the value of f(x, s w) that makes
  the identity at (x, s, w) hold, and it is written there.  The identity
  is then imposed at the other (x, s, z): (h-1)^2 |S| k congruences
  instead of (h-1)^3 k, less those of the tree edges.  kernel_order
  dedupes them.

The coboundary chi(xy) - chi(y) - A(y) chi(x) is likewise written once, in
_coboundary.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Optional, Sequence
from weakref import WeakKeyDictionary

import numpy as np

from . import config
from .abelian import Vector
from .errors import BoundExceeded, InputError, NotACocycle, ParentMismatch
from .groups import FiniteGroup, GroupAutomorphism, is_integer
from .intlin import TriangularLattice, kernel_order

__all__ = [
    "OneCochain",
    "TwoCochain",
    "CohomologyGroup",
    "CohomologyClass",
    "validate_action",
    "trivial_action",
    "is_two_cocycle",
    "two_cocycle_defect",
    "coboundary_of",
    "class_eq",
]

# read-only (h, k, k) int64 array of action matrices; None is the trivial action
Action = Optional[np.ndarray]


@lru_cache(maxsize=256)
def _moduli_array(moduli: tuple[int, ...]) -> np.ndarray:
    """One shared read-only array per moduli tuple; every new cochain uses it."""
    d = np.array(moduli, dtype=np.int64)
    d.flags.writeable = False
    return d


def trivial_action(group: FiniteGroup, moduli: Sequence[int]) -> np.ndarray:
    k = len(moduli)
    return np.broadcast_to(np.eye(k, dtype=np.int64), (group.order, k, k))


def validate_action(group: FiniteGroup, moduli: Sequence[int], action) -> Action:
    """Check an H-indexed matrix family is a well-defined right action.

    Returns it as a read-only (h, k, k) int64 array (None stays None); a
    read-only int64 array of that shape is returned as it is.
    """
    return _proven_action(group, moduli, action)[0]


def _proven_action(group: FiniteGroup, moduli: Sequence[int], action
                   ) -> tuple[Action, Action]:
    """validate_action's array and the same array mod d, the form the
    kernels take.  The last array proven for a group is remembered, so
    proving it again is one lookup."""
    if action is None:
        return None, None
    d = _moduli_array(tuple(moduli))
    hit = _PROVEN_ACTIONS.get(group)
    if hit is not None and hit[0] is action and hit[1] is d:
        return action, hit[2]
    h = group.order
    k = len(moduli)
    if len(action) != h:
        raise InputError(f"expected {h} action matrices, got {len(action)}")
    for x, M in enumerate(action):
        if len(M) != k or any(len(row) != k for row in M):
            raise InputError(f"action matrix {x} is not {k}x{k}")
    try:
        A = np.asarray(action, dtype=np.int64)
    except OverflowError:
        raise InputError("action matrix entry out of range") from None
    if A.shape != (h, k, k):
        A = A.reshape(h, k, k)
    if A.flags.writeable:
        A = A.copy()
        A.flags.writeable = False
    R = _mod_rows(A, d)
    undefined = (R * d) % d[:, None]
    if undefined.any():
        x, i, j = (int(v) for v in np.argwhere(undefined)[0])
        raise InputError(
            f"action matrix {x} entry ({i},{j}) is not defined "
            f"on Z/{moduli[j]} -> Z/{moduli[i]}")
    if ((R[0] - np.eye(k, dtype=np.int64)) % d[:, None]).any():
        raise InputError("action at the identity must be the identity matrix")
    # composition convention for a right action: A(xy) = A(y) A(x)
    bad = ((R[group.cayley] - np.einsum("yil,xlj->xyij", R, R))
           % d[:, None]).any(axis=(2, 3))
    if bad.any():
        x, y = (int(v) for v in np.argwhere(bad)[0])
        raise InputError(f"action is not multiplicative at ({x},{y})")
    R.flags.writeable = False
    _PROVEN_ACTIONS[group] = (A, d, R)
    return A, R


def _mod_rows(action, d: np.ndarray) -> Action:
    """A matrix family with entry (i, j) reduced mod d_i, where it matters
    only; reducing bounds the products of the kernels.  None stays None."""
    if action is None:
        return None
    try:
        return np.asarray(action, dtype=np.int64) % d[:, None]
    except OverflowError:
        raise InputError("action matrix entry out of range") from None


def _reduced(values, moduli: tuple[int, ...], shape: tuple[int, ...],
             bad_shape: str) -> np.ndarray:
    """values as a read-only int64 array of the given shape, [..., i] in [0, d_i)."""
    try:
        arr = np.asarray(values, dtype=np.int64)
    except ValueError:
        raise InputError(bad_shape) from None
    if arr.shape != shape:
        raise InputError(bad_shape)
    out = arr % _moduli_array(moduli)
    out.flags.writeable = False
    return out


class _Cochain:
    """Shared arithmetic and identity of the array-backed cochains."""

    __slots__ = ("group", "moduli", "values")

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.group is other.group
                and self.moduli == other.moduli
                and self.values.tobytes() == other.values.tobytes())

    def __hash__(self):
        return hash((id(self.group), self.moduli, self.values.tobytes()))

    def _binop(self, other, sign: int):
        if type(other) is not type(self) or other.group is not self.group \
                or other.moduli != self.moduli:
            raise ParentMismatch("cochains live over different data")
        return type(self)(self.group, self.moduli,
                          self.values + sign * other.values)

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def is_zero(self) -> bool:
        return not self.values.any()


class OneCochain(_Cochain):
    """Normalized map H -> N in coordinates; values[identity] = 0.

    values is a read-only (h, k) int64 array.
    """

    __slots__ = ()

    def __init__(self, group: FiniteGroup, moduli: Sequence[int], values):
        self.group = group
        self.moduli = tuple(moduli)
        h = group.order
        if len(values) != h:
            raise InputError(f"expected {h} values, got {len(values)}")
        k = len(self.moduli)
        vals = _reduced(values, self.moduli, (h, k),
                        f"expected {h} values of {k} coordinates")
        if vals[0].any():
            raise InputError("cochain must vanish at the identity")
        self.values = vals

    @classmethod
    def zero(cls, group: FiniteGroup, moduli: Sequence[int]) -> "OneCochain":
        return cls(group, moduli, np.zeros((group.order, len(moduli)), dtype=np.int64))

    def __call__(self, x: int) -> Vector:
        return tuple(self.values[x].tolist())

    def __repr__(self) -> str:
        return f"OneCochain({[tuple(v) for v in self.values.tolist()]})"

    def to_json(self) -> dict:
        values = {str(x): v for x, v in enumerate(self.values.tolist()) if any(v)}
        return {"moduli": list(self.moduli), "values": values}

    @classmethod
    def from_json(cls, group: FiniteGroup, data: dict) -> "OneCochain":
        moduli, values = _parse_cochain_json(group, data, arity=1)
        vals = [(0,) * len(moduli)] * group.order
        for key, vec in values.items():
            vals[key[0]] = vec
        return cls(group, moduli, vals)


class TwoCochain(_Cochain):
    """Normalized map H x H -> N in coordinates; vanishes when either slot is 1.

    values is a read-only (h, h, k) int64 array.
    """

    __slots__ = ()

    def __init__(self, group: FiniteGroup, moduli: Sequence[int], values):
        self.group = group
        self.moduli = tuple(moduli)
        h = group.order
        if isinstance(values, np.ndarray):     # _reduced checks the full shape
            ragged = values.shape[:2] != (h, h)
        else:
            ragged = len(values) != h or any(len(row) != h for row in values)
        if ragged:
            raise InputError(f"expected {h}x{h} values")
        k = len(self.moduli)
        vals = _reduced(values, self.moduli, (h, h, k),
                        f"expected {h}x{h} values of {k} coordinates")
        if vals[0].any() or vals[:, 0].any():
            raise InputError("cochain must vanish when either argument is the identity")
        self.values = vals

    @classmethod
    def zero(cls, group: FiniteGroup, moduli: Sequence[int]) -> "TwoCochain":
        h = group.order
        return cls(group, moduli, np.zeros((h, h, len(moduli)), dtype=np.int64))

    @classmethod
    def from_function(cls, group: FiniteGroup, moduli: Sequence[int], fn) -> "TwoCochain":
        h = group.order
        return cls(group, moduli, [[fn(x, y) for y in range(h)] for x in range(h)])

    def __call__(self, x: int, y: int) -> Vector:
        return tuple(self.values[x, y].tolist())

    def __repr__(self) -> str:
        nonzero = int(self.values.any(axis=-1).sum())
        return f"TwoCochain(<{nonzero} nonzero values>)"

    def to_json(self) -> dict:
        values = {
            f"{x},{y}": v
            for x, row in enumerate(self.values.tolist())
            for y, v in enumerate(row) if any(v)
        }
        return {"moduli": list(self.moduli), "values": values}

    @classmethod
    def from_json(cls, group: FiniteGroup, data: dict) -> "TwoCochain":
        moduli, values = _parse_cochain_json(group, data, arity=2)
        h = group.order
        zero = (0,) * len(moduli)
        vals = [[zero] * h for _ in range(h)]
        for key, vec in values.items():
            vals[key[0]][key[1]] = vec
        return cls(group, moduli, vals)


def _parse_cochain_json(group: FiniteGroup, data: dict, arity: int):
    if not isinstance(data, dict) or "moduli" not in data:
        raise InputError("cochain JSON needs 'moduli' and 'values'")
    moduli = data["moduli"]
    if not isinstance(moduli, list) or not all(
            is_integer(m) and m >= 1 for m in moduli):
        raise InputError("'moduli' must be a list of positive integers")
    raw = data.get("values", {})
    if not isinstance(raw, dict):
        raise InputError("'values' must be an object")
    out = {}
    for key, vec in raw.items():
        parts = str(key).split(",")
        if len(parts) != arity:
            raise InputError(f"bad cochain key {key!r}: expected {arity} indices")
        try:
            idx = tuple(int(p) for p in parts)
        except ValueError:
            raise InputError(f"bad cochain key {key!r}") from None
        if any(i < 0 or i >= group.order for i in idx):
            raise InputError(f"cochain key {key!r} out of range for |H|={group.order}")
        if not isinstance(vec, list) or len(vec) != len(moduli) or not all(
                map(is_integer, vec)):
            raise InputError(f"cochain value at {key!r} must be {len(moduli)} integers")
        # reduced here, so entries beyond 64 bits never reach the array
        out[idx] = tuple(e % m for e, m in zip(vec, moduli))
    return tuple(moduli), out


# upper bound on the triples (x, y, z) the full scan gathers at once
_CHECK_BLOCK_TRIPLES = 2 ** 15

# per group: the last action array proven a right action, with the moduli
# array it was proven over and the array mod d
_PROVEN_ACTIONS: WeakKeyDictionary = WeakKeyDictionary()


def _identity(F: np.ndarray, A: Action, tab: np.ndarray, x, y, z) -> np.ndarray:
    """D(x, y, z) = f(xy, z) + A(z) f(x, y) - f(x, yz) - f(y, z), unreduced.

    x, y, z are index arrays (or ints) that broadcast together; F is indexed
    [x, y, c, ...] and its trailing axes pass through.  A is the action mod
    d, or None for the trivial action.
    """
    tail = F.shape[3:]
    acted = F[x, y]
    if A is not None:
        acted = A[z] @ acted.reshape(acted.shape[:acted.ndim - len(tail)] + (-1,))
        acted = acted.reshape(acted.shape[:-1] + tail)
    return F[tab[x, y], z] + acted - F[x, tab[y, z]] - F[y, z]


def _coboundary(C: np.ndarray, A: Action, tab: np.ndarray) -> np.ndarray:
    """chi(xy) - chi(y) - A(y) chi(x), unreduced, indexed [x, y], for C
    indexed [x, c, ...]; A is indexed [y, i, j, ...] and reduced mod d, or
    None.  Trailing axes of C and A pass through, so a stack of cochains
    (and of actions) is one call."""
    acted = C[:, None] if A is None else np.einsum("yij...,xj...->xyi...", A, C)
    return C[tab] - C[None] - acted


def two_cocycle_defect(f: TwoCochain, action: Action):
    """First (x, y, z) where the cocycle identity fails, or None.

    Triples with an identity argument hold by normalization and are
    skipped, so the answer is the lexicographically first failing triple of
    non-identity elements.  When _holds_at_generator_triples proves f a
    cocycle that is None; otherwise _first_defect scans every triple.
    """
    if f.group.order <= 1 or not f.moduli or _holds_at_generator_triples(f, action):
        return None
    return _first_defect(f, action)


def _holds_at_generator_triples(f: TwoCochain, action: Action) -> bool:
    """True when action is None or a well-defined right action and the
    identity holds at every (x, s, z) with s a generator, tested in one
    call of shape (h-1, |S|, h-1, k); f is then a cocycle (module
    docstring).  False says only that this test does not prove it."""
    try:
        A = _proven_action(f.group, f.moduli, action)[1]
    except InputError:
        return False
    return not _generator_defects(f.values, A, f.group, _moduli_array(f.moduli))


def _generator_defects(F: np.ndarray, A: Action, group: FiniteGroup,
                       d: np.ndarray) -> np.ndarray:
    """Whether D(x, s, z) is nonzero mod d at some x, z and generator s,
    one flag per index of the trailing axes of F, indexed [x, y, c, ...]:
    one _identity call of shape (h-1, |S|, h-1, k, ...).  A is the action
    mod d, or None."""
    x = np.arange(1, group.order)
    s = np.array(group.generators, dtype=np.intp)
    D = _identity(F, A, group.cayley, x[:, None, None], s[:, None], x)
    return (D % d.reshape(d.shape + (1,) * (F.ndim - 3))).any(axis=(0, 1, 2, 3))


def _first_defect(f: TwoCochain, action: Action):
    """The lexicographically first failing triple of non-identity elements.

    D is evaluated for a block of first arguments x at a time, sized so a
    block holds at most _CHECK_BLOCK_TRIPLES triples; memory stays O(h^2 k).
    """
    h = f.group.order
    d = _moduli_array(f.moduli)
    A = _mod_rows(action, d)
    rest = np.arange(1, h)
    step = max(1, _CHECK_BLOCK_TRIPLES // ((h - 1) * (h - 1)))
    for x0 in range(1, h, step):
        xs = np.arange(x0, min(x0 + step, h))
        diff = _identity(f.values, A, f.group.cayley, xs[:, None, None], rest[:, None], rest)
        bad = (diff % d).any(axis=-1)
        if bad.any():
            i, y, z = np.argwhere(bad)[0]
            return (int(xs[i]), int(y) + 1, int(z) + 1)
    return None


def _require_cocycle(f: TwoCochain, action: Action) -> None:
    """NotACocycle naming the first failing triple, unless f is a cocycle."""
    defect = two_cocycle_defect(f, action)
    if defect is not None:
        raise NotACocycle(defect)


def is_two_cocycle(f: TwoCochain, action: Action) -> bool:
    """True iff f(xy,z) + A(z) f(x,y) = f(x,yz) + f(y,z) for all x, y, z."""
    return two_cocycle_defect(f, action) is None


def coboundary_of(chi: OneCochain, action: Action,
                  phi: Optional[GroupAutomorphism] = None) -> TwoCochain:
    """The 2-cocycle (x,y) -> chi(xy) - chi(y) - A((phi)y) chi(x).

    With phi omitted this is the ordinary coboundary; the twisted variant
    appears when comparing factor sets across an automorphism of H.
    """
    G = chi.group
    if phi is not None and (not isinstance(phi, GroupAutomorphism) or phi.group is not G):
        raise ParentMismatch("phi must be an automorphism of the cochain's group")
    A = _mod_rows(action, _moduli_array(chi.moduli))
    if A is not None and phi is not None:
        A = A[list(phi.image)]
    return TwoCochain(G, chi.moduli, _coboundary(chi.values, A, G.cayley))


class CohomologyClass:
    """A 2-cocycle up to coboundaries; identity is decided constructively."""

    __slots__ = ("parent", "representative", "key")

    def __init__(self, parent: "CohomologyGroup", representative: TwoCochain,
                 key: tuple[int, ...]):
        self.parent = parent
        self.representative = representative
        self.key = key

    @property
    def is_trivial(self) -> bool:
        return not any(self.key)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CohomologyClass)
                and self.parent is other.parent and self.key == other.key)

    def __hash__(self):
        return hash((id(self.parent), self.key))

    def __repr__(self) -> str:
        return f"CohomologyClass({'trivial' if self.is_trivial else 'nontrivial'})"


def class_eq(a: CohomologyClass, b: CohomologyClass) -> bool:
    if not isinstance(a, CohomologyClass) or not isinstance(b, CohomologyClass):
        raise ParentMismatch("expected cohomology classes")
    if a.parent is not b.parent:
        raise ParentMismatch("classes belong to different cohomology groups")
    return a.key == b.key


class CohomologyGroup:
    """Z^2, B^2 and H^2 of H with given coefficients, with witness recovery.

    Immutable after construction: the coboundary lattice and all three
    orders are computed eagerly, queries are pure.
    """

    def __init__(self, group: FiniteGroup, coeffs, action: Action = None):
        self.group = group
        self.coeffs = coeffs
        moduli = getattr(coeffs, "invariant_factors", None)
        self.moduli = tuple(moduli if moduli is not None else coeffs)
        self.action, self._A = _proven_action(group, self.moduli, action)
        h = group.order
        k = len(self.moduli)
        unknowns = (h - 1) * (h - 1) * k
        if unknowns > config.DEFAULT_MAX_UNKNOWNS:
            raise BoundExceeded(
                f"cocycle system has {unknowns} unknowns "
                f"(bound {config.DEFAULT_MAX_UNKNOWNS})")
        self._h = h
        self._k = k
        # ambient slots: pairs (x, y), x, y != 1, each k coordinates
        n = (h - 1) * k
        self._lattice = TriangularLattice(self.moduli * (h - 1) ** 2, expr_len=n)
        # generators: the coboundaries of the unit cochains, x = 1 + i // k
        # and coordinate i % k, each recorded as the i-th unit expression
        d = _moduli_array(self.moduli)
        for unit in np.eye(h * k, dtype=np.int64)[k:]:
            delta = _coboundary(unit.reshape(h, k), self._A, group.cayley) % d
            self._lattice.insert(delta[1:, 1:].reshape(-1), unit[k:])
        self.b2_order = self._lattice.span_order()
        self.z2_order = self._z2_order()
        if self.z2_order % self.b2_order:
            raise AssertionError("coboundary count must divide cocycle count")
        self.h2_order = self.z2_order // self.b2_order

    def __repr__(self) -> str:
        return (f"CohomologyGroup(|Z2|={self.z2_order}, |B2|={self.b2_order}, "
                f"|H2|={self.h2_order})")

    def vector_of(self, f: TwoCochain) -> np.ndarray:
        """Flatten a cochain over the nonidentity pair slots, x-major."""
        if f.group is not self.group or f.moduli != self.moduli:
            raise ParentMismatch("cochain does not live over this group's data")
        return f.values[1:, 1:].reshape(-1)

    def cochain_of_vector(self, vec: Sequence[int]) -> TwoCochain:
        h, k = self._h, self._k
        vals = np.zeros((h, h, k), dtype=np.int64)
        vals[1:, 1:] = np.reshape(vec, (h - 1, h - 1, k))
        return TwoCochain(self.group, self.moduli, vals)

    def coboundary_solve(self, f: TwoCochain) -> Optional[OneCochain]:
        """chi with coboundary_of(chi) = f, or None when f is not a coboundary.

        A found chi is checked, and d(chi) = f makes f a cocycle; so the
        cocycle identity is asked only when f does not reduce to zero."""
        expr = self._lattice.reduce(self.vector_of(f))
        if expr is None:
            _require_cocycle(f, self.action)
            return None
        vals = np.zeros((self._h, self._k), dtype=np.int64)
        vals[1:] = expr.reshape(self._h - 1, self._k)
        chi = OneCochain(self.group, self.moduli, vals)
        if coboundary_of(chi, self.action) != f:
            raise AssertionError("recovered witness does not reproduce the cocycle")
        return chi

    def class_of(self, f: TwoCochain) -> CohomologyClass:
        _require_cocycle(f, self.action)
        key = self._lattice.remainder(self.vector_of(f))
        return CohomologyClass(self, f, key)

    def zero_class(self) -> CohomologyClass:
        return self.class_of(TwoCochain.zero(self.group, self.moduli))

    def _keys_of(self, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Class keys and witnesses of a stack F, indexed [row, x, y, c], of
        cocycles built in the package (never user input), each row proven
        once: by d(chi) = f for the witness chi of a row that reduces to
        zero, else by the identity in one _generator_defects call, naming
        the first row that is no cocycle (a non-cocycle never reduces).
        Returns the remainders of one lattice walk, a line of (h-1)^2 k per
        row, and the reduced witnesses [row, x, c] of the zero rows."""
        lattice, d, A, H = self._lattice, _moduli_array(self.moduli), self._A, self.group
        rem, taken = lattice._remainders((F[:, 1:, 1:] % d).reshape(len(F), -1))
        zero = ~rem.any(axis=1)
        chi = np.zeros((int(zero.sum()), self._h, self._k), dtype=np.int64)
        chi[:, 1:] = lattice._taken(lattice._at, taken[zero]).reshape(chi[:, 1:].shape) % d
        delta = _coboundary(np.moveaxis(chi, 0, -1), A, H.cayley)
        if ((delta - np.moveaxis(F[zero], 0, -1)) % d[:, None]).any():
            raise AssertionError("recovered witness does not reproduce the cocycle")
        rest = F[~zero]
        if len(rest):
            bad = _generator_defects(np.moveaxis(rest, 0, -1), A, H, d)
            if bad.any():
                f = TwoCochain(H, self.moduli, rest[np.argmax(bad)])
                raise AssertionError("difference cocycle fails the identity at "
                                     f"{two_cocycle_defect(f, self.action)}")
        return rem, chi

    def _z2_order(self) -> int:
        h, k = self._h, self._k
        if h == 1 or k == 0:
            return 1
        G, tab, A = self.group, self.group.cayley, self._A
        d = _moduli_array(self.moduli)
        s = np.array(G.generators, dtype=np.intp)
        ns = s.size
        r = (h - 1) * ns * k
        x = np.arange(1, h)

        # E[x, y, c] expresses coordinate c of f(x, y) in the slice values;
        # f(x, s) for the si-th generator s is slice unknown
        # ((x-1)*ns + si)*k + c.  Along a breadth-first spanning tree,
        # E[1:, s w] takes the value of D(x, s, w) while it is still zero
        # (module docstring).
        E = np.zeros((h, h, k, r), dtype=np.int64)
        E[1:, s] = np.eye(r, dtype=np.int64).reshape(h - 1, ns, k, r)
        # tree[w, si]: s w was reached from w, so the identity at (x, s, w)
        # holds by the construction of E[:, s w] and gives no congruence
        tree = np.zeros((h, ns), dtype=bool)
        reached = {0}
        queue = deque([0])
        while queue:
            w = queue.popleft()
            for si, g in enumerate(s.tolist()):
                y = G.mul(g, w)
                if y in reached:
                    continue
                reached.add(y)
                if w:
                    tree[w, si] = True
                    E[1:, y] = _identity(E, A, tab, x, g, w) % d[:, None]
                queue.append(y)
        if len(reached) != h:
            raise AssertionError("generating set does not reach the whole group")

        # the identity at the other triples (x, s, z), as (pair, x, c) rows
        zp, sp = np.nonzero(~tree[1:])
        zp += 1
        rows = _identity(E, A, tab, x, s[sp, None], zp[:, None])
        return kernel_order(rows.reshape(-1, r), np.tile(d, zp.size * (h - 1)),
                            np.tile(d, (h - 1) * ns))
