"""Obstruction calculus for automorphisms of abelian-kernel group extensions.

Given G with an abelian normal subgroup N and quotient H = G/N, a transversal
t (t(1) = 1) yields the factor set mu(x,y) = t(xy)^-1 t(x) t(y) and the right
conjugation action of H on N.  An automorphism gamma of G normalizing N is
equivalent to a triple (theta, phi, chi) with

    gamma(t(x) n) = t(phi x) chi(x) theta(n),

where theta = gamma|_N, phi the induced map on H, and chi: H -> N measures
the transversal displacement.  The triple conditions, written additively in
N-coordinates (the single sign convention everything below reuses), are

    (2)  mu(phi x, phi y) - Theta mu(x, y) = chi(xy) - chi(y) - A(phi y) chi(x)
    (3)  Theta A(x) = A(phi x) Theta.

Whether a compatible (theta, phi) arises from some gamma is controlled by
cohomology classes of explicit difference cocycles; solving the coboundary
equation produces the witness chi constructively.

Every question is asked of a pair (theta, phi) in the compatible pairs C.
Extending theta is the slice C1 of pairs (theta, 1), lifting phi the slice
C2 of pairs (1, phi), and the central case is all of C; an identity slot
means "this sequence leaves that side fixed".  So one action
f -> Theta f o (phi x phi) on cochains, one difference cocycle
k = mu o (phi x phi) - Theta mu, one witness routine and one exactness loop
serve all three, and an identity slot skips its gather or matrix product.
The same action moves H^2 classes, and one composition law k_(g1 g2) =
k_g1 o (phi2 x phi2) + Theta1 k_g2 is checked on C1 and C2 at generators g2.
Sequence 1 (gamma -> theta on Aut_N^H G), 2 (gamma -> phi on Aut^N G) and,
for central extensions, 3 (gamma -> (theta, phi) on Aut_N G) key their
members and projections as the pair (theta.image, phi.image).

Reports ask many questions of one extension, so answers takes them as one
block, pairs of any sequence mixed, each pair once, and runs each check of
the one-question path once over the stack: condition (3) as the
compatibility mask, the (m, h, h, k) difference cocycles by one gather of
mu and one product with the theta matrices, their class keys and
witnesses by one CohomologyGroup._keys_of call, and, for the witnesses,
condition (2), gamma by gathers, the automorphism lemma over the block and
the induced pair.  In all three sequences
A o phi = A for a compatible pair (phi = 1 in the first; compatibility
with theta = 1 gives it in the second; the third is central), so k is a
cocycle for the extension's own action and one lattice serves every
question.  Both paths build k by _difference_stack, check conditions (3)
and (2) by _condition_3 and _condition_2, build gamma by _gamma_images and
read its pair by _induced_pairs (the public functions with one row), over
the coordinate tables of ExtensionData, gathers, like the action
matrices, from the arrays of abelian.AbelianStructure.  is_compatible is
the one-row _condition_3, and compatible_pairs one stacked mask of it over
the image rows of the Aut N x Aut H grid, kept as index pairs and closed
by groups.require_closed over their _pair_rows; aut_subgroups reads its
sets as masks over the rows of Aut(G), views of its one array; and
splitting builds and checks its sections by _gamma_images and
_induced_pairs too; groups._require_automorphisms proves computed images.
A difference cocycle is built unchecked (a cocycle by the lemma in
_difference_cocycle); what reads its key or witness proves it once, by
membership (d(chi) = k for the witness of a k that reduces to zero) or
else by the identity: class_of and coboundary_solve on the chain (through
_proven), CohomologyGroup._keys_of for every stack built here (the block,
derivation_check, reduction.index_kill_check).  The public functions stay
a chain of named calls (wells_cocycle_*, coboundary_solve,
automorphism_from_triple; lambda*, class_of): the traced benchmark times
them by name, and on large quotients their scalar walk beats a one-row
block.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import config
from .abelian import (AbelianStructure, Vector, abelian_structure,
                      restrict_to_matrix)
from .cohomology import (_CHECK_BLOCK_TRIPLES, CohomologyClass,
                         CohomologyGroup, OneCochain, TwoCochain, _coboundary,
                         _moduli_array, two_cocycle_defect)
from .errors import (BoundExceeded, DoesNotNormalize, InputError, NotACocycle,
                     NotCentral, NotCompatible, ParentMismatch,
                     TripleConditionsFail)
from .groups import (AutomorphismArray, FiniteGroup, GroupAutomorphism, Subgroup,
                     _integers, _require_automorphisms, automorphism_group,
                     center, quotient_group, require_closed)

__all__ = [
    "ExtensionData",
    "CompatiblePair",
    "WellsTriple",
    "AutSubgroups",
    "extension_from",
    "random_transversal",
    "is_compatible",
    "compatible_pairs",
    "wells_cocycle_theta",
    "wells_cocycle_phi",
    "wells_cocycle_pair",
    "lambda1",
    "lambda2",
    "lambda_pair",
    "triple_of",
    "automorphism_from_triple",
    "extend_automorphism",
    "lift_automorphism",
    "lift_pair",
    "Answer",
    "answer",
    "answers",
    "aut_subgroups",
    "sequence_autos",
    "slice_pair",
    "pair_key",
    "starred_sets",
    "verify_exactness",
    "h2_conjugation_action",
    "derivation_check",
]


class CompatiblePair(NamedTuple):
    theta: GroupAutomorphism
    phi: GroupAutomorphism


class WellsTriple(NamedTuple):
    theta: GroupAutomorphism  # automorphism of the standalone N group
    phi: GroupAutomorphism    # automorphism of H
    chi: OneCochain           # H -> N in coordinates


class Answer(NamedTuple):
    """One question about a pair: is it compatible, which gamma induces it,
    and, when none does, the nontrivial class of its difference cocycle."""
    compatible: bool
    witness: Optional[GroupAutomorphism]
    obstruction: Optional[CohomologyClass]


class _Sequence(NamedTuple):
    pair: str                 # the pairs of the slice, as messages write them
    free: tuple               # (theta, phi): whether the sequence moves each slot
    autos: str                # AutSubgroups field: the automorphisms it projects
    witness: str              # names the witness whose round trip failed
    ordinal: str              # names the sequence whose order identity failed
    all_sylows: bool          # the Sylow reduction tries every invariant Sylow
    moved: str                # exactness violations: a fixed slot moved,
    kernel: str               # the kernel differs,
    image: str                # the image differs


# 1: extend theta, 2: lift phi, 3: central extensions, both at once
_SEQUENCES = {
    1: _Sequence("(theta, 1)", (True, False), "aut_N_H", "extension", "first",
                 False, "in the H-fixing set induces a nonidentity quotient map",
                 "kernel of the restriction map differs from the N,H-fixing subgroup",
                 "image of the restriction map differs from the unobstructed "
                 "compatible thetas"),
    2: _Sequence("(1, phi)", (False, True), "aut_upper_N", "lift", "second", True,
                 "in the N-centralizing set moves N",
                 "kernel of the induction map differs from the N,H-fixing subgroup",
                 "image of the induction map differs from the unobstructed "
                 "compatible phis"),
    # no slot is fixed, and one message names either failure
    3: _Sequence("(theta, phi)", (True, True), "aut_N_of_G", "pair", "pair", True,
                 "", "central pair sequence fails exactness",
                 "central pair sequence fails exactness"),
}


class ExtensionData:
    """A group G with abelian normal N, quotient H, transversal and factor set.

    The transversal is the minimal G-index in each coset; with_transversal
    gives the same extension over another one.  The conjugation action of H
    on N does not depend on the transversal (N is abelian), so such a copy
    shares the coordinate structure (with its cached theta matrices), the
    G index <-> N coordinate tables, the action, the identity automorphisms
    id_N, id_H and id_pair, the cohomology solver and the compatible pairs.

    action is the read-only (h, k, k) int64 array of the matrices A(x) of the
    conjugation action, and mu the factor set, a TwoCochain whose values are
    a read-only (h, h, k) int64 array.

    Some facts are computed once per instance and kept in one table
    (_fact): each answer(ext, which, pair), keyed by pair_key(pair), since a
    pair has one answer whichever sequence asks it (an obstructed one held
    as its class key until asked, see _answered), and starred_sets,
    split_kernels (with each starred set's closure proof), aut_subgroups
    and the Sylows, Sylow lists and local extensions of reduction.
    with_transversal starts the copy with an empty table, so every verdict
    and self-check is found again over the new factor set.
    """

    def __init__(self, G: FiniteGroup, N: Subgroup):
        if N.group is not G:
            raise ParentMismatch("subgroup belongs to a different group")
        self.G = G
        self.N = N
        # abelian_structure proves N abelian, then quotient_group proves it normal
        self.coeffs: AbelianStructure = abelian_structure(N)
        self.H, self.pi = quotient_group(G, N)
        self.n_group = self.coeffs.n_group
        self._cohomology: Optional[CohomologyGroup] = None
        # (pairs, c1, c2, (i, j), closure checked), see compatible_pairs
        self._compatible: Optional[tuple] = None
        self._facts: dict = {}
        self.id_N = GroupAutomorphism.identity(self.n_group)
        self.id_H = GroupAutomorphism.identity(self.H)
        self.id_pair = CompatiblePair(self.id_N, self.id_H)
        # quotient_group orders the cosets by their minimal members
        self.transversal = tuple(
            np.unique(self.pi.image, return_index=True)[1].tolist())
        self._build_tables()
        self._build_action()
        self._build_mu()

    def _build_tables(self) -> None:
        """G-indexed gathers of coeffs' arrays, shared by with_transversal
        copies: _coords[g] the coordinates of g in N (other rows stay zero),
        _member_at[c . coeffs.radix] the member of G with coordinates c,
        _position[g] the index of g in N (-1 outside N), _pi[g] = pi(g)."""
        G, N, coeffs = self.G, self.N, self.coeffs
        members = self._members = np.array(N.members, dtype=np.intp)
        self._coords = np.zeros((G.order, coeffs.rank), dtype=np.int64)
        self._coords[members] = coeffs.coords
        self._member_at = members[coeffs.member_at]
        self._position = np.full(G.order, -1, dtype=np.intp)
        self._position[members] = np.arange(N.order)
        self._inverse = np.array(G.inverse, dtype=np.intp)
        self._pi = np.array(self.pi.image, dtype=np.intp)

    def _build_action(self) -> None:
        """A(x) as one gather: column j the coordinates of t(x)^-1 e_j t(x)
        for the member e_j with the j-th unit coordinates.  The extension
        is central iff every A(x) is the identity (the e_j generate N),
        which must agree with N <= Z(G)."""
        cayley, t = self.G.cayley, np.array(self.transversal, dtype=np.intp)
        units = self._member_at[self.coeffs.radix]
        conj = cayley[cayley[self._inverse[t][:, None], units], t[:, None]]
        self.action = self._coords[conj].transpose(0, 2, 1).copy()
        self.action.flags.writeable = False
        self.central = bool((self.action == np.eye(self.coeffs.rank)).all())
        in_center = self.N.member_set <= center(self.G).member_set
        if self.central != in_center:
            raise AssertionError("centrality flag disagrees with the center test")

    def _build_mu(self) -> None:
        """The transversal as an index array _t, and the factor set mu."""
        G, t = self.G, np.array(self.transversal, dtype=np.intp)
        # t(xy)^-1 t(x) t(y), indexed [x, y]
        g = G.cayley[self._inverse[t[self.H.cayley]], G.cayley[t[:, None], t]]
        self._t, self.mu = t, TwoCochain(self.H, self.moduli, self._coords[g])
        defect = two_cocycle_defect(self.mu, self.cocycle_action)
        if defect is not None:
            raise AssertionError(f"factor set fails the cocycle identity at {defect}")

    @property
    def moduli(self) -> Vector:
        return self.coeffs.invariant_factors

    @property
    def cocycle_action(self):
        """Action argument for cochain operations; None when conjugation is trivial."""
        return None if self.central else self.action

    @property
    def cohomology(self) -> CohomologyGroup:
        if self._cohomology is None:
            self._cohomology = CohomologyGroup(self.H, self.coeffs,
                                               self.cocycle_action)
        return self._cohomology

    def with_transversal(self, transversal: Sequence[int]) -> "ExtensionData":
        """A shallow copy over another transversal; mu is rebuilt and the
        fact table starts empty."""
        h, G = self.H.order, self.G
        t = _integers(transversal, "transversal values must be integers")
        if len(t) != h:
            raise InputError(f"transversal must list {h} elements")
        if t[0] != 0:
            raise InputError("transversal must send the identity to the identity")
        for x, g in enumerate(t):
            if not 0 <= g < G.order or self.pi(g) != x:
                raise InputError(f"transversal value {g} is not in coset {x}")
        other = copy.copy(self)
        other.transversal = t
        other._facts = {}
        other._build_mu()
        return other

    def __repr__(self) -> str:
        return (f"ExtensionData(|G|={self.G.order}, |N|={self.N.order}, "
                f"|H|={self.H.order}{', central' if self.central else ''})")


def _fact(ext: ExtensionData, key, build):
    """The fact of ext stored under key, built by build() on first use."""
    facts = ext._facts
    if key not in facts:
        facts[key] = build()
    return facts[key]


def extension_from(G: FiniteGroup, N: Subgroup) -> ExtensionData:
    """Extension data for abelian normal N <= G with the minimal transversal."""
    return ExtensionData(G, N)


def random_transversal(ext: ExtensionData, rng) -> list[int]:
    """A uniformly random transversal fixing the identity coset choice."""
    h = ext.H.order
    cosets: list[list[int]] = [[] for _ in range(h)]
    for g in range(ext.G.order):
        cosets[ext.pi(g)].append(g)
    return [0] + [rng.choice(cosets[x]) for x in range(1, h)]


def _check_theta(ext: ExtensionData, theta: GroupAutomorphism) -> None:
    if not isinstance(theta, GroupAutomorphism) or theta.group is not ext.n_group:
        raise ParentMismatch("theta must be an automorphism of the kernel group")


def _check_phi(ext: ExtensionData, phi: GroupAutomorphism) -> None:
    if not isinstance(phi, GroupAutomorphism) or phi.group is not ext.H:
        raise ParentMismatch("phi must be an automorphism of the quotient group")


def is_compatible(ext: ExtensionData, theta: GroupAutomorphism,
                  phi: GroupAutomorphism) -> bool:
    """Whether theta(n^x) = theta(n)^(phi x) for all x, n: _condition_3."""
    _check_theta(ext, theta)
    _check_phi(ext, phi)
    if ext.central:             # every A(x) is the identity
        return True
    T = restrict_to_matrix(ext.coeffs, theta)[None]
    P = np.array([phi.image], dtype=np.intp)
    return not _condition_3(ext, T, ext.action[P]).any()


def compatible_pairs(ext: ExtensionData, verify_closure: bool = True):
    """All compatible pairs C plus the slices C1 (phi = 1) and C2 (theta = 1).

    C is found once per extension (rebuilds with another transversal share
    it) and handed out as fresh lists, in the order of the Aut N x Aut H
    grid.  ext._compatible keeps it next to its index arrays (i, j): the
    pair (Aut N[i], Aut H[j]).  The identity is row 0 of each automorphism
    array (the smallest image row), so C1 is j = 0 and C2 is i = 0.  With
    verify_closure the result has passed require_closed over the pair
    rows: C is a subgroup of Aut N x Aut H.
    """
    auts = None
    if ext._compatible is None:
        auts_n, auts_h = auts = automorphism_group(ext.n_group), automorphism_group(ext.H)
        if len(auts_n) * len(auts_h) > config.AUT_SEARCH_BOUND:
            raise BoundExceeded(
                f"compatible pairs: |Aut N| * |Aut H| = {len(auts_n)} * "
                f"{len(auts_h)} passes {config.AUT_SEARCH_BOUND}")
        i, j = _compatible_grid(ext, auts_n.rows, auts_h.rows)
        thetas, phis = list(auts_n), list(auts_h)
        pairs = tuple(CompatiblePair(thetas[a], phis[b])
                      for a, b in zip(i.tolist(), j.tolist()))
        c1 = tuple(thetas[a] for a in i[j == 0].tolist())
        c2 = tuple(phis[b] for b in j[i == 0].tolist())
        ext._compatible = (pairs, c1, c2, (i, j), False)
    pairs, c1, c2, (i, j), closed = ext._compatible
    if verify_closure and not closed:
        auts_n, auts_h = auts or (automorphism_group(ext.n_group), automorphism_group(ext.H))
        require_closed(_pair_rows(ext, auts_n.rows[i], auts_h.rows[j]),
                       "compatible pairs are not closed under composition")
        ext._compatible = (pairs, c1, c2, (i, j), True)
    return list(pairs), list(c1), list(c2)


def _compatible_grid(ext: ExtensionData, thetas: np.ndarray, phis: np.ndarray) -> tuple:
    """The index arrays (i, j), i-major, of the compatible pairs
    (thetas[i], phis[j]) among image rows: every pair on a central
    extension, else one stacked _condition_3 mask over the theta matrices
    of a block of rows against every phi row.  The check holds about four
    arrays of block x |phis| x h x k x k values, together at most
    _CHECK_BLOCK_TRIPLES."""
    if ext.central:             # every A(x) is the identity
        return np.divmod(np.arange(len(thetas) * len(phis)), len(phis))
    coeffs = ext.coeffs
    # column u of each matrix: the coordinates of theta(e_u)
    T = coeffs.coords[thetas[:, coeffs.member_at[coeffs.radix]]].transpose(0, 2, 1)
    A_phi = ext.action[phis]
    step = max(1, _CHECK_BLOCK_TRIPLES // (4 * A_phi.size))
    ok = np.concatenate([~_condition_3(ext, T[lo:lo + step, None], A_phi).any(axis=-1)
                         for lo in range(0, len(T), step)])
    return np.nonzero(ok)


def _pair_rows(ext: ExtensionData, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Pairs (theta, phi) as rows of one permutation of |N| + h points, the
    theta rows then the phi rows shifted by |N|: (r o s) is r[s] on pairs
    as on permutations, as require_closed composes them."""
    return np.concatenate([theta, phi + ext.N.order], axis=1)


def _difference_cocycle(ext: ExtensionData, which: int, theta: GroupAutomorphism,
                        phi: GroupAutomorphism) -> TwoCochain:
    """k(x,y) = mu(phi x, phi y) - Theta mu(x,y), a 2-cocycle by the lemma.

    (theta, phi) must be a compatible pair of sequence which, and sequence 3
    needs a central extension.  k is a 2-cocycle for the action A o phi:
    mu is one (_build_mu checks it) and Theta A(x) = A(phi x) Theta is
    condition (3) (is_compatible checks it).  In all three sequences
    A o phi = A (phi = 1 in the first, compatibility with theta = 1 gives
    it in the second, the third is central), so k is a cocycle for the
    extension's own action.  The identity is not asked here: the consumer
    of k asks it once (_proven, reduction.index_kill_check), so only a
    fault in _difference_stack could fail it.
    """
    if which == 3 and not ext.central:
        raise NotCentral("the pair cocycle needs a central extension")
    if not is_compatible(ext, theta, phi):
        raise NotCompatible(f"{_SEQUENCES[which].pair} is not a compatible pair")
    T = restrict_to_matrix(ext.coeffs, theta)[None]
    k = _difference_stack(ext.mu.values, T, np.array([phi.image], dtype=np.intp))
    return TwoCochain(ext.H, ext.moduli, k[0])


def wells_cocycle_theta(ext: ExtensionData, theta: GroupAutomorphism) -> TwoCochain:
    """k_theta(x,y) = mu(x,y) - Theta mu(x,y); requires (theta, 1) compatible."""
    return _difference_cocycle(ext, 1, theta, ext.id_H)


def wells_cocycle_phi(ext: ExtensionData, phi: GroupAutomorphism) -> TwoCochain:
    """k_phi(x,y) = mu(phi x, phi y) - mu(x,y); requires (1, phi) compatible."""
    return _difference_cocycle(ext, 2, ext.id_N, phi)


def wells_cocycle_pair(ext: ExtensionData, theta: GroupAutomorphism,
                       phi: GroupAutomorphism) -> TwoCochain:
    """k(x,y) = mu(phi x, phi y) - Theta mu(x,y) for central extensions."""
    return _difference_cocycle(ext, 3, theta, phi)


def _proven(ask, k: TwoCochain):
    """ask(k), for ask the class_of or coboundary_solve of the extension's
    cohomology: the one place the chain proves a difference cocycle k a
    cocycle.  k comes from wells_cocycle_*, never from a caller, so a
    NotACocycle on it is a broken invariant and leaves as AssertionError."""
    try:
        return ask(k)
    except NotACocycle as exc:
        raise AssertionError(f"difference cocycle fails the identity at {exc.at}") from None


def lambda1(ext: ExtensionData, theta: GroupAutomorphism) -> CohomologyClass:
    return _proven(ext.cohomology.class_of, wells_cocycle_theta(ext, theta))


def lambda2(ext: ExtensionData, phi: GroupAutomorphism) -> CohomologyClass:
    return _proven(ext.cohomology.class_of, wells_cocycle_phi(ext, phi))


def lambda_pair(ext: ExtensionData, theta: GroupAutomorphism,
                phi: GroupAutomorphism) -> CohomologyClass:
    return _proven(ext.cohomology.class_of, wells_cocycle_pair(ext, theta, phi))


def _triple_defect(ext: ExtensionData, theta: GroupAutomorphism,
                   phi: GroupAutomorphism, chi: OneCochain):
    """First violated triple condition as (name, where), or None: (3) over
    all x, then (2) over all (x, y), each at its lexicographically first
    failure."""
    T = restrict_to_matrix(ext.coeffs, theta)[None]
    P = np.array([phi.image], dtype=np.intp)
    bad = _condition_3(ext, T, ext.action[P])[0]
    if bad.any():
        return ("(3)", int(np.argmax(bad)))
    bad = _condition_2(ext, T, P, chi.values[..., None])[0]
    if bad.any():
        x, y = np.argwhere(bad)[0]
        return ("(2)", (int(x), int(y)))
    return None


def _condition_3(ext: ExtensionData, T: np.ndarray, A_phi: np.ndarray) -> np.ndarray:
    """Where T A(x) = A(phi x) T fails mod d, indexed [pair, x], for stacked
    theta matrices T and the stacked action at phi, A_phi = A[phi images];
    T of shape (m, 1, k, k) against every phi gives [theta, phi, x]."""
    d = _moduli_array(ext.moduli)
    return ((T[:, None] @ ext.action - A_phi @ T[:, None]) % d[:, None]).any(axis=(-2, -1))


def _condition_2(ext: ExtensionData, T: np.ndarray, P: np.ndarray,
                 chi: np.ndarray) -> np.ndarray:
    """Where mu(phi x, phi y) - Theta mu(x, y) differs from the phi-twisted
    coboundary of chi mod d, indexed [triple, x, y], for stacked theta
    matrices T, phi images P and chi values indexed [x, c, triple]."""
    d = _moduli_array(ext.moduli)
    A_phi = None if ext.central else ext.action[P].transpose(1, 2, 3, 0)
    diff = (_difference_stack(ext.mu.values, T, P).transpose(1, 2, 3, 0)
            - _coboundary(chi, A_phi, ext.H.cayley))
    return (diff % d[:, None]).any(axis=2).transpose(2, 0, 1)


def _induced_pairs(ext: ExtensionData, img: np.ndarray) -> tuple:
    """The pairs induced by the gammas of image rows img over G, as theta
    rows, theta(i) the position of gamma(n_i) in N (-1 where gamma moves
    n_i out of N), and phi rows, phi(x) = pi(gamma(t(x)))."""
    return ext._position[img[:, ext._members]], ext._pi[img[:, ext._t]]


def triple_of(ext: ExtensionData, gamma: GroupAutomorphism) -> WellsTriple:
    """Decompose an automorphism of G normalizing N into (theta, phi, chi)."""
    if not isinstance(gamma, GroupAutomorphism) or gamma.group is not ext.G:
        raise ParentMismatch("gamma must be an automorphism of G")
    img = np.array([gamma.image], dtype=np.intp)
    (theta_row,), (phi_row,) = _induced_pairs(ext, img)
    theta_image = theta_row.tolist()
    if -1 in theta_image:
        bad = ext.N.members[theta_image.index(-1)]
        raise DoesNotNormalize(f"gamma({bad}) = {gamma.image[bad]} leaves the subgroup")
    theta = GroupAutomorphism(ext.n_group, theta_image)
    phi = GroupAutomorphism(ext.H, phi_row.tolist())
    # chi(x) = t(phi x)^-1 gamma(t(x)), in N by the definition of phi
    g = ext.G.cayley[ext._inverse[ext._t[phi_row]], img[0, ext._t]]
    chi = OneCochain(ext.H, ext.moduli, ext._coords[g])
    bad = _triple_defect(ext, theta, phi, chi)
    if bad is not None:
        raise AssertionError(f"decomposed triple violates condition {bad[0]} at {bad[1]}")
    return WellsTriple(theta, phi, chi)


def automorphism_from_triple(ext: ExtensionData,
                             triple: WellsTriple) -> GroupAutomorphism:
    """gamma with gamma(t(x) n) = t(phi x) chi(x) theta(n); conditions checked."""
    theta, phi, chi = triple
    _check_theta(ext, theta)
    _check_phi(ext, phi)
    if chi.group is not ext.H or chi.moduli != ext.moduli:
        raise ParentMismatch("chi does not live over this extension's data")
    bad = _triple_defect(ext, theta, phi, chi)
    if bad is not None:
        raise TripleConditionsFail(
            f"triple condition {bad[0]} fails at {bad[1]}")
    img = _gamma_images(ext, np.array([theta.image], dtype=np.intp),
                        np.array([phi.image], dtype=np.intp), chi.values[None])
    try:
        gamma = GroupAutomorphism(ext.G, img[0].tolist())
    except InputError as exc:
        raise AssertionError(f"triple produced a non-automorphism: {exc}") from exc
    return gamma


def _witness(ext: ExtensionData, which: int, theta: GroupAutomorphism,
             phi: GroupAutomorphism, k: TwoCochain) -> Optional[GroupAutomorphism]:
    """gamma inducing (theta, phi) on sequence which, if any.

    Exists iff the class of the difference cocycle k vanishes; the solver
    proves k a cocycle once (_proven).  A witness is certified once:
    automorphism_from_triple checks the triple conditions and its
    GroupAutomorphism proves gamma an automorphism of G; the one-row
    _induced_pairs proves gamma restricts to theta and induces phi, which
    is all a witness claims.  The conditions already hold: (3) is the
    is_compatible of _difference_cocycle, (2) the d(chi) = k of the solver
    (for sequence 2, (3) with theta = 1 gives A(phi y) = A(y); sequence 3 is
    central).  Decomposing gamma again would recheck the same triple.
    """
    chi = _proven(ext.cohomology.coboundary_solve, k)
    if chi is None:
        return None
    gamma = automorphism_from_triple(ext, WellsTriple(theta, phi, chi))
    theta_rows, phi_rows = _induced_pairs(ext, np.array([gamma.image], dtype=np.intp))
    if theta_rows.tolist() != [list(theta.image)] or phi_rows.tolist() != [list(phi.image)]:
        raise AssertionError(f"{_SEQUENCES[which].witness} witness does not "
                             "invert the decomposition")
    return gamma


def extend_automorphism(ext: ExtensionData,
                        theta: GroupAutomorphism) -> Optional[GroupAutomorphism]:
    """Automorphism of G restricting to theta and fixing H pointwise, if any."""
    return _witness(ext, 1, theta, ext.id_H, wells_cocycle_theta(ext, theta))


def lift_automorphism(ext: ExtensionData,
                      phi: GroupAutomorphism) -> Optional[GroupAutomorphism]:
    """Automorphism of G fixing N pointwise and inducing phi, if any."""
    return _witness(ext, 2, ext.id_N, phi, wells_cocycle_phi(ext, phi))


def lift_pair(ext: ExtensionData, theta: GroupAutomorphism,
              phi: GroupAutomorphism) -> Optional[GroupAutomorphism]:
    """Central extensions: automorphism inducing theta on N and phi on H."""
    return _witness(ext, 3, theta, phi, wells_cocycle_pair(ext, theta, phi))


def answer(ext: ExtensionData, which: int, pair) -> Answer:
    """Whether a pair of sequence which is induced, with witness or class:
    the one question of answers."""
    return answers(ext, [(which, pair)])[0]


def answers(ext: ExtensionData, questions) -> list[Answer]:
    """One Answer per (which, pair) of questions, in their order.

    pair is (theta, phi), with the identity in the slot sequence which
    fixes, and which is 1, 2 or 3 (else InputError).  An
    incompatible pair is answered Answer(False, None, None); a compatible
    one carries the witness gamma, or the nontrivial class of its
    difference cocycle.  Answers live in the fact table under
    pair_key(pair), so each pair is answered once per extension, whichever
    sequences ask it; the parents of theta and phi are checked on every
    call, and which = 3 needs a central extension.  Unanswered questions
    are answered in blocks, whatever their sequence (_answered).
    """
    questions = list(questions)
    facts = ext._facts
    out = []
    for key, (_, pair) in zip(_answered(ext, questions), questions):
        got = facts[key]
        if type(got) is not Answer:     # the key of an obstruction class
            got = facts[key] = Answer(True, None, _PairClass(ext, got, pair))
        out.append(got)
    return out


def _answered(ext: ExtensionData, questions) -> list[tuple]:
    """The fact keys of questions, with every one answered in the table.

    The unanswered ones go to _answer_chunk in blocks of as many pairs as
    keep its identity check, were every pair obstructed, within
    _CHECK_BLOCK_TRIPLES // 4 generator triples times pairs: the check holds
    four arrays of that size at once, as many values as one array of the
    full scan (_keys_of proves a witnessed k by its witness, the others by
    the identity).  A block leaves an Answer in the table, or, for an
    obstructed pair, the key of its class, one tuple per class: answers
    turns it into an Answer on first request, so the starred sets of a
    large C, which read only whether a class is trivial, keep no per-pair
    objects.
    """
    H, facts, keys = ext.H, ext._facts, []
    triples = max(1, (H.order - 1) ** 2 * len(H.generators))
    step = max(1, _CHECK_BLOCK_TRIPLES // (4 * triples))
    todo: dict = {}             # unanswered fact key -> its question
    class_keys: dict = {}       # remainder bytes -> the class key tuple
    for which, pair in questions:
        _check_theta(ext, pair.theta)
        _check_phi(ext, pair.phi)
        if which not in _SEQUENCES:
            raise InputError(f"sequence selector must be 1, 2 or 3, got {which}")
        if which == 3 and not ext.central:
            raise NotCentral("the pair cocycle needs a central extension")
        key = pair_key(pair)
        for slot, free, image, one in zip(("theta", "phi"), _SEQUENCES[which].free,
                                          key, pair_key(ext.id_pair)):
            if not free and image != one:
                raise InputError(f"sequence {which} fixes {slot}, got a nonidentity {slot}")
        keys.append(key)
        if key not in facts and key not in todo:    # the first asker names it
            todo[key] = (which, pair)
            if len(todo) == step:
                facts.update(zip(todo, _answer_chunk(ext, list(todo.values()),
                                                     class_keys)))
                todo.clear()
    if todo:
        facts.update(zip(todo, _answer_chunk(ext, list(todo.values()), class_keys)))
    return keys


class _PairClass(CohomologyClass):
    """The class of a pair's difference cocycle, as answers gives it.  The
    representative, that cocycle, is built again when read: a block
    answers thousands of pairs, and callers read only the key.  It holds
    the factor set, not the extension, so no cycle keeps either alive."""

    __slots__ = ("_mu", "_T", "_phi")

    def __init__(self, ext: ExtensionData, key: tuple, pair):
        self.parent, self.key, self._mu = ext.cohomology, key, ext.mu
        self._T = restrict_to_matrix(ext.coeffs, pair.theta)
        self._phi = pair.phi

    @property
    def representative(self) -> TwoCochain:
        mu = self._mu
        k = _difference_stack(mu.values, self._T[None], np.array([self._phi.image]))
        return TwoCochain(mu.group, mu.moduli, k[0])


def _difference_stack(mu: np.ndarray, T: np.ndarray, P: np.ndarray) -> np.ndarray:
    """mu(phi x, phi y) - Theta mu(x, y), unreduced, indexed [pair, x, y, c],
    for the factor set's values mu, stacked theta matrices T and phi
    images P: one gather of mu and one product with the matrices."""
    return mu[P[:, :, None], P[:, None, :]] - mu @ T.transpose(0, 2, 1)[:, None]


def _gamma_images(ext: ExtensionData, theta: np.ndarray, P: np.ndarray,
                  chi: np.ndarray) -> np.ndarray:
    """gamma(t(x) n) = t(phi x) chi(x) theta(n) as image rows over G, one per
    triple (theta images, phi images P, reduced chi values [triple, x, c])."""
    cayley, members, t = ext.G.cayley, ext._members, ext._t
    # t(phi x) chi(x), then t(x) n -> t(phi x) chi(x) theta(n) for all (x, n)
    base = cayley[t[P], ext._member_at[chi @ ext.coeffs.radix]]
    img = np.empty((len(P), ext.G.order), dtype=np.intp)
    img[:, cayley[t[:, None], members].reshape(-1)] = \
        cayley[base[:, :, None], members[theta][:, None]].reshape(len(P), -1)
    return img


def _answer_chunk(ext: ExtensionData, asked: list, class_keys: dict) -> list:
    """Answers of questions (which, pair), or the class key of an obstructed
    pair, with the checks of the one-question path each run once over the
    stack:

    - compatibility: condition (3) by _condition_3;
    - the class key of each difference cocycle k and, for a k that reduces
      to zero, its witness chi, by CohomologyGroup._keys_of, which proves
      each k once: a witnessed k by d(chi) = k, any other by the identity;
    - for the witnessed: condition (2) by _condition_2; gamma by
      _gamma_images, proven automorphisms by groups._require_automorphisms;
      and the pair gamma induces, by _induced_pairs, with the sequence of
      the question that first asked the pair in the message.
    A failed check raises AssertionError naming it.
    """
    G = ext.G
    T = np.stack([restrict_to_matrix(ext.coeffs, pair.theta) for _, pair in asked])
    P = np.array([pair.phi.image for _, pair in asked], dtype=np.intp)
    got = [Answer(False, None, None) for _ in asked]
    rows = np.arange(len(asked))
    if not ext.central:         # else every A(x) is the identity
        rows = np.flatnonzero(~_condition_3(ext, T, ext.action[P]).any(axis=1))
    if not rows.size:
        return got
    rem, chi = ext.cohomology._keys_of(_difference_stack(ext.mu.values, T[rows], P[rows]))
    zero = ~rem.any(axis=1)
    for i, r in zip(rows[~zero], rem[~zero]):
        key = class_keys.get(r.tobytes())
        if key is None:
            key = class_keys[r.tobytes()] = tuple(r.tolist())
        got[i] = key
    w = rows[zero]
    if not w.size:
        return got
    bad = _condition_2(ext, T[w], P[w], np.moveaxis(chi, 0, -1))
    if bad.any():
        at = tuple(np.argwhere(bad[np.argmax(bad.any(axis=(1, 2)))])[0].tolist())
        raise AssertionError(f"triple condition (2) fails at {at}")
    theta = np.array([asked[i][1].theta.image for i in w], dtype=np.intp)
    img = _gamma_images(ext, theta, P[w], chi)
    _require_automorphisms(G, img, "triple produced a non-automorphism")
    theta_rows, phi_rows = _induced_pairs(ext, img)
    bad = (theta_rows != theta).any(axis=1) | (phi_rows != P[w]).any(axis=1)
    if bad.any():
        raise AssertionError(f"{_SEQUENCES[asked[w[np.argmax(bad)]][0]].witness} "
                             "witness does not invert the decomposition")
    for i, image in zip(w, img.tolist()):
        got[i] = Answer(True, GroupAutomorphism._trusted(G, tuple(image)), None)
    return got


@dataclass(frozen=True)
class AutSubgroups:
    """The four automorphism sets attached to (G, N), each a view of
    automorphism_group(G) in its order, sharing its array and objects."""
    aut_N_of_G: AutomorphismArray        # normalize N
    aut_upper_N: AutomorphismArray       # fix N pointwise
    aut_N_H: AutomorphismArray           # normalize N and induce identity on H
    aut_upper_N_H: AutomorphismArray     # both


def aut_subgroups(ext: ExtensionData) -> AutSubgroups:
    """The four sets of ext, found once per extension, as masks over the
    rows of Aut(G)."""
    def build() -> AutSubgroups:
        # a permutation of G that sends N into N sends it onto N
        auts = automorphism_group(ext.G)
        theta, phi = _induced_pairs(ext, auts.rows)
        normal = (theta >= 0).all(axis=1)
        fix_n = (theta == np.arange(ext.N.order)).all(axis=1)
        fix_h = normal & (phi == np.arange(ext.H.order)).all(axis=1)
        return AutSubgroups(*(auts.view(mask)
                              for mask in (normal, fix_n, fix_h, fix_n & fix_h)))
    return _fact(ext, "aut_subgroups", build)


def sequence_autos(subs: AutSubgroups, which: int) -> AutomorphismArray:
    """The automorphisms of G that sequence which projects to its slice."""
    return getattr(subs, _SEQUENCES[which].autos)


def slice_pair(ext: ExtensionData, which: int, member) -> CompatiblePair:
    """A member of C1 (theta), C2 (phi) or C (a pair) as the pair (theta, phi)."""
    free_theta, free_phi = _SEQUENCES[which].free
    if free_theta and free_phi:
        return member
    if free_theta:
        return CompatiblePair(member, ext.id_H)
    return CompatiblePair(ext.id_N, member)


def pair_key(pair) -> tuple:
    """(theta.image, phi.image) of a CompatiblePair or WellsTriple."""
    return (pair.theta.image, pair.phi.image)


def starred_sets(ext: ExtensionData) -> dict[int, tuple]:
    """C1*, C2* and, for central extensions, C*: the members of C1, C2 and C
    (as compatible_pairs gives them) with trivial obstruction class, keyed by
    sequence.  They are found once per extension and handed out as a fresh
    dict."""
    def build() -> dict[int, tuple]:
        pairs, c1, c2 = compatible_pairs(ext)
        slices = {1: c1, 2: c2, 3: pairs} if ext.central else {1: c1, 2: c2}
        keys = iter(_answered(ext, ((which, slice_pair(ext, which, m))
                                    for which, members in slices.items()
                                    for m in members)))
        return {which: tuple(m for m in members if _starred(ext._facts[next(keys)]))
                for which, members in slices.items()}
    return dict(_fact(ext, "starred_sets", build))


def _starred(got) -> bool:
    """Whether the fact of a member of C says it is induced.  compatible_pairs
    found the member compatible, so the block must find it so too."""
    if type(got) is not Answer:     # the key of an obstruction class
        return False
    if not got.compatible:
        raise AssertionError("a compatible pair is answered incompatible")
    return got.witness is not None


def verify_exactness(ext: ExtensionData) -> dict:
    """Elementwise exactness of the restriction/induction sequences.

    Checks, on actual element sets:
      - kernel of gamma -> theta on the H-fixing normalizers equals the
        subgroup fixing both N and H (first sequence), and its image equals
        the compatible thetas with trivial obstruction class;
      - kernel of gamma -> phi on the N-centralizers likewise, with image
        the compatible phis with trivial class;
      - for central extensions, gamma -> (theta, phi) on all of the
        N-normalizers has kernel as above and image the pairs with trivial
        pair class.
    gamma projects to the pair of triple_of(gamma) with the slot the
    sequence fixes read as the identity; a moved fixed slot is a violation.
    Each gamma is decomposed once per call, whichever sequences project it.
    """
    subs = aut_subgroups(ext)
    pairs, c1, c2 = compatible_pairs(ext)
    stars = starred_sets(ext)
    cg = ext.cohomology
    violations: list[str] = []
    both_keys = {g.image for g in subs.aut_upper_N_H}
    identity = pair_key(ext.id_pair)
    exact: dict[int, Optional[bool]] = {1: None, 2: None, 3: None}
    decomposed: dict[tuple, tuple] = {}     # gamma.image -> its pair
    for which, star in stars.items():
        seq = _SEQUENCES[which]
        image, kernel = set(), set()
        for g in sequence_autos(subs, which):
            pair = decomposed.get(g.image)
            if pair is None:
                pair = decomposed[g.image] = pair_key(triple_of(ext, g))
            key = tuple(p if free else i
                        for p, free, i in zip(pair, seq.free, identity))
            if key != pair:
                violations.append(f"automorphism {g.image} {seq.moved}")
            image.add(key)
            if key == identity:
                kernel.add(g.image)
        starred = {pair_key(slice_pair(ext, which, m)) for m in star}
        failed = [msg for msg, ok in ((seq.kernel, kernel == both_keys),
                                      (seq.image, image == starred)) if not ok]
        exact[which] = not failed
        violations.extend(dict.fromkeys(failed))    # sequence 3 names both once
    return {
        "aut_N_order": len(subs.aut_N_of_G),
        "aut_upper_N_order": len(subs.aut_upper_N),
        "aut_N_H_order": len(subs.aut_N_H),
        "aut_upper_N_H_order": len(subs.aut_upper_N_H),
        "c_order": len(pairs),
        "c1_order": len(c1),
        "c2_order": len(c2),
        "z2_order": cg.z2_order,
        "b2_order": cg.b2_order,
        "h2_order": cg.h2_order,
        "seq_1_1": exact[1],
        "seq_1_2": exact[2],
        "seq_1_3": exact[3],
        "violations": violations,
    }


def h2_conjugation_action(ext: ExtensionData, aut: GroupAutomorphism,
                          cls: CohomologyClass) -> CohomologyClass:
    """Action of theta in C1 (Theta f) or phi in C2 (f o (phi x phi)) on classes."""
    if cls.parent is not ext.cohomology:
        raise ParentMismatch("class belongs to a different cohomology group")
    if aut.group is ext.n_group:
        which = 1
    elif aut.group is ext.H:
        which = 2
    else:
        raise ParentMismatch("expected an automorphism of the kernel or quotient")
    theta, phi = slice_pair(ext, which, aut)
    if not is_compatible(ext, theta, phi):
        raise NotCompatible(f"{_SEQUENCES[which].pair} is not compatible")
    f, P = cls.representative.values, np.array(phi.image, dtype=np.intp)
    moved = f[P[:, None], P] @ restrict_to_matrix(ext.coeffs, theta).T
    return ext.cohomology.class_of(TwoCochain(ext.H, ext.moduli, moved))


def derivation_check(ext: ExtensionData) -> dict:
    """Composition law of the difference cocycles, at cochain and class level.

    A member g of C1 or C2 is the pair (theta, phi), and
    k_(g1 g2) = k_g1 o (phi2 x phi2) + Theta1 k_g2: on C1 (phi = 1) this is
    k_(t1 t2) = k_t1 + T1 k_t2, on C2 (theta = 1) k_(p1 p2) = k_p2 +
    k_p1 o (p2 x p2).  One require_closed over a slice's image rows proves
    it closed and gives generators S and each g s; the law is compared at
    every (g, s), s in {1} + S, over one stack of the slice's difference
    cocycles.  That proves it at every pair: s = 1 forces k_1 = 0, and the
    law at (g, w) for all g and at (g w, s) gives k_(g w s) = k_g o
    (phi_(w s) x phi_(w s)) + Theta_g k_(w s), as phi_(w s) = phi_w phi_s
    and Theta_(g w) = Theta_g Theta_w, so by induction on word length in S.
    Only k_1 and the k_s are proven cocycles (CohomologyGroup._keys_of); the
    law then makes every k one by the same induction, as k_g o (phi_s x
    phi_s) and Theta_g k_s stay cocycles (A o phi = A, and condition (3)).
    Where the two sides differ their classes are compared too, both sides
    keyed and proven by _keys_of.  compatible_pairs found every member
    compatible, and _condition_3 over the slice must agree.  The action
    f -> Theta f o (phi x phi) must move coboundaries to coboundaries; that
    is probed on the first eight members of each slice.
    """
    _, c1, c2 = compatible_pairs(ext)
    H, cg, moduli = ext.H, ext.cohomology, ext.moduli
    h, d, k = H.order, _moduli_array(moduli), len(moduli)
    violations: list[str] = []
    probes: list[str] = []
    # the first three unit cochains (x = 1 + i // k, coordinate i % k) of
    # the B^2 generators, indexed [x, c, probe], and their coboundaries
    p = min(3, (h - 1) * k)
    unit = np.eye(h * k, dtype=np.int64)[:, k:k + p].reshape(h, k, p)
    delta = _coboundary(unit, cg._A, H.cayley)
    for which, name, members in ((1, "theta", c1), (2, "phi", c2)):
        pairs = [slice_pair(ext, which, g) for g in members]
        T = np.stack([restrict_to_matrix(ext.coeffs, th) for th, _ in pairs])
        P = np.array([ph.image for _, ph in pairs], dtype=np.intp)
        if not ext.central and _condition_3(ext, T, ext.action[P]).any():
            raise AssertionError(f"a compatible pair {_SEQUENCES[which].pair} "
                                 "fails condition (3)")
        K = _difference_stack(ext.mu.values, T, P) % d
        images = np.array([g.image for g in members], dtype=np.intp)
        gens, prods = require_closed(images, f"{name} slice is not closed under composition")
        one = int(np.flatnonzero((images == np.arange(images.shape[1])).all(axis=1))[0])
        cg._keys_of(K[[one, *gens]])
        failed = []
        for s, prod in [(one, np.arange(len(K)))] + list(zip(gens, prods)):
            # k_(g s) - k_g o (phi_s x phi_s) - Theta_g k_s for every g,
            # [g, x, y, c]; a failing g keeps k_(g s) and, up to d, the right side
            diff = K[prod]
            diff -= K[:, P[s][:, None], P[s]]
            diff -= K[s] @ T.transpose(0, 2, 1)[:, None]
            diff %= d
            failed.extend((g, s, K[prod[g]], K[prod[g]] - diff[g])
                          for g in np.flatnonzero(diff.any(axis=(1, 2, 3))).tolist())
        for g, s, lhs, rhs in sorted(failed, key=lambda f: f[:2]):
            where = f"{members[g].image} o {members[s].image}"
            violations.append(f"{name} derivation law fails at {where}")
            keys = cg._keys_of(np.stack([lhs, rhs]))[0]
            if (keys[0] != keys[1]).any():
                violations.append(f"{name} class law fails at {where}")
        # Theta delta o (phi x phi) against d(Theta unit o phi), indexed
        # [x, y, c, member, probe]
        T8, P8 = T[:8], P[:8]
        moved = np.einsum("gij,gxyjp->xyigp", T8, delta[P8[:, :, None], P8[:, None, :]])
        chi = np.einsum("gij,gxjp->xigp", T8, unit[P8])
        bad = (moved - _coboundary(chi, cg._A, H.cayley)) % d[:, None, None]
        probes.extend(f"{name} action does not preserve coboundaries at "
                      f"{members[g].image}"
                      for g, _ in np.argwhere(bad.any(axis=(0, 1, 2))).tolist())
    violations.extend(probes)
    return {
        "c1_order": len(c1),
        "c2_order": len(c2),
        "ok": not violations,
        "violations": violations,
    }
