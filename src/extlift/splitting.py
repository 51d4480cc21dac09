"""Starred compatible sets, split detection, and sections of the sequences.

The three short exact sequences built in wells restrict to the subsets with
trivial obstruction class: those starred sets are the exact images, so each
sequence is onto them.  When the underlying extension 1 -> N -> G -> H -> 1
itself splits, explicit sections exist: over a homomorphic transversal t'
the factor set is zero, so the gamma of each triple (theta, phi, 0) is
t'(x) n -> t'(phi x) theta(n), built by wells._gamma_images on the copy
of the extension over t'.  When it does not split, a section can still
exist, and a backtracking search over generator fibers settles the
question either way.

Extraspecial-shaped central extensions carry a commutator form on the
quotient, a read-only (h, h, k) array gathered from the G-indexed
coordinates of the extension; quotient maps induced from automorphisms of
G preserve it, which pins down the starred set on that family.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple, Optional

import numpy as np

from . import config
from .cohomology import TwoCochain, _moduli_array
from .errors import (BoundExceeded, NotCentral, NotExtraspecialShape,
                     NotSplit, ParentMismatch)
from .groups import (FiniteGroup, GroupAutomorphism, GroupHomomorphism,
                     Subgroup, _compose_pair, _compose_perm, center,
                     close_generator_images, derived_subgroup, require_closed)
from .wells import (_SEQUENCES, ExtensionData, _fact, _gamma_images,
                    _induced_pair, aut_subgroups, compatible_pairs, pair_key,
                    sequence_autos, slice_pair, starred_sets)

__all__ = [
    "SplitKernels",
    "SplitWitness",
    "Section",
    "CommutatorForm",
    "split_kernels",
    "is_split_extension",
    "canonical_sections",
    "section_search",
    "commutator_form",
    "is_form_preserving",
]


class SplitKernels(NamedTuple):
    """The compatible automorphisms whose obstruction class vanishes."""

    c1_star: tuple                 # automorphisms of the standalone N group
    c2_star: tuple                 # automorphisms of H
    c_star: Optional[tuple]        # (theta, phi) pairs; central extensions only


class SplitWitness(NamedTuple):
    """A homomorphic transversal and the complement subgroup it spans."""

    section: GroupHomomorphism     # H -> G with pi after it the identity
    complement: Subgroup


class Section(NamedTuple):
    """A homomorphic right inverse of one of the three projections.

    sequence selects the projection: 1 restricts to N, 2 induces on H,
    3 does both (central case, domain elements are pairs).  images[i] is
    the automorphism of G assigned to domain[i].  Domain elements and
    projections are compared as pairs (theta.image, phi.image).
    """

    sequence: int
    domain: tuple
    images: tuple


class CommutatorForm(NamedTuple):
    """values is a read-only (h, h, k) int64 array; values[x, y] holds the
    N coordinates of [t(x), t(y)]."""

    group: FiniteGroup             # the quotient H
    moduli: tuple
    values: np.ndarray

    def __call__(self, x: int, y: int):
        return tuple(self.values[x, y].tolist())

    # by value, as a tuple of tuples compared: an array has no truth value
    def __eq__(self, other) -> bool:
        return (type(other) is CommutatorForm and self.group is other.group
                and self.moduli == other.moduli
                and self.values.tobytes() == other.values.tobytes())

    __ne__ = object.__ne__      # the negation of __eq__, not tuple's

    def __hash__(self):
        return hash((id(self.group), self.moduli, self.values.tobytes()))


def split_kernels(ext: ExtensionData) -> SplitKernels:
    """Filter the compatible sets by obstruction triviality and verify orders.

    Exactness makes each starred set the image of a group under the
    projection, hence closed under composition, and forces the order
    identity |domain| = |kernel| * |starred set| for each sequence; both
    facts are rechecked here against the enumerated automorphism group,
    once per extension.
    """
    def build() -> SplitKernels:
        stars = starred_sets(ext, *compatible_pairs(ext))
        identity = pair_key(ext.id_pair)
        for which, star in stars.items():
            require_closed(_pair_keys(ext, which, star), _compose_pair, identity,
                           "starred set is not closed under composition")
        subs = aut_subgroups(ext)
        kernel = len(subs.aut_upper_N_H)
        for which, star in stars.items():
            if len(sequence_autos(subs, which)) != kernel * len(star):
                raise AssertionError(
                    f"{_SEQUENCES[which].ordinal} sequence order identity fails")
        return SplitKernels(stars[1], stars[2], stars.get(3))
    return _fact(ext, "split_kernels", build)


def is_split_extension(ext: ExtensionData) -> tuple[bool, Optional[SplitWitness]]:
    """Decide whether the extension splits; on success return a complement.

    The factor set is a coboundary exactly when some transversal is a
    homomorphism.  Solving d(chi) = -mu makes t'(x) = t(x) n(-chi(x)) that
    transversal, and its image is a complement of N in G.
    """
    neg = TwoCochain(ext.H, ext.moduli, -ext.mu.values)
    chi = ext.cohomology.coboundary_solve(neg)
    if chi is None:
        return False, None
    G = ext.G
    # t'(x) = t(x) n(-chi(x)), gathered by the coordinates' mixed-radix index
    n = ext._member_at[-chi.values % _moduli_array(ext.moduli) @ ext.coeffs.radix]
    members = G.cayley[ext._t, n].tolist()
    section = GroupHomomorphism(ext.H, G, members)
    complement = Subgroup(G, members)
    if complement.order != ext.H.order:
        raise AssertionError("complement has the wrong order")
    if any(ext.pi(members[x]) != x for x in range(ext.H.order)):
        raise AssertionError("complement transversal projects incorrectly")
    return True, SplitWitness(section, complement)


def _pair_keys(ext: ExtensionData, which: int, members) -> list[tuple]:
    """Members of a slice of sequence which, keyed as pairs."""
    return [pair_key(slice_pair(ext, which, m)) for m in members]


def _verify_section(ext: ExtensionData, sec: Section) -> None:
    """Check sec is a homomorphism whose images project onto their domain.

    The domain is checked to be a group and a generating set S of it is
    grown (require_closed); then f(a s) = f(a) f(s) is checked for every a
    and every s in {1} + S.  Taking s = 1 forces f(1) = id, and induction on
    the length of b as a word in S gives f(a b) = f(a) f(b) for all a, b.
    """
    keys = _pair_keys(ext, sec.sequence, sec.domain)
    for i, key in enumerate(keys):
        if _induced_pair(ext, sec.images[i]) != key:
            raise AssertionError("section image projects to the wrong element")
    identity = pair_key(ext.id_pair)
    gens = require_closed(keys, _compose_pair, identity,
                          "section domain is not closed under composition")
    index = {key: i for i, key in enumerate(keys)}
    images = [f.image for f in sec.images]
    for i, a in enumerate(keys):
        for b in [identity] + gens:
            prod = index[_compose_pair(a, b)]
            if _compose_perm(images[i], images[index[b]]) != images[prod]:
                raise AssertionError("section is not a homomorphism")


def canonical_sections(ext: ExtensionData) -> tuple[Section, Section, Optional[Section]]:
    """The explicit sections available once the extension itself splits.

    Writing every element as g = t'(x) n over a homomorphic transversal t',
    the first section keeps x and applies theta to n, the second applies
    phi to x and keeps n, and the central pair version does both: each maps
    t'(x) n to t'(phi x) theta(n) for its pair (theta, phi).
    """
    ok, witness = is_split_extension(ext)
    if not ok:
        raise NotSplit("extension has no complement, canonical sections unavailable")
    stars = split_kernels(ext)
    # over t' the factor set is zero, so a zero chi makes each triple's
    # gamma the map t'(x) n -> t'(phi x) theta(n)
    split = ext.with_transversal(witness.section.image)
    if split.mu.values.any():
        raise AssertionError("homomorphic transversal has a nonzero factor set")

    def build(which: int) -> Section:
        domain = stars[which - 1]
        pairs = [slice_pair(ext, which, m) for m in domain]
        P = np.array([p.phi.image for p in pairs], dtype=np.intp)
        theta = np.array([p.theta.image for p in pairs], dtype=np.intp)
        chi = np.zeros(P.shape + (ext.coeffs.rank,), dtype=np.int64)
        img = _gamma_images(split, theta, P, chi)
        sec = Section(which, tuple(domain),
                      tuple(GroupAutomorphism(ext.G, row) for row in img.tolist()))
        _verify_section(ext, sec)
        return sec

    return build(1), build(2), build(3) if ext.central else None


def _order(key, compose, identity) -> int:
    """Order of a group element, by repeated composition."""
    k, x = 1, key
    while x != identity:
        x = compose(x, key)
        k += 1
    return k


def section_search(ext: ExtensionData, which: int) -> Optional[Section]:
    """Search for a homomorphic section of sequence 1, 2 or 3.

    Over pair keys (theta.image, phi.image) and image tuples, the identity
    first in both, generators of the starred group get images from their
    projection fibers, constrained to matching element order (sections are
    injective); each full assignment is extended by the generator closure,
    and the first consistent extension is returned verified.  None means
    exhaustion, so the sequence genuinely does not split.
    """
    if which not in (1, 2, 3):
        raise ParentMismatch(f"sequence selector must be 1, 2 or 3, got {which}")
    if which == 3 and not ext.central:
        raise NotCentral("pair sequence only exists for central extensions")
    domain = split_kernels(ext)[which - 1]
    if len(domain) > config.DEFAULT_SECTION_BOUND:
        raise BoundExceeded(
            f"starred set of order {len(domain)} exceeds the section "
            f"search bound {config.DEFAULT_SECTION_BOUND}")
    cands = sequence_autos(aut_subgroups(ext), which)

    identity = pair_key(ext.id_pair)
    keys = _pair_keys(ext, which, domain)
    gens = require_closed(keys, _compose_pair, identity,
                          "starred set is not closed under composition")
    members = dict(zip(keys, domain))
    keys = [identity] + [k for k in keys if k != identity]

    fibers = {k: [] for k in keys}       # cands is sorted: the identity first
    for g in cands:
        fibers[_induced_pair(ext, g)].append(g.image)
    if not all(fibers.values()):
        raise AssertionError("projection misses a starred element")
    by_image = {g.image: g for g in cands}
    id_image = tuple(range(ext.G.order))
    choices = []
    for g in gens:
        order = _order(g, _compose_pair, identity)
        choices.append([c for c in fibers[g]
                        if _order(c, _compose_perm, id_image) == order])

    closed = (close_generator_images(identity, id_image, list(zip(gens, picked)),
                                     _compose_pair, _compose_perm)
              for picked in product(*choices))
    found = next((m for m in closed if m is not None), None)
    if found is None:
        return None
    images = tuple(by_image.get(found[k]) for k in keys)
    if None in images:
        raise AssertionError("section image is not a candidate automorphism")
    sec = Section(which, tuple(members[k] for k in keys), images)
    _verify_section(ext, sec)
    return sec


def commutator_form(ext: ExtensionData) -> CommutatorForm:
    """The pairing rho(x, y) = [t(x), t(y)] on extraspecial-shaped extensions.

    Requires N = Z(G) = [G, G] of order 2 with H elementary abelian of
    exponent 2; under those hypotheses rho is well defined on the quotient,
    bilinear and alternating, and all three facts are rechecked.
    """
    G = ext.G
    if ext.N.order != 2:
        raise NotExtraspecialShape(f"need |N| = 2, got {ext.N.order}")
    if ext.N.members != center(G).members:
        raise NotExtraspecialShape("N must be the center")
    if ext.N.members != derived_subgroup(G).members:
        raise NotExtraspecialShape("N must be the derived subgroup")
    if any(o > 2 for o in ext.H.element_orders()):
        raise NotExtraspecialShape("quotient must be elementary abelian of exponent 2")
    # [t(x), t(y)] = t(x)^-1 t(y)^-1 t(x) t(y), in N = [G, G]
    cayley, t, inv = G.cayley, ext._t, ext._inverse[ext._t]
    F = ext._coords[cayley[cayley[inv[:, None], inv], cayley[t[:, None], t]]]
    F.flags.writeable = False
    form = CommutatorForm(ext.H, ext.moduli, F)
    d = np.array(ext.moduli, dtype=np.int64)
    h = ext.H.order
    tab = ext.H.cayley
    for x in range(h):
        if F[x, x].any():
            raise AssertionError("form is not alternating")
        # indexed [y, z]: rho(xy, z) - rho(x, z) - rho(y, z), then
        # rho(x, yz) - rho(x, y) - rho(x, z); the first failing (y, z) is named
        first = ((F[tab[x]] - F[x][None, :, :] - F) % d).any(axis=-1)
        second = ((F[x][tab] - F[x][:, None, :] - F[x][None, :, :]) % d).any(axis=-1)
        bad = first | second
        if bad.any():
            y, z = np.argwhere(bad)[0]
            if first[y, z]:
                raise AssertionError("form is not linear in the first slot")
            raise AssertionError("form is not linear in the second slot")
    return form


def is_form_preserving(ext: ExtensionData, phi: GroupAutomorphism) -> bool:
    """Whether phi respects the commutator pairing of the quotient."""
    if phi.group is not ext.H:
        raise ParentMismatch("automorphism must act on the quotient group")
    F, P = commutator_form(ext).values, np.array(phi.image, dtype=np.intp)
    return bool((F[P[:, None], P] == F).all())
