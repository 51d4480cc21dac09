"""Starred compatible sets, split detection, and sections of the sequences.

The three short exact sequences built in wells restrict to the subsets with
trivial obstruction class: those starred sets are the exact images, so each
sequence is onto them, and each is proven a group once (split_kernels),
the sections reading that proof.  When the extension 1 -> N -> G -> H -> 1
itself splits, explicit sections exist: over a homomorphic transversal t'
the factor set is zero, so the gamma of each triple (theta, phi, 0) is
t'(x) n -> t'(phi x) theta(n), built by wells._gamma_images on the copy
of the extension over t' and proven automorphisms as one block.  When it
does not split, a section can still exist, and a backtracking search
over generator fibers settles the question either way.

Extraspecial-shaped central extensions carry a commutator form on the
quotient, a TwoCochain gathered from the G-indexed coordinates of the
extension; quotient maps induced from automorphisms of G preserve it,
which pins down the starred set on that family.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple, Optional

import numpy as np

from . import config
from .cohomology import TwoCochain, _moduli_array
from .errors import (BoundExceeded, InputError, NotCentral,
                     NotExtraspecialShape, NotSplit, ParentMismatch)
from .groups import (GroupAutomorphism, GroupHomomorphism, Subgroup,
                     _compose_perm, _find_rows, _require_automorphisms,
                     _row_index, center, close_generator_images,
                     derived_subgroup, require_closed)
from .wells import (_SEQUENCES, ExtensionData, _fact, _gamma_images,
                    _induced_pairs, _pair_rows, aut_subgroups, sequence_autos,
                    slice_pair, starred_sets)

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


class CommutatorForm(TwoCochain):
    """values[x, y] holds the N coordinates of [t(x), t(y)]; a 2-cochain on
    the quotient, since t(1) = 1."""

    __slots__ = ()


def split_kernels(ext: ExtensionData) -> SplitKernels:
    """The starred sets, proven groups of the orders exactness forces (see _proven)."""
    return _proven(ext)[0]


def _proven(ext: ExtensionData) -> tuple[SplitKernels, dict]:
    """Filter the compatible sets by obstruction triviality and verify orders.

    Exactness makes each starred set the image of a group under the
    projection, hence closed under composition, and forces the order
    identity |domain| = |kernel| * |starred set| for each sequence; both
    facts are rechecked here against the enumerated automorphism group.
    The one closure proof is kept by sequence as (set, K, generators,
    products): K the set's wells._pair_rows, the rest what require_closed
    returned over K.  K's row 0 is the identity: compatible_pairs lists C
    in Aut N x Aut H grid order, whose rows 0 are the identities, and the
    identity pair's class is trivial.
    """
    def build() -> tuple[SplitKernels, dict]:
        stars, subs, proofs = starred_sets(ext), aut_subgroups(ext), {}
        kernel = len(subs.aut_upper_N_H)
        for which, star in stars.items():
            pairs = [slice_pair(ext, which, m) for m in star]
            theta = np.array([p.theta.image for p in pairs], dtype=np.intp)
            phi = np.array([p.phi.image for p in pairs], dtype=np.intp)
            K = _pair_rows(ext, theta.reshape(len(pairs), ext.N.order),
                           phi.reshape(len(pairs), ext.H.order))
            proofs[which] = (star, K, *require_closed(
                K, "starred set is not closed under composition"))
            if not np.array_equal(K[:1], [np.arange(K.shape[1])]):
                raise AssertionError("starred set does not start with the identity")
            if len(sequence_autos(subs, which)) != kernel * len(star):
                raise AssertionError(
                    f"{_SEQUENCES[which].ordinal} sequence order identity fails")
        return SplitKernels(stars[1], stars[2], stars.get(3)), proofs
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
    try:
        section = GroupHomomorphism(ext.H, G, members)
        complement = Subgroup(G, members)
    except InputError as exc:
        raise AssertionError(f"complement check fails: {exc}") from exc
    if complement.order != ext.H.order:
        raise AssertionError("complement has the wrong order")
    if any(ext.pi(members[x]) != x for x in range(ext.H.order)):
        raise AssertionError("complement transversal projects incorrectly")
    return True, SplitWitness(section, complement)


def _verify_section(ext: ExtensionData, sec: Section) -> None:
    """Check sec is a homomorphism whose images project onto their domain.

    The domain must be the starred set, whose pair rows K, generating set
    S and index of each a s (s in S) split_kernels proved and kept (see
    _proven); then f(a s) = f(a) f(s) is checked for every a and every s
    in {1} + S.  Taking s = 1 forces f(1) = id, and induction on the
    length of b as a word in S gives f(a b) = f(a) f(b) for all a, b.
    """
    domain, K, gens, prods = _proven(ext)[1][sec.sequence]
    if sec.domain != domain:
        raise AssertionError("section domain is not the starred set")
    img = np.array([f.image for f in sec.images], dtype=np.intp)
    if not np.array_equal(_pair_rows(ext, *_induced_pairs(ext, img)), K):
        raise AssertionError("section image projects to the wrong element")
    for s, prod in [(0, np.arange(len(K)))] + list(zip(gens, prods)):
        # row i: f(a_i) o f(s) against f(a_i s); row 0 of K is the identity
        if (img[:, img[s]] != img[prod]).any():
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
    proofs = _proven(ext)[1]
    # over t' the factor set is zero, so a zero chi makes each triple's
    # gamma the map t'(x) n -> t'(phi x) theta(n)
    split = ext.with_transversal(witness.section.image)
    if split.mu.values.any():
        raise AssertionError("homomorphic transversal has a nonzero factor set")

    def build(which: int) -> Section:
        domain, K, _, _ = proofs[which]
        theta, P = K[:, :ext.N.order], K[:, ext.N.order:] - ext.N.order
        chi = np.zeros(P.shape + (ext.coeffs.rank,), dtype=np.int64)
        img = _gamma_images(split, theta, P, chi)
        _require_automorphisms(ext.G, img, "canonical section image is not an automorphism")
        sec = Section(which, domain, tuple(
            GroupAutomorphism._trusted(ext.G, row) for row in map(tuple, img.tolist())))
        _verify_section(ext, sec)
        return sec

    return build(1), build(2), build(3) if ext.central else None


def _orders(R: np.ndarray) -> np.ndarray:
    """The order of each permutation row of R."""
    orders, power, k = np.zeros(len(R), dtype=np.intp), R, 1
    while not orders.all():
        orders[(orders == 0) & (power == np.arange(R.shape[1])).all(axis=1)] = k
        power, k = np.take_along_axis(R, power, axis=1), k + 1
    return orders


def section_search(ext: ExtensionData, which: int) -> Optional[Section]:
    """Search for a homomorphic section of sequence 1, 2 or 3.

    Over the domain's pair rows (row 0 the identity) and the candidates'
    image rows, generators of the starred group get images from their
    projection fibers, constrained to matching element order (sections are
    injective); each full assignment is extended by the generator closure,
    which multiplies domain indices by the products of split_kernels'
    proof (see _proven), and the first consistent extension is returned
    verified.  None means exhaustion, so the sequence genuinely does not
    split.
    """
    if which not in (1, 2, 3):
        raise ParentMismatch(f"sequence selector must be 1, 2 or 3, got {which}")
    if which == 3 and not ext.central:
        raise NotCentral("pair sequence only exists for central extensions")
    domain, K, gens, prods = _proven(ext)[1][which]
    if len(domain) > config.DEFAULT_SECTION_BOUND:
        raise BoundExceeded(
            f"starred set of order {len(domain)} exceeds the section "
            f"search bound {config.DEFAULT_SECTION_BOUND}")
    cands = sequence_autos(aut_subgroups(ext), which)

    C = cands.rows
    fiber = np.array(_find_rows(_row_index(K), _pair_rows(ext, *_induced_pairs(ext, C))),
                     dtype=np.intp)
    if (fiber < 0).any():
        raise AssertionError("section candidate projects outside the starred set")
    if (np.bincount(fiber, minlength=len(K)) == 0).any():
        raise AssertionError("projection misses a starred element")
    choices = []
    for g, o in zip(gens, _orders(K[gens])):
        rows = C[fiber == g]
        choices.append(list(map(tuple, rows[_orders(rows) == o].tolist())))
    steps = [p.tolist() for p in prods]

    def mul(a: int, k: int) -> int:         # domain index a times generator k
        return steps[k][a]

    id_image = tuple(range(ext.G.order))
    closed = (close_generator_images(0, id_image, list(enumerate(picked)),
                                     mul, _compose_perm)
              for picked in product(*choices))
    found = next((m for m in closed if m is not None), None)
    if found is None:
        return None
    at = _find_rows(_row_index(C), np.array([found[k] for k in range(len(K))]))
    if -1 in at:
        raise AssertionError("section image is not a candidate automorphism")
    sec = Section(which, domain, tuple(cands[i] for i in at))
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
    form = CommutatorForm(ext.H, ext.moduli, ext._coords[
        cayley[cayley[inv[:, None], inv], cayley[t[:, None], t]]])
    F, d = form.values, _moduli_array(ext.moduli)
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
