"""Local-to-global reduction over Sylow subgroups of the quotient.

Lifting an automorphism of H = G/N, or extending an automorphism of N, is
settled prime by prime: the preimage P of a Sylow p-subgroup of H is again
an abelian extension of N, and the local answer on (P, N) controls the
global one.  The bridge is class arithmetic.  A local lift at p forces
[H : P/N] copies of the global obstruction class to vanish, and those
indices taken over all primes dividing |H| are coprime, so local successes
everywhere kill the class outright.

Extending theta, lifting phi and, for central extensions, lifting the pair
(theta, phi) are one question about a slice pair (see wells), asked by one
per-prime loop; a slot the sequence fixes stays the local identity.  Which
Sylows a prime tries is a flag of the sequence.  Extending theta keeps to the
deterministically grown one: for an incompatible theta, local
compatibility can differ between conjugate Sylows, so trying more would
change the reports.  Lifting phi and the pair walk the phi-invariant ones
until one succeeds.  The global question is asked once and must agree with
the local verdicts; a global witness restricts to every invariant preimage.

Local data is expressed in the same N coordinates as the ambient extension:
the members of N sit inside P in the same relative order as inside G, so
the standalone copies of N built from either side carry identical tables
(local_extension asserts it) and a proven theta of N is one of the local N.
Each prime's grown Sylow and Sylow list and each preimage's local extension
are facts of ext (wells._fact); for a p-group H the one preimage is G, and
that fact holds ext itself.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Optional

import numpy as np

from .cohomology import CohomologyClass
from .errors import (BadParameters, InputError, NotCharacteristic,
                     ParentMismatch, SylowNotInvariant)
from .groups import (GroupAutomorphism, Subgroup, automorphism_group,
                     is_commuting_automorphism, is_nilpotent, is_prime,
                     prime_factors, sylow_subgroup)
from .wells import (_SEQUENCES, CompatiblePair, ExtensionData, _fact,
                    answer, slice_pair, wells_cocycle_phi)

__all__ = [
    "SylowReport",
    "SylowCheck",
    "LocalExtension",
    "quotient_sylows",
    "sylow_preimage",
    "local_extension",
    "restrict_to_quotient_sylow",
    "sylow_lift_check",
    "sylow_extend_check",
    "index_kill_check",
    "characteristic_restriction",
    "corollary_predicates",
]


class SylowReport(NamedTuple):
    """Outcome of one local problem at one prime."""

    prime: int
    subgroup: Subgroup                       # P <= G containing N
    index: int                               # [H : P/N]
    compatible: bool                         # local cocycle is defined at all
    local_ok: bool
    witness: Optional[GroupAutomorphism]     # automorphism of P as a group
    obstruction: Optional[CohomologyClass]   # local class when the solve fails


class SylowCheck(NamedTuple):
    """Aggregate verdict with one report per prime dividing |H|."""

    verdict: bool
    reports: tuple
    witness: Optional[GroupAutomorphism]     # global witness on G


class LocalExtension(NamedTuple):
    """Sub-extension on N <= P <= G together with the quotient embedding.

    embed sends P/N into H; it is the injective homomorphism induced by the
    inclusion of P in G, so restricting maps of H along it is plain
    precomposition.
    """

    subgroup: Subgroup
    ext: ExtensionData
    embed: tuple


def quotient_sylows(ext: ExtensionData, p: int) -> list[Subgroup]:
    """All Sylow p-subgroups of H, the deterministically grown one first."""
    first = sylow_subgroup(ext.H, p)
    out = [first]
    seen = {first.members}
    for g in range(ext.H.order):
        conj = first.conjugate_by(g)
        if conj.members not in seen:
            seen.add(conj.members)
            out.append(conj)
    return out


def sylow_preimage(ext: ExtensionData, p: int,
                   sylow: Optional[Subgroup] = None) -> Subgroup:
    """P = preimage in G of a Sylow p-subgroup of H; contains N by design.

    A given sylow must be a subgroup of H whose order is the p-part of |H|.
    """
    if sylow is None:
        sylow = sylow_subgroup(ext.H, p)
    elif sylow.group is not ext.H:
        raise ParentMismatch("Sylow subgroup must live in the quotient group")
    elif not is_prime(p) or sylow.order != gcd(ext.H.order, p ** ext.H.order):
        raise BadParameters(f"subgroup of order {sylow.order} is not a Sylow "
                            f"{p}-subgroup of {ext.H.name}")
    members = [g for g in range(ext.G.order) if ext.pi(g) in sylow]
    return Subgroup(ext.G, members)


def local_extension(ext: ExtensionData, P: Subgroup) -> LocalExtension:
    """The induced extension 1 -> N -> P -> P/N -> 1 in shared coordinates."""
    if P.group is not ext.G:
        raise ParentMismatch("subgroup must live in the extension group")
    if not ext.N.member_set <= P.member_set:
        raise InputError("subgroup must contain N to induce a sub-extension")
    if P.order == ext.G.order:
        return LocalExtension(P, ext, tuple(range(ext.H.order)))
    P_grp = P.as_group()
    NP = Subgroup(P_grp, (P.position[m] for m in ext.N.members))
    sub = ExtensionData(P_grp, NP)
    if sub.n_group.table != ext.n_group.table or sub.moduli != ext.moduli:
        raise AssertionError("induced extension does not share the N coordinates")
    embed = tuple(ext.pi(P.members[g]) for g in sub.transversal)
    return LocalExtension(P, sub, embed)


def restrict_to_quotient_sylow(ext: ExtensionData, local: LocalExtension,
                               phi: GroupAutomorphism) -> Optional[GroupAutomorphism]:
    """phi pulled back along embed, or None when the image is not invariant."""
    if phi.group is not ext.H:
        raise ParentMismatch("automorphism must act on the quotient group")
    if local.subgroup.group is not ext.G:
        raise ParentMismatch("local extension must live in the extension group")
    back = {x: i for i, x in enumerate(local.embed)}
    images = []
    for i in range(local.ext.H.order):
        j = back.get(phi(local.embed[i]))
        if j is None:
            return None
        images.append(j)
    return GroupAutomorphism(local.ext.H, images)


def _leaves_invariant(phi: GroupAutomorphism, S: Subgroup) -> bool:
    return all(phi(s) in S.member_set for s in S.members)


def _sylow_check(ext: ExtensionData, which: int,
                 pair: CompatiblePair) -> SylowCheck:
    """The prime-local reduction of a pair of sequence which.

    Each prime dividing |H| tries its Sylows in order (all of them, or the
    deterministically grown one only, as the sequence's all_sylows says),
    skipping those phi moves, until one local question succeeds; the first
    one tried is reported when none does, and a prime without any invariant
    Sylow raises SylowNotInvariant.  A global witness must exist exactly
    when every prime succeeds.
    """
    theta, phi = pair
    seq = _SEQUENCES[which]
    free_theta, free_phi = seq.free
    reports = []
    for p in prime_factors(ext.H.order):
        report = None
        tried = (_fact(ext, ("sylows", p), lambda: quotient_sylows(ext, p))
                 if seq.all_sylows else
                 [_fact(ext, ("sylow", p), lambda: sylow_subgroup(ext.H, p))])
        for S in tried:
            if free_phi and not _leaves_invariant(phi, S):
                continue
            local = _fact(ext, ("local", S.members), lambda: local_extension(
                ext, sylow_preimage(ext, p, S)))
            sub = local.ext
            local_pair = CompatiblePair(
                GroupAutomorphism._trusted(sub.n_group, theta.image)
                if free_theta else sub.id_N,
                restrict_to_quotient_sylow(ext, local, phi) if free_phi else sub.id_H)
            got = answer(sub, which, local_pair)
            cand = SylowReport(p, local.subgroup, ext.H.order // sub.H.order,
                               got.compatible, got.witness is not None,
                               got.witness, got.obstruction)
            if report is None or cand.local_ok:
                report = cand
            if cand.local_ok:
                break
        if report is None:
            raise SylowNotInvariant(
                f"no Sylow {p}-subgroup of the quotient is invariant "
                f"under the automorphism")
        reports.append(report)
    verdict = all(r.local_ok for r in reports)
    witness = answer(ext, which, pair).witness
    if verdict != (witness is not None):
        raise AssertionError(f"local and global {seq.witness} verdicts disagree")
    return SylowCheck(verdict, tuple(reports), witness)


def sylow_lift_check(ext: ExtensionData, phi: GroupAutomorphism) -> SylowCheck:
    """Settle the lifting of phi in Aut(H) prime by prime.

    The phi-invariant Sylows of each prime are tried in order; when every
    prime succeeds the global lift on (G, N) is returned.
    """
    if phi.group is not ext.H:
        raise ParentMismatch("automorphism must act on the quotient group")
    return _sylow_check(ext, 2, slice_pair(ext, 2, phi))


def sylow_extend_check(ext: ExtensionData, theta: GroupAutomorphism) -> SylowCheck:
    """Settle the extension of theta in Aut(N) prime by prime.

    Each prime tries the deterministically grown Sylow only; when every
    prime succeeds the global extension on (G, N) is returned.
    """
    if theta.group is not ext.n_group:
        raise ParentMismatch("automorphism must act on the standalone N group")
    return _sylow_check(ext, 1, slice_pair(ext, 1, theta))


def index_kill_check(ext: ExtensionData, phi: GroupAutomorphism,
                     check: Optional[SylowCheck] = None) -> dict:
    """Expose the class arithmetic behind the lifting reduction.

    Whenever the local lift at p exists, [H : P/N] copies of the class of
    k_phi vanish; the entry for each prime records whether that held.  The
    indices attached to successful primes are jointly coprime exactly when
    every prime succeeds, which forces the class itself to die.
    wells_cocycle_phi does not ask the identity of k (the lemma of
    wells._difference_cocycle).  One CohomologyGroup._keys_of call keys k
    and each r k and proves each once, by its witness or else by the
    identity, so row 0 proves k itself.
    """
    if phi.group is not ext.H:
        raise ParentMismatch("automorphism must act on the quotient group")
    k = wells_cocycle_phi(ext, phi)
    if check is None:
        check = sylow_lift_check(ext, phi)
    scales = np.array([1] + [r.index for r in check.reports], dtype=np.int64)
    rem = ext.cohomology._keys_of(scales[:, None, None, None] * k.values)[0]
    killed = (~rem.any(axis=1)).tolist()
    entries = []
    running = 0
    for r, dead in zip(check.reports, killed[1:]):
        entries.append({"p": r.prime, "index": r.index,
                        "local_lift": r.local_ok, "index_kill": dead})
        if r.local_ok:
            running = gcd(running, r.index)
    # no primes divide |H| = 1; the empty family is jointly coprime
    coprime = running == 1 if entries else True
    return {
        "class_trivial": killed[0],
        "primes": entries,
        "indices_coprime": coprime,
        "forced_trivial": check.verdict and coprime,
    }


def characteristic_restriction(ext: ExtensionData, gamma: GroupAutomorphism,
                               P: Subgroup) -> GroupAutomorphism:
    """Restrict a lift gamma to the preimage P of a characteristic subgroup.

    gamma must centralize N and P/N must be invariant under every
    automorphism of H; the restriction then lands in Aut(P) and is the
    local lift of the induced quotient map.
    """
    if gamma.group is not ext.G or P.group is not ext.G:
        raise ParentMismatch("automorphism and subgroup must live in G")
    if not ext.N.member_set <= P.member_set:
        raise InputError("subgroup must contain N")
    if any(gamma(m) != m for m in ext.N.members):
        raise InputError("automorphism must centralize N")
    quotient = Subgroup(ext.H, {ext.pi(m) for m in P.members})
    # inside[a(s)] for every automorphism a (in aut:IDX order) and member s
    inside = np.zeros(ext.H.order, dtype=bool)
    inside[list(quotient.members)] = True
    moved = ~inside[automorphism_group(ext.H).rows[:, quotient.members]]
    if moved.any():
        s = quotient.members[np.argmax(moved) % quotient.order]
        raise NotCharacteristic(f"quotient image of the subgroup is moved at element {s}")
    if any(gamma(m) not in P.member_set for m in P.members):
        raise AssertionError("lift moves the preimage of a characteristic subgroup")
    P_grp = P.as_group()
    images = tuple(P.position[gamma(m)] for m in P.members)
    return GroupAutomorphism(P_grp, images)


def corollary_predicates(ext: ExtensionData,
                         phi: Optional[GroupAutomorphism] = None,
                         theta: Optional[GroupAutomorphism] = None) -> dict:
    """Flags for the situations where the Sylow reduction needs no choices.

    quotient_nilpotent: every Sylow of H is unique, so any phi restricts
    everywhere and the local verdicts are an exact criterion.
    phi_commuting: phi(x) commutes with x for all x; such maps fix every
    Sylow subgroup setwise, reported alongside as sylows_phi_invariant.
    central_pair_mode: for central extensions with both maps supplied, runs
    the pair version on each Sylow preimage and cross-checks the global
    pair lift.  A theta, when given, must act on the standalone N group.
    """
    if theta is not None and theta.group is not ext.n_group:
        raise ParentMismatch("automorphism must act on the standalone N group")
    out = {
        "quotient_nilpotent": is_nilpotent(ext.H),
        "phi_commuting": None,
        "sylows_phi_invariant": None,
        "lift_verdict": None,
        "central_pair_mode": None,
    }
    if phi is not None:
        if phi.group is not ext.H:
            raise ParentMismatch("automorphism must act on the quotient group")
        out["phi_commuting"] = is_commuting_automorphism(ext.H, phi)
        out["sylows_phi_invariant"] = all(
            _leaves_invariant(phi, S)
            for p in prime_factors(ext.H.order)
            for S in _fact(ext, ("sylows", p), lambda: quotient_sylows(ext, p)))
        try:
            out["lift_verdict"] = sylow_lift_check(ext, phi).verdict
        except SylowNotInvariant:
            out["lift_verdict"] = None
    if ext.central and phi is not None and theta is not None:
        check = _sylow_check(ext, 3, CompatiblePair(theta, phi))
        out["central_pair_mode"] = {
            "local_verdict": check.verdict,
            "primes": [{"p": r.prime, "pair_lift": r.local_ok}
                       for r in check.reports],
            "global_found": check.witness is not None,
        }
    return out
