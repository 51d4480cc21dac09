"""Automorphism decomposition, difference cocycles and the two exact
sequences, checked against exhaustive scans of the full automorphism group."""

import dataclasses
import importlib
import itertools
import json
import random
import re
import sys
from collections import Counter
from functools import partial

import numpy as np
import pytest

from extlift import (CompatiblePair, DoesNotNormalize, InputError, NotAbelian,
                     NotCentral, NotCompatible, NotNormal, OneCochain,
                     ParentMismatch, Subgroup, TripleConditionsFail,
                     TwoCochain, WellsTriple, abelian_structure,
                     answer, answers, aut_subgroups, automorphism_from_triple,
                     automorphism_group, catalog, coboundary_of,
                     compatible_pairs, derivation_check, extend_automorphism,
                     extension_from, group_from_permutations,
                     h2_conjugation_action, index_kill_check, is_compatible,
                     is_two_cocycle,
                     lambda1, lambda2, lambda_pair, lift_automorphism,
                     lift_pair, random_transversal, shipped_corpus,
                     sylow_lift_check, triple_of,
                     verify_exactness, wells_cocycle_pair, wells_cocycle_phi,
                     wells_cocycle_theta)
from extlift.abelian import restrict_to_matrix
from extlift.catalog import parse_catalog_expression
from extlift.cli import main
from extlift.groups import (GroupAutomorphism, all_subgroups, center,
                            derived_subgroup)
from extlift.intlin import TriangularLattice
from extlift.reports import corpus_pairs, group_json, h2_report
from extlift.wells import _induced_pairs, pair_key, slice_pair, starred_sets

from oracles import (aut_normalizing, brute_cocycle_defect, brute_triple_defect,
                     extension_witnesses, lift_witnesses, pair_witnesses,
                     greedy_generators, reference_chi,
                     reference_derivation_check, reference_difference_cocycle,
                     reference_aut_subgroups, reference_induced_pair,
                     reference_is_compatible)
from test_closure import _extensions


def _alt4():
    return group_from_permutations(4, [(1, 2, 0, 3), (0, 2, 3, 1)],
                                   name="alt4")


def _cases(max_order=16):
    """Extensions used across this module, all with abelian normal kernel."""
    s3 = catalog("dihedral", 6)
    d8 = catalog("dihedral", 8)
    q8 = catalog("quaternion", 8)
    z9 = catalog("cyclic", 9)
    a4 = _alt4()
    d12 = catalog("dihedral", 12)
    out = [
        (s3, Subgroup(s3, [0, 1, 2])),
        (d8, center(d8)),
        (d8, Subgroup(d8, [0, 1, 2, 3])),
        (q8, center(q8)),
        (z9, Subgroup(z9, [0, 3, 6])),
        (a4, derived_subgroup(a4)),
        (d12, Subgroup(d12, [0, 1, 2, 3, 4, 5])),
    ]
    return [(G, N) for G, N in out if G.order <= max_order]


def _theta_label_map(ext, theta):
    """theta as {G label of member -> G label of image member}."""
    mem = ext.N.members
    return {mem[i]: mem[theta(i)] for i in range(len(mem))}


def _coset_action_of_phi(ext, phi):
    """phi as the minimal-representative coset map the oracle compares."""
    G = ext.G
    minrep = {}
    for g in range(G.order):
        x = ext.pi(g)
        if x not in minrep:
            minrep[x] = min(G.mul(g, m) for m in ext.N.members)
    return {minrep[x]: minrep[phi(x)] for x in range(ext.H.order)}


def test_action_matrices_match_conjugation():
    for G, N in _cases(32):
        ext = extension_from(G, N)
        t = ext.transversal
        for x in range(ext.H.order):
            tx = t[x]
            for mem in N.members:
                conj = G.mul(G.inv(tx), G.mul(mem, tx))
                want = ext.coeffs.coords_of_member(conj)
                got = (ext.action[x] @ np.array(ext.coeffs.coords_of_member(mem))
                       % np.array(ext.moduli))
                assert tuple(got.tolist()) == want


def test_factor_set_matches_transversal_products():
    for G, N in _cases(32):
        ext = extension_from(G, N)
        t = ext.transversal
        for x in range(ext.H.order):
            for y in range(ext.H.order):
                g = G.mul(G.inv(t[ext.H.mul(x, y)]), G.mul(t[x], t[y]))
                assert ext.mu(x, y) == ext.coeffs.coords_of_member(g)
        assert is_two_cocycle(ext.mu, ext.cocycle_action)


def test_triple_round_trip_is_identity():
    """On each case and on a copy over the largest member of each coset,
    which shares the coordinate tables but not the transversal: gamma ->
    triple -> gamma is the identity, chi is the element-by-element
    reference, and no two automorphisms share a triple."""
    for G, N in _cases(16):
        base = extension_from(G, N)
        last = {base.pi(g): g for g in range(G.order)}
        other = base.with_transversal([0] + [last[x] for x in range(1, base.H.order)])
        assert other.transversal != base.transversal
        assert other._coords is base._coords
        for ext in (base, other):
            triples = {}
            for gamma in aut_subgroups(base).aut_N_of_G:
                tr = triple_of(ext, gamma)
                assert tuple(map(tuple, tr.chi.values.tolist())) == \
                    reference_chi(ext, gamma)
                back = automorphism_from_triple(ext, tr)
                assert back.image == gamma.image
                assert reference_induced_pair(ext, gamma) == pair_key(tr)
                key = (tr.theta.image, tr.phi.image, tr.chi)
                assert key not in triples, "two automorphisms share a triple"
                triples[key] = gamma.image


def test_induced_pairs_and_aut_subgroups_match_the_references():
    """_induced_pairs over all of Aut(G), normalizing N or not, against the
    |N| + h lookups of oracles.reference_induced_pair: the same pair, or a
    first -1 at the member the reference names as leaving N; and
    aut_subgroups against the set filter of oracles.reference_aut_subgroups.
    On every corpus extension with |H| <= 8 and the aut_enum light menu
    over the centre, each also over the largest member of each coset."""
    moving = copies = 0
    for name, base in _extensions():
        last = {base.pi(g): g for g in range(base.G.order)}
        other = base.with_transversal([0] + [last[x] for x in range(1, base.H.order)])
        copies += other.transversal != base.transversal
        auts = automorphism_group(base.G)
        for ext in (base, other):
            theta, phi = _induced_pairs(ext, np.array([g.image for g in auts]))
            for gamma, t, p in zip(auts, theta.tolist(), phi.tolist()):
                try:
                    want = reference_induced_pair(ext, gamma)
                except DoesNotNormalize as exc:
                    bad = ext.N.members[t.index(-1)]
                    assert str(exc) == f"gamma({bad}) = {gamma.image[bad]} " \
                        "leaves the subgroup", name
                    moving += 1
                    continue
                assert (tuple(t), tuple(p)) == want, name
            got, want = aut_subgroups(ext), reference_aut_subgroups(ext)
            for field in dataclasses.fields(got):
                assert tuple(getattr(got, field.name)) == getattr(want, field.name), name
    assert moving > 0 and copies > 0


def test_valid_triples_enumerate_the_normalizing_automorphisms():
    for G, N in _cases(12):
        ext = extension_from(G, N)
        pairs, _, _ = compatible_pairs(ext)
        h = ext.H.order
        values = list(itertools.product(*[range(m) for m in ext.moduli]))
        assert len(values) ** (h - 1) <= 512
        built = set()
        for theta, phi in pairs:
            for tail in itertools.product(values, repeat=h - 1):
                chi = OneCochain(ext.H, ext.moduli,
                                 [tuple([0] * len(ext.moduli))] + list(tail))
                try:
                    gamma = automorphism_from_triple(
                        ext, WellsTriple(theta, phi, chi))
                except TripleConditionsFail:
                    continue
                built.add(gamma.image)
        assert built == aut_normalizing(G, N)


def test_extend_agrees_with_exhaustive_scan():
    for G, N in _cases(16):
        ext = extension_from(G, N)
        for theta in automorphism_group(ext.n_group):
            witnesses = extension_witnesses(G, N, _theta_label_map(ext, theta))
            try:
                gamma = extend_automorphism(ext, theta)
            except NotCompatible:
                assert witnesses == []
                continue
            if gamma is None:
                assert witnesses == []
                assert not lambda1(ext, theta).is_trivial
            else:
                assert gamma.image in witnesses
                assert lambda1(ext, theta).is_trivial


def test_lift_agrees_with_exhaustive_scan():
    for G, N in _cases(16):
        ext = extension_from(G, N)
        for phi in automorphism_group(ext.H):
            witnesses = lift_witnesses(G, N, _coset_action_of_phi(ext, phi))
            try:
                gamma = lift_automorphism(ext, phi)
            except NotCompatible:
                assert witnesses == []
                continue
            if gamma is None:
                assert witnesses == []
                assert not lambda2(ext, phi).is_trivial
            else:
                assert gamma.image in witnesses
                assert lambda2(ext, phi).is_trivial


def test_pair_lift_agrees_with_exhaustive_scan_on_central_cases():
    for G, N in _cases(16):
        ext = extension_from(G, N)
        if not ext.central:
            continue
        pairs, _, _ = compatible_pairs(ext)
        for theta, phi in pairs:
            witnesses = pair_witnesses(G, N, _theta_label_map(ext, theta),
                                       _coset_action_of_phi(ext, phi))
            gamma = lift_pair(ext, theta, phi)
            if gamma is None:
                assert witnesses == []
            else:
                assert gamma.image in witnesses


def test_central_extension_pairs_are_the_full_product():
    for G, N in _cases(16):
        ext = extension_from(G, N)
        if not ext.central:
            continue
        pairs, c1, c2 = compatible_pairs(ext)
        n_auts = len(automorphism_group(ext.n_group))
        h_auts = len(automorphism_group(ext.H))
        assert len(pairs) == n_auts * h_auts
        assert len(c1) == n_auts and len(c2) == h_auts


def test_exactness_reports_are_clean():
    heis = catalog("heisenberg", 3)
    for G, N in _cases(16) + [(heis, center(heis))]:
        ext = extension_from(G, N)
        report = verify_exactness(ext)
        assert report["violations"] == []
        assert report["seq_1_1"] and report["seq_1_2"]
        assert report["seq_1_3"] is None or report["seq_1_3"]
        assert (report["seq_1_3"] is not None) == ext.central


def test_subgroup_orders_on_symmetric_example():
    # Aut of the 6 element dihedral group is inner; the rotation subgroup
    # is abelian, so exactly its 3 inner maps fix it pointwise.
    s3 = catalog("dihedral", 6)
    ext = extension_from(s3, Subgroup(s3, [0, 1, 2]))
    subs = aut_subgroups(ext)
    assert len(subs.aut_N_of_G) == 6
    assert len(subs.aut_upper_N) == 3
    assert len(subs.aut_N_H) == 6
    assert len(subs.aut_upper_N_H) == 3


def test_derivation_laws_hold():
    for G, N in _cases(12):
        ext = extension_from(G, N)
        report = derivation_check(ext)
        assert report["violations"] == []


def _shift_cocycles(monkeypatch, ext, target, shift):
    """Add shift to the difference cocycle of the pair whose key is target,
    (theta image, phi image), in every stack _difference_stack builds: its
    rows are matched by theta matrix and phi image."""
    wells = importlib.import_module("extlift.wells")
    theta = GroupAutomorphism(ext.n_group, target[0])
    T0 = restrict_to_matrix(ext.coeffs, theta)
    P0 = np.array(target[1])

    def shifted(mu, T, P, original=wells._difference_stack):
        K = original(mu, T, P)
        K[(T == T0).all(axis=(1, 2)) & (P == P0).all(axis=1)] += shift.values
        return K
    monkeypatch.setattr(wells, "_difference_stack", shifted)


def _law_lines(name, pairs, failing_class):
    out = []
    for a, b in pairs:
        out.append(f"{name} derivation law fails at {a} o {b}")
        if (a, b) in failing_class:
            out.append(f"{name} class law fails at {a} o {b}")
    return out


@pytest.mark.parametrize("expr", ["dihedral(8)", "quaternion(8)",
                                  "dihedral(16)", "heisenberg(3)"])
def test_derivation_check_names_a_slice_that_is_not_closed(monkeypatch, expr):
    """With C2 one member short, some composite of two members falls outside
    the slice: an internal fault that derivation_check names."""
    wells = importlib.import_module("extlift.wells")
    G = parse_catalog_expression(expr)
    ext = extension_from(G, center(G))
    real = wells.compatible_pairs

    def c2_one_short(e):
        pairs, c1, c2 = real(e)
        return pairs, c1, c2[:-1]
    monkeypatch.setattr(wells, "compatible_pairs", c2_one_short)
    with pytest.raises(AssertionError, match="phi slice is not closed under composition"):
        derivation_check(ext)


def test_derivation_check_reports_shifted_cocycles(monkeypatch):
    """Shifting one member's difference cocycle by a coboundary breaks only
    the cochain law; shifting it by a non-coboundary cocycle breaks the
    class law at exactly the pairs whose classes no longer agree."""
    z9 = catalog("cyclic", 9)
    ext = extension_from(z9, Subgroup(z9, [0, 3, 6]))
    unit = np.zeros((ext.H.order, len(ext.moduli)), dtype=np.int64)
    unit[1, 0] = 1
    delta = coboundary_of(OneCochain(ext.H, ext.moduli, unit), ext.cocycle_action)
    assert not delta.is_zero() and not ext.cohomology.class_of(ext.mu).is_trivial
    one, inv = (0, 1, 2), (0, 2, 1)
    every = [(a, b) for a in (one, inv) for b in (one, inv)]

    with monkeypatch.context() as mp:
        _shift_cocycles(mp, ext, (one, one), delta)
        report = derivation_check(ext)
    assert report["violations"] == (_law_lines("theta", every, ())
                                    + _law_lines("phi", every, ()))
    assert report["ok"] is False

    with monkeypatch.context() as mp:
        _shift_cocycles(mp, ext, (one, one), ext.mu)
        report = derivation_check(ext)
    assert report["violations"] == (_law_lines("theta", every, every)
                                    + _law_lines("phi", every, every))

    # phi = inv: only inv o inv moves, and its classes still agree
    with monkeypatch.context() as mp:
        _shift_cocycles(mp, ext, (one, inv), ext.mu)
        assert derivation_check(ext)["violations"] == [
            f"phi derivation law fails at {inv} o {inv}"]
    assert derivation_check(ext)["violations"] == []


def _z16_c1(monkeypatch, shifted):
    """derivation_check on Z16 over its index-2 subgroup, with the cocycle
    of C1[shifted] moved by the factor set, and the image keys of C1: the
    Klein four group {1, a, b, c}, whose greedy generators S are a, b; and
    the lines of the all-pairs check."""
    z16 = catalog("cyclic", 16)
    ext = extension_from(z16, Subgroup(z16, range(0, 16, 2)))
    _, c1, c2 = compatible_pairs(ext)
    keys = [t.image for t in c1]
    assert [p.image for p in c2] == [(0, 1)]
    assert greedy_generators(c1) == keys[1:3]
    with monkeypatch.context() as mp:
        _shift_cocycles(mp, ext, (keys[shifted], ext.id_H.image), ext.mu)
        report = derivation_check(ext)
        assert report == reference_derivation_check(ext, generators_only=True)
        every = reference_derivation_check(ext)["violations"]
    return report, keys, every


def test_derivation_check_class_law_only_where_classes_differ(monkeypatch):
    """Shifting a's cocycle breaks the law at each pair of members other
    than 1 with a as a factor or as the product, and the class law at all
    of them but (a, a).  Only right factors in {1, a, b} are named."""
    report, (one, a, b, c), _ = _z16_c1(monkeypatch, 1)
    moved = [(a, b), (b, a), (c, a), (c, b)]
    assert report["violations"] == _law_lines("theta", [(a, a), (a, b), (b, a),
                                                        (c, a), (c, b)], moved)


def test_derivation_check_catches_a_shifted_identity_at_s_1(monkeypatch):
    """A shifted cocycle of the identity (of C1, and so of C2 = {1}) breaks
    the law at every (g, 1), at every (1, s), and at (s, s) for the
    involutions a and b in S; the all-pairs check also names (1, c) and
    (c, c)."""
    report, (one, a, b, c), every = _z16_c1(monkeypatch, 0)
    pairs = [(one, one), (one, a), (one, b), (a, one), (a, a), (b, one),
             (b, b), (c, one)]
    phi = [((0, 1), (0, 1))]
    assert report["violations"] == (_law_lines("theta", pairs, pairs)
                                    + _law_lines("phi", phi, phi))
    assert set(_law_lines("theta", [(one, c), (c, c)], ())) <= set(every)


def test_derivation_check_names_failures_only_at_generator_right_factors(monkeypatch):
    """A shifted cocycle of c, which is not in {1} + S, is caught at (a, b),
    (b, a), (c, a) and (c, b); the all-pairs check also names (a, c) and
    (b, c)."""
    report, (one, a, b, c), every = _z16_c1(monkeypatch, 3)
    pairs = [(a, b), (b, a), (c, a), (c, b)]
    assert report["violations"] == _law_lines("theta", pairs, pairs)
    assert set(_law_lines("theta", [(a, c), (b, c)], ())) <= set(every)


def test_derivation_check_on_a_large_slice():
    """C2 of heisenberg(5) over its center is all 480 automorphisms of
    the quotient (Z5)^2, beyond the bound of the reports' quadratic checks."""
    G = parse_catalog_expression("heisenberg(5)")
    report = derivation_check(extension_from(G, center(G)))
    assert report["ok"] is True and report["c2_order"] == 480


def _derivation_cases():
    """Every corpus extension with |C1|, |C2| <= 48, one copy of each over a
    random transversal, and the edge cases N = 1, N = G and cyclic(1)."""
    rng = random.Random(1971)
    for G in shipped_corpus():
        for N in corpus_pairs(G):
            ext = extension_from(G, N)
            _, c1, c2 = compatible_pairs(ext)
            if max(len(c1), len(c2)) <= 48:
                yield ext
                yield ext.with_transversal(random_transversal(ext, rng))
    d8, z6, z1 = catalog("dihedral", 8), catalog("cyclic", 6), catalog("cyclic", 1)
    for G, N in ((d8, Subgroup(d8, [0])), (z6, Subgroup(z6, range(6))),
                 (z1, Subgroup(z1, [0]))):
        yield extension_from(G, N)


def _matches_the_reference(ext) -> dict:
    """derivation_check on ext, which must give the verdict of the all-pairs
    reference and exactly its dict at right factors in {1} + S."""
    report = derivation_check(ext)
    assert report["ok"] == reference_derivation_check(ext)["ok"], ext
    assert report == reference_derivation_check(ext, generators_only=True), ext
    return report


def test_derivation_check_matches_the_per_pair_reference(monkeypatch):
    """The law at the generators and the stacked probe give the verdict of
    the one-pair-at-a-time reference over all pairs, and its dict over the
    pairs whose right factor is 1 or a greedy generator; and so they do
    with the cocycles of the last member of C1 and of C2 shifted by the
    factor set, which breaks the law at many pairs."""
    seen = broken = 0
    for ext in _derivation_cases():
        _matches_the_reference(ext)
        _, c1, c2 = compatible_pairs(ext)
        with monkeypatch.context() as mp:
            _shift_cocycles(mp, ext, (c1[-1].image, ext.id_H.image), ext.mu)
            _shift_cocycles(mp, ext, (ext.id_N.image, c2[-1].image), ext.mu)
            report = _matches_the_reference(ext)
        seen += 1
        broken += not report["ok"]
    assert seen == 2 * 115 + 3 and broken > 100


def test_derivation_check_refuses_an_incompatible_slice_member(monkeypatch):
    """A member of C1 that fails condition (3) is a broken compatible_pairs,
    not a law violation: the check raises instead of reporting."""
    a4 = _alt4()
    ext = extension_from(a4, derived_subgroup(a4))
    pairs, c1, c2 = compatible_pairs(ext)
    alien = next(t for t in automorphism_group(ext.n_group)
                 if not is_compatible(ext, t, ext.id_H))
    wells = importlib.import_module("extlift.wells")
    monkeypatch.setattr(wells, "compatible_pairs",
                        lambda e: (pairs, c1 + [alien], c2))
    with pytest.raises(AssertionError, match=r"\(theta, 1\) fails condition \(3\)"):
        derivation_check(ext)


def test_verdicts_stable_under_transversal_change():
    rng = random.Random(20240911)
    for G, N in _cases(16):
        ext = extension_from(G, N)
        thetas = automorphism_group(ext.n_group)
        phis = automorphism_group(ext.H)

        def verdicts(e):
            ext_ok, lift_ok = [], []
            for th in thetas:
                try:
                    ext_ok.append(extend_automorphism(e, th) is not None)
                except NotCompatible:
                    ext_ok.append(False)
            for ph in phis:
                try:
                    lift_ok.append(lift_automorphism(e, ph) is not None)
                except NotCompatible:
                    lift_ok.append(False)
            return ext_ok, lift_ok

        base = verdicts(ext)
        for _ in range(5):
            other = ext.with_transversal(random_transversal(ext, rng))
            assert verdicts(other) == base


def test_conjugation_action_on_classes():
    for G, N in _cases(16):
        ext = extension_from(G, N)
        cg = ext.cohomology
        cls = cg.class_of(ext.mu)
        _, c1, c2 = compatible_pairs(ext)
        assert h2_conjugation_action(ext, ext.id_N, cls) == cls
        assert h2_conjugation_action(ext, ext.id_H, cls) == cls
        for aut in list(c1[:4]) + list(c2[:4]):
            moved = h2_conjugation_action(ext, aut, cls)
            inv = [0] * len(aut.image)
            for i, v in enumerate(aut.image):
                inv[v] = i
            back = h2_conjugation_action(ext, GroupAutomorphism(aut.group, inv),
                                         moved)
            assert back == cls
            assert h2_conjugation_action(ext, aut, cg.zero_class()).is_trivial


# the one-question functions of each sequence: (witness, class, arguments)
_ONE_QUESTION = {
    1: (extend_automorphism, lambda1, lambda pair: (pair.theta,)),
    2: (lift_automorphism, lambda2, lambda pair: (pair.phi,)),
    3: (lift_pair, lambda_pair, tuple),
}


def _one_question(ext, which, pair):
    """(compatible, witness image, class key, representative bytes) of a
    pair by the public one-question functions of its sequence."""
    solve, klass, args = _ONE_QUESTION[which]
    try:
        witness = solve(ext, *args(pair))
    except NotCompatible:
        return (False, None, None, None)
    cls = klass(ext, *args(pair))
    if witness is not None:
        assert cls.is_trivial
        return (True, witness.image, None, None)
    assert not cls.is_trivial
    return (True, None, cls.key, cls.representative.values.tobytes())


def _as_data(got):
    if got.obstruction is None:
        return (got.compatible, got.witness and got.witness.image, None, None)
    return (got.compatible, None, got.obstruction.key,
            got.obstruction.representative.values.tobytes())


def test_answer_matches_the_one_question_functions(monkeypatch):
    """answers against the public function of each sequence, on every
    shipped-corpus pair with |H| <= 8, over the extension and two random
    transversal copies: all of Aut N, all of Aut H and, for central
    kernels, C, mixed in one call with some questions repeated.  The same
    compatibility, witness image, class key and representative bytes; the
    second copy is answered one question per block."""
    rng = random.Random(16)
    asked, trivial_quotients, incompatible = 0, 0, 0
    wells = importlib.import_module("extlift.wells")
    for G in shipped_corpus():
        for N in corpus_pairs(G):
            base = extension_from(G, N)
            if base.H.order > 8:
                continue
            trivial_quotients += base.H.order == 1
            pairs, _, _ = compatible_pairs(base)
            questions = ([(1, slice_pair(base, 1, t))
                          for t in automorphism_group(base.n_group)]
                         + [(2, slice_pair(base, 2, p)) for p in automorphism_group(base.H)]
                         + [(3, pair) for pair in pairs if base.central])
            copies = [base] + [base.with_transversal(random_transversal(base, rng))
                               for _ in range(2)]
            for n, ext in enumerate(copies):
                mixed = rng.sample(questions, len(questions))
                mixed += mixed[:3]
                with monkeypatch.context() as m:
                    if n == 2:
                        m.setattr(wells, "_CHECK_BLOCK_TRIPLES", 1)
                    got = answers(ext, mixed)
                for (which, pair), a in zip(mixed, got):
                    assert _as_data(a) == _one_question(ext, which, pair)
                    assert answer(ext, which, pair) is a
                    incompatible += not a.compatible
                asked += len(mixed)
    assert trivial_quotients == 14
    assert incompatible > 0 and asked > 3000


def test_each_pair_is_answered_once_whichever_sequence_asks(monkeypatch):
    """On a central kernel C1 and C2 lie in C: starred_sets hands the block
    |C| rows in all, not |C| + |C1| + |C2|, and a pair of C1 asked as a
    pair of C is the same Answer."""
    wells = importlib.import_module("extlift.wells")
    q8 = catalog("quaternion", 8)
    ext = extension_from(q8, center(q8))
    rows, real = [], wells._answer_chunk

    def counting(e, asked, class_keys):
        rows.append(len(asked))
        return real(e, asked, class_keys)
    monkeypatch.setattr(wells, "_answer_chunk", counting)
    pairs, c1, c2 = compatible_pairs(ext)
    starred_sets(ext)
    assert sum(rows) == len(pairs) < len(pairs) + len(c1) + len(c2)
    for theta in c1:
        pair = slice_pair(ext, 1, theta)
        assert answer(ext, 1, pair) is answer(ext, 3, pair)
    assert sum(rows) == len(pairs)


def test_answers_refuse_pair_questions_on_a_non_central_kernel():
    s3 = catalog("dihedral", 6)
    ext = extension_from(s3, Subgroup(s3, [0, 1, 2]))
    with pytest.raises(NotCentral):
        answers(ext, [(1, ext.id_pair), (3, ext.id_pair)])
    assert answer(ext, 1, ext.id_pair).witness is not None


def test_answers_refuse_questions_that_do_not_fit_their_sequence():
    """A which outside 1, 2, 3, and a pair that moves the slot its sequence
    fixes, are input errors naming the selector or the slot, and nothing is
    answered.  On alt4 over V4 the pair ((0,1,3,2), (0,2,1)) asked of
    sequence 1 used to fail the cocycle identity, the signal of an internal
    fault; of the 211 such questions over the non-central corpus
    extensions with |H| <= 8, 14 did that and the rest were answered as if
    A o phi = A."""
    a4 = _alt4()
    ext = extension_from(a4, derived_subgroup(a4))
    pair = CompatiblePair(GroupAutomorphism(ext.n_group, [0, 1, 3, 2]),
                          GroupAutomorphism(ext.H, [0, 2, 1]))
    for which, slot in ((1, "phi"), (2, "theta")):
        with pytest.raises(InputError, match=f"^sequence {which} fixes {slot}, "
                                             f"got a nonidentity {slot}$"):
            answer(ext, which, pair)
    for which in (0, 4):
        with pytest.raises(InputError, match=f"^sequence selector must be 1, 2 "
                                             f"or 3, got {which}$"):
            answers(ext, [(1, ext.id_pair), (which, ext.id_pair)])
    assert not ext._facts
    misfits = 0
    for G in shipped_corpus():
        for N in corpus_pairs(G):
            ext = extension_from(G, N)
            if ext.central or ext.H.order > 8:
                continue
            for pair in compatible_pairs(ext)[0]:
                moved = (pair.theta.image != ext.id_N.image,
                         pair.phi.image != ext.id_H.image)
                for which in (1, 2):
                    if moved[2 - which]:    # 1 fixes phi, 2 fixes theta
                        misfits += 1
                        with pytest.raises(InputError, match=f"^sequence {which} fixes"):
                            answer(ext, which, pair)
    assert misfits == 211


def _d8_center():
    d8 = catalog("dihedral", 8)
    return extension_from(d8, center(d8))


def _verify_error(capsys, group, subgroup) -> str:
    """The error verify reports; it must exit 4, not 1."""
    code = main(["verify", "--group", group, "--subgroup", subgroup])
    report = json.loads(capsys.readouterr().out)
    assert code == 4 and report["kind"] == "AssertionError"
    return report["error"]


def _walk_off_by_one(monkeypatch):
    """The lattice walk takes one multiple too many of its first pivot row."""
    real = TriangularLattice._remainders

    def wrong(self, block):
        rem, taken = real(self, block)
        taken[:, :1] += 1
        return rem, taken
    monkeypatch.setattr(TriangularLattice, "_remainders", wrong)


def test_answer_refuses_a_missed_witness(capsys, monkeypatch):
    """A lattice walk whose multiples miss a trivial class's cocycle gives a
    witness that the solver check d(chi) = k refuses: answer raises, and
    verify exits 4, not 1."""
    ext = _d8_center()
    assert ext.cohomology._lattice._piv
    _walk_off_by_one(monkeypatch)
    with pytest.raises(AssertionError, match="^recovered witness does not "
                                             "reproduce the cocycle$"):
        answer(ext, 1, ext.id_pair)
    assert _verify_error(capsys, "dihedral(8)", "center") == \
        "recovered witness does not reproduce the cocycle"


def _other_automorphism(ext):
    """A member of Aut_N(G) that induces a pair other than (1, 1)."""
    return next(g for g in aut_subgroups(ext).aut_N_of_G
                if pair_key(triple_of(ext, g)) != pair_key(ext.id_pair))


@pytest.mark.parametrize("which,word", [(1, "extension"), (2, "lift"),
                                        (3, "pair")])
def test_witness_that_misses_its_pair_is_refused(monkeypatch, which, word):
    """A witness is certified by the pair it induces: an automorphism of G
    that induces another pair is refused on every sequence."""
    ext = _d8_center()
    _another_pair(monkeypatch, importlib.import_module("extlift.wells"))
    with pytest.raises(AssertionError,
                       match=f"^{word} witness does not invert the decomposition$"):
        answer(ext, which, ext.id_pair)


def _incompatible_theta_in_c1(monkeypatch, wells):
    """C1 with a theta appended that fails condition (3) with phi = 1."""
    real = wells.compatible_pairs

    def wrong(ext, verify_closure=True):
        pairs, c1, c2 = real(ext, verify_closure)
        alien = next(t for t in automorphism_group(ext.n_group)
                     if not is_compatible(ext, t, ext.id_H))
        return pairs, c1 + [alien], c2
    monkeypatch.setattr(wells, "compatible_pairs", wrong)


def _one_unit_off(monkeypatch, wells):
    """Difference cocycles that are no cocycles: one value of each moved."""
    real = wells._difference_stack

    def wrong(mu, T, P):
        k = real(mu, T, P)
        k[:, 1, 2, 0] += 1
        return k
    monkeypatch.setattr(wells, "_difference_stack", wrong)


def _first_stack_zero(monkeypatch, wells):
    """The first stack the block reduces is zero, a cocycle of trivial class
    but not the difference cocycle of its pairs."""
    real, calls = wells._difference_stack, []

    def wrong(mu, T, P):
        calls.append(None)
        k = real(mu, T, P)
        return k * 0 if len(calls) == 1 else k
    monkeypatch.setattr(wells, "_difference_stack", wrong)


def _identity_moved(monkeypatch, wells):
    """Witness images that send the identity elsewhere."""
    real = wells._gamma_images

    def wrong(ext, theta, P, chi):
        img = real(ext, theta, P, chi)
        img[:, [0, 1]] = img[:, [1, 0]]
        return img
    monkeypatch.setattr(wells, "_gamma_images", wrong)


def _another_pair(monkeypatch, wells):
    """Witness images of an automorphism that induces another pair."""
    other = _other_automorphism(_d8_center())
    monkeypatch.setattr(wells, "_gamma_images",
                        lambda e, theta, P, chi: np.tile(other.image, (len(P), 1)))


@pytest.mark.parametrize("fault,group,subgroup,message", [
    (_incompatible_theta_in_c1, _alt4, "derived",
     "a compatible pair is answered incompatible"),
    (_one_unit_off, "dihedral(8)", "center",
     r"difference cocycle fails the identity at \(\d+, \d+, \d+\)"),
    (_first_stack_zero, "dihedral(8)", "center",
     r"triple condition \(2\) fails at \(\d+, \d+\)"),
    (_identity_moved, "dihedral(8)", "center",
     "triple produced a non-automorphism: not a homomorphism"),
    (_another_pair, "dihedral(8)", "center",
     "extension witness does not invert the decomposition"),
], ids=["compatibility", "cocycle-identity", "condition-2", "automorphism",
        "round-trip"])
def test_each_block_check_names_its_failure(capsys, monkeypatch, tmp_path,
                                            fault, group, subgroup, message):
    """A fault injected before one check of the block is caught by that
    check, which names itself: verify exits 4, not 1.  (The solver check
    is test_answer_refuses_a_missed_witness.)  A group made by a function
    (no catalog name) is read from a group file."""
    if callable(group):
        path = tmp_path / "group.json"
        path.write_text(json.dumps(group_json(group())))
        group = str(path)
    fault(monkeypatch, importlib.import_module("extlift.wells"))
    assert re.match(message, _verify_error(capsys, group, subgroup))


def test_difference_cocycles_match_the_element_reference():
    """The lemma that lets the chain skip the identity: on every corpus
    extension with |H| <= 8 and two random transversal copies of each, the
    k of wells_cocycle_theta (C1), wells_cocycle_phi (C2) and, on a
    central kernel, wells_cocycle_pair (C), and the rows of one
    _difference_stack over all of C, equal the element-by-element
    reference.  Every k passes the all-triples brute identity for the
    action A o phi, which is A on every pair the chain asks."""
    wells = importlib.import_module("extlift.wells")
    rng = random.Random(28)
    cocycles, proven = 0, set()
    for G in shipped_corpus():
        for N in corpus_pairs(G):
            base = extension_from(G, N)
            if base.H.order > 8:
                continue
            for ext in [base] + [base.with_transversal(random_transversal(base, rng))
                                 for _ in range(2)]:
                pairs, c1, c2 = compatible_pairs(ext)
                ref = {pair_key(p): reference_difference_cocycle(ext, *p)
                       for p in pairs}
                chain = ([(slice_pair(ext, 1, t), wells_cocycle_theta(ext, t)) for t in c1]
                         + [(slice_pair(ext, 2, p), wells_cocycle_phi(ext, p)) for p in c2]
                         + [(p, wells_cocycle_pair(ext, *p)) for p in pairs if ext.central])
                for pair, _ in chain:
                    assert ext.central or (ext.action[list(pair.phi.image)]
                                           == ext.action).all()
                T = np.stack([restrict_to_matrix(ext.coeffs, p.theta) for p in pairs])
                P = np.array([p.phi.image for p in pairs], dtype=np.intp)
                stack = wells._difference_stack(ext.mu.values, T, P)
                got = chain + [(p, TwoCochain(ext.H, ext.moduli, k))
                               for p, k in zip(pairs, stack)]
                for pair, k in got:
                    assert k == ref[pair_key(pair)]
                cocycles += len(got)
                for pair in pairs:
                    A = None if ext.central else ext.action[list(pair.phi.image)]
                    k = ref[pair_key(pair)]
                    key = (id(ext.H), k.values.tobytes(), None if A is None else A.tobytes())
                    if key not in proven:
                        assert brute_cocycle_defect(k, A) is None
                        proven.add(key)
    assert cocycles > 5000


# each question of the one-question chain on ext, ready to ask; what it
# needs besides its k is made at once
_CHAIN_QUESTIONS = {
    "lambda1": lambda ext: partial(lambda1, ext, ext.id_N),
    "lambda2": lambda ext: partial(lambda2, ext, ext.id_H),
    "lambda_pair": lambda ext: partial(lambda_pair, ext, *ext.id_pair),
    "extend_automorphism": lambda ext: partial(extend_automorphism, ext, ext.id_N),
    "lift_automorphism": lambda ext: partial(lift_automorphism, ext, ext.id_H),
    "lift_pair": lambda ext: partial(lift_pair, ext, *ext.id_pair),
    "index_kill_check": lambda ext: partial(index_kill_check, ext, ext.id_H,
                                            sylow_lift_check(ext, ext.id_H)),
}


@pytest.mark.parametrize("name", list(_CHAIN_QUESTIONS))
def test_chain_names_a_difference_cocycle_that_is_no_cocycle(monkeypatch, name):
    """With _difference_stack one unit off, each question of the
    one-question chain on dihedral(8) over its centre, whose k is proven
    only by its consumer, stops with the internal AssertionError that
    names the failing triple, not with the NotACocycle (an InputError)
    that its class_of or coboundary_solve raises.  index_kill_check gets
    its Sylow check made before the fault, so its own identity check is
    what fires."""
    d8 = catalog("dihedral", 8)
    ask = _CHAIN_QUESTIONS[name](extension_from(d8, center(d8)))
    _one_unit_off(monkeypatch, importlib.import_module("extlift.wells"))
    with pytest.raises(AssertionError,
                       match=r"^difference cocycle fails the identity at \(\d+, \d+, \d+\)$"):
        ask()


def test_the_chain_asks_the_identity_once_per_question(monkeypatch):
    """Each lambda* question asks two_cocycle_defect once (class_of); a
    witnessed lift or extend asks it never (d(chi) = k proves k) and an
    obstructed one once (coboundary_solve); on dihedral(20) and
    heisenberg(5) over their centres, over C1, C2 and the first pairs of
    C."""
    calls, real = [], importlib.import_module("extlift.cohomology").two_cocycle_defect

    def counting(f, action):
        calls.append(None)
        return real(f, action)
    # every module that imported the name holds its own binding
    holders = [m for name, m in sys.modules.items() if name.startswith("extlift.")
               and getattr(m, "two_cocycle_defect", None) is real]
    seen = Counter()
    for G in (catalog("dihedral", 20), catalog("heisenberg", 5)):
        ext = extension_from(G, center(G))
        pairs, c1, c2 = compatible_pairs(ext)
        ext.cohomology
        questions = ([(lift_automorphism, lambda2, (p,)) for p in c2]
                     + [(extend_automorphism, lambda1, (t,)) for t in c1]
                     + [(lift_pair, lambda_pair, tuple(p)) for p in pairs[:64]])
        with monkeypatch.context() as m:
            for module in holders:
                m.setattr(module, "two_cocycle_defect", counting)
            for solve, klass, args in questions:
                del calls[:]
                witness = solve(ext, *args)
                assert len(calls) == (witness is None)
                del calls[:]
                klass(ext, *args)
                assert len(calls) == 1
                seen[witness is None] += 1
    assert {"extlift.cohomology", "extlift.wells"} <= {m.__name__ for m in holders}
    assert seen[True] and seen[False]


def test_the_block_asks_the_identity_only_of_rows_that_do_not_reduce(monkeypatch):
    """A block proves a k that reduces to zero by its witness, d(chi) = k,
    and asks _generator_defects only about the others, the obstructed
    pairs, each once: on dihedral(20) and heisenberg(5) over their centres,
    over C1, C2 and C."""
    cohomology = importlib.import_module("extlift.cohomology")
    asked, real = [], cohomology._generator_defects

    def counting(F, A, group, d):
        asked.append(int(np.prod(F.shape[3:])))
        return real(F, A, group, d)
    holders = [m for name, m in sys.modules.items() if name.startswith("extlift.")
               and getattr(m, "_generator_defects", None) is real]
    seen = Counter()
    for G in (catalog("dihedral", 20), catalog("heisenberg", 5)):
        ext = extension_from(G, center(G))
        pairs, c1, c2 = compatible_pairs(ext)
        ext.cohomology
        questions = ([(1, slice_pair(ext, 1, t)) for t in c1]
                     + [(2, slice_pair(ext, 2, p)) for p in c2]
                     + [(3, p) for p in pairs])
        del asked[:]
        with monkeypatch.context() as m:
            for module in holders:
                m.setattr(module, "_generator_defects", counting)
            got = answers(ext, questions)
        obstructed = {pair_key(pair) for (_, pair), a in zip(questions, got)
                      if a.obstruction is not None}
        assert sum(asked) == len(obstructed)
        seen[True] += len(obstructed)
        seen[False] += len({pair_key(pair) for _, pair in questions}) - len(obstructed)
    assert seen[True] and seen[False]


def _indicator(ext, x=1, y=2):
    """The 2-cochain that is 1 in coordinate 0 at (x, y) and 0 elsewhere,
    no cocycle for ext's action."""
    values = np.zeros((ext.H.order, ext.H.order, len(ext.moduli)), dtype=np.int64)
    values[x, y, 0] = 1
    f = TwoCochain(ext.H, ext.moduli, values)
    assert not is_two_cocycle(f, ext.cocycle_action)
    return f


_NO_COCYCLE = r"^difference cocycle fails the identity at \(\d+, \d+, \d+\)$"


def test_a_witnessed_pair_whose_k_is_no_cocycle_is_named(capsys, monkeypatch):
    """The identity pair of dihedral(8) over its centre has k = 0, a
    coboundary.  Shifted by a non-cocycle its k no longer reduces, so the
    block asks the identity of it and names the failing triple: answers
    raises the internal AssertionError, and verify exits 4."""
    ext = _d8_center()
    _shift_cocycles(monkeypatch, ext, pair_key(ext.id_pair), _indicator(ext))
    with pytest.raises(AssertionError, match=_NO_COCYCLE):
        answers(ext, [(1, ext.id_pair)])
    assert re.match(_NO_COCYCLE, _verify_error(capsys, "dihedral(8)", "center"))


def test_derivation_check_names_a_member_whose_k_is_no_cocycle(monkeypatch):
    """derivation_check proves only k_1 and each k_s, s in the greedy
    generators S, up front.  A member of C2 of dihedral(8) over its centre
    outside {1} + S, its k shifted by a non-cocycle, breaks the law, and
    the class comparison of the failing pairs, which proves both sides,
    names the failing triple as the internal AssertionError, not as the
    NotACocycle input error of class_of.  (Every normalized 2-cochain of
    Z2, the quotient of _z16_c1, is a cocycle, so its C1 has no such
    member.)"""
    ext = _d8_center()
    _, _, c2 = compatible_pairs(ext)
    spanning = {ext.id_H.image, *greedy_generators(c2)}
    outside = next(p.image for p in c2 if p.image not in spanning)
    _shift_cocycles(monkeypatch, ext, (ext.id_N.image, outside), _indicator(ext))
    with pytest.raises(AssertionError, match=_NO_COCYCLE):
        derivation_check(ext)



def test_derivation_check_proves_the_generator_rows(monkeypatch):
    """Difference cocycles built from mu + f, f no cocycle, still obey the
    composition law, whose proof never uses that mu is a cocycle; so only
    the proof of k_1 and the k_s up front catches them, and derivation_check
    names the failing triple."""
    ext = _d8_center()
    wells = importlib.import_module("extlift.wells")
    f, real = _indicator(ext).values, wells._difference_stack
    monkeypatch.setattr(wells, "_difference_stack", lambda mu, T, P: real(mu + f, T, P))
    with pytest.raises(AssertionError, match=_NO_COCYCLE):
        derivation_check(ext)

def test_incompatible_theta_is_rejected():
    a4 = _alt4()
    ext = extension_from(a4, derived_subgroup(a4))
    swap = GroupAutomorphism(ext.n_group, [0, 2, 1, 3])
    assert not is_compatible(ext, swap, ext.id_H)
    with pytest.raises(NotCompatible):
        wells_cocycle_theta(ext, swap)
    phis = automorphism_group(ext.H)
    compatible_with_swap = [ph for ph in phis if is_compatible(ext, swap, ph)]
    assert compatible_with_swap, "swap should pair with some quotient map"


def test_is_compatible_matches_the_permutation_reference():
    """is_compatible and compatible_pairs, both the matrix condition (3),
    agree with the permutation loop over the full Aut N x Aut H grid of
    every corpus extension with |H| <= 8 and a nontrivial action."""
    extensions = pairs = 0
    for G in shipped_corpus():
        for N in corpus_pairs(G):
            ext = extension_from(G, N)
            if ext.central or ext.H.order > 8:
                continue
            extensions += 1
            found = {pair_key(p) for p in compatible_pairs(ext)[0]}
            for theta in automorphism_group(ext.n_group):
                for phi in automorphism_group(ext.H):
                    want = reference_is_compatible(ext, theta, phi)
                    assert is_compatible(ext, theta, phi) == want
                    assert ((theta.image, phi.image) in found) == want
                    pairs += 1
    assert (extensions, pairs) == (35, 1132)


def test_pair_cocycle_requires_central_kernel():
    s3 = catalog("dihedral", 6)
    ext = extension_from(s3, Subgroup(s3, [0, 1, 2]))
    with pytest.raises(NotCentral):
        wells_cocycle_pair(ext, ext.id_N, ext.id_H)
    with pytest.raises(NotCentral):
        lift_pair(ext, ext.id_N, ext.id_H)


def test_triple_of_rejects_non_normalizing_automorphism():
    v4 = catalog("elementary_abelian", 2, 2)
    ext = extension_from(v4, Subgroup(v4, [0, 1]))
    moving = GroupAutomorphism(v4, [0, 2, 1, 3])
    with pytest.raises(DoesNotNormalize,
                       match=r"^gamma\(1\) = 2 leaves the subgroup$"):
        triple_of(ext, moving)


def test_bad_triples_are_rejected():
    d8 = catalog("dihedral", 8)
    ext = extension_from(d8, center(d8))
    chi = OneCochain(ext.H, ext.moduli, [(0,), (1,), (0,), (0,)])
    with pytest.raises(TripleConditionsFail):
        automorphism_from_triple(ext, WellsTriple(ext.id_N, ext.id_H, chi))


def _sym4():
    return group_from_permutations(4, [(1, 2, 3, 0), (1, 0, 2, 3)],
                                   name="sym4")


@pytest.mark.parametrize("G,kernel", [
    (catalog("dihedral", 8), "center"),
    (catalog("heisenberg", 3), "center"),
    (_alt4(), "derived"),
    (_sym4(), "klein"),
])
def test_triple_failures_match_brute_force(G, kernel):
    """automorphism_from_triple names the condition and the position that a
    direct loop over the conditions finds first."""
    if kernel == "center":
        N = center(G)
    elif kernel == "derived":
        N = derived_subgroup(G)
    else:
        N = next(S for S in all_subgroups(G) if S.order == 4 and S.is_normal())
    ext = extension_from(G, N)
    h, m = ext.H.order, ext.moduli
    rng = random.Random(11)
    chis = [triple_of(ext, g).chi for g in automorphism_group(G)
            if {g(x) for x in N.members} == N.member_set]
    seen = set()
    for theta in automorphism_group(ext.n_group):
        T = restrict_to_matrix(ext.coeffs, theta)
        for phi in automorphism_group(ext.H):
            vals = list(rng.choice(chis).values)
            vals[rng.randrange(1, h)] = tuple(rng.randrange(d) for d in m)
            chi = OneCochain(ext.H, m, vals)
            triple = WellsTriple(theta, phi, chi)
            want = brute_triple_defect(ext, T, phi.image, chi.values)
            if want is None:
                automorphism_from_triple(ext, triple)
                continue
            seen.add(want[0])
            with pytest.raises(TripleConditionsFail) as err:
                automorphism_from_triple(ext, triple)
            assert str(err.value) == \
                f"triple condition {want[0]} fails at {want[1]}"
    assert seen == ({"(2)"} if ext.central else {"(2)", "(3)"})


def test_parent_checks_on_automorphism_arguments():
    d8 = catalog("dihedral", 8)
    ext = extension_from(d8, center(d8))
    z3 = catalog("cyclic", 3)
    alien = GroupAutomorphism(z3, [0, 2, 1])
    with pytest.raises(ParentMismatch):
        extend_automorphism(ext, alien)
    with pytest.raises(ParentMismatch):
        lift_automorphism(ext, alien)
    with pytest.raises(ParentMismatch):
        triple_of(ext, alien)


def test_transversal_validation():
    d8 = catalog("dihedral", 8)
    ext = extension_from(d8, center(d8))
    with pytest.raises(InputError):
        ext.with_transversal([1, 2, 3, 4])
    with pytest.raises(InputError):
        ext.with_transversal([0, 1])
    with pytest.raises(InputError):
        ext.with_transversal([0, 0, 0, 0])
    # a float or a boolean never truncates: each list would read (0, 1, 4, 5)
    assert ext.with_transversal((0, 1, 4, 5)).transversal == (0, 1, 4, 5)
    for values in ([0, 1.9, 4.5, 5], [False, True, 4, 5]):
        with pytest.raises(InputError, match="transversal values must be integers"):
            ext.with_transversal(values)
    rng = random.Random(5)
    t = random_transversal(ext, rng)
    assert t[0] == 0
    other = ext.with_transversal(t)
    assert other.transversal == tuple(t)
    assert other.action is ext.action
    assert not other.action.flags.writeable


def test_extension_requires_matching_parent_and_abelian_normal_kernel():
    d8 = catalog("dihedral", 8)
    other = catalog("dihedral", 8)
    with pytest.raises(ParentMismatch):
        extension_from(d8, Subgroup(other, [0, 2]))
    d16 = catalog("dihedral", 16)
    nonabelian = next(S for S in all_subgroups(d16)
                      if len(S.members) == 8 and not S.as_group().is_abelian)
    with pytest.raises(InputError):
        extension_from(d16, nonabelian)
    s3 = catalog("dihedral", 6)
    with pytest.raises(InputError):
        extension_from(s3, Subgroup(s3, [0, 3]))


@pytest.mark.parametrize("expr,members,error,message", [
    ("quaternion(8)", range(8), NotAbelian,
     "subgroup members 1 and 4 do not commute"),
    ("dihedral(8)", [0, 4], NotNormal,
     "conjugate of 4 by 1 leaves the subgroup in dihedral8"),
    # neither abelian nor normal: abelian is checked first
    ("dihedral(24)", [0, 4, 8, 12, 16, 20], NotAbelian,
     "subgroup members 4 and 12 do not commute"),
])
def test_extension_data_refuses_n_with_the_first_failed_check(
        expr, members, error, message):
    G = parse_catalog_expression(expr)
    with pytest.raises(error) as info:
        extension_from(G, Subgroup(G, members))
    assert type(info.value) is error and str(info.value) == message


def test_n_is_proven_abelian_and_normal_once_per_extension(monkeypatch):
    """ExtensionData proves N abelian (in abelian_structure) and normal (in
    quotient_group) once each; h2_report proves its coefficients abelian
    once."""
    calls = Counter()
    for name in ("require_abelian", "require_normal"):
        def counted(self, _name=name, _check=getattr(Subgroup, name)):
            calls[_name, self.members] += 1
            return _check(self)
        monkeypatch.setattr(Subgroup, name, counted)
    G = catalog("dihedral", 12)
    N = Subgroup(G, [0, 1, 2, 3, 4, 5])
    extension_from(G, N)
    assert calls == {("require_abelian", N.members): 1,
                     ("require_normal", N.members): 1}
    calls.clear()
    h2_report(catalog("cyclic", 3), catalog("elementary_abelian", 2, 2))
    assert calls == {("require_abelian", (0, 1, 2, 3)): 1}
    with pytest.raises(NotAbelian, match="do not commute"):
        h2_report(catalog("cyclic", 2), catalog("dihedral", 6))
