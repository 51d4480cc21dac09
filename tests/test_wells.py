"""Automorphism decomposition, difference cocycles and the two exact
sequences, checked against exhaustive scans of the full automorphism group."""

import importlib
import itertools
import json
import random
import re

import numpy as np
import pytest

from extlift import (DoesNotNormalize, InputError, NotCentral,
                     NotCompatible, OneCochain, ParentMismatch, Subgroup,
                     TripleConditionsFail, WellsTriple, abelian_structure,
                     answer, answers, aut_subgroups, automorphism_from_triple,
                     automorphism_group, catalog, coboundary_of,
                     compatible_pairs, derivation_check, extend_automorphism,
                     extension_from, group_from_permutations,
                     h2_conjugation_action, is_compatible, is_two_cocycle,
                     lambda1, lambda2, lambda_pair, lift_automorphism,
                     lift_pair, random_transversal, shipped_corpus, triple_of,
                     verify_exactness, wells_cocycle_pair, wells_cocycle_phi,
                     wells_cocycle_theta)
from extlift.abelian import restrict_to_matrix
from extlift.cli import main
from extlift.groups import (GroupAutomorphism, all_subgroups, center,
                            derived_subgroup)
from extlift.intlin import TriangularLattice
from extlift.reports import corpus_pairs, group_json
from extlift.wells import _induced_pair, pair_key, slice_pair, starred_sets

from oracles import (aut_normalizing, brute_triple_defect,
                     extension_witnesses, lift_witnesses, pair_witnesses,
                     reference_chi, reference_derivation_check,
                     reference_is_compatible)


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
                assert _induced_pair(ext, gamma) == pair_key(tr)
                key = (tr.theta.image, tr.phi.image, tr.chi)
                assert key not in triples, "two automorphisms share a triple"
                triples[key] = gamma.image


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


def test_derivation_check_class_law_only_where_classes_differ(monkeypatch):
    z16 = catalog("cyclic", 16)
    ext = extension_from(z16, Subgroup(z16, range(0, 16, 2)))
    _, c1, c2 = compatible_pairs(ext)
    one, a, b, c = (t.image for t in c1)
    assert [p.image for p in c2] == [(0, 1)]
    with monkeypatch.context() as mp:
        _shift_cocycles(mp, ext, (a, ext.id_H.image), ext.mu)
        report = derivation_check(ext)
    moved = [(a, b), (a, c), (b, a), (b, c), (c, a), (c, b)]
    assert report["violations"] == _law_lines("theta", [(a, a)] + moved, moved)


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


@pytest.mark.parametrize("block", [None, 1], ids=["default-block", "one-row-blocks"])
def test_derivation_check_matches_the_per_pair_reference(monkeypatch, block):
    """The stacked law and probe give the dict of the one-pair-at-a-time
    reference, also when every block of the law holds one g1 row; and so
    they do with the cocycles of the last member of C1 and of C2 shifted by
    the factor set, which breaks the law at many pairs."""
    if block is not None:
        monkeypatch.setattr(importlib.import_module("extlift.wells"),
                            "_CHECK_BLOCK_TRIPLES", block)
    seen = broken = 0
    for ext in _derivation_cases():
        assert derivation_check(ext) == reference_derivation_check(ext), ext
        _, c1, c2 = compatible_pairs(ext)
        with monkeypatch.context() as mp:
            _shift_cocycles(mp, ext, (c1[-1].image, ext.id_H.image), ext.mu)
            _shift_cocycles(mp, ext, (ext.id_N.image, c2[-1].image), ext.mu)
            report = derivation_check(ext)
            assert report == reference_derivation_check(ext), ext
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
    starred_sets(ext, pairs, c1, c2)
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
