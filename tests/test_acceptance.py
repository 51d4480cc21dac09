"""Acceptance battery: ten release gates, one test and one printed verdict
line each.  Every gate checks package results against an independent route
(brute enumeration, exhaustive automorphism scans, or pinned values) over
the shipped group catalog."""

import itertools
import json
import random
import subprocess
import sys
import time
from math import gcd

from extlift import (CohomologyGroup, NotCompatible, OneCochain,
                     SylowNotInvariant, WellsTriple, automorphism_from_triple,
                     automorphism_group, catalog, compatible_pairs,
                     derivation_check, extend_automorphism, extension_from,
                     index_kill_check, is_split_extension,
                     is_two_cocycle, lambda1, lambda2, lambda_pair,
                     lift_automorphism, random_transversal, section_search,
                     shipped_corpus, split_kernels, sylow_extend_check,
                     sylow_lift_check, triple_of, verify_exactness,
                     wells_cocycle_pair, wells_cocycle_phi,
                     wells_cocycle_theta, TripleConditionsFail)
from extlift.groups import GroupAutomorphism, Subgroup, center
from extlift.reports import corpus_pairs
from extlift.wells import aut_subgroups

from oracles import (H2_SPACE_BOUND, aut_normalizing, brute_cohomology,
                     extension_witnesses, h2_search_space, lift_witnesses)

_STATE = {}


def _extensions():
    if "exts" not in _STATE:
        exts = []
        for G in shipped_corpus():
            for N in corpus_pairs(G):
                exts.append(extension_from(G, N))
        _STATE["exts"] = exts
    return _STATE["exts"]


def _cp(ext):
    cache = _STATE.setdefault("pairs", {})
    if id(ext) not in cache:
        cache[id(ext)] = compatible_pairs(ext)
    return cache[id(ext)]


def _verdict(num, label, body):
    try:
        body()
    except BaseException:
        print(f"acceptance {num:2d}: FAIL  {label}")
        raise
    print(f"acceptance {num:2d}: PASS  {label}")


def _theta_label_map(ext, theta):
    mem = ext.N.members
    return {mem[i]: mem[theta(i)] for i in range(len(mem))}


def _coset_action_of_phi(ext, phi):
    G = ext.G
    minrep = {}
    for g in range(G.order):
        x = ext.pi(g)
        if x not in minrep:
            minrep[x] = min(G.mul(g, m) for m in ext.N.members)
    return {minrep[x]: minrep[phi(x)] for x in range(ext.H.order)}


def test_criterion_01_difference_cochains_are_cocycles():
    def body():
        hit = 0
        for ext in _extensions():
            if ext.G.order > 32:
                continue
            pairs, c1, c2 = _cp(ext)
            for th in c1:
                assert is_two_cocycle(wells_cocycle_theta(ext, th),
                                      ext.cocycle_action)
                hit += 1
            for ph in c2:
                assert is_two_cocycle(wells_cocycle_phi(ext, ph),
                                      ext.cocycle_action)
                hit += 1
            if ext.central:
                for pr in pairs:
                    assert is_two_cocycle(
                        wells_cocycle_pair(ext, pr.theta, pr.phi),
                        ext.cocycle_action)
        assert hit > 500
    _verdict(1, "difference cochains satisfy the cocycle identity, "
                "all catalog extensions to order 32", body)


def test_criterion_02_triples_enumerate_normalizing_automorphisms():
    def body():
        for ext in _extensions():
            if ext.G.order > 16:
                continue
            pairs, _, _ = _cp(ext)
            values = list(itertools.product(*[range(m) for m in ext.moduli]))
            zero = (0,) * len(ext.moduli)
            built = set()
            for theta, phi in pairs:
                for tail in itertools.product(values,
                                              repeat=ext.H.order - 1):
                    chi = OneCochain(ext.H, ext.moduli, [zero] + list(tail))
                    try:
                        gamma = automorphism_from_triple(
                            ext, WellsTriple(theta, phi, chi))
                    except TripleConditionsFail:
                        continue
                    built.add(gamma.image)
            assert built == aut_normalizing(ext.G, ext.N), ext
    _verdict(2, "valid triples produce exactly the automorphisms "
                "normalizing N, all extensions to order 16", body)


def test_criterion_03_exact_sequences_elementwise():
    def body():
        central_seen = 0
        for ext in _extensions():
            if ext.G.order > 32:
                continue
            rep = verify_exactness(ext)
            assert rep["violations"] == [], (ext, rep["violations"])
            assert rep["seq_1_1"] and rep["seq_1_2"]
            if ext.central:
                assert rep["seq_1_3"]
                central_seen += 1
        assert central_seen >= 20
    _verdict(3, "restriction and induction sequences exact elementwise, "
                "pair sequence exact on central extensions", body)


def test_criterion_04_verdicts_independent_of_transversal():
    def body():
        rng = random.Random(97)
        for ext in _extensions():
            pairs, c1, c2 = _cp(ext)

            def pattern(e):
                ext_ok = tuple(extend_automorphism(e, th) is not None
                               for th in c1)
                lift_ok = tuple(lift_automorphism(e, ph) is not None
                                for ph in c2)
                l1 = tuple(lambda1(e, th).is_trivial for th in c1)
                l2 = tuple(lambda2(e, ph).is_trivial for ph in c2)
                lp = None
                if e.central:
                    lp = tuple(lambda_pair(e, p.theta, p.phi).is_trivial
                               for p in pairs)
                return ext_ok, lift_ok, l1, l2, lp

            base = pattern(ext)
            assert base[0] == base[2] and base[1] == base[3]
            for _ in range(50):
                moved = ext.with_transversal(random_transversal(ext, rng))
                assert pattern(moved) == base, ext
    _verdict(4, "verdicts and class triviality stable across 50 random "
                "transversals per extension, fixed seed", body)


def test_criterion_05_cohomology_orders_against_brute_force():
    def body():
        compared = 0
        for ext in _extensions():
            cg = ext.cohomology
            if h2_search_space(ext.H.order, ext.moduli) <= H2_SPACE_BOUND:
                z2, b2, h2 = brute_cohomology(ext.H, ext.moduli,
                                              action=ext.action)
                assert (cg.z2_order, cg.b2_order, cg.h2_order) == \
                    (z2, b2, h2), ext
                compared += 1
            if gcd(ext.N.order, ext.H.order) == 1:
                assert cg.h2_order == 1, ext
        assert compared >= 40

        v4 = catalog("elementary_abelian", 2, 2)
        cg = CohomologyGroup(v4, (2,))
        assert cg.h2_order == 8
        assert brute_cohomology(v4, (2,))[2] == 8

        for H_order, moduli in ((2, (3,)), (3, (2, 2)), (4, (3,)),
                                (2, (9,)), (3, (4,))):
            H = catalog("cyclic", H_order) if H_order != 4 else v4
            cg = CohomologyGroup(H, moduli)
            assert cg.h2_order == 1
            assert brute_cohomology(H, moduli)[2] == 1
    _verdict(5, "cohomology orders match brute cochain enumeration for "
                "every search space within 2^16, coprime orders trivial",
             body)


def test_criterion_06_witnesses_and_exhaustive_failure_scans():
    def body():
        for ext in _extensions():
            if ext.G.order > 32:
                continue
            G, N = ext.G, ext.N
            _, c1, c2 = _cp(ext)
            for th in c1:
                gamma = extend_automorphism(ext, th)
                label = _theta_label_map(ext, th)
                if gamma is None:
                    assert extension_witnesses(G, N, label) == [], ext
                else:
                    assert all(gamma(m) == label[m] for m in N.members)
                    assert all(ext.pi(gamma(g)) == ext.pi(g)
                               for g in range(G.order))
            for ph in c2:
                gamma = lift_automorphism(ext, ph)
                if gamma is None:
                    assert lift_witnesses(
                        G, N, _coset_action_of_phi(ext, ph)) == [], ext
                else:
                    assert all(gamma(m) == m for m in N.members)
                    t = ext.transversal
                    assert all(ext.pi(gamma(t[x])) == ph(x)
                               for x in range(ext.H.order))

        z9 = catalog("cyclic", 9)
        zext = extension_from(z9, Subgroup(z9, [0, 3, 6]))
        zinv = GroupAutomorphism(zext.n_group, [0, 2, 1])
        assert extend_automorphism(zext, zinv) is None
        heis = catalog("heisenberg", 3)
        hext = extension_from(heis, center(heis))
        hinv = GroupAutomorphism(hext.n_group, [0, 2, 1])
        assert extend_automorphism(hext, hinv) is None
    _verdict(6, "failures confirmed by exhaustive automorphism scans, "
                "successes verified directly; inversion pins hold", body)


def test_criterion_07_prime_local_verdicts_match_global():
    def body():
        index_kill_seen = 0
        for ext in _extensions():
            if ext.G.order > 24:
                continue
            for ph in automorphism_group(ext.H):
                try:
                    check = sylow_lift_check(ext, ph)
                except SylowNotInvariant:
                    continue
                try:
                    direct = lift_automorphism(ext, ph) is not None
                except NotCompatible:
                    direct = False
                assert check.verdict == direct, ext
                try:
                    kill = index_kill_check(ext, ph, check)
                except NotCompatible:
                    assert not check.verdict
                    continue
                for entry in kill["primes"]:
                    if entry["local_lift"]:
                        assert entry["index_kill"], ext
                        index_kill_seen += 1
                if check.verdict:
                    assert kill["forced_trivial"] and kill["class_trivial"]
            for th in automorphism_group(ext.n_group):
                check = sylow_extend_check(ext, th)
                try:
                    direct = extend_automorphism(ext, th) is not None
                except NotCompatible:
                    direct = False
                assert check.verdict == direct, ext
        assert index_kill_seen > 100
    _verdict(7, "prime-local verdicts aggregate to the global ones, index "
                "multiples kill the class when local lifts exist", body)


def test_criterion_08_composition_laws_of_difference_cochains():
    def body():
        checked = 0
        for ext in _extensions():
            rep = derivation_check(ext)
            assert rep["violations"] == [], (ext, rep["violations"])
            checked += 1
        assert checked == 118
    _verdict(8, "difference cochains obey the composition laws at cochain "
                "and class level, catalog-wide", body)


def test_criterion_09_sections_of_the_automorphism_sequences():
    def body():
        from extlift import canonical_sections
        split_seen = 0
        for ext in _extensions():
            if not is_split_extension(ext)[0]:
                continue
            split_seen += 1
            psi1, psi2, psi = canonical_sections(ext)
            for th, gamma in zip(psi1.domain, psi1.images):
                tr = triple_of(ext, gamma)
                assert tr.theta.image == th.image and tr.phi.is_identity
            for ph, gamma in zip(psi2.domain, psi2.images):
                tr = triple_of(ext, gamma)
                assert tr.phi.image == ph.image and tr.theta.is_identity
            if ext.central:
                assert psi is not None
            else:
                assert psi is None
        assert split_seen >= 40

        expected = {"dihedral": 2, "quaternion": 6}
        for name, order in expected.items():
            G = catalog(name, 8)
            ext = extension_from(G, center(G))
            assert not is_split_extension(ext)[0]
            stars = split_kernels(ext)
            assert len(stars.c2_star) == order
            subs = aut_subgroups(ext)
            induced = {triple_of(ext, g).phi.image for g in subs.aut_upper_N}
            assert induced == {ph.image for ph in stars.c2_star}
            sec = section_search(ext, 2)
            assert sec is not None and len(sec.domain) == order

        heis = catalog("heisenberg", 3)
        hext = extension_from(heis, center(heis))
        stars = split_kernels(hext)
        assert [th.image for th in stars.c1_star] == [(0, 1, 2)]
    _verdict(9, "split extensions yield verified sections; the starred "
                "quotient sets on the two nonsplit order-8 extensions have "
                "orders 2 and 6 with found sections", body)


def test_criterion_10_end_to_end_verification_run():
    def body():
        argv = [sys.executable, "-m", "extlift.cli", "verify-all"]
        outs = []
        for _ in range(2):
            t0 = time.monotonic()
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=300)
            elapsed = time.monotonic() - t0
            assert elapsed < 300, f"took {elapsed:.1f}s"
            assert proc.returncode == 0, proc.stderr[-2000:]
            outs.append(proc.stdout)
        assert outs[0] == outs[1], "verification output is not deterministic"
        report = json.loads(outs[0])
        assert report["ok"] is True
        assert report["failed"] == 0
        assert report["pairs"] >= 100
    _verdict(10, "full catalog verification passes twice, byte-identical, "
                 "within the time budget", body)
