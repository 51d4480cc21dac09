"""Cocycle arithmetic and H^2 computation against brute-force enumeration."""

import json
import random
from math import gcd

import numpy as np
import pytest

from extlift import (BoundExceeded, CohomologyGroup, GroupAutomorphism,
                     InputError, NotACocycle, OneCochain, ParentMismatch,
                     Subgroup, TwoCochain, catalog,
                     coboundary_of, extension_from, is_two_cocycle,
                     trivial_action, two_cocycle_defect)
from extlift.catalog import shipped_corpus
from extlift.cohomology import (_CHECK_BLOCK_TRIPLES, _first_defect,
                                _holds_at_generator_triples, class_eq,
                                validate_action)
from extlift.groups import all_subgroups, center
from extlift.reports import class_json, corpus_pairs

from oracles import (H2_SPACE_BOUND, brute_cocycle_defect, brute_cohomology,
                     h2_search_space, reference_z2_order)

Z2 = catalog("cyclic", 2)
Z3 = catalog("cyclic", 3)
Z4 = catalog("cyclic", 4)
V4 = catalog("elementary_abelian", 2, 2)


@pytest.mark.parametrize("H,moduli", [
    (Z2, (2,)), (Z2, (3,)), (Z2, (4,)), (Z2, (12,)), (Z2, (2, 2)),
    (Z3, (2,)), (Z3, (3,)), (Z3, (9,)), (Z3, (2, 2)),
    (Z4, (2,)), (Z4, (3,)),
    (V4, (2,)), (V4, (3,)),
])
def test_orders_match_brute_force_trivial_action(H, moduli):
    assert h2_search_space(H.order, moduli) <= H2_SPACE_BOUND
    cg = CohomologyGroup(H, moduli)
    assert (cg.z2_order, cg.b2_order, cg.h2_order) == \
        brute_cohomology(H, moduli)


def _extension_cases():
    """Small extensions with nontrivial conjugation action."""
    from extlift import group_from_permutations
    from oracles import element_order
    d6 = catalog("dihedral", 6)
    d8 = catalog("dihedral", 8)
    d12 = catalog("dihedral", 12)
    a4 = group_from_permutations(4, [(1, 2, 0, 3), (0, 2, 3, 1)], name="alt4")
    klein = [g for g in range(12) if element_order(a4, g) <= 2]
    return [
        (d6, [0, 1, 2]),     # Z2 inverting Z3
        (d8, [0, 1, 2, 3]),  # Z2 inverting Z4
        (d12, [0, 1, 2, 3, 4, 5]),  # Z2 inverting Z6
        (a4, klein),         # Z3 permuting V4
    ]


@pytest.mark.parametrize("G,members", _extension_cases())
def test_orders_match_brute_force_conjugation_action(G, members):
    ext = extension_from(G, Subgroup(G, members))
    assert h2_search_space(ext.H.order, ext.moduli) <= H2_SPACE_BOUND
    cg = ext.cohomology
    assert (cg.z2_order, cg.b2_order, cg.h2_order) == \
        brute_cohomology(ext.H, ext.moduli, ext.action)


def _corpus_extensions():
    return [extension_from(G, N) for G in shipped_corpus() for N in corpus_pairs(G)]


def _reference_cases():
    """Every corpus extension with |H| <= 16, the conjugation cases above,
    and S3 acting on V4 (k = 2 under a nontrivial action)."""
    from extlift import group_from_permutations
    s4 = group_from_permutations(4, [(1, 2, 3, 0), (1, 0, 2, 3)], name="sym4")
    klein = next(S for S in all_subgroups(s4) if S.order == 4 and S.is_normal())
    return ([ext for ext in _corpus_extensions() if ext.H.order <= 16]
            + [extension_from(G, Subgroup(G, m)) for G, m in _extension_cases()]
            + [extension_from(s4, klein)])


def test_z2_order_matches_the_all_triples_reference():
    """The Z^2 system asked at generator middle arguments only counts what
    the system asked at every (y, z) counts."""
    cases = _reference_cases()
    assert any(not ext.central and len(ext.moduli) >= 2 for ext in cases)
    for ext in cases:
        cg = ext.cohomology
        ref = reference_z2_order(ext.H, ext.moduli, cg.action)
        assert cg.z2_order == ref, (ext.G.name, ext.N.members)
        assert cg.b2_order * cg.h2_order == ref
        assert cg.h2_order == ref // cg.b2_order


def test_large_builds_keep_their_orders():
    """|H| = 49 and 64, beyond every brute oracle: the orders the all-triples
    system gave."""
    cg = CohomologyGroup(catalog("elementary_abelian", 7, 2), (7,))
    assert (cg.z2_order, cg.b2_order, cg.h2_order) == (7 ** 49, 7 ** 46, 343)
    cg = CohomologyGroup(catalog("cyclic", 64), (2,))
    assert (cg.z2_order, cg.b2_order, cg.h2_order) == (2 ** 63, 2 ** 62, 2)


def test_pinned_klein_four_value():
    assert CohomologyGroup(V4, (2,)).h2_order == 8


def test_cyclic_coefficients_give_gcd():
    """H^2(Z_m, Z_n) with trivial action has gcd(m, n) elements."""
    for m in (2, 3, 4, 6, 8):
        for n in (2, 3, 4, 6, 9, 12):
            H = catalog("cyclic", m)
            assert CohomologyGroup(H, (n,)).h2_order == gcd(m, n)


def test_coprime_orders_trivialize():
    for H, moduli in ((Z3, (4,)), (Z4, (27,)), (V4, (9,)),
                      (catalog("cyclic", 5), (6,))):
        cg = CohomologyGroup(H, moduli)
        assert cg.h2_order == 1


def test_coboundaries_are_cocycles():
    d8 = catalog("dihedral", 8)
    ext = extension_from(d8, Subgroup(d8, [0, 1, 2, 3]))
    H, m, act = ext.H, ext.moduli, ext.action
    for x in range(H.order):
        vals = [(0,) * len(m) for _ in range(H.order)]
        if x:
            vals[x] = (1,)
        chi = OneCochain(H, m, vals)
        delta = coboundary_of(chi, act)
        assert is_two_cocycle(delta, act)
        assert two_cocycle_defect(delta, act) is None


def test_coboundary_matches_its_definition():
    """delta(chi)(x, y) = chi(xy) - chi(y) - A(phi y) chi(x), by loops over
    Python ints, plain (phi = 1) and twisted by every automorphism of H."""
    from extlift import automorphism_group, group_from_permutations
    s4 = group_from_permutations(4, [(1, 2, 3, 0), (1, 0, 2, 3)], name="sym4")
    klein = next(S for S in all_subgroups(s4) if S.order == 4 and S.is_normal())
    ext = extension_from(s4, klein)           # S3 acting on V4
    H, m = ext.H, ext.moduli
    h, k = H.order, len(m)
    A = ext.action.tolist()
    rng = random.Random(2)
    chi = OneCochain(H, m, [(0,) * k] + [tuple(rng.randrange(d) for d in m)
                                         for _ in range(h - 1)])
    c = chi.values.tolist()
    for phi in [None] + automorphism_group(H):
        p = list(range(h)) if phi is None else phi.image
        delta = coboundary_of(chi, ext.action, phi)
        for x in range(h):
            for y in range(h):
                acted = [sum(A[p[y]][i][j] * c[x][j] for j in range(k))
                         for i in range(k)]
                want = tuple((c[H.mul(x, y)][i] - c[y][i] - acted[i]) % m[i]
                             for i in range(k))
                assert delta(x, y) == want


def test_cocycle_defect_reports_triple():
    # indicator of (1, 1) first fails the identity at (1, 1, 2)
    f = TwoCochain.from_function(Z4, (4,),
                                 lambda x, y: (1 if x == y == 1 else 0,))
    assert not is_two_cocycle(f, None)
    bad = two_cocycle_defect(f, None)
    assert bad is not None and len(bad) == 3
    x, y, z = bad
    lhs = (f(y, z)[0] + f(x, (y + z) % 4)[0]) % 4
    rhs = (f((x + y) % 4, z)[0] + f(x, y)[0]) % 4
    assert lhs != rhs


def _perturbation_cases():
    """(extension, label): trivial and non-trivial actions, ranks 1 and 2."""
    from extlift import direct_product, group_from_permutations
    d8 = catalog("dihedral", 8)
    he3 = catalog("heisenberg", 3)
    s4 = group_from_permutations(4, [(1, 2, 3, 0), (1, 0, 2, 3)], name="sym4")
    klein = next(S for S in all_subgroups(s4) if S.order == 4 and S.is_normal())
    z2d8 = direct_product(catalog("cyclic", 2), d8)
    return [
        (extension_from(d8, center(d8)), "trivial, k=1"),
        (extension_from(he3, center(he3)), "trivial, |H|=9"),
        (extension_from(z2d8, center(z2d8)), "trivial, k=2"),
        (extension_from(d8, Subgroup(d8, [0, 1, 2, 3])), "inversion, k=1"),
        (extension_from(s4, klein), "S3 on V4, k=2"),
    ]


@pytest.mark.parametrize("ext,label", _perturbation_cases())
def test_cocycle_defect_matches_brute_force_on_perturbed_factor_sets(ext, label):
    H, m = ext.H, ext.moduli
    assert two_cocycle_defect(ext.mu, ext.cocycle_action) is None
    for a in range(1, H.order):
        for b in range(1, H.order):
            vals = [list(row) for row in ext.mu.values]
            c = (a + b) % len(m)
            vals[a][b] = tuple((v + (i == c)) % d
                               for i, (v, d) in enumerate(zip(vals[a][b], m)))
            f = TwoCochain(H, m, vals)
            got = two_cocycle_defect(f, ext.cocycle_action)
            assert got == brute_cocycle_defect(f, ext.cocycle_action)
            assert got is not None and all(type(v) is int for v in got)


def _perturbed(ext, a, b, c, by=1):
    vals = ext.mu.values.copy()
    vals[a, b, c] += by
    return TwoCochain(ext.H, ext.moduli, vals)


def test_first_failing_triple_with_a_non_generator_middle_argument():
    """The generator triples only decide pass or fail; the triple named is
    still the first of all, also when its middle argument is no generator."""
    seen = 0
    for G in (catalog("heisenberg", 3), catalog("dihedral", 16)):
        ext = extension_from(G, center(G))
        H = ext.H
        for a in range(1, H.order):
            for b in range(1, H.order):
                f = _perturbed(ext, a, b, 0)
                got = two_cocycle_defect(f, ext.cocycle_action)
                assert got == brute_cocycle_defect(f, ext.cocycle_action)
                seen += got[1] not in H.generators
    assert seen


def test_generator_stage_agrees_with_the_full_scan_on_corpus_perturbations():
    """Every corpus factor set passes both, and so does its shift by a
    coboundary; perturbed at one slot and coordinate, it passes both or
    fails both."""
    rng = random.Random(10)
    failed = 0
    for ext in _corpus_extensions():
        H, m, act = ext.H, ext.moduli, ext.cocycle_action
        if H.order == 1:
            continue
        assert _holds_at_generator_triples(ext.mu, act)
        assert _first_defect(ext.mu, act) is None
        for _ in range(4):
            a, b = rng.randrange(1, H.order), rng.randrange(1, H.order)
            c = rng.randrange(len(m))
            f = _perturbed(ext, a, b, c, by=rng.randrange(1, m[c]))
            holds = _holds_at_generator_triples(f, act)
            assert holds == (_first_defect(f, act) is None)
            failed += not holds
        chi = OneCochain(H, m, [(0,) * len(m)] + [
            tuple(rng.randrange(d) for d in m) for _ in range(H.order - 1)])
        f = ext.mu + coboundary_of(chi, act)
        assert _holds_at_generator_triples(f, act)
        assert _first_defect(f, act) is None
    assert failed > 300


def test_cocycle_defect_matches_brute_force_on_every_small_cochain():
    """Every normalized cochain of four small cases, one under Z3 permuting
    V4: the same first failing triple as the definition, or None."""
    import itertools
    from extlift import group_from_permutations
    from oracles import element_order
    a4 = group_from_permutations(4, [(1, 2, 0, 3), (0, 2, 3, 1)], name="alt4")
    ext = extension_from(a4, Subgroup(a4, [g for g in range(12)
                                           if element_order(a4, g) <= 2]))
    cases = [(V4, (2,), None), (Z4, (2,), None), (Z3, (3,), None),
             (ext.H, ext.moduli, ext.cocycle_action)]
    for H, m, action in cases:
        h, k = H.order, len(m)
        cocycles = 0
        for combo in itertools.product(*[range(d) for d in m] * (h - 1) ** 2):
            vals = np.zeros((h, h, k), dtype=np.int64)
            vals[1:, 1:] = np.reshape(combo, (h - 1, h - 1, k))
            f = TwoCochain(H, m, vals)
            got = two_cocycle_defect(f, action)
            assert got == brute_cocycle_defect(f, action)
            cocycles += got is None
        assert cocycles == CohomologyGroup(H, m, action).z2_order


def test_matrix_family_that_is_no_action_gets_the_full_scan():
    """The generator triples prove a cocycle only for a right action.  On
    Z4 with the non-multiplicative family 1, 1, 2, 2 on Z/5 this f holds at
    every (x, 1, z) but fails at (1, 2, 1)."""
    H = catalog("cyclic", 4)
    assert H.generators == (1,)
    family = [((1,),), ((1,),), ((2,),), ((2,),)]
    vals = [[0, 0, 0, 0], [0, 1, 0, 2], [0, 0, 0, 0], [0, 1, 0, 2]]
    f = TwoCochain(H, (5,), [[(v,) for v in row] for row in vals])
    t = H.table
    assert all((vals[t[x][1]][z] + family[z][0][0] * vals[x][1]
                - vals[x][t[1][z]] - vals[1][z]) % 5 == 0
               for x in range(1, 4) for z in range(1, 4))
    assert not _holds_at_generator_triples(f, family)
    assert two_cocycle_defect(f, family) == brute_cocycle_defect(f, family) == (1, 2, 1)


def test_cocycle_defect_found_in_last_block_of_first_arguments():
    """|H| = 49 splits the first arguments into several blocks.

    For a genuine action the first arguments x with no failing (x, y, z)
    form a subgroup, so on Z7 x Z7 the first defect always lies among the
    first 14 elements.  A coboundary taken with a non-multiplicative matrix
    family fails exactly where chi is non-zero:
    defect(x, y, z) = (A(yz) - A(z) A(y)) chi(x).
    """
    G = catalog("heisenberg", 7)
    ext = extension_from(G, center(G))
    H, m = ext.H, ext.moduli
    h = H.order
    assert h == 49
    step = _CHECK_BLOCK_TRIPLES // ((h - 1) * (h - 1))
    last = 1 + (h - 2) // step * step    # first x of the last block
    assert 1 < last < h - 1
    twisted = [((1,),)] + [((2,),)] * (h - 1)
    chi = [(0,)] * h
    chi[last + 1] = (3,)
    f = coboundary_of(OneCochain(H, m, chi), twisted)
    got = two_cocycle_defect(f, twisted)
    assert got == brute_cocycle_defect(f, twisted) == (last + 1, 1, 1)
    # a perturbed factor set still fails in the first block
    vals = [list(row) for row in ext.mu.values]
    vals[last + 1][h - 1] = ((vals[last + 1][h - 1][0] + 1) % 7,)
    f = TwoCochain(H, m, vals)
    assert two_cocycle_defect(f, None) == brute_cocycle_defect(f, None)


def test_mu_of_extension_is_cocycle():
    z4 = catalog("cyclic", 4)
    cases = [(z4, Subgroup(z4, [0, 2]))]
    for G in (catalog("dihedral", 8), catalog("quaternion", 8)):
        cases.append((G, center(G)))
    for G, Z in cases:
        ext = extension_from(G, Z)
        assert is_two_cocycle(ext.mu, ext.action)


def test_normalization_is_enforced():
    with pytest.raises(InputError):
        OneCochain(Z2, (3,), [(1,), (0,)])
    with pytest.raises(InputError):
        TwoCochain(Z2, (3,), [[(0,), (1,)], [(0,), (0,)]])


def test_two_cochain_shapes_are_checked():
    """A ragged list and an array of the wrong shape are refused with the
    same messages; only a list is scanned row by row."""
    zero = [(0,)] * 3
    for ragged in ([zero, zero, zero[:2]], [zero, zero], [zero, zero, zero + [(0,)]]):
        with pytest.raises(InputError, match=r"^expected 3x3 values$"):
            TwoCochain(Z3, (3,), ragged)
    for shape in ((3, 2, 1), (2, 3, 1), (3,), ()):
        with pytest.raises(InputError, match=r"^expected 3x3 values$"):
            TwoCochain(Z3, (3,), np.zeros(shape, dtype=np.int64))
    with pytest.raises(InputError, match=r"^expected 3x3 values of 1 coordinates$"):
        TwoCochain(Z3, (3,), np.zeros((3, 3, 2), dtype=np.int64))
    assert TwoCochain(Z3, (3,), np.zeros((3, 3, 1), dtype=np.int64)).is_zero()


def test_cochain_arithmetic_and_parents():
    f = TwoCochain.from_function(Z3, (3,), lambda x, y: ((x * y) % 3,))
    g = TwoCochain.zero(Z3, (3,))
    assert (f + g) == f
    assert (f - f).is_zero()
    other = TwoCochain.zero(Z4, (3,))
    with pytest.raises(ParentMismatch):
        f + other


def test_cochain_json_round_trip():
    f = TwoCochain.from_function(V4, (2, 4), lambda x, y: (x & y & 1, (x * y) % 4))
    data = json.loads(json.dumps(f.to_json()))
    assert TwoCochain.from_json(V4, data) == f
    chi = OneCochain(Z4, (6,), [(0,), (2,), (4,), (3,)])
    assert OneCochain.from_json(Z4, json.loads(json.dumps(chi.to_json()))) == chi
    with pytest.raises(InputError):
        TwoCochain.from_json(V4, {"moduli": [2, 4], "values": {"9,0": [0, 0]}})
    # a boolean is no JSON integer: moduli [true] would be written back as
    # true, and a value [true] read as 1
    for cls, key in ((OneCochain, "1"), (TwoCochain, "1,1")):
        with pytest.raises(InputError, match="'moduli' must be a list of positive"):
            cls.from_json(Z2, {"moduli": [True], "values": {}})
        with pytest.raises(InputError, match=f"cochain value at '{key}' must be"):
            cls.from_json(Z2, {"moduli": [2], "values": {key: [True]}})


def test_class_of_and_solve_round_trip():
    cg = CohomologyGroup(V4, (2,))
    count_trivial = 0
    # walk every cocycle vector through class_of / coboundary_solve
    import itertools
    for combo in itertools.product(range(2), repeat=9):
        f = cg.cochain_of_vector(list(combo))
        if two_cocycle_defect(f, cg.action) is not None:
            with pytest.raises(NotACocycle):
                cg.coboundary_solve(f)
            continue
        cls = cg.class_of(f)
        chi = cg.coboundary_solve(f)
        if cls.is_trivial:
            count_trivial += 1
            assert chi is not None
            assert coboundary_of(chi, cg.action) == f
        else:
            assert chi is None
    assert count_trivial == cg.b2_order


def test_class_equality_requires_same_parent():
    cg1 = CohomologyGroup(V4, (2,))
    cg2 = CohomologyGroup(V4, (2,))
    with pytest.raises(ParentMismatch):
        class_eq(cg1.zero_class(), cg2.zero_class())
    assert class_eq(cg1.zero_class(), cg1.zero_class())


def test_solve_rejects_non_cocycles():
    cg = CohomologyGroup(Z4, (4,))
    f = TwoCochain.from_function(Z4, (4,),
                                 lambda x, y: (1 if x == y == 1 else 0,))
    assert two_cocycle_defect(f, cg.action) is not None
    with pytest.raises(NotACocycle):
        cg.coboundary_solve(f)
    with pytest.raises(NotACocycle,
                       match=r"^cocycle identity fails at \(1, 1, 2\)$"):
        cg.class_of(f)


def test_action_validation():
    with pytest.raises(InputError):
        validate_action(Z2, (2,), [((1,),)])  # wrong length
    bad = [((1,),), ((0,),)]  # second matrix not invertible mod 2
    with pytest.raises(InputError):
        validate_action(Z2, (2,), bad)
    ta = trivial_action(Z3, (2, 4))
    validate_action(Z3, (2, 4), ta)


def test_action_entries_matter_mod_the_target_modulus_only():
    """An action shifted by multiples of d_i far past d_i * d_j answers as
    its reduction does: Z6 acting on Z/7 by x -> 3^x, and Z2 inverting Z/8
    (|H^2| = 2, so its class keys are not all zero).  An entry beyond
    64 bits is refused as input."""
    rng = random.Random(14)
    for H, d, small in [(catalog("cyclic", 6), 7, [3 ** x % 7 for x in range(6)]),
                        (Z2, 8, [1, 7])]:
        big = [[[v + d * 2 ** 58]] for v in small]
        small = [[[v]] for v in small]
        cs, cb = CohomologyGroup(H, (d,), small), CohomologyGroup(H, (d,), big)
        assert (cb.z2_order, cb.b2_order, cb.h2_order) == \
            (cs.z2_order, cs.b2_order, cs.h2_order)
        keys = set()
        for v in range(d):
            chi = OneCochain(H, (d,), [(0,)] + [(rng.randrange(d),)
                                                for _ in range(H.order - 1)])
            delta = coboundary_of(chi, small)
            assert coboundary_of(chi, big) == delta
            bump = np.zeros((H.order, H.order, 1), dtype=np.int64)
            bump[1, 1] = v
            f = TwoCochain(H, (d,), delta.values + bump)
            if is_two_cocycle(f, small):
                assert is_two_cocycle(f, big)
                assert cb.class_of(f).key == cs.class_of(f).key
                keys.add(cs.class_of(f).key)
        assert len(keys) == cs.h2_order
    with pytest.raises(InputError, match="out of range"):
        validate_action(Z2, (8,), [[[1]], [[2 ** 64]]])


def test_action_entry_beyond_64_bits_is_an_input_error():
    """The cochain functions that take an unvalidated matrix family refuse
    an entry beyond int64 as input, not with a bare OverflowError."""
    huge = [[[1]], [[2 ** 64]]]
    f = TwoCochain(Z2, (3,), [[(0,), (0,)], [(0,), (1,)]])
    for call in (lambda: coboundary_of(OneCochain(Z2, (3,), [(0,), (1,)]), huge),
                 lambda: two_cocycle_defect(f, huge),
                 lambda: is_two_cocycle(f, huge)):
        with pytest.raises(InputError, match="out of range"):
            call()


def test_coboundary_of_refuses_a_foreign_phi():
    chi = OneCochain(Z4, (5,), [(0,), (1,), (2,), (3,)])
    family = [((1,),), ((2,),), ((4,),), ((3,),)]
    for action in (None, family):
        for phi in (GroupAutomorphism.identity(V4), GroupAutomorphism.identity(Z3)):
            with pytest.raises(ParentMismatch):
                coboundary_of(chi, action, phi)


def test_cohomology_build_constructs_no_cochains(monkeypatch):
    """B^2 is built from the unit cochains' coboundaries as arrays."""
    cases = [(ext.H, ext.coeffs, ext.cocycle_action) for ext in
             (extension_from(G, Subgroup(G, m)) for G, m in _extension_cases())]
    built = []
    for cls in (OneCochain, TwoCochain):
        def counting(self, *args, real=cls.__init__, **kwargs):
            built.append(self)
            real(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    for H, coeffs, action in cases + [(V4, (2, 4), None)]:
        CohomologyGroup(H, coeffs, action)
    assert built == []


def test_unknown_bound_is_enforced():
    big = catalog("cyclic", 256)
    with pytest.raises(BoundExceeded):
        CohomologyGroup(big, (2,))


def test_h2_conjugation_classes_are_well_defined():
    d8 = catalog("dihedral", 8)
    ext = extension_from(d8, center(d8))
    cg = ext.cohomology
    cls = cg.class_of(ext.mu)
    shifted = ext.mu + coboundary_of(
        OneCochain(ext.H, ext.moduli, [(0,), (1,), (0,), (1,)]),
        ext.cocycle_action)
    assert class_eq(cg.class_of(shifted), cls)


def _only_plain_ints(obj) -> bool:
    """Every number in a JSON-shaped value is a plain int (or bool)."""
    if isinstance(obj, dict):
        return all(_only_plain_ints(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_only_plain_ints(v) for v in obj)
    return obj is None or type(obj) in (int, bool, str)


def test_array_forms_are_read_only_and_export_plain_ints():
    from extlift import group_from_permutations
    from oracles import element_order
    a4 = group_from_permutations(4, [(1, 2, 0, 3), (0, 2, 3, 1)], name="alt4")
    klein = Subgroup(a4, [g for g in range(12) if element_order(a4, g) <= 2])
    ext = extension_from(a4, klein)            # Z3 permuting V4: k = 2
    assert not ext.central
    cg = ext.cohomology
    assert cg.action is ext.action
    chi = OneCochain(ext.H, ext.moduli, [(0, 0), (1, 0), (1, 1)])
    f = ext.mu + coboundary_of(chi, ext.cocycle_action)
    for arr in (ext.action, ext.mu.values, chi.values, f.values):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1
    cls = cg.class_of(f)
    h = ext.H.order
    assert all(type(v) is int for v in cls.key)
    assert all(type(v) is int for x in range(h) for y in range(h)
               for v in f(x, y))
    assert all(type(v) is int for x in range(h) for v in chi(x))
    data = {"f": f.to_json(), "chi": chi.to_json(), "class": class_json(cls)}
    assert _only_plain_ints(data)
    json.dumps(data)


def test_equal_cochains_hash_equal():
    f = TwoCochain.from_function(V4, (2, 4), lambda x, y: (x & y & 1, x * y))
    g = TwoCochain.from_function(V4, (2, 4),
                                 lambda x, y: ((x & y & 1) + 2, x * y - 8))
    assert f == g and hash(f) == hash(g)
    zero = TwoCochain.zero(V4, (2, 4))
    table = {f: "f", zero: "zero"}
    assert table[g] == "f" and table[g - f] == "zero" and len(table) == 2
    chi = OneCochain(Z4, (6,), [(0,), (2,), (4,), (3,)])
    same = OneCochain(Z4, (6,), [(0,), (8,), (-2,), (15,)])
    assert chi == same and {chi: 1}[same] == 1
    assert chi != OneCochain(Z4, (6,), [(0,), (2,), (4,), (4,)])
    # same values over another group or other moduli are different cochains
    assert chi != OneCochain(catalog("cyclic", 4), (6,), [(0,), (2,), (4,), (3,)])
    assert TwoCochain.zero(Z2, (2,)) != TwoCochain.zero(Z2, (4,))


def test_values_outside_the_moduli_reduce_as_python_ints_do():
    rng = random.Random(3)
    moduli = (2, 4, 12)
    raw = [(0, 0, 0)] + [tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in moduli)
                         for _ in range(3)]
    chi = OneCochain(Z4, moduli, raw)
    for x, vec in enumerate(raw):
        assert chi(x) == tuple(v % m for v, m in zip(vec, moduli))
    f = TwoCochain.from_function(Z3, (5,), lambda x, y: (-7 * x * y,))
    assert [f(x, y) for x in range(3) for y in range(3)] == \
        [((-7 * x * y) % 5,) for x in range(3) for y in range(3)]
    # a multiple of d_i at the identity reduces to zero, so it is normalized
    assert OneCochain(Z2, (3,), [(-3,), (1,)])(0) == (0,)
    # entries beyond 64 bits arrive through JSON and reduce there
    big = 10 ** 30 + 7
    g = TwoCochain.from_json(Z2, {"moduli": [3], "values": {"1,1": [big]}})
    assert g(1, 1) == (big % 3,)
    with pytest.raises(InputError):
        OneCochain(Z2, (3,), [(0,), (1, 1)])
