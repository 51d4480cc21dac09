"""Group layer: table validation, catalog, subgroups, automorphisms.

The automorphism backtracker is the one piece the rest of the suite
leans on as an oracle, so it gets its own full-permutation cross-check
here on every group of order <= 8 we care about.
"""

import importlib.util
import math
import random
import re
import time
from pathlib import Path

import numpy as np
import pytest

from extlift import (BadParameters, BoundExceeded, FiniteGroup,
                     GroupAutomorphism, GroupHomomorphism, InputError,
                     NotAbelian, NotAssociative, NotLatinSquare, NotNormal,
                     PrimeDoesNotDivide, Subgroup, UnknownName,
                     abelian_normal_subgroups, all_subgroups,
                     automorphism_group, catalog, center, derived_subgroup,
                     direct_product, generating_set, group_from_cayley,
                     group_from_permutations, hom_by_generator_images,
                     is_commuting_automorphism, is_nilpotent,
                     nilpotency_class, parse_catalog_expression,
                     quotient_group, semidirect_product, shipped_corpus,
                     sylow_subgroup)
from extlift import config
from extlift import groups as groups_mod
from extlift.errors import ClosureBoundExceeded, NoIdentity

from oracles import (brute_automorphisms, element_order, greedy_generating_set,
                     reference_automorphisms, reference_center,
                     reference_noncommuting_pair)


def test_table_validation_errors():
    with pytest.raises(NotLatinSquare):
        group_from_cayley([[0, 1], [1, 1]])
    with pytest.raises(NotAssociative):
        # latin square (a quasigroup) that is not a group
        group_from_cayley([
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ])
    with pytest.raises(NoIdentity):
        # 0 is only a left identity, and nothing else qualifies
        group_from_cayley([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    with pytest.raises(InputError):
        group_from_cayley([[0, 1]])
    # identity away from slot 0 is legal input and gets relabeled
    G = group_from_cayley([[1, 0], [0, 1]])
    assert G.mul(0, 1) == 1
    with pytest.raises(NoIdentity):
        FiniteGroup([[1, 0], [0, 1]])


def test_associativity_is_checked_exactly_above_order_512():
    n = 520
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    assert group_from_cayley(table).order == n
    # turn an intercalate of Z/520 over: still a loop, no longer a group
    h = n // 2
    for r, c in ((1, 2), (1, 2 + h), (1 + h, 2), (1 + h, 2 + h)):
        table[r][c] = (table[r][c] + h) % n
    with pytest.raises(NotAssociative) as info:
        group_from_cayley(table)
    x, g, y = (int(v) for v in str(info.value).split("(")[1].rstrip(")").split(","))
    assert table[table[x][g]][y] != table[x][table[g][y]]


def test_identity_is_element_zero():
    G = catalog("dihedral", 8)
    assert all(G.mul(0, a) == a and G.mul(a, 0) == a for a in G.elements())


def test_permutation_closure():
    G = group_from_permutations(3, [(1, 2, 0)])
    assert G.order == 3
    s3 = group_from_permutations(3, [(1, 2, 0), (1, 0, 2)])
    assert s3.order == 6 and not s3.is_abelian
    with pytest.raises(InputError):
        group_from_permutations(3, [(0, 0, 1)])


def test_permutation_closure_bound():
    # disjoint cycles of coprime lengths force a closure of order lcm = 45045
    lens = (5, 7, 9, 11, 13)
    perm = []
    base = 0
    for l in lens:
        perm.extend([base + (i + 1) % l for i in range(l)])
        base += l
    with pytest.raises(ClosureBoundExceeded):
        group_from_permutations(sum(lens), [perm])


def test_catalog_names_and_errors():
    with pytest.raises(UnknownName):
        catalog("sporadic", 1)
    with pytest.raises(BadParameters):
        catalog("dihedral", 7)
    with pytest.raises(BadParameters):
        catalog("elementary_abelian", 4, 2)
    with pytest.raises(BoundExceeded):
        catalog("cyclic", 100000)


def test_cayley_tables_refuse_non_integers():
    """Floats and booleans are refused, not truncated, as in group files;
    numpy integers are integers."""
    for bad in ([[0, 1], [1, 0.5]], [[0, 1], [1, 0.0]], [[0, 1], [1, True]],
                [[0, 1], ["1", 0]]):
        with pytest.raises(InputError,
                           match=r"^Cayley table row 1 must be a list of integers$"):
            group_from_cayley(bad)
        with pytest.raises(InputError, match="must be a list of integers"):
            FiniteGroup(bad)
    assert group_from_cayley(np.array([[0, 1], [1, 0]])).table == ((0, 1), (1, 0))
    assert FiniteGroup([[0, 1], [1, np.int64(0)]]).table == ((0, 1), (1, 0))


def test_catalog_parameters_refuse_non_integers():
    for params in ((2.7,), (2.0,), (True,), ("2.5",)):
        with pytest.raises(BadParameters, match=r"^bad parameters for cyclic: "):
            catalog("cyclic", *params)
    with pytest.raises(BadParameters):
        catalog("elementary_abelian", 2, 2.0)
    assert catalog("cyclic", "12").order == 12
    assert catalog("elementary_abelian", np.int64(3), 2).order == 9


def test_permutation_generators_refuse_non_integers():
    with pytest.raises(InputError,
                       match=r"^generator 0 must be a list of integers$"):
        group_from_permutations(3, [[1.0, 2.9, 0]])
    with pytest.raises(InputError, match="generator 1 must be a list of integers"):
        group_from_permutations(3, [[1, 2, 0], [False, 2, 1]])
    for degree in (3.0, True, 0):
        with pytest.raises(InputError, match=r"^degree must be a positive integer$"):
            group_from_permutations(degree, [[1, 2, 0]])
    assert group_from_permutations(np.int64(3), [np.array([1, 2, 0])]).order == 3


def test_subgroups_and_maps_refuse_non_integers():
    """Members and image entries are refused, not truncated; numpy integers
    are integers."""
    z4 = catalog("cyclic", 4)
    with pytest.raises(InputError, match=r"^subgroup members must be integers$"):
        Subgroup(z4, [0, 2.7])
    with pytest.raises(InputError, match=r"^subgroup members must be integers$"):
        Subgroup(z4, [0, True])
    with pytest.raises(InputError,
                       match=r"^automorphism image must be a list of integers$"):
        GroupAutomorphism(z4, [0, 3.2, 2, 1])
    with pytest.raises(InputError,
                       match=r"^automorphism image must be a list of integers$"):
        GroupAutomorphism(z4, [False, 3, 2, 1])
    with pytest.raises(InputError,
                       match=r"^homomorphism image must be a list of integers$"):
        GroupHomomorphism(z4, z4, [0, 2.0, 0, 2])
    assert Subgroup(z4, np.array([0, 2])).members == (0, 2)
    assert GroupAutomorphism(z4, np.array([0, 3, 2, 1])).image == (0, 3, 2, 1)


def test_catalog_expression_parser():
    G = parse_catalog_expression("cyclic(2)^2*dihedral(8)")
    assert G.order == 32
    assert parse_catalog_expression("(cyclic(3))^2").order == 9
    with pytest.raises(InputError):
        parse_catalog_expression("cyclic(2")
    with pytest.raises(InputError):
        parse_catalog_expression("cyclic(2)^0")
    with pytest.raises(UnknownName):
        parse_catalog_expression("foo(2)")


def test_catalog_basic_shapes():
    assert catalog("cyclic", 9).is_abelian
    assert catalog("cyclic", 9).order == 9
    d = catalog("dihedral", 12)
    assert d.order == 12 and not d.is_abelian
    q = catalog("quaternion", 8)
    # exactly one involution is the quaternion signature
    assert sum(1 for a in q.elements() if element_order(q, a) == 2) == 1
    q16 = catalog("generalized_quaternion", 16)
    assert sum(1 for a in q16.elements() if element_order(q16, a) == 2) == 1
    h = catalog("heisenberg", 3)
    assert h.order == 27 and not h.is_abelian
    assert all(element_order(h, a) in (1, 3) for a in h.elements())
    e = catalog("elementary_abelian", 3, 2)
    assert e.order == 9 and all(element_order(e, a) in (1, 3) for a in e.elements())


def test_extraspecial_shapes():
    for kind in ("extraspecial_plus", "extraspecial_minus"):
        G = catalog(kind, 1)
        assert G.order == 8
        Z = center(G)
        assert Z.order == 2 and derived_subgroup(G).members == Z.members
    # at width 1 these are D8 and Q8; tell them apart by involution count
    plus = catalog("extraspecial_plus", 1)
    minus = catalog("extraspecial_minus", 1)
    n_inv = lambda G: sum(1 for a in G.elements() if element_order(G, a) == 2)
    assert n_inv(plus) == 5 and n_inv(minus) == 1


def test_direct_and_semidirect_products():
    A, B = catalog("cyclic", 3), catalog("dihedral", 6)
    P = direct_product(A, B)
    assert P.order == 18
    # coordinates: (a, b) -> a*|B| + b
    assert P.mul(1 * 6 + 2, 2 * 6 + 3) == ((1 + 2) % 3) * 6 + B.mul(2, 3)
    N, H = catalog("cyclic", 5), catalog("cyclic", 4)
    act = [tuple((x * pow(2, h, 5)) % 5 for x in range(5)) for h in range(4)]
    S = semidirect_product(N, H, act)
    assert S.order == 20 and not S.is_abelian
    with pytest.raises(InputError):
        semidirect_product(N, H, act[:2])


@pytest.mark.parametrize("name,args", [
    ("cyclic", (6,)), ("cyclic", (8,)), ("dihedral", (6,)), ("dihedral", (8,)),
    ("generalized_quaternion", (8,)), ("elementary_abelian", (2, 2)),
    ("elementary_abelian", (2, 3)),
])
def test_automorphisms_against_full_permutation_scan(name, args):
    G = catalog(name, *args)
    assert {a.image for a in automorphism_group(G)} == set(brute_automorphisms(G))


def test_automorphism_counts_small():
    """Orders with independent closed forms: phi(n) for Z_n, n*phi(n) for D_2n,
    |GL(r, p)| for elementary abelian p^r, p^2*|GL(2,p)| for the p^3 group of
    exponent p."""
    euler = lambda n: sum(1 for i in range(1, n + 1) if math.gcd(i, n) == 1)
    for n in (2, 3, 4, 6, 8, 9, 12, 16, 32):
        assert len(automorphism_group(catalog("cyclic", n))) == euler(n)
    for m in (6, 8, 12, 16, 32):
        n = m // 2
        assert len(automorphism_group(catalog("dihedral", m))) == n * euler(n)
    gl = lambda p, r: prod_int([p ** r - p ** i for i in range(r)])
    assert len(automorphism_group(catalog("elementary_abelian", 2, 2))) == gl(2, 2)
    assert len(automorphism_group(catalog("elementary_abelian", 2, 3))) == gl(2, 3)
    assert len(automorphism_group(catalog("elementary_abelian", 3, 2))) == gl(3, 2)
    assert len(automorphism_group(catalog("generalized_quaternion", 8))) == 24
    assert len(automorphism_group(catalog("heisenberg", 3))) == 9 * gl(3, 2)


def prod_int(xs):
    out = 1
    for x in xs:
        out *= x
    return out


def test_automorphism_group_is_closed_and_sorted():
    G = catalog("dihedral", 8)
    auts = automorphism_group(G)
    images = [a.image for a in auts]
    assert images == sorted(images)
    have = set(images)
    for a in auts:
        for b in auts:
            assert tuple(a.image[v] for v in b.image) in have


def test_automorphism_validation():
    G = catalog("cyclic", 4)
    with pytest.raises(InputError):
        GroupAutomorphism(G, (0, 1, 2, 2))
    with pytest.raises(InputError):
        GroupAutomorphism(G, (0, 2, 1, 3))  # not a homomorphism
    inv = GroupAutomorphism(G, G.inverse)
    assert inv.compose(inv).image == tuple(range(4))


def test_hom_by_generator_images():
    G = catalog("dihedral", 6)
    gens = generating_set(G)
    assert len(span_of(G, gens)) == G.order
    full = hom_by_generator_images(G, G, [(g, g) for g in gens])
    assert full == {a: a for a in range(G.order)}
    # sending a generator to an element of different order cannot extend
    r = next(g for g in range(1, G.order) if element_order(G, g) == 3)
    s = next(g for g in range(1, G.order) if element_order(G, g) == 2)
    assert hom_by_generator_images(G, G, [(r, s)]) is None


def span_of(G, gens):
    seen = {0}
    frontier = [0]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = G.mul(cur, g)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def test_homomorphism_type():
    G = catalog("cyclic", 4)
    H = catalog("cyclic", 2)
    f = GroupHomomorphism(G, H, [0, 1, 0, 1])
    assert f.kernel().members == (0, 2)
    with pytest.raises(InputError):
        GroupHomomorphism(G, H, [0, 1, 1, 0])


def test_subgroup_validation_and_as_group():
    G = catalog("dihedral", 8)
    with pytest.raises(InputError):
        Subgroup(G, [1, 2])
    with pytest.raises(InputError):
        Subgroup(G, [0, 1])  # rotation of order 4, not closed
    S = Subgroup(G, range(G.order))
    assert S.as_group() is G
    rot = Subgroup(G, [0, 1, 2, 3])
    R = rot.as_group()
    assert R.order == 4 and R.is_abelian
    for i, a in enumerate(rot.members):
        for j, b in enumerate(rot.members):
            assert rot.members[R.mul(i, j)] == G.mul(a, b)


def test_center_and_derived_by_definition():
    for G in (catalog("dihedral", 8), catalog("quaternion", 8),
              catalog("heisenberg", 3), catalog("dihedral", 6)):
        Z = center(G)
        by_def = {a for a in G.elements()
                  if all(G.mul(a, b) == G.mul(b, a) for b in G.elements())}
        assert set(Z.members) == by_def
        D = derived_subgroup(G)
        comms = {G.commutator(a, b) for a in G.elements() for b in G.elements()}
        assert set(D.members) == span_of_set(G, comms)


def _aut_enum_light_menu() -> tuple:
    """AUT_ENUM_LIGHT of the benchmark's workloads, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.AUT_ENUM_LIGHT


def test_commuting_tests_match_the_element_reference():
    """center, FiniteGroup.is_abelian, Subgroup.is_abelian and the pair
    require_abelian names agree with the element-by-element loops on every
    corpus group and every group of the automorphism-enumeration
    benchmark's light menu, and on every subgroup of those of order <= 16."""
    groups = shipped_corpus() + [parse_catalog_expression(expr)
                                 for expr in _aut_enum_light_menu()]
    nonabelian = 0
    for G in groups:
        assert center(G).members == reference_center(G), G.name
        bad = reference_noncommuting_pair(G, G.elements())
        assert G.is_abelian == (bad is None), G.name
        nonabelian += bad is not None
        subgroups = all_subgroups(G) if G.order <= 16 else [Subgroup(G, G.elements())]
        for S in subgroups:
            bad = reference_noncommuting_pair(G, S.members)
            assert S.is_abelian == (bad is None), (G.name, S.members)
            if bad is None:
                S.require_abelian()
                continue
            with pytest.raises(NotAbelian) as info:
                S.require_abelian()
            assert str(info.value) == \
                f"subgroup members {bad[0]} and {bad[1]} do not commute"
    assert nonabelian >= 20


def span_of_set(G, elems):
    return span_of(G, list(elems))


def test_quotient_group():
    G = group_from_permutations(4, [(1, 2, 3, 0), (1, 0, 2, 3)], name="sym4")
    V = next(S for S in all_subgroups(G)
             if S.order == 4 and S.is_normal() and
             all(element_order(G, m) <= 2 for m in S.members))
    Q, pi = quotient_group(G, V)
    assert Q.order == 6 and not Q.is_abelian
    for a in G.elements():
        for b in G.elements():
            assert pi(G.mul(a, b)) == Q.mul(pi(a), pi(b))
    with pytest.raises(NotNormal):
        quotient_group(G, Subgroup(G, [0, next(
            g for g in range(1, 24) if element_order(G, g) == 2
            and g not in V.member_set)]))


def test_sylow_subgroups():
    G = direct_product(catalog("cyclic", 3), catalog("dihedral", 6))
    P2 = sylow_subgroup(G, 2)
    P3 = sylow_subgroup(G, 3)
    assert P2.order == 2 and P3.order == 9
    assert all(element_order(G, m) in (1, 3, 9) for m in P3.members)
    assert sylow_subgroup(catalog("cyclic", 9), 3).order == 9
    with pytest.raises(PrimeDoesNotDivide):
        sylow_subgroup(G, 5)
    with pytest.raises(InputError):
        sylow_subgroup(G, 4)


def test_all_subgroups_counts():
    # classical counts, derivable by hand
    assert len(all_subgroups(catalog("dihedral", 6))) == 6
    assert len(all_subgroups(catalog("dihedral", 8))) == 10
    assert len(all_subgroups(catalog("quaternion", 8))) == 6
    assert len(all_subgroups(catalog("cyclic", 12))) == 6
    a4 = group_from_permutations(4, [(1, 2, 0, 3), (0, 2, 3, 1)])
    assert len(all_subgroups(a4)) == 10


def test_abelian_normal_subgroups():
    G = catalog("dihedral", 8)
    found = abelian_normal_subgroups(G)
    members = {S.members for S in found}
    assert (0,) in members            # trivial subgroup counts
    assert (0, 2) in members          # the center
    assert (0, 1, 2, 3) in members    # rotations
    assert len([S for S in found if S.order == 4]) == 3
    for S in found:
        assert S.is_normal() and S.is_abelian
    s3 = catalog("dihedral", 6)
    assert {S.order for S in abelian_normal_subgroups(s3)} == {1, 3}


def test_nilpotency():
    assert nilpotency_class(catalog("cyclic", 8)) == 1
    assert nilpotency_class(catalog("dihedral", 8)) == 2
    assert nilpotency_class(catalog("dihedral", 16)) == 3
    assert nilpotency_class(catalog("heisenberg", 3)) == 2
    assert nilpotency_class(catalog("dihedral", 6)) is None
    assert is_nilpotent(direct_product(catalog("cyclic", 3), catalog("dihedral", 8)))
    assert not is_nilpotent(catalog("dihedral", 12))


def test_commuting_automorphisms_by_definition():
    for G in (catalog("dihedral", 8), catalog("cyclic", 12)):
        for a in automorphism_group(G):
            by_def = all(G.mul(x, a(x)) == G.mul(a(x), x) for x in G.elements())
            assert is_commuting_automorphism(G, a) == by_def


def test_element_orders_lagrange():
    for G in shipped_corpus():
        if G.order > 20:
            continue
        for a in G.elements():
            assert G.order % element_order(G, a) == 0


def _benchmark_groups():
    """The groups of the benchmark's aut_enum light menu, and the groups of
    its quotient_large extensions with their quotients."""
    import importlib.util
    import pathlib
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    groups = [parse_catalog_expression(e) for e in module.AUT_ENUM_LIGHT]
    for _, G, N in module.quotient_extensions():
        groups += [G, quotient_group(G, N)[0]]
    return groups


def test_generating_set_matches_greedy_closure_loop():
    groups = list(shipped_corpus()) + _benchmark_groups()
    assert len(groups) > 60
    for G in groups:
        assert generating_set(G) == greedy_generating_set(G), G.name


def test_generators_are_found_once_per_group(monkeypatch):
    from extlift import groups as groups_mod
    from extlift.reports import h2_report
    H, coeffs = catalog("dihedral", 8), catalog("cyclic", 4)
    gens = generating_set(H)

    def found_again(m):
        raise AssertionError("generators computed again")

    monkeypatch.setattr(groups_mod, "_table_generators", found_again)
    assert generating_set(H) == gens == list(H.generators)
    assert len(automorphism_group(H)) == 8
    assert h2_report(H, coeffs)["z2_order"] > 1


def test_automorphism_search_closes_each_generator_list_once(monkeypatch):
    real = groups_mod.hom_by_generator_images
    orders = {"elementary_abelian(2,3)": 168, "quaternion(8)*cyclic(2)": 192,
              "dihedral(16)": 32, "heisenberg(3)": 432, "cyclic(1)": 1}
    for expr, order in orders.items():
        G = parse_catalog_expression(expr)
        closed = []

        def counting(G_, T, gen_pairs):
            closed.append(tuple(gen_pairs))
            return real(G_, T, gen_pairs)

        monkeypatch.setattr(groups_mod, "hom_by_generator_images", counting)
        auts = automorphism_group(G)
        monkeypatch.setattr(groups_mod, "hom_by_generator_images", real)
        assert closed == [], expr       # the level search closes none at all
        images = [a.image for a in auts]
        assert len(images) == order and images == sorted(images), expr
        for a in auts:
            GroupAutomorphism(G, a.image)       # checks the homomorphism law


# the groups of the benchmark's aut_enum menus (heavy first, then light)
AUT_ENUM_MENU = (
    "heisenberg(5)", "elementary_abelian(2,4)", "cyclic(3)^3",
    "quaternion(8)*cyclic(2)^2",
    "cyclic(2)^3", "cyclic(4)^2", "elementary_abelian(3,2)", "cyclic(5)^2",
    "cyclic(6)^2", "cyclic(2)*cyclic(4)", "cyclic(2)*cyclic(8)",
    "cyclic(4)*cyclic(8)", "cyclic(3)*cyclic(9)", "cyclic(2)^2*cyclic(3)",
    "cyclic(2)^2*cyclic(4)", "cyclic(2)^3*cyclic(3)", "dihedral(8)",
    "dihedral(12)", "dihedral(16)", "dihedral(18)", "dihedral(20)",
    "dihedral(24)", "dihedral(32)", "quaternion(8)", "quaternion(16)",
    "quaternion(32)", "extraspecial_plus(1)", "extraspecial_minus(1)",
    "heisenberg(3)", "dihedral(8)*cyclic(2)", "dihedral(8)*cyclic(3)",
    "dihedral(8)*cyclic(4)", "quaternion(8)*cyclic(2)",
    "quaternion(8)*cyclic(3)", "dihedral(6)*cyclic(2)^2",
    "dihedral(6)*dihedral(6)",
)


def _fresh_groups(skip=()):
    """Newly built groups (cold automorphism caches) by label: the shipped
    corpus and the aut_enum menus."""
    out = [(f"corpus {G.name}", G) for G in shipped_corpus()]
    out += [(e, parse_catalog_expression(e)) for e in AUT_ENUM_MENU if e not in skip]
    return out


def test_automorphism_search_matches_the_recursive_reference(monkeypatch):
    """Same image lists in the same order as the recursive search, also
    when every block of the level search extends a single partial map."""
    reference = {}
    for label, G in _fresh_groups():
        reference[label] = reference_automorphisms(G)
        assert [a.image for a in automorphism_group(G)] == reference[label], label
    assert len(reference) == 28 + len(AUT_ENUM_MENU)
    monkeypatch.setattr(groups_mod, "_SEARCH_CHUNK", 1)
    for label, G in _fresh_groups(skip=("heisenberg(5)",)):   # 303 004 maps
        assert [a.image for a in automorphism_group(G)] == reference[label], label


@pytest.mark.parametrize("chunk", [None, 1], ids=["default-chunk", "chunk-1"])
def test_automorphism_array_is_a_read_only_sequence(monkeypatch, chunk):
    """automorphism_group(G) is one AutomorphismArray per group over the
    rows of oracles.reference_automorphisms, in the same order: [i], [-1],
    slices, len and iteration give those images (built on demand, also
    one row per chunk), a row gives the same object each time, views list
    the rows of a mask and share the objects, and no rows can be written."""
    if chunk is not None:
        monkeypatch.setattr(groups_mod, "_SEARCH_CHUNK", chunk)
    for expr in ("dihedral(8)", "quaternion(8)*cyclic(2)", "cyclic(2)^3",
                 "heisenberg(3)", "cyclic(2)"):
        G = parse_catalog_expression(expr)
        want = reference_automorphisms(G)
        m = len(want)
        auts = automorphism_group(G)
        assert auts is automorphism_group(G), expr
        assert len(auts) == m and auts.rows.tolist() == [list(w) for w in want], expr
        assert auts[-1].image == want[-1] and auts[m // 2].image == want[m // 2], expr
        assert auts[-1] is auts[m - 1] and auts[-m] is auts[0], expr
        assert [a.image for a in auts[1:7:2]] == want[1:7:2], expr
        assert [a.image for a in auts[::-1]] == want[::-1], expr
        assert [a.image for a in auts] == want, expr
        assert [a.image for a in auts] == want, expr      # warm
        assert all(auts[i] is a and a.group is G for i, a in enumerate(auts)), expr
        for bad in (m, -m - 1):
            with pytest.raises(IndexError):
                auts[bad]
        mask = np.arange(m) % 3 == 1
        view = auts.view(mask)
        inner = view.view(np.arange(len(view)) % 2 == 0)
        for v, rows in ((view, want[1::3]), (inner, want[1::6])):
            assert len(v) == len(rows) and v.rows.tolist() == [list(r) for r in rows], expr
            assert [a.image for a in v] == rows == [a.image for a in v], expr
            if rows:
                assert v[-1] is auts[want.index(rows[-1])], expr
        assert all(a is auts[1 + 3 * i] for i, a in enumerate(view)), expr
        for rows in (auts.rows, view.rows):
            with pytest.raises(ValueError):
                rows[0, 0] = 1


@pytest.mark.parametrize("fault", ["swapped", "repeated"])
def test_automorphism_rows_out_of_order_are_refused(monkeypatch, fault):
    """Rows the search emits out of aut:IDX order, or twice, are an
    internal fault: AssertionError, and nothing is cached."""
    real = groups_mod._automorphism_rows

    def wrong(G):
        rows = real(G)
        rows[[1, 2]] = rows[[2, 1]] if fault == "swapped" else rows[[1, 1]]
        return rows
    monkeypatch.setattr(groups_mod, "_automorphism_rows", wrong)
    G = catalog("dihedral", 8)
    with pytest.raises(AssertionError, match="emitted rows out of order"):
        automorphism_group(G)
    assert G._automorphisms is None


def test_automorphism_search_bound_counts_partial_maps(monkeypatch):
    """elementary_abelian(2,4) builds 15 + 15*14 + 210*12 + 2520*8 = 22 905
    partial maps, one per level-by-level search node."""
    monkeypatch.setattr(config, "AUT_SEARCH_BOUND", 22904)
    with pytest.raises(BoundExceeded, match="passed 22904 partial maps"):
        automorphism_group(parse_catalog_expression("elementary_abelian(2,4)"))
    monkeypatch.setattr(config, "AUT_SEARCH_BOUND", 22905)
    G = parse_catalog_expression("elementary_abelian(2,4)")
    assert len(automorphism_group(G)) == 20160


def test_automorphism_search_of_elementary_abelian_2_5_is_bounded():
    """About 10^7 automorphisms: the search stops at the bound, in seconds."""
    G = parse_catalog_expression("elementary_abelian(2,5)")
    start = time.perf_counter()
    with pytest.raises(BoundExceeded, match="automorphism search"):
        automorphism_group(G)
    assert time.perf_counter() - start < 30
    assert G._automorphisms is None


def _first_bad_pair(source, target, img):
    """The first (a, b) in row order with img(ab) != img(a) img(b)."""
    for a in range(source.order):
        for b in range(source.order):
            if img[source.mul(a, b)] != target.mul(img[a], img[b]):
                return a, b
    return None


def test_homomorphism_check_names_the_first_bad_pair():
    """The generator-cost check accepts exactly the homomorphisms and names
    the same first pair as the all-pairs scan."""
    rng = random.Random(8)
    cases = [(G, G) for G in shipped_corpus() if G.order <= 16]
    cases += [(catalog("cyclic", 12), catalog("cyclic", 4)),
              (catalog("dihedral", 8), catalog("cyclic", 2)),
              (catalog("quaternion", 8), catalog("elementary_abelian", 2, 2))]
    checked = 0
    for G, T in cases:
        maps = [tuple(rng.randrange(T.order) for _ in range(G.order))
                for _ in range(20)]
        if G is T:
            for a in automorphism_group(G)[:5]:
                swapped = list(a.image)
                i, j = rng.sample(range(1, G.order), 2) if G.order > 2 else (0, 1)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                maps += [a.image, tuple(swapped)]
        for img in maps:
            bad = _first_bad_pair(G, T, img)
            if bad is None:
                GroupHomomorphism(G, T, img)
                continue
            with pytest.raises(InputError) as info:
                GroupHomomorphism(G, T, img)
            assert str(info.value) == (
                f"not a homomorphism: images of {bad[0]}*{bad[1]} disagree")
            checked += 1
    assert checked > 300


def _constructor_message(G, row):
    """The InputError message of GroupAutomorphism on row, or None."""
    try:
        GroupAutomorphism(G, row)
    except InputError as exc:
        return str(exc)
    return None


def test_block_automorphism_proof_matches_the_constructor():
    """groups._require_automorphisms accepts a row exactly when
    GroupAutomorphism does, and refuses a block with the constructor's
    message on its first failing row: on all automorphisms of every corpus
    group with |G| <= 16, and on random permutations, random permutations
    fixing 0, automorphisms with two entries swapped and rows with a
    repeated entry."""
    rng = np.random.default_rng(21)
    refused = 0
    for G in shipped_corpus():
        if G.order > 16:
            continue
        auts = np.array([a.image for a in automorphism_group(G)], dtype=np.intp)
        groups_mod._require_automorphisms(G, auts, "refused")
        n = G.order
        rows = [rng.permutation(n) for _ in range(10)]
        rows += [np.concatenate([[0], 1 + rng.permutation(n - 1)]) for _ in range(10)]
        for a in auts[rng.integers(len(auts), size=10)]:
            row = a.copy()
            i, j = rng.choice(n, size=2, replace=False)
            row[[i, j]] = row[[j, i]]
            rows.append(row)
        for a in auts[rng.integers(len(auts), size=3)]:
            row = a.copy()
            row[-1] = row[-2]
            rows.append(row)
        for row in rows:
            message = _constructor_message(G, row.tolist())
            if message is None:
                groups_mod._require_automorphisms(G, row[None], "refused")
                continue
            refused += 1
            with pytest.raises(AssertionError, match=f"^refused: {re.escape(message)}$"):
                groups_mod._require_automorphisms(G, row[None], "refused")
        block = np.concatenate([auts, np.array(rows, dtype=np.intp)])
        block = block[rng.permutation(len(block))]
        messages = (_constructor_message(G, row) for row in block.tolist())
        first = next(m for m in messages if m is not None)
        with pytest.raises(AssertionError, match=f"^refused: {re.escape(first)}$"):
            groups_mod._require_automorphisms(G, block, "refused")
    assert refused > 300
