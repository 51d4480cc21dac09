"""Prime-by-prime reduction of lifting and extension problems, checked
against the direct global computations they are meant to replace."""

import importlib
from collections import Counter
from types import SimpleNamespace

import pytest

from extlift import (BadParameters, InputError, NotCharacteristic,
                     NotCompatible, ParentMismatch, Subgroup, SylowNotInvariant,
                     automorphism_group, catalog, characteristic_restriction,
                     compatible_pairs, corollary_predicates, direct_product,
                     extension_from, extend_automorphism, index_kill_check,
                     lift_automorphism, local_extension, quotient_sylows,
                     restrict_to_quotient_sylow, shipped_corpus,
                     sylow_extend_check, sylow_lift_check, sylow_preimage)
from extlift.catalog import parse_catalog_expression
from extlift.groups import (GroupAutomorphism, all_subgroups, center,
                            derived_subgroup, prime_factors)
from extlift.reports import corpus_pairs, verify_report

from oracles import (reference_central_pair_mode,
                     reference_characteristic_message,
                     reference_sylow_extend_check, reference_sylow_lift_check)

reduction = importlib.import_module("extlift.reduction")


def _z3_x_s3():
    return direct_product(catalog("cyclic", 3), catalog("dihedral", 6))


def _mixed_ext():
    """Order 18 group over its derived subgroup; quotient of order 6."""
    G = _z3_x_s3()
    return extension_from(G, derived_subgroup(G))


def _small_exts():
    d8 = catalog("dihedral", 8)
    q8 = catalog("quaternion", 8)
    z9 = catalog("cyclic", 9)
    d12 = catalog("dihedral", 12)
    z12 = catalog("cyclic", 12)
    return [
        extension_from(d8, center(d8)),
        extension_from(q8, center(q8)),
        extension_from(z9, Subgroup(z9, [0, 3, 6])),
        extension_from(d12, Subgroup(d12, [0, 1, 2, 3, 4, 5])),
        extension_from(z12, Subgroup(z12, [0, 4, 8])),
        _mixed_ext(),
    ]


def test_sylow_preimage_orders():
    ext = _mixed_ext()
    assert ext.H.order == 6
    P2 = sylow_preimage(ext, 2)
    P3 = sylow_preimage(ext, 3)
    assert len(P2.members) == 6
    assert len(P3.members) == 9
    assert ext.N.member_set <= P2.member_set
    assert ext.N.member_set <= P3.member_set


def test_quotient_sylows_deterministic_first_then_conjugates():
    G = _z3_x_s3()
    ext = extension_from(G, center(G))  # quotient of order 6, three 2-Sylows
    twos = quotient_sylows(ext, 2)
    assert len(twos) == 3
    assert len({S.members for S in twos}) == 3
    for S in twos:
        assert len(S.members) == 2
    threes = quotient_sylows(ext, 3)
    assert len(threes) == 1


def test_local_extension_shares_coordinates_and_embeds():
    for ext in _small_exts():
        for p in (2, 3):
            if ext.H.order % p:
                continue
            local = local_extension(ext, sylow_preimage(ext, p))
            sub = local.ext
            assert sub.n_group.table == ext.n_group.table
            assert sub.moduli == ext.moduli
            emb = local.embed
            assert len(set(emb)) == sub.H.order
            for x in range(sub.H.order):
                for y in range(sub.H.order):
                    assert emb[sub.H.mul(x, y)] == ext.H.mul(emb[x], emb[y])


def test_local_extension_for_whole_group_is_the_extension_itself():
    ext = _small_exts()[0]
    whole = Subgroup(ext.G, range(ext.G.order))
    local = local_extension(ext, whole)
    assert local.ext is ext
    assert local.embed == tuple(range(ext.H.order))


def test_lift_reduction_matches_direct_lift():
    for ext in _small_exts():
        for phi in automorphism_group(ext.H):
            try:
                check = sylow_lift_check(ext, phi)
            except SylowNotInvariant:
                continue
            try:
                direct = lift_automorphism(ext, phi)
            except NotCompatible:
                direct = None
            assert check.verdict == (direct is not None)
            if check.verdict:
                assert check.witness is not None
                assert all(r.local_ok for r in check.reports)
            else:
                assert check.witness is None
                assert any(not r.local_ok for r in check.reports)


def test_extend_reduction_matches_direct_extension():
    for ext in _small_exts():
        for theta in automorphism_group(ext.n_group):
            check = sylow_extend_check(ext, theta)
            try:
                direct = extend_automorphism(ext, theta)
            except NotCompatible:
                direct = None
            assert check.verdict == (direct is not None)


def test_extend_reduction_pinned_verdicts():
    z9 = catalog("cyclic", 9)
    ext = extension_from(z9, Subgroup(z9, [0, 3, 6]))
    inv = GroupAutomorphism(ext.n_group, [0, 2, 1])
    check = sylow_extend_check(ext, inv)
    assert not check.verdict
    assert check.reports[0].compatible
    assert check.reports[0].obstruction is not None
    assert not check.reports[0].obstruction.is_trivial
    ident = ext.id_N
    assert sylow_extend_check(ext, ident).verdict

    heis = catalog("heisenberg", 3)
    hext = extension_from(heis, center(heis))
    hinv = GroupAutomorphism(hext.n_group, [0, 2, 1])
    hcheck = sylow_extend_check(hext, hinv)
    assert not hcheck.verdict
    assert [r.prime for r in hcheck.reports] == [3]


def test_noninvariant_sylows_are_reported_not_guessed():
    G = _z3_x_s3()
    ext = extension_from(G, center(G))  # quotient is nonabelian of order 6
    rotators = [phi for phi in automorphism_group(ext.H)
                if not phi.is_identity
                and phi.compose(phi).compose(phi).is_identity]
    assert rotators
    phi = rotators[0]
    with pytest.raises(SylowNotInvariant):
        sylow_lift_check(ext, phi)
    local = local_extension(ext, sylow_preimage(ext, 2))
    assert restrict_to_quotient_sylow(ext, local, phi) is None


def test_index_kill_arithmetic():
    z9 = catalog("cyclic", 9)
    ext = extension_from(z9, Subgroup(z9, [0, 3, 6]))
    inv = GroupAutomorphism(ext.H, [0, 2, 1])
    out = index_kill_check(ext, inv)
    assert out["class_trivial"] is False
    assert out["indices_coprime"] is False
    assert out["forced_trivial"] is False
    assert [e["p"] for e in out["primes"]] == [3]
    assert out["primes"][0]["index"] == 1
    assert out["primes"][0]["local_lift"] is False


def test_index_kill_consistency_across_quotient_maps():
    d12 = catalog("dihedral", 12)
    for ext in (_mixed_ext(),
                extension_from(d12, Subgroup(d12, [0, 1, 2, 3, 4, 5]))):
        for phi in automorphism_group(ext.H):
            try:
                out = index_kill_check(ext, phi)
            except SylowNotInvariant:
                continue
            for entry in out["primes"]:
                if entry["local_lift"]:
                    assert entry["index_kill"]
            if out["forced_trivial"]:
                assert out["class_trivial"]
                assert out["indices_coprime"]
            if out["class_trivial"]:
                for entry in out["primes"]:
                    assert entry["index_kill"]


def test_characteristic_restriction_of_a_lift():
    z12 = catalog("cyclic", 12)
    ext = extension_from(z12, Subgroup(z12, [0, 6]))
    assert ext.H.order == 6
    gamma = GroupAutomorphism(z12, [(-x) % 12 for x in range(12)])
    P = sylow_preimage(ext, 3)
    restricted = characteristic_restriction(ext, gamma, P)
    assert restricted.group.order == len(P.members) == 6
    for i, m in enumerate(P.members):
        assert restricted(i) == P.position[(-m) % 12]


def test_characteristic_restriction_rejections():
    d8 = catalog("dihedral", 8)
    ext = extension_from(d8, center(d8))
    ident = GroupAutomorphism(d8, list(range(8)))
    half = Subgroup(ext.H, [0, 1])
    # preimage of a non-characteristic quotient subgroup
    bad_P = Subgroup(d8, [g for g in range(8) if ext.pi(g) in half.member_set])
    with pytest.raises(NotCharacteristic):
        characteristic_restriction(ext, ident, bad_P)
    with pytest.raises(InputError):
        characteristic_restriction(ext, ident, Subgroup(d8, [0, 4]))

    v4 = catalog("elementary_abelian", 2, 2)
    vext = extension_from(v4, Subgroup(v4, [0, 1]))
    moving = GroupAutomorphism(v4, [0, 2, 1, 3])
    with pytest.raises(InputError):
        characteristic_restriction(vext, moving,
                                   Subgroup(v4, range(4)))


def test_corollary_predicates_flags():
    d8 = catalog("dihedral", 8)
    ext = extension_from(d8, center(d8))
    out = corollary_predicates(ext)
    assert out["quotient_nilpotent"] is True
    assert out["phi_commuting"] is None

    G = _z3_x_s3()
    cext = extension_from(G, center(G))
    assert corollary_predicates(cext)["quotient_nilpotent"] is False

    for phi in automorphism_group(ext.H):
        out = corollary_predicates(ext, phi=phi)
        if out["phi_commuting"]:
            assert out["sylows_phi_invariant"]
        assert out["lift_verdict"] is not None


def test_corollary_central_pair_mode():
    d8 = catalog("dihedral", 8)
    ext = extension_from(d8, center(d8))
    seen_true = seen_false = False
    for theta in automorphism_group(ext.n_group):
        for phi in automorphism_group(ext.H):
            out = corollary_predicates(ext, phi=phi, theta=theta)
            mode = out["central_pair_mode"]
            assert mode is not None
            assert mode["local_verdict"] == mode["global_found"]
            seen_true = seen_true or mode["global_found"]
            seen_false = seen_false or not mode["global_found"]
    assert seen_true and seen_false


def test_parent_and_containment_validation():
    d8 = catalog("dihedral", 8)
    ext = extension_from(d8, center(d8))
    z3 = catalog("cyclic", 3)
    alien = GroupAutomorphism(z3, [0, 2, 1])
    with pytest.raises(ParentMismatch):
        sylow_lift_check(ext, alien)
    with pytest.raises(ParentMismatch):
        sylow_extend_check(ext, alien)
    with pytest.raises(ParentMismatch):
        index_kill_check(ext, alien)
    with pytest.raises(ParentMismatch):
        sylow_preimage(ext, 2, Subgroup(z3, [0, 1, 2]))
    with pytest.raises(ParentMismatch):
        local_extension(ext, Subgroup(z3, [0, 1, 2]))
    with pytest.raises(InputError):
        local_extension(ext, Subgroup(d8, [0, 4]))


def _corpus_exts(max_quotient=8):
    return [extension_from(G, N) for G in shipped_corpus()
            for N in corpus_pairs(G) if G.order // N.order <= max_quotient]


def _outcome(check, *args):
    """Every field of a SylowCheck, or the name of the exception raised."""
    try:
        c = check(*args)
    except SylowNotInvariant as exc:
        return type(exc).__name__
    reports = tuple((r.prime, r.subgroup.members, r.index, r.compatible,
                     r.local_ok, r.witness and r.witness.image,
                     r.obstruction and r.obstruction.key) for r in c.reports)
    return c.verdict, reports, c.witness and c.witness.image


def test_reduction_matches_the_three_reference_loops():
    """Lift, extend and the central pair mode give, on every corpus pair
    with |H| <= 8, what the three separate per-prime loops gave."""
    pairs_checked = 0
    for ext in _corpus_exts():
        for phi in automorphism_group(ext.H):
            assert _outcome(sylow_lift_check, ext, phi) == \
                _outcome(reference_sylow_lift_check, ext, phi)
        for theta in automorphism_group(ext.n_group):
            assert _outcome(sylow_extend_check, ext, theta) == \
                _outcome(reference_sylow_extend_check, ext, theta)
        if not ext.central:
            continue
        pairs, _, _ = compatible_pairs(ext)
        for theta, phi in pairs:
            try:
                want = reference_central_pair_mode(ext, theta, phi)
            except SylowNotInvariant:
                with pytest.raises(SylowNotInvariant):
                    corollary_predicates(ext, phi=phi, theta=theta)
                continue
            got = corollary_predicates(ext, phi=phi, theta=theta)
            assert got["central_pair_mode"] == want
            pairs_checked += 1
    assert pairs_checked > 100


def test_corollary_predicates_rejects_a_foreign_theta():
    """theta is checked whether or not the central pair mode runs."""
    d8 = catalog("dihedral", 8)
    alien = GroupAutomorphism(catalog("cyclic", 3), [0, 2, 1])
    rotations = extension_from(d8, Subgroup(d8, [0, 1, 2, 3]))
    assert not rotations.central
    with pytest.raises(ParentMismatch):
        corollary_predicates(rotations, phi=rotations.id_H, theta=alien)
    central = extension_from(d8, center(d8))
    with pytest.raises(ParentMismatch):
        corollary_predicates(central, theta=alien)
    out = corollary_predicates(central, theta=central.id_N)
    assert out["central_pair_mode"] is None


def test_characteristic_check_matches_the_loop():
    """characteristic_restriction refuses the preimage P of a subgroup Q of
    H exactly when the loop over every automorphism of H and every member
    of Q (oracles.reference_characteristic_message) finds a member moved
    out of Q, with the same message: on every subgroup of H of every
    corpus extension with |H| <= 8, restricting the identity of G."""
    checked = refused = 0
    for G in shipped_corpus():
        gamma = GroupAutomorphism.identity(G)
        for N in corpus_pairs(G):
            ext = extension_from(G, N)
            if ext.H.order > 8:
                continue
            for Q in all_subgroups(ext.H):
                P = Subgroup(G, [g for g in range(G.order) if ext.pi(g) in Q])
                want = reference_characteristic_message(ext.H, Q.members)
                checked += 1
                if want is None:
                    assert characteristic_restriction(ext, gamma, P).is_identity
                    continue
                with pytest.raises(NotCharacteristic) as info:
                    characteristic_restriction(ext, gamma, P)
                assert str(info.value) == want
                refused += 1
    assert checked > refused > 50


def _d12_over_center():
    d12 = parse_catalog_expression("dihedral(12)")
    return extension_from(d12, center(d12))


def test_restrict_to_quotient_sylow_refuses_foreign_input():
    """An automorphism of another group, or a local extension of another
    G, is a parent mismatch, not a map that moves the Sylow."""
    ext = _d12_over_center()
    local = local_extension(ext, sylow_preimage(ext, 3))
    phi = automorphism_group(parse_catalog_expression("cyclic(6)"))[1]
    with pytest.raises(ParentMismatch):
        restrict_to_quotient_sylow(ext, local, phi)
    d8 = _small_exts()[0]
    alien = local_extension(d8, Subgroup(d8.G, range(d8.G.order)))
    with pytest.raises(ParentMismatch):
        restrict_to_quotient_sylow(ext, alien, ext.id_H)
    assert restrict_to_quotient_sylow(ext, local, ext.id_H).is_identity


def test_sylow_preimage_refuses_a_subgroup_that_is_not_sylow():
    ext = _d12_over_center()
    two = quotient_sylows(ext, 2)[0]
    for p, S in ((2, Subgroup(ext.H, [0])), (4, two), (3, two), (1, two)):
        with pytest.raises(BadParameters, match="is not a Sylow"):
            sylow_preimage(ext, p, S)
    with pytest.raises(BadParameters, match="is not prime"):
        sylow_preimage(ext, 4)
    # every Sylow the reduction tries is accepted
    for ext in _small_exts() + [ext]:
        for p in prime_factors(ext.H.order):
            for S in quotient_sylows(ext, p):
                P = sylow_preimage(ext, p, S)
                assert P.order == ext.N.order * S.order


@pytest.mark.parametrize("expr", ["dihedral(20)", "dihedral(12)"])
def test_one_report_builds_each_local_extension_once(monkeypatch, expr):
    """verify_report asks every phi of C2 and theta of C1 prime by prime;
    each Sylow preimage's local extension is built on first use and kept
    as a fact of the extension.  A transversal copy starts without them."""
    builds, build = Counter(), reduction.local_extension

    def counted(ext, P):
        builds[id(ext), P.members] += 1
        return build(ext, P)
    monkeypatch.setattr(reduction, "local_extension", counted)
    G = parse_catalog_expression(expr)
    ext = extension_from(G, center(G))
    verify_report(ext)
    assert builds and max(builds.values()) == 1
    assert len([k for k in ext._facts if k[:1] == ("local",)]) == len(builds)
    copy = ext.with_transversal(ext.transversal)
    assert not [k for k in copy._facts if k[:1] in (("local",), ("sylows",))]


def test_extending_theta_never_enumerates_conjugate_sylows(monkeypatch):
    """Sequence 1 asks the deterministically grown Sylow only."""
    def enumerated(ext, p):
        raise AssertionError("conjugate Sylows enumerated")
    monkeypatch.setattr(reduction, "quotient_sylows", enumerated)
    for ext in _small_exts() + [_d12_over_center()]:
        for theta in automorphism_group(ext.n_group):
            sylow_extend_check(ext, theta)
    # the patch is live: lifting phi walks the conjugates
    with pytest.raises(AssertionError, match="conjugate Sylows enumerated"):
        sylow_lift_check(ext, ext.id_H)


def test_extending_theta_grows_each_primes_sylow_once(monkeypatch):
    """Every sylow_extend_check on one extension reads each prime's grown
    Sylow of H from the extension's facts: it is grown once."""
    ext = _mixed_ext()
    _, c1, _ = compatible_pairs(ext)
    assert len(c1) >= 2 and len(prime_factors(ext.H.order)) == 2
    grown = Counter()

    def counted(H, p, real=reduction.sylow_subgroup):
        grown[p] += H is ext.H
        return real(H, p)
    monkeypatch.setattr(reduction, "sylow_subgroup", counted)
    for theta in 2 * c1:
        sylow_extend_check(ext, theta)
    assert grown == {p: 1 for p in prime_factors(ext.H.order)}


@pytest.mark.parametrize("skew", [
    lambda sub: setattr(sub, "n_group", catalog("cyclic", 3)),
    lambda sub: setattr(sub, "coeffs", SimpleNamespace(invariant_factors=(4,))),
], ids=["table", "moduli"])
def test_local_n_in_other_coordinates_is_caught(monkeypatch, skew):
    """The local theta reuses the global image tuple unchecked; that rests
    on local_extension's assertion, which still runs on the reduction's
    path."""
    ext = _d12_over_center()

    class Skewed(reduction.ExtensionData):
        def __init__(self, G, N):
            super().__init__(G, N)
            skew(self)
    monkeypatch.setattr(reduction, "ExtensionData", Skewed)
    for check, arg in ((sylow_extend_check, ext.id_N),
                       (sylow_lift_check, ext.id_H)):
        with pytest.raises(AssertionError,
                           match="induced extension does not share the N coordinates"):
            check(ext, arg)
