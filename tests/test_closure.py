"""Closure checks grown from generators against the all-pairs reference
and the tuple form's generators, on the compatible pairs C and the slices
C1, C2 of many extensions."""

import importlib.util
import math
import pathlib
import random
from collections import Counter

import numpy as np
import pytest

from extlift import (BoundExceeded, automorphism_group, catalog,
                     compatible_pairs, config, extension_from,
                     random_transversal, shipped_corpus, split_kernels,
                     splitting, wells)
from extlift.catalog import parse_catalog_expression
from extlift.groups import Subgroup, _compose_perm, center, require_closed
from extlift.reports import corpus_pairs, verify_report

from oracles import (compose_pair, reference_require_closed,
                     require_closed_quadratic, slice_rows)

MAX_QUOTIENT = 8


def _aut_enum_light_menu():
    """The small groups of the benchmark's aut_enum workload."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.AUT_ENUM_LIGHT


def _extensions():
    for expr in _aut_enum_light_menu():
        G = parse_catalog_expression(expr)
        yield f"{expr}/Z", extension_from(G, center(G))
    for G in shipped_corpus():
        for N in corpus_pairs(G):
            if G.order // N.order <= MAX_QUOTIENT:
                yield f"{G.name}/{N.members}", extension_from(G, N)


def _sets(ext):
    """(name, K) for C, C1 and C2, K their rows as require_closed takes
    them (C as wells._pair_rows)."""
    pairs, c1, c2 = compatible_pairs(ext, verify_closure=False)
    theta = np.array([p.theta.image for p in pairs])
    phi = np.array([p.phi.image for p in pairs])
    return [("C", wells._pair_rows(ext, theta, phi)),
            ("C1", np.array([th.image for th in c1])),
            ("C2", np.array([ph.image for ph in c2]))]


def _accepts(check, *args):
    try:
        check(*args)
    except AssertionError:
        return False
    return True


def _agree(K):
    """Whether require_closed accepts the rows K, asserting that the
    all-pairs check over their tuples agrees."""
    new = _accepts(require_closed, K, "not closed")
    assert new == _accepts(require_closed_quadratic, list(map(tuple, K.tolist())),
                           _compose_perm)
    return new


def test_generator_closure_matches_all_pairs_check():
    """Accepts what the all-pairs check accepts, returns the generators of
    the tuple form in the oracles (over pair keys for C) and the index of
    each K_k o s."""
    rng = random.Random(5)
    cases = 0
    for label, ext in _extensions():
        for name, K in _sets(ext):
            where = f"{name} of {label}"
            assert _agree(K), where
            gens, prods = require_closed(K, "not closed")
            keys = list(map(tuple, K.tolist()))
            if name == "C":
                n = ext.N.order
                split = [(k[:n], tuple(v - n for v in k[n:])) for k in keys]
                want = reference_require_closed(
                    split, compose_pair, (ext.id_N.image, ext.id_H.image), "not closed")
                assert [split[g] for g in gens] == want, where
            identity = tuple(range(K.shape[1]))
            assert [keys[g] for g in gens] == reference_require_closed(
                keys, _compose_perm, identity, "not closed"), where
            for g, prod in zip(gens, prods):
                assert [keys[i] for i in prod.tolist()] == \
                    [_compose_perm(k, keys[g]) for k in keys], where
            assert len(gens) <= math.log2(len(keys)), where
            others = [i for i, k in enumerate(keys) if k != identity]
            if not others:
                continue
            drop = rng.choice(others)
            # K minus a member is closed only when it leaves {1} (|K| = 2)
            assert _agree(np.delete(K, drop, axis=0)) == (len(keys) == 2), where
            assert not _agree(K[others]), where
            # a repeated row is one member: same verdict, same generators
            again = np.concatenate([K, K[[drop]]])
            assert _agree(again), where
            assert require_closed(again, "not closed")[0] == gens, where
            cases += 1
    assert cases > 200


def test_empty_set_counts_as_closed():
    empty = np.zeros((0, 3), dtype=np.intp)
    assert _agree(empty)
    assert require_closed(empty, "not closed") == ([], [])


def test_set_closed_without_generators_is_the_trivial_group():
    assert require_closed(np.array([[0, 1, 2]]), "not closed") == ([], [])
    with pytest.raises(AssertionError, match="not closed"):
        require_closed(np.array([[1, 2, 0]]), "not closed")


def test_compatible_pairs_are_found_once_and_handed_out_fresh(monkeypatch):
    G = catalog("dihedral", 8)
    ext = extension_from(G, center(G))
    found, checked = [], []

    def counting(real, log):
        def wrapper(*args):
            log.append(args)
            return real(*args)
        return wrapper

    # the compatibility mask over the grid, and the closure check
    monkeypatch.setattr(wells, "_compatible_grid",
                        counting(wells._compatible_grid, found))
    monkeypatch.setattr(wells, "require_closed",
                        counting(wells.require_closed, checked))
    pairs, c1, c2 = compatible_pairs(ext, verify_closure=False)
    assert (len(found), len(checked)) == (1, 0)
    pairs.clear()
    c2.pop()
    assert [len(r) for r in compatible_pairs(ext)] == [6, 1, 6]
    assert (len(found), len(checked)) == (1, 1)
    other = ext.with_transversal(random_transversal(ext, random.Random(3)))
    assert [len(r) for r in compatible_pairs(other)] == [6, 1, 6]
    assert (len(found), len(checked)) == (1, 1)


def test_compatible_pairs_missing_a_member_are_rejected():
    G = catalog("dihedral", 8)
    ext = extension_from(G, center(G))
    pairs, c1, c2 = compatible_pairs(ext, verify_closure=False)
    i, j = ext._compatible[3]
    ext._compatible = (tuple(pairs[:-1]), tuple(c1), tuple(c2), (i[:-1], j[:-1]), False)
    with pytest.raises(AssertionError, match="compatible pairs are not "
                                             "closed under composition"):
        compatible_pairs(ext)


def test_starred_set_missing_a_member_is_rejected(monkeypatch):
    G = catalog("quaternion", 8)
    assert len(split_kernels(extension_from(G, center(G))).c2_star) == 6
    real = splitting.starred_sets

    def missing_one(*args):
        stars = real(*args)
        return {**stars, 2: stars[2][:-1]}

    # the starred sets split_kernels checks, one member short
    monkeypatch.setattr(splitting, "starred_sets", missing_one)
    # a fresh extension: the first one keeps the kernels it already checked
    with pytest.raises(AssertionError, match="starred set is not closed "
                                             "under composition"):
        split_kernels(extension_from(G, center(G)))


def test_starred_set_without_the_identity_first_is_rejected(monkeypatch):
    """The sections take K's row 0 for the identity, so split_kernels
    refuses a starred set that is a group in another order."""
    G = catalog("quaternion", 8)
    real = splitting.starred_sets

    def reversed_c2(*args):
        stars = real(*args)
        return {**stars, 2: stars[2][::-1]}

    monkeypatch.setattr(splitting, "starred_sets", reversed_c2)
    with pytest.raises(AssertionError, match="starred set does not start "
                                             "with the identity"):
        split_kernels(extension_from(G, center(G)))


def test_kept_starred_rows_are_the_rebuilt_rows_and_their_proof():
    """split_kernels keeps each starred set's pair rows K, the identity
    first, with the generators and products require_closed gives over K."""
    cases = 0
    for label, ext in _extensions():
        stars, proofs = splitting._proven(ext)
        assert sorted(proofs) == ([1, 2, 3] if ext.central else [1, 2]), label
        for which, (star, K, gens, prods) in proofs.items():
            where = f"C{which}* of {label}"
            assert star is stars[which - 1], where
            assert np.array_equal(K, slice_rows(ext, which, star)), where
            assert np.array_equal(K[0], np.arange(K.shape[1])), where
            want_gens, want_prods = require_closed(K, "not closed")
            assert gens == want_gens, where
            assert [p.tolist() for p in prods] == [p.tolist() for p in want_prods], where
            cases += 1
    assert cases > 150


@pytest.mark.parametrize("expr,members", [("dihedral(8)", (0, 1, 2, 3)),
                                          ("quaternion(8)", None)],
                         ids=["d8-c4-canonical", "q8-center-search"])
def test_one_report_proves_each_set_closed_once(monkeypatch, expr, members):
    """One verify_report runs require_closed once on C and once on each
    starred set: the sections read split_kernels' proof."""
    G = parse_catalog_expression(expr)
    N = center(G) if members is None else Subgroup(G, members)
    ext = extension_from(G, N)
    proved = []

    def counting(K, message):
        proved.append(K.tobytes())
        return require_closed(K, message)
    for module in (wells, splitting):
        monkeypatch.setattr(module, "require_closed", counting)
    report = verify_report(ext)
    assert report["ok"]
    assert report["splitting"]["extension_splits"] == (members is not None)
    assert ("seq_4_2_splits" in report["splitting"]) == (members is None)
    i, j = ext._compatible[3]
    C = wells._pair_rows(ext, automorphism_group(ext.n_group).rows[i],
                         automorphism_group(ext.H).rows[j])
    sets = [C] + [K for _, K, _, _ in splitting._proven(ext)[1].values()]
    assert len(sets) == (4 if ext.central else 3)
    want = Counter(K.tobytes() for K in sets)
    assert Counter(k for k in proved if k in want) == want


def test_compatible_pairs_of_extraspecial_plus_2_over_its_centre():
    G = parse_catalog_expression("extraspecial_plus(2)")
    pairs, c1, c2 = compatible_pairs(extension_from(G, center(G)))
    assert (len(pairs), len(c1), len(c2)) == (20160, 1, 20160)


def test_compatible_pairs_bound_applies_before_the_product_loop(monkeypatch):
    """|Aut N| * |Aut H| = 1 * 20160 passes a bound of 20159 before the
    grid is tested, and fits one of 20160."""
    G = parse_catalog_expression("extraspecial_plus(2)")
    ext = extension_from(G, center(G))
    automorphism_group(ext.n_group), automorphism_group(ext.H)   # cached now
    tested, real = [], wells._compatible_grid
    monkeypatch.setattr(wells, "_compatible_grid",
                        lambda *args: tested.append(args) or real(*args))
    monkeypatch.setattr(config, "AUT_SEARCH_BOUND", 20159)
    with pytest.raises(BoundExceeded, match=r"1 \* 20160 passes 20159"):
        compatible_pairs(ext, verify_closure=False)
    assert tested == []
    monkeypatch.setattr(config, "AUT_SEARCH_BOUND", 20160)
    assert len(compatible_pairs(ext, verify_closure=False)[0]) == 20160
