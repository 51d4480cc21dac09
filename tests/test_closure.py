"""Closure checks grown from generators against the all-pairs reference,
on the compatible pairs C and the slices C1, C2 of many extensions."""

import importlib.util
import math
import pathlib
import random

import pytest

from extlift import (BoundExceeded, automorphism_group, catalog,
                     compatible_pairs, config, extension_from,
                     random_transversal, shipped_corpus, split_kernels,
                     splitting, wells)
from extlift.catalog import parse_catalog_expression
from extlift.groups import _compose_pair, _compose_perm, center, require_closed
from extlift.reports import corpus_pairs

from oracles import require_closed_quadratic

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
    """(name, keys, compose, identity) for C, C1 and C2."""
    pairs, c1, c2 = compatible_pairs(ext, verify_closure=False)
    id_n, id_h = ext.id_N.image, ext.id_H.image
    return [("C", [(p.theta.image, p.phi.image) for p in pairs],
             _compose_pair, (id_n, id_h)),
            ("C1", [th.image for th in c1], _compose_perm, id_n),
            ("C2", [ph.image for ph in c2], _compose_perm, id_h)]


def _accepts(check, *args):
    try:
        check(*args)
    except AssertionError:
        return False
    return True


def _agree(keys, compose, identity):
    new = _accepts(require_closed, keys, compose, identity, "not closed")
    assert new == _accepts(require_closed_quadratic, keys, compose)
    return new


def test_generator_closure_matches_all_pairs_check():
    rng = random.Random(5)
    cases = 0
    for label, ext in _extensions():
        for name, keys, compose, identity in _sets(ext):
            where = f"{name} of {label}"
            assert _agree(keys, compose, identity), where
            gens = require_closed(keys, compose, identity, "not closed")
            assert len(gens) <= math.log2(len(keys)), where
            others = [k for k in keys if k != identity]
            if not others:
                continue
            drop = rng.choice(others)
            # K minus a member is closed only when it leaves {1} (|K| = 2)
            assert _agree([k for k in keys if k != drop], compose,
                          identity) == (len(keys) == 2), where
            assert not _agree(others, compose, identity), where
            cases += 1
    assert cases > 200


def test_empty_set_counts_as_closed():
    assert _agree([], _compose_perm, (0, 1, 2))
    assert require_closed([], _compose_perm, (0, 1, 2), "not closed") == []


def test_set_closed_without_generators_is_the_trivial_group():
    identity = (0, 1, 2)
    assert require_closed([identity], _compose_perm, identity, "not closed") == []
    with pytest.raises(AssertionError, match="not closed"):
        require_closed([(1, 2, 0)], _compose_perm, identity, "not closed")


def test_compatible_pairs_are_found_once_and_handed_out_fresh(monkeypatch):
    G = catalog("dihedral", 8)
    ext = extension_from(G, center(G))
    found, checked = [], []

    def counting(real, log):
        def wrapper(*args):
            log.append(args)
            return real(*args)
        return wrapper

    monkeypatch.setattr(wells, "is_compatible",
                        counting(wells.is_compatible, found))
    monkeypatch.setattr(wells, "require_closed",
                        counting(wells.require_closed, checked))
    pairs, c1, c2 = compatible_pairs(ext, verify_closure=False)
    assert (len(found), len(checked)) == (6, 0)
    pairs.clear()
    c2.pop()
    assert [len(r) for r in compatible_pairs(ext)] == [6, 1, 6]
    assert (len(found), len(checked)) == (6, 1)
    other = ext.with_transversal(random_transversal(ext, random.Random(3)))
    assert [len(r) for r in compatible_pairs(other)] == [6, 1, 6]
    assert (len(found), len(checked)) == (6, 1)


def test_compatible_pairs_missing_a_member_are_rejected():
    G = catalog("dihedral", 8)
    ext = extension_from(G, center(G))
    pairs, c1, c2 = compatible_pairs(ext, verify_closure=False)
    ext._compatible = (tuple(pairs[:-1]), tuple(c1), tuple(c2), False)
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


def test_compatible_pairs_of_extraspecial_plus_2_over_its_centre():
    G = parse_catalog_expression("extraspecial_plus(2)")
    pairs, c1, c2 = compatible_pairs(extension_from(G, center(G)))
    assert (len(pairs), len(c1), len(c2)) == (20160, 1, 20160)


def test_compatible_pairs_bound_applies_before_the_product_loop(monkeypatch):
    """|Aut N| * |Aut H| = 1 * 20160 passes a bound of 20159 before any pair
    is tested, and fits one of 20160."""
    G = parse_catalog_expression("extraspecial_plus(2)")
    ext = extension_from(G, center(G))
    automorphism_group(ext.n_group), automorphism_group(ext.H)   # cached now
    tested = []
    monkeypatch.setattr(wells, "is_compatible",
                        lambda *args: tested.append(args) or True)
    monkeypatch.setattr(config, "AUT_SEARCH_BOUND", 20159)
    with pytest.raises(BoundExceeded, match=r"1 \* 20160 passes 20159"):
        compatible_pairs(ext, verify_closure=False)
    assert tested == []
    monkeypatch.setattr(config, "AUT_SEARCH_BOUND", 20160)
    assert len(compatible_pairs(ext, verify_closure=False)[0]) == 20160
