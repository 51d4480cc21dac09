"""Facts computed once per ExtensionData: answers, starred sets, split
kernels and automorphism subsets, with a fresh table per transversal."""

import importlib
import random
from collections import Counter

import numpy as np
import pytest

from extlift import (CompatiblePair, ParentMismatch, answer, aut_subgroups,
                     catalog, compatible_pairs, extension_from,
                     group_from_permutations, parse_catalog_expression,
                     random_transversal, split_kernels)
from extlift.abelian import restrict_to_matrix
from extlift.groups import (GroupAutomorphism, Subgroup, center,
                            derived_subgroup)
from extlift.reports import verify_report
from extlift.wells import pair_key, slice_pair, starred_sets

wells = importlib.import_module("extlift.wells")
splitting = importlib.import_module("extlift.splitting")


def _answers(ext):
    """Every question of ext, answered, keyed by (which, theta, phi) images,
    with each Answer as data that does not depend on the extension object."""
    pairs, c1, c2 = compatible_pairs(ext)
    slices = {1: c1, 2: c2, 3: pairs} if ext.central else {1: c1, 2: c2}
    out = {}
    for which, members in slices.items():
        for m in members:
            pair = slice_pair(ext, which, m)
            got = answer(ext, which, pair)
            out[(which, *pair_key(pair))] = (
                got, got.compatible,
                got.witness.image if got.witness is not None else None,
                got.obstruction.key if got.obstruction is not None else None)
    return out


def _keys(ext, stars):
    """Starred sets (or split kernels) as pair keys, by sequence."""
    return {which: [pair_key(slice_pair(ext, which, m)) for m in star]
            for which, star in stars.items() if star is not None}


def _alt4_over_v4():
    G = group_from_permutations(4, [(1, 2, 0, 3), (0, 2, 3, 1)], name="alt4")
    return G, derived_subgroup(G)


def _catalog_case(expr, members=None):
    G = parse_catalog_expression(expr)
    return G, center(G) if members is None else Subgroup(G, members)


@pytest.mark.parametrize("case,seed", [
    (lambda: _catalog_case("dihedral(8)"), 1),
    (lambda: _catalog_case("quaternion(8)"), 3),
    (lambda: _catalog_case("dihedral(12)", (0, 2, 4)), 1),
    (_alt4_over_v4, 1)], ids=["d8-center", "q8-center", "d12-c3", "a4-v4"])
def test_transversal_copy_finds_its_own_facts(case, seed):
    """A copy over another transversal answers every question afresh, as an
    extension built over that transversal does, and checks its own kernels."""
    G, N = case()
    ext = extension_from(G, N)
    parent = _answers(ext)
    parent_stars = starred_sets(ext)
    parent_kernels = split_kernels(ext)
    t = random_transversal(ext, random.Random(seed))
    other = ext.with_transversal(t)
    assert not np.array_equal(other.mu.values, ext.mu.values)
    fresh = extension_from(G, N).with_transversal(t)
    got, want = _answers(other), _answers(fresh)
    assert got.keys() == want.keys() == parent.keys()
    for key, (answered, *data) in got.items():
        assert answered is not parent[key][0]
        assert tuple(data) == want[key][1:]
    stars = _keys(other, starred_sets(other))
    assert stars == _keys(fresh, starred_sets(fresh))
    assert stars == _keys(ext, parent_stars)       # the sets do not depend on t
    kernels = split_kernels(other)
    assert kernels is not parent_kernels
    assert _keys(other, dict(enumerate(kernels, 1))) == stars
    assert _keys(fresh, dict(enumerate(split_kernels(fresh), 1))) == stars


def test_cached_answer_still_checks_parents():
    """Once (1, 1) is answered, an automorphism of another group with the
    same image is still refused in either slot, for every sequence."""
    G = catalog("dihedral", 8)
    ext = extension_from(G, center(G))
    first = answer(ext, 1, ext.id_pair)
    assert answer(ext, 1, ext.id_pair) is first
    foreign_theta = GroupAutomorphism.identity(catalog("cyclic", 2))
    foreign_phi = GroupAutomorphism.identity(catalog("elementary_abelian", 2, 2))
    assert foreign_theta.image == ext.id_N.image
    assert foreign_phi.image == ext.id_H.image
    for pair in (CompatiblePair(foreign_theta, ext.id_H),
                 CompatiblePair(ext.id_N, foreign_phi)):
        for which in (1, 2, 3):
            with pytest.raises(ParentMismatch):
                answer(ext, which, pair)


def test_one_report_computes_each_fact_once(monkeypatch):
    """One verify_report builds each fact of each instance once (answers on
    the transversal copies and Sylow extensions included), the three named
    facts only on the extension itself, and decomposes each member of
    Aut_N(G) once."""
    G = catalog("dihedral", 8)
    ext = extension_from(G, center(G))
    built, decomposed = Counter(), Counter()
    real_fact, real_triple = wells._fact, wells.triple_of

    def counting_fact(e, key, build):
        def counted():
            built[(e, key)] += 1        # e is kept alive, so never reused
            return build()
        return real_fact(e, key, counted)

    def counting_triple(e, autos):
        decomposed.update(map(tuple, autos.rows.tolist()))    # rows of the block
        return real_triple(e, autos)

    for module in (wells, splitting):
        monkeypatch.setattr(module, "_fact", counting_fact)
    monkeypatch.setattr(wells, "triple_of", counting_triple)
    report = verify_report(ext)
    assert report["ok"] and report["transversal_draws"] > 0
    assert max(built.values()) == 1         # nothing built twice on one instance
    named = sorted((e is ext, key) for e, key in built if isinstance(key, str))
    assert named == [(True, "aut_subgroups"), (True, "split_kernels"),
                     (True, "starred_sets")]
    members = aut_subgroups(ext).aut_N_of_G
    assert decomposed == Counter(g.image for g in members)


def test_theta_matrices_are_kept_read_only():
    G = catalog("quaternion", 8)
    ext = extension_from(G, center(G))
    theta = compatible_pairs(ext)[1][0]
    M = restrict_to_matrix(ext.coeffs, theta)
    assert restrict_to_matrix(ext.coeffs, theta) is M
    assert not M.flags.writeable
    with pytest.raises(ValueError):
        M[0, 0] = 1
