"""Invariant-factor decomposition and coordinate arithmetic."""

import numpy as np
import pytest

from extlift import (NotAbelian, Subgroup, abelian_structure, catalog,
                     direct_product)
from extlift.abelian import matrix_of_endomorphism, restrict_to_matrix
from extlift.groups import GroupAutomorphism, automorphism_group


def whole(G):
    return Subgroup(G, range(G.order))


def apply(A, coords, moduli):
    """A acting on a coordinate column, reduced mod d_i."""
    return tuple((A @ np.array(coords) % np.array(moduli)).tolist())


def congruent(A, B, moduli):
    """Matrices equal entrywise mod d_i in row i."""
    return not ((A - B) % np.array(moduli)[:, None]).any()


@pytest.mark.parametrize("build,expected", [
    (lambda: catalog("cyclic", 6), (6,)),
    (lambda: catalog("cyclic", 9), (9,)),
    (lambda: catalog("elementary_abelian", 2, 2), (2, 2)),
    (lambda: catalog("elementary_abelian", 2, 3), (2, 2, 2)),
    (lambda: catalog("elementary_abelian", 3, 2), (3, 3)),
    (lambda: direct_product(catalog("cyclic", 2), catalog("cyclic", 4)), (2, 4)),
    (lambda: direct_product(catalog("cyclic", 4), catalog("cyclic", 4)), (4, 4)),
    (lambda: direct_product(catalog("cyclic", 2), catalog("cyclic", 6)), (2, 6)),
    (lambda: direct_product(catalog("cyclic", 3), catalog("cyclic", 4)), (12,)),
    (lambda: direct_product(catalog("cyclic", 6),
                            direct_product(catalog("cyclic", 2),
                                           catalog("cyclic", 2))), (2, 2, 6)),
])
def test_invariant_factors(build, expected):
    """Divisor-chain form d1 | d2 | ... of the structure theorem."""
    s = abelian_structure(whole(build()))
    assert s.invariant_factors == expected
    for a, b in zip(expected, expected[1:]):
        assert b % a == 0


def test_structure_requires_abelian():
    G = catalog("dihedral", 6)
    with pytest.raises(NotAbelian):
        abelian_structure(whole(G))


def test_coordinates_are_an_isomorphism():
    for G in (catalog("cyclic", 12),
              direct_product(catalog("cyclic", 2), catalog("cyclic", 4)),
              catalog("elementary_abelian", 3, 2)):
        s = abelian_structure(whole(G))
        m = s.invariant_factors
        seen = set()
        for a in G.elements():
            c = s.coords_of_member(a)
            assert s.member_of_coords(c) == a
            seen.add(c)
            for b in G.elements():
                lhs = s.coords_of_member(G.mul(a, b))
                assert lhs == tuple((u + v) % d for u, v, d in
                                    zip(c, s.coords_of_member(b), m))
        assert len(seen) == G.order


def test_coordinates_of_proper_subgroup():
    G = catalog("cyclic", 12)
    S = Subgroup(G, [0, 3, 6, 9])
    s = abelian_structure(S)
    assert s.invariant_factors == (4,)
    for mem in S.members:
        assert s.member_of_coords(s.coords_of_member(mem)) == mem


def test_matrices_of_automorphisms_compose():
    # the whole group as its own subgroup, so n_group is G itself
    G = direct_product(catalog("cyclic", 2), catalog("cyclic", 4))
    s = abelian_structure(whole(G))
    m = s.invariant_factors
    auts = automorphism_group(G)
    mats = {a.image: restrict_to_matrix(s, a) for a in auts}
    for a in auts:
        A = mats[a.image]
        # the matrix reproduces the map in coordinates
        for g in G.elements():
            assert s.member_of_coords(apply(A, s.coords_of_member(g), m)) == a(g)
        for b in auts:
            C = mats[a.compose(b).image]
            assert congruent(C, A @ mats[b.image], m)
    ident = GroupAutomorphism(G, tuple(range(G.order)))
    assert congruent(matrix_of_endomorphism(s, ident.image),
                     np.eye(len(m), dtype=np.int64), m)


def test_restrict_to_matrix_on_proper_subgroup():
    G = catalog("cyclic", 8)
    S = Subgroup(G, [0, 2, 4, 6])
    s = abelian_structure(S)
    # inversion of G restricted to S, written on the standalone group
    theta = GroupAutomorphism(s.n_group,
                              tuple(S.position[G.inverse[m]] for m in S.members))
    A = restrict_to_matrix(s, theta)
    for mem in S.members:
        got = s.member_of_coords(apply(A, s.coords_of_member(mem),
                                       s.invariant_factors))
        assert got == G.inverse[mem]
