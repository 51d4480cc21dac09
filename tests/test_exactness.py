"""verify_exactness on broken decompositions: one sequence at a time is made
to fail by letting the block triple_of report a moved theta, phi or pair
for a single automorphism, and the exact violations and seq_1_* flags are
pinned."""

import numpy as np
import pytest

from extlift import aut_subgroups, automorphism_group, verify_exactness, wells
from extlift.catalog import parse_catalog_expression


def _pick(subs, which):
    """First automorphism that only sequence which projects."""
    if which == 1:
        return next(g for g in subs.aut_N_H if g not in subs.aut_upper_N)
    if which == 2:
        return next(g for g in subs.aut_upper_N if g not in subs.aut_N_H)
    return next(g for g in subs.aut_N_of_G
                if g not in subs.aut_N_H and g not in subs.aut_upper_N)


def _moved(ext, theta, phi, move):
    """The theta and phi rows of a decomposed member after move."""
    if move == "phi":
        return theta, automorphism_group(ext.H)[1].image
    if move == "theta":
        return automorphism_group(ext.n_group)[1].image, phi
    if move == "phi=1":
        return theta, ext.id_H.image
    if move == "theta=1":
        return ext.id_N.image, phi
    return ext.id_N.image, ext.id_H.image


D12 = ("dihedral(12)", (0, 2, 4))            # non-central, kernel order 3
E9 = ("elementary_abelian(3,2)", (0, 1, 2))   # central, kernel order 3
C12 = ("cyclic(12)", (0, 4, 8))               # central, kernel order 1

# (extension, sequence picked, move) -> (seq_1_1, seq_1_2, seq_1_3), violations
CASES = [
    (D12, 1, "phi", (True, True, None),
     ["automorphism (0, 5, 4, 3, 2, 1, 6, 11, 10, 9, 8, 7) in the H-fixing "
      "set induces a nonidentity quotient map"]),
    (D12, 1, "theta=1", (False, True, None),
     ["kernel of the restriction map differs from the N,H-fixing subgroup"]),
    (D12, 2, "theta", (True, True, None),
     ["automorphism (0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 6) in the "
      "N-centralizing set moves N"]),
    (D12, 2, "phi=1", (True, False, None),
     ["kernel of the induction map differs from the N,H-fixing subgroup"]),
    (E9, 1, "phi", (True, True, True),
     ["automorphism (0, 2, 1, 3, 5, 4, 6, 8, 7) in the H-fixing set induces "
      "a nonidentity quotient map"]),
    (E9, 2, "theta", (True, True, True),
     ["automorphism (0, 1, 2, 6, 7, 8, 3, 4, 5) in the N-centralizing set "
      "moves N"]),
    (E9, 3, "both=1", (True, True, False),
     ["central pair sequence fails exactness"]),
    (C12, 1, "theta=1", (False, True, False),
     ["kernel of the restriction map differs from the N,H-fixing subgroup",
      "image of the restriction map differs from the unobstructed "
      "compatible thetas",
      "central pair sequence fails exactness"]),
    (C12, 2, "phi=1", (True, False, False),
     ["kernel of the induction map differs from the N,H-fixing subgroup",
      "image of the induction map differs from the unobstructed compatible "
      "phis",
      "central pair sequence fails exactness"]),
    # kernel and image of the pair sequence both differ: named once
    (C12, 3, "both=1", (True, True, False),
     ["central pair sequence fails exactness"]),
]


@pytest.mark.parametrize("extension,which,move,flags,violations", CASES,
                         ids=[f"{c[0][0]}-seq{c[1]}-{c[2]}" for c in CASES])
def test_broken_decomposition_names_its_sequence(monkeypatch, extension, which,
                                                 move, flags, violations):
    expr, members = extension
    G = parse_catalog_expression(expr)
    ext = wells.extension_from(G, G.subgroup(members))
    assert verify_exactness(ext)["violations"] == []
    target = _pick(aut_subgroups(ext), which).image
    real = wells.triple_of

    def broken(e, autos):
        theta, phi, chi = real(e, autos)
        theta, phi = theta.copy(), phi.copy()
        for i in np.flatnonzero((autos.rows == target).all(axis=1)):
            theta[i], phi[i] = _moved(e, theta[i], phi[i], move)
        return theta, phi, chi

    monkeypatch.setattr(wells, "triple_of", broken)
    report = verify_exactness(ext)
    assert (report["seq_1_1"], report["seq_1_2"], report["seq_1_3"]) == flags
    assert report["violations"] == violations
