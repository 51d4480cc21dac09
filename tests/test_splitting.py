"""Starred kernels, split detection, and homomorphic sections, with the
extraspecial family pinned down through its commutator pairing."""

import pytest

from extlift import (BoundExceeded, FiniteGroup, NotCentral,
                     NotExtraspecialShape, NotSplit, ParentMismatch, Subgroup,
                     automorphism_group, canonical_sections, catalog,
                     commutator_form, config,
                     extend_automorphism, extension_from, is_form_preserving,
                     is_split_extension, lift_automorphism, lift_pair,
                     NotCompatible, section_search, shipped_corpus,
                     split_kernels, triple_of)
from extlift.groups import GroupAutomorphism, center, derived_subgroup
from extlift.reports import corpus_pairs
from extlift.splitting import _verify_section
from extlift.wells import aut_subgroups, compatible_pairs, slice_pair

from oracles import (has_complement, reference_canonical_section_images,
                     reference_commutator_values, reference_section_search,
                     section_is_homomorphism)
from test_wells import _alt4


def _named_cases():
    s3 = catalog("dihedral", 6)
    d8 = catalog("dihedral", 8)
    q8 = catalog("quaternion", 8)
    z4 = catalog("cyclic", 4)
    z6 = catalog("cyclic", 6)
    z9 = catalog("cyclic", 9)
    d12 = catalog("dihedral", 12)
    a4 = _alt4()
    return {
        "s3_rot": (s3, Subgroup(s3, [0, 1, 2])),
        "d8_center": (d8, center(d8)),
        "d8_rot": (d8, Subgroup(d8, [0, 1, 2, 3])),
        "q8_center": (q8, center(q8)),
        "z4_half": (z4, Subgroup(z4, [0, 2])),
        "z6_third": (z6, Subgroup(z6, [0, 2, 4])),
        "z6_whole": (z6, Subgroup(z6, range(6))),
        "z9_third": (z9, Subgroup(z9, [0, 3, 6])),
        "d12_rot": (d12, Subgroup(d12, [0, 1, 2, 3, 4, 5])),
        "a4_klein": (a4, derived_subgroup(a4)),
    }


def test_split_detection_matches_complement_search():
    for name, (G, N) in _named_cases().items():
        ext = extension_from(G, N)
        ok, witness = is_split_extension(ext)
        assert ok == has_complement(G, N), name
        if ok:
            members = witness.complement.member_set
            assert members & N.member_set == {0}
            assert len(members) == ext.H.order
            for x in range(ext.H.order):
                assert ext.pi(witness.section(x)) == x
        else:
            assert witness is None


def test_expected_split_verdicts():
    verdicts = {name: is_split_extension(extension_from(G, N))[0]
                for name, (G, N) in _named_cases().items()}
    assert verdicts == {
        "s3_rot": True, "d8_center": False, "d8_rot": True,
        "q8_center": False, "z4_half": False, "z6_third": True,
        "z6_whole": True, "z9_third": False, "d12_rot": True,
        "a4_klein": True,
    }


def test_starred_sets_match_direct_solves():
    for name, (G, N) in _named_cases().items():
        ext = extension_from(G, N)
        stars = split_kernels(ext)
        pairs, c1, c2 = compatible_pairs(ext)

        def extends(th):
            try:
                return extend_automorphism(ext, th) is not None
            except NotCompatible:
                return False

        assert {th.image for th in stars.c1_star} == \
            {th.image for th in c1 if extends(th)}, name
        assert {ph.image for ph in stars.c2_star} == \
            {ph.image for ph in c2
             if lift_automorphism(ext, ph) is not None}, name
        if ext.central:
            assert {(p.theta.image, p.phi.image) for p in stars.c_star} == \
                {(p.theta.image, p.phi.image) for p in pairs
                 if lift_pair(ext, p.theta, p.phi) is not None}, name
        else:
            assert stars.c_star is None


def test_canonical_sections_on_split_extensions():
    for name, (G, N) in _named_cases().items():
        ext = extension_from(G, N)
        if not is_split_extension(ext)[0]:
            with pytest.raises(NotSplit):
                canonical_sections(ext)
            continue
        psi1, psi2, psi = canonical_sections(ext)
        for th, gamma in zip(psi1.domain, psi1.images):
            tr = triple_of(ext, gamma)
            assert tr.theta.image == th.image
            assert tr.phi.is_identity
        for ph, gamma in zip(psi2.domain, psi2.images):
            tr = triple_of(ext, gamma)
            assert tr.phi.image == ph.image
            assert tr.theta.is_identity
        if ext.central:
            for pair, gamma in zip(psi.domain, psi.images):
                tr = triple_of(ext, gamma)
                assert tr.theta.image == pair.theta.image
                assert tr.phi.image == pair.phi.image
        else:
            assert psi is None


def test_canonical_sections_match_the_element_reference():
    """The images of the canonical sections are the maps t'(x) n ->
    t'(phi x) theta(n) built element by element, on every split corpus
    extension and on N = 1 and N = G."""
    d8, z6 = catalog("dihedral", 8), catalog("cyclic", 6)
    cases = [(G, N) for G in shipped_corpus() for N in corpus_pairs(G)]
    split = 0
    for G, N in cases + [(d8, Subgroup(d8, [0])), (z6, Subgroup(z6, range(6)))]:
        ext = extension_from(G, N)
        ok, witness = is_split_extension(ext)
        if not ok:
            continue
        split += 1
        for which, sec in enumerate(canonical_sections(ext), start=1):
            if sec is None:
                continue
            pairs = [slice_pair(ext, which, m) for m in sec.domain]
            assert [g.image for g in sec.images] == \
                reference_canonical_section_images(ext, witness.section, pairs)
    assert split == 82


def test_commutator_form_matches_the_element_reference():
    """The form's values are the commutators' coordinates, one at a time,
    and is_form_preserving is the pairwise comparison, wherever the corpus
    has the extraspecial shape."""
    shaped = 0
    for G in shipped_corpus():
        for N in corpus_pairs(G):
            ext = extension_from(G, N)
            try:
                form = commutator_form(ext)
            except NotExtraspecialShape:
                continue
            shaped += 1
            ref = reference_commutator_values(ext)
            assert not form.values.flags.writeable
            again = commutator_form(ext)
            assert form == again and not form != again
            assert hash(form) == hash(again)
            assert tuple(tuple(map(tuple, row)) for row in form.values.tolist()) == ref
            h = ext.H.order
            for x in range(h):
                for y in range(h):
                    assert form(x, y) == ref[x][y]
            for ph in automorphism_group(ext.H):
                assert is_form_preserving(ext, ph) == all(
                    ref[ph(x)][ph(y)] == ref[x][y]
                    for x in range(h) for y in range(h))
    assert shaped == 2


def test_section_images_compose_like_their_domain():
    z6 = catalog("cyclic", 6)
    ext = extension_from(z6, Subgroup(z6, [0, 2, 4]))
    psi1, psi2, psi = canonical_sections(ext)
    for sec in (psi1, psi2):
        pos = {m.image: i for i, m in enumerate(sec.domain)}
        for i, a in enumerate(sec.domain):
            for j, b in enumerate(sec.domain):
                k = pos[tuple(a.image[v] for v in b.image)]
                assert sec.images[i].compose(sec.images[j]).image == \
                    sec.images[k].image


def test_section_search_agrees_on_split_cases():
    for name, (G, N) in _named_cases().items():
        ext = extension_from(G, N)
        if not is_split_extension(ext)[0]:
            continue
        assert section_search(ext, 1) is not None, name
        assert section_search(ext, 2) is not None, name
        if ext.central:
            assert section_search(ext, 3) is not None, name


def test_quotient_sequence_splits_even_when_extension_does_not():
    for maker in (lambda: catalog("dihedral", 8),
                  lambda: catalog("quaternion", 8)):
        G = maker()
        ext = extension_from(G, center(G))
        assert not is_split_extension(ext)[0]
        sec = section_search(ext, 2)
        assert sec is not None
        for ph, gamma in zip(sec.domain, sec.images):
            tr = triple_of(ext, gamma)
            assert tr.phi.image == ph.image
            assert tr.theta.is_identity


def test_starred_orders_on_extraspecial_pair():
    d8 = catalog("dihedral", 8)
    q8 = catalog("quaternion", 8)
    assert len(split_kernels(extension_from(d8, center(d8))).c2_star) == 2
    assert len(split_kernels(extension_from(q8, center(q8))).c2_star) == 6


def test_heisenberg_restriction_kernel_is_trivial():
    heis = catalog("heisenberg", 3)
    ext = extension_from(heis, center(heis))
    stars = split_kernels(ext)
    assert [th.image for th in stars.c1_star] == [(0, 1, 2)]


def test_commutator_form_is_the_symplectic_pairing():
    for maker in (lambda: catalog("dihedral", 8),
                  lambda: catalog("quaternion", 8)):
        G = maker()
        ext = extension_from(G, center(G))
        form = commutator_form(ext)
        assert form.moduli == (2,)
        for x in range(4):
            for y in range(4):
                expect = (1,) if 0 != x != y != 0 else (0,)
                assert form(x, y) == expect


def test_squaring_map_separates_the_two_extraspecial_types():
    zeros = {}
    stabilizers = {}
    for name in ("dihedral", "quaternion"):
        G = catalog(name, 8)
        ext = extension_from(G, center(G))
        t = ext.transversal
        q = [ext.coeffs.coords_of_member(G.mul(t[x], t[x]))[0]
             for x in range(4)]
        assert q[0] == 0
        zeros[name] = sum(1 for v in q if v == 0)
        keep = {ph.image for ph in automorphism_group(ext.H)
                if is_form_preserving(ext, ph)
                and all(q[ph(x)] == q[x] for x in range(4))}
        stabilizers[name] = keep
        stars = split_kernels(ext)
        assert {ph.image for ph in stars.c2_star} == keep
    assert zeros == {"dihedral": 3, "quaternion": 1}
    assert len(stabilizers["dihedral"]) == 2
    assert len(stabilizers["quaternion"]) == 6


def test_form_preservation_is_necessary_but_not_sufficient():
    d8 = catalog("dihedral", 8)
    ext = extension_from(d8, center(d8))
    preserving = [ph for ph in automorphism_group(ext.H)
                  if is_form_preserving(ext, ph)]
    assert len(preserving) == 6
    stars = split_kernels(ext)
    starred = {ph.image for ph in stars.c2_star}
    assert starred < {ph.image for ph in preserving}


def test_commutator_form_shape_requirements():
    z4 = catalog("cyclic", 4)
    with pytest.raises(NotExtraspecialShape):
        commutator_form(extension_from(z4, Subgroup(z4, [0, 2])))
    s3 = catalog("dihedral", 6)
    with pytest.raises(NotExtraspecialShape):
        commutator_form(extension_from(s3, Subgroup(s3, [0, 1, 2])))
    d12 = catalog("dihedral", 12)
    with pytest.raises(NotExtraspecialShape):
        commutator_form(extension_from(d12, Subgroup(d12, range(6))))
    d16 = catalog("dihedral", 16)
    with pytest.raises(NotExtraspecialShape):
        commutator_form(extension_from(d16, center(d16)))


def test_section_search_argument_validation(monkeypatch):
    d8 = catalog("dihedral", 8)
    ext = extension_from(d8, center(d8))
    with pytest.raises(ParentMismatch):
        section_search(ext, 4)
    a4 = _alt4()
    noncentral = extension_from(a4, derived_subgroup(a4))
    with pytest.raises(NotCentral):
        section_search(noncentral, 3)
    monkeypatch.setattr(config, "DEFAULT_SECTION_BOUND", 1)
    with pytest.raises(BoundExceeded):
        section_search(ext, 2)


def test_section_search_matches_the_abstract_table_search():
    """The search over pair keys and image tuples returns the domain, the
    images in order, the None or the bound refusal of the search over two
    abstract Cayley tables, on every corpus extension and sequence."""
    heis = catalog("heisenberg", 3)
    z16 = catalog("cyclic", 16)
    exts = [extension_from(G, N) for G in shipped_corpus() for N in corpus_pairs(G)]
    exts += [extension_from(heis, center(heis)),
             extension_from(z16, Subgroup(z16, [0, 8]))]
    exhausted = refused = 0
    for ext in exts:
        for which in (1, 2, 3) if ext.central else (1, 2):
            try:
                want = reference_section_search(ext, which)
            except BoundExceeded as exc:
                with pytest.raises(BoundExceeded) as got:
                    section_search(ext, which)
                assert str(got.value) == str(exc)
                refused += 1
                continue
            got = section_search(ext, which)
            if want is None:
                assert got is None, (ext.G.name, which)
                exhausted += 1
                continue
            assert got.domain == want.domain, (ext.G.name, which)
            assert [g.image for g in got.images] == \
                [g.image for g in want.images], (ext.G.name, which)
    assert exhausted > 0 and refused > 0


def test_section_search_builds_no_cayley_table(monkeypatch):
    heis = catalog("heisenberg", 3)
    ext = extension_from(heis, center(heis))
    assert section_search(ext, 2) is not None      # caches the facts
    built = []
    real = FiniteGroup.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "__init__", counting)
    assert section_search(ext, 2) is not None
    assert built == []


def _split_sections():
    """Canonical sections of split corpus extensions with a nontrivial
    kernel Aut^{N,H}(G) and starred sets of up to 8 elements."""
    cases = {"elemab2_3": (0, 1), "prod_c2_d8": (0, 8),
             "dihedral16": tuple(range(8)), "heisenberg3": tuple(range(9))}
    for G in shipped_corpus():
        if G.name in cases:
            ext = extension_from(G, Subgroup(G, cases[G.name]))
            for sec in canonical_sections(ext):
                if sec is not None:
                    yield G.name, ext, sec


def test_section_with_two_images_swapped_is_rejected():
    swapped = 0
    for name, ext, sec in _split_sections():
        if len(sec.domain) < 3:
            continue
        images = list(sec.images)
        images[1], images[2] = images[2], images[1]
        with pytest.raises(AssertionError, match="projects to the wrong element"):
            _verify_section(ext, sec._replace(images=tuple(images)))
        swapped += 1
    assert swapped >= 4


def test_section_with_an_image_moved_inside_its_fiber_is_rejected():
    """f(a) -> f(a) k for k fixing N and H keeps every projection, so only
    the homomorphism check can object; on domains of order at least 3 the
    changed map is never a homomorphism (the all-pairs check agrees)."""
    rejected = 0
    for name, ext, sec in _split_sections():
        assert section_is_homomorphism(sec)
        _verify_section(ext, sec)
        kernel = [k for k in aut_subgroups(ext).aut_upper_N_H
                  if not k.is_identity]
        for i in range(len(sec.domain)):
            for k in kernel:
                images = list(sec.images)
                images[i] = images[i].compose(k)
                bad = sec._replace(images=tuple(images))
                assert not section_is_homomorphism(bad)
                with pytest.raises(AssertionError,
                                   match="section is not a homomorphism"):
                    _verify_section(ext, bad)
                rejected += 1
    assert rejected >= 100
