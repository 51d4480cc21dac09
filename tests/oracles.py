"""Independent brute-force oracles the test suite checks the package against.

Everything here recomputes answers from definitions by exhaustive
enumeration, deliberately avoiding the constructive machinery under
test.  Shared infrastructure (Cayley tables, automorphism enumeration)
is reused only after being validated against the full-permutation scan
in test_groups.
"""

from __future__ import annotations

import itertools
from collections import deque
from math import prod
from typing import Optional, Sequence

import numpy as np

from extlift import (BoundExceeded, FiniteGroup, NotCentral, NotCompatible,
                     ParentMismatch, Subgroup, SylowCheck,
                     SylowNotInvariant, SylowReport, all_subgroups,
                     automorphism_group, config, extend_automorphism,
                     generating_set, hom_by_generator_images,
                     lift_automorphism, lift_pair, local_extension,
                     quotient_sylows, restrict_to_quotient_sylow,
                     sylow_preimage, wells_cocycle_phi, wells_cocycle_theta)
from extlift.abelian import restrict_to_matrix
from extlift.cohomology import (OneCochain, TwoCochain, coboundary_of,
                                trivial_action)
from extlift.groups import (GroupAutomorphism, _compose_pair, _compose_perm,
                            prime_factors)
from extlift.intlin import ext_gcd, kernel_order
from extlift.splitting import (Section, _pair_keys, _verify_section,
                               split_kernels)
from extlift.wells import (_induced_pair, aut_subgroups, compatible_pairs,
                           pair_key, sequence_autos, slice_pair)

# total normalized-cochain assignments a brute H^2 enumeration may visit
H2_SPACE_BOUND = 2 ** 16


def _lists(a):
    """Nested Python-int lists of an array or nested sequence (None stays None),
    so the loops below do plain integer arithmetic."""
    return None if a is None else np.asarray(a).tolist()


def element_order(G: FiniteGroup, a: int) -> int:
    n, x = 1, a
    while x != 0:
        x = G.table[x][a]
        n += 1
    return n


def brute_automorphisms(G: FiniteGroup) -> list[tuple[int, ...]]:
    """Filter all |G|! permutations; only sane for |G| <= 8."""
    t = G.table
    n = G.order
    found = []
    for perm in itertools.permutations(range(n)):
        if perm[0] != 0:
            continue
        if all(perm[t[a][b]] == t[perm[a]][perm[b]]
               for a in range(n) for b in range(n)):
            found.append(perm)
    return found


def aut_normalizing(G: FiniteGroup, N: Subgroup) -> set[tuple[int, ...]]:
    """Automorphisms of G mapping N onto itself, by exhaustive filtering."""
    return {a.image for a in automorphism_group(G)
            if {a.image[m] for m in N.members} == set(N.members)}


def _coset_map(G: FiniteGroup, N: Subgroup, image: tuple[int, ...]):
    """The map induced on cosets by image, as {coset repr -> coset repr}."""
    reps = {}
    for g in range(G.order):
        key = min(G.table[g][m] for m in N.members)
        reps.setdefault(key, key)
    out = {}
    for key in reps:
        out[key] = min(G.table[image[key]][m] for m in N.members)
    return out


def _acts_trivially_on_quotient(G: FiniteGroup, N: Subgroup,
                                image: tuple[int, ...]) -> bool:
    mem = N.member_set
    return all(G.table[G.inverse[image[g]]][g] in mem for g in range(G.order))


def extension_witnesses(G: FiniteGroup, N: Subgroup,
                        theta_image: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Automorphisms of G restricting to theta on N, trivial on G/N."""
    out = []
    for a in automorphism_group(G):
        img = a.image
        if all(img[m] == theta_image[m] for m in N.members) \
                and _acts_trivially_on_quotient(G, N, img):
            out.append(img)
    return out


def lift_witnesses(G: FiniteGroup, N: Subgroup,
                   coset_action: dict[int, int]) -> list[tuple[int, ...]]:
    """Automorphisms of G fixing N pointwise and inducing the given
    minimal-representative coset map."""
    out = []
    for a in automorphism_group(G):
        img = a.image
        if any(img[m] != m for m in N.members):
            continue
        induced = _coset_map(G, N, img)
        if induced == coset_action:
            out.append(img)
    return out


def pair_witnesses(G: FiniteGroup, N: Subgroup, theta_image: tuple[int, ...],
                   coset_action: dict[int, int]) -> list[tuple[int, ...]]:
    out = []
    for a in automorphism_group(G):
        img = a.image
        if all(img[m] == theta_image[m] for m in N.members) \
                and _coset_map(G, N, img) == coset_action:
            out.append(img)
    return out


def has_complement(G: FiniteGroup, N: Subgroup) -> bool:
    """Split test from the definition: some subgroup meets N trivially
    and has complementary order."""
    want = G.order // N.order
    for K in all_subgroups(G):
        if K.order == want and len(N.member_set & K.member_set) == 1:
            return True
    return False


def h2_search_space(h: int, moduli: tuple[int, ...]) -> int:
    return prod(moduli) ** ((h - 1) * (h - 1))


def brute_cohomology(H: FiniteGroup, moduli: tuple[int, ...],
                     action=None) -> tuple[int, int, int]:
    """(|Z^2|, |B^2|, |H^2|) on normalized cochains by full enumeration.

    action maps H-index -> k x k matrix (list of rows) acting on column
    vectors; None means trivial.  All arithmetic is inlined on purpose.
    """
    h = H.order
    k = len(moduli)
    t = H.table
    if h2_search_space(h, moduli) > H2_SPACE_BOUND:
        raise ValueError("search space too large for the brute oracle")
    if action is None:
        ident = tuple(tuple(1 if i == j else 0 for j in range(k))
                      for i in range(k))
        action = [ident] * h
    else:
        action = _lists(action)

    def apply(x, vec):
        M = action[x]
        return tuple(sum(M[i][j] * vec[j] for j in range(k)) % moduli[i]
                     for i in range(k))

    def add(u, v):
        return tuple((a + b) % m for a, b, m in zip(u, v, moduli))

    vectors = list(itertools.product(*[range(m) for m in moduli]))
    zero = (0,) * k
    slots = [(x, y) for x in range(1, h) for y in range(1, h)]
    triples = [(x, y, z) for x in range(h) for y in range(h) for z in range(h)]

    z2 = 0
    for combo in itertools.product(vectors, repeat=len(slots)):
        f = [[zero] * h for _ in range(h)]
        for (x, y), vec in zip(slots, combo):
            f[x][y] = vec
        ok = True
        for x, y, z in triples:
            left = add(f[t[x][y]][z], apply(z, f[x][y]))
            right = add(f[x][t[y][z]], f[y][z])
            if left != right:
                ok = False
                break
        if ok:
            z2 += 1

    coboundaries = set()
    for combo in itertools.product(vectors, repeat=h - 1):
        chi = [zero] + list(combo)
        delta = []
        for x in range(h):
            for y in range(h):
                minus = tuple((-a) % m for a, m in zip(add(chi[y], apply(y, chi[x])),
                                                       moduli))
                delta.append(add(chi[t[x][y]], minus))
        coboundaries.add(tuple(delta))
    b2 = len(coboundaries)
    assert z2 % b2 == 0
    return z2, b2, z2 // b2


def _apply(action, moduli, x, vec):
    """A(x) vec reduced mod the moduli; action None is the identity."""
    k = len(moduli)
    if action is None:
        return tuple(v % m for v, m in zip(vec, moduli))
    M = action[x]
    return tuple(sum(M[i][j] * vec[j] for j in range(k)) % moduli[i]
                 for i in range(k))


def brute_cocycle_defect(f, action=None):
    """First (x, y, z) of non-identity elements, in lexicographic order,
    where f(xy,z) + A(z) f(x,y) = f(x,yz) + f(y,z) fails, or None."""
    H, moduli, vals = f.group, f.moduli, _lists(f.values)
    action = _lists(action)
    t = H.table
    for x in range(1, H.order):
        for y in range(1, H.order):
            for z in range(1, H.order):
                acted = _apply(action, moduli, z, vals[x][y])
                left = tuple((a + b) % m for a, b, m in
                             zip(vals[t[x][y]][z], acted, moduli))
                right = tuple((a + b) % m for a, b, m in
                              zip(vals[x][t[y][z]], vals[y][z], moduli))
                if left != right:
                    return (x, y, z)
    return None


def brute_triple_defect(ext, T, phi_image, chi_values):
    """First failure of the triple conditions by direct loops, or None.

    T is theta's coordinate matrix.  Condition (3), T A(x) = A(phi x) T,
    is tried for every x first; then condition (2),
    mu(phi x, phi y) - T mu(x, y) = chi(xy) - chi(y) - A(phi y) chi(x),
    for every (x, y) in lexicographic order.
    """
    moduli, action, mu = ext.moduli, _lists(ext.action), _lists(ext.mu.values)
    T, chi_values = _lists(T), _lists(chi_values)
    k = len(moduli)
    h = ext.H.order
    t = ext.H.table
    for x in range(h):
        for i in range(k):
            for j in range(k):
                left = sum(T[i][l] * action[x][l][j] for l in range(k))
                right = sum(action[phi_image[x]][i][l] * T[l][j] for l in range(k))
                if (left - right) % moduli[i]:
                    return ("(3)", x)
    for x in range(h):
        for y in range(h):
            moved = [sum(T[i][j] * mu[x][y][j] for j in range(k))
                     for i in range(k)]
            acted = _apply(action, moduli, phi_image[y], chi_values[x])
            for i in range(k):
                left = mu[phi_image[x]][phi_image[y]][i] - moved[i]
                right = chi_values[t[x][y]][i] - chi_values[y][i] - acted[i]
                if (left - right) % moduli[i]:
                    return ("(2)", (x, y))
    return None


def reference_chi(ext, gamma) -> tuple:
    """chi(x) = t(phi x)^-1 gamma(t(x)) of the triple of gamma, with
    phi(x) = pi(gamma(t(x))), element by element: the body triple_of had
    before it read the coordinate tables of ExtensionData."""
    G, t = ext.G, ext.transversal
    out = []
    for x in range(ext.H.order):
        image = gamma(t[x])
        c = G.mul(G.inv(t[ext.pi(image)]), image)
        out.append(ext.coeffs.coords_of_member(c))
    return tuple(out)


def reference_z2_order(H: FiniteGroup, moduli: tuple[int, ...], action=None) -> int:
    """|Z^2| with the cocycle identity imposed at every (y, z): the body
    CohomologyGroup._z2_order had before it imposed it at generator middle
    arguments only (the reference for it).  action is a validated
    (h, k, k) array or None."""
    h, k = H.order, len(moduli)
    if h == 1 or k == 0:
        return 1
    G = H
    mul = G.mul
    tab = G.cayley
    d = np.array(moduli, dtype=np.int64)
    gens = generating_set(G)
    ns = len(gens)
    r = (h - 1) * ns * k
    mats = trivial_action(G, moduli) if action is None else action

    # express every f(x, y) linearly in the slice values f(x, s), s a
    # generator, by peeling the second argument along a breadth-first
    # spanning tree: f(x, s w) = f(x s, w) + A(w) f(x, s) - f(s, w)
    dmod = d.reshape(1, k, 1)
    # f(x, s) for the si-th generator s is slice unknown ((x-1)*ns + si)*k + c
    slice_units = np.eye(r, dtype=np.int64).reshape(h - 1, ns, k, r)
    E: dict[int, np.ndarray] = {0: np.zeros((h, k, r), dtype=np.int64)}
    queue = deque([0])
    while queue:
        w = queue.popleft()
        for si, s in enumerate(gens):
            y = mul(s, w)
            if y in E:
                continue
            if w == 0:
                E[y] = np.concatenate([E[0][:1], slice_units[:, si]])
            else:
                E[y] = (E[w][tab[:, s]]
                        + np.einsum("ci,xir->xcr", mats[w], E[s])
                        - E[w][s][None, :, :]) % dmod
            queue.append(y)
    if len(E) != h:
        raise AssertionError("generating set does not reach the whole group")

    found: dict[bytes, tuple[np.ndarray, int]] = {}
    flat_mod = np.tile(d, h - 1)
    for y in range(1, h):
        Ey = E[y]
        for z in range(1, h):
            Ez = E[z]
            yz = mul(y, z)
            block = (Ez[tab[:, y]]
                     + np.einsum("ci,xir->xcr", mats[z], Ey)
                     - E[yz]
                     - Ez[y][None, :, :])[1:]
            flat = block.reshape((h - 1) * k, r) % flat_mod[:, None]
            # identical congruences are common: keep one of each
            for i in np.flatnonzero(flat.any(axis=1)).tolist():
                found.setdefault(flat[i].tobytes() + bytes([i % k]),
                                 (flat[i], int(flat_mod[i])))
    rows = np.array([row for row, _ in found.values()], dtype=np.int64)
    return kernel_order(rows.reshape(-1, r), [m for _, m in found.values()],
                        np.tile(d, (h - 1) * ns))


def greedy_generating_set(G: FiniteGroup) -> list[int]:
    """Repeatedly adjoin the smallest element outside the subgroup generated
    so far (the reference for groups.generating_set)."""
    gens: list[int] = []
    cl = (0,)
    while len(cl) < G.order:
        have = set(cl)
        gens.append(next(x for x in range(G.order) if x not in have))
        cl = G.closure(gens)
    return gens


def reference_automorphisms(G: FiniteGroup) -> list[tuple[int, ...]]:
    """Image tuples of Aut G, sorted: the recursive search groups.automorphism_group
    used before its level-by-level array search (the reference for it).
    Each generator image is tried in turn and the map closed from the
    identity by hom_by_generator_images; a full map is kept when bijective."""
    gens = generating_set(G)
    orders = G.element_orders()
    cands = [[x for x in range(G.order) if orders[x] == orders[g]] for g in gens]
    found: list[tuple[int, ...]] = []

    # m is the map closed from pairs; each generator list is closed once
    def walk(depth: int, pairs: list[tuple[int, int]], m: dict[int, int]) -> None:
        if depth == len(gens):
            if len(m) == G.order and len(set(m.values())) == G.order:
                found.append(tuple(m[a] for a in range(G.order)))
            return
        for y in cands[depth]:
            chosen = pairs + [(gens[depth], y)]
            grown = hom_by_generator_images(G, G, chosen)
            if grown is not None:
                walk(depth + 1, chosen, grown)

    walk(0, [], {0: 0})
    found.sort()
    return found


def require_closed_quadratic(keys, mul) -> None:
    """The all-pairs closure check, the reference for groups.require_closed:
    every product of two members must be a member."""
    have = set(keys)
    for a in keys:
        for b in keys:
            if mul(a, b) not in have:
                raise AssertionError("starred set is not closed under composition")


def section_is_homomorphism(sec) -> bool:
    """Whether a splitting.Section satisfies f(ab) = f(a) f(b) on all pairs."""
    def mul(p, q):
        return tuple(p[v] for v in q)

    if sec.sequence == 3:
        keys = [(m.theta.image, m.phi.image) for m in sec.domain]

        def key_mul(a, b):
            return (mul(a[0], b[0]), mul(a[1], b[1]))
    else:
        keys = [m.image for m in sec.domain]
        key_mul = mul
    index = {k: i for i, k in enumerate(keys)}
    images = [f.image for f in sec.images]
    return all(mul(images[i], images[j]) == images[index[key_mul(a, b)]]
               for i, a in enumerate(keys) for j, b in enumerate(keys))


# The section search over two validated abstract Cayley tables, one over the
# starred set and one over the candidate automorphisms, as it stood before
# it ran over pair keys and image tuples; kept as the reference for
# extlift.splitting.section_search.

def _abstract_group(keys, compose, identity) -> tuple[FiniteGroup, dict]:
    """Composition table over hashable keys; the identity is placed first."""
    if identity not in keys:
        raise AssertionError("candidate set has no identity element")
    ordered = [identity] + [k for k in keys if k != identity]
    pos = {k: i for i, k in enumerate(ordered)}
    table = [[pos[compose(a, b)] for b in ordered] for a in ordered]
    return FiniteGroup(table, name=f"abstract{len(keys)}"), pos


def reference_section_search(ext, which: int):
    """Search for a homomorphic section of sequence 1, 2 or 3.

    Generators of the starred group get images from their projection
    fibers, constrained to matching element order (sections are injective),
    and each full assignment is extended by word closure; the first
    consistent extension is returned verified.  None means exhaustion, so
    the sequence genuinely does not split.
    """
    if which not in (1, 2, 3):
        raise ParentMismatch(f"sequence selector must be 1, 2 or 3, got {which}")
    if which == 3 and not ext.central:
        raise NotCentral("pair sequence only exists for central extensions")
    domain = split_kernels(ext)[which - 1]
    if len(domain) > config.DEFAULT_SECTION_BOUND:
        raise BoundExceeded(
            f"starred set of order {len(domain)} exceeds the section "
            f"search bound {config.DEFAULT_SECTION_BOUND}")
    cands = sequence_autos(aut_subgroups(ext), which)

    keys = _pair_keys(ext, which, domain)
    S, spos = _abstract_group(keys, _compose_pair, pair_key(ext.id_pair))
    members = [None] * len(domain)
    for i, m in enumerate(domain):
        members[spos[keys[i]]] = m

    ckeys = [g.image for g in cands]
    T, cpos = _abstract_group(ckeys, _compose_perm, tuple(range(ext.G.order)))
    tmembers = [None] * len(cands)
    for g in cands:
        tmembers[cpos[g.image]] = g

    proj = [spos[_induced_pair(ext, tmembers[i])] for i in range(T.order)]
    fibers = [[i for i in range(T.order) if proj[i] == s] for s in range(S.order)]
    if any(not f for f in fibers):
        raise AssertionError("projection misses a starred element")

    gens = generating_set(S)
    s_orders = S.element_orders()
    t_orders = T.element_orders()
    choices = [[c for c in fibers[g] if t_orders[c] == s_orders[g]] for g in gens]

    def walk(depth: int, picked: list) -> Optional[dict]:
        if depth == len(gens):
            return hom_by_generator_images(S, T, list(zip(gens, picked)))
        for c in choices[depth]:
            got = walk(depth + 1, picked + [c])
            if got is not None:
                return got
        return None

    found = walk(0, [])
    if found is None:
        return None
    sec = Section(which,
                  tuple(members),
                  tuple(tmembers[found[i]] for i in range(S.order)))
    _verify_section(ext, sec)
    return sec


# The prime-by-prime loops of the Sylow reduction as three separate copies,
# one per question, kept as the reference for extlift.reduction.

def _reference_local_theta(ext, local, theta):
    if local.ext is ext:
        return theta
    return GroupAutomorphism(local.ext.n_group, theta.image)


def _leaves_invariant(phi, S) -> bool:
    return all(phi(s) in S.member_set for s in S.members)


def reference_sylow_lift_check(ext, phi):
    """Invariant Sylows in order until one lifts; global lift on success."""
    reports = []
    for p in prime_factors(ext.H.order):
        report = None
        for S in quotient_sylows(ext, p):
            if not _leaves_invariant(phi, S):
                continue
            local = local_extension(ext, sylow_preimage(ext, p, S))
            rphi = restrict_to_quotient_sylow(ext, local, phi)
            index = ext.H.order // local.ext.H.order
            try:
                w = lift_automorphism(local.ext, rphi)
            except NotCompatible:
                cand = SylowReport(p, local.subgroup, index, False, False,
                                   None, None)
            else:
                if w is None:
                    cls = local.ext.cohomology.class_of(
                        wells_cocycle_phi(local.ext, rphi))
                    cand = SylowReport(p, local.subgroup, index, True, False,
                                       None, cls)
                else:
                    cand = SylowReport(p, local.subgroup, index, True, True,
                                       w, None)
            if report is None or cand.local_ok:
                report = cand
            if cand.local_ok:
                break
        if report is None:
            raise SylowNotInvariant(f"no invariant Sylow {p}-subgroup")
        reports.append(report)
    verdict = all(r.local_ok for r in reports)
    witness = None
    if verdict:
        witness = lift_automorphism(ext, phi)
        assert witness is not None
    return SylowCheck(verdict, tuple(reports), witness)


def reference_sylow_extend_check(ext, theta):
    """The deterministically grown Sylow only, at every prime."""
    reports = []
    for p in prime_factors(ext.H.order):
        local = local_extension(ext, sylow_preimage(ext, p))
        th = _reference_local_theta(ext, local, theta)
        index = ext.H.order // local.ext.H.order
        try:
            w = extend_automorphism(local.ext, th)
        except NotCompatible:
            reports.append(SylowReport(p, local.subgroup, index, False, False,
                                       None, None))
            continue
        if w is None:
            cls = local.ext.cohomology.class_of(
                wells_cocycle_theta(local.ext, th))
            reports.append(SylowReport(p, local.subgroup, index, True, False,
                                       None, cls))
        else:
            reports.append(SylowReport(p, local.subgroup, index, True, True,
                                       w, None))
    verdict = all(r.local_ok for r in reports)
    try:
        witness = extend_automorphism(ext, theta)
    except NotCompatible:
        witness = None
    assert verdict == (witness is not None)
    return SylowCheck(verdict, tuple(reports), witness if verdict else None)


def reference_central_pair_mode(ext, theta, phi) -> dict:
    """The central_pair_mode entry of corollary_predicates."""
    locals_ok = True
    per_prime = []
    for p in prime_factors(ext.H.order):
        found = None
        for S in quotient_sylows(ext, p):
            if not _leaves_invariant(phi, S):
                continue
            local = local_extension(ext, sylow_preimage(ext, p, S))
            rphi = restrict_to_quotient_sylow(ext, local, phi)
            w = lift_pair(local.ext, _reference_local_theta(ext, local, theta),
                          rphi)
            found = w is not None
            if found:
                break
        if found is None:
            raise SylowNotInvariant(f"no invariant Sylow {p}-subgroup")
        per_prime.append({"p": p, "pair_lift": found})
        locals_ok = locals_ok and found
    global_w = lift_pair(ext, theta, phi)
    assert locals_ok == (global_w is not None)
    return {"local_verdict": locals_ok, "primes": per_prime,
            "global_found": global_w is not None}


# The pure-Python lattice engine, kept as the reference for extlift.intlin:
# the same row operations on unbounded integers, with unreduced expressions.
class TriangularLattice:
    """Upper-triangular basis of a lattice L with diag(moduli) <= L <= Z^n.

    The basis keeps one pivot row per coordinate (the initial rows are the
    moduli times unit vectors), so it stays square and triangular as vectors
    are inserted.  Each row optionally carries an integer expression vector
    recording how the row was assembled from inserted generators; reducing a
    vector against the basis then recovers generator coefficients, which is
    how coboundary witnesses are produced.
    """

    def __init__(self, moduli: Sequence[int], expr_len: int = 0):
        if any(m < 1 for m in moduli):
            raise ValueError("moduli must be positive")
        self.n = len(moduli)
        self.moduli = tuple(moduli)
        self.expr_len = expr_len
        self.rows = [[0] * self.n for _ in range(self.n)]
        for i, m in enumerate(moduli):
            self.rows[i][i] = m
        self.exprs = [[0] * expr_len for _ in range(self.n)]

    def pivot(self, i: int) -> int:
        return self.rows[i][i]

    def det(self) -> int:
        return prod(self.rows[i][i] for i in range(self.n))

    def span_order(self) -> int:
        """Order of L / diag(moduli), i.e. of the spanned subgroup of prod Z/m_i."""
        d = self.det()
        total = prod(self.moduli)
        if total % d:
            raise AssertionError("lattice does not contain the modulus lattice")
        return total // d

    def insert(self, vec: Sequence[int], expr: Optional[Sequence[int]] = None) -> None:
        """Grow the lattice by an integer vector, restoring triangular form."""
        v = list(vec)
        if len(v) != self.n:
            raise ValueError(f"expected vector of length {self.n}, got {len(v)}")
        e = [0] * self.expr_len if expr is None else list(expr)
        changed: list[int] = []
        for i in range(self.n):
            vi = v[i]
            if vi == 0:
                continue
            row = self.rows[i]
            p = row[i]
            if vi % p == 0:
                q = vi // p
                erow = self.exprs[i]
                for j in range(i, self.n):
                    v[j] -= q * row[j]
                for j in range(self.expr_len):
                    e[j] -= q * erow[j]
            else:
                g, a, b = ext_gcd(p, vi)
                pg, vg = p // g, vi // g
                erow = self.exprs[i]
                new_row = [0] * i + [a * row[j] + b * v[j] for j in range(i, self.n)]
                new_v = [0] * (i + 1) + [pg * v[j] - vg * row[j] for j in range(i + 1, self.n)]
                new_erow = [a * erow[j] + b * e[j] for j in range(self.expr_len)]
                new_e = [pg * e[j] - vg * erow[j] for j in range(self.expr_len)]
                self.rows[i] = new_row
                self.exprs[i] = new_erow
                v = new_v
                e = new_e
                changed.append(i)
        for i in changed:
            self._reduce_tail(i)

    def _reduce_tail(self, i: int) -> None:
        # keep off-pivot entries small: subtract multiples of the pivot rows below
        row = self.rows[i]
        erow = self.exprs[i]
        for j in range(i + 1, self.n):
            q = row[j] // self.rows[j][j]
            if q:
                rj = self.rows[j]
                ej = self.exprs[j]
                for l in range(j, self.n):
                    row[l] -= q * rj[l]
                for l in range(self.expr_len):
                    erow[l] -= q * ej[l]

    def reduce(self, vec: Sequence[int]) -> Optional[list[int]]:
        """Express vec over the basis; return the generator expression or None.

        Returns the accumulated expression vector when vec lies in the
        lattice, None otherwise.  The basis is not modified.
        """
        v = list(vec)
        if len(v) != self.n:
            raise ValueError(f"expected vector of length {self.n}, got {len(v)}")
        acc = [0] * self.expr_len
        for i in range(self.n):
            vi = v[i]
            if vi == 0:
                continue
            row = self.rows[i]
            p = row[i]
            if vi % p:
                return None
            q = vi // p
            for j in range(i, self.n):
                v[j] -= q * row[j]
            erow = self.exprs[i]
            for j in range(self.expr_len):
                acc[j] += q * erow[j]
        return acc

    def contains(self, vec: Sequence[int]) -> bool:
        return self.reduce(vec) is not None

    def remainder(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Canonical coset representative of vec modulo the lattice.

        Every coordinate is a pivot column, so reducing each entry into
        [0, pivot) left to right leaves a unique representative: two reduced
        vectors in one coset differ by a lattice element whose first nonzero
        entry would be a pivot multiple smaller than the pivot.
        """
        v = list(vec)
        if len(v) != self.n:
            raise ValueError(f"expected vector of length {self.n}, got {len(v)}")
        for i in range(self.n):
            row = self.rows[i]
            q = v[i] // row[i]
            if q:
                for j in range(i, self.n):
                    v[j] -= q * row[j]
        return tuple(v)


def _acted(ext, values, theta=None, phi=None) -> np.ndarray:
    """Theta values o (phi x phi) for the values of a 2-cochain, Theta values
    o phi for those of a 1-cochain; a slot left out is the identity."""
    if phi is not None:
        p = np.array(phi.image, dtype=np.int64)
        values = values[p[:, None], p] if values.ndim == 3 else values[p]
    if theta is not None:
        values = values @ restrict_to_matrix(ext.coeffs, theta).T
    return values


def reference_derivation_check(ext) -> dict:
    """derivation_check one member and one pair at a time: each difference
    cocycle from wells_cocycle_theta or wells_cocycle_phi, each side of
    k_(g1 g2) = k_g1 o (phi2 x phi2) + Theta1 k_g2 as a TwoCochain, and each
    coboundary probe through coboundary_of."""
    _, c1, c2 = compatible_pairs(ext)
    m, H, cg = ext.moduli, ext.H, ext.cohomology
    action = ext.cocycle_action
    slices = ((1, "theta", c1), (2, "phi", c2))
    violations: list[str] = []
    for which, name, members in slices:
        pairs = [slice_pair(ext, which, g) for g in members]
        kg = {g.image: (wells_cocycle_theta(ext, g) if which == 1
                        else wells_cocycle_phi(ext, g)) for g in members}
        for g1, (theta1, _) in zip(members, pairs):
            for g2, (_, phi2) in zip(members, pairs):
                lhs = kg[g1.compose(g2).image]
                rhs = TwoCochain(H, m, _acted(ext, kg[g1.image].values, phi=phi2)
                                 + _acted(ext, kg[g2.image].values, theta=theta1))
                if lhs != rhs:
                    at = f"{g1.image} o {g2.image}"
                    violations.append(f"{name} derivation law fails at {at}")
                    if cg.class_of(lhs) != cg.class_of(rhs):
                        violations.append(f"{name} class law fails at {at}")
    # coboundaries stay coboundaries, probed on the first three unit
    # cochains (x = 1 + i // k, coordinate i % k) of the B^2 generators
    h, k = H.order, len(m)
    probe = []
    for i in range(min(3, (h - 1) * k)):
        unit = np.zeros(h * k, dtype=np.int64)
        unit[k + i] = 1
        chb = OneCochain(H, m, unit.reshape(h, k))
        probe.append((chb.values, coboundary_of(chb, action).values))
    for which, name, members in slices:
        for g in members[:8]:
            pair = slice_pair(ext, which, g)
            for chb, delta in probe:
                moved = TwoCochain(H, m, _acted(ext, delta, *pair))
                chi2 = OneCochain(H, m, _acted(ext, chb, *pair))
                if moved != coboundary_of(chi2, action):
                    violations.append(f"{name} action does not preserve "
                                      f"coboundaries at {g.image}")
    return {
        "c1_order": len(c1),
        "c2_order": len(c2),
        "ok": not violations,
        "violations": violations,
    }


def reference_coordinate_table(N, gens, factors) -> list[tuple]:
    """The coordinates of every element of the standalone group N, as
    tuples, by exhausting products of generator powers one element at a
    time; a duplicate or a gap raises AssertionError."""
    k = len(gens)
    coords = [None] * N.order
    coords_list = [((0,) * k, 0)]
    for i in range(k):
        extended = list(coords_list)
        x = 0
        for e in range(1, factors[i]):
            x = N.mul(x, gens[i])
            for vec, elem in coords_list:
                new = list(vec)
                new[i] = e
                extended.append((tuple(new), N.mul(elem, x)))
        coords_list = extended
    for vec, elem in coords_list:
        if coords[elem] is not None:
            raise AssertionError("duplicate coordinates for one element")
        coords[elem] = vec
    if any(c is None for c in coords):
        raise AssertionError("coordinate table incomplete")
    return coords


def reference_is_compatible(ext, theta, phi) -> bool:
    """theta o alpha_x = alpha_(phi x) o theta for every x, on permutations
    of N, with alpha_x(n) = t(x)^-1 n t(x) found by conjugation in G."""
    G, N = ext.G, ext.N
    alpha = [tuple(N.position[G.conjugate(m, tx)] for m in N.members)
             for tx in ext.transversal]
    ti = theta.image
    return all(_compose_perm(ti, alpha[x]) == _compose_perm(alpha[phi(x)], ti)
               for x in range(ext.H.order))


def reference_canonical_section_images(ext, section, pairs) -> list[tuple]:
    """For each pair (theta, phi), the map t'(x) n -> t'(phi x) theta(n) over
    the homomorphic transversal section, built element by element."""
    G, N = ext.G, ext.N
    parts = []
    for g in range(G.order):
        x = ext.pi(g)
        parts.append((x, G.mul(G.inv(section(x)), g)))
    return [tuple(G.mul(section(phi(x)), N.members[theta(N.position[n])])
                  for x, n in parts) for theta, phi in pairs]


def reference_commutator_values(ext) -> tuple:
    """values[x][y]: the N coordinates of [t(x), t(y)], one commutator at a
    time."""
    G, t, h = ext.G, ext.transversal, ext.H.order
    coords = ext.coeffs.coords_of_member
    return tuple(tuple(coords(G.commutator(t[x], t[y])) for y in range(h))
                 for x in range(h))
