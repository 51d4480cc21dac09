"""Operation lists of the three benchmark workloads.

A workload is built from a seed: set-up makes the groups and extensions
and any sampled automorphisms, then returns the operation list.  Every
operation is a closure that calls the public extlift API and returns the
program's result; `canon` turns that result into the bytes the goldens
hash, and `check` re-checks it with this benchmark's own code, which only
reads the result and the extension's tables, returning an error string
or None.

Only set-up and `run` belong to the timed regions; `canon` and `check`
run between operations.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import random
from typing import Callable, NamedTuple, Optional

WORKLOADS = ("corpus_small", "quotient_large", "aut_enum")


class Op(NamedTuple):
    key: str                                   # golden key; stable across seeds
    run: Callable[[], object]
    canon: Callable[[object], bytes]
    check: Optional[Callable[[object], Optional[str]]]


def _mod(name: str):
    # extlift/__init__ re-exports the function catalog() under the name of
    # its module, so submodules are looked up in sys.modules, not as
    # attributes of the package.
    return importlib.import_module(f"extlift.{name}")


def build(workload: str, seed: int) -> list[Op]:
    """Set up `workload` for `seed` and return its operation list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return {"corpus_small": _corpus_small,
            "quotient_large": _quotient_large,
            "aut_enum": _aut_enum}[workload](rng)


def _members(N) -> str:
    return ",".join(map(str, N.members))


# corpus_small -------------------------------------------------------------

CORPUS_SMALL_MAX_QUOTIENT = 8


def _corpus_small(rng: random.Random) -> list[Op]:
    catalog, reports, wells = _mod("catalog"), _mod("reports"), _mod("wells")
    pairs = [(G, N) for G in catalog.shipped_corpus()
             for N in reports.corpus_pairs(G)
             if G.order // N.order <= CORPUS_SMALL_MAX_QUOTIENT]
    rng.shuffle(pairs)
    ops = []
    for G, N in pairs:
        report_seed = rng.randrange(1 << 30)

        def run(G=G, N=N, report_seed=report_seed):
            rep = reports.verify_report(wells.extension_from(G, N), seed=report_seed)
            return reports.dumps(rep)

        ops.append(Op(f"verify|{G.name}|{_members(N)}", run,
                      lambda out: out.encode(), _check_report))
    return ops


def _check_report(out: str) -> Optional[str]:
    rep = json.loads(out)
    if rep.get("ok") is not True or rep.get("failures"):
        return f"report is not ok: {rep.get('failures')}"
    return None


# quotient_large -----------------------------------------------------------

# (phis, thetas) sampled per extension; each sampled automorphism is asked
# twice: lift + lambda2 for a phi, extend + lambda1 for a theta.  The large
# quotients get few questions so that one pass stays near half a minute.
# The dihedral groups over their centre grade |H| from 10 to 20 between
# the small quotients and heisenberg(5): question latencies then spread
# evenly on a log scale, so the latency percentiles fall inside a
# continuum, not on the edge of a cluster of equal questions, where a few
# percent of machine noise would move them from one cluster to the next.
QUOTIENT_SAMPLES = {
    "dihedral32/2": (4, 1),
    "heisenberg3/3": (4, 2),
    "cyclic32/2": (4, 1),
    "dihedral32/4nc": (4, 2),
    "dihedral20/2": (4, 1),
    "dihedral24/2": (4, 1),
    "dihedral28/2": (4, 1),
    "dihedral36/2": (4, 1),
    "dihedral40/2": (4, 1),
    "heisenberg5/5": (6, 2),
    "heisenberg7/7": (2, 1),
}


def quotient_extensions():
    """[(label, G, N)] for quotient_large, in a fixed order."""
    catalog, groups, reports = _mod("catalog"), _mod("groups"), _mod("reports")
    corpus = {G.name: G for G in catalog.shipped_corpus()}
    out = []
    # the corpus pairs with |H| > 8: the heavy pairs of verify-all
    for name in ("dihedral32", "heisenberg3", "cyclic32"):
        G = corpus[name]
        for N in reports.corpus_pairs(G):
            if G.order // N.order > CORPUS_SMALL_MAX_QUOTIENT:
                out.append((f"{name}/{N.order}", G, N))
    d32 = corpus["dihedral32"]
    central = groups.center(d32).member_set
    noncentral_c4 = [N for N in groups.abelian_normal_subgroups(d32)
                     if N.order == 4 and not N.member_set <= central
                     and any(d32.element_order(m) == 4 for m in N.members)]
    if len(noncentral_c4) != 1:
        raise AssertionError("dihedral32 should have one non-central cyclic C4")
    out.append(("dihedral32/4nc", d32, noncentral_c4[0]))
    for n in (20, 24, 28, 36, 40):
        G = catalog.catalog("dihedral", n)
        out.append((f"dihedral{n}/2", G, groups.center(G)))
    for p in (5, 7):
        G = catalog.catalog("heisenberg", p)
        out.append((f"heisenberg{p}/{p}", G, groups.center(G)))
    if [label for label, _, _ in out] != list(QUOTIENT_SAMPLES):
        raise AssertionError(f"unexpected extension list {[o[0] for o in out]}")
    return out


def _quotient_large(rng: random.Random) -> list[Op]:
    groups, wells = _mod("groups"), _mod("wells")
    state: dict = {"ext": {}, "verdicts": {}}
    h2_ops, queries = [], []
    for label, G, N in quotient_extensions():
        probe = wells.extension_from(G, N)
        auts_h = groups.automorphism_group(probe.H)
        auts_n = groups.automorphism_group(probe.n_group)
        phis = [i for i, a in enumerate(auts_h)
                if wells.is_compatible(probe, probe.id_N, a)]
        thetas = [i for i, a in enumerate(auts_n)
                  if wells.is_compatible(probe, a, probe.id_H)]
        n_phi, n_theta = QUOTIENT_SAMPLES[label]
        h2_ops.append(_h2_op(state, label, G, N))
        for i in rng.sample(phis, min(n_phi, len(phis))):
            queries += _query_ops(state, label, "phi", i, auts_h[i].image)
        for i in rng.sample(thetas, min(n_theta, len(thetas))):
            queries += _query_ops(state, label, "theta", i, auts_n[i].image)
    # Each h2 goes to a random place before the first question on its
    # extension, so the small questions spread over the whole pass and
    # their latencies do not all come from one stretch of it.
    ops = queries
    rng.shuffle(ops)
    rng.shuffle(h2_ops)
    for op in h2_ops:
        label = op.key.split("|")[1]
        first = next(i for i, q in enumerate(ops) if q.key.split("|")[1] == label)
        ops.insert(rng.randrange(first + 1), op)
    return ops


def _h2_op(state: dict, label: str, G, N) -> Op:
    wells = _mod("wells")

    def run():
        ext = wells.extension_from(G, N)
        cg = ext.cohomology
        state["ext"][label] = ext
        return cg.z2_order, cg.b2_order, cg.h2_order

    def check(orders) -> Optional[str]:
        return b2_order_error(state["ext"][label], orders[1])

    return Op(f"h2|{label}", run,
              lambda o: ("z2=%d|b2=%d|h2=%d" % o).encode(), check)


def _query_ops(state: dict, label: str, side: str, index: int,
               image: tuple) -> list[Op]:
    """The witness question and the class question for one automorphism."""
    groups, wells = _mod("groups"), _mod("wells")
    verdicts = state["verdicts"].setdefault((label, side, index), {})

    def aut(ext):
        return groups.GroupAutomorphism(ext.H if side == "phi" else ext.n_group,
                                        image)

    def run_witness():
        ext = state["ext"][label]
        solve = wells.lift_automorphism if side == "phi" else wells.extend_automorphism
        return solve(ext, aut(ext))

    def run_class():
        ext = state["ext"][label]
        klass = wells.lambda2 if side == "phi" else wells.lambda1
        return klass(ext, aut(ext))

    def check_witness(gamma) -> Optional[str]:
        ext = state["ext"][label]
        verdicts["exists"] = gamma is not None
        if gamma is not None:
            identity_n = range(ext.N.order)
            identity_h = range(ext.H.order)
            err = witness_error(ext, gamma.image,
                                identity_n if side == "phi" else image,
                                image if side == "phi" else identity_h)
            if err:
                return err
        return _verdict_mismatch(verdicts)

    def check_class(cls) -> Optional[str]:
        verdicts["trivial"] = not any(cls.key)
        return _verdict_mismatch(verdicts)

    name = "lift" if side == "phi" else "extend"
    klass = "lambda2" if side == "phi" else "lambda1"
    return [
        Op(f"{name}|{label}|{side}{index}", run_witness, _canon_witness,
           check_witness),
        Op(f"{klass}|{label}|{side}{index}", run_class, _canon_class,
           check_class),
    ]


def _verdict_mismatch(verdicts: dict) -> Optional[str]:
    # a witness exists exactly when the obstruction class vanishes
    if "exists" in verdicts and "trivial" in verdicts:
        if verdicts["exists"] != verdicts["trivial"]:
            return (f"witness {'found' if verdicts['exists'] else 'missing'} "
                    f"but the class is {'trivial' if verdicts['trivial'] else 'not'}")
    return None


def _canon_witness(gamma) -> bytes:
    if gamma is None:
        return b"none"
    return ("witness=" + ",".join(map(str, gamma.image))).encode()


def _canon_class(cls) -> bytes:
    trivial = not any(cls.key)
    return (f"trivial={trivial}|key=" + ",".join(map(str, cls.key))).encode()


def witness_error(ext, image, n_map, h_map) -> Optional[str]:
    """Why `image` is not an automorphism of G acting as n_map on N and
    inducing h_map on G/N, or None.  Uses only G's table, N's member list,
    the transversal and the projection."""
    table = ext.G.table
    n = len(table)
    if sorted(image) != list(range(n)):
        return "witness is not a permutation of G"
    for a in range(n):
        row, image_row = table[a], table[image[a]]
        for b in range(n):
            if image[row[b]] != image_row[image[b]]:
                return f"witness is not a homomorphism at ({a}, {b})"
    members = ext.N.members
    for i, m in enumerate(members):
        if image[m] != members[n_map[i]]:
            return f"witness moves N member {m} wrongly"
    for x, t in enumerate(ext.transversal):
        if ext.pi(image[t]) != h_map[x]:
            return f"witness induces the wrong map on coset {x}"
    return None


def b2_order_error(ext, b2: int) -> Optional[str]:
    """Why |B2| = b2 is wrong for ext, or None.

    B2 is the image of the normalised 1-cochains (|N|^(|H|-1) of them)
    under the coboundary map, whose kernel is Z1, the derivations
    d(xy) = d(x) + x.d(y) for the conjugation action of H on N.  Z1 is
    counted here by trying every image of a generating set of H, using
    only G's table, N's member list and the transversal.
    """
    table, t, members = ext.G.table, ext.transversal, ext.N.members
    H = ext.H.table
    h = len(H)
    inverse = [row.index(0) for row in table]

    def act(x: int, n: int) -> int:           # t_x n t_x^-1, as a G index
        return table[table[t[x]][n]][inverse[t[x]]]

    gens: list[int] = []
    parent: dict[int, tuple[int, int]] = {0: (0, 0)}   # y -> (s, w), y = s w
    order = [0]
    for x in range(h):
        if x in parent:
            continue
        gens.append(x)
        for w in order:                       # close the span under all gens
            for s in gens:
                y = H[s][w]
                if y not in parent:
                    parent[y] = (s, w)
                    order.append(y)
    derivations = 0
    for images in itertools.product(members, repeat=len(gens)):
        d = dict(zip(gens, images))
        d[0] = 0
        for y in order[1:]:
            if y not in d:
                s, w = parent[y]
                d[y] = table[d[s]][act(s, d[w])]
        derivations += all(d[H[x][y]] == table[d[x]][act(x, d[y])]
                           for x in range(h) for y in range(h))
    if b2 * derivations != len(members) ** (h - 1):
        return (f"|B2| = {b2}, but |N|^(|H|-1) / |Z1| = "
                f"{len(members)}^{h - 1} / {derivations}")
    return None


# aut_enum -----------------------------------------------------------------

# Every operation builds its groups afresh from a catalog expression, so
# every automorphism cache starts cold.  kind "aut" enumerates Aut(G);
# "compat" runs compatible_pairs over the centre with the closure check
# on; "autsub" runs aut_subgroups over the centre.
AUT_ENUM_HEAVY = [
    ("compat", "heisenberg(5)"),
    ("aut", "elementary_abelian(2,4)"),
    ("aut", "cyclic(3)^3"),
    ("aut", "quaternion(8)*cyclic(2)^2"),
    ("autsub", "quaternion(8)*cyclic(2)^2"),
]
# All three kinds on each of these.  Their costs spread evenly on a log
# scale from under a millisecond to about 0.7 s, so the latency
# percentiles fall inside a continuum, not on the edge of a cluster of
# equal operations, where a few percent of machine noise would move them
# from one cluster to the next.
AUT_ENUM_LIGHT = (
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


def _aut_enum(rng: random.Random) -> list[Op]:
    menu = AUT_ENUM_HEAVY + [(kind, expr) for expr in AUT_ENUM_LIGHT
                             for kind in ("aut", "compat", "autsub")]
    rng.shuffle(menu)
    return [_aut_op(kind, expr) for kind, expr in menu]


def _aut_op(kind: str, expr: str) -> Op:
    catalog, groups, wells = _mod("catalog"), _mod("groups"), _mod("wells")

    def fresh_extension():
        G = catalog.parse_catalog_expression(expr)
        return wells.extension_from(G, groups.center(G))

    if kind == "aut":
        def run():
            return groups.automorphism_group(catalog.parse_catalog_expression(expr))
        canon, check = _canon_auts, _check_auts
    elif kind == "compat":
        def run():
            return wells.compatible_pairs(fresh_extension(), verify_closure=True)
        canon, check = _canon_pairs, _check_pairs
    else:
        def run():
            return wells.aut_subgroups(fresh_extension())
        canon, check = _canon_autsub, _check_autsub
    return Op(f"{kind}|{expr}", run, canon, check)


def _images_digest(auts) -> str:
    h = hashlib.sha256()
    for a in auts:
        h.update(bytes(str(a.image), "ascii"))
    return h.hexdigest()


def _canon_auts(auts) -> bytes:
    return f"n={len(auts)}|{_images_digest(auts)}".encode()


def _check_auts(auts) -> Optional[str]:
    images = [a.image for a in auts]
    if len(set(images)) != len(images):
        return "automorphism list has repeats"
    if not images or tuple(range(len(images[0]))) not in set(images):
        return "automorphism list lacks the identity"
    return None


def _canon_pairs(result) -> bytes:
    pairs, c1, c2 = result
    body = [_images_digest(p.theta for p in pairs), _images_digest(p.phi for p in pairs),
            _images_digest(c1), _images_digest(c2)]
    return f"c={len(pairs)}|c1={len(c1)}|c2={len(c2)}|{'|'.join(body)}".encode()


def _check_pairs(result) -> Optional[str]:
    pairs, c1, c2 = result
    keys = {(p.theta.image, p.phi.image) for p in pairs}
    if len(keys) != len(pairs):
        return "compatible pairs repeat"
    if not c1 or not c2:
        return "a compatible pair slice is empty"
    ident_n = tuple(range(len(c1[0].image)))
    ident_h = tuple(range(len(c2[0].image)))
    if (ident_n, ident_h) not in keys:
        return "the identity pair is missing"
    if any((t.image, ident_h) not in keys for t in c1) or \
            any((ident_n, p.image) not in keys for p in c2):
        return "slices C1, C2 are not inside C"
    return None


def _canon_autsub(subs) -> bytes:
    parts = [f"{len(s)}:{_images_digest(s)}" for s in
             (subs.aut_N_of_G, subs.aut_upper_N, subs.aut_N_H, subs.aut_upper_N_H)]
    return "|".join(parts).encode()


def _check_autsub(subs) -> Optional[str]:
    normal = {a.image for a in subs.aut_N_of_G}
    upper = {a.image for a in subs.aut_upper_N}
    on_h = {a.image for a in subs.aut_N_H}
    both = {a.image for a in subs.aut_upper_N_H}
    if not (upper <= normal and on_h <= normal and both == upper & on_h):
        return "automorphism subgroups are not nested as required"
    for s in (normal, upper, on_h, both):
        if len(normal) % max(len(s), 1):
            return "subgroup order does not divide |Aut_N(G)|"
    return None
