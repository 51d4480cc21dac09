"""Report assembly for the command line front end.

Every report built here is a plain dict of JSON-safe values, and dumps()
is the single serialization point (sorted keys, two-space indent,
trailing newline), so identical inputs always produce identical bytes.

verify_report runs the full per-extension battery: exactness of the
three automorphism sequences, the derivation identities, verdict
stability under randomized transversals, prime-local versus global
cross-validation for lifting and extending, the index-kill identity,
and the splitting layer's internal order checks.  verify_all_report
repeats that over a whole corpus and aggregates pass/fail counts.
"""

from __future__ import annotations

import json
import random
from typing import Optional, Sequence

from .abelian import abelian_structure
from .catalog import shipped_corpus
from .cohomology import CohomologyClass, CohomologyGroup
from .errors import BoundExceeded, ExtliftError, InputError, SylowNotInvariant
from .groups import (FiniteGroup, GroupAutomorphism, Subgroup,
                     abelian_normal_subgroups, group_from_cayley,
                     group_from_permutations, is_integer)
from .reduction import index_kill_check, sylow_extend_check, sylow_lift_check
from .splitting import (canonical_sections, is_split_extension, section_search,
                        split_kernels)
from .wells import (CompatiblePair, ExtensionData, answer, answers,
                    compatible_pairs, derivation_check, extension_from,
                    random_transversal, slice_pair, verify_exactness)

# C1/C2 larger than this are skipped by the quadratic checks (transversal
# stability, per-automorphism cross-validation); derivation_check is not
# quadratic, and is gated too only so that derivation_ok keeps its bytes.
EXHAUSTIVE_BOUND = 48

DEFAULT_SEED = 7
DEFAULT_DRAWS = 4

_ORDER_KEYS = ("aut_N_order", "aut_upper_N_order", "aut_N_H_order",
               "aut_upper_N_H_order", "c_order", "c1_order", "c2_order",
               "z2_order", "b2_order", "h2_order")


def dumps(report: dict) -> str:
    """Serialize a report deterministically."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def group_json(G: FiniteGroup) -> dict:
    return {"name": G.name, "cayley": [list(row) for row in G.table]}


def _integer_rows(rows: object, source: str, field: str) -> list:
    if not isinstance(rows, list):
        raise InputError(f"{source}: '{field}' must be a list of rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not all(map(is_integer, row)):
            raise InputError(f"{source}: '{field}' entry {i} must be a list of integers")
    return rows


def group_from_json(data: object, source: str = "group") -> FiniteGroup:
    """Build a group from the file format; errors name the offending field."""
    if not isinstance(data, dict):
        raise InputError(f"{source}: expected a JSON object")
    name = data.get("name", "G")
    if not isinstance(name, str):
        raise InputError(f"{source}: 'name' must be a string")
    if "cayley" in data:
        table = _integer_rows(data["cayley"], source, "cayley")
        return group_from_cayley(table, name=name)
    if "perm_degree" in data or "generators" in data:
        degree = data.get("perm_degree")
        gens = data.get("generators")
        if not is_integer(degree) or degree < 1:
            raise InputError(f"{source}: 'perm_degree' must be a positive integer")
        if not isinstance(gens, list) or not gens:
            raise InputError(f"{source}: 'generators' must be a nonempty list")
        gens = _integer_rows(gens, source, "generators")
        return group_from_permutations(degree, gens, name=name)
    raise InputError(f"{source}: need either 'cayley' or 'perm_degree'+'generators'")


def load_group_file(path: str) -> FiniteGroup:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"{path}: cannot read ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return group_from_json(data, source=path)
    except ExtliftError as exc:
        msg = str(exc)
        if msg.startswith(path):
            raise
        raise InputError(f"{path}: {msg}") from exc


def extension_json(ext: ExtensionData) -> dict:
    return {
        "group": ext.G.name,
        "group_order": ext.G.order,
        "n_members": list(ext.N.members),
        "n_invariants": list(ext.moduli),
        "quotient_order": ext.H.order,
        "central": ext.central,
    }


def class_json(cls: Optional[CohomologyClass]) -> Optional[dict]:
    """A cohomology class with its canonical (reduced) representative."""
    if cls is None:
        return None
    rep = cls.parent.cochain_of_vector(list(cls.key))
    return {"trivial": cls.is_trivial, "representative": rep.to_json()}


def automorphism_json(a: GroupAutomorphism) -> list[int]:
    return list(a.image)


def h2_report(H: FiniteGroup, coeffs: FiniteGroup) -> dict:
    """Cohomology orders of H with trivial action on an abelian group."""
    structure = abelian_structure(Subgroup(coeffs, range(coeffs.order)))
    cg = CohomologyGroup(H, structure, None)
    return {
        "group": H.name,
        "group_order": H.order,
        "coeffs": coeffs.name,
        "moduli": list(structure.invariant_factors),
        "action": "trivial",
        "z2_order": cg.z2_order,
        "b2_order": cg.b2_order,
        "h2_order": cg.h2_order,
    }


def wells_report(ext: ExtensionData) -> dict:
    """Full per-extension analysis: orders, verdicts, obstructions, exactness."""
    _, c1, c2 = compatible_pairs(ext)
    ver = verify_exactness(ext)
    verdicts: dict[int, list[int]] = {1: [], 2: []}
    obstructions: dict[str, dict] = {}
    for which, name, members in ((1, "theta", c1), (2, "phi", c2)):
        asked = [(which, slice_pair(ext, which, m)) for m in members]
        for i, got in enumerate(answers(ext, asked)):
            if got.witness is not None:
                verdicts[which].append(i)
            else:
                obstructions[f"{name}:{i}"] = class_json(got.obstruction)
    return {
        "extension": extension_json(ext),
        "c1": [automorphism_json(a) for a in c1],
        "c2": [automorphism_json(a) for a in c2],
        "c1_order": ver["c1_order"],
        "c2_order": ver["c2_order"],
        "h2_order": ver["h2_order"],
        "extendable": verdicts[1],
        "liftable": verdicts[2],
        "obstructions": obstructions,
        "exactness": {
            "seq_1_1": ver["seq_1_1"],
            "seq_1_2": ver["seq_1_2"],
            "seq_1_3": ver["seq_1_3"],
        },
        "violations": list(ver["violations"]),
    }


def _verdict_report(ext: ExtensionData, mode: str, which: int,
                    **autos: GroupAutomorphism) -> tuple[dict, bool]:
    """Verdict, witness and obstruction class for one question about a pair.

    autos are the named automorphisms sequence which asks about, in their
    order; the slot it fixes is the identity.
    """
    got = answer(ext, which, CompatiblePair(autos.get("theta", ext.id_N),
                                            autos.get("phi", ext.id_H)))
    verdict = got.witness is not None
    report = {
        "extension": extension_json(ext),
        "mode": mode,
        **{name: automorphism_json(a) for name, a in autos.items()},
        "compatible": got.compatible,
        "verdict": verdict,
        "witness": automorphism_json(got.witness) if verdict else None,
        "obstruction": class_json(got.obstruction),
    }
    return report, verdict


def extend_report(ext: ExtensionData, theta: GroupAutomorphism) -> tuple[dict, bool]:
    return _verdict_report(ext, "extend", 1, theta=theta)


def lift_report(ext: ExtensionData, phi: GroupAutomorphism) -> tuple[dict, bool]:
    return _verdict_report(ext, "lift", 2, phi=phi)


def pair_report(ext: ExtensionData, theta: GroupAutomorphism,
                phi: GroupAutomorphism) -> tuple[dict, bool]:
    return _verdict_report(ext, "pair", 3, theta=theta, phi=phi)


def sylow_entries(reports) -> list[dict]:
    return [{
        "p": r.prime,
        "P_order": r.subgroup.order,
        "local_lift": r.local_ok,
        "obstruction": class_json(r.obstruction),
    } for r in reports]


def sylow_mode_report(ext: ExtensionData,
                      phi: Optional[GroupAutomorphism] = None,
                      theta: Optional[GroupAutomorphism] = None) -> tuple[dict, bool]:
    """Prime-local reduction report, lift flavor (phi) or extend flavor (theta)."""
    if (phi is None) == (theta is None):
        raise InputError("need exactly one of phi (lift) or theta (extend)")
    lift = phi is not None
    mode, name, aut = ("lift", "phi", phi) if lift else ("extend", "theta", theta)
    check = sylow_lift_check(ext, phi) if lift else sylow_extend_check(ext, theta)
    report = {
        "extension": extension_json(ext),
        "mode": mode,
        name: automorphism_json(aut),
        "verdict": check.verdict,
        "sylow_reduction": sylow_entries(check.reports),
        "witness": automorphism_json(check.witness) if check.witness else None,
    }
    if lift:
        report["index_kill"] = index_kill_check(ext, phi, check)
    return report, check.verdict


def split_report(ext: ExtensionData,
                 search: bool = True) -> tuple[dict, bool]:
    """Splitting verdicts for the extension and the automorphism sequences."""
    kernels = split_kernels(ext)
    splits, witness = is_split_extension(ext)
    sections: dict[str, dict] = {}
    flags: dict[str, Optional[bool]] = {
        "seq_4_1_splits": None, "seq_4_2_splits": None, "seq_4_3_splits": None}
    if splits:
        psi1, psi2, psi = canonical_sections(ext)
        found = {"seq_4_1": psi1, "seq_4_2": psi2, "seq_4_3": psi}
    elif search:
        found = {
            "seq_4_1": section_search(ext, 1),
            "seq_4_2": section_search(ext, 2),
            "seq_4_3": section_search(ext, 3) if ext.central else None,
        }
    else:
        found = {"seq_4_1": None, "seq_4_2": None, "seq_4_3": None}
    for key, sec in found.items():
        if sec is not None:
            flags[key + "_splits"] = True
            sections[key] = {
                "domain_order": len(sec.domain),
                "images": [automorphism_json(a) for a in sec.images],
            }
        elif splits or search:
            flags[key + "_splits"] = False
    if not ext.central:
        flags["seq_4_3_splits"] = None
        sections.pop("seq_4_3", None)
    report = {
        "extension": extension_json(ext),
        "extension_splits": splits,
        "complement": list(witness.complement.members) if witness else None,
        "c1_star_order": len(kernels.c1_star),
        "c2_star_order": len(kernels.c2_star),
        "c_star_order": len(kernels.c_star) if kernels.c_star is not None else None,
        "seq_4_1_splits": flags["seq_4_1_splits"],
        "seq_4_2_splits": flags["seq_4_2_splits"],
        "seq_4_3_splits": flags["seq_4_3_splits"],
        "sections": sections,
    }
    return report, splits


def _verdict_pattern(ext: ExtensionData, c1, c2) -> tuple:
    """Everything Lemma-level transversal independence promises to preserve:
    which members of C1 and C2 are induced, asked as one block (exactly
    those have a trivial class)."""
    asked = [(which, slice_pair(ext, which, m))
             for which, members in ((1, c1), (2, c2)) for m in members]
    return tuple(got.witness is not None for got in answers(ext, asked))


def _transversal_stability(ext: ExtensionData, seed: int, draws: int,
                           failures: list[str]) -> int:
    _, c1, c2 = compatible_pairs(ext)
    if len(c1) > EXHAUSTIVE_BOUND or len(c2) > EXHAUSTIVE_BOUND:
        return 0
    base = _verdict_pattern(ext, c1, c2)
    rng = random.Random(seed)
    done = 0
    for _ in range(draws):
        other = ext.with_transversal(random_transversal(ext, rng))
        if _verdict_pattern(other, c1, c2) != base:
            failures.append("verdicts changed under a randomized transversal")
        done += 1
    return done


def _sylow_cross_validation(ext: ExtensionData, failures: list[str]) -> dict:
    """Local verdicts must aggregate to the global ones; index-kill must hold."""
    _, c1, c2 = compatible_pairs(ext)
    counts = {"phis_checked": 0, "thetas_checked": 0, "noninvariant_skips": 0}
    if len(c2) <= EXHAUSTIVE_BOUND:
        for phi in c2:
            try:
                check = sylow_lift_check(ext, phi)
            except SylowNotInvariant:
                counts["noninvariant_skips"] += 1
                continue
            # iff with the global lift is asserted inside the check;
            # the class below is computed apart from the witness search
            kill = index_kill_check(ext, phi, check)
            for entry in kill["primes"]:
                if entry["local_lift"] and not entry["index_kill"]:
                    failures.append(
                        f"index {entry['index']} fails to kill the class "
                        f"at p={entry['p']} for phi={list(phi.image)}")
            if kill["forced_trivial"] and not kill["class_trivial"]:
                failures.append(
                    f"jointly coprime indices force a trivial class yet the "
                    f"lift fails for phi={list(phi.image)}")
            counts["phis_checked"] += 1
    if len(c1) <= EXHAUSTIVE_BOUND:
        for theta in c1:
            # iff with the global verdict is asserted inside the check
            sylow_extend_check(ext, theta)
            counts["thetas_checked"] += 1
    return counts


def _splitting_checks(ext: ExtensionData, failures: list[str]) -> dict:
    kernels = split_kernels(ext)  # order identities asserted inside
    splits, _ = is_split_extension(ext)
    out = {
        "extension_splits": splits,
        "c1_star_order": len(kernels.c1_star),
        "c2_star_order": len(kernels.c2_star),
        "c_star_order": len(kernels.c_star) if kernels.c_star is not None else None,
    }
    if splits:
        canonical_sections(ext)  # homomorphism property asserted inside
    elif len(kernels.c2_star) <= 24:
        try:
            out["seq_4_2_splits"] = section_search(ext, 2) is not None
        except BoundExceeded:
            pass
    return out


def verify_report(ext: ExtensionData, seed: int = DEFAULT_SEED,
                  draws: int = DEFAULT_DRAWS) -> dict:
    """Run the whole verification battery on one extension."""
    failures: list[str] = []
    ver = verify_exactness(ext)
    failures.extend(ver["violations"])
    orders = {k: ver[k] for k in _ORDER_KEYS}
    derivation_ok: Optional[bool] = None
    if ver["c1_order"] <= EXHAUSTIVE_BOUND and ver["c2_order"] <= EXHAUSTIVE_BOUND:
        der = derivation_check(ext)
        derivation_ok = der["ok"]
        failures.extend(der["violations"])
    draws_done = _transversal_stability(ext, seed, draws, failures)
    try:
        sylow_counts = _sylow_cross_validation(ext, failures)
    except AssertionError as exc:
        failures.append(f"sylow cross-validation: {exc}")
        sylow_counts = None
    try:
        splitting = _splitting_checks(ext, failures)
    except AssertionError as exc:
        failures.append(f"splitting checks: {exc}")
        splitting = None
    return {
        "extension": extension_json(ext),
        "orders": orders,
        "exactness": {
            "seq_1_1": ver["seq_1_1"],
            "seq_1_2": ver["seq_1_2"],
            "seq_1_3": ver["seq_1_3"],
        },
        "derivation_ok": derivation_ok,
        "transversal_draws": draws_done,
        "sylow": sylow_counts,
        "splitting": splitting,
        "failures": failures,
        "ok": not failures,
    }


def corpus_pairs(G: FiniteGroup):
    """The (G, N) pairs verify-all covers: nontrivial abelian normal N."""
    for N in abelian_normal_subgroups(G):
        if N.order > 1:
            yield N


def verify_all_report(groups: Optional[Sequence[FiniteGroup]] = None,
                      seed: int = DEFAULT_SEED, draws: int = DEFAULT_DRAWS,
                      progress=None) -> dict:
    if groups is None:
        groups = shipped_corpus()
    entries: list[dict] = []
    failed = 0
    skipped = 0
    for G in groups:
        for N in corpus_pairs(G):
            entry: dict = {
                "group": G.name,
                "group_order": G.order,
                "n_members": list(N.members),
            }
            try:
                ext = extension_from(G, N)
                rep = verify_report(ext, seed=seed, draws=draws)
                entry["ok"] = rep["ok"]
                entry["failures"] = rep["failures"]
                entry["h2_order"] = rep["orders"]["h2_order"]
                entry["c1_order"] = rep["orders"]["c1_order"]
                entry["c2_order"] = rep["orders"]["c2_order"]
                entry["extension_splits"] = (
                    rep["splitting"]["extension_splits"]
                    if rep["splitting"] is not None else None)
                if not rep["ok"]:
                    failed += 1
            except BoundExceeded as exc:
                entry["ok"] = None
                entry["skipped"] = str(exc)
                skipped += 1
            entries.append(entry)
            if progress is not None:
                progress(entry)
    return {
        "pairs": len(entries),
        "passed": len(entries) - failed - skipped,
        "failed": failed,
        "skipped": skipped,
        "ok": failed == 0,
        "entries": entries,
    }
