"""Command line front end.

Subcommands cover the analysis pipelines (analyze, h2, extend, lift,
lift-pair, sylow, split), the verification harnesses (verify,
verify-all) and catalog access.  All reports go to stdout as JSON with
sorted keys, so identical invocations produce identical bytes; human
oriented progress for verify-all goes to stderr.

Exit codes: 0 computed with positive verdict (or no verdict applies),
1 computed with negative verdict, 2 input error, 3 bound exceeded,
4 internal error (a failed self-check, memory or recursion exhausted, or
any other unexpected exception).
Errors print one {"error", "kind"} record; "error" is never empty.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from . import config
from .catalog import CATALOG_NAMES, parse_catalog_expression, shipped_corpus
from .errors import BoundExceeded, ExtliftError, InputError
from .groups import (FiniteGroup, GroupAutomorphism, Subgroup,
                     automorphism_group, center, derived_subgroup,
                     hom_by_generator_images, sylow_subgroup)
from .reports import (DEFAULT_DRAWS, DEFAULT_SEED, dumps, extend_report,
                      group_json, h2_report, lift_report, load_group_file,
                      pair_report, split_report, sylow_mode_report,
                      verify_all_report, verify_report, wells_report)
from .wells import ExtensionData, extension_from


def _parse_group(spec: str) -> FiniteGroup:
    """catalog:EXPR, a file path, or a bare catalog expression like cyclic(6)."""
    if spec.startswith("catalog:"):
        return parse_catalog_expression(spec[len("catalog:"):])
    if os.sep in spec or spec.endswith(".json") or os.path.exists(spec):
        return load_group_file(spec)
    return parse_catalog_expression(spec)


def _parse_subgroup(G: FiniteGroup, spec: str) -> Subgroup:
    if spec == "center":
        return center(G)
    if spec == "derived":
        return derived_subgroup(G)
    if spec.startswith("sylow:"):
        tail = spec[len("sylow:"):]
        try:
            p = int(tail)
        except ValueError:
            raise InputError(f"sylow: wants a prime, got {tail!r}") from None
        return sylow_subgroup(G, p)
    text = spec[len("members:"):] if spec.startswith("members:") else spec
    try:
        members = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise InputError(
            f"subgroup spec {spec!r} is not center/derived/sylow:p "
            f"or a comma list of members") from None
    if not members:
        raise InputError("subgroup member list is empty")
    return Subgroup(G, members)


def _parse_pairs(text: str):
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise InputError(f"mapping entry {chunk!r} needs the form SRC=IMG")
        a, b = chunk.split("=", 1)
        try:
            pairs.append((int(a), int(b)))
        except ValueError:
            raise InputError(f"mapping entry {chunk!r} must pair integers") from None
    if not pairs:
        raise InputError("empty automorphism mapping")
    return pairs


def _parse_aut(group: FiniteGroup, spec: str, role: str) -> GroupAutomorphism:
    """Automorphism specifiers: id, inversion, aut:IDX, perm:..., map:a=b,..."""
    if spec == "id":
        return GroupAutomorphism._trusted(group, tuple(range(group.order)))
    if spec == "inversion":
        if not group.is_abelian:
            raise InputError(f"{role}: inversion is only an automorphism "
                             f"of abelian groups; {group.name} is not abelian")
        return GroupAutomorphism._trusted(group, group.inverse)
    if spec.startswith("aut:"):
        tail = spec[len("aut:"):]
        try:
            idx = int(tail)
        except ValueError:
            raise InputError(f"{role}: aut: wants an index, got {tail!r}") from None
        auts = automorphism_group(group)
        if not 0 <= idx < len(auts):
            raise InputError(
                f"{role}: index {idx} out of range, {group.name} has "
                f"{len(auts)} automorphisms")
        return auts[idx]
    if spec.startswith("perm:"):
        try:
            image = tuple(int(tok) for tok in spec[len("perm:"):].split(","))
        except ValueError:
            raise InputError(f"{role}: perm: wants a comma list of images") from None
        if len(image) != group.order:
            raise InputError(
                f"{role}: perm: needs {group.order} images, got {len(image)}")
        return GroupAutomorphism(group, image)
    if spec.startswith("map:"):
        pairs = _parse_pairs(spec[len("map:"):])
        for a, b in pairs:
            if not (0 <= a < group.order and 0 <= b < group.order):
                raise InputError(f"{role}: mapping entry {a}={b} out of range")
        full = hom_by_generator_images(group, group, pairs)
        if full is None:
            raise InputError(
                f"{role}: the given images do not extend to a homomorphism")
        if len(full) < group.order:
            raise InputError(
                f"{role}: the given sources do not generate {group.name}; "
                f"add more mapping entries")
        image = tuple(full[a] for a in range(group.order))
        if len(set(image)) != group.order:
            raise InputError(f"{role}: the induced endomorphism is not bijective")
        return GroupAutomorphism._trusted(group, image)
    raise InputError(
        f"{role}: unknown automorphism spec {spec!r}; use id, inversion, "
        f"aut:IDX, perm:i0,i1,... or map:a=b,c=d")


def _extension(args) -> ExtensionData:
    G = _parse_group(args.group)
    N = _parse_subgroup(G, args.subgroup)
    return extension_from(G, N)


def _render(args, report: dict, code: int) -> tuple[str, int]:
    """Render report and write it to --output; return the text for stdout
    and the exit code.  A file that cannot be written turns the whole output
    into one input-error record naming the path, with exit code 2."""
    text = dumps(report)
    path = getattr(args, "output", None)
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            error = InputError(f"{path}: cannot write the report ({exc})")
            text, code = dumps(_error_record(args, error)), 2
    return text, code


def _load_corpus(path: str) -> list[FiniteGroup]:
    try:
        names = sorted(n for n in os.listdir(path) if n.endswith(".json"))
    except OSError as exc:
        raise InputError(f"{path}: cannot list corpus directory ({exc})") from exc
    return [load_group_file(os.path.join(path, name)) for name in names]


def _cmd_analyze(args) -> tuple[dict, int]:
    report = wells_report(_extension(args))
    return report, 0 if not report["violations"] else 1


def _cmd_h2(args) -> tuple[dict, int]:
    H = _parse_group(args.group)
    coeffs = _parse_group(args.coeffs)
    return h2_report(H, coeffs), 0


def _cmd_extend(args) -> tuple[dict, int]:
    ext = _extension(args)
    theta = _parse_aut(ext.n_group, args.theta, "theta")
    report, verdict = extend_report(ext, theta)
    return report, 0 if verdict else 1


def _cmd_lift(args) -> tuple[dict, int]:
    ext = _extension(args)
    phi = _parse_aut(ext.H, args.phi, "phi")
    report, verdict = lift_report(ext, phi)
    return report, 0 if verdict else 1


def _cmd_lift_pair(args) -> tuple[dict, int]:
    ext = _extension(args)
    theta = _parse_aut(ext.n_group, args.theta, "theta")
    phi = _parse_aut(ext.H, args.phi, "phi")
    report, verdict = pair_report(ext, theta, phi)
    return report, 0 if verdict else 1


def _cmd_sylow(args) -> tuple[dict, int]:
    ext = _extension(args)
    if (args.phi is None) == (args.theta is None):
        raise InputError("sylow needs exactly one of --phi (lift) or "
                         "--theta (extend)")
    if args.phi is not None:
        report, verdict = sylow_mode_report(
            ext, phi=_parse_aut(ext.H, args.phi, "phi"))
    else:
        report, verdict = sylow_mode_report(
            ext, theta=_parse_aut(ext.n_group, args.theta, "theta"))
    return report, 0 if verdict else 1


def _cmd_split(args) -> tuple[dict, int]:
    report, splits = split_report(_extension(args), search=not args.no_search)
    return report, 0 if splits else 1


def _cmd_verify(args) -> tuple[dict, int]:
    report = verify_report(_extension(args), seed=args.seed, draws=args.draws)
    return report, 0 if report["ok"] else 1


def _cmd_catalog(args) -> tuple[dict, int]:
    if args.expr:
        return group_json(parse_catalog_expression(args.expr)), 0
    report = {
        "names": sorted(CATALOG_NAMES),
        "corpus": [{"name": G.name, "order": G.order} for G in shipped_corpus()],
    }
    return report, 0


def _cmd_verify_all(args) -> tuple[dict, int]:
    groups = _load_corpus(args.corpus) if args.corpus else None

    def progress(entry: dict) -> None:
        if entry.get("skipped") is not None:
            state = "SKIP"
        else:
            state = "ok" if entry["ok"] else "FAIL"
        print(f"{entry['group']:<16} |G|={entry['group_order']:<3} "
              f"N={','.join(str(m) for m in entry['n_members']):<24} {state}",
              file=sys.stderr)

    report = verify_all_report(groups, seed=args.seed, draws=args.draws,
                               progress=progress)
    print(f"pairs: {report['pairs']}  passed: {report['passed']}  "
          f"failed: {report['failed']}  skipped: {report['skipped']}",
          file=sys.stderr)
    return report, 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", metavar="PATH",
                        help="also write the JSON report to this file")
    common.add_argument("--max-order", type=int, metavar="N",
                        help="override the enumeration bound "
                             "(same as EXTLIFT_MAX_ORDER)")

    ext_common = argparse.ArgumentParser(add_help=False)
    ext_common.add_argument("--group", required=True,
                            help="catalog:EXPR or a path to a group JSON file")
    ext_common.add_argument("--subgroup", required=True,
                            help="center | derived | sylow:p | "
                                 "comma list of member indices")

    p = argparse.ArgumentParser(
        prog="extlift",
        description="Extending and lifting automorphisms of finite group "
                    "extensions with abelian kernel")
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", parents=[common, ext_common],
                       help="full report: compatible pairs, verdicts, "
                            "obstructions, exactness")
    a.set_defaults(func=_cmd_analyze)

    h = sub.add_parser("h2", parents=[common],
                       help="second cohomology orders for a trivial action")
    h.add_argument("--group", required=True, help="acting group")
    h.add_argument("--coeffs", required=True, help="abelian coefficient group")
    h.add_argument("--action", default="trivial", choices=["trivial"],
                   help="only the trivial action is supported here; "
                        "conjugation actions come from analyze")
    h.set_defaults(func=_cmd_h2)

    e = sub.add_parser("extend", parents=[common, ext_common],
                       help="extend an automorphism of N to G, acting "
                            "trivially on G/N")
    e.add_argument("--theta", required=True, help="automorphism of N")
    e.set_defaults(func=_cmd_extend)

    l = sub.add_parser("lift", parents=[common, ext_common],
                       help="lift an automorphism of G/N to G, acting "
                            "trivially on N")
    l.add_argument("--phi", required=True, help="automorphism of G/N")
    l.set_defaults(func=_cmd_lift)

    lp = sub.add_parser("lift-pair", parents=[common, ext_common],
                        help="realize a pair (theta, phi) on a central "
                             "extension")
    lp.add_argument("--theta", required=True, help="automorphism of N")
    lp.add_argument("--phi", required=True, help="automorphism of G/N")
    lp.set_defaults(func=_cmd_lift_pair)

    s = sub.add_parser("sylow", parents=[common, ext_common],
                       help="prime-local reduction with index-kill report")
    s.add_argument("--phi", help="automorphism of G/N (lift flavor)")
    s.add_argument("--theta", help="automorphism of N (extend flavor)")
    s.set_defaults(func=_cmd_sylow)

    sp = sub.add_parser("split", parents=[common, ext_common],
                        help="splitting of the extension and of the "
                             "automorphism sequences")
    sp.add_argument("--no-search", action="store_true",
                    help="skip the section search on non-split extensions")
    sp.set_defaults(func=_cmd_split)

    v = sub.add_parser("verify", parents=[common, ext_common],
                       help="run the whole verification battery on one "
                            "extension")
    v.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v.add_argument("--draws", type=int, default=DEFAULT_DRAWS,
                   help="randomized transversals to test")
    v.set_defaults(func=_cmd_verify)

    c = sub.add_parser("catalog", parents=[common],
                       help="list catalog names, or dump a group as JSON")
    c.add_argument("--expr", help="catalog expression to dump")
    c.set_defaults(func=_cmd_catalog)

    va = sub.add_parser("verify-all", parents=[common],
                        help="verification battery over a corpus of groups")
    va.add_argument("--corpus", metavar="DIR",
                    help="directory of group JSON files "
                         "(default: the shipped catalog)")
    va.add_argument("--seed", type=int, default=DEFAULT_SEED)
    va.add_argument("--draws", type=int, default=DEFAULT_DRAWS)
    va.set_defaults(func=_cmd_verify_all)
    return p


def _error_record(args, exc: BaseException) -> dict:
    """The error report; an exception without a message (a bare MemoryError)
    is named by the subcommand and its kind instead."""
    kind = exc.__class__.__name__
    return {"error": str(exc) or f"{args.command}: {kind}", "kind": kind}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    bound = getattr(args, "max_order", None)
    if bound is not None and bound < 1:
        parser.error("--max-order must be positive")
    if getattr(args, "draws", 0) < 0:
        parser.error("--draws must not be negative")
    token = config.max_order_flag.set(bound)
    # rendering is inside the try, so a report that cannot be rendered (out
    # of memory in the encoder) becomes the error record, and stdout holds
    # either the whole report or that record alone
    try:
        report, code = args.func(args)
        text, code = _render(args, report, code)
    except BoundExceeded as exc:
        text, code = _render(args, _error_record(args, exc), 3)
    except ExtliftError as exc:
        text, code = _render(args, _error_record(args, exc), 2)
    except Exception as exc:        # a failed self-check or any other fault
        text, code = _render(args, _error_record(args, exc), 4)
    finally:
        config.max_order_flag.reset(token)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
