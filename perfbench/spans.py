"""Span tracing of extlift's public functions, from outside the package.

`Tracer.install()` wraps each target below and rebinds the wrapper in
every loaded `extlift.*` module that holds the original: the package
imports names with `from .x import y`, so rebinding only the defining
module would leave callers in other modules untraced.  Methods are
rebound on their class.  Spans (name, start, end, parent span, operation)
are kept in memory and written out by `write()`.

A layer's self time is the duration of its spans minus the time covered
by their child spans, so no second is counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import weakref
from collections import Counter
from time import perf_counter

# (layer, module, attribute); an attribute "Class.method" wraps a method
TARGETS = [
    ("catalog.build", "catalog", "catalog"),
    ("catalog.build", "catalog", "parse_catalog_expression"),
    ("catalog.build", "catalog", "shipped_corpus"),
    ("catalog.build", "catalog", "direct_product"),
    ("catalog.build", "catalog", "semidirect_product"),
    ("groups.validate", "groups", "FiniteGroup.__init__"),
    ("groups.aut_enum", "groups", "automorphism_group"),
    ("groups.subgroups", "groups", "all_subgroups"),
    ("groups.subgroups", "groups", "abelian_normal_subgroups"),
    ("abelian.structure", "abelian", "abelian_structure"),
    ("intlin.insert", "intlin", "TriangularLattice.insert"),
    ("intlin.reduce", "intlin", "TriangularLattice.reduce"),
    ("intlin.remainder", "intlin", "TriangularLattice.remainder"),
    ("intlin.kernel_order", "intlin", "kernel_order"),
    ("cohomology.cocycle_check", "cohomology", "two_cocycle_defect"),
    ("cohomology.coboundary", "cohomology", "coboundary_of"),
    ("cohomology.build", "cohomology", "CohomologyGroup.__init__"),
    ("cohomology.class", "cohomology", "CohomologyGroup.class_of"),
    ("cohomology.solve", "cohomology", "CohomologyGroup.coboundary_solve"),
    ("wells.extension", "wells", "ExtensionData.__init__"),
    ("wells.cocycle", "wells", "wells_cocycle_theta"),
    ("wells.cocycle", "wells", "wells_cocycle_phi"),
    ("wells.cocycle", "wells", "wells_cocycle_pair"),
    ("wells.witness", "wells", "triple_of"),
    ("wells.witness", "wells", "automorphism_from_triple"),
    ("wells.compatible_pairs", "wells", "compatible_pairs"),
    ("wells.aut_subgroups", "wells", "aut_subgroups"),
    ("wells.exactness", "wells", "verify_exactness"),
    ("wells.derivation", "wells", "derivation_check"),
    ("reduction.sylow", "reduction", "sylow_lift_check"),
    ("reduction.sylow", "reduction", "sylow_extend_check"),
    ("reduction.sylow", "reduction", "index_kill_check"),
    ("splitting.kernels", "splitting", "split_kernels"),
    ("splitting.section_search", "splitting", "section_search"),
    ("reports.verify", "reports", "verify_report"),
    ("reports.dumps", "reports", "dumps"),
]

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

# layers whose call count is reported beside their self time
COUNTED = ("cohomology.cocycle_check", "cohomology.build", "intlin.insert",
           "groups.aut_enum", "groups.validate")

# Layers each workload exists to measure: a traced run of that workload in
# which one of them never fires is refused, because a wrapper that missed
# a rebinding would otherwise read as a free layer.
EXPECTED = {
    "corpus_small": (
        "cohomology.cocycle_check", "wells.cocycle", "wells.witness",
        "wells.derivation", "wells.exactness", "reduction.sylow",
        "splitting.kernels", "splitting.section_search", "reports.verify",
        "reports.dumps", "groups.validate", "catalog.build",
        "groups.subgroups", "abelian.structure", "wells.extension"),
    "quotient_large": (
        "cohomology.cocycle_check", "cohomology.build", "intlin.insert",
        "intlin.kernel_order", "cohomology.class", "cohomology.solve",
        "cohomology.coboundary", "intlin.reduce", "intlin.remainder",
        "wells.cocycle", "wells.witness", "groups.validate", "catalog.build",
        "groups.subgroups", "abelian.structure", "wells.extension",
        "groups.aut_enum"),
    "aut_enum": (
        "groups.aut_enum", "wells.compatible_pairs", "wells.aut_subgroups",
        "groups.validate", "catalog.build", "abelian.structure",
        "wells.extension"),
}


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = {f"{layer}_s": "s" for layer in LAYERS}
    names.update({f"{layer}.calls": "count" for layer in COUNTED})
    names.update({
        "cohomology.solve.witness_ratio": "ratio",
        "groups.aut_enum.cold_ratio": "ratio",
        "groups.auts_enumerated": "count",
        "wells.compatible_pairs.pairs": "count",
        "trace.spans": "count",
        "trace.unattributed_s": "s",
        "trace.overhead_s": "s",
    })
    return names


class Tracer:
    def __init__(self):
        self.spans: list = []        # (layer, start, end, parent index, op)
        self._stack: list[int] = []
        self.op = "setup"
        self.op_time = 0.0           # summed duration of the traced operations
        self.counts: Counter = Counter()
        self._seen_groups = weakref.WeakSet()

    def _wrap(self, layer: str, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.op)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_aut_enum(self, args, result) -> None:
        group = args[0]
        if group not in self._seen_groups:    # the group's cache was empty
            self._seen_groups.add(group)
            self.counts["groups.aut_enum.cold"] += 1
            self.counts["groups.auts_enumerated"] += len(result)

    def _after_solve(self, args, result) -> None:
        self.counts["cohomology.solve.witness"] += result is not None

    def _after_pairs(self, args, result) -> None:
        self.counts["wells.compatible_pairs.pairs"] += len(result[0])

    def install(self) -> None:
        """Wrap every target; raise if an original stays reachable."""
        after = {"automorphism_group": self._after_aut_enum,
                 "CohomologyGroup.coboundary_solve": self._after_solve,
                 "compatible_pairs": self._after_pairs}
        for module in {module for _, module, _ in TARGETS}:
            importlib.import_module(f"extlift.{module}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "extlift" or name.startswith("extlift.")]
        originals = []
        for layer, module, attr in TARGETS:
            owner = sys.modules[f"extlift.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(layer, original, after.get(attr)))
            else:
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, original, after.get(attr))
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, name, wrapper)
            originals.append((attr, original))
        for attr, original in originals:
            for m in modules:
                holders = [name for name, value in vars(m).items() if value is original]
                for value in vars(m).values():
                    if isinstance(value, type):
                        holders += [f"{value.__name__}.{k}" for k, v in vars(value).items()
                                    if v is original]
                if holders:
                    raise RuntimeError(f"{attr} still untraced in {m.__name__}: {holders}")

    def run_op(self, op_id, fn):
        """Call fn() as operation op_id and return its result."""
        self.op = op_id
        start = perf_counter()
        try:
            return fn()
        finally:
            self.op_time += perf_counter() - start
            self.op = None

    def metrics(self) -> tuple[dict, Counter]:
        """Per-layer metrics (all but trace.overhead_s) and calls per layer."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time: Counter = Counter()
        calls: Counter = Counter()
        top = 0.0
        for (layer, start, end, parent, op), covered in zip(self.spans, child):
            self_time[layer] += end - start - covered
            calls[layer] += 1
            if parent < 0 and op is not None and op != "setup":
                top += end - start
        out = {f"{layer}_s": self_time[layer] for layer in LAYERS}
        out.update({f"{layer}.calls": calls[layer] for layer in COUNTED})
        solves = calls["cohomology.solve"]
        out["cohomology.solve.witness_ratio"] = (
            self.counts["cohomology.solve.witness"] / solves if solves else 0.0)
        enums = calls["groups.aut_enum"]
        out["groups.aut_enum.cold_ratio"] = (
            self.counts["groups.aut_enum.cold"] / enums if enums else 0.0)
        out["groups.auts_enumerated"] = self.counts["groups.auts_enumerated"]
        out["wells.compatible_pairs.pairs"] = self.counts["wells.compatible_pairs.pairs"]
        out["trace.spans"] = len(self.spans)
        out["trace.unattributed_s"] = self.op_time - top
        return out, calls

    def missing(self, workload: str, calls: Counter) -> list[str]:
        return [layer for layer in EXPECTED[workload] if not calls[layer]]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (layer, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps([index, layer, start, end, parent, op]) + "\n")
