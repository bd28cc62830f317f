"""Span tracer for the benchmark's traced pass.

`install` wraps public dualselmer functions from the outside. Every module
binding of a function is replaced, because `from .x import y` copies the
name: `torsion.poly_factor`, `curve.make_field`, `classify.torsion_point_degrees`
and `cli.is_good_ordinary` are separate bindings of the same objects. Span
targets record (name, start, end, parent, op id) in memory; counter targets
only count calls, because they run too often for a span each (one
`FqElement.__mul__` per field multiplication).

A layer's self time is its spans' duration minus the part covered by their
direct child spans, so the per-layer self times add up to the traced time.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# metric prefix -> (module, attribute), spans first, then counters
SPAN_TARGETS = {
    "arith.FqPoly.mul": ("dualselmer.arith", "FqPoly.__mul__"),
    "arith.FqPoly.divmod": ("dualselmer.arith", "FqPoly.__divmod__"),
    "arith.FqPoly.pow_mod": ("dualselmer.arith", "FqPoly.pow_mod"),
    "arith.poly_factor": ("dualselmer.arith", "poly_factor"),
    "arith.is_irreducible": ("dualselmer.arith", "is_irreducible"),
    "arith.count_quadratic_roots": ("dualselmer.arith", "count_quadratic_roots"),
    "arith.make_field": ("dualselmer.arith", "make_field"),
    "curve.count_points": ("dualselmer.curve", "count_points"),
    "curve.reduction_type": ("dualselmer.curve", "reduction_type"),
    "integers.factorize": ("dualselmer.integers", "factorize"),
    "torsion.division_poly": ("dualselmer.torsion", "division_poly"),
    "torsion.rational_p_torsion": ("dualselmer.torsion", "rational_p_torsion"),
    "torsion.torsion_point_degrees": ("dualselmer.torsion", "torsion_point_degrees"),
    "classify.build_report": ("dualselmer.classify", "build_report"),
    "classify.classify_prime": ("dualselmer.classify", "classify_prime"),
    "lfunc.unit_root": ("dualselmer.lfunc", "unit_root"),
    "registry.load_registry": ("dualselmer.registry", "load_registry"),
    "cli.main": ("dualselmer.cli", "main"),
    "cli.report_to_dict": ("dualselmer.cli", "report_to_dict"),
    "cli.dumps_canonical": ("dualselmer.cli", "dumps_canonical"),
}
COUNTER_TARGETS = {
    "arith.FqElement.mul": ("dualselmer.arith", "FqElement.__mul__"),
    "arith.FieldContext.extension": ("dualselmer.arith", "FieldContext.extension"),
    "arith.sqrt_element": ("dualselmer.arith", "sqrt_element"),
    "curve.is_good_ordinary": ("dualselmer.curve", "is_good_ordinary"),
    "curve.is_cm": ("dualselmer.curve", "is_cm"),
    "integers.is_prime": ("dualselmer.integers", "is_prime"),
    "lfunc.euler_factor": ("dualselmer.lfunc", "euler_factor"),
}

# Printed by a traced run, in this order. The suffix says how the value is
# derived; see Tracer.metrics.
PER_LAYER = (
    "arith.FqPoly.mul.calls", "arith.FqPoly.mul.self_s",
    "arith.FqPoly.divmod.calls", "arith.FqPoly.divmod.self_s",
    "arith.FqPoly.pow_mod.calls", "arith.FqPoly.pow_mod.self_s",
    "arith.poly_factor.calls", "arith.poly_factor.self_s",
    "arith.FqElement.mul.calls",
    "arith.is_irreducible.calls", "arith.is_irreducible.self_s",
    "arith.FieldContext.extension.calls",
    "curve.count_points.calls", "curve.count_points.self_s",
    "curve.count_points.elements", "curve.count_points.recount_ratio",
    "curve.reduction_type.calls", "curve.reduction_type.self_s",
    "curve.is_good_ordinary.calls", "curve.is_cm.calls",
    "arith.count_quadratic_roots.calls", "arith.count_quadratic_roots.self_s",
    "arith.sqrt_element.calls",
    "arith.make_field.calls", "arith.make_field.errors",
    "arith.make_field.cache_hit_ratio",
    "integers.factorize.calls", "integers.factorize.self_s",
    "integers.is_prime.calls",
    "torsion.division_poly.calls", "torsion.division_poly.self_s",
    "torsion.rational_p_torsion.calls", "torsion.rational_p_torsion.self_s",
    "torsion.torsion_point_degrees.calls", "torsion.torsion_point_degrees.self_s",
    "classify.build_report.self_s",
    "classify.classify_prime.calls", "classify.classify_prime.self_s",
    "lfunc.euler_factor.calls",
    "lfunc.unit_root.calls", "lfunc.unit_root.self_s",
    "registry.load_registry.calls", "registry.load_registry.self_s",
    "cli.main.self_s", "cli.report_to_dict.self_s", "cli.dumps_canonical.self_s",
)
UNITS = {
    "calls": "count", "errors": "count", "elements": "count", "self_s": "s",
    "recount_ratio": "ratio", "cache_hit_ratio": "ratio",
}


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.calls = {name: 0 for name in (*SPAN_TARGETS, *COUNTER_TARGETS)}
        self.errors = dict.fromkeys(SPAN_TARGETS, 0)
        self.absent: list[str] = []
        self.elements = 0  # field elements enumerated by count_points
        self.point_keys: set = set()  # distinct (curve, q, k) counted
        self.cache_base = None
        self._make_field = None

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, on_return=None):
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.names)
            self.names.append(name)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.op_id)
            self.stack.append(i)
            self.end.append(0)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                self.end[i] = clock()
                self.stack.pop()
            if on_return is not None:
                on_return(args)
            return result

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_points_done(self, args):
        curve, field = args
        self.elements += field.cardinality
        self.point_keys.add((curve.a_invariants, field.q, field.k))

    def install(self) -> None:
        """Patch every binding of every target in the loaded dualselmer
        modules. A target the program no longer has is listed in `absent`
        and reads 0, so a later refactor does not break the traced run."""
        modules = [m for n, m in sys.modules.items()
                   if n == "dualselmer" or n.startswith("dualselmer.")]
        for name, (modname, attr) in (*SPAN_TARGETS.items(), *COUNTER_TARGETS.items()):
            owner = sys.modules.get(modname)
            cls_name, _, meth = attr.rpartition(".")
            holder = getattr(owner, cls_name, None) if cls_name else owner
            original = None if holder is None else vars(holder).get(meth)
            if original is None:
                self.absent.append(name)
                continue
            if name in COUNTER_TARGETS:
                wrapped = self._counter(name, original)
            elif name == "curve.count_points":
                wrapped = self._span(name, original, self._count_points_done)
            else:
                wrapped = self._span(name, original)
            if name == "arith.make_field":
                self._make_field = original
                self.cache_base = original.cache_info()
            if cls_name:
                setattr(holder, meth, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    # -- results ---------------------------------------------------------------

    def totals(self):
        """Span calls and self time (ns) per name, from the recorded spans."""
        n = len(self.names)
        covered = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls = dict(self.calls)
        self_ns = dict.fromkeys(SPAN_TARGETS, 0)
        for i, name in enumerate(self.names):
            calls[name] += 1
            self_ns[name] += self.end[i] - self.start[i] - covered[i]
        return calls, self_ns

    def counts(self, calls) -> dict:
        """Everything that must repeat exactly between two runs of one seed."""
        out = {f"{k}.calls": v for k, v in calls.items()}
        out.update({f"{k}.errors": v for k, v in self.errors.items()})
        out["curve.count_points.elements"] = self.elements
        out["curve.count_points.distinct"] = len(self.point_keys)
        if self._make_field is not None:
            info = self._make_field.cache_info()
            out["arith.make_field.cache_hits"] = info.hits - self.cache_base.hits
            out["arith.make_field.cache_misses"] = info.misses - self.cache_base.misses
        return out

    def metrics(self) -> tuple[dict, dict]:
        """(per-layer metric values, exact counts)."""
        calls, self_ns = self.totals()
        counts = self.counts(calls)
        values = {}
        for metric in PER_LAYER:
            target, kind = metric.rsplit(".", 1)
            if kind == "calls":
                values[metric] = calls[target]
            elif kind == "errors":
                values[metric] = self.errors[target]
            elif kind == "self_s":
                values[metric] = self_ns[target] / 1e9
            elif kind == "elements":
                values[metric] = self.elements
            elif kind == "recount_ratio":
                distinct = len(self.point_keys)
                values[metric] = calls[target] / distinct if distinct else 0.0
            elif kind == "cache_hit_ratio":
                hits = counts.get("arith.make_field.cache_hits", 0)
                looked = hits + counts.get("arith.make_field.cache_misses", 0)
                values[metric] = hits / looked if looked else 0.0
        return values, counts

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start_ns, end_ns, parent, op."""
        with open(path, "w", encoding="utf-8") as handle:
            for i, name in enumerate(self.names):
                handle.write(json.dumps(
                    [name, self.start[i], self.end[i], self.parent[i], self.op[i]]
                ) + "\n")
