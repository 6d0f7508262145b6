"""Per-layer tracing of symrees from outside the program.

`Tracer.install` wraps the public functions of each layer module and rebinds
every reference to them in every loaded `symrees` module: a name imported
with `from .ideal_ops import intersect` is a separate binding in `curves`,
`blowup` and the rest, so patching `ideal_ops` alone would miss those calls.
Spans (name, start, end, parent, pass, item, attributes) stay in memory until
`dump` writes them out; `uninstall` restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from time import perf_counter

# (layer name, module, attribute); a dotted attribute is a method on a class.
# eliminate and eliminate_vars share one name, so a later merge of the two
# keeps its metric.
LAYERS = (
    ("groebner.buchberger", "symrees.groebner", "buchberger"),
    ("groebner.buchberger_tracked", "symrees.groebner", "buchberger_tracked"),
    ("groebner.normal_form", "symrees.groebner", "normal_form"),
    ("groebner.division", "symrees.groebner", "division"),
    ("groebner.groebner", "symrees.groebner", "groebner"),
    ("ideal_ops.intersect", "symrees.ideal_ops", "intersect"),
    ("ideal_ops.quotient", "symrees.ideal_ops", "quotient"),
    ("ideal_ops.saturate_principal", "symrees.ideal_ops", "saturate_principal"),
    ("ideal_ops.eliminate", "symrees.ideal_ops", "eliminate"),
    ("ideal_ops.eliminate", "symrees.ideal_ops", "eliminate_vars"),
    ("ideal_ops.dimension", "symrees.ideal_ops", "dimension"),
    ("ideal_ops.ideal_contains", "symrees.ideal_ops", "ideal_contains"),
    ("syzygy.syzygies", "symrees.syzygy", "syzygies"),
    ("curves.analyze_family", "symrees.curves", "analyze_family"),
    ("curves.evaluate_member", "symrees.curves", "evaluate_member"),
    ("curves.linear_type_certificate", "symrees.curves", "linear_type_certificate"),
    ("blowup.make_pair", "symrees.blowup", "make_pair"),
    ("blowup.rees_ideal", "symrees.blowup", "rees_ideal"),
    ("blowup.relative_rees_ideal", "symrees.blowup", "relative_rees_ideal"),
    ("blowup.sym_forms", "symrees.blowup", "sym_forms"),
    ("blowup.aluffi_presentation", "symrees.blowup", "aluffi_presentation"),
    ("blowup.vv_pieces", "symrees.blowup", "vv_pieces"),
    ("blowup.artin_rees_number", "symrees.blowup", "artin_rees_number"),
    ("blowup.standard_base_check", "symrees.blowup", "standard_base_check"),
    ("blowup.analytic_spread", "symrees.blowup", "analytic_spread"),
    ("oracle.graded_piece_dimension", "symrees.oracle", "graded_piece_dimension"),
    ("rings.parse", "symrees.rings", "RingContext.parse"),
)

# Which figures each layer reports, as in the benchmark's per-layer list.
SELF = ("calls", "self_s")
TOTAL = ("calls", "total_s")
ALL = ("calls", "self_s", "total_s")
REPORTED = {
    "groebner.buchberger": SELF,
    "groebner.buchberger_tracked": SELF,
    "groebner.normal_form": SELF,
    "groebner.division": SELF,
    "groebner.groebner": ("calls",),
    "ideal_ops.intersect": ALL,
    "ideal_ops.quotient": ALL,
    "ideal_ops.saturate_principal": ALL,
    "ideal_ops.eliminate": ALL,
    "ideal_ops.dimension": ALL,
    "ideal_ops.ideal_contains": ALL,
    "syzygy.syzygies": ALL,
    "curves.analyze_family": TOTAL,
    "curves.evaluate_member": TOTAL,
    "curves.linear_type_certificate": TOTAL,
    "blowup.make_pair": TOTAL,
    "blowup.rees_ideal": TOTAL,
    "blowup.relative_rees_ideal": TOTAL,
    "blowup.sym_forms": TOTAL,
    "blowup.aluffi_presentation": TOTAL,
    "blowup.vv_pieces": TOTAL,
    "blowup.artin_rees_number": TOTAL,
    "blowup.standard_base_check": TOTAL,
    "blowup.analytic_spread": TOTAL,
    "oracle.graded_piece_dimension": SELF,
    "rings.parse": SELF,
}

# Derived figures: (name, unit, better).  Units of the REPORTED figures follow
# from their suffix.
DERIVED = (
    ("groebner.input_gens", "count", "lower"),
    ("groebner.basis_elems", "count", "lower"),
    ("groebner.max_coeff_bits", "bits", "lower"),
    ("groebner.groebner.cache_hit_ratio", "ratio", "higher"),
    ("syzygy.columns", "count", "lower"),
    ("syzygy.distinct_ratio", "ratio", "higher"),
    ("curves.entry_gens", "count", "lower"),
)



def _coeff_bits(polys) -> int:
    bits = 0
    for p in polys:
        for c in p.terms.values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


def _arg(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _basis_attrs(source, basis) -> dict:
    gens = source.gens if hasattr(source, "gens") else list(source)
    return {"input_gens": len(gens), "basis_elems": len(basis.elements),
            "coeff_bits": _coeff_bits(basis.elements)}


def _nonzero_entries(matrix) -> int:
    return sum(1 for row in matrix.entries for e in row if not e.is_zero)


# Attribute hooks run after a span closes; their cost is kept out of every
# span's self time.
HOOKS = {
    "groebner.buchberger":
        lambda args, kwargs, res: _basis_attrs(_arg(args, kwargs, "source"), res),
    "groebner.buchberger_tracked":
        lambda args, kwargs, res: _basis_attrs(_arg(args, kwargs, "source"), res[0]),
    "syzygy.syzygies":
        lambda args, kwargs, res: {"columns": res.cols,
                                   "input_key": hash(tuple(_arg(args, kwargs, "gens")))},
    "curves.analyze_family":
        lambda args, kwargs, res: {"entry_gens": len(res.entry_ideal.gens)},
    "curves.linear_type_certificate":
        lambda args, kwargs, res: (
            {"entry_gens": _nonzero_entries(res.syzygy_matrix)}
            if res.syzygy_matrix is not None else None),
}

# span fields
NAME, START, END, PARENT, PASS, ITEM, ATTRS, HOOK_S = range(8)


class Tracer:
    """Wraps the layer functions; records spans while `recording` is set."""

    def __init__(self):
        self.spans: list = []
        self.recording = False
        self.pass_no = -1          # -1 marks the set-up phase
        self.item = "setup"
        self._stack: list = []
        self._patches: list = []   # (owner, attribute, original)

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.pass_no, self.item, None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if hook is not None:
                span[ATTRS] = hook(args, kwargs, result)
                if parent >= 0:
                    spans[parent][HOOK_S] += perf_counter() - span[END]
            return result

        return functools.wraps(fn)(traced)

    def install(self):
        # `symrees.groebner` is the function re-exported by the package, so
        # the modules are looked up by their full names.
        modules = {m: importlib.import_module(m) for _, m, _ in LAYERS}
        owners = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "symrees" or n.startswith("symrees."))]
        for name, modname, attr in LAYERS:
            module = modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, key, original))
                        setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def dump(self, path, t0: float):
        """Write the spans as JSON lines, times in seconds from t0."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                attrs = {k: v for k, v in (s[ATTRS] or {}).items() if k != "input_key"}
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START] - t0,
                    "end": s[END] - t0, "parent": s[PARENT], "pass": s[PASS],
                    "item": s[ITEM], "attrs": attrs}) + "\n")

    def spans_of(self, passes) -> list:
        """Indices of the spans recorded in the given passes."""
        wanted = set(passes)
        return [i for i, s in enumerate(self.spans) if s[PASS] in wanted]

    def layer_metrics(self, passes) -> dict:
        """Per-layer figures over the spans of the given passes."""
        spans = self.spans
        chosen = self.spans_of(passes)
        child_s = {i: 0.0 for i in chosen}
        has_bb_child = set()
        for i in chosen:
            p = spans[i][PARENT]
            if p >= 0:
                child_s[p] += spans[i][END] - spans[i][START]
                if spans[i][NAME] == "groebner.buchberger":
                    has_bb_child.add(p)
        per = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
               for name in REPORTED}
        gens = elems = bits = columns = entry = 0
        syz_keys: dict = {}
        hits = 0
        for i in chosen:
            s = spans[i]
            dur = s[END] - s[START]
            row = per[s[NAME]]
            row["calls"] += 1
            row["self_s"] += dur - child_s[i] - s[HOOK_S]
            if not self._nested_in_same(i):
                row["total_s"] += dur
            a = s[ATTRS] or {}
            gens += a.get("input_gens", 0)
            elems += a.get("basis_elems", 0)
            bits = max(bits, a.get("coeff_bits", 0))
            columns += a.get("columns", 0)
            entry += a.get("entry_gens", 0)
            if "input_key" in a:
                syz_keys.setdefault((s[PASS], s[ITEM]), set()).add(a["input_key"])
            if s[NAME] == "groebner.groebner" and i not in has_bb_child:
                hits += 1
        out = {}
        for name, fields in REPORTED.items():
            for f in fields:
                out[f"{name}.{f}"] = per[name][f]
        gb_calls = per["groebner.groebner"]["calls"]
        syz_calls = per["syzygy.syzygies"]["calls"]
        distinct = sum(len(v) for v in syz_keys.values())
        out.update({
            "groebner.input_gens": gens,
            "groebner.basis_elems": elems,
            "groebner.max_coeff_bits": bits,
            "groebner.groebner.cache_hit_ratio": hits / gb_calls if gb_calls else 0.0,
            "syzygy.columns": columns,
            "syzygy.distinct_ratio": distinct / syz_calls if syz_calls else 0.0,
            "curves.entry_gens": entry,
        })
        return out

    def _nested_in_same(self, i: int) -> bool:
        name = self.spans[i][NAME]
        p = self.spans[i][PARENT]
        while p >= 0:
            if self.spans[p][NAME] == name:
                return True
            p = self.spans[p][PARENT]
        return False


def metric_specs() -> list:
    """(name, unit, better) for every per-layer figure the tracer reports."""
    specs = []
    for name, fields in REPORTED.items():
        for f in fields:
            specs.append((f"{name}.{f}", "count" if f == "calls" else "s", "lower"))
    specs.extend(DERIVED)
    specs.append(("trace_overhead_ratio", "ratio", "lower"))
    return specs


def deterministic_names() -> list:
    """Figures that must repeat exactly between runs on one seed."""
    return ([f"{name}.calls" for name in REPORTED]
            + [name for name, _, _ in DERIVED])


def median_metrics(per_pass: list) -> dict:
    """Median over passes of each figure."""
    out = {}
    for k in per_pass[0]:
        values = [m[k] for m in per_pass]
        exact = all(isinstance(v, int) for v in values)
        out[k] = statistics.median_low(values) if exact else statistics.median(values)
    return out
