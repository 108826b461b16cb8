"""Span and counter tracing of galecubics, installed from outside the package.

Every public function of each layer module, and a short list of methods and
private helpers, is replaced by a wrapper that records a span: name, parent
span, item id, start and end.  Spans stay in memory, in flat arrays, until
the run ends; self time is a span's duration minus the durations of its
direct children.  A few hot leaves (field arithmetic, ``leading_monomial``)
only count calls: a span each would dominate the run they measure.

Patching rules:

* a module function is replaced in every ``galecubics`` namespace (and every
  extra namespace given) that holds the original object, because
  ``from .x import f`` binds ``f`` in the importing module too;
* methods are replaced on their class;
* ``uninstall`` restores every replaced attribute.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("fields", "linalg", "poly", "exterior", "gale", "lagrangian",
          "invariants", "epw", "gmlink", "lattice", "groebner", "equivariant",
          "serialize", "cli")

# (layer, class) -> {method: span name suffix}
METHODS = {
    ("linalg", "Matrix"): {"rref": "rref", "__mul__": "mul", "det": "det",
                           "kernel_basis": "kernel_basis", "rank": "rank",
                           "row_space": "row_space", "solve": "solve",
                           "inverse": "inverse"},
    ("poly", "MultiPoly"): {"__mul__": "mul", "subs": "subs",
                            "derivative": "derivative", "evaluate": "evaluate"},
    ("exterior", "ExteriorElement"): {"contract": "contract", "wedge": "wedge"},
    ("gale", "NonSyzygeticEquation"): {"change_coordinates": "change_coordinates",
                                       "cubic_polynomial": "cubic_polynomial"},
    ("lagrangian", "QPPresentation"): {"qtp": "qtp", "alpha": "alpha",
                                       "sigma": "sigma"},
    ("serialize", "InstanceFile"): {"equation": "equation",
                                    "lagrangian": "lagrangian", "point": "point",
                                    "line_points": "line_points",
                                    "params": "params"},
}

# private helpers traced under a public name
PRIVATE = {("epw", "_determinant_divisor_on_pencil"): "divisor_fallback"}

# called millions of times per item: left to their caller's self time
UNTRACED = {("groebner", "degrevlex_key"), ("groebner", "monomial_divides"),
            ("groebner", "monomial_lcm"), ("groebner", "monomial_mul"),
            ("groebner", "monomial_sub"), ("exterior", "sort_indices")}

# counted, never spanned
COUNTED = {("groebner", "leading_monomial"): "groebner.leading_monomial.calls"}
FIELD_OPS = ("add", "sub", "mul", "div", "neg", "inv")
FIELD_CLASSES = {"RationalField": "fields.rationals.ops",
                 "PrimeField": "fields.prime.ops"}


class Tracer:
    """Spans and counters of one traced pass; ``install`` before it,
    ``uninstall`` after it, ``report`` at the end."""

    def __init__(self, extra_namespaces=()):
        self.extra_namespaces = list(extra_namespaces)
        self.names: list = []
        self.name_ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.item = -1
        self.counts = defaultdict(int)
        self.last_spoly = None
        self._restore = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, before=None, after=None):
        nid = self._name_id(name)
        names, parents, items = self.span_name, self.span_parent, self.span_item
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            items.append(self.item)
            ends.append(0.0)
            stack.append(idx)
            if before is not None:
                before(args)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def run_item(self, item_id: int, fn, *args):
        """Run one benchmark item under a root span named ``item``."""
        self.item = item_id
        return self.span("item", fn)(*args)

    # -- hooks for layer-specific counts ------------------------------------

    def _rref_shape(self, args):
        m = args[0]
        self.counts[f"linalg.rref.calls.{m.rows}x{m.cols}"] += 1

    def _spoly_after(self, args, result):
        self.last_spoly = result

    def _normal_form_after(self, args, result):
        if args and args[0] is self.last_spoly:
            self.last_spoly = None
            self.counts["groebner.s_reduced"] += 1
            if result.is_zero():
                self.counts["groebner.reductions_to_zero"] += 1

    def _harvest_after(self, args, result):
        self.counts["epw.harvest.kept"] += len(result)

    def _scan_after(self, args, result):
        harvest = self.name_ids["epw.harvest_epw_points"]
        if any(self.span_name[i] == harvest for i in self.stack[1:]):
            self.counts["epw.harvest.scanned"] += len(result)

    HOOKS = {
        "linalg.rref": ("_rref_shape", None),
        "groebner.s_polynomial": (None, "_spoly_after"),
        "groebner.normal_form": (None, "_normal_form_after"),
        "epw.harvest_epw_points": (None, "_harvest_after"),
        "epw.epw_points_on_line": (None, "_scan_after"),
    }

    def _hooked_span(self, name, fn):
        before, after = self.HOOKS.get(name, (None, None))
        return self.span(name, fn,
                         getattr(self, before) if before else None,
                         getattr(self, after) if after else None)

    # -- install / uninstall ------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper):
        spaces = [m for n, m in list(sys.modules.items())
                  if n == "galecubics" or n.startswith("galecubics.")]
        for space in spaces + self.extra_namespaces:
            for attr, value in list(vars(space).items()):
                if value is original:
                    self._set(space, attr, wrapper)

    def install(self):
        for layer in LAYERS:
            module = importlib.import_module(f"galecubics.{layer}")
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if (layer, attr) in UNTRACED:
                    continue
                if (layer, attr) in COUNTED:
                    wrapper = self.counter(COUNTED[(layer, attr)], obj)
                elif (layer, attr) in PRIVATE:
                    wrapper = self._hooked_span(f"{layer}.{PRIVATE[(layer, attr)]}", obj)
                elif attr.startswith("_"):
                    continue
                else:
                    wrapper = self._hooked_span(f"{layer}.{attr}", obj)
                self._replace_everywhere(obj, wrapper)
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(sys.modules[f"galecubics.{layer}"], cls_name)
            for attr, suffix in methods.items():
                self._set(cls, attr,
                          self._hooked_span(f"{layer}.{suffix}", cls.__dict__[attr]))
        fields = sys.modules["galecubics.fields"]
        for cls_name, name in FIELD_CLASSES.items():
            cls = getattr(fields, cls_name)
            for op in FIELD_OPS:
                if op in cls.__dict__:   # an inherited op calls counted ones
                    self._set(cls, op, self.counter(name, cls.__dict__[op]))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- report -------------------------------------------------------------

    def report(self):
        """Per-name span counts, self and inclusive seconds, and counters."""
        n = len(self.span_name)
        child = [0.0] * n
        durations = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += durations[i]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += durations[i] - child[i]
            # inclusive time, not counted twice under a direct recursion
            p = self.span_parent[i]
            if p < 0 or self.names[self.span_name[p]] != name:
                total_s[name] += durations[i]
        return {"spans": n, "calls": dict(calls), "self_s": dict(self_s),
                "total_s": dict(total_s), "counts": dict(self.counts)}
