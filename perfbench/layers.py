"""Per-layer spans and counters, installed around veralg's public entry points.

The tracer wraps functions and methods of the veralg modules from outside
the package.  Each wrapped call opens a span; a span's self time is its
duration minus the time covered by the spans it caused.  Spans are folded
into per-name totals as they close, so memory stays flat however many calls
a run makes.  A call to a name that already has an open span (the recursion
of ``_p_gcd`` and ``word_transform``) is folded into the outermost span: it
is neither counted nor timed on its own.

Only standard-library timers are used, and nothing here starts a thread.
"""

from __future__ import annotations

import functools
import sys
import time

# (span name, module, attribute) for module-level functions.  Every veralg
# namespace that bound the same object (``from .x import y``) is patched.
FUNCTIONS = (
    ("scalars.gcd", "veralg.scalars", "_p_gcd"),
    ("scalars.reduce", "veralg.scalars", "parampoly_reduce"),
    ("scalars.factor", "veralg.scalars", "factor_for_branching"),
    ("variety.build", "veralg.variety", "build_truncated"),
    ("verbal.check_op2", "veralg.verbal", "check_op2"),
    ("verbal.word_transform", "veralg.verbal", "word_transform"),
    ("closure.ideal_build", "veralg.closure", "ideal_build"),
    ("closure.gen_constraints", "veralg.closure", "gen_constraints"),
    ("closure.solve_cases", "veralg.closure", "solve_cases"),
    ("closure.kernel_contains", "veralg.closure", "kernel_contains"),
)

# (span name, module, class, method) for methods, patched on the class.
METHODS = (
    ("variety.insert", "veralg.variety", "RowReducer", "insert"),
    ("variety.normal_form", "veralg.variety", "TruncatedAlgebra", "normal_form"),
    ("freealg.symbolic_apply", "veralg.freealg", "SymbolicEndomorphism", "apply"),
)


class Tracer:
    """Span stack plus per-name totals: calls, inclusive and self seconds."""

    def __init__(self):
        self.calls = {}
        self.incl = {}
        self.self_s = {}
        self.counts = {}
        self._stack = []  # [name, start, seconds covered by child spans]
        self._open = set()

    # -- spans

    def wrap(self, name, fn):
        clock = time.perf_counter
        stack = self._stack
        open_names = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in open_names:
                return fn(*args, **kwargs)
            open_names.add(name)
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                open_names.discard(name)
                dur = end - frame[1]
                self.calls[name] = self.calls.get(name, 0) + 1
                self.incl[name] = self.incl.get(name, 0.0) + dur
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[2]
                if stack:
                    stack[-1][2] += dur

        return traced

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- installation

    def _rebind(self, original, replacement):
        """Point every veralg namespace that holds `original` at `replacement`."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "veralg" or modname.startswith("veralg.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    def install(self):
        import veralg  # noqa: F401  (loads every submodule)

        for name, modname, attr in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapped = self.wrap(name, original)
            if name == "variety.build":
                wrapped = self._counting_build(wrapped)
            elif name == "closure.solve_cases":
                wrapped = self._counting_cases(wrapped)
            self._rebind(original, wrapped)

        for name, modname, cls_name, attr in METHODS:
            cls = getattr(sys.modules[modname], cls_name)
            original = cls.__dict__[attr]
            wrapped = self.wrap(name, original)
            if name == "variety.insert":
                wrapped = self._counting_insert(wrapped)
            setattr(cls, attr, wrapped)

        freealg = sys.modules["veralg.freealg"]
        self._rebind(
            freealg.enumerate_monomials,
            self._counting_enumerate(freealg.enumerate_monomials),
        )
        return self

    # -- counters read at the layer boundaries

    def _counting_build(self, fn):
        memo = sys.modules["veralg.variety"]._BUILD_MEMO

        @functools.wraps(fn)
        def build(*args, **kwargs):
            before = len(memo)
            try:
                return fn(*args, **kwargs)
            finally:
                if len(memo) > before:
                    self.count("variety.build_misses")

        return build

    def _counting_insert(self, fn):
        @functools.wraps(fn)
        def insert(*args, **kwargs):
            useful = fn(*args, **kwargs)
            if useful:
                self.count("variety.insert_useful")
            return useful

        return insert

    def _counting_cases(self, fn):
        @functools.wraps(fn)
        def solve(*args, **kwargs):
            tree = fn(*args, **kwargs)
            nodes, leaves, depth, stuck = _tree_shape(tree)
            self.count("closure.case_nodes", nodes)
            self.count("closure.case_leaves", leaves)
            self.count("closure.stuck_leaves", stuck)
            self.counts["closure.case_depth_max"] = max(
                self.counts.get("closure.case_depth_max", 0), depth
            )
            return tree

        return solve

    def _counting_enumerate(self, cached):
        # enumerate_monomials is an lru_cache; count the monomials it builds
        # on a miss.  Its recursion goes through the module global, so inner
        # calls land here as well and count their own misses.
        @functools.wraps(cached)
        def enumerate_monomials(*args, **kwargs):
            misses = cached.cache_info().misses
            out = cached(*args, **kwargs)
            if cached.cache_info().misses > misses:
                self.count("freealg.monomials_enumerated", len(out))
            return out

        return enumerate_monomials

    # -- report

    def memo_sizes(self):
        freealg = sys.modules["veralg.freealg"]
        variety = sys.modules["veralg.variety"]
        return {
            "freealg.intern_size": len(freealg._INTERN),
            "variety.build_memo_size": len(variety._BUILD_MEMO),
            "verbal.sigma_memo_size": sum(
                len(alg._sigma_memo) for alg in variety._BUILD_MEMO.values()
            ),
        }

    def report(self):
        """Raw totals of one traced process; `combine` merges several."""
        return {
            "calls": dict(self.calls),
            "incl": dict(self.incl),
            "self": dict(self.self_s),
            "counts": dict(self.counts),
            "memo": self.memo_sizes(),
        }


def _tree_shape(tree):
    """(nodes, leaves, max depth, stuck leaves) of a case tree."""
    nodes = leaves = depth_max = stuck = 0
    todo = [(tree, 0)]
    while todo:
        node, depth = todo.pop()
        nodes += 1
        depth_max = max(depth_max, depth)
        if node.children:
            todo.extend((child, depth + 1) for child in node.children)
        else:
            leaves += 1
            stuck += node.status == "stuck"
    return nodes, leaves, depth_max, stuck


def combine(reports):
    """Merge the raw reports of the processes of one pass.

    Calls, times and counts add up; the case-tree depth and the memo sizes
    (which each process holds until it exits) take the largest value.
    """
    out = {"calls": {}, "incl": {}, "self": {}, "counts": {}, "memo": {}}
    for rep in reports:
        for part in ("calls", "incl", "self", "counts"):
            for key, value in rep[part].items():
                if key == "closure.case_depth_max":
                    out[part][key] = max(out[part].get(key, 0), value)
                else:
                    out[part][key] = out[part].get(key, 0) + value
        for key, value in rep["memo"].items():
            out["memo"][key] = max(out["memo"].get(key, 0), value)
    return out


# The per-layer metrics BENCHMARK.json lists, except the tracing overhead,
# which run.py adds: name -> (unit, function of a combined report).
def _calls(name):
    return lambda r: r["calls"].get(name, 0)


def _self(name):
    return lambda r: r["self"].get(name, 0.0)


def _count(name):
    return lambda r: r["counts"].get(name, 0)


def _useful_ratio(r):
    calls = r["calls"].get("variety.insert", 0)
    return r["counts"].get("variety.insert_useful", 0) / calls if calls else 0.0


LAYER_METRICS = {
    "scalars.gcd_calls": ("count", _calls("scalars.gcd")),
    "scalars.gcd_self_s": ("s", _self("scalars.gcd")),
    "scalars.reduce_calls": ("count", _calls("scalars.reduce")),
    "scalars.reduce_self_s": ("s", _self("scalars.reduce")),
    "scalars.factor_self_s": ("s", _self("scalars.factor")),
    "variety.build_calls": ("count", _calls("variety.build")),
    "variety.build_misses": ("count", _count("variety.build_misses")),
    "variety.build_self_s": ("s", _self("variety.build")),
    "variety.insert_calls": ("count", _calls("variety.insert")),
    "variety.insert_useful_ratio": ("ratio", _useful_ratio),
    "variety.insert_self_s": ("s", _self("variety.insert")),
    "variety.normal_form_calls": ("count", _calls("variety.normal_form")),
    "variety.normal_form_self_s": ("s", _self("variety.normal_form")),
    "verbal.check_op2_calls": ("count", _calls("verbal.check_op2")),
    "verbal.check_op2_self_s": ("s", _self("verbal.check_op2")),
    "verbal.word_transform_calls": ("count", _calls("verbal.word_transform")),
    "verbal.word_transform_self_s": ("s", _self("verbal.word_transform")),
    "closure.ideal_build_self_s": ("s", _self("closure.ideal_build")),
    "closure.gen_constraints_self_s": ("s", _self("closure.gen_constraints")),
    "closure.solve_cases_self_s": ("s", _self("closure.solve_cases")),
    "closure.solve_cases_incl_s": ("s", lambda r: r["incl"].get("closure.solve_cases", 0.0)),
    "closure.kernel_contains_calls": ("count", _calls("closure.kernel_contains")),
    "closure.kernel_contains_self_s": ("s", _self("closure.kernel_contains")),
    "closure.case_nodes": ("count", _count("closure.case_nodes")),
    "closure.case_leaves": ("count", _count("closure.case_leaves")),
    "closure.case_depth_max": ("count", _count("closure.case_depth_max")),
    "closure.stuck_leaves": ("count", _count("closure.stuck_leaves")),
    "freealg.symbolic_apply_calls": ("count", _calls("freealg.symbolic_apply")),
    "freealg.symbolic_apply_self_s": ("s", _self("freealg.symbolic_apply")),
    "freealg.monomials_enumerated": ("count", _count("freealg.monomials_enumerated")),
    "freealg.intern_size": ("count", lambda r: r["memo"].get("freealg.intern_size", 0)),
    "variety.build_memo_size": ("count", lambda r: r["memo"].get("variety.build_memo_size", 0)),
    "verbal.sigma_memo_size": ("count", lambda r: r["memo"].get("verbal.sigma_memo_size", 0)),
}


def layer_metrics(report):
    return {name: (fn(report), unit) for name, (unit, fn) in LAYER_METRICS.items()}


def dominant(report, top=3):
    """The names with the largest self time, largest first."""
    ranked = sorted(report["self"].items(), key=lambda kv: -kv[1])
    return [name for name, _ in ranked[:top]]
