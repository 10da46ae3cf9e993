"""Per-module tracing for the traced run, done entirely from outside ``src/``.

``Tracer.install`` replaces the public functions and methods of each module
with wrappers and ``Tracer.uninstall`` puts the originals back.  A function
imported by name into another module is replaced there too, so every call
site sees the wrapper.  Nothing is written to disk: spans are folded into
per-name totals as they close, which keeps memory flat on runs with
millions of calls.

Two kinds of wrapper:

* a *counter* only counts calls.  It is used for the two hottest entry
  points, Ordinal construction and comparison, and for the ladder
  ``fund_seq``, where a timed span would cost more than the call;
* a *span* counts calls and times them.  Self time is the span's duration
  minus the time covered by its child spans, so the self times of all
  spans add up to the traced time without double counting.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

from treewedge import cli, coherent, families, forcing, gen, literals, ordinal, sorgenfrey, suites, trees, wedge

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.keys = defaultdict(set)
        self.tallies = Counter()
        self.ratios = defaultdict(list)
        self._stack = [[0.0]]
        self._depth = Counter()
        self._undo = []

    # --- wrappers ----------------------------------------------------------------

    def _counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, name, fn, key=None, outcome=None, group=None):
        """``key(args)`` feeds the distinct-argument ratio; ``outcome(result,
        error)`` runs on the outermost call of ``group`` (default: name)."""
        calls, self_s, total_s, stack, depth = self.calls, self.self_s, self.total_s, self._stack, self._depth
        keys = self.keys[name]
        group = group or name

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if key is not None:
                keys.add(key(args))
            frame = [0.0]
            stack.append(frame)
            depth[group] += 1
            outer = depth[group] == 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if outcome is not None and outer:
                    outcome(None, exc)
                raise
            finally:
                elapsed = perf_counter() - t0
                depth[group] -= 1
                stack.pop()
                stack[-1][0] += elapsed
                self_s[name] += elapsed - frame[0]
                if outer:
                    total_s[name] += elapsed
            if outcome is not None and outer:
                outcome(result, None)
            return result

        return wrapper

    # --- patching ----------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _module_function(self, module, attr, make):
        """Wrap ``module.attr`` in every treewedge module that imported it."""
        original = getattr(module, attr)
        wrapped = make(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("treewedge") and getattr(mod, attr, None) is original:
                self._set(mod, attr, wrapped)
        return original, wrapped

    def _method(self, cls, attr, make):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make(raw.__func__)))
        else:
            self._set(cls, attr, make(raw))

    def install(self):
        span, counter = self._span, self._counter
        O = ordinal.Ordinal

        # ordinal: counts only on the hot paths
        self._method(O, "__init__", lambda f: counter("ordinal.construct", f))
        self._method(O, "__lt__", lambda f: counter("ordinal.compare", f))
        self._module_function(ordinal, "cmp_ord", lambda f: counter("ordinal.compare", f))
        original, wrapped = self._module_function(ordinal, "fund_seq", lambda f: counter("ordinal.fund_seq", f))
        init = coherent.CoherentSystem.__init__
        self._undo.append((init, "__defaults__", init.__defaults__))
        init.__defaults__ = tuple(wrapped if d is original else d for d in init.__defaults__)
        self._module_function(ordinal, "parse_cnf", lambda f: span("ordinal.parse_cnf", f))

        # coherent
        pair = lambda args: (args[1], args[2])  # noqa: E731
        C = coherent.CoherentSystem
        self._method(C, "eval_e", lambda f: span("coherent.eval_e", f, key=pair))
        self._method(C, "delta_e", lambda f: span("coherent.delta_e", f, key=pair))

        # families
        for cls in (families.InjFamily, families.BitFamily, families.DigitFamily):
            for attr in ("restrict", "query"):
                self._method(cls, attr, lambda f, a=attr: span(f"families.{a}", f))
        self._method(families.DigitFamily, "glue", lambda f: span("families.glue", f))
        self._method(families.DigitFamily, "embed_bits", lambda f: span("families.embed_bits", f))
        self._method(families.BitFamily, "char_delta", lambda f: span("families.char_delta", f))

        # trees
        for attr in ("complete", "level_nodes", "ancestor_at"):
            self._method(trees.ExplicitTree, attr, lambda f, a=attr: span(f"trees.{a}", f))

        # wedge
        def oracle_outcome(report, error):
            if report is not None:
                self.tallies["wedge.oracle.rules_checked"] += report["covers_checked"]
                self.ratios["wedge.oracle.coverage_ratio"].append(report["covers_checked"] / report["space"])

        def found_outcome(node, error):
            self.ratios["wedge.find_safe_point.found_ratio"].append(float(error is None and node is not None))

        def covers_outcome(covered, error):
            if isinstance(error, wedge.CoverUndecided):
                self.tallies["wedge.covers_within.undecided"] += 1

        self._module_function(wedge, "lindelof_oracle", lambda f: span("wedge.lindelof_oracle", f, outcome=oracle_outcome))
        self._module_function(wedge, "is_safe", lambda f: span("wedge.is_safe", f))
        self._module_function(wedge, "find_safe_point", lambda f: span("wedge.find_safe_point", f, outcome=found_outcome))
        self._module_function(wedge, "covers_within", lambda f: span("wedge.covers_within", f, outcome=covers_outcome))

        # sorgenfrey
        for attr in ("find_between", "isolating_box", "dense_injection", "uncovered_left_endpoints"):
            self._module_function(sorgenfrey, attr, lambda f, a=attr: span(f"sorgenfrey.{a}", f))

        # forcing; the two extension algorithms share one outermost-call group
        def extend_outcome(result, error):
            self.ratios["forcing.extend.fail_ratio"].append(float(isinstance(error, forcing.ExtensionError)))

        for attr in ("extend_to_include", "extend_above"):
            self._module_function(
                forcing, attr, lambda f, a=attr: span(f"forcing.{a}", f, outcome=extend_outcome, group="forcing.extend")
            )
        for attr in ("union_compatible", "simulate_filter", "spec_extend"):
            self._module_function(forcing, attr, lambda f, a=attr: span(f"forcing.{a}", f))

        # literals and cli
        for attr in ("parse_cover", "parse_node", "format_node"):
            self._module_function(literals, attr, lambda f, a=attr: span(f"literals.{a}", f))
        self._method(cli.QueryContext, "__init__", lambda f: span("cli.context", f))
        self._module_function(cli, "main", lambda f: span("cli.main", f))

        # suites and gen
        for name, fn in list(suites.SUITES.items()):
            self._undo.append((suites.SUITES, name, fn))
            suites.SUITES[name] = span(f"suites.{name}", fn)
        self._method(suites.Workspace, "__init__", lambda f: span("suites.workspace", f))
        for attr in ("rand_ordinal", "rand_below", "rand_positions", "rand_bit_node", "rand_digit_node", "rand_inj_node"):
            self._module_function(gen, attr, lambda f: span("gen", f))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # --- results -----------------------------------------------------------------

    def distinct_ratio(self, name) -> float:
        return len(self.keys[name]) / self.calls[name] if self.calls[name] else 0.0

    def mean_ratio(self, name) -> float:
        values = self.ratios[name]
        return sum(values) / len(values) if values else 0.0

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-module metric of the traced pass, as name -> (value, unit)."""
        out = {}
        for name in COUNTED:
            out[f"{name}.calls"] = (self.calls[name], "count")
        for name in TIMED:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for name in SELF_ONLY:
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for name in DISTINCT:
            out[f"{name}.distinct_ratio"] = (self.distinct_ratio(name), "ratio")
        for name in TALLIES:
            out[name] = (self.tallies[name], "count")
        for name in RATIOS:
            out[name] = (self.mean_ratio(name), "ratio")
        for suite in suites.SUITES:
            out[f"suites.{suite}.wall_s"] = (self.total_s[f"suites.{suite}"], "s")
        return out


COUNTED = ["ordinal.construct", "ordinal.compare", "ordinal.fund_seq"]
TIMED = [
    "ordinal.parse_cnf",
    "coherent.eval_e",
    "coherent.delta_e",
    "families.restrict",
    "families.query",
    "families.glue",
    "families.embed_bits",
    "families.char_delta",
    "trees.complete",
    "trees.level_nodes",
    "trees.ancestor_at",
    "wedge.lindelof_oracle",
    "wedge.is_safe",
    "wedge.find_safe_point",
    "wedge.covers_within",
    "sorgenfrey.find_between",
    "sorgenfrey.isolating_box",
    "sorgenfrey.dense_injection",
    "sorgenfrey.uncovered_left_endpoints",
    "forcing.extend_to_include",
    "forcing.extend_above",
    "forcing.union_compatible",
    "forcing.simulate_filter",
    "forcing.spec_extend",
    "literals.parse_cover",
    "literals.parse_node",
    "literals.format_node",
]
SELF_ONLY = ["cli.context", "cli.main", "suites.workspace", "gen"]
DISTINCT = ["coherent.eval_e", "coherent.delta_e"]
TALLIES = ["wedge.oracle.rules_checked", "wedge.covers_within.undecided"]
RATIOS = ["wedge.oracle.coverage_ratio", "wedge.find_safe_point.found_ratio", "forcing.extend.fail_ratio"]

# Call counts that must stay zero: each workload bypasses these layers.
BYPASS = {
    "oracle": [
        "ordinal.construct.calls",
        "ordinal.compare.calls",
        "ordinal.fund_seq.calls",
        "ordinal.parse_cnf.calls",
        "coherent.eval_e.calls",
        "coherent.delta_e.calls",
    ],
    "symbolic": ["wedge.lindelof_oracle.calls"],
    "queries": ["wedge.lindelof_oracle.calls"],
}
