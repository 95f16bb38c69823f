"""The package calls a workload makes, with optional spans and counters.

`Layers` is the table of package functions the workloads call.  Untraced,
it holds the package functions themselves.  Traced, each entry is wrapped
in a span, and the names that `dyncomplab.interpreter` resolves at call
time inside `step` and `init_state` are wrapped too, so the time a step
spends in `bulk_eval`, `relation_to_array`, `apply_change` and
`is_effective` is split out.  Spans are aggregated in memory per name and
read when the run ends; a span's self time is its duration minus the time
of the spans it encloses.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter

import numpy as np

from dyncomplab import fo_engines, interpreter, oracle, programs, symcircuit
from dyncomplab import formulas as fm

ROOT = "bench.loop"

# (span name, attribute of dyncomplab.interpreter) for calls made inside step
INTERNAL = (("bulk_eval.bulk_eval", "bulk_eval"),
            ("bulk_eval.relation_to_array", "relation_to_array"),
            ("structures.apply_change", "apply_change"),
            ("structures.is_effective", "is_effective"))

SPANS = (ROOT, "bench.check",
         "programs.build", "programs.audit_program_state",
         "interpreter.init_state", "interpreter.step",
         *(name for name, _ in INTERNAL),
         "oracle.eval_query", "oracle.indegree_buckets", "oracle.audit_fo_state",
         "fo_engines.apply", "fo_engines.graph_structure",
         "symcircuit.sym_init", "symcircuit.sym_flip",
         "symcircuit.sym_output", "symcircuit.sym_eval_direct")

COUNTS = ("interpreter.aux_cells_changed", "interpreter.aux_cells",
          "bulk_eval.rule_evals_per_step", "bulk_eval.ast_nodes_per_step",
          "bulk_eval.distinct_nodes_per_step",
          "bulk_eval.identity_rules_per_step",
          "fo_engines.store_size", "symcircuit.pairs_per_flip")


def build_program(name: str):
    return programs.catalog_entry(name).build()


class Layers:
    """Package entry points as the workloads call them."""

    def __init__(self):
        self.build = build_program
        self.init_state = interpreter.init_state
        self.step = interpreter.step
        self.audit_program_state = programs.audit_program_state
        self.eval_query = oracle.eval_query
        self.indegree_buckets = oracle.indegree_buckets
        self.audit_fo_state = oracle.audit_fo_state
        self.fo_degk = fo_engines.FoDegKState
        self.fo_logn = fo_engines.FoLogNState
        self.apply = lambda engine, c: engine.apply(c)
        self.graph_structure = lambda engine: engine.graph_structure()
        self.sym_init = symcircuit.sym_init
        self.sym_flip = symcircuit.sym_flip
        self.sym_output = symcircuit.sym_output
        self.sym_eval_direct = symcircuit.sym_eval_direct
        self.make_circuit = symcircuit.make_circuit
        self.check = lambda compare, *args: compare(*args)
        self.counter = None


class Tracer:
    """Per-name span totals: calls and self time."""

    def __init__(self):
        self.calls = {name: 0 for name in SPANS}
        self.self_s = {name: 0.0 for name in SPANS}
        # child-time accumulators of the open spans, innermost last
        self.stack = [0.0]
        self.started: float | None = None
        self.wall = 0.0

    def wrap(self, name: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self.stack

        def traced(*args, **kwargs):
            t0 = perf_counter()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                calls[name] += 1
                self_s[name] += duration - stack.pop()
                stack[-1] += duration
        return traced

    def switch(self, on: bool) -> None:
        """Start or stop the clock of the traced wall time."""
        if on:
            self.started = perf_counter()
        elif self.started is not None:
            self.wall += perf_counter() - self.started
            self.started = None

    def stop(self) -> None:
        self.switch(False)
        self.calls[ROOT] = 1
        self.self_s[ROOT] = self.wall - self.stack[0]

    def metrics(self) -> dict[str, tuple[float, str]]:
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
            out[f"{name}.share"] = (self.self_s[name] / self.wall, "ratio")
        return out


SPAN_OF = {"build": "programs.build",
           "init_state": "interpreter.init_state",
           "step": "interpreter.step",
           "audit_program_state": "programs.audit_program_state",
           "eval_query": "oracle.eval_query",
           "indegree_buckets": "oracle.indegree_buckets",
           "audit_fo_state": "oracle.audit_fo_state",
           "apply": "fo_engines.apply",
           "graph_structure": "fo_engines.graph_structure",
           "sym_init": "symcircuit.sym_init",
           "sym_flip": "symcircuit.sym_flip",
           "sym_output": "symcircuit.sym_output",
           "sym_eval_direct": "symcircuit.sym_eval_direct",
           "check": "bench.check"}


class TracedLayers(Layers):
    """Layers that can be switched between plain calls and spans.  When
    on, every call is a span and the interpreter's internal names are
    patched; `close` switches off for good."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self.tracer = tracer
        self.plain = {attr: getattr(self, attr) for attr in SPAN_OF}
        self.traced = {attr: tracer.wrap(span, self.plain[attr])
                       for attr, span in SPAN_OF.items()}
        # a name the interpreter no longer uses simply reports 0 calls
        self.internal = {attr: (getattr(interpreter, attr),
                                tracer.wrap(span, getattr(interpreter, attr)))
                         for span, attr in INTERNAL if hasattr(interpreter, attr)}
        self.on = False

    def switch(self, on: bool) -> None:
        if on == self.on:
            return
        for attr, fn in (self.traced if on else self.plain).items():
            setattr(self, attr, fn)
        for attr, (plain, traced) in self.internal.items():
            setattr(interpreter, attr, traced if on else plain)
        self.tracer.switch(on)
        self.on = on

    def close(self) -> None:
        self.switch(False)


# ------------------------------------------------------------------ counts

def subformulas(f):
    """AST nodes of a rule body: formula nodes and equality operands (an
    atom's argument list belongs to the atom)."""
    yield f
    for field in dataclasses.fields(f):
        value = getattr(f, field.name)
        if dataclasses.is_dataclass(value):
            yield from subformulas(value)


def is_identity(rule) -> bool:
    """T(x̄) := T(x̄)"""
    return rule.body == fm.Atom(rule.target, tuple(fm.Var(v) for v in rule.frees))


def rule_counts(rules) -> dict[str, int]:
    """Rules, AST nodes, distinct (structurally equal) nodes and identity
    rules over a collection of update rules."""
    nodes = 0
    distinct = set()
    for rule in rules:
        for node in subformulas(rule.body):
            nodes += 1
            distinct.add(node)
    return {"rules": len(rules), "ast_nodes": nodes,
            "distinct_nodes": len(distinct),
            "identity_rules": sum(map(is_identity, rules))}


class Counter:
    """Work counts gathered over the first block of a run.

    Installs hooks on the interpreter's `bulk_eval` and on `Layers.step`
    and `Layers.init_state`, and takes the engine and circuit counts
    from the states the workloads hand it.
    """

    def __init__(self, layers: Layers):
        self.totals = {name: 0 for name in COUNTS}
        self.samples = {name: 0 for name in COUNTS}
        self.rules_by_body: dict[int, object] = {}
        self.step_bodies: list[int] = []
        self.per_group: dict[tuple[int, ...], dict[str, int]] = {}
        self.saved_bulk_eval = getattr(interpreter, "bulk_eval", None)
        step, init_state = layers.step, layers.init_state

        def counting_bulk_eval(f, *args, **kwargs):
            self.step_bodies.append(id(f))
            return self.saved_bulk_eval(f, *args, **kwargs)

        def counting_init_state(program, n):
            for rule in program.rules.values():
                self.rules_by_body[id(rule.body)] = rule
            state = init_state(program, n)
            self.add("interpreter.aux_cells",
                     sum(a.size for a in state.aux_arrays.values()))
            return state

        def counting_step(state, c, *args):
            self.step_bodies = []
            new = step(state, c, *args)
            if new is not state:
                self._count_step(state, new)
            return new

        if self.saved_bulk_eval is not None:
            interpreter.bulk_eval = counting_bulk_eval
        layers.counter = self
        layers.init_state = counting_init_state
        layers.step = counting_step

    def flip(self, state, x: int) -> None:
        """Count the counter pairs the state will update when input x
        flips; 0 for a state that keeps no such list."""
        self.add("symcircuit.pairs_per_flip",
                 len(getattr(state, "affected", {}).get(x, ())))

    def add(self, name: str, value: float) -> None:
        self.totals[name] += value
        self.samples[name] += 1

    def _count_step(self, old, new) -> None:
        self.add("interpreter.aux_cells_changed", sum(
            int(np.count_nonzero(old.aux_arrays[k] != new.aux_arrays[k]))
            for k in new.aux_arrays))
        key = tuple(self.step_bodies)
        if key not in self.per_group:
            self.per_group[key] = rule_counts(
                [self.rules_by_body[i] for i in key if i in self.rules_by_body])
        group = self.per_group[key]
        self.add("bulk_eval.rule_evals_per_step", group["rules"])
        self.add("bulk_eval.ast_nodes_per_step", group["ast_nodes"])
        self.add("bulk_eval.distinct_nodes_per_step", group["distinct_nodes"])
        self.add("bulk_eval.identity_rules_per_step", group["identity_rules"])

    def close(self) -> None:
        if self.saved_bulk_eval is not None:
            interpreter.bulk_eval = self.saved_bulk_eval

    def metrics(self) -> dict[str, tuple[float, str]]:
        return {name: (self.totals[name] / self.samples[name]
                       if self.samples[name] else 0.0, "count")
                for name in COUNTS}
