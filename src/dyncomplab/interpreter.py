"""Dynamic-program runtime.

A program owns one update rule per (change op, input relation, auxiliary
relation).  A step recomputes every auxiliary relation simultaneously
against the pre-change state, then applies the input change.
"""

from __future__ import annotations

import itertools
import logging
import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from . import formulas as fm
from .bulk_eval import (_full, _kernel, array_to_relation, bulk_eval,
                        relation_to_array, stored, stored_relation)
from .structures import (INSERT, Change, DynLabError, ScriptSyntaxError,
                         Structure, ValidationError, apply_change, check_fits,
                         check_tuple, declare, directives)

log = logging.getLogger(__name__)

BUILTIN_SCHEMAS = {"order": {"leq": 2}, "bit": {"bit": 2}}


class ProgramError(DynLabError):
    pass


class NonEffectiveChangeError(ProgramError):
    pass


@dataclass(frozen=True)
class UpdateRule:
    op: str                      # "ins" | "del"
    relation: str                # changed input relation
    target: str                  # auxiliary relation being recomputed
    params: tuple[str, ...]
    frees: tuple[str, ...]
    body: fm.Formula


@dataclass(frozen=True)
class DynamicProgram:
    name: str
    input_schema: Mapping[str, int]
    aux_schema: Mapping[str, int]
    rules: Mapping[tuple[str, str, str], UpdateRule]  # (op, relation, target)
    init_aux: Mapping[str, frozenset[tuple[int, ...]]]
    answer: str
    requires_effective: bool = False
    builtins: tuple[str, ...] = ()
    # (op, input relation) -> the plan `step` walks, made on its first step
    plans: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    @property
    def class_claim(self) -> str:
        """DynFO when some rule quantifies, otherwise DynProp."""
        return "DynFO" if any(fm.classify(r.body) == "first-order"
                              for r in self.rules.values()) else "DynProp"

    def builtin_schema(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for b in self.builtins:
            out.update(BUILTIN_SCHEMAS[b])
        return out

    def combined_schema(self) -> dict[str, int]:
        return {**self.input_schema, **self.aux_schema, **self.builtin_schema()}


def make_program(name, input_schema, aux_schema, rules: Iterable[UpdateRule],
                 init_aux, answer, requires_effective=False,
                 builtins=()) -> DynamicProgram:
    keyed: dict[tuple[str, str, str], UpdateRule] = {}
    for r in rules:
        key = (r.op, r.relation, r.target)
        if key in keyed:
            raise ProgramError(f"duplicate rule for {key}")
        keyed[key] = r
    prog = DynamicProgram(
        name=name,
        input_schema=dict(input_schema),
        aux_schema=dict(aux_schema),
        rules=keyed,
        init_aux={k: frozenset(tuple(t) for t in v) for k, v in init_aux.items()},
        answer=answer,
        requires_effective=requires_effective,
        builtins=tuple(builtins),
    )
    problems = validate(prog)
    if problems:
        raise ProgramError(f"invalid program {name}: " + "; ".join(problems))
    return prog


def validate(p: DynamicProgram) -> list[str]:
    """Total rule coverage, arities and binding diagnostics."""
    out = []
    schema = p.combined_schema()
    if p.answer not in p.aux_schema:
        out.append(f"answer relation {p.answer!r} not in aux schema")
    for name in p.builtin_schema():
        if name in p.input_schema or name in p.aux_schema:
            out.append(f"builtin relation name {name!r} clashes")
    for name in p.input_schema:
        if name in p.aux_schema:
            out.append(f"relation {name!r} declared both input and aux")
    seen = set()
    for key, rule in p.rules.items():
        op, relation, target = key
        seen.add(key)
        if relation not in p.input_schema:
            out.append(f"rule on unknown input relation {relation!r}")
            continue
        if target not in p.aux_schema:
            out.append(f"rule targets unknown aux relation {target!r}")
            continue
        if len(rule.params) != p.input_schema[relation]:
            out.append(f"rule {key}: |params| != arity of {relation}")
        if len(rule.frees) != p.aux_schema[target]:
            out.append(f"rule {key}: |frees| != arity of {target}")
        if len(set(rule.params) | set(rule.frees)) != len(rule.params) + len(rule.frees):
            out.append(f"rule {key}: params and frees overlap")
        try:
            fm.validate_formula(rule.body, schema)
        except DynLabError as exc:
            out.append(f"rule {key}: {exc}")
        unbound = fm.free_variables(rule.body) - set(rule.params) - set(rule.frees)
        if unbound:
            out.append(f"rule {key}: unbound names {sorted(unbound)}")
    for op in ("ins", "del"):
        for relation in p.input_schema:
            for target in p.aux_schema:
                if (op, relation, target) not in seen:
                    out.append(f"missing rule ({op}, {relation}, {target})")
    for name, tuples in p.init_aux.items():
        if name not in p.aux_schema:
            out.append(f"init_aux references unknown relation {name!r}")
            continue
        for t in tuples:
            if len(t) != p.aux_schema[name]:
                out.append(f"init_aux tuple arity mismatch on {name!r}")
    return out


def max_aux_arity(p: DynamicProgram) -> int:
    return max(p.aux_schema.values(), default=0)


@dataclass
class ProgramState:
    """Input structure + auxiliary relations (kept as boolean arrays).

    Every array of a state is read-only, and states share them.  The
    auxiliary and built-in arrays are kept as `bulk_eval.stored` keeps a
    value: an array of ndim >= 2 with at least `bulk_eval._SHARE_MIN`
    cells is a `bulk_eval.SliceArray`, shared slice by slice, so a rule
    that keeps its relation but for cells on one slice of axis 0 (a
    chain: one owner's list) makes one new slice and the next state
    shares all the others; any other rule's value is a dense array that
    `stored` slices again.  A step that leaves an array unchanged hands
    it on as it is, as it does the array of an identity rule.
    `input_arrays` holds the input relations as dense arrays, which
    `step` hands on with the changed relation's array copied and its one
    cell written.
    """

    program: DynamicProgram
    input: Structure
    aux_arrays: dict[str, np.ndarray]
    builtin_arrays: dict[str, np.ndarray]
    input_arrays: dict[str, np.ndarray] = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.input.n

    def aux_structure(self) -> Structure:
        return Structure.make(
            self.n, dict(self.program.aux_schema),
            {name: array_to_relation(arr) for name, arr in self.aux_arrays.items()})

    def combined_structure(self) -> Structure:
        s = self.input.merged(self.aux_structure())
        if self.program.builtins:
            s = s.merged(fm.materialise_builtins(self.n, self.program.builtins))
        return s

    def answer(self):
        arr = self.aux_arrays[self.program.answer]
        if arr.ndim == 0:
            return bool(arr)
        return array_to_relation(arr)


def init_state(p: DynamicProgram, n: int) -> ProgramState:
    if n < 0:
        raise ValidationError("domain size must be non-negative")
    arities = {**p.aux_schema, **p.builtin_schema()}
    check_fits(f"the auxiliary and built-in relations of {p.name} at n={n}",
               {name: n ** a for name, a in arities.items()})
    input_structure = Structure.make(n, dict(p.input_schema))
    aux_arrays = {}
    for name, arity in p.aux_schema.items():
        tuples = p.init_aux.get(name, ())
        for t in tuples:
            check_tuple(name, arity, t, n)
        aux_arrays[name] = stored_relation(tuples, arity, n)
    builtin_arrays = {name: stored(a, a.shape) for name, a in
                      _builtin_arrays(n, p.builtins).items()}
    input_arrays = {name: _full((n,) * arity, False)
                    for name, arity in p.input_schema.items()}
    return ProgramState(p, input_structure, aux_arrays, builtin_arrays,
                        input_arrays)


def _builtin_arrays(n: int, builtins: Iterable[str]) -> dict[str, np.ndarray]:
    """The built-in relations as boolean arrays, built in place with no
    tuple staged; fm.materialise_builtins is their tuple reference."""
    i = np.arange(n)
    arrays = {}
    if "order" in builtins:
        arrays["leq"] = i[:, None] <= i
    if "bit" in builtins:
        # column j >= 1 holds bit j of the row, counted from 1 at the
        # least significant bit; column 0 and the bits past n - 1 stay 0
        bit = arrays["bit"] = np.zeros((n, n), dtype=bool)
        for j in range(1, max(n - 1, 0).bit_length() + 1):
            bit[:, j] = (i >> (j - 1)) & 1
    return arrays


def _written(arrays: dict[str, np.ndarray], c: Change) -> dict[str, np.ndarray]:
    """`arrays` after the effective change `c`: its relation's array is a
    read-only copy with the one cell written, the others are shared."""
    a = arrays[c.relation].copy()
    a[c.args] = c.op == INSERT
    a.setflags(False)
    return {**arrays, c.relation: a}


def _changed_input(state: ProgramState, c: Change, mode: str) -> Structure | None:
    """The input after `c`, checked once; None when a `requires_effective`
    program skips `c` as non-effective (in strict mode it raises)."""
    p = state.program
    if c.relation not in p.input_schema:
        raise ValidationError(f"change targets non-input relation {c.relation!r}")
    changed = apply_change(state.input, c)
    if changed is not state.input or not p.requires_effective:
        return changed
    if mode == "strict":
        raise NonEffectiveChangeError(f"{p.name}: non-effective change {c} rejected")
    log.debug("%s: skipping non-effective change %s", p.name, c)
    return None


def _plan(p: DynamicProgram, op: str, relation: str) -> tuple:
    """The plan of the rules on an `op` change of `relation`: the distinct
    tuples of their parameter names, and per target in aux_schema order
    (target, body, frees, index of its parameter names).  Each rule is
    lowered here, on its own, into the kernel its `bulk_eval` calls
    look up (`bulk_eval._kernel`)."""
    rules = [p.rules[(op, relation, target)] for target in p.aux_schema]
    names = list(dict.fromkeys(r.params for r in rules))
    for r in rules:
        _kernel(r.body, r.params, r.frees)
    plan = p.plans[(op, relation)] = (names, tuple(
        (r.target, r.body, r.frees, names.index(r.params)) for r in rules))
    return plan


def step(state: ProgramState, c: Change, mode: str = "skip") -> ProgramState:
    """Advance one change (vectorised; semantics identical to step_reference)."""
    p = state.program
    changed = _changed_input(state, c, mode)
    if changed is None:
        return state
    inputs = state.input_arrays
    env = {**inputs, **state.builtin_arrays, **state.aux_arrays}
    names, rules = p.plans.get((c.op, c.relation)) or \
        _plan(p, c.op, c.relation)
    params = [dict(zip(ps, c.args)) for ps in names]
    n = state.n
    new_aux = {}
    for target, body, frees, i in rules:
        # read-only; the pre-step array itself when the rule leaves it be
        new_aux[target] = bulk_eval(body, env, n, params[i], frees)
    if changed is not state.input:
        inputs = _written(inputs, c)
    return ProgramState(p, changed, new_aux, state.builtin_arrays, inputs)


def step_reference(state: ProgramState, c: Change, mode: str = "skip") -> ProgramState:
    """Naive per-tuple reference semantics (slow; used to cross-check step)."""
    p = state.program
    changed = _changed_input(state, c, mode)
    if changed is None:
        return state
    snapshot = state.combined_structure()
    new_aux = {}
    for target, arity in p.aux_schema.items():
        rule = p.rules[(c.op, c.relation, target)]
        assignment = dict(zip(rule.params, c.args))
        hits = []
        for b in itertools.product(range(state.n), repeat=arity):
            assignment.update(zip(rule.frees, b))
            if fm.evaluate(rule.body, snapshot, assignment):
                hits.append(b)
        new_aux[target] = stored_relation(hits, arity, state.n)
    inputs = {}
    for name, (arity, tuples) in changed.relations.items():
        inputs[name] = a = relation_to_array(tuples, arity, state.n)
        a.setflags(False)
    return ProgramState(p, changed, new_aux, state.builtin_arrays, inputs)


# ---------------------------------------------------------------- file format

def format_program(p: DynamicProgram) -> str:
    lines = [f"# program: {p.name}"]
    for name in p.input_schema:
        lines.append(f"input {name}/{p.input_schema[name]}")
    for b in p.builtins:
        lines.append(f"builtin {b}")
    for name in p.aux_schema:
        lines.append(f"aux {name}/{p.aux_schema[name]}")
    for name in p.init_aux:
        for t in sorted(p.init_aux[name]):
            lines.append(f"init {name} {' '.join(map(str, t))}".rstrip())
    lines.append(f"answer {p.answer}")
    if p.requires_effective:
        lines.append("requires_effective")
    for (op, relation, target) in sorted(p.rules):
        rule = p.rules[(op, relation, target)]
        head = f"on {op} {relation}({', '.join(rule.params)})"
        update = f"update {target}({', '.join(rule.frees)})"
        lines.append(f"{head} {update} := {fm.pretty(rule.body)}")
    return "\n".join(lines) + "\n"


# the lines that set one value, and how many words that value has
_SINGLE_WORDS = {"answer": 1, "requires_effective": 0}


def parse_program(text: str, name: str = "unnamed") -> DynamicProgram:
    input_schema: dict[str, int] = {}
    aux_schema: dict[str, int] = {}
    init_aux: dict[str, list[tuple[int, ...]]] = {}
    rules: list[UpdateRule] = []
    single: dict[str, list[str]] = {}       # the lines of _SINGLE_WORDS
    builtins: list[str] = []
    for lineno, kw, args in directives(text):
        if kw in ("input", "aux"):
            declare(args, lineno, input_schema if kw == "input" else aux_schema, kw)
        elif kw == "on":
            rules.append(_parse_rule(" ".join(args), lineno))
        elif kw == "init":
            try:
                init_aux.setdefault(args[0], []).append(tuple(map(int, args[1:])))
            except (IndexError, ValueError):
                raise ScriptSyntaxError("expected: init <Name> <id>...", lineno) from None
        elif kw == "builtin":
            if len(args) != 1 or args[0] not in BUILTIN_SCHEMAS:
                raise ScriptSyntaxError(
                    f"expected: builtin {'|'.join(BUILTIN_SCHEMAS)}", lineno)
            if args[0] in builtins:
                raise ScriptSyntaxError(f"duplicate builtin {args[0]} line", lineno)
            builtins.append(args[0])
        elif kw in _SINGLE_WORDS:
            if len(args) != _SINGLE_WORDS[kw]:
                raise ScriptSyntaxError(f"{kw} takes {_SINGLE_WORDS[kw]} "
                                        f"argument(s), got {len(args)}", lineno)
            if kw in single:
                raise ScriptSyntaxError(f"duplicate {kw} line", lineno)
            single[kw] = args
        else:
            raise ScriptSyntaxError(f"unknown directive {kw!r}", lineno)
    if "answer" not in single:
        raise ScriptSyntaxError("missing answer line")
    return make_program(name, input_schema, aux_schema, rules, init_aux,
                        single["answer"][0], "requires_effective" in single,
                        builtins)


def _parse_rule(text: str, lineno: int) -> UpdateRule:
    # <op> <Rel>(<params>) update <Aux>(<frees>) := <formula>, after `on`
    head, sep, body_text = text.partition(":=")
    if not sep:
        raise ScriptSyntaxError("rule missing ':='", lineno)
    tokens = head.split(None, 1)
    if len(tokens) != 2 or tokens[0] not in ("ins", "del"):
        raise ScriptSyntaxError("expected: on ins|del <Rel>(...) update ...", lineno)
    op = tokens[0]
    # the keyword is the first whole word "update" after the head's ")";
    # relation names may contain it
    m = re.fullmatch(r"(.*?\))\s*update(?![\w'])(.*)", tokens[1], re.S)
    if not m:
        raise ScriptSyntaxError("rule missing 'update'", lineno)
    rel_part, target_part = m.groups()

    def parse_head(part: str) -> tuple[str, tuple[str, ...]]:
        part = part.strip()
        if not part.endswith(")") or "(" not in part:
            raise ScriptSyntaxError("malformed rule head", lineno)
        name, _, args = part[:-1].partition("(")
        names = tuple(a.strip() for a in args.split(",")) if args.strip() else ()
        return name.strip(), names

    relation, params = parse_head(rel_part)
    target, frees = parse_head(target_part)
    try:
        body = fm.parse_formula(body_text.strip())
    except DynLabError as exc:
        raise ScriptSyntaxError(f"bad formula: {exc}", lineno) from None
    return UpdateRule(op, relation, target, params, frees, body)
