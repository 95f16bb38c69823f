"""Catalog of dynamic programs with quantifier-free update rules.

Programs maintained here:
  * parity            — is |U| odd?
  * size_k            — is |U| exactly k?  (linked-list technique)
  * degree_rel_k      — exact in-degree classes via per-node lists
  * parity_degree_div3 — odd number of nodes with positive degree ≡ 0 mod 3?
  * parity_exists_prop_k — odd number of covered nodes of in-degree ≤ k?

Each builder returns an immutable DynamicProgram; `write_program_files`
exports them to the repo's programs/ directory in the .dyp format.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable

from .formulas import (FALSE, Formula, atom, conj, disj, eq, neg, neq,
                       xor_chain)
from .interpreter import DynamicProgram, ProgramState, UpdateRule, make_program
from .oracle import (Discrepancy, QueryId, audit_list_family, diff,
                     eval_query, in_neighbours, indegree_buckets,
                     n_exists_forall, out_neighbours, total_degree)
from .structures import Structure, ValidationError, graph_coloured


# ---------------------------------------------------------------- parity

def parity_program() -> DynamicProgram:
    """Nullary-auxiliary parity of |U|; tolerates non-effective changes."""
    flip_if_new = disj([conj([neg(atom("U", "a")), neg(atom("P"))]),
                        conj([atom("U", "a"), atom("P")])])
    flip_if_present = disj([conj([atom("U", "a"), neg(atom("P"))]),
                            conj([neg(atom("U", "a")), atom("P")])])
    rules = [UpdateRule("ins", "U", "P", ("a",), (), flip_if_new),
             UpdateRule("del", "U", "P", ("a",), (), flip_if_present)]
    return make_program("parity", {"U": 1}, {"P": 0}, rules, {}, "P",
                        requires_effective=False)


# ---------------------------------------------------------------- size_k

def size_k_program(k: int) -> DynamicProgram:
    """Exact-size test |U| = k over a maintained linked list of U.

    The list has no owner node.  Levels run to L = k+1 so that a deletion
    can recover the exact size from the removed element's distance to both
    ends.  The overflow flag Is_gt (|U| > k) is maintained and audited, but
    no rule on the answer's path reads it.  It stays because deleting it
    (2 rules and 1 relation in each of size_1..size_4) would change the
    static counts perfbench/baseline.json pins, so the deletion waits for a
    change to the benchmark.
    """
    if k < 1:
        raise ValidationError("size_k needs k >= 1")
    fam = _size_family(k)
    rules = (fam.append_rules("ins", "U", ("u",), None, "u")
             + fam.remove_rules("del", "U", ("u",), None, "u"))
    return make_program(f"size_{k}", {"U": 1}, fam.schema(), rules,
                        {"Is_0": {()}}, f"Is_{k}", requires_effective=True)


# ------------------------------------------------------------ list machinery

@dataclass(frozen=True)
class ListFamily:
    """Ordered element lists with exact-count flags, one list per owner.

    The owner is the tuple of variables `owner`: ("z",) for a list per
    node z, () for a single list.  For each owner o the family keeps
    <p>List_i(o,x,y)  (x sits i positions before y),
    <p>First_i(o,x) / <p>Last_i(o,x), exact-count flags count_names(o) and
    an overflow flag gt_name(o) for counts > K.  count_names names the
    counts 1..K, or 0..K.  Without a count-0 flag, count 0 is the derived
    predicate `zero` (all flags off), which keeps the initial auxiliary
    state empty and domain-independent.
    """

    prefix: str
    K: int
    count_names: tuple[str, ...]   # counts 1..K, or 0..K
    gt_name: str
    owner: tuple[str, ...] = ("z",)

    @property
    def levels(self) -> int:
        return self.K + 1

    @property
    def first_count(self) -> int:
        """The count count_names[0] flags: 0 or 1."""
        return self.K + 1 - len(self.count_names)

    def list_name(self, i): return f"{self.prefix}List_{i}"
    def first_name(self, i): return f"{self.prefix}First_{i}"
    def last_name(self, i): return f"{self.prefix}Last_{i}"

    def names(self) -> dict[str, list[str]]:
        """The list, first and last relation names of levels 1..levels."""
        levels = range(1, self.levels + 1)
        return {"list": [self.list_name(i) for i in levels],
                "first": [self.first_name(i) for i in levels],
                "last": [self.last_name(i) for i in levels]}

    def schema(self) -> dict[str, int]:
        return {target: len(frees) for target, frees in self._targets()}

    def zero(self, *owner) -> Formula:
        return conj([neg(atom(nm, *owner)) for nm in self.count_names]
                    + [neg(atom(self.gt_name, *owner))])

    def count_pred(self, i: int, *owner) -> Formula:
        j = i - self.first_count
        if j < 0:
            return self.zero(*owner)
        return atom(self.count_names[j], *owner)

    def _targets(self):
        o = self.owner
        for i in range(1, self.levels + 1):
            yield self.list_name(i), (*o, "x", "y")
            yield self.first_name(i), (*o, "x")
            yield self.last_name(i), (*o, "x")
        for nm in self.count_names:
            yield nm, o
        yield self.gt_name, o

    def identity_rules(self, op, relation, params):
        for target, frees in self._targets():
            yield UpdateRule(op, relation, target, params, frees,
                             atom(target, *frees))

    @staticmethod
    def _writer(op, relation, params, guard: Formula | None):
        """A rule list and `rule(target, frees, new, grow=False)`, which
        appends the rule giving target, for the owners the guard admits,
        the conjunction of `new` (with grow, its old value or that
        conjunction); the other owners keep the old value.  guard None
        admits every owner, and the body is then the new value alone."""
        rules = []

        def rule(target, frees, new, grow=False):
            body = conj(new if guard is None else [guard, *new])
            if grow:
                body = disj([atom(target, *frees), body])
            elif guard is not None:
                body = disj([conj([neg(guard), atom(target, *frees)]), body])
            rules.append(UpdateRule(op, relation, target, params, frees, body))

        return rules, rule

    def append_rules(self, op, relation, params, guard: Formula | None, elem):
        """The owners the guard admits (all for None) append elem."""
        o, x, y = self.owner, "x", "y"
        rules, rule = self._writer(op, relation, params, guard)
        for i in range(1, self.levels + 1):
            rule(self.list_name(i), (*o, x, y),
                 [atom(self.last_name(i), *o, x), eq(y, elem)], grow=True)
            rule(self.last_name(i), (*o, x), [
                eq(x, elem) if i == 1 else atom(self.last_name(i - 1), *o, x)])
            rule(self.first_name(i), (*o, x),
                 [eq(x, elem), self.count_pred(i - 1, *o)], grow=True)
        for i, nm in enumerate(self.count_names, start=self.first_count):
            rule(nm, o, [self.count_pred(i - 1, *o) if i else FALSE])
        rule(self.gt_name, o, [self.count_pred(self.K, *o)], grow=True)
        return rules

    def remove_rules(self, op, relation, params, guard: Formula | None, elem):
        """The owners the guard admits (all for None) remove elem, which
        must be present."""
        o, x, y = self.owner, "x", "y"
        L = self.levels
        levels = range(1, L + 1)
        rules, rule = self._writer(op, relation, params, guard)
        # elem's place in the list before the change, at each distance j
        ahead = {j: atom(self.list_name(j), *o, x, elem) for j in levels}
        behind_x = {j: atom(self.list_name(j), *o, elem, x) for j in levels}
        behind_y = {j: atom(self.list_name(j), *o, elem, y) for j in levels}
        first = {j: atom(self.first_name(j), *o, elem) for j in levels}
        last = {j: atom(self.last_name(j), *o, elem) for j in levels}
        for i in levels:
            keep = conj([neq(x, elem)]
                        + [neg(ahead[j]) for j in range(1, i + 1)]
                        + [atom(self.list_name(i), *o, x, y)])
            splice = disj([conj([ahead[j], behind_y[i + 1 - j]])
                           for j in range(1, i + 1)])
            rule(self.list_name(i), (*o, x, y), [disj([keep, splice])])
            rule(self.last_name(i), (*o, x), [disj(
                [conj([neg(last[j]) for j in range(1, i + 1)]
                      + [atom(self.last_name(i), *o, x)])]
                + [conj([last[j], ahead[i + 1 - j]])
                   for j in range(1, i + 1)])])
            rule(self.first_name(i), (*o, x), [disj(
                [conj([neg(first[j]) for j in range(1, i + 1)]
                      + [atom(self.first_name(i), *o, x)])]
                + [conj([first[j], behind_x[i + 1 - j]])
                   for j in range(1, i + 1)])])
        for i, nm in enumerate(self.count_names, start=self.first_count):
            rule(nm, o, [disj([conj([first[j], last[i + 2 - j]])
                               for j in range(1, i + 2)])])
        rule(self.gt_name, o, [atom(self.gt_name, *o)]
             + [disj([neg(first[j]), neg(last[L + 1 - j])]) for j in levels])
        return rules


def _size_family(k: int) -> ListFamily:
    """size_k's one list of U, with no owner, count flags Is_0..Is_k and
    overflow flag Is_gt."""
    return ListFamily("", k, tuple(f"Is_{i}" for i in range(k + 1)), "Is_gt",
                      ())


def _count_family(prefix: str, flag: str, k: int) -> ListFamily:
    """In-neighbour lists with exact-count flags <flag>_1..<flag>_{k+1} and
    overflow flag <flag>_gt (degree_rel_k and parity_exists_prop_k)."""
    return ListFamily(prefix, k + 1,
                      tuple(f"{flag}_{i}" for i in range(1, k + 2)),
                      f"{flag}_gt")


def _div3_families() -> tuple[ListFamily, ListFamily]:
    """parity_degree_div3's out- and in-neighbour lists, each with a
    one-element flag and a many-elements flag."""
    return (ListFamily("Out", 1, ("OutOne",), "OutMany"),
            ListFamily("In", 1, ("InOne",), "InMany"))


# ---------------------------------------------------------------- degree_rel

def degree_k_relation_program(k: int) -> DynamicProgram:
    """Exact in-degree classes N_1..N_{k+1} from per-node in-neighbour lists."""
    if k < 1:
        raise ValidationError("degree_k_relation needs k >= 1")
    fam = _count_family("", "N", k)
    v, w = "v", "w"
    owner_is_w = eq(*fam.owner, w)
    rules = []
    rules += fam.append_rules("ins", "E", (v, w), owner_is_w, v)
    rules += fam.remove_rules("del", "E", (v, w), owner_is_w, v)
    return make_program(f"degree_rel_{k}", {"E": 2}, fam.schema(), rules, {},
                        f"N_{k}", requires_effective=True)


# ---------------------------------------------------------------- deg mod 3

def parity_degree_div3_program() -> DynamicProgram:
    """Odd number of nodes with positive total degree divisible by 3.

    Degree classes M_0/M_1/M_2 cover only nodes of positive degree; the
    "degree hit zero" test on deletion needs per-node emptiness tracking,
    provided by one out-edge and one in-edge list per node.
    """
    out_fam, in_fam = _div3_families()
    v, w, x = "v", "w", "x"
    m0, m1, m2 = (lambda t: atom("M_0", t)), (lambda t: atom("M_1", t)), \
        (lambda t: atom("M_2", t))

    def d0(t):  # total degree zero before the change
        return conj([out_fam.zero(t), in_fam.zero(t)])

    rules = []
    # neighbour lists: edge (v,w) appends w to v's out-list, v to w's in-list
    rules += out_fam.append_rules("ins", "E", (v, w), eq(*out_fam.owner, v), w)
    rules += in_fam.append_rules("ins", "E", (v, w), eq(*in_fam.owner, w), v)
    rules += out_fam.remove_rules("del", "E", (v, w), eq(*out_fam.owner, v), w)
    rules += in_fam.remove_rules("del", "E", (v, w), eq(*in_fam.owner, w), v)

    untouched = conj([neq(x, v), neq(x, w)])
    endpoint = disj([eq(x, v), eq(x, w)])
    loop, noloop = eq(v, w), neq(v, w)

    # insertion shifts each distinct endpoint's class by 1, a loop's by 2
    rules.append(UpdateRule("ins", "E", "M_0", (v, w), (x,), disj([
        conj([untouched, m0(x)]),
        conj([noloop, endpoint, m2(x)]),
        conj([loop, eq(x, v), m1(x)])])))
    rules.append(UpdateRule("ins", "E", "M_1", (v, w), (x,), disj([
        conj([untouched, m1(x)]),
        conj([noloop, endpoint, disj([m0(x), d0(x)])]),
        conj([loop, eq(x, v), m2(x)])])))
    rules.append(UpdateRule("ins", "E", "M_2", (v, w), (x,), disj([
        conj([untouched, m2(x)]),
        conj([noloop, endpoint, m1(x)]),
        conj([loop, eq(x, v), disj([m0(x), d0(x)])])])))
    rules.append(UpdateRule("ins", "E", "P", (v, w), (), disj([
        conj([loop, xor_chain([atom("P"), m1(v), m0(v)])]),
        conj([noloop, xor_chain([atom("P"), m2(v), m0(v), m2(w), m0(w)])])])))

    # deletion: degree may hit zero exactly when the endpoint's last edge
    # occurrence goes away (single out-list entry and empty in-list, etc.)
    def drops_to_zero(end: str) -> Formula:
        if end == v:
            last_out = conj([atom("OutOne", v), in_fam.zero(v)])
            return last_out
        return conj([atom("InOne", w), out_fam.zero(w)])

    loop_zero = conj([atom("OutOne", v), atom("InOne", v)])
    rules.append(UpdateRule("del", "E", "M_0", (v, w), (x,), disj([
        conj([untouched, m0(x)]),
        conj([noloop, eq(x, v), m1(x), neg(drops_to_zero(v))]),
        conj([noloop, eq(x, w), m1(x), neg(drops_to_zero(w))]),
        conj([loop, eq(x, v), m2(x), neg(loop_zero)])])))
    rules.append(UpdateRule("del", "E", "M_1", (v, w), (x,), disj([
        conj([untouched, m1(x)]),
        conj([noloop, endpoint, m2(x)]),
        conj([loop, eq(x, v), m0(x)])])))
    rules.append(UpdateRule("del", "E", "M_2", (v, w), (x,), disj([
        conj([untouched, m2(x)]),
        conj([noloop, endpoint, m0(x)]),
        conj([loop, eq(x, v), m1(x)])])))
    rules.append(UpdateRule("del", "E", "P", (v, w), (), disj([
        conj([loop, xor_chain([atom("P"),
                               conj([m2(v), neg(loop_zero)]), m0(v)])]),
        conj([noloop, xor_chain([atom("P"),
                                 conj([m1(v), neg(drops_to_zero(v))]), m0(v),
                                 conj([m1(w), neg(drops_to_zero(w))]), m0(w)])])])))

    aux = {**out_fam.schema(), **in_fam.schema(),
           "M_0": 1, "M_1": 1, "M_2": 1, "P": 0}
    return make_program("parity_degree_div3", {"E": 2}, aux, rules, {}, "P",
                        requires_effective=True)


# ------------------------------------------- covered-nodes parity, bounded k

def _p_pairs(k: int) -> list[tuple[int, int]]:
    """The (l, m) with a relation P_l_m: 1 <= l + m <= k."""
    return [(l, m) for l in range(0, k + 1) for m in range(0, k + 1)
            if 1 <= l + m <= k]


def _p_name(l: int, m: int) -> str:
    return f"P_{l}_{m}"


def _p_atom(l: int, m: int, xs: list, ys: list) -> Formula:
    return atom(_p_name(l, m), *(list(xs) + list(ys)))


def parity_exists_deg_k_prop_program(k: int) -> DynamicProgram:
    """Odd number of covered nodes of in-degree <= k, arity-max(3,k) aux.

    P_{l,m}(a..., b...) holds when the a's are distinct and coloured, the
    b's distinct and uncoloured, and an odd number of active nodes have
    edges from all of them and no coloured in-neighbour beyond the a's.
    """
    if k < 3:
        raise ValidationError(
            "parity_exists_deg_k_prop needs k >= 3 (arity-3 list machinery)")
    nfam, cfam = _count_family("N", "N", k), _count_family("C", "Nc", k)
    v, w = "v", "w"
    rules: list[UpdateRule] = []

    # per-node in-neighbour lists (edge changes only)
    rules += nfam.append_rules("ins", "E", (v, w), eq(*nfam.owner, w), v)
    rules += nfam.remove_rules("del", "E", (v, w), eq(*nfam.owner, w), v)
    rules += nfam.identity_rules("ins", "R", (v,))
    rules += nfam.identity_rules("del", "R", (v,))

    # per-node coloured in-neighbour lists (edge changes touch one owner,
    # colour changes touch every out-neighbour of the recoloured node)
    rules += cfam.append_rules("ins", "E", (v, w),
                               conj([eq(*cfam.owner, w), atom("R", v)]), v)
    rules += cfam.remove_rules("del", "E", (v, w),
                               conj([eq(*cfam.owner, w), atom("R", v)]), v)
    rules += cfam.append_rules("ins", "R", (v,), atom("E", v, *cfam.owner), v)
    rules += cfam.remove_rules("del", "R", (v,), atom("E", v, *cfam.owner), v)

    def n_count(i: int, node) -> Formula:
        return nfam.count_pred(i, node)

    def nc_count(i: int, node) -> Formula:
        return cfam.count_pred(i, node)

    def indeg_at_most(bound: int, node) -> Formula:
        # pre-change in-degree <= bound (bound <= k)
        return disj([n_count(i, node) for i in range(0, bound + 1)])

    active = lambda node: atom("Active", node)

    # Active = in-degree in 1..k, kept in lockstep with the count flags
    z = "z"
    rules.append(UpdateRule("ins", "E", "Active", (v, w), (z,), disj([
        conj([neq(z, w), active(z)]),
        conj([eq(z, w), disj([n_count(i, z) for i in range(0, k)])])])))
    rules.append(UpdateRule("del", "E", "Active", (v, w), (z,), disj([
        conj([neq(z, w), active(z)]),
        conj([eq(z, w), disj([n_count(i, z) for i in range(2, k + 2)])])])))
    rules.append(UpdateRule("ins", "R", "Active", (v,), (z,), active(z)))
    rules.append(UpdateRule("del", "R", "Active", (v,), (z,), active(z)))

    def theta(xs, ys) -> Formula:
        parts = [atom("R", xi) for xi in xs]
        parts += [neg(atom("R", yj)) for yj in ys]
        parts += [neq(a, b) for a, b in itertools.combinations(xs, 2)]
        parts += [neq(a, b) for a, b in itertools.combinations(ys, 2)]
        return conj(parts)

    for l, m in _p_pairs(k):
        xs = [f"x{i}" for i in range(1, l + 1)]
        ys = [f"y{i}" for i in range(1, m + 1)]
        frees = tuple(xs + ys)
        fresh = conj([neq(v, t) for t in xs + ys])

        # colouring v: tuples gaining v in the coloured block are read from
        # the pre-state with v parked in the uncoloured block; untouched
        # tuples flip by the parity carried with v appended (unless l+m=k)
        move_in = disj([conj([eq(v, xi),
                              _p_atom(l - 1, m + 1,
                                      [t for t in xs if t != xi], ys + [v])])
                        for xi in xs])
        if l + m < k:
            stay = conj([fresh, xor_chain([_p_atom(l, m, xs, ys),
                                           _p_atom(l, m + 1, xs, ys + [v])])])
        else:
            stay = conj([fresh, _p_atom(l, m, xs, ys)])
        rules.append(UpdateRule("ins", "R", _p_name(l, m), (v,), frees,
                                disj([move_in, stay])))

        # uncolouring v: mirror image
        move_out = disj([conj([eq(v, yj),
                               _p_atom(l + 1, m - 1, xs + [v],
                                       [t for t in ys if t != yj])])
                         for yj in ys])
        if l + m < k:
            stay = conj([fresh, xor_chain([_p_atom(l, m, xs, ys),
                                           _p_atom(l + 1, m, xs + [v], ys)])])
        else:
            stay = conj([fresh, _p_atom(l, m, xs, ys)])
        rules.append(UpdateRule("del", "R", _p_name(l, m), (v,), frees,
                                disj([move_out, stay])))

        edges_from = lambda nodes: [atom("E", t, w) for t in nodes]

        # edge insertion (v,w): the only node whose membership in any of the
        # tracked sets can change is w
        psi1 = conj(edges_from(xs) + edges_from(ys)
                    + [nc_count(l, w), active(w),
                       disj([n_count(k, w), atom("R", v)])])
        psi2 = disj([conj([eq(v, xi)]
                          + edges_from([t for t in xs if t != xi])
                          + edges_from(ys)
                          + [nc_count(l - 1, w), indeg_at_most(k - 1, w)])
                     for xi in xs])
        psi3 = disj([conj([eq(v, yj)]
                          + edges_from(xs)
                          + edges_from([t for t in ys if t != yj])
                          + [nc_count(l, w), indeg_at_most(k - 1, w)])
                     for yj in ys])
        rules.append(UpdateRule(
            "ins", "E", _p_name(l, m), (v, w), frees,
            conj([theta(xs, ys),
                  xor_chain([_p_atom(l, m, xs, ys), disj([psi1, psi2, psi3])])])))

        # edge deletion (v,w)
        psi1d = conj(edges_from(xs) + edges_from(ys)
                     + [nc_count(l, w), active(w),
                        disj([eq(v, t) for t in xs + ys])])
        psi2d = conj([conj([neq(v, t) for t in xs + ys])]
                     + edges_from(xs) + edges_from(ys)
                     + [disj([conj([n_count(k + 1, w), neg(atom("R", v)),
                                    nc_count(l, w)]),
                              conj([n_count(k + 1, w), atom("R", v),
                                    nc_count(l + 1, w)]),
                              conj([active(w), atom("R", v),
                                    nc_count(l + 1, w)])])])
        rules.append(UpdateRule(
            "del", "E", _p_name(l, m), (v, w), frees,
            conj([theta(xs, ys),
                  xor_chain([_p_atom(l, m, xs, ys), disj([psi1d, psi2d])])])))

    # the answer flag
    rules.append(UpdateRule("ins", "R", "Ans", (v,), (),
                            xor_chain([atom("Ans"), _p_atom(0, 1, [], [v])])))
    rules.append(UpdateRule("del", "R", "Ans", (v,), (),
                            xor_chain([atom("Ans"), _p_atom(1, 0, [v], [])])))
    rules.append(UpdateRule("ins", "E", "Ans", (v, w), (), xor_chain([
        atom("Ans"),
        disj([conj([n_count(k, w),
                    disj([nc_count(i, w) for i in range(1, k + 1)])]),
              conj([atom("R", v), nc_count(0, w), indeg_at_most(k - 1, w)])])])))
    rules.append(UpdateRule("del", "E", "Ans", (v, w), (), xor_chain([
        atom("Ans"),
        disj([conj([n_count(k + 1, w),
                    disj([nc_count(i, w) for i in range(1, k + 2)]),
                    disj([neg(atom("R", v)), neg(nc_count(1, w))])]),
              conj([atom("R", v), nc_count(1, w), active(w)])])])))

    aux = {**nfam.schema(), **cfam.schema(), "Active": 1, "Ans": 0}
    for l, m in _p_pairs(k):
        aux[_p_name(l, m)] = l + m
    return make_program(f"parity_exists_prop_{k}", {"E": 2, "R": 1}, aux,
                        rules, {}, "Ans", requires_effective=True)


# ---------------------------------------------------------------- catalog

@dataclass(frozen=True)
class ProgramCatalogEntry:
    name: str
    build: Callable[[], DynamicProgram]
    oracle: Callable[[Structure], object]     # input -> answer, from scratch
    # (input, aux, out): appends to out where aux breaks its definition
    audit: Callable[[Structure, Structure, list[Discrepancy]], None]
    class_claim: str
    arity_claim: int


def _in_degree_exactly(k: int, s: Structure) -> frozenset[tuple[int]]:
    """degree_rel_k's answer: the nodes of in-degree exactly k."""
    return frozenset((w,) for w in indegree_buckets(s, k)[k])


@cache
def catalog() -> tuple[ProgramCatalogEntry, ...]:
    entries = [
        ProgramCatalogEntry("parity", parity_program,
                            partial(eval_query, QueryId("parity")),
                            _audit_parity, "DynProp", 0)]
    for k in range(1, 5):
        entries.append(ProgramCatalogEntry(
            f"size_{k}", lambda k=k: size_k_program(k),
            partial(eval_query, QueryId("size_k", k)),
            partial(_audit_size, k), "DynProp", 2))
    for k in range(1, 4):
        entries.append(ProgramCatalogEntry(
            f"degree_rel_{k}", lambda k=k: degree_k_relation_program(k),
            partial(_in_degree_exactly, k), partial(_audit_degree_rel, k),
            "DynProp", 3))
    entries.append(ProgramCatalogEntry(
        "parity_degree_div3", parity_degree_div3_program,
        partial(eval_query, QueryId("parity_degree_div3")),
        _audit_parity_degree_div3, "DynProp", 3))
    for k in (3, 4):
        entries.append(ProgramCatalogEntry(
            f"parity_exists_prop_{k}",
            lambda k=k: parity_exists_deg_k_prop_program(k),
            partial(eval_query, QueryId("parity_exists_deg", k)),
            partial(_audit_parity_exists_prop, k), "DynProp", max(3, k)))
    return tuple(entries)


def catalog_entry(name: str) -> ProgramCatalogEntry:
    for e in catalog():
        if e.name == name:
            return e
    raise ValidationError(f"unknown catalog program {name!r}")


def write_program_files(directory) -> list[str]:
    from pathlib import Path

    from .interpreter import format_program
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for entry in catalog():
        path = directory / f"{entry.name}.dyp"
        path.write_text(format_program(entry.build()))
        written.append(str(path))
    return written


# ---------------------------------------------------------------- audits

def audit_program_state(state: ProgramState) -> list[Discrepancy]:
    """Definitional recomputation of every auxiliary relation, by the
    audit of the program's catalog entry."""
    out: list[Discrepancy] = []
    entry = catalog_entry(state.program.name)
    entry.audit(state.input, state.aux_structure(), out)
    return out


def _audit_list_program(aux: Structure, fam: ListFamily,
                        members: dict[tuple, set[int]],
                        out: list[Discrepancy]) -> None:
    """fam's lists and count flags against each owner tuple's members."""
    audit_list_family(aux, members, fam.names(), out)
    for i, nm in enumerate(fam.count_names, start=fam.first_count):
        diff(nm, {o for o, elems in members.items() if len(elems) == i},
             aux.tuples(nm), out)
    diff(fam.gt_name,
         {o for o, elems in members.items() if len(elems) > fam.K},
         aux.tuples(fam.gt_name), out)


def _check_flag(aux: Structure, rel: str, want: bool,
                out: list[Discrepancy]) -> None:
    diff(rel, {()} if want else set(), aux.tuples(rel), out)


def _audit_parity(inp: Structure, aux: Structure,
                  out: list[Discrepancy]) -> None:
    _check_flag(aux, "P", eval_query(QueryId("parity"), inp), out)


def _audit_size(k: int, inp: Structure, aux: Structure,
                out: list[Discrepancy]) -> None:
    _audit_list_program(aux, _size_family(k),
                        {(): {u for (u,) in inp.tuples("U")}}, out)


def _audit_degree_rel(k: int, inp: Structure, aux: Structure,
                      out: list[Discrepancy]) -> None:
    _audit_list_program(aux, _count_family("", "N", k),
                        {(w,): in_neighbours(inp, w) for w in range(inp.n)},
                        out)


def _audit_parity_degree_div3(inp: Structure, aux: Structure,
                              out: list[Discrepancy]) -> None:
    out_fam, in_fam = _div3_families()
    _audit_list_program(aux, out_fam,
                        {(v,): out_neighbours(inp, v) for v in range(inp.n)},
                        out)
    _audit_list_program(aux, in_fam,
                        {(w,): in_neighbours(inp, w) for w in range(inp.n)},
                        out)
    degree = {x: total_degree(inp, x) for x in range(inp.n)}
    for i in range(3):
        diff(f"M_{i}", {(x,) for x, d in degree.items() if d > 0 and d % 3 == i},
             aux.tuples(f"M_{i}"), out)
    _check_flag(aux, "P", eval_query(QueryId("parity_degree_div3"), inp), out)


def _audit_parity_exists_prop(k: int, inp: Structure, aux: Structure,
                              out: list[Discrepancy]) -> None:
    nfam, cfam = _count_family("N", "N", k), _count_family("C", "Nc", k)
    coloured = graph_coloured(inp)
    ins = {(w,): in_neighbours(inp, w) for w in range(inp.n)}
    _audit_list_program(aux, nfam, ins, out)
    _audit_list_program(aux, cfam,
                        {w: vs & coloured for w, vs in ins.items()}, out)
    diff("Active", {o for o, vs in ins.items() if 1 <= len(vs) <= k},
         aux.tuples("Active"), out)
    uncoloured = sorted(set(range(inp.n)) - coloured)
    for l, m in _p_pairs(k):
        want = {a + b for a in itertools.permutations(sorted(coloured), l)
                for b in itertools.permutations(uncoloured, m)
                if len(n_exists_forall(inp, a, b, k)) % 2 == 1}
        diff(_p_name(l, m), want, aux.tuples(_p_name(l, m)), out)
    _check_flag(aux, "Ans", eval_query(QueryId("parity_exists_deg", k), inp),
                out)
