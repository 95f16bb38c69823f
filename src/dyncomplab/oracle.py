"""From-scratch evaluation of the maintained queries, plus state audits.

Deliberately naive: every function rescans the structure.  Nothing here is
shared with the interpreter or the procedural engines, so differential
tests stay meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .structures import (DynLabError, Structure, ValidationError,
                         graph_coloured, graph_edges)


class OracleError(DynLabError):
    pass


@dataclass(frozen=True)
class QueryId:
    kind: str            # parity | size_k | parity_exists | parity_exists_deg
    #                    # | parity_exists_deg_logn | parity_degree_div3 | sym_circuit
    k: int | None = None

    def __post_init__(self):
        kinds = {"parity", "size_k", "parity_exists", "parity_exists_deg",
                 "parity_exists_deg_logn", "parity_degree_div3", "sym_circuit"}
        if self.kind not in kinds:
            raise ValidationError(f"unknown query kind {self.kind!r}")
        if self.kind in ("size_k", "parity_exists_deg") and (self.k is None or self.k < 0):
            raise ValidationError(f"{self.kind} needs a non-negative k")


def in_neighbours(s: Structure, w: int) -> set[int]:
    return {v for (v, w2) in graph_edges(s) if w2 == w}


def out_neighbours(s: Structure, v: int) -> set[int]:
    return {w for (v2, w) in graph_edges(s) if v2 == v}


def indegree(s: Structure, w: int) -> int:
    return len(in_neighbours(s, w))


def total_degree(s: Structure, v: int) -> int:
    """Incidence count: each edge touching v counts once per endpoint slot,
    so a self-loop contributes 2."""
    deg = 0
    for (a, b) in graph_edges(s):
        deg += (a == v) + (b == v)
    return deg


def covered_set(s: Structure, bound: int | None = None) -> set[int]:
    """Nodes with an in-edge from a coloured node, optionally in-degree-bounded."""
    coloured = graph_coloured(s)
    covered = {w for (v, w) in graph_edges(s) if v in coloured}
    if bound is not None:
        covered = {w for w in covered if indegree(s, w) <= bound}
    return covered


def floor_log2(n: int) -> int:
    if n < 1:
        raise ValidationError("floor_log2 needs n >= 1")
    return n.bit_length() - 1


def eval_query(q: QueryId, s: Structure) -> bool:
    if q.kind == "parity":
        return len(s.tuples("U")) % 2 == 1
    if q.kind == "size_k":
        return len(s.tuples("U")) == q.k
    if q.kind == "parity_exists":
        return len(covered_set(s)) % 2 == 1
    if q.kind == "parity_exists_deg":
        return len(covered_set(s, q.k)) % 2 == 1
    if q.kind == "parity_exists_deg_logn":
        return len(covered_set(s, floor_log2(s.n))) % 2 == 1
    if q.kind == "parity_degree_div3":
        hits = [v for v in range(s.n)
                if (d := total_degree(s, v)) > 0 and d % 3 == 0]
        return len(hits) % 2 == 1
    raise OracleError(f"query {q.kind} is not evaluated over a structure")


def n_exists(s: Structure, xs: Iterable[int]) -> set[int]:
    """Union of out-neighbourhoods."""
    out: set[int] = set()
    for x in xs:
        out |= out_neighbours(s, x)
    return out


def n_exists_forall(s: Structure, a: Iterable[int], b: Iterable[int],
                    k: int) -> set[int]:
    """Active nodes with edges from all of A∪B whose coloured in-neighbours
    are exactly A."""
    a, b = set(a), set(b)
    coloured = graph_coloured(s)
    if not a <= coloured:
        raise OracleError("A must be coloured")
    if b & coloured:
        raise OracleError("B must be uncoloured")
    if a & b:
        raise OracleError("A and B must be disjoint")
    out = set()
    for w in range(s.n):
        nbrs = in_neighbours(s, w)
        if len(nbrs) > k:
            continue
        if not (a | b) <= nbrs:
            continue
        if (nbrs & coloured) - a:
            continue
        out.add(w)
    return out


def ncorunc(s: Structure, c: Iterable[int], k: int) -> set[int]:
    """Active nodes with edges from all of C and no coloured in-neighbour
    outside C (the engine-side generalisation of n_exists_forall)."""
    c = set(c)
    coloured = graph_coloured(s)
    out = set()
    for w in range(s.n):
        nbrs = in_neighbours(s, w)
        if len(nbrs) > k:
            continue
        if not c <= nbrs:
            continue
        if (nbrs & coloured) - c:
            continue
        out.add(w)
    return out


def indegree_buckets(s: Structure, k: int) -> dict:
    """Exact in-degree classes 1..k+1 plus the overflow class '>'."""
    buckets: dict = {ell: set() for ell in range(1, k + 2)}
    buckets[">"] = set()
    for w in range(s.n):
        d = indegree(s, w)
        if 1 <= d <= k + 1:
            buckets[d].add(w)
        elif d > k + 1:
            buckets[">"].add(w)
    return buckets


# ---------------------------------------------------------------- audits

@dataclass
class Discrepancy:
    relation: str
    kind: str        # "spurious" | "missing" | "structure"
    detail: tuple

    def __str__(self):
        return f"{self.relation}: {self.kind} {self.detail}"


def audit_fo_state(engine) -> list[Discrepancy]:
    """Definitional recomputation of the engine's P-store and answer flag."""
    out: list[Discrepancy] = []
    s = engine.graph_structure()
    k = engine.k
    coloured = graph_coloured(s)
    expected: set[tuple[int, int]] = set()
    for w in range(s.n):
        nbrs = sorted(in_neighbours(s, w))
        if not nbrs or len(nbrs) > k:
            continue
        for imask in range(1, 1 << len(nbrs)):
            c = {nbrs[i] for i in range(len(nbrs)) if imask >> i & 1}
            if (in_neighbours(s, w) & coloured) - c:
                continue
            if len(ncorunc(s, c, k)) % 2 == 1:
                expected.add((w, imask))
    actual = engine.store_pairs()
    for pair in actual - expected:
        out.append(Discrepancy("P", "spurious", pair))
    for pair in expected - actual:
        out.append(Discrepancy("P", "missing", pair))
    want_ans = len(covered_set(s, k)) % 2 == 1
    if engine.answer() != want_ans:
        out.append(Discrepancy("Ans", "structure", (engine.answer(), want_ans)))
    return out


def audit_list_family(aux: Structure, members: set[int], names: dict,
                      out: list[Discrepancy], owner: int | None = None) -> None:
    """Check list relations represent SOME insertion order of `members`.

    names: {"list": [List_1..List_L], "first": [...], "last": [...]}; when
    owner is given the relations carry a leading owner column.
    """
    def rows(name, arity_tail):
        picked = []
        for t in aux.tuples(name):
            if owner is None:
                picked.append(t)
            elif t[0] == owner:
                picked.append(t[1:])
        return picked

    def flag(name, kind, *detail):
        tag = name if owner is None else f"{name}[{owner}]"
        out.append(Discrepancy(tag, kind, tuple(detail)))

    list_names = names["list"]
    first_names = names["first"]
    last_names = names["last"]
    level1 = rows(list_names[0], 2)
    succ: dict[int, int] = {}
    for (x, y) in level1:
        if x in succ:
            flag(list_names[0], "structure", "duplicate successor", x)
            return
        succ[x] = y
    firsts = [t[0] for t in rows(first_names[0], 1)]
    if not members:
        if level1 or firsts or any(rows(nm, 1) for nm in first_names + last_names):
            flag(list_names[0], "structure", "nonempty relations for empty set")
        return
    if len(firsts) != 1:
        flag(first_names[0], "structure", "expected exactly one head", tuple(firsts))
        return
    order = [firsts[0]]
    while order[-1] in succ:
        nxt = succ[order[-1]]
        if nxt in order:
            flag(list_names[0], "structure", "cycle", nxt)
            return
        order.append(nxt)
    if set(order) != members or len(order) != len(members):
        flag(list_names[0], "structure", "order does not cover members",
             tuple(order), tuple(sorted(members)))
        return
    pos = {v: i for i, v in enumerate(order)}
    m = len(order)
    for lvl, name in enumerate(list_names, start=1):
        want = {(order[i], order[i + lvl]) for i in range(m - lvl)}
        got = set(rows(name, 2))
        for t in got - want:
            flag(name, "spurious", t)
        for t in want - got:
            flag(name, "missing", t)
    for lvl, name in enumerate(first_names, start=1):
        want = {(order[lvl - 1],)} if lvl <= m else set()
        got = {tuple(t) for t in rows(name, 1)}
        for t in got - want:
            flag(name, "spurious", t)
        for t in want - got:
            flag(name, "missing", t)
    for lvl, name in enumerate(last_names, start=1):
        want = {(order[m - lvl],)} if lvl <= m else set()
        got = {tuple(t) for t in rows(name, 1)}
        for t in got - want:
            flag(name, "spurious", t)
        for t in want - got:
            flag(name, "missing", t)
