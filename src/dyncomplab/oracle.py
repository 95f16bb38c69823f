"""From-scratch evaluation of the maintained queries, plus state audits.

Deliberately plain, and nothing is kept between calls: `eval_query`,
`covered_set` and `indegree_buckets` make one pass over the input per
call, through the one-pass neighbour and degree maps.  The per-node
helpers (`in_neighbours`, `indegree`, `total_degree`) stay as the
definitional reference those maps are tested against; `ncorunc` and the
engine audit still read them per node.  An audit computes from the input
the tuples each auxiliary relation should hold and hands them to `diff`,
the one place that turns expected against actual tuples into
`spurious`/`missing` discrepancies.  Nothing here is shared with the
interpreter, the compiled kernels or the procedural engines, so
differential tests stay meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .structures import (ArityMismatchError, DynLabError, Structure,
                         ValidationError, graph_coloured, graph_edges)


class OracleError(DynLabError):
    pass


# the input relations each query kind reads, with the arity it reads them at
QUERY_INPUTS = {
    "parity": {"U": 1},
    "size_k": {"U": 1},
    "parity_exists": {"E": 2, "R": 1},
    "parity_exists_deg": {"E": 2, "R": 1},
    "parity_exists_deg_logn": {"E": 2, "R": 1},
    "parity_degree_div3": {"E": 2},
}


@dataclass(frozen=True)
class QueryId:
    kind: str            # a key of QUERY_INPUTS
    k: int | None = None

    def __post_init__(self):
        if self.kind not in QUERY_INPUTS:
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


def in_neighbour_sets(s: Structure) -> list[set[int]]:
    """`in_neighbours(s, w)` for every node w, from one pass over E."""
    ins: list[set[int]] = [set() for _ in range(s.n)]
    for (v, w) in graph_edges(s):
        ins[w].add(v)
    return ins


def out_neighbour_sets(s: Structure) -> list[set[int]]:
    """`out_neighbours(s, v)` for every node v, from one pass over E."""
    outs: list[set[int]] = [set() for _ in range(s.n)]
    for (v, w) in graph_edges(s):
        outs[v].add(w)
    return outs


def total_degrees(s: Structure) -> list[int]:
    """`total_degree(s, v)` for every node v, from one pass over E: a
    self-loop counts 2."""
    deg = [0] * s.n
    for (a, b) in graph_edges(s):
        deg[a] += 1
        deg[b] += 1
    return deg


def covered_set(s: Structure, bound: int | None = None) -> set[int]:
    """Nodes with an in-edge from a coloured node, optionally in-degree-bounded."""
    coloured = graph_coloured(s)
    covered = {w for (v, w) in graph_edges(s) if v in coloured}
    if bound is not None:
        ins = in_neighbour_sets(s)
        covered = {w for w in covered if len(ins[w]) <= bound}
    return covered


def floor_log2(n: int) -> int:
    if n < 1:
        raise ValidationError("floor_log2 needs n >= 1")
    return n.bit_length() - 1


def eval_query(q: QueryId, s: Structure) -> bool:
    for name, arity in QUERY_INPUTS[q.kind].items():
        if s.arity(name) != arity:
            raise ArityMismatchError(f"query {q.kind} reads {name}/{arity}, "
                                     f"not {name}/{s.arity(name)}")
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
    # parity_degree_div3
    hits = [d for d in total_degrees(s) if d > 0 and d % 3 == 0]
    return len(hits) % 2 == 1


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
    return ncorunc(s, a | b, k)     # B holds no coloured node


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
    for w, vs in enumerate(in_neighbour_sets(s)):
        d = len(vs)
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


def diff(rel: str, want: set, got: Iterable[tuple],
         out: list[Discrepancy]) -> None:
    """Append a `spurious` discrepancy for each tuple of `got` outside
    `want` and a `missing` one for each tuple of `want` outside `got`."""
    got = set(got)
    out.extend(Discrepancy(rel, "spurious", t) for t in sorted(got - want))
    out.extend(Discrepancy(rel, "missing", t) for t in sorted(want - got))


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
    diff("P", expected, engine.store_pairs(), out)
    want_ans = len(covered_set(s, k)) % 2 == 1
    if engine.answer() != want_ans:
        out.append(Discrepancy("Ans", "structure", (engine.answer(), want_ans)))
    return out


class _Unordered(Exception):
    """An owner's level-1 rows spell no order of its members; args are
    the names key of the faulty relation and the fault's detail."""


def _list_order(succ: dict[int, int], heads: list[int], members: set[int],
                duplicate: int | None) -> list[int]:
    """The order the level-1 rows spell out from the one head; `duplicate`
    is a node with two successors, if any."""
    if duplicate is not None:
        raise _Unordered("list", "duplicate successor", duplicate)
    if len(heads) != 1:
        raise _Unordered("first", "expected exactly one head",
                         tuple(sorted(heads)))
    order, seen = [heads[0]], {heads[0]}
    while order[-1] in succ:
        nxt = succ[order[-1]]
        if nxt in seen:
            raise _Unordered("list", "cycle", nxt)
        order.append(nxt)
        seen.add(nxt)
    if seen != members:
        raise _Unordered("list", "order does not cover members", tuple(order),
                         tuple(sorted(members)))
    return order


def audit_list_family(aux: Structure, members: dict[tuple, set[int]],
                      names: dict, out: list[Discrepancy]) -> None:
    """Check that each owner's list relations represent SOME insertion
    order of its members.

    members maps each owner, the tuple of leading columns (`()` for a
    list with no owner column), to its member set; names maps "list",
    "first" and "last" to the relation names of levels 1..L.  An owner
    whose level-1 rows spell no order of its members gets one `structure`
    discrepancy and no diff; every other row is diffed against the
    tuples its owner's order defines, none for an empty list.
    """
    width = aux.arity(names["list"][0]) - 2
    succ: dict[tuple, dict[int, int]] = {}
    duplicated: dict[tuple, int] = {}
    for t in aux.tuples(names["list"][0]):
        owner, (x, y) = t[:width], t[width:]
        row = succ.setdefault(owner, {})
        if x in row:
            duplicated[owner] = x
        row[x] = y
    heads: dict[tuple, list[int]] = {}
    for t in aux.tuples(names["first"][0]):
        heads.setdefault(t[:width], []).append(t[width])
    want = {nm: set() for key in ("list", "first", "last")
            for nm in names[key]}
    broken = set()
    for owner, elems in members.items():
        if not elems:
            continue
        try:
            order = _list_order(succ.get(owner, {}), heads.get(owner, []),
                                elems, duplicated.get(owner))
        except _Unordered as fault:
            key, *detail = fault.args
            tag = names[key][0] + (f"{list(owner)}" if owner else "")
            out.append(Discrepancy(tag, "structure", tuple(detail)))
            broken.add(owner)
            continue
        m = len(order)
        for lvl, nm in enumerate(names["list"], start=1):
            want[nm].update(owner + (order[i], order[i + lvl])
                            for i in range(m - lvl))
        for lvl, (first, last) in enumerate(zip(names["first"],
                                                names["last"]), start=1):
            if lvl <= m:
                want[first].add(owner + (order[lvl - 1],))
                want[last].add(owner + (order[m - lvl],))
    for nm, tuples in want.items():
        diff(nm, tuples, (t for t in aux.tuples(nm)
                          if t[:width] not in broken), out)
