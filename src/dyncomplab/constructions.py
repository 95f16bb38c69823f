"""Graph constructions, figure fixtures, and seeded script generation.

The lower-bound construction encodes a family of (k+1)-subsets into a
bipartite graph whose neighbourhood-union parities recover exactly the
family; the two-layered reduction turns s-t reachability questions into
covered-node parity questions on the reversed graph.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .oracle import QueryId, n_exists
from .structures import (Change, ChangeScript, CHECKPOINT, Checkpoint,
                         Structure, ValidationError, coloured_graph,
                         graph_edges)


# ---------------------------------------------------------- lower bound

@dataclass(frozen=True)
class Collection:
    """A family of (k+1)-subsets of {1..n}."""

    n: int
    k: int
    members: frozenset[frozenset[int]]

    def __post_init__(self):
        if self.k < 0 or self.n < self.k + 1:
            raise ValidationError("need k >= 0 and n >= k+1")
        for b in self.members:
            if len(b) != self.k + 1:
                raise ValidationError(f"member {sorted(b)} must have "
                                      f"{self.k + 1} elements")
            if not all(1 <= i <= self.n for i in b):
                raise ValidationError(f"member {sorted(b)} outside 1..{self.n}")


def make_collection(n: int, k: int, members) -> Collection:
    return Collection(n, k, frozenset(frozenset(b) for b in members))


def _subset_nodes(n: int, k: int) -> list[frozenset[int]]:
    """Non-empty subsets of {1..n} of size <= k+1, ordered by (size, lex)."""
    out = []
    for size in range(1, k + 2):
        for combo in itertools.combinations(range(1, n + 1), size):
            out.append(frozenset(combo))
    return out


def lower_bound_graph(col: Collection):
    """Encode the collection: p-nodes 0..n-1, then one node per non-empty
    subset Y with |Y| <= k+1; edge (p_i, Y) iff i ∈ Y and an odd number
    of members contain Y.  Returns (graph, p_map, s_map)."""
    subsets = _subset_nodes(col.n, col.k)
    p_map = {i: i - 1 for i in range(1, col.n + 1)}
    s_map = {y: col.n + j for j, y in enumerate(subsets)}
    edges = set()
    for y in subsets:
        odd = sum(1 for b in col.members if y <= b) % 2 == 1
        if odd:
            for i in y:
                edges.add((p_map[i], s_map[y]))
    graph = coloured_graph(col.n + len(subsets), edges, ())
    return graph, p_map, s_map


@dataclass(frozen=True)
class LowerBoundCheck:
    ok: bool
    counterexample: frozenset[int] | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_lower_bound_property(col: Collection) -> LowerBoundCheck:
    """For every (k+1)-subset B: the union of the p_B-neighbourhoods has
    odd size exactly when B belongs to the collection."""
    graph, p_map, _ = lower_bound_graph(col)
    indeg = {w: 0 for w in range(graph.n)}
    for (_, w) in graph_edges(graph):
        indeg[w] += 1
    if max(indeg.values(), default=0) > col.k + 1:
        return LowerBoundCheck(False, None)
    for combo in itertools.combinations(range(1, col.n + 1), col.k + 1):
        b = frozenset(combo)
        reached = n_exists(graph, [p_map[i] for i in b])
        if (len(reached) % 2 == 1) != (b in col.members):
            return LowerBoundCheck(False, b)
    return LowerBoundCheck(True)


def inclusion_exclusion_congruence(col: Collection, b) -> bool:
    """Cross-check the neighbourhood parity of p_B against the closed-form
    count: each member B' contributes 2^{k+1} - 2^{|B' \\ B|} subsets, so
    the parity is exactly [B in collection]."""
    b = frozenset(b)
    graph, p_map, _ = lower_bound_graph(col)
    reached = n_exists(graph, [p_map[i] for i in b])
    direct = len(reached) % 2
    closed = sum(2 ** (col.k + 1) - 2 ** len(bp - b)
                 for bp in col.members) % 2
    return direct == closed == (1 if b in col.members else 0)


# ------------------------------------------------------- 2-layered graphs

@dataclass(frozen=True)
class TwoLayeredGraph:
    """s → A → B → t layered digraph; s starts isolated and every B-node
    has its edge to t."""

    n: int
    s: int
    t: int
    a_nodes: frozenset[int]
    b_nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        blocks = [{self.s}, {self.t}, set(self.a_nodes), set(self.b_nodes)]
        seen: set[int] = set()
        for blk in blocks:
            if blk & seen:
                raise ValidationError("s, t, A, B must be disjoint")
            seen |= blk
        if not seen <= set(range(self.n)):
            raise ValidationError("node out of range")
        for (u, v) in self.edges:
            if u == self.s:
                raise ValidationError("s must start isolated")
            if not ((u in self.a_nodes and v in self.b_nodes)
                    or (u in self.b_nodes and v == self.t)):
                raise ValidationError(f"edge {(u, v)} violates layering")
        for b in self.b_nodes:
            if (b, self.t) not in self.edges:
                raise ValidationError(f"B-node {b} is missing its edge to t")


def make_two_layered(n, s, t, a_nodes, b_nodes, ab_edges) -> TwoLayeredGraph:
    edges = {tuple(e) for e in ab_edges}
    edges |= {(b, t) for b in b_nodes}
    return TwoLayeredGraph(n, s, t, frozenset(a_nodes), frozenset(b_nodes),
                           frozenset(edges))


class ChangeTranslator:
    """Maps source-graph changes to reduced-instance changes."""

    def __init__(self, g: TwoLayeredGraph):
        self.g = g

    def __call__(self, c: Change) -> list[Change]:
        if c.relation != "E" or len(c.args) != 2:
            raise ValidationError(f"untranslatable change {c}")
        u, v = c.args
        g = self.g
        if u == g.s and v in g.a_nodes:
            return [Change(c.op, "E", (u, v)), Change(c.op, "R", (g.s,))]
        if (u in g.a_nodes and v in g.b_nodes) or \
                (u in g.b_nodes and v == g.t):
            return [Change(c.op, "E", (v, u))]
        raise ValidationError(f"change {c} violates the layering")


def two_layered_reduction(g: TwoLayeredGraph, k2_variant: bool = False):
    """Reversed-edge coloured graph plus the change translator.

    The k2 variant additionally wires t to every node of A ∪ B, pushing
    the relevant activity bound from 1 to 2."""
    edges = {(v, u) for (u, v) in g.edges}
    if k2_variant:
        edges |= {(g.t, x) for x in g.a_nodes | g.b_nodes}
    return coloured_graph(g.n, edges, ()), ChangeTranslator(g)


def reduction_bound(k2_variant: bool) -> int:
    return 2 if k2_variant else 1


def has_st_path(g: TwoLayeredGraph, extra_edges=()) -> bool:
    edges = set(g.edges) | set(extra_edges)
    succ: dict[int, set[int]] = {}
    for (u, v) in edges:
        succ.setdefault(u, set()).add(v)
    frontier, seen = [g.s], {g.s}
    while frontier:
        u = frontier.pop()
        if u == g.t:
            return True
        for v in succ.get(u, ()):
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return False


# ------------------------------------------------------------- fixtures

@dataclass(frozen=True)
class FigureFixture:
    name: str
    graph: Structure
    labels: dict = field(default_factory=dict)
    changes: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def figure_fixtures() -> dict[str, FigureFixture]:
    fixtures: dict[str, FigureFixture] = {}

    # two sources u1,u2 feeding v1..v3; one pending edge per line style
    u1, u2, v1, v2, v3 = range(5)
    fixtures["fig1"] = FigureFixture(
        "fig1",
        coloured_graph(5, [(u1, v1), (u1, v2), (u2, v1)], ()),
        labels={"u1": u1, "u2": u2, "v1": v1, "v2": v2, "v3": v3},
        changes={"dashed": Change("ins", "E", (u1, v3)),
                 "dotted": Change("ins", "E", (u2, v3))},
        extra={"query": QueryId("parity_degree_div3"),
               "dashed_answer": True, "dotted_answer": False})

    vs = {f"v{i}": i - 1 for i in range(1, 8)}
    ws = {f"w{i}": 6 + i for i in range(1, 6)}
    edges = [(vs["v1"], ws["w1"]), (vs["v2"], ws["w2"]), (vs["v6"], ws["w3"]),
             (vs["v7"], ws["w5"])]
    edges += [(vs["v3"], w) for w in ws.values()]
    edges += [(vs["v4"], w) for w in ws.values()]
    edges += [(vs["v5"], ws[w]) for w in ("w2", "w3", "w4", "w5")]
    fixtures["fig2"] = FigureFixture(
        "fig2",
        coloured_graph(12, edges, [vs["v3"], vs["v4"], vs["v7"]]),
        labels={**vs, **ws},
        extra={"k": 4,
               "a": (vs["v3"], vs["v4"]), "b": (vs["v5"],),
               "n_exists_forall": {ws["w2"], ws["w3"], ws["w4"]}})

    s, t = 0, 1
    a_nodes = {f"m{i}": 1 + i for i in range(1, 6)}
    b_nodes = {f"b{i}": 6 + i for i in range(1, 6)}
    ab = [(a_nodes["m1"], b_nodes["b2"]), (a_nodes["m2"], b_nodes["b1"]),
          (a_nodes["m3"], b_nodes["b3"]), (a_nodes["m4"], b_nodes["b3"]),
          (a_nodes["m4"], b_nodes["b4"])]
    layered = make_two_layered(12, s, t, a_nodes.values(), b_nodes.values(), ab)
    fixtures["fig3"] = FigureFixture(
        "fig3",
        coloured_graph(12, layered.edges, ()),
        labels={"s": s, "t": t, **a_nodes, **b_nodes},
        changes={"dashed": Change("ins", "E", (s, a_nodes["m2"])),
                 "dotted": Change("ins", "E", (s, a_nodes["m5"]))},
        extra={"layered": layered, "query": QueryId("parity_exists_deg", 1),
               "dashed_answer": False, "dotted_answer": True})

    col = make_collection(4, 2, [{1, 3, 4}, {2, 3, 4}])
    graph, p_map, s_map = lower_bound_graph(col)
    fixtures["fig4"] = FigureFixture(
        "fig4", graph,
        labels={f"p{i}": p_map[i] for i in range(1, 5)},
        extra={"collection": col, "p_map": p_map, "s_map": s_map,
               "odd_colouring": (1, 3, 4), "even_colouring": (1, 2, 3)})
    return fixtures


def figure_fixture(name: str) -> FigureFixture:
    fixtures = figure_fixtures()
    if name not in fixtures:
        raise ValidationError(f"unknown fixture {name!r}; "
                              f"have {sorted(fixtures)}")
    return fixtures[name]


# --------------------------------------------------------- random scripts

@dataclass(frozen=True)
class ScriptProfile:
    relations: tuple[tuple[str, int], ...] = (("E", 2), ("R", 1))
    weights: tuple[float, ...] = (0.75, 0.25)
    p_delete: float = 0.4
    length: int = 120
    checkpoint_every: int = 5


PROFILES = {
    "default": ScriptProfile(),
    "graph": ScriptProfile(),
    "edges": ScriptProfile(relations=(("E", 2),), weights=(1.0,)),
    "set": ScriptProfile(relations=(("U", 1),), weights=(1.0,)),
    "colour-heavy": ScriptProfile(weights=(0.45, 0.55)),
}


def random_changes(n: int, relations, length: int, rng: random.Random,
                   weights=None, p_delete: float = 0.45) -> list[Change]:
    """`length` seeded effective changes to the (name, arity) relations,
    empty at the start: each relation drawn uniformly, or by `weights`;
    a delete with probability `p_delete`, or when the relation is full."""
    if n < 1:
        raise ValidationError(f"a random change stream needs a non-empty "
                              f"domain, not n={n}")
    names = [r for r, _ in relations]
    arity = dict(relations)
    present = {r: set() for r in names}
    out = []
    for _ in range(length):
        if weights is None:
            rel = rng.choice(names)
        else:
            rel, = rng.choices(names, weights=weights)
        tuples = present[rel]
        if tuples and (rng.random() < p_delete
                       or len(tuples) == n ** arity[rel]):
            args = rng.choice(sorted(tuples))
            tuples.discard(args)
            out.append(Change("del", rel, args))
        else:
            while True:
                args = tuple(rng.randrange(n) for _ in range(arity[rel]))
                if args not in tuples:
                    break
            tuples.add(args)
            out.append(Change("ins", rel, args))
    return out


def random_script(n: int, profile="default", seed: int = 0) -> ChangeScript:
    """Seeded effective-change sequence with periodic checkpoints."""
    if isinstance(profile, str):
        try:
            profile = PROFILES[profile]
        except KeyError:
            raise ValidationError(f"unknown profile {profile!r}; "
                                  f"have {sorted(PROFILES)}") from None
    changes = random_changes(n, profile.relations, profile.length,
                             random.Random(seed), profile.weights,
                             profile.p_delete)
    entries: list[Change | Checkpoint] = []
    for emitted, c in enumerate(changes, start=1):
        entries.append(c)
        if profile.checkpoint_every and emitted % profile.checkpoint_every == 0:
            entries.append(CHECKPOINT)
    return ChangeScript(n, dict(profile.relations), tuple(entries))
