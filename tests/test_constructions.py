import hashlib
import itertools
import random

import pytest

from dyncomplab import constructions as cx
from dyncomplab import oracle as oc
from dyncomplab.structures import (Change, DynLabError, apply_change,
                                   format_script, graph_edges)
import test_acceptance as ta


def test_make_collection_validates():
    cx.make_collection(4, 2, [{1, 2, 3}])
    with pytest.raises(DynLabError):
        cx.make_collection(4, 2, [{1, 2}])          # wrong member size
    with pytest.raises(DynLabError):
        cx.make_collection(4, 2, [{1, 2, 5}])       # out of universe


def test_lower_bound_graph_fig4_layout():
    fig = cx.figure_fixture("fig4")
    col = fig.extra["collection"]
    graph, p_map, s_map = cx.lower_bound_graph(col)
    assert p_map == fig.extra["p_map"] and s_map == fig.extra["s_map"]
    # one node per non-empty subset of size <= k+1, after the p-nodes
    import math
    expected = sum(math.comb(col.n, s) for s in range(1, col.k + 2))
    assert graph.n == col.n + expected
    assert min(s_map.values()) == col.n


def test_lower_bound_property_holds_for_every_collection():
    for n, k in [(3, 1), (4, 1), (4, 2), (5, 2)]:
        universe = list(range(1, n + 1))
        candidates = [frozenset(c)
                      for c in itertools.combinations(universe, k + 1)]
        rng = random.Random(n * 10 + k)
        families = [frozenset(rng.sample(candidates,
                                         rng.randrange(1, len(candidates) + 1)))
                    for _ in range(12)]
        for fam in families:
            col = cx.make_collection(n, k, fam)
            check = cx.verify_lower_bound_property(col)
            assert check, check.counterexample


def test_inclusion_exclusion_congruence():
    rng = random.Random(99)
    for _ in range(30):
        n, k = 4, 1
        candidates = [frozenset(c)
                      for c in itertools.combinations(range(1, n + 1), k + 1)]
        fam = frozenset(rng.sample(candidates,
                                   rng.randrange(1, len(candidates) + 1)))
        col = cx.make_collection(n, k, fam)
        for b in candidates:
            assert cx.inclusion_exclusion_congruence(col, b)


def test_two_layered_validation():
    with pytest.raises(DynLabError):      # s not isolated
        cx.TwoLayeredGraph(6, 0, 1, frozenset({2, 3}), frozenset({4, 5}),
                           frozenset({(0, 2), (2, 4), (4, 1), (5, 1)}))
    with pytest.raises(DynLabError):      # missing b -> t edge
        cx.TwoLayeredGraph(6, 0, 1, frozenset({2, 3}), frozenset({4, 5}),
                           frozenset({(2, 4), (4, 1)}))
    with pytest.raises(DynLabError):      # layer violation a -> a
        cx.TwoLayeredGraph(6, 0, 1, frozenset({2, 3}), frozenset({4, 5}),
                           frozenset({(2, 3), (4, 1), (5, 1)}))


def _random_two_layered(rng):
    na, nb = rng.randrange(1, 4), rng.randrange(1, 4)
    n = 2 + na + nb
    a_nodes = list(range(2, 2 + na))
    b_nodes = list(range(2 + na, n))
    ab = [(a, b) for a in a_nodes for b in b_nodes if rng.random() < 0.5]
    return cx.make_two_layered(n, 0, 1, a_nodes, b_nodes, ab)


@pytest.mark.parametrize("k2", [False, True])
def test_reduction_agrees_with_path_search(k2):
    rng = random.Random(21 if k2 else 20)
    for _ in range(60):
        g = _random_two_layered(rng)
        reduced, translate = cx.two_layered_reduction(g, k2_variant=k2)
        k = cx.reduction_bound(k2)
        cur = reduced
        # insert one s -> a edge at a time and compare both sides
        for a in sorted(g.a_nodes):
            c = Change("ins", "E", (g.s, a))
            for tc in translate(c):
                cur = apply_change(cur, tc)
            reachable = cx.has_st_path(g, extra_edges=[(g.s, a)])
            answer = oc.eval_query(oc.QueryId("parity_exists_deg", k), cur)
            assert reachable == (answer is False), (g, a, k2)
            for tc in translate(Change("del", "E", (g.s, a))):
                cur = apply_change(cur, tc)


def test_translator_shapes():
    g = cx.make_two_layered(5, 0, 1, [2], [3, 4], [(2, 3)])
    tr = cx.ChangeTranslator(g)
    out = tr(Change("ins", "E", (0, 2)))
    assert Change("ins", "E", (0, 2)) in out
    assert any(c.relation == "R" for c in out)
    assert tr(Change("ins", "E", (2, 3))) == [Change("ins", "E", (3, 2))]
    assert tr(Change("del", "E", (3, 1))) == [Change("del", "E", (1, 3))]


def test_figure_fixtures_answer_correctly():
    fig1 = cx.figure_fixture("fig1")
    for label in ("dashed", "dotted"):
        after = apply_change(fig1.graph, fig1.changes[label])
        want = fig1.extra[f"{label}_answer"]
        assert oc.eval_query(fig1.extra["query"], after) is want, label

    # fig3's expected answers are about the reduced structure, so the change
    # goes through the reduction's change translator first
    fig3 = cx.figure_fixture("fig3")
    reduced, translate = cx.two_layered_reduction(fig3.extra["layered"])
    for label in ("dashed", "dotted"):
        cur = reduced
        for tc in translate(fig3.changes[label]):
            cur = apply_change(cur, tc)
        want = fig3.extra[f"{label}_answer"]
        assert oc.eval_query(fig3.extra["query"], cur) is want, label


def test_random_script_is_deterministic_and_effective():
    s1 = cx.random_script(6, profile="graph", seed=4)
    s2 = cx.random_script(6, profile="graph", seed=4)
    assert s1.entries == s2.entries
    assert s1.num_checkpoints() > 0
    from dyncomplab.structures import Structure, is_effective
    cur = Structure.make(6, dict(s1.declared))
    for c in s1.changes():
        assert is_effective(cur, c)
        cur = apply_change(cur, c)


def test_random_script_profiles():
    for name in cx.PROFILES:
        script = cx.random_script(5, profile=name, seed=1)
        assert len(list(script.changes())) == cx.PROFILES[name].length
    with pytest.raises(DynLabError):
        cx.random_script(5, profile="nope", seed=1)



# sha256 of seeded streams: random_script at n=7, seed 5, for each profile,
# and one stream each of acceptance criteria 1 and 3.  Another digest means
# that these seeds now draw other data.
PINNED = {
    "default": "bab7f219dedbfadcefb381100d782efdc5dcc88aaa44f3c8b9950d367ec7d1ae",
    "graph": "bab7f219dedbfadcefb381100d782efdc5dcc88aaa44f3c8b9950d367ec7d1ae",
    "edges": "2b3bcefbb0a70cd902c92010cf147bac46a2a8556439c877c6570ffa756fdecd",
    "set": "f406ffe6f8bab1d0770648b94d609b6296c9a1127fce768d6fbe927fb0e4eb05",
    "colour-heavy":
        "025534c6ce159414d53a085cb6c7887af4c46b9cc1dfe9ac08bc11a1396bc8eb",
    "criterion 1":
        "4271ab0f59eb305ca835c14a5af3387641443db96ca90f8bfa8b23320fdfe5f1",
    "criterion 3":
        "57f5646aa0605f65a24e3309da6b5072f8922c9beb07290fd4df93cf60fc334d",
}


def test_change_streams_are_pinned():
    streams = {name: format_script(cx.random_script(7, name, 5))
               for name in cx.PROFILES}
    for key, (n, changes) in (
            ("criterion 1", ta._program_changes("degree_rel_2", 3)),
            ("criterion 3", ta._engine_changes("fo-degk", 2, 5))):
        streams[key] = "\n".join([f"domain {n}", *map(str, changes)])
    assert {key: hashlib.sha256(text.encode()).hexdigest()
            for key, text in streams.items()} == PINNED
