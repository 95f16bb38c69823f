import random

import pytest

from dyncomplab import oracle as oc
from dyncomplab.structures import DynLabError, Structure, coloured_graph


def _graph(n, edges, coloured=()):
    return coloured_graph(n, edges, coloured)


# A small hand-checked graph used across several tests:
#   0 -> 2, 0 -> 3, 1 -> 2, 3 -> 3 (self-loop), colours {2, 3}
HAND = _graph(5, [(0, 2), (0, 3), (1, 2), (3, 3)], [2, 3])


def test_neighbour_helpers():
    assert oc.out_neighbours(HAND, 0) == {2, 3}
    assert oc.in_neighbours(HAND, 2) == {0, 1}
    assert oc.indegree(HAND, 2) == 2
    assert oc.indegree(HAND, 4) == 0


def test_self_loop_counts_twice_in_total_degree():
    assert oc.total_degree(HAND, 3) == 3        # in from 0, loop counts 2
    assert oc.total_degree(HAND, 0) == 2
    assert oc.total_degree(HAND, 4) == 0


def test_parity_query():
    items = Structure.make(4, {"U": 1}, {"U": {(0,), (2,), (3,)}})
    assert oc.eval_query(oc.QueryId("parity"), items) is True
    empty = Structure.make(4, {"U": 1})
    assert oc.eval_query(oc.QueryId("parity"), empty) is False


def test_size_k_query():
    items = Structure.make(6, {"U": 1}, {"U": {(1,), (4,)}})
    assert oc.eval_query(oc.QueryId("size_k", 2), items) is True
    assert oc.eval_query(oc.QueryId("size_k", 1), items) is False
    assert oc.eval_query(oc.QueryId("size_k", 3), items) is False


def test_parity_exists_queries():
    # the only coloured node with out-edges is 3 (self-loop), so exactly
    # one node lies in a coloured out-neighbourhood
    assert oc.n_exists(HAND, {2, 3}) == {3}
    assert oc.eval_query(oc.QueryId("parity_exists"), HAND) is True


def test_parity_exists_deg_restricts_indegree():
    g = _graph(6, [(0, 3), (1, 3), (2, 3), (0, 4)], [0, 1])
    full = oc.eval_query(oc.QueryId("parity_exists"), g)
    deg1 = oc.eval_query(oc.QueryId("parity_exists_deg", 1), g)
    # node 3 has indegree 3 so it is excluded under the bound 1
    assert full != deg1 or oc.indegree(g, 3) <= 1


def test_parity_exists_deg_logn():
    g = _graph(8, [(0, 1), (2, 1)], [0])
    want = oc.eval_query(oc.QueryId("parity_exists_deg", 3), g)
    assert oc.eval_query(oc.QueryId("parity_exists_deg_logn"), g) == want


def test_parity_degree_div3_query():
    # total degrees: 0 -> 2, 1 -> 1, 2 -> 2, 3 -> 3, 4 -> 0
    assert oc.eval_query(oc.QueryId("parity_degree_div3"), HAND) is True
    assert oc.eval_query(oc.QueryId("parity_degree_div3"), _graph(3, [])) is False


def test_floor_log2():
    assert [oc.floor_log2(v) for v in (1, 2, 3, 4, 7, 8, 1024)] == \
        [0, 1, 1, 2, 2, 3, 10]
    from dyncomplab.structures import DynLabError
    with pytest.raises(DynLabError):
        oc.floor_log2(0)


def test_covered_set():
    g = _graph(5, [(0, 1), (0, 2), (3, 2)], coloured=[0])
    assert oc.covered_set(g) == {1, 2}
    assert oc.covered_set(g, bound=1) == {1}
    assert oc.covered_set(_graph(5, [(0, 1)])) == set()


def test_indegree_buckets():
    g = _graph(6, [(0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (0, 5)])
    buckets = oc.indegree_buckets(g, 2)
    assert buckets[1] == {5}
    assert buckets[2] == {4}
    assert buckets[3] == {3}
    assert buckets[">"] == set()
    deeper = oc.indegree_buckets(g, 1)
    assert deeper[">"] == {3}


def test_n_exists_forall_preconditions():
    g = _graph(6, [(0, 3), (1, 3)], [0])
    with pytest.raises(oc.OracleError):
        oc.n_exists_forall(g, (0,), (0,), 2)     # overlapping tuples
    with pytest.raises(oc.OracleError):
        oc.n_exists_forall(g, (1,), (2,), 2)     # 2 is not coloured, 1 is not


def test_n_exists_forall_matches_figure():
    from dyncomplab.constructions import figure_fixture
    fig = figure_fixture("fig2")
    want = fig.extra["n_exists_forall"]
    got = oc.n_exists_forall(fig.graph, fig.extra["a"], fig.extra["b"],
                             fig.extra["k"])
    assert got == want


def test_audit_list_family_flags_breakage():
    from dyncomplab import programs as pg
    from dyncomplab.interpreter import init_state, step
    from dyncomplab.structures import Change
    prog = pg.size_k_program(2)
    st = init_state(prog, 4)
    for v in (0, 1, 2):
        st = step(st, Change("ins", "U", (v,)))
    assert not pg.audit_program_state(st)
    corrupt = st.aux_arrays["List_1"].copy()     # a state's arrays are read-only
    corrupt[0, 0] ^= True                         # corrupt a list edge
    st.aux_arrays["List_1"] = corrupt
    assert pg.audit_program_state(st)


def test_a_row_of_an_empty_list_at_a_higher_level_fails_the_audit():
    from dyncomplab import programs as pg
    from dyncomplab.interpreter import init_state
    st = init_state(pg.size_k_program(2), 4)
    corrupt = st.aux_arrays["List_2"].copy()     # a state's arrays are read-only
    corrupt[0, 1] = True
    st.aux_arrays["List_2"] = corrupt
    assert [str(d) for d in pg.audit_program_state(st)] == \
        ["List_2: spurious (0, 1)"]


def test_diff_names_spurious_then_missing_tuples():
    out = []
    oc.diff("R", {(1,), (2,)}, [(2,), (3,)], out)
    assert [(d.relation, d.kind, d.detail) for d in out] == \
        [("R", "spurious", (3,)), ("R", "missing", (1,))]


def _random_graph(n, rng):
    """A seeded coloured graph on n nodes in which every ordered pair, a
    self-loop included, is an edge with one probability per graph."""
    p = rng.random()
    edges = [(v, w) for v in range(n) for w in range(n) if rng.random() < p]
    return _graph(n, edges, [v for v in range(n) if rng.random() < 0.5])


def _per_node_answer(kind, s, k=None):
    """eval_query's answer from the per-node helpers alone."""
    coloured = {v for (v,) in s.tuples("R")}
    covered = [w for w in range(s.n) if oc.in_neighbours(s, w) & coloured]
    if kind == "parity_exists":
        return len(covered) % 2 == 1
    if kind == "parity_exists_deg":
        return sum(oc.indegree(s, w) <= k for w in covered) % 2 == 1
    if kind == "parity_exists_deg_logn":
        return sum(oc.indegree(s, w) <= oc.floor_log2(s.n)
                   for w in covered) % 2 == 1
    return sum(oc.total_degree(s, v) > 0 and oc.total_degree(s, v) % 3 == 0
               for v in range(s.n)) % 2 == 1


@pytest.mark.parametrize("n", range(10))
def test_one_pass_maps_match_the_per_node_helpers(n):
    for seed in range(200):
        g = _random_graph(n, random.Random(f"one-pass:{n}:{seed}"))
        nodes = range(n)
        assert oc.in_neighbour_sets(g) == [oc.in_neighbours(g, w) for w in nodes]
        assert oc.out_neighbour_sets(g) == [oc.out_neighbours(g, v) for v in nodes]
        assert oc.total_degrees(g) == [oc.total_degree(g, v) for v in nodes]
        for k in range(5):
            want = {ell: {w for w in nodes if oc.indegree(g, w) == ell}
                    for ell in range(1, k + 2)}
            want[">"] = {w for w in nodes if oc.indegree(g, w) > k + 1}
            assert oc.indegree_buckets(g, k) == want, (seed, k)
        coloured = {v for (v,) in g.tuples("R")}
        covered = {w for w in nodes if oc.in_neighbours(g, w) & coloured}
        assert oc.covered_set(g) == covered
        for bound in range(5):
            assert oc.covered_set(g, bound) == \
                {w for w in covered if oc.indegree(g, w) <= bound}, (seed, bound)


@pytest.mark.parametrize("n", range(10))
def test_every_query_kind_matches_the_per_node_helpers(n):
    for seed in range(200):
        rng = random.Random(f"queries:{n}:{seed}")
        g = _random_graph(n, rng)
        for kind in ("parity_exists", "parity_exists_deg_logn",
                     "parity_degree_div3"):
            if kind == "parity_exists_deg_logn" and n == 0:
                with pytest.raises(DynLabError):
                    oc.eval_query(oc.QueryId(kind), g)
                continue
            assert oc.eval_query(oc.QueryId(kind), g) == \
                _per_node_answer(kind, g), (seed, kind)
        for k in range(5):
            assert oc.eval_query(oc.QueryId("parity_exists_deg", k), g) == \
                _per_node_answer("parity_exists_deg", g, k), (seed, k)
        items = Structure.make(n, {"U": 1},
                               {"U": {(u,) for u in range(n) if rng.random() < 0.5}})
        size = len(items.tuples("U"))
        assert oc.eval_query(oc.QueryId("parity"), items) == (size % 2 == 1)
        for k in range(5):
            assert oc.eval_query(oc.QueryId("size_k", k), items) == (size == k)
