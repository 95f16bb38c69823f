import random
from functools import partial

import pytest

from dyncomplab import constructions as cx
from dyncomplab import fo_engines as fe
from dyncomplab import oracle as oc
from dyncomplab.structures import (ArityMismatchError, Change, DynLabError,
                                   ElementRangeError, coloured_graph)
from helpers import GRAPH_RELS, drive_checked


@pytest.mark.parametrize("k", [1, 2, 3])
def test_degk_engine_tracks_query(k):
    changes = cx.random_changes(8, GRAPH_RELS, 120, random.Random(k * 3))
    oracle = partial(oc.eval_query, oc.QueryId("parity_exists_deg", k))
    drive_checked(fe.FoDegKState(8, k), 8, changes, oracle, audit_every=12)


def test_logn_engine_tracks_query():
    eng = fe.FoLogNState(8)
    assert eng.k == 3
    changes = cx.random_changes(8, GRAPH_RELS, 120, random.Random(17))
    oracle = partial(oc.eval_query, oc.QueryId("parity_exists_deg_logn"))
    drive_checked(eng, 8, changes, oracle, audit_every=15)


def test_logn_single_element_domain():
    eng = fe.FoLogNState(1)
    assert eng.answer() is False
    eng.apply(Change("ins", "R", (0,)))
    eng.apply(Change("ins", "E", (0, 0)))
    assert eng.answer() is oc.eval_query(
        oc.QueryId("parity_exists_deg_logn"), eng.graph_structure())


def test_logn_p_relation_shape():
    for n in (8, 16):
        eng = fe.FoLogNState(n)
        for c in cx.random_changes(n, GRAPH_RELS, 40, random.Random(n)):
            eng.apply(c)
        rel = eng.p_relation()
        assert rel, n
        # v's bits pick a non-empty index set into w's in-neighbour list,
        # whose length is bounded by k
        for v, w in rel:
            assert 1 <= v < 2 ** eng.in_mask[w].bit_count() <= 2 ** eng.k, \
                (n, v, w)


def test_audit_reports_a_flipped_answer():
    eng = fe.FoDegKState(6, 2)
    for c in cx.random_changes(6, GRAPH_RELS, 30, random.Random(4)):
        eng.apply(c)
    assert oc.audit_fo_state(eng) == []
    eng.ans = not eng.ans
    assert [(d.relation, d.kind) for d in oc.audit_fo_state(eng)] == \
        [("Ans", "structure")]


def test_degk_p_set():
    eng = fe.FoDegKState(6, 2)
    eng.apply(Change("ins", "E", (1, 3)))
    eng.apply(Change("ins", "E", (2, 3)))
    # store pairs always carry a mask whose bits lie below k
    for w, imask in eng.store_pairs():
        assert 0 <= w < 6 and 0 <= imask < (1 << 2)


def test_init_refuses_masks_beyond_physical_memory(monkeypatch):
    from dyncomplab import structures
    need = 2 * 8 * 5                    # in_mask and out_mask, 8 bytes a slot
    monkeypatch.setattr(structures, "PHYSICAL_MEMORY", need - 1)
    for init in (lambda: fe.FoDegKState(5, 2), lambda: fe.FoLogNState(5)):
        with pytest.raises(DynLabError, match=rf"need {need} bytes"):
            init()
    monkeypatch.setattr(structures, "PHYSICAL_MEMORY", need)
    assert fe.FoDegKState(5, 2).answer() is False


def test_engine_rejects_bad_changes():
    eng = fe.FoDegKState(4, 1)
    with pytest.raises(DynLabError):
        eng.apply(Change("ins", "E", (0, 9)))
    with pytest.raises(DynLabError):
        eng.apply(Change("ins", "Q", (0,)))


@pytest.mark.parametrize("c,error", [
    (Change("ins", "E", (0, 4)), ElementRangeError),
    (Change("del", "R", (-1,)), ElementRangeError),
    (Change("ins", "E", (0,)), ArityMismatchError),
    (Change("ins", "R", (0, 1)), ArityMismatchError)])
def test_engine_change_outside_its_schema_or_domain_is_rejected(c, error):
    for eng in (fe.FoDegKState(4, 1), fe.FoLogNState(4)):
        with pytest.raises(error):
            eng.apply(c)
        with pytest.raises(error):
            eng.apply_reference(c)
        assert eng.edges() == set() and eng.coloured() == set()


def test_engines_never_call_the_oracle(monkeypatch):
    """The engines must answer from their own state only."""
    calls = {"n": 0}

    def bump(*args, **kwargs):
        calls["n"] += 1
        raise AssertionError("oracle consulted")

    for name in ("eval_query", "n_exists", "covered_set", "indegree",
                 "in_neighbours", "out_neighbours", "total_degree",
                 "in_neighbour_sets", "out_neighbour_sets", "total_degrees"):
        monkeypatch.setattr(oc, name, bump)
    drive_checked(fe.FoDegKState(6, 2), 6,
                  cx.random_changes(6, GRAPH_RELS, 40, random.Random(2)))
    drive_checked(fe.FoLogNState(4), 4,
                  cx.random_changes(4, GRAPH_RELS, 30, random.Random(3)))
    assert calls["n"] == 0


def _lockstep(n, k, length, seed):
    """An engine driven by `apply`, one by `apply_reference` and one by
    both at random, compared after every change of a seeded stream."""
    make = (lambda: fe.FoLogNState(n)) if k is None else \
        (lambda: fe.FoDegKState(n, k))
    fast, ref, mixed = make(), make(), make()
    rng = random.Random(f"lockstep:{n}:{k}:{seed}")
    changes = cx.random_changes(n, GRAPH_RELS, length, rng)
    for t, c in enumerate(changes):
        fast.apply(c)
        ref.apply_reference(c)
        (mixed.apply if rng.random() < 0.5 else mixed.apply_reference)(c)
        for eng in (ref, mixed):
            assert eng.answer() == fast.answer(), (t, c)
            assert eng.par == fast.par, (t, c)
            assert eng.store_pairs() == fast.store_pairs(), (t, c)
        for eng in (fast, ref):
            bad = oc.audit_fo_state(eng)
            assert not bad, (t, c, [str(b) for b in bad[:5]])
    return changes


@pytest.mark.parametrize("k", range(6))
def test_apply_matches_apply_reference_degk(k):
    loops = 0
    for seed in range(3):
        changes = _lockstep(6, k, 80, seed)
        loops += sum(c.relation == "E" and c.args[0] == c.args[1]
                     for c in changes)
    assert loops > 0


@pytest.mark.parametrize("n", range(1, 17))
def test_apply_matches_apply_reference_logn(n):
    _lockstep(n, None, 60, 0)


@pytest.mark.parametrize("make", [lambda: fe.FoDegKState(7, 2),
                                  lambda: fe.FoLogNState(7)],
                         ids=["fo-degk", "fo-logn"])
def test_graph_structure_follows_every_change(make):
    """The engine keeps its structure until the next effective change,
    made by `apply` or by `apply_reference`; a non-effective one keeps
    the same object."""
    eng = make()
    rng = random.Random(f"structure:{eng.k}")
    changes = cx.random_changes(7, GRAPH_RELS, 120, rng)
    for t, c in enumerate(changes + changes[-3:]):
        before = eng.graph_structure()
        skipped = (eng.apply if t % 3 else eng.apply_reference)(c)
        got = eng.graph_structure()
        assert got == coloured_graph(7, eng.edges(), eng.coloured()), (t, c)
        assert (got is before) == skipped, (t, c)
    assert skipped


def test_parity_table_keeps_only_odd_entries():
    eng = fe.FoDegKState(4, 2)
    for c in [Change("ins", "E", (0, 1)), Change("ins", "E", (0, 2)),
              Change("ins", "R", (0,))]:
        eng.apply(c)
    # nodes 1 and 2 both agree with {0}: the count is even, so no entry
    assert eng.par == {}
    assert eng.answer() is False
    eng.apply(Change("del", "E", (0, 2)))
    assert eng.par == {1 << 0: True}
    assert eng.answer() is True


@pytest.mark.parametrize("kind,k", [("fo-degk", k) for k in range(6)]
                         + [("fo-logn", None)])
def test_apply_toggles_at_most_2_pow_k_per_touched_node(kind, k):
    """One change toggles at most 2·2^k·(1 + outdeg(v)) table entries."""
    n = 16
    eng = fe.FoLogNState(n) if kind == "fo-logn" else fe.FoDegKState(n, k)
    toggles = {"n": 0}
    toggle = eng._toggle

    def counted(c_mask):
        toggles["n"] += 1
        toggle(c_mask)

    eng._toggle = counted
    changes = cx.random_changes(n, GRAPH_RELS, 400,
                                random.Random(f"work:{kind}:{k}"),
                                p_delete=0.3)
    most = 0
    for c in changes:
        v = c.args[0]
        bound = 2 * 2 ** eng.k * (1 + eng.out_mask[v].bit_count())
        toggles["n"] = 0
        eng.apply(c)
        assert toggles["n"] <= bound, (c, toggles["n"], bound)
        most = max(most, toggles["n"])
    assert not oc.audit_fo_state(eng)
    assert most > 0 or eng.k == 0
