"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line on the real stdout so the status is
visible even under pytest's capture.  The heavy differential checks use
seeds derived deterministically from the target name, so every run covers
the same ground.
"""

import contextlib
import itertools
import random
import sys
import types
from functools import partial

import numpy as np
import pytest

from dyncomplab import constructions as cx
from dyncomplab import fo_engines as fe
from dyncomplab import oracle as oc
from dyncomplab import programs as pg
from dyncomplab import symcircuit as sc
from dyncomplab.driver import ProgramRun
from dyncomplab.formulas import classify, evaluate, parse_formula, pretty
from dyncomplab.formulas import Exists, Forall, Not, Xor
from dyncomplab.interpreter import max_aux_arity
from dyncomplab.structures import apply_change
from helpers import GRAPH_RELS, drive_checked, rels_for
from test_formulas import full_assignment, random_formula, random_structure


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL - {desc}", file=sys.__stdout__)
        raise
    print(f"[criterion {num}] PASS - {desc}", file=sys.__stdout__)


# ---------------------------------------------------------------- programs

SEEDS = 500
_PROGS = {e.name: e.build() for e in pg.catalog()}
_ENTRIES = {e.name: e for e in pg.catalog()}


def _run_params(name, seed):
    rng = random.Random(f"{name}:{seed}")
    n_cap = 10 if name == "parity_exists_prop_4" else 12
    n = rng.randint(4, n_cap)
    length = rng.randint(8, 48)
    return rng, n, length


def _program_changes(name, seed):
    rng, n, length = _run_params(name, seed)
    return n, cx.random_changes(n, rels_for(_PROGS[name]), length, rng)


def _differential_run(name, seed, audit_every=0):
    n, changes = _program_changes(name, seed)
    drive_checked(ProgramRun(_PROGS[name], n), n, changes,
                  _ENTRIES[name].oracle, audit_every, check_every=4)


def test_criterion_1_program_differential():
    with criterion(1, f"program/oracle agreement over {SEEDS} seeded runs "
                      "per catalog program"):
        for name in _PROGS:
            for seed in range(SEEDS):
                _differential_run(name, seed)


def test_criterion_2_program_audits():
    with criterion(2, "full state audit on the 50 smallest runs per program"):
        for name in _PROGS:
            costs = sorted(range(SEEDS),
                           key=lambda s: (lambda p: p[1] * p[2])(
                               _run_params(name, s)))
            for seed in costs[:50]:
                _differential_run(name, seed, audit_every=1)


# ---------------------------------------------------------------- engines

_ENGINE_CONFIGS = [("fo-degk", k) for k in range(1, 6)] + [("fo-logn", None)]


def _engine_changes(kind, k, seed):
    rng = random.Random(f"{kind}:{k}:{seed}")
    if kind == "fo-degk":
        n = rng.randint(4, 12)
    else:
        n = 2 + seed % 15                    # spread over n in 2..16
    length = rng.randint(8, 48)
    return n, cx.random_changes(n, GRAPH_RELS, length, rng)


def _engine_run(kind, k, seed, audit_every=0):
    n, changes = _engine_changes(kind, k, seed)
    if kind == "fo-degk":
        eng = fe.FoDegKState(n, k)
        query = oc.QueryId("parity_exists_deg", k)
    else:
        eng = fe.FoLogNState(n)
        query = oc.QueryId("parity_exists_deg_logn")
    drive_checked(eng, n, changes, partial(oc.eval_query, query), audit_every,
                  check_every=4)
    assert not oc.audit_fo_state(eng)


def _assert_engines_local():
    counter = {"calls": 0}
    saved = {}

    def wrap(f):
        def counting(*args, **kwargs):
            counter["calls"] += 1
            return f(*args, **kwargs)
        return counting

    for name, fn in list(vars(oc).items()):
        if isinstance(fn, types.FunctionType):
            saved[name] = fn
            setattr(oc, name, wrap(fn))
    try:
        for kind, k in _ENGINE_CONFIGS:
            eng = (fe.FoDegKState(8, k) if kind == "fo-degk"
                   else fe.FoLogNState(8))
            drive_checked(eng, 8, cx.random_changes(8, GRAPH_RELS, 60,
                                                    random.Random(kind)))
    finally:
        for name, fn in saved.items():
            setattr(oc, name, fn)
    assert counter["calls"] == 0, "engine consulted the oracle"


def test_criterion_3_fo_engines():
    with criterion(3, f"engine/oracle agreement over {SEEDS} seeded runs "
                      "per configuration, state audits, zero oracle calls"):
        for kind, k in _ENGINE_CONFIGS:
            for seed in range(SEEDS):
                _engine_run(kind, k, seed)
            for seed in range(50):
                _engine_run(kind, k, seed, audit_every=1)
        _assert_engines_local()


# ---------------------------------------------------------------- figures

FIG4_EDGES = frozenset({
    (0, 4), (0, 9), (0, 10), (0, 16), (1, 5), (1, 11), (1, 12), (1, 17),
    (2, 9), (2, 11), (2, 16), (2, 17), (3, 10), (3, 12), (3, 16), (3, 17)})


def test_criterion_4_figures():
    with criterion(4, "worked examples reproduce their committed answers"):
        fig1 = cx.figure_fixture("fig1")
        assert fig1.extra["dashed_answer"] is True
        assert fig1.extra["dotted_answer"] is False
        for label in ("dashed", "dotted"):
            after = apply_change(fig1.graph, fig1.changes[label])
            assert oc.eval_query(fig1.extra["query"], after) is \
                fig1.extra[f"{label}_answer"]

        fig2 = cx.figure_fixture("fig2")
        lab = fig2.labels
        got = oc.n_exists_forall(fig2.graph, fig2.extra["a"],
                                 fig2.extra["b"], fig2.extra["k"])
        assert got == {lab["w2"], lab["w3"], lab["w4"]}
        assert fig2.extra["a"] == (lab["v3"], lab["v4"])
        assert fig2.extra["b"] == (lab["v5"],)

        fig3 = cx.figure_fixture("fig3")
        assert fig3.extra["dashed_answer"] is False
        assert fig3.extra["dotted_answer"] is True
        reduced, translate = cx.two_layered_reduction(fig3.extra["layered"])
        for label in ("dashed", "dotted"):
            cur = reduced
            for tc in translate(fig3.changes[label]):
                cur = apply_change(cur, tc)
            assert oc.eval_query(fig3.extra["query"], cur) is \
                fig3.extra[f"{label}_answer"]

        fig4 = cx.figure_fixture("fig4")
        assert fig4.graph.relations["E"][1] == FIG4_EDGES
        col, p_map = fig4.extra["collection"], fig4.extra["p_map"]
        for key, parity in (("odd_colouring", 1), ("even_colouring", 0)):
            coloured = [p_map[i] for i in fig4.extra[key]]
            reached = oc.n_exists(fig4.graph, coloured)
            assert len(reached) % 2 == parity, key


# ------------------------------------------------------------ lower bound

def _families(rng, n, k, want):
    candidates = [frozenset(c)
                  for c in itertools.combinations(range(1, n + 1), k + 1)]
    if 2 ** len(candidates) <= want:
        return [frozenset(fam) for r in range(len(candidates) + 1)
                for fam in itertools.combinations(candidates, r)]
    out = []
    for _ in range(want):
        out.append(frozenset(c for c in candidates if rng.random() < 0.5))
    return out


def test_criterion_5_lower_bound_construction():
    with criterion(5, "subset-family encoding property and its congruence "
                      "cross-check"):
        rng = random.Random("lower-bound")
        for n in range(2, 7):
            for k in range(0, 3):
                if k + 1 > n:
                    continue
                want = 10 ** 9 if n <= 4 else 200     # exhaustive small n
                for fam in _families(rng, n, k, want):
                    col = cx.make_collection(n, k, fam)
                    check = cx.verify_lower_bound_property(col)
                    assert check, (n, k, fam, check.counterexample)
        for _ in range(1000):
            n, k = rng.randint(3, 6), rng.randint(0, 2)
            if k + 1 > n:
                k = n - 1
            candidates = [frozenset(c) for c in
                          itertools.combinations(range(1, n + 1), k + 1)]
            fam = frozenset(c for c in candidates if rng.random() < 0.5)
            col = cx.make_collection(n, k, fam)
            b = rng.choice(candidates)
            assert cx.inclusion_exclusion_congruence(col, b)


# ------------------------------------------------------------ sym circuits

def _random_circuit(rng):
    m = rng.randint(2, 64)
    gates = []
    for _ in range(rng.randint(1, 200)):
        size = rng.randint(1, min(6, m))
        gates.append(frozenset(rng.sample(range(m), size)))
    h = [rng.random() < 0.5 for _ in range(len(gates) + 1)]
    return sc.make_circuit(m, 6, gates, h)


def _fast_activated(circuit, flat, offsets, assignment):
    """Vectorised recount of fully-on gates; agrees with sym_eval_direct."""
    hits = np.asarray(assignment, dtype=bool)[flat]
    return int(np.logical_and.reduceat(hits, offsets).sum())


def test_criterion_6_sym_circuits():
    with criterion(6, "500 random circuits x 1000 flips: incremental output "
                      "matches direct re-evaluation, counters stay sound"):
        rng = random.Random("sym")
        for trial in range(500):
            circ = _random_circuit(rng)
            flat = np.array([i for g in circ.gates for i in sorted(g)])
            offsets = np.cumsum([0] + [len(g) for g in circ.gates])[:-1]
            state = sc.sym_init(circ, [rng.random() < 0.5
                                       for _ in range(circ.m)])
            audit_small = len(circ.gates) <= 40
            for f in range(1000):
                x = rng.randrange(circ.m)
                sc.sym_flip(state, x)
                activated = _fast_activated(circ, flat, offsets,
                                            state.assignment)
                assert state.activated == activated, (trial, f, x)
                assert sc.sym_output(state) == circ.h[activated]
                if f % 53 == 0:
                    assert sc.sym_output(state) == \
                        sc.sym_eval_direct(circ, state.assignment)
                if audit_small and f % 250 == 0:
                    assert state.counters == sc.counters_reference(
                        circ, state.assignment)
            before = dict(state.counters)
            y = rng.randrange(circ.m)
            sc.sym_flip(state, y)
            sc.sym_flip(state, y)
            assert dict(state.counters) == before


# ------------------------------------------------------- structural claims

def test_criterion_7_structural_claims():
    with criterion(7, "update rules are quantifier-free and auxiliary "
                      "arities match their claims"):
        for entry in pg.catalog():
            prog = _PROGS[entry.name]
            assert prog.class_claim == entry.class_claim, entry.name
            if entry.class_claim == "DynProp":
                for rule in prog.rules.values():
                    assert classify(rule.body) == "quantifier-free", \
                        (entry.name, rule.target)
            assert max_aux_arity(prog) == entry.arity_claim, entry.name
        assert max_aux_arity(_PROGS["parity"]) == 0
        assert max_aux_arity(_PROGS["size_2"]) == 2
        for k in (3, 4):
            assert max_aux_arity(_PROGS[f"parity_exists_prop_{k}"]) == \
                max(3, k)

        # the bounded-degree engine keeps one unary node set per index mask
        eng = fe.FoDegKState(8, 3)
        for c in cx.random_changes(8, GRAPH_RELS, 60,
                                   random.Random("struct")):
            eng.apply(c)
        per_mask = {}
        for w, imask in eng.store_pairs():
            assert 0 <= imask < 2 ** 3 and 0 <= w < 8
            per_mask.setdefault(imask, set()).add(w)
        assert all(isinstance(v, set) for v in per_mask.values())

        # the log-degree engine stores exactly one binary relation, whose
        # first component encodes an index set into the second's in-list
        logn = fe.FoLogNState(16)
        for c in cx.random_changes(16, GRAPH_RELS, 60,
                                   random.Random("struct")):
            logn.apply(c)
        rel = logn.p_relation()
        assert rel and all(len(t) == 2 for t in rel)
        for v, w in rel:
            assert 0 <= w < 16
            assert 1 <= v < 2 ** logn.in_mask[w].bit_count() <= 2 ** logn.k


# ------------------------------------------------------------ logic kernel

def test_criterion_8_logic_kernel():
    with criterion(8, "formula round-trip and semantic laws over 10^4 "
                      "random (formula, structure, assignment) triples"):
        rng = random.Random("logic")
        for trial in range(10_000):
            f = random_formula(rng)
            n = rng.randint(2, 4)
            s = random_structure(rng, n)
            a = full_assignment(rng, n)
            val = evaluate(f, s, a)
            assert evaluate(parse_formula(pretty(f)), s, a) == val, trial
            assert evaluate(Not(Not(f)), s, a) == val
            g = random_formula(rng, depth=2)
            gv = evaluate(g, s, a)
            assert evaluate(Xor(f, g), s, a) == (val ^ gv)
            v = rng.choice("xyz")
            assert evaluate(Exists(v, f), s, a) == \
                (not evaluate(Forall(v, Not(f)), s, a))
