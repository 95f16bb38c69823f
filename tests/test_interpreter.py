import random
import tracemalloc

import numpy as np
import pytest

from dyncomplab import constructions as cx
from dyncomplab import programs as pg
from dyncomplab.driver import ProgramRun, drive
from dyncomplab.bulk_eval import relation_to_array
from dyncomplab.formulas import (atom, conj, disj, materialise_builtins, neg,
                                 parse_formula)
from dyncomplab.interpreter import (NonEffectiveChangeError, ProgramError,
                                    UpdateRule, format_program, init_state,
                                    make_program, max_aux_arity,
                                    parse_program, step, step_reference)
from dyncomplab.structures import (Change, CHECKPOINT, ChangeScript,
                                   ScriptSyntaxError, check_fits)
from helpers import rels_for


def _swap_program():
    """Two nullary flags that swap on every insertion — only correct under
    simultaneous (pre-state) rule semantics."""
    rules = [UpdateRule("ins", "U", "A", ("u",), (), atom("B")),
             UpdateRule("ins", "U", "B", ("u",), (), atom("A")),
             UpdateRule("del", "U", "A", ("u",), (), atom("A")),
             UpdateRule("del", "U", "B", ("u",), (), atom("B"))]
    return make_program("swap", {"U": 1}, {"A": 0, "B": 0}, rules,
                        {"A": {()}}, "A")


def test_simultaneous_semantics():
    p = _swap_program()
    st = init_state(p, 3)
    assert st.answer() is True
    st = step(st, Change("ins", "U", (0,)))
    assert st.answer() is False and bool(st.aux_arrays["B"]) is True
    st = step(st, Change("ins", "U", (1,)))
    assert st.answer() is True and bool(st.aux_arrays["B"]) is False


def test_make_program_rejects_missing_rules():
    rules = [UpdateRule("ins", "U", "A", ("u",), (), atom("A"))]
    with pytest.raises(ProgramError):
        make_program("partial", {"U": 1}, {"A": 0}, rules, {}, "A")


def test_make_program_rejects_unbound_variables():
    rules = [UpdateRule("ins", "U", "A", ("u",), (), atom("U", "w")),
             UpdateRule("del", "U", "A", ("u",), (), atom("A"))]
    with pytest.raises(ProgramError):
        make_program("unbound", {"U": 1}, {"A": 0}, rules, {}, "A")


def test_make_program_rejects_unknown_answer():
    rules = [UpdateRule("ins", "U", "A", ("u",), (), atom("A")),
             UpdateRule("del", "U", "A", ("u",), (), atom("A"))]
    with pytest.raises(ProgramError):
        make_program("noanswer", {"U": 1}, {"A": 0}, rules, {}, "Zz")


def test_strict_mode_raises_on_non_effective():
    p = pg.size_k_program(1)
    st = init_state(p, 3)
    with pytest.raises(NonEffectiveChangeError):
        step(st, Change("del", "U", (0,)), mode="strict")
    same = step(st, Change("del", "U", (0,)), mode="skip")
    assert same is st


def test_run_collects_checkpoint_answers():
    p = pg.parity_program()
    script = ChangeScript(4, {"U": 1}, (
        Change("ins", "U", (0,)), CHECKPOINT,
        Change("ins", "U", (1,)), CHECKPOINT,
        Change("del", "U", (0,)), CHECKPOINT))
    report = drive(ProgramRun(p, 4), script)
    assert [r.program_answer for r in report.records] == [True, False, True]


def test_run_is_deterministic():
    p = pg.parity_degree_div3_program()
    changes = cx.random_changes(5, rels_for(p), 60, random.Random(3))
    script = ChangeScript(5, dict(p.input_schema), tuple(changes) + (CHECKPOINT,))
    first, second = (drive(ProgramRun(p, 5), script) for _ in range(2))
    assert [r.program_answer for r in first.records] == \
        [r.program_answer for r in second.records]


# reads both built-in relations, so a step's built-in arrays must agree
# with the tuples step_reference merges into its snapshot
_BUILTIN_READER = ("input U/1\nbuiltin order\nbuiltin bit\naux A/1\nanswer A\n"
                   "on ins U(u) update A(x) := A(x) ^ leq(x, u) & !bit(u, x)\n"
                   "on del U(u) update A(x) := A(x) & !(leq(u, x) | bit(x, u))\n")


_REFERENCE_CASES = pytest.mark.parametrize("builder,n", [
    (lambda: pg.size_k_program(2), 5),
    (pg.parity_degree_div3_program, 4),
    (lambda: pg.degree_k_relation_program(1), 4),
    (lambda: pg.parity_exists_deg_k_prop_program(3), 4),
    # the rest of the catalog
    *(pytest.param(pg.catalog_entry(name).build, n, id=name) for name, n in (
        ("parity", 4), ("size_1", 4), ("size_3", 4), ("size_4", 4),
        ("degree_rel_2", 4), ("degree_rel_3", 4),
        ("parity_exists_prop_4", 3))),
    pytest.param(lambda: parse_program(_BUILTIN_READER), 5, id="builtins"),
])


@_REFERENCE_CASES
def test_step_matches_reference(builder, n):
    prog = builder()
    rng = random.Random(9)
    fast = init_state(prog, n)
    slow = init_state(prog, n)
    for c in cx.random_changes(n, rels_for(prog), 30, rng):
        fast = step(fast, c)
        slow = step_reference(slow, c)
        for name in prog.aux_schema:
            assert np.array_equal(fast.aux_arrays[name],
                                  slow.aux_arrays[name]), (c, name)


def test_max_aux_arity():
    assert max_aux_arity(pg.parity_program()) == 0
    assert max_aux_arity(pg.size_k_program(3)) == 2
    assert max_aux_arity(pg.degree_k_relation_program(2)) == 3
    assert max_aux_arity(pg.parity_exists_deg_k_prop_program(4)) == 4


def test_program_file_round_trip():
    for entry in pg.catalog():
        built = entry.build()
        parsed = parse_program(format_program(built), name=built.name)
        assert parsed.rules == built.rules
        assert parsed.aux_schema == built.aux_schema
        assert parsed.init_aux == built.init_aux
        assert parsed.answer == built.answer
        assert parsed.requires_effective == built.requires_effective


def test_parse_program_diagnostics():
    text = "input U/1\naux A/0\nanswer A\n" \
           "on ins U(u) update A() := U(u)\n"
    with pytest.raises(ProgramError):           # no del rule
        parse_program(text)


def test_a_quantified_rule_makes_the_program_dynfo():
    assert _swap_program().class_claim == "DynProp"
    rules = [UpdateRule("ins", "U", "A", ("u",), (),
                        parse_formula("exists x. U(x)")),
             UpdateRule("del", "U", "A", ("u",), (), atom("A"))]
    assert make_program("fo", {"U": 1}, {"A": 0}, rules, {}, "A") \
        .class_claim == "DynFO"


@pytest.mark.parametrize("stepper", [step, step_reference])
def test_a_requires_effective_step_checks_its_change_once(stepper,
                                                          monkeypatch):
    from dyncomplab import structures
    prog = pg.catalog_entry("degree_rel_2").build()
    assert prog.requires_effective
    checked = []
    check = structures.check_tuple

    def counted(name, *args):
        checked.append(name)
        check(name, *args)

    monkeypatch.setattr(structures, "check_tuple", counted)
    st = init_state(prog, 4)
    for c, skipped in ((Change("ins", "E", (0, 1)), False),
                       (Change("ins", "E", (0, 1)), True),
                       (Change("del", "E", (0, 1)), False)):
        checked.clear()
        before = st
        st = stepper(st, c)
        assert checked.count("E") == 1, (c, checked)
        assert (st is before) == skipped, c


def test_every_state_array_is_read_only():
    """States share the arrays a step leaves unchanged, so every
    auxiliary, built-in and input array of a state is read-only."""
    for prog in (pg.parity_exists_deg_k_prop_program(3),
                 parse_program(_BUILTIN_READER)):
        n = 4
        states = [init_state(prog, n)]
        for c in cx.random_changes(n, rels_for(prog), 12, random.Random(5)):
            states.append(step(states[-1], c))
        for st in states:
            for a in [*st.aux_arrays.values(), *st.builtin_arrays.values(),
                      *st.input_arrays.values()]:
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[(0,) * a.ndim] = True


def test_a_step_writes_one_cell_of_the_input_arrays():
    """A state keeps its input relations as arrays: the empty shared
    constant at `init_state`; after a step, equal to the input's tuples,
    with every array but the changed relation's shared with the state
    before (all of them on a non-effective change).  A state that
    `step_reference` made builds them from its input."""
    from dyncomplab import bulk_eval as be
    for prog, n in ((pg.parity_exists_deg_k_prop_program(3), 5),
                    (pg.parity_program(), 4)):
        st = init_state(prog, n)
        for name, arity in prog.input_schema.items():
            assert st.input_arrays[name] is be._full((n,) * arity, False)
        rng = random.Random(f"inputs:{prog.name}")
        changes = cx.random_changes(n, rels_for(prog), 30, rng)
        if not prog.requires_effective:
            changes += [changes[-1]] * 2    # both non-effective
        for t, c in enumerate(changes):
            if t == 15:
                st = step_reference(st, c)
                for name, (arity, tuples) in st.input.relations.items():
                    assert np.array_equal(st.input_arrays[name],
                                          relation_to_array(tuples, arity, n))
                continue
            new = step(st, c)
            before, after = st.input_arrays, new.input_arrays
            for name, (arity, tuples) in new.input.relations.items():
                assert np.array_equal(after[name],
                                      relation_to_array(tuples, arity, n))
                assert not after[name].flags.writeable
                changed = name == c.relation and new.input is not st.input
                assert (after[name] is before[name]) != changed, (c, name)
            st = new


def _share_every_base(monkeypatch):
    """Keep every array of ndim >= 2 as slices, whatever its size (the
    catalog's n here is below _SHARE_MIN), so that every split on a whole
    atom of one starts from the relation's SliceArray itself."""
    from dyncomplab import bulk_eval as be
    monkeypatch.setattr(be, "_SHARE_MIN", 0)


def _count_copies(monkeypatch) -> dict:
    """Count, per rule body, the most full-shape copies one call of its
    kernel made: a `_copy` that returned a new array (from a chain's
    write, or from `stored` when it had to copy), a SliceArray's dense
    copy counted once, where `SliceArray.copy` makes it."""
    from dyncomplab import bulk_eval as be
    from dyncomplab import interpreter as ip

    copies = {"n": 0}
    copy, densify, evaluate = be._copy, be.SliceArray.copy, ip.bulk_eval

    def counted_copy(a, shape):
        out = copy(a, shape)
        copies["n"] += out is not a and a.__class__ is not be.SliceArray
        return out

    def counted_densify(a):
        copies["n"] += 1
        return densify(a)

    seen = {}

    def per_rule(f, rels, n, params, frees):
        copies["n"] = 0
        out = evaluate(f, rels, n, params, frees)
        seen[id(f)] = max(seen.get(id(f), 0), copies["n"])
        return out

    monkeypatch.setitem(be._NAMESPACE, "_copy", counted_copy)
    monkeypatch.setattr(be, "_copy", counted_copy)
    monkeypatch.setattr(be.SliceArray, "copy", counted_densify)
    monkeypatch.setattr(ip, "bulk_eval", per_rule)
    return seen


@pytest.mark.parametrize("name", [e.name for e in pg.catalog()])
def test_step_copies_each_aux_relation_at_most_once(name, monkeypatch):
    """A rule's kernel makes at most one full-shape copy for every
    (op, input relation), however many slices the change writes."""
    seen = _count_copies(monkeypatch)
    prog = pg.catalog_entry(name).build()
    n = 8
    st = init_state(prog, n)
    played = set()
    for c in cx.random_changes(n, rels_for(prog), 40,
                               random.Random(f"copies:{name}")):
        st = step(st, c)
        played.add((c.op, c.relation))
    assert played == {(op, r) for op in ("ins", "del") for r in prog.input_schema}
    for key, rule in prog.rules.items():
        assert seen[id(rule.body)] <= 1, (key, seen[id(rule.body)])


@pytest.mark.parametrize("name", [e.name for e in pg.catalog()])
def test_a_shared_step_copies_each_aux_relation_at_most_once(name,
                                                             monkeypatch):
    _share_every_base(monkeypatch)
    test_step_copies_each_aux_relation_at_most_once(name, monkeypatch)


@_REFERENCE_CASES
def test_a_shared_step_matches_reference(builder, n, monkeypatch):
    _share_every_base(monkeypatch)
    test_step_matches_reference(builder, n)


@pytest.mark.parametrize("name", ["degree_rel_1", "degree_rel_3",
                                  "parity_exists_prop_3"])
def test_a_step_hands_on_what_it_leaves_unchanged(name, monkeypatch):
    """An identity rule, and every rule of degree_rel_k whose target is a
    SliceArray (each splits on a whole atom of its target), return the
    pre-step array itself, with no copy, when the step leaves the
    relation as it was."""
    from dyncomplab.bulk_eval import SliceArray
    _share_every_base(monkeypatch)
    seen = _count_copies(monkeypatch)
    prog = pg.catalog_entry(name).build()
    n = 6
    st = init_state(prog, n)
    handed_on = 0
    for c in cx.random_changes(n, rels_for(prog), 40,
                               random.Random(f"shared:{name}")):
        seen.clear()
        new = step(st, c)
        if new is st:
            continue
        for target, new_array in new.aux_arrays.items():
            rule = prog.rules[(c.op, c.relation, target)]
            identity = rule.body == atom(target, *rule.frees)
            old = st.aux_arrays[target]
            if identity or name.startswith("degree_rel") and \
                    old.__class__ is SliceArray and \
                    np.array_equal(new_array, old):
                assert new_array is old, (c, target)
                assert seen[id(rule.body)] == 0, (c, target)
                handed_on += 1
        st = new
    assert handed_on


def _chain_targets(prog) -> set:
    """The keys of the rules lowered to a chain: kernels that return
    the target's own array when the cells they bind are unchanged."""
    import re
    from dyncomplab.bulk_eval import _Lowering
    chain = re.compile(r"^    if t\d+ is (r\d+):\n        return \1$", re.M)
    return {key for key, rule in prog.rules.items() if chain.search(
        _Lowering(rule.body, rule.params, rule.frees).source())}


@pytest.mark.parametrize("entry", pg.catalog(), ids=lambda e: e.name)
def test_a_chain_hands_on_or_copies_once(entry, monkeypatch):
    """After seeded streams at n = 4..10 (and degree_rel_3 at n = 128,
    where its lists are SliceArrays), every chain target that a step
    leaves unchanged is the pre-step array itself, made with no copy; a
    changed one copied one slice of a SliceArray, sharing every other,
    or made one dense copy."""
    from dyncomplab.bulk_eval import SliceArray
    seen = _count_copies(monkeypatch)
    prog = entry.build()
    chains = _chain_targets(prog)
    assert chains or entry.name == "parity"
    sizes = [(n, 30) for n in range(4, 11)]
    if entry.name == "degree_rel_3":
        sizes.append((128, 60))
    kept = changed = 0
    for n, length in sizes:
        st = init_state(prog, n)
        for c in cx.random_changes(n, rels_for(prog), length,
                                   random.Random(f"chain:{entry.name}:{n}")):
            seen.clear()
            new = step(st, c)
            for op, rel, target in chains:
                if (op, rel) != (c.op, c.relation):
                    continue
                body = prog.rules[(op, rel, target)].body
                old, got = st.aux_arrays[target], new.aux_arrays[target]
                if np.array_equal(got, old):
                    assert got is old, (c, target)
                    assert seen[id(body)] == 0, (c, target)
                    kept += 1
                    continue
                changed += 1
                if got.__class__ is SliceArray:
                    assert seen[id(body)] == 0, (c, target)
                    assert sum(a is not b for a, b in
                               zip(got.parts, old.parts)) == 1, (c, target)
                else:
                    assert seen[id(body)] == 1, (c, target)
            st = new
    assert not chains or kept and changed


@pytest.mark.parametrize("entry", pg.catalog(), ids=lambda e: e.name)
def test_a_state_keeps_its_arrays_through_later_steps(entry, monkeypatch):
    """Later steps share arrays with an earlier state but never change
    them: every array of the earlier state still equals its snapshot."""
    _share_every_base(monkeypatch)
    prog = entry.build()
    n = 5
    rng = random.Random(f"persist:{entry.name}")
    st = init_state(prog, n)
    for c in cx.random_changes(n, rels_for(prog), 12, rng):
        st = step(st, c)
    earlier = st
    snapshot = {name: a.copy() for name, a in earlier.aux_arrays.items()}
    for c in cx.random_changes(n, rels_for(prog), 12, rng):
        st = step(st, c)
    for name, a in earlier.aux_arrays.items():
        assert np.array_equal(a, snapshot[name]), name


def test_validate_rejects_input_aux_name_clash():
    text = ("input U/1\naux U/1\naux A/0\nanswer A\n"
            "on ins U(u) update A() := A()\non del U(u) update A() := A()\n"
            "on ins U(u) update U(x) := U(x)\non del U(u) update U(x) := U(x)\n")
    with pytest.raises(ProgramError, match="both input and aux"):
        parse_program(text)
    rules = [UpdateRule(op, "U", target, ("u",), frees, atom(target, *frees))
             for op in ("ins", "del") for target, frees in (("A", ()), ("U", ("x",)))]
    with pytest.raises(ProgramError, match="both input and aux"):
        make_program("clash", {"U": 1}, {"U": 1, "A": 0}, rules, {}, "A")


def test_relation_name_containing_update_round_trips():
    text = ("input Lastupdate/1\naux Seen/0\naux updateCount/1\nanswer Seen\n"
            "on ins Lastupdate(u) update Seen() := Seen() | !Lastupdate(u)\n"
            "on del Lastupdate(u) update Seen() := Seen()\n"
            "on ins Lastupdate(u) update updateCount(x) := updateCount(x) | x = u\n"
            "on del Lastupdate(u) update updateCount(x) := updateCount(x)\n")
    prog = parse_program(text, name="lastupdate")
    again = parse_program(format_program(prog), name="lastupdate")
    assert again.rules == prog.rules
    st = init_state(again, 3)
    assert st.answer() is False
    st = step(st, Change("ins", "Lastupdate", (2,)))
    assert st.answer() is True
    assert np.array_equal(st.aux_arrays["updateCount"], [False, False, True])


def test_init_state_refuses_arrays_beyond_physical_memory(monkeypatch):
    from dyncomplab import interpreter as ip
    from dyncomplab.structures import DynLabError

    def no_allocation(*args):
        raise AssertionError("allocated before the size check")

    program = pg.catalog_entry("parity_exists_prop_4").build()
    monkeypatch.setattr(ip, "relation_to_array", no_allocation)
    monkeypatch.setattr(ip.fm, "materialise_builtins", no_allocation)
    with pytest.raises(DynLabError, match=r"n=100000 .*largest part is \w+ "
                                          r"at 100(,000){6} bytes"):
        init_state(program, 10**5)


_BOTH_BUILTINS = ("input U/1\nbuiltin order\nbuiltin bit\naux A/0\nanswer A\n"
                  "on ins U(u) update A() := A()\n"
                  "on del U(u) update A() := A()\n")


@pytest.mark.parametrize("n", [0, 1, 2, 5, 70])
def test_builtin_arrays_match_their_tuple_reference(n):
    state = init_state(parse_program(_BOTH_BUILTINS), n)
    reference = materialise_builtins(n, ["order", "bit"])
    assert state.builtin_arrays.keys() == reference.relations.keys()
    for name, (arity, tuples) in reference.relations.items():
        want = relation_to_array(tuples, arity, n)
        got = state.builtin_arrays[name]
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_init_state_peaks_within_twice_the_bytes_it_checks(monkeypatch):
    from dyncomplab import interpreter as ip
    checked = []

    def recording_check_fits(what, sizes):
        checked.append(sum(sizes.values()))
        check_fits(what, sizes)

    monkeypatch.setattr(ip, "check_fits", recording_check_fits)
    program = parse_program(_BOTH_BUILTINS)
    tracemalloc.start()
    try:
        init_state(program, 600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checked == [1 + 2 * 600 ** 2]
    assert peak < 2 * checked[0], (peak, checked)


@pytest.mark.parametrize("line", ["builtin order", "builtin clock",
                                  "input U/1 extra", "answer A extra",
                                  "requires_effective\nrequires_effective",
                                  "init A x", "init"])
def test_parse_program_rejects_a_repeated_or_malformed_line(line):
    with pytest.raises(ScriptSyntaxError, match=r"line \d+: "):
        parse_program(_BOTH_BUILTINS + line + "\n")


@pytest.mark.parametrize("name", ["degree_rel_3", "parity_degree_div3"])
def test_a_large_state_shares_every_slice_a_change_leaves(name):
    """At the benchmark's n, with the threshold as it is: the n^3 list
    relations are slice arrays, a step gives only the changed edge's
    owners new slices, answers and the audit hold, and earlier states
    keep their values."""
    from dyncomplab.bulk_eval import SliceArray
    entry = pg.catalog_entry(name)
    prog = entry.build()
    n = 128
    st = init_state(prog, n)
    lists = [k for k, a in prog.aux_schema.items() if a == 3]
    assert lists and all(isinstance(st.aux_arrays[k], SliceArray) for k in lists)
    changes = cx.random_changes(n, (("E", 2),), 256, random.Random(f"large:{name}"))
    for t, c in enumerate(changes, start=1):
        new = step(st, c)
        for k in lists:
            old_parts, new_parts = st.aux_arrays[k].parts, new.aux_arrays[k].parts
            assert all(new_parts[i] is old_parts[i]
                       for i in range(n) if i not in c.args), (c, k)
        st = new
        if t % 16 == 0:
            assert st.answer() == entry.oracle(st.input), t
        if t == 128:
            earlier = st
            snapshot = {k: a.copy() for k, a in st.aux_arrays.items()}
        if t == 160:
            for k, a in earlier.aux_arrays.items():
                assert np.array_equal(a, snapshot[k]), k
    assert pg.audit_program_state(st) == []
