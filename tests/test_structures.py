import pytest
from hypothesis import given, settings, strategies as st

from dyncomplab.structures import (ArityMismatchError, Change, CHECKPOINT,
                                   ChangeScript, DynLabError,
                                   ScriptSyntaxError, Structure, apply_change,
                                   coloured_graph, declare, directives,
                                   format_script, format_structure,
                                   graph_coloured, graph_edges, is_effective,
                                   parse_script, parse_structure,
                                   validate_change)


def test_make_and_accessors():
    s = Structure.make(4, {"E": 2, "R": 1}, {"E": [(0, 1)], "R": [(2,)]})
    assert s.n == 4
    assert s.arity("E") == 2
    assert s.has("E", (0, 1)) and not s.has("E", (1, 0))
    assert s.tuples("R") == frozenset({(2,)})


def test_coloured_graph_helpers():
    g = coloured_graph(5, [(0, 1), (1, 2)], [3])
    assert graph_edges(g) == frozenset({(0, 1), (1, 2)})
    assert graph_coloured(g) == frozenset({3})


def test_apply_change_inserts_and_deletes():
    g = coloured_graph(3)
    g = apply_change(g, Change("ins", "E", (0, 1)))
    assert g.has("E", (0, 1))
    g = apply_change(g, Change("del", "E", (0, 1)))
    assert not g.has("E", (0, 1))


def test_non_effective_changes_are_identity():
    g = coloured_graph(3, [(0, 1)], [])
    same = apply_change(g, Change("ins", "E", (0, 1)))
    assert same == g
    same = apply_change(g, Change("del", "E", (2, 2)))
    assert same == g


def test_is_effective():
    g = coloured_graph(3, [(0, 1)], [])
    assert is_effective(g, Change("del", "E", (0, 1)))
    assert not is_effective(g, Change("ins", "E", (0, 1)))
    assert is_effective(g, Change("ins", "R", (0,)))
    assert not is_effective(g, Change("del", "R", (0,)))


def test_validate_change_errors():
    g = coloured_graph(3)
    with pytest.raises(DynLabError):
        validate_change(g, Change("ins", "Q", (0,)))
    with pytest.raises(DynLabError):
        validate_change(g, Change("ins", "E", (0,)))
    with pytest.raises(DynLabError):
        validate_change(g, Change("ins", "E", (0, 7)))


def test_script_round_trip():
    script = ChangeScript(4, {"E": 2}, (Change("ins", "E", (1, 2)),
                                        CHECKPOINT,
                                        Change("del", "E", (1, 2))))
    again = parse_script(format_script(script))
    assert again == script
    assert again.num_checkpoints() == 1
    assert len(again.changes()) == 2


def test_script_arity_inference_and_errors():
    script = parse_script("domain 3\nins R 1\nquery\n")
    assert script.declared["R"] == 1
    with pytest.raises(DynLabError) as exc:
        parse_script("domain 3\nins E 5 0\n")
    assert "line 2" in str(exc.value)
    with pytest.raises(ScriptSyntaxError):
        parse_script("ins E 0 1\n")          # missing domain
    with pytest.raises(DynLabError):
        parse_script("domain 3\nins E 0\nins E 0 1\n")   # arity conflict


def test_structure_file_round_trip():
    s = Structure.make(5, {"E": 2, "R": 1, "Ans": 0},
                       {"E": [(0, 1), (3, 4)], "Ans": [()]})
    assert parse_structure(format_structure(s)) == s


@given(st.integers(1, 6), st.lists(
    st.tuples(st.sampled_from(["ins", "del"]),
              st.integers(0, 5), st.integers(0, 5)), max_size=30))
@settings(max_examples=60, deadline=None)
def test_apply_matches_set_semantics(n, ops):
    g = coloured_graph(n)
    model = set()
    for op, a, b in ops:
        a, b = a % n, b % n
        c = Change(op, "E", (a, b))
        g = apply_change(g, c)
        if op == "ins":
            model.add((a, b))
        else:
            model.discard((a, b))
        assert graph_edges(g) == frozenset(model)


def test_directives_cut_comments_and_blank_lines():
    text = "# header\n\ndomain 3   # size\n  ins E 0   1\n#\nquery\n"
    assert list(directives(text)) == [(3, "domain", ["3"]),
                                      (4, "ins", ["E", "0", "1"]),
                                      (6, "query", [])]


def test_declare_keeps_one_arity_per_name():
    declared: dict[str, int] = {}
    declare(["E/2"], 1, declared, "rel")
    declare(["E/2"], 2, declared, "rel")
    assert declared == {"E": 2}
    with pytest.raises(ArityMismatchError, match="line 3: "):
        declare(["E/1"], 3, declared, "rel")
    for bad in ([], ["E"], ["E/x"], ["/2"], ["E/2", "extra"]):
        with pytest.raises(ScriptSyntaxError, match="line 4: expected: aux "):
            declare(bad, 4, declared, "aux")
    assert declared == {"E": 2}


@pytest.mark.parametrize("text,line", [
    ("domain 3\nrel E/2\nset E 0 1 2\n", 3),
    ("domain 3\nset E 0 5\n", 2),
    ("domain 3\nset R 1\nset R x\n", 3),
    ("domain 3\nset E 0 1\nquery\n", 3),
    ("domain 3\nset E 0 1\nins E 1 2\n", 3),
])
def test_structure_errors_name_their_line(text, line):
    with pytest.raises(DynLabError, match=f"line {line}: "):
        parse_structure(text)
