import dataclasses
import json
import re
import time
from pathlib import Path

import pytest

from dyncomplab import constructions as cx
from dyncomplab import fo_engines as fe
from dyncomplab import interpreter as ip
from dyncomplab.cli import main
from dyncomplab.interpreter import format_program
from dyncomplab.structures import format_script, parse_script, parse_structure
from dyncomplab import programs as pg
from dyncomplab import symcircuit as sc

PROGDIR = Path(__file__).resolve().parent.parent / "programs"


def _script_file(tmp_path, profile, name="demo.chg", seed=8):
    script = cx.random_script(6, profile=profile, seed=seed)
    path = tmp_path / name
    path.write_text(format_script(script))
    return path


@pytest.fixture()
def graph_script(tmp_path):
    return _script_file(tmp_path, "graph")


def test_run_program_with_oracle(tmp_path, capsys):
    script = _script_file(tmp_path, "edges")
    rc = main(["run", "--program", str(PROGDIR / "parity_degree_div3.dyp"),
               "--script", str(script),
               "--oracle", "parity-degree-div3", "--audit"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "mismatch" not in out.lower() or "0 mismatch" in out.lower()


def test_run_engine_json_report(graph_script, capsys):
    rc = main(["run", "--engine", "fo-degk", "--k", "2",
               "--script", str(graph_script),
               "--oracle", "parity-exists-deg", "--audit", "--json"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(line) for line in lines if line.startswith("{")]
    assert records and all(r["match"] for r in records)
    assert {"checkpoint", "change_index", "program", "oracle",
            "match", "elapsed"} <= set(records[0])


def test_run_detects_corrupted_program(tmp_path, capsys):
    script = _script_file(tmp_path, "set")
    text = format_program(pg.parity_program())
    # break the insertion rule so the flag never toggles on
    broken = text.replace("!U(a) & !P() | U(a) & P()",
                          "U(a) & P() | !U(a) & P()")
    assert broken != text
    bad = tmp_path / "broken.dyp"
    bad.write_text(broken)
    rc = main(["run", "--program", str(bad), "--script", str(script),
               "--oracle", "parity"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "mismatch" in out.lower()


def test_oracle_subcommand(tmp_path, capsys):
    from dyncomplab.structures import coloured_graph, format_structure
    g = coloured_graph(4, [(0, 1), (2, 1)], [0])
    path = tmp_path / "g.str"
    path.write_text(format_structure(g))
    rc = main(["oracle", "--query", "parity-exists-deg", "--k", "2",
               "--structure", str(path)])
    assert rc == 0
    assert capsys.readouterr().out.strip().lower() in {"true", "false"}


def test_construct_lower_bound(tmp_path, capsys):
    out_file = tmp_path / "lb.str"
    rc = main(["construct", "lower-bound", "--collection", "1,3,4;2,3,4",
               "--n", "4", "--k", "2", "-o", str(out_file)])
    assert rc == 0
    assert "domain" in out_file.read_text()


def test_construct_script_deterministic(tmp_path):
    a, b = tmp_path / "a.chg", tmp_path / "b.chg"
    for path in (a, b):
        assert main(["construct", "script", "--n", "5",
                     "--profile", "edges", "--seed", "7",
                     "-o", str(path)]) == 0
    assert a.read_text() == b.read_text()


def test_verify_constructions(capsys):
    rc = main(["verify-constructions", "--n-max", "4", "--k-max", "1",
               "--samples", "20"])
    assert rc == 0
    assert "0 violations" in capsys.readouterr().out


def test_sym_check(tmp_path, capsys):
    circ = sc.make_circuit(3, 3, [frozenset({0, 1}), frozenset({2})],
                           [True, False, True])
    path = tmp_path / "c.sym"
    path.write_text(sc.format_circuit(circ))
    rc = main(["sym", "--circuit", str(path), "--flips", "0 1 0 2",
               "--check"])
    assert rc == 0
    assert capsys.readouterr().out.strip()


def test_validate_and_fmt(tmp_path, capsys):
    good = PROGDIR / "parity.dyp"
    assert main(["validate", "--program", str(good)]) == 0
    capsys.readouterr()
    assert main(["fmt", "--program", str(good)]) == 0
    assert capsys.readouterr().out.strip()
    bad = tmp_path / "bad.dyp"
    bad.write_text("input U/1\naux A/0\nanswer A\n")
    assert main(["validate", "--program", str(bad)]) != 0


def test_fuzz_program_and_alias(capsys):
    assert main(["fuzz", "--target", "parity", "--seeds", "3",
                 "--length", "12", "--n", "4"]) == 0
    # an edge-only program must get an edge-only script profile
    assert main(["fuzz", "--target", "parity_degree_div3", "--seeds", "2",
                 "--length", "12", "--n", "4"]) == 0
    assert main(["fuzz", "--target", "prop33", "--k", "3", "--seeds", "1",
                 "--length", "8", "--n", "4"]) == 0
    assert main(["fuzz", "--target", "sym", "--seeds", "2",
                 "--length", "10"]) == 0


def test_seed_env_override(tmp_path, monkeypatch):
    a, b = tmp_path / "a.chg", tmp_path / "b.chg"
    monkeypatch.setenv("DYNCOMPLAB_SEED", "99")
    assert main(["construct", "script", "--n", "5", "-o", str(a)]) == 0
    monkeypatch.setenv("DYNCOMPLAB_SEED", "100")
    assert main(["construct", "script", "--n", "5", "-o", str(b)]) == 0
    assert a.read_text() != b.read_text()


def test_unreadable_script_is_reported(tmp_path, capsys):
    bad = tmp_path / "bad.chg"
    bad.write_text("domain 3\nrel E/2\nins E 7 0\n")
    rc = main(["run", "--program", str(PROGDIR / "parity.dyp"),
               "--script", str(bad)])
    assert rc == 2


SLOW_SCRIPT = """domain 4
rel E/2
rel R/1
ins E 0 1
ins R 0
query
ins E 1 2
query
query
"""


def _elapsed_per_checkpoint(capsys, argv):
    assert main(argv + ["--json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return [json.loads(line) for line in lines if line.startswith("{")]


@pytest.mark.parametrize("target", ["program", "engine"])
def test_elapsed_times_the_whole_segment(tmp_path, capsys, monkeypatch,
                                         target):
    """A slow step between checkpoints shows up in the next record's
    `elapsed`, and a checkpoint with no changes before it stays fast."""
    delay = 0.05
    script = tmp_path / "slow.chg"
    script.write_text(SLOW_SCRIPT)
    if target == "program":
        real = ip.step

        def slow(*args, **kwargs):
            time.sleep(delay)
            return real(*args, **kwargs)

        monkeypatch.setattr(ip, "step", slow)
        argv = ["run", "--program", str(PROGDIR / "parity_exists_prop_3.dyp"),
                "--oracle", "parity-exists-deg", "--k", "3"]
    else:
        real = fe.ParityExistsEngine.apply

        def slow(self, c):
            time.sleep(delay)
            return real(self, c)

        monkeypatch.setattr(fe.ParityExistsEngine, "apply", slow)
        argv = ["run", "--engine", "fo-degk", "--k", "2",
                "--oracle", "parity-exists-deg"]
    records = _elapsed_per_checkpoint(capsys, argv + ["--script", str(script)])
    assert [r["change_index"] for r in records] == [2, 3, 3]
    assert all(r["match"] for r in records)
    assert records[0]["elapsed"] >= 2 * delay
    assert records[1]["elapsed"] >= delay
    assert records[2]["elapsed"] < delay


def test_malformed_structure_files_exit_2(tmp_path, capsys):
    for text in ("domain 3\nrel\n", "domain 3\nrel E\n",
                 "domain 3\ndomain 4\nset E 0 1\n"):
        path = tmp_path / "bad.str"
        path.write_text(text)
        rc = main(["oracle", "--query", "parity-exists-deg", "--k", "2",
                   "--structure", str(path)])
        err = capsys.readouterr().err
        assert rc == 2, text
        assert err.startswith("error: ") and "Traceback" not in err, text


def test_construct_script_on_an_empty_domain_exits_2(capsys):
    assert main(["construct", "script", "--n", "0"]) == 2
    assert "non-empty domain" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_construct_to_an_unwritable_path_exits_2(tmp_path, capsys, where):
    out = tmp_path if where == "directory" else tmp_path / "absent" / "s.chg"
    assert main(["construct", "script", "--n", "4", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: -o {out}: ") and "Traceback" not in err


def test_construct_rejects_a_non_integer_collection_member(capsys):
    assert main(["construct", "lower-bound", "--n", "4", "--k", "2",
                 "--collection", "1,2,x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --collection member '1,2,x' ")


def test_run_engine_refuses_a_domain_beyond_physical_memory(
        tmp_path, capsys, monkeypatch):
    from dyncomplab import structures
    script = tmp_path / "g.chg"
    script.write_text("domain 6\nrel E/2\nrel R/1\nins E 0 1\nquery\n")
    monkeypatch.setattr(structures, "PHYSICAL_MEMORY", 2 * 8 * 6 - 1)
    assert main(["run", "--engine", "fo-logn", "--script", str(script)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "physical memory" in err
    monkeypatch.setattr(structures, "PHYSICAL_MEMORY", 2 * 8 * 6)
    assert main(["run", "--engine", "fo-logn", "--script", str(script)]) == 0


def test_fuzz_checks_degree_rel_answers_without_audit(monkeypatch, capsys):
    """A degree_rel program whose insertions never update N_1 fails fuzz
    on the oracle alone."""
    entry = pg.catalog_entry("degree_rel_1")
    text = format_program(entry.build())
    broken_text = re.sub(r"(on ins E\(v, w\) update N_1\(z\) := ).*",
                         r"\1N_1(z)", text)
    assert broken_text != text
    broken = ip.parse_program(broken_text, name="degree_rel_1")
    monkeypatch.setattr(pg, "catalog_entry", lambda name: dataclasses.replace(
        entry, build=lambda: broken))
    assert main(["fuzz", "--target", "degree_rel_1", "--seeds", "3",
                 "--n", "5"]) == 1
    assert "3 seeds, 3 failures" in capsys.readouterr().out


def test_structure_rel_redeclared_with_another_arity_exits_2(tmp_path,
                                                             capsys):
    path = tmp_path / "bad.str"
    path.write_text("domain 3\nrel E/2\nrel E/1\nset E 0\n")
    rc = main(["oracle", "--query", "parity-exists-deg", "--k", "2",
               "--structure", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert "redeclared" in err


@pytest.mark.parametrize("target", ["parity", "fo-degk", "sym"])
@pytest.mark.parametrize("flag,value", [("--length", "0"), ("--length", "-3"),
                                        ("--seeds", "0")])
def test_fuzz_rejects_non_positive_length_and_seeds(target, flag, value,
                                                    capsys):
    assert main(["fuzz", "--target", target, "--n", "4", flag, value]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_run_engine_counts_skipped_changes(tmp_path, capsys):
    script = tmp_path / "twice.chg"
    script.write_text("domain 3\nins E 0 1\nins E 0 1\nins R 0\nquery\n")
    assert main(["run", "--engine", "fo-degk", "--k", "1",
                 "--script", str(script)]) == 0
    assert "1 checkpoints, 0 mismatches, 1 skipped changes" in \
        capsys.readouterr().out


def test_run_refuses_a_domain_beyond_physical_memory(tmp_path, capsys):
    script = tmp_path / "huge.chg"
    script.write_text("domain 100000\nrel E/2\nins E 0 1\nquery\n")
    assert main(["run", "--program", str(PROGDIR / "parity_exists_prop_4.dyp"),
                 "--script", str(script)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "physical memory" in err


@pytest.mark.parametrize("flips", ["0 a", "0 1.5"])
def test_sym_rejects_malformed_flips(tmp_path, capsys, flips):
    path = tmp_path / "c.sym"
    path.write_text(sc.format_circuit(sc.make_circuit(
        2, 2, [frozenset({0, 1})], [False, True])))
    assert main(["sym", "--circuit", str(path), "--flips", flips]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_run_engine_rejects_an_oracle_it_does_not_maintain(graph_script,
                                                           capsys):
    for engine, oracle in [(["fo-degk", "--k", "1"], "parity"),
                           (["fo-degk", "--k", "1"], "parity-exists"),
                           (["fo-degk", "--k", "1"], "parity-exists-deg-logn"),
                           (["fo-logn", "--k", "1"], "parity-exists-deg")]:
        rc = main(["run", "--engine", *engine, "--script", str(graph_script),
                   "--oracle", oracle])
        err = capsys.readouterr().err
        assert rc == 2, (engine, oracle)
        assert "is not the query" in err


def test_run_engine_honours_its_own_oracle(graph_script, monkeypatch):
    from dyncomplab import oracle as oc
    asked = []
    real = oc.eval_query
    monkeypatch.setattr(oc, "eval_query",
                        lambda q, s: asked.append(q) or real(q, s))
    for engine, oracle in [(["fo-degk", "--k", "1"], "parity-exists-deg"),
                           (["fo-logn"], "parity-exists-deg-logn"),
                           (["fo-logn", "--k", "2"], "parity-exists-deg")]:
        asked.clear()
        assert main(["run", "--engine", *engine, "--script", str(graph_script),
                     "--oracle", oracle]) == 0, (engine, oracle)
        assert asked and all(q.kind == oracle.replace("-", "_")
                             for q in asked), (engine, oracle)


def _bad_file(tmp_path, kind):
    if kind == "missing":
        return tmp_path / "absent"
    if kind == "directory":
        return tmp_path
    path = tmp_path / "latin1"
    path.write_bytes("domain 3\n# café\n".encode("latin-1"))
    return path


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
@pytest.mark.parametrize("command,flag", [
    ("run", "--program"), ("run", "--script"), ("validate", "--program"),
    ("fmt", "--program"), ("oracle", "--script"), ("oracle", "--structure"),
    ("sym", "--circuit")])
def test_an_unreadable_file_exits_2(tmp_path, capsys, command, flag, kind):
    script = _script_file(tmp_path, "graph")
    good = {"--program": str(PROGDIR / "parity.dyp"), "--script": str(script)}
    args = {"run": ["--program", "--script"], "validate": ["--program"],
            "fmt": ["--program"], "oracle": [flag], "sym": [flag]}[command]
    bad = str(_bad_file(tmp_path, kind))
    argv = [command] + [a for f in args for a in (f, bad if f == flag
                                                  else good[f])]
    if command == "oracle":
        argv += ["--query", "parity"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} {bad}: "), err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag,value", [("--n-max", "1"), ("--n-max", "-1"),
                                        ("--k-max", "-1"), ("--samples", "0")])
def test_verify_constructions_rejects_checking_nothing(flag, value, capsys):
    assert main(["verify-constructions", flag, value]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {flag} must be at least ")
    assert "violations" not in out


_PARITY = (PROGDIR / "parity.dyp").read_text()
_TWO_FLAGS = "".join(
    ["input U/1\naux P/0\naux Q/0\nanswer P\nanswer Q\n"] +
    [f"on {op} U(a) update {t}() := {t}()\n"
     for op in ("ins", "del") for t in "PQ"])


_HOLES = {
    "two_answers.dyp": (_TWO_FLAGS, "line 5: "),
    "aux_twice.dyp": (_PARITY.replace("aux P/0", "aux P/1\naux P/0"),
                      "line 4: "),
    "effective_yes.dyp": (_PARITY + "requires_effective yes\n", "line 7: "),
    "inputs_twice.sym": ("inputs 2\ninputs 3\nfanin 2\ngate 0 1\nsym 0 1\n",
                         "line 2: "),
    "sym_two.sym": ("inputs 2\nfanin 2\ngate 0 1\nsym 0 2\n", "line 4: "),
    "arity.str": ("domain 3\nset E 0 1\nset E 0 1 2\n", "line 3: "),
}


@pytest.mark.parametrize("name", sorted(_HOLES))
def test_a_repeated_or_malformed_input_line_exits_2(tmp_path, capsys, name):
    text, where = _HOLES[name]
    path = tmp_path / name
    path.write_text(text)
    argv = {".dyp": ["fmt", "--program", str(path)],
            ".sym": ["sym", "--circuit", str(path), "--flips", "0 1", "--check"],
            ".str": ["oracle", "--query", "parity-exists", "--structure",
                     str(path)]}[path.suffix]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert where in err


def test_documented_and_committed_input_files_parse():
    parsers = {".chg": parse_script, ".str": parse_structure,
               ".dyp": ip.parse_program, ".sym": sc.parse_circuit}
    readme = (PROGDIR.parent / "README.md").read_text()
    formats = readme.split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    examples = re.findall(r"\(`(\.\w+)`\).*?```\n(.*?)```", formats, re.S)
    assert sorted(ext for ext, _ in examples) == sorted(parsers)
    for ext, text in examples:
        parsers[ext](text)
    for path in sorted(PROGDIR.glob("*.dyp")):
        ip.parse_program(path.read_text(), name=path.stem)
    scripts = sorted((PROGDIR.parent / "examples_scripts").glob("*.chg"))
    assert scripts
    for path in scripts:
        parse_script(path.read_text())


SCRIPTDIR = PROGDIR.parent / "examples_scripts"

# |U| = 1, written with quantifiers
_SIZE_1_FO = ("input U/1\naux A/0\nanswer A\n"
              "on ins U(a) update A() := exists x. ((U(x) | x = a) & "
              "forall y. ((U(y) | y = a) -> y = x))\n"
              "on del U(a) update A() := exists x. ((U(x) & !(x = a)) & "
              "forall y. ((U(y) & !(y = a)) -> y = x))\n")


def test_run_a_quantified_program_file(tmp_path, capsys):
    path = tmp_path / "size_1_fo.dyp"
    path.write_text(_SIZE_1_FO)
    assert main(["validate", "--program", str(path)]) == 0
    assert "(DynFO, " in capsys.readouterr().out
    assert main(["run", "--program", str(path),
                 "--script", str(SCRIPTDIR / "set_demo.chg"),
                 "--oracle", "size-k", "--k", "1"]) == 0
    assert "24 checkpoints, 0 mismatches" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["-1", "7"])
def test_an_init_tuple_outside_the_domain_exits_2(tmp_path, capsys, value):
    program = tmp_path / "p.dyp"
    program.write_text(
        f"input U/1\naux P/1\naux A/0\ninit P {value}\nanswer A\n"
        "on ins U(a) update A() := P(a)\non del U(a) update A() := A()\n"
        "on ins U(a) update P(x) := P(x)\non del U(a) update P(x) := P(x)\n")
    script = tmp_path / "s.chg"
    script.write_text("domain 3\nins U 2\nquery\n")
    assert main(["run", "--program", str(program),
                 "--script", str(script)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"element {value} out of range [0, 3) in P" in err
    assert "checkpoint" not in out


def test_oracle_answers_each_checkpoint_of_a_replayed_script(capsys):
    path = SCRIPTDIR / "set_demo.chg"
    assert main(["oracle", "--query", "parity", "--script", str(path)]) == 0
    members, want = set(), []
    for words in map(str.split, path.read_text().splitlines()):
        if words[:1] == ["ins"]:
            members.add(words[2])
        elif words[:1] == ["del"]:
            members.discard(words[2])
        elif words[:1] == ["query"]:
            want.append(str(len(members) % 2 == 1))
    assert len(want) == 24
    assert capsys.readouterr().out.split() == want


def test_fuzz_sym_audit_compares_every_counter(monkeypatch, capsys):
    argv = ["fuzz", "--target", "sym", "--seeds", "2", "--seed", "5",
            "--length", "20"]
    assert main(argv + ["--audit"]) == 0
    assert "2 seeds, 0 failures" in capsys.readouterr().out
    real = sc.counters_reference
    monkeypatch.setattr(sc, "counters_reference", lambda c, assignment: {
        **real(c, assignment), frozenset({-1}): 0})
    assert main(argv) == 0
    assert "2 seeds, 0 failures" in capsys.readouterr().out
    assert main(argv + ["--audit"]) == 1
    out = capsys.readouterr().out
    assert "seed 5: counters differ from their brute-force count" in out
    assert "2 seeds, 2 failures" in out


@pytest.mark.parametrize("flags", [["--n", "3"], ["--k", "9"],
                                   ["--n", "3", "--k", "9"]])
def test_fuzz_sym_refuses_size_flags(capsys, flags):
    assert main(["fuzz", "--target", "sym", "--seeds", "2", "--audit",
                 *flags]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: fuzz --target sym takes no --n or --k")
    assert "seeds" not in out


@pytest.mark.parametrize("flag, text, query", [
    ("--structure", "domain 3\nrel U/2\nset U 0 1\n", ["parity"]),
    ("--script", "domain 3\nrel E/3\nrel R/1\nins E 0 1 2\nquery\n",
     ["parity-exists-deg", "--k", "1"]),
    ("--structure", "domain 3\nrel E/2\nrel R/2\nset R 0 1\n",
     ["parity-exists"]),
], ids=["U/2", "E/3", "R/2"])
def test_oracle_rejects_an_input_relation_of_the_wrong_arity(
        tmp_path, capsys, flag, text, query):
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert main(["oracle", "--query", *query, flag, str(path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: query ") and "Traceback" not in err
    assert out == ""


def test_run_engine_rejects_mode(tmp_path, capsys):
    script = tmp_path / "g.chg"
    script.write_text("domain 3\nins E 0 1\nins E 0 1\nquery\n")
    assert main(["run", "--engine", "fo-degk", "--k", "2", "--mode", "strict",
                 "--script", str(script)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: --mode applies to --program runs")
    assert out == ""
    assert main(["run", "--program", str(PROGDIR / "degree_rel_1.dyp"),
                 "--mode", "strict", "--script", str(script)]) == 2
    assert main(["run", "--program", str(PROGDIR / "degree_rel_1.dyp"),
                 "--script", str(script)]) == 0
    assert "1 skipped changes" in capsys.readouterr().out


def test_run_rejects_program_with_engine(tmp_path, capsys):
    script = tmp_path / "g.chg"
    script.write_text("domain 3\nins E 0 1\nquery\n")
    assert main(["run", "--engine", "fo-degk", "--k", "2",
                 "--program", str(PROGDIR / "parity.dyp"),
                 "--script", str(script)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: run takes --program or --engine, not both")
    assert out == ""


def test_oracle_rejects_structure_with_script(tmp_path, capsys):
    structure = tmp_path / "s.str"
    structure.write_text("domain 3\nrel U/1\nset U 0\n")
    script = tmp_path / "s.chg"
    script.write_text("domain 3\nins U 0\nins U 1\nquery\n")
    assert main(["oracle", "--query", "parity", "--structure", str(structure),
                 "--script", str(script)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: oracle takes --structure or --script")
    assert out == ""
