"""Tests of the benchmark itself: its inputs, its counts, its failure
accounting and its output contract."""

import array
import dataclasses
import itertools
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from dyncomplab import fo_engines, formulas, symcircuit  # noqa: E402
from dyncomplab import interpreter  # noqa: E402
from dyncomplab.oracle import QueryId  # noqa: E402
from dyncomplab.structures import Change  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BASELINE = json.loads((HERE / "baseline.json").read_text())


def result_of(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


# ------------------------------------------------------------------ inputs

def test_static_counts_match_the_catalog():
    counts = {name: layers.rule_counts(list(layers.build_program(name).rules.values()))
              for name in inputs.CATALOG}
    assert counts["parity_exists_prop_3"] == {
        "rules": 204, "ast_nodes": 4867, "distinct_nodes": 1229, "identity_rules": 42}
    assert counts["parity_exists_prop_4"] == {
        "rules": 256, "ast_nodes": 7792, "distinct_nodes": 1749, "identity_rules": 50}
    assert counts == BASELINE["static_counts"]


@pytest.mark.parametrize("workload", list(inputs.BLOCKS))
def test_inputs_match_the_recorded_digest(workload):
    recorded = BASELINE["workloads"][workload]["input_digest"]
    assert inputs.digest(workload, recorded["seed"], recorded["blocks"]) == \
        recorded["sha256"]


def first(blocks, k):
    return list(itertools.islice(blocks, k))


def test_streams_are_effective_and_seeded():
    assert first(inputs.fo_blocks(7), 3) == first(inputs.fo_blocks(7), 3)
    assert first(inputs.fo_blocks(7), 3) != first(inputs.fo_blocks(8), 3)
    rounds = first(inputs.catalog_blocks(3), 2)
    streams = [(s.changes, s.n) for r in rounds for s in r]
    streams.append((sum((b.changes for b in first(inputs.fo_blocks(3), 3)), ()),
                    inputs.GRAPH_N))
    streams.append((next(inputs.graph_blocks(3)).changes, inputs.GRAPH_N))
    for changes, n in streams:
        present = set()
        for c in changes:
            key = (c.relation, c.args)
            assert (c.op == "ins") == (key not in present), c
            assert all(0 <= a < n for a in c.args)
            present ^= {key}
    for program in inputs.CATALOG:
        for r in rounds:
            assert sum(len(s.changes) for s in r if s.program == program) \
                == len({s.n for s in r if s.program == program}) * inputs.PAIR_CHANGES
    assert [(s.program, s.n, s.audit) for s in rounds[0]] == \
        [(s.program, s.n, s.audit) for s in rounds[1]]
    assert [s.audit for s in rounds[0]].count(True) == 20
    assert {s.n for s in rounds[0]} == set(range(4, 13))
    circuits = first(inputs.sym_blocks(3), 2)
    assert [c.gates for c in circuits[0]] == [c.gates for c in circuits[1]]
    assert [c.flips for c in circuits[0]] != [c.flips for c in circuits[1]]


# ------------------------------------------------------- failure accounting

def _negated(program):
    """The program with its first rule's body negated: wrong answers."""
    key = next(iter(program.rules))
    rule = program.rules[key]
    rules = {**program.rules,
             key: dataclasses.replace(rule, body=formulas.Not(rule.body))}
    return dataclasses.replace(program, rules=rules)


def test_wrong_answers_fail_the_run(monkeypatch, capsys):
    build = layers.build_program
    monkeypatch.setattr(layers, "build_program",
                        lambda name: _negated(build(name)) if name == "parity"
                        else build(name))
    code = run.main(["--workload", "catalog-mix", "--seed", "1", "--seconds", "0.01"])
    out, err = capsys.readouterr()
    result = result_of(out)
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0
    assert "FAILED parity" in err and "Traceback" not in err


def test_a_run_whose_every_change_raises_fails_cleanly(monkeypatch, capsys):
    def broken(state, c, mode="skip"):
        raise RuntimeError("broken step")

    monkeypatch.setattr(interpreter, "step", broken)
    code = run.main(["--workload", "graph-large-n", "--seed", "1", "--seconds", "0.01"])
    out, err = capsys.readouterr()
    result = result_of(out)
    assert code == 1 and result["correct"] is False
    assert result["failed"] >= 2 and "RuntimeError: broken step" in err
    assert "Traceback" not in err


def test_raising_changes_are_counted():
    L = layers.Layers()
    meter = wl.Meter()
    program = layers.build_program("parity")
    target = wl.ProgramTarget(L, program, "parity", 4)
    changes = [Change("ins", "U", (1,)), Change("ins", "U", (9,)),
               Change("ins", "U", (2,))]
    live = [target]
    wl.drive(L, meter, live, wl.Shadow(4, inputs.SET), changes)
    assert live == [] and meter.failed == 1 and meter.changes == 1
    assert "ElementRangeError" in meter.failures[0]


def test_wrong_engine_answers_and_raising_engines_are_counted():
    class Wrong(fo_engines.FoDegKState):
        def answer(self):
            return not super().answer()

    class Raising(fo_engines.FoDegKState):
        def apply(self, c):
            if c.relation == "R":
                raise RuntimeError("broken engine")
            return super().apply(c)

    L = layers.Layers()
    meter = wl.Meter()
    query = QueryId("parity_exists_deg", 2)
    targets = [wl.EngineTarget("wrong", Wrong(8, 2), query),
               wl.EngineTarget("raising", Raising(8, 2), query)]
    changes = [Change("ins", "R", (0,)), Change("ins", "E", (0, 1)),
               Change("ins", "E", (0, 2)), Change("del", "R", (0,))]
    shadow = wl.Shadow(8, inputs.COLOURED_GRAPH)
    wl.drive(L, meter, targets, shadow, changes)
    wl.audit(L, meter, targets, shadow)
    assert any(f.startswith("raising n=8 change 1") for f in meter.failures)
    assert any(f.startswith("wrong n=8 answer after change 4") for f in meter.failures)
    assert meter.failed == 3   # one raise, one wrong answer, one audit


def meter_of(latencies_by_segment):
    """A meter whose segments took the given change latencies."""
    meter = wl.Meter()
    meter.calibration.times = [wl.Calibration.NOMINAL_S]
    for latencies in latencies_by_segment:
        meter.segments.append(wl.Segment(sum(latencies), len(latencies),
                                         array.array("d", latencies)))
    return meter


def test_a_slowdown_of_one_change_in_40_shows():
    """Every 40th change ten times slower: most 16-change segments hold
    none, and still p99 and changes_per_s move."""
    fast = [[1e-3] * 16 for _ in range(150)]
    slow = [[1e-2 if (16 * i + j) % 40 == 39 else 1e-3 for j in range(16)]
            for i in range(150)]
    assert sum(any(t > 1e-3 for t in seg) for seg in slow) < len(slow) / 2
    before, after = meter_of(fast), meter_of(slow)
    assert before.calibration.scale() == after.calibration.scale() == 1.0
    assert before.latency_ms(50) == after.latency_ms(50) == pytest.approx(1.0)
    assert before.latency_ms(99) == pytest.approx(1.0)
    assert after.latency_ms(99) == pytest.approx(10.0)
    assert before.changes_per_s() == pytest.approx(1000)
    assert after.changes_per_s() == pytest.approx(40 / (39e-3 + 1e-2))


def test_subsampled_latencies_stand_for_their_segment():
    meter = meter_of([[2e-3] * 10])
    meter.segments.append(wl.Segment(30 * 1e-3, 30, array.array("d", [1e-3])))
    # 10 changes at 2 ms and 30, sampled once, at 1 ms
    assert meter.latency_ms(50) == 1.0
    assert meter.latency_ms(80) == 2.0
    assert meter.changes_per_s() == 40 / 0.05


def test_a_slowed_change_raises_p99_in_a_run(monkeypatch, capsys):
    def p99():
        assert run.main(["--workload", "fo-churn", "--seed", "4",
                         "--seconds", "0.01"]) == 0
        return result_of(capsys.readouterr()[0])["metrics"]["change_p99_ms"]["value"]

    normal = p99()
    calls = itertools.count(1)
    for engine in (fo_engines.FoDegKState, fo_engines.FoLogNState):
        def slowed(self, c, apply=engine.apply):
            if next(calls) % 30 == 0:
                time.sleep(0.1)
            return apply(self, c)
        monkeypatch.setattr(engine, "apply", slowed)
    assert p99() > 2 * normal


def test_pairs_per_flip_is_read_from_the_state():
    counter = layers.Counter(layers.Layers())
    try:
        circuit = symcircuit.make_circuit(3, 6, (frozenset({0, 1}), frozenset({1, 2})),
                                          (False, True, False))
        state = symcircuit.sym_init(circuit, [True, False, True])
        counter.flip(state, 1)
        counter.flip(object(), 1)
    finally:
        counter.close()
    assert counter.totals["symcircuit.pairs_per_flip"] == len(state.affected[1]) > 0
    assert counter.samples["symcircuit.pairs_per_flip"] == 2


# --------------------------------------------------------------- contract

def test_untraced_result_carries_the_end_to_end_metrics(capsys):
    assert run.main(["--workload", "catalog-mix", "--seed", "2",
                     "--seconds", "0.01"]) == 0
    out, _ = capsys.readouterr()
    result = result_of(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert "failed_ratio" in out


def test_traced_spans_account_for_the_wall_time(capsys):
    bulk_eval = interpreter.bulk_eval
    assert run.main(["--workload", "graph-large-n", "--seed", "2",
                     "--seconds", "0.01", "--trace", "1"]) == 0
    assert interpreter.bulk_eval is bulk_eval
    metrics = result_of(capsys.readouterr()[0])["metrics"]
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    shares = sum(v["value"] for k, v in metrics.items() if k.endswith(".share"))
    assert shares == pytest.approx(1.0, abs=1e-9)
    assert metrics["interpreter.step.calls"]["value"] > 0
    assert metrics["bulk_eval.bulk_eval.calls"]["value"] > 0
    assert metrics["structures.apply_change.calls"]["value"] > 0
    assert metrics["symcircuit.sym_flip.calls"]["value"] == 0
    assert metrics["bulk_eval.ast_nodes_per_step"]["value"] > 0


def test_without_the_package_source_the_command_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "catalog-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert "Traceback" not in proc.stderr
