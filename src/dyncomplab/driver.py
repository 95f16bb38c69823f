"""One driver that replays a change script through a target, checked
against the oracle and the target's state audit.

A target has `input` (its input structure now), `apply(c)` (True when
the change was skipped as non-effective), `answer()` and `audit()` (the
discrepancies between its state and their definitions).  The first-order
engines are targets as they are; a program runs through `ProgramRun`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from . import interpreter as ip
from . import programs as pg
from .structures import Checkpoint, DynLabError, apply_change


@dataclass
class CheckpointRecord:
    index: int            # checkpoint ordinal
    change_index: int     # changes applied so far
    program_answer: object
    oracle_answer: object
    match: bool
    elapsed: float

    def to_json(self) -> str:
        return json.dumps({
            "checkpoint": self.index, "change_index": self.change_index,
            "program": _jsonable(self.program_answer),
            "oracle": _jsonable(self.oracle_answer), "match": self.match,
            "elapsed": round(self.elapsed, 6)})


def _jsonable(v):
    if isinstance(v, frozenset):
        return sorted(list(t) for t in v)
    return v


@dataclass
class RunReport:
    records: list[CheckpointRecord] = field(default_factory=list)
    skipped: int = 0

    @property
    def mismatches(self) -> list[CheckpointRecord]:
        return [r for r in self.records if not r.match]

    def emit(self, as_json: bool = False) -> None:
        for r in self.records:
            if as_json:
                print(r.to_json())
            else:
                status = "ok" if r.match else "MISMATCH"
                print(f"checkpoint {r.index} @change {r.change_index}: "
                      f"program={r.program_answer} oracle={r.oracle_answer} "
                      f"[{status}]")
        print(f"{len(self.records)} checkpoints, "
              f"{len(self.mismatches)} mismatches, "
              f"{self.skipped} skipped changes")


class ProgramRun:
    """A dynamic program's run as a target: holds the current state."""

    def __init__(self, program, n: int, mode: str = "skip"):
        self.state = ip.init_state(program, n)
        self.mode = mode

    @property
    def input(self):
        return self.state.input

    def apply(self, c) -> bool:
        before = self.state
        self.state = ip.step(before, c, mode=self.mode)
        return self.state is before

    def answer(self):
        return self.state.answer()

    def audit(self):
        return pg.audit_program_state(self.state)


def drive(target, script, oracle=None, audit_every: int = 0) -> RunReport:
    """Apply the script's changes to the target.

    At each checkpoint, compare the target's answer with `oracle` (input
    structure -> answer) on a shadow input kept here from the changes
    sent; with no oracle every checkpoint matches.  A record's `elapsed`
    is the whole segment since the previous checkpoint or the start.
    After every `audit_every`-th change, audit the target; the first
    discrepancy raises DynLabError."""
    shadow = target.input
    report = RunReport()
    applied = 0
    t0 = time.perf_counter()          # start of the current segment
    for entry in script.entries:
        if isinstance(entry, Checkpoint):
            got = target.answer()
            want = got if oracle is None else oracle(shadow)
            t1 = time.perf_counter()
            report.records.append(CheckpointRecord(
                len(report.records), applied, got, want, got == want, t1 - t0))
            t0 = t1
            continue
        if target.apply(entry):
            report.skipped += 1
        shadow = apply_change(shadow, entry)
        applied += 1
        if audit_every and applied % audit_every == 0:
            bad = target.audit()
            if bad:
                raise DynLabError(
                    f"audit failed after change {applied}: {bad[0]}")
    return report
