"""Shared helpers for the test suite."""

from __future__ import annotations

from dyncomplab.driver import drive
from dyncomplab.structures import CHECKPOINT, ChangeScript

GRAPH_RELS = (("E", 2), ("R", 1))


def rels_for(prog):
    return tuple(sorted(prog.input_schema.items()))


def drive_checked(target, n, changes, oracle=None, audit_every=0,
                  check_every=1):
    """Drive the changes through the target with a checkpoint after every
    `check_every`-th change and after the last; every checkpoint must
    match the oracle."""
    entries = []
    for t, c in enumerate(changes, start=1):
        entries.append(c)
        if t % check_every == 0 or t == len(changes):
            entries.append(CHECKPOINT)
    report = drive(target, ChangeScript(n, {}, tuple(entries)), oracle,
                   audit_every)
    assert not report.mismatches, report.mismatches[0]
