"""Incremental evaluation of depth-two symmetric circuits.

A circuit is a list of and-gates over input bits plus a symmetric output
function given as a lookup table over the number of activated gates.
The state keeps, for every subset A of some gate's input set, the count
of gates that would be activated if the inputs in A were ignored and
that contain all of A; the output is a table lookup on the A = ∅ counter.

The counters live in one int64 array indexed by subset ids.  A flip of
input x adds (or subtracts) counter A to counter A∖{x} for every tracked
A containing x, as one vectorised index update: x is in every A and in
no A∖{x}, so no counter read in a flip is written in it, and A ↦ A∖{x}
is injective on the sets containing x, so no counter is written twice.
"""

from __future__ import annotations

import itertools
from array import array
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .structures import DynLabError, ValidationError, check_fits, directives


class CircuitError(DynLabError):
    pass


@dataclass(frozen=True)
class SymCircuit:
    m: int                                  # number of inputs
    fanin: int                              # gate fan-in bound
    gates: tuple[frozenset[int], ...]
    h: tuple[bool, ...]                     # output table, length gates+1


def make_circuit(m: int, fanin: int, gates, h) -> SymCircuit:
    gates = tuple(frozenset(g) for g in gates)
    h = tuple(bool(b) for b in h)
    if m < 0 or fanin < 1:
        raise CircuitError("need m >= 0 and fan-in bound >= 1")
    for g in gates:
        if not g:
            raise CircuitError("empty gate input set")
        if len(g) > fanin:
            raise CircuitError(f"gate {sorted(g)} exceeds fan-in bound {fanin}")
        if not all(0 <= i < m for i in g):
            raise CircuitError(f"gate {sorted(g)} references missing inputs")
    if len(h) != len(gates) + 1:
        raise CircuitError(f"output table needs {len(gates) + 1} entries, "
                           f"got {len(h)}")
    return SymCircuit(m, fanin, gates, h)


def _submasks(mask: int):
    """Every submask of mask, mask itself first and 0 last."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


@dataclass
class SymState:
    circuit: SymCircuit
    assignment: list[bool]
    subsets: list[tuple[int, ...]]          # subset id -> sorted inputs of A
    values: np.ndarray                      # subset id -> counter (int64)
    # per input x: (id(A∖{x}), id(A)) rows, shape (pairs, 2)
    affected: dict[int, np.ndarray] = field(repr=False, default_factory=dict)

    @property
    def counters(self) -> dict[frozenset[int], int]:
        """The counters keyed by subset, as a fresh dict: writing to it
        changes no state."""
        return {frozenset(a): int(v) for a, v in zip(self.subsets, self.values)}

    @property
    def activated(self) -> int:
        return int(self.values[0]) if self.subsets else 0


# Peak bytes sym_init allocates in all (small fixed tables), per input
# (its row buffer and its affected array), per tracked subset (its
# id-table entry and key, its counter, its slots in the per-gate tables)
# and per (A∖{x}, A) pair (a key slot, the staged and the final affected
# row).  Fitted to tracemalloc peaks on single gates of 1..16 inputs
# among up to 1000 (about 8 KiB, 320, 134 and 42 bytes) and rounded up;
# the bound stayed at least 1.15 times every measured peak.
_FIXED_BYTES, _INPUT_BYTES, _SUBSET_BYTES, _PAIR_BYTES = 16384, 384, 160, 48


def _gate_bytes(k: int) -> int:
    """Bytes sym_init allocates at most for the 2^k subsets and k·2^(k-1)
    pairs of one distinct gate of k inputs."""
    return (2 * _SUBSET_BYTES + k * _PAIR_BYTES) << (k - 1)


def footprint(c: SymCircuit) -> dict[str, int]:
    """An upper bound on the bytes sym_init allocates for c, by part:
    the inputs, then the distinct gates of each fan-in (gates that share
    subsets need less)."""
    sizes = Counter(map(len, set(c.gates)))
    return {f"the fixed tables and the index arrays of {c.m} inputs":
            _FIXED_BYTES + _INPUT_BYTES * c.m,
            **{f"{count} distinct gate(s) of {k} inputs":
               count * _gate_bytes(k) for k, count in sorted(sizes.items())}}


def sym_init(c: SymCircuit, assignment) -> SymState:
    """Give every tracked subset an id (the empty set gets 0) and count,
    for each, the gates containing it whose inputs outside it are all set.
    A subset is keyed by the sorted tuple of its inputs, so a key's size
    does not grow with m, and enumerated per gate as a bitmask r over the
    gate's sorted inputs."""
    assignment = [bool(b) for b in assignment]
    if len(assignment) != c.m:
        raise CircuitError(f"assignment must have {c.m} bits")
    check_fits("the symmetric-circuit counters", footprint(c))
    gates = Counter(tuple(sorted(g)) for g in c.gates)
    ids: dict[tuple[int, ...], int] = {(): 0} if gates else {}
    counts = [0] * len(ids)
    # rows staged flat in typed arrays, with no Python object per pair
    rows = {x: array("q") for x in range(c.m)}
    for members, copies in gates.items():
        full = (1 << len(members)) - 1
        keys = [()] * (full + 1)            # r -> key of its subset
        local = [0] * (full + 1)            # r -> id of its subset
        for r in range(1, full + 1):
            low = r & -r
            keys[r] = key = (members[low.bit_length() - 1],) + keys[r ^ low]
            i = local[r] = ids.setdefault(key, len(ids))
            if i == len(counts):            # a new subset: add its rows
                counts.append(0)
                rest = r
                while rest:
                    bit = rest & -rest
                    row = rows[members[bit.bit_length() - 1]]
                    row.append(local[r ^ bit])
                    row.append(i)
                    rest ^= bit
        on = sum(1 << j for j, x in enumerate(members) if assignment[x])
        for extra in _submasks(on):
            counts[local[(full & ~on) | extra]] += copies
    values = np.array(counts, dtype=np.int64)
    # column-major, so that the two columns a flip reads are contiguous
    affected = {x: np.frombuffer(r, dtype=np.int64).reshape(-1, 2)
                .astype(np.intp, order="F") for x, r in rows.items()}
    return SymState(c, assignment, list(ids), values, affected)


def sym_flip(state: SymState, x: int) -> SymState:
    """Toggle input bit x, updating every affected counter in one step."""
    if not 0 <= x < state.circuit.m:
        raise ValidationError(f"input index {x} out of range")
    small, large = state.affected[x].T
    values = state.values
    if state.assignment[x]:
        values[small] -= values[large]
    else:
        values[small] += values[large]
    state.assignment[x] = not state.assignment[x]
    return state


def sym_output(state: SymState) -> bool:
    return state.circuit.h[state.activated]


def sym_eval_direct(c: SymCircuit, assignment) -> bool:
    """From-scratch evaluation; the ground truth for the counter scheme."""
    assignment = [bool(b) for b in assignment]
    if len(assignment) != c.m:
        raise CircuitError(f"assignment must have {c.m} bits")
    activated = sum(1 for g in c.gates if all(assignment[i] for i in g))
    return c.h[activated]


def _tracked_subsets(c: SymCircuit) -> set[frozenset[int]]:
    out: set[frozenset[int]] = set()
    for g in c.gates:
        members = sorted(g)
        for r in range(len(members) + 1):
            out.update(map(frozenset, itertools.combinations(members, r)))
    return out


def counters_reference(c: SymCircuit, assignment) -> dict[frozenset[int], int]:
    """Brute-force counter values over frozensets, sharing no code with
    sym_init (used by the audit tests)."""
    assignment = [bool(b) for b in assignment]
    if len(assignment) != c.m:
        raise CircuitError(f"assignment must have {c.m} bits")
    counters = {a: 0 for a in _tracked_subsets(c)}
    for g in c.gates:
        off = frozenset(i for i in g if not assignment[i])
        rest = sorted(g - off)
        for r in range(len(rest) + 1):
            for extra in itertools.combinations(rest, r):
                counters[off | frozenset(extra)] += 1
    return counters


# ------------------------------------------------------------ file format

def format_circuit(c: SymCircuit) -> str:
    lines = [f"inputs {c.m}", f"fanin {c.fanin}"]
    for g in c.gates:
        lines.append("gate " + " ".join(map(str, sorted(g))))
    lines.append("sym " + " ".join("1" if b else "0" for b in c.h))
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> SymCircuit:
    gates: list[frozenset[int]] = []
    single: dict[str, list[int]] = {}       # inputs, fanin, sym
    for lineno, kw, args in directives(text):
        if kw not in ("inputs", "fanin", "gate", "sym"):
            raise CircuitError(f"line {lineno}: unknown directive {kw!r}")
        try:
            words = [int(a) for a in args]
        except ValueError as exc:
            raise CircuitError(f"line {lineno}: {exc}") from None
        if kw == "gate":
            gates.append(frozenset(words))
        elif kw in single:
            raise CircuitError(f"line {lineno}: duplicate {kw} line")
        elif kw == "sym" and not set(words) <= {0, 1}:
            raise CircuitError(f"line {lineno}: sym values must be 0 or 1")
        elif kw != "sym" and len(words) != 1:
            raise CircuitError(f"line {lineno}: expected: {kw} <n>")
        else:
            single[kw] = words
    if len(single) != 3:
        raise CircuitError("circuit needs inputs, fanin, and sym lines")
    (m,), (fanin,) = single["inputs"], single["fanin"]
    return make_circuit(m, fanin, gates, single["sym"])
