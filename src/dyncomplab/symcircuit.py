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

`sym_init` builds the counters and the rows with array operations.  It
keys every subset of every distinct gate by its inputs, packed into as
many 64-bit words as m needs, and one sort of all keys gives each subset
its id, in order of first appearance.  The (A∖{x}, A) rows of each input
x are one view of a single column-major array.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

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


def _index(value, what: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise CircuitError(f"{what} must be an int, got {value!r}") from None


def make_circuit(m: int, fanin: int, gates, h) -> SymCircuit:
    m = _index(m, "the number of inputs")
    fanin = _index(fanin, "the fan-in bound")
    gates = tuple(frozenset(_index(i, "a gate input") for i in g) for g in gates)
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


@dataclass
class SymState:
    """The counter table of a circuit under an assignment.

    `subsets[i]` is the packed key of subset i (`_digit_bits`): its
    inputs in increasing order, one digit each; `values[i]` is its
    counter.  `affected[x]` holds one (id(A∖{x}), id(A)) row for every
    tracked A containing x, in order of id(A); all of them are views of
    one column-major array of the circuit's rows, grouped by x."""
    circuit: SymCircuit
    assignment: list[bool]
    subsets: np.ndarray                     # subset id -> packed key (words)
    values: np.ndarray                      # subset id -> counter (int64)
    affected: dict[int, np.ndarray] = field(repr=False, default_factory=dict)

    @property
    def counters(self) -> dict[frozenset[int], int]:
        """The counters keyed by subset, as a fresh dict: writing to it
        changes no state."""
        bits = _digit_bits(self.circuit.m)
        shifts = np.arange(63 // bits) * bits
        count, words = self.subsets.shape
        digits = (self.subsets[:, :, None] >> shifts) & ((1 << bits) - 1)
        return {frozenset(d - 1 for d in row if d): int(v) for row, v in
                zip(digits.reshape(count, words * len(shifts)).tolist(),
                    self.values)}

    @property
    def activated(self) -> int:
        return int(self.values[0]) if self.circuit.gates else 0


def _digit_bits(m: int) -> int:
    """Bits per digit of a subset key over m inputs.  A key lists its
    subset's inputs in increasing order, input i as the digit i + 1 and
    an empty slot as 0, in as many 64-bit words as it needs; each word
    holds as many digits as fit in its low 63 bits, so that keys are
    exact and non-negative at every m."""
    return max(m.bit_length(), 1)


def _popcounts(k: int) -> np.ndarray:
    """The number of set bits of each r < 2^k."""
    count = np.zeros(1, dtype=np.int64)
    for _ in range(k):
        count = np.concatenate((count, count + 1))
    return count


def _key_words(m: int, widest: int) -> int:
    """The 64-bit words of every subset key over m inputs, when the
    widest gate has `widest` inputs."""
    return max(-(-widest // (63 // _digit_bits(m))), 1)


# Peak bytes sym_init allocates in all (small fixed tables), per input
# (its row bounds, as numpy and as Python ints, and its view in
# `affected`), per distinct gate (its entry in the gate counter and its
# bounds), per tracked subset (its counter, and 16 bytes per key word:
# the key and its sorted copy, which every subset of every gate has as
# many words of as the widest gate needs) and per (A∖{x}, A) pair (its
# subset, input and bit, their sort order and its final row; the ids and
# weights of the subsets are counted here too, as a subset has at least
# one pair but for ∅).  Fitted to tracemalloc peaks after a warm call:
# on single gates of 1..16 inputs among k, 1000, 20000 and 131072
# inputs, on one gate of 4..16 inputs with up to 20000 gates of 1..3
# inputs among 1000 to 131072 (up to 6 key words), and on the peak that
# each further gate of 1..4 inputs adds.  The bound is 1.16 to 2.3 times
# every one of them.
_FIXED_BYTES, _INPUT_BYTES, _GATE_BYTES = 16384, 320, 128
_SUBSET_BYTES, _KEY_WORD_BYTES, _PAIR_BYTES = 8, 16, 52


def _gate_bytes(k: int, words: int) -> int:
    """Bytes sym_init allocates at most for one distinct gate of k inputs,
    its 2^k subsets keyed in `words` words and its k·2^(k-1) pairs."""
    return _GATE_BYTES + ((2 * (_SUBSET_BYTES + _KEY_WORD_BYTES * words)
                           + k * _PAIR_BYTES) << (k - 1))


def footprint(c: SymCircuit) -> dict[str, int]:
    """An upper bound on the bytes sym_init allocates for c, by part:
    the inputs, then the distinct gates of each fan-in (gates that share
    subsets need less)."""
    return _footprint(c.m, Counter(map(len, set(c.gates))))


def _footprint(m: int, fan_ins: Mapping[int, int]) -> dict[str, int]:
    """`footprint` of m inputs and, for each fan-in k, fan_ins[k]
    distinct gates of k inputs."""
    words = _key_words(m, max(fan_ins, default=0))
    return {f"the fixed tables and the index arrays of {m} inputs":
            _FIXED_BYTES + _INPUT_BYTES * m,
            **{f"{count} distinct gate(s) of {k} inputs":
               count * _gate_bytes(k, words)
               for k, count in sorted(fan_ins.items())}}


def _first_occurrences(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct columns of keys, shape (words, n), in order of
    first occurrence: the id of every column, and the first column of
    every id."""
    # word by word, every sort after the first stable, as np.lexsort does;
    # a key's first occurrence is the least position among its equals
    order = np.argsort(keys[0])
    for more in keys[1:]:
        order = order[np.argsort(more[order], kind="stable")]
    ranked = keys[:, order]
    new = np.ones(len(order), dtype=bool)   # in key order: a new key
    np.any(ranked[:, 1:] != ranked[:, :-1], axis=0, out=new[1:])
    del ranked
    heads = np.minimum.reduceat(order, np.flatnonzero(new))
    first = np.zeros(len(order), dtype=bool)
    first[heads] = True
    # a key's id: the first occurrences before its own
    run = np.cumsum(new)
    run -= 1
    ids = np.empty(len(order), dtype=np.intp)
    ids[order] = (np.cumsum(first) - 1)[heads][run]
    return ids, np.flatnonzero(first)


def sym_init(c: SymCircuit, assignment) -> SymState:
    """Give every tracked subset an id and count, for each, the gates
    containing it whose inputs outside it are all set.

    Each distinct gate of k inputs lays out its 2^k subsets, the empty
    one first, in the order of the bitmasks r over its sorted inputs; the
    gates follow each other in order of first appearance.  Every subset
    is keyed by its inputs packed into 64-bit words (`_digit_bits`), and
    one sort of all keys finds each subset's first occurrence: ids number
    the first occurrences in layout order, so the empty set is 0.  The
    first occurrence of a subset A gives one (id(A∖{x}), id(A)) row per
    input x of A, in order of id(A), and a stable sort by x groups them
    into `affected[x]`, views of one array."""
    assignment = [bool(b) for b in assignment]
    if len(assignment) != c.m:
        raise CircuitError(f"assignment must have {c.m} bits")
    gates = Counter(c.gates)
    sizes = np.fromiter(map(len, gates), dtype=np.intp, count=len(gates))
    check_fits("the symmetric-circuit counters", _footprint(
        c.m, {k: count for k, count in enumerate(np.bincount(sizes).tolist())
              if count}))
    widest = int(sizes.max(initial=0))
    bits = _digit_bits(c.m)
    per = 63 // bits                        # digits per word
    words = _key_words(c.m, widest)
    # place[w, r]: the multiple of a digit that puts it in word w of a
    # key, in the slot after the last input of subset r (0 in other words)
    word, slot = np.divmod(_popcounts(max(widest - 1, 0)), per)
    place = np.where(word == np.arange(words)[:, None],
                     np.left_shift(1, slot * bits), 0)
    flat = np.fromiter(itertools.chain.from_iterable(gates), dtype=np.intp,
                       count=int(sizes.sum()))
    # each gate's inputs in increasing order
    flat = flat[np.lexsort((flat, np.repeat(np.arange(len(sizes)), sizes)))]
    lead = np.cumsum(sizes) - sizes         # gate -> index of its first input
    spans = np.left_shift(1, sizes)
    ends = np.cumsum(spans)
    starts = ends - spans                   # gate -> position of its ∅
    total = int(spans.sum())
    # subset r + 2^j of a gate, for r < 2^j, is subset r with the gate's
    # input j added
    keys = np.zeros((words, total), dtype=np.int64)
    for j in range(widest):
        wide = np.flatnonzero(sizes > j)
        low = starts[wide, None] + np.arange(1 << j)
        keys[:, low + (1 << j)] = keys[:, low] + \
            (flat[lead[wide] + j, None] + 1) * place[:, None, :1 << j]

    ids, home = _first_occurrences(keys)
    subsets = keys[:, home].T
    del keys

    # subset r of a gate counts the gate's copies when r holds every
    # input of the gate that is not set
    unset = ~np.array(assignment, dtype=bool)[flat]
    off = np.add.reduceat(unset << (np.arange(len(flat)) - np.repeat(lead, sizes)),
                          lead)
    r = np.arange(total)
    r -= np.repeat(starts, spans)
    off = np.repeat(off, spans)
    np.bitwise_and(r, off, out=r)
    counted = r == off
    del r, off
    weights = np.repeat(np.fromiter(gates.values(), dtype=np.float64,
                                    count=len(gates)), spans)
    weights *= counted
    del counted
    values = np.bincount(ids, weights, minlength=len(home)).astype(np.int64)
    del weights

    # the rows: pair p is input j of subset `of[p]`, in order of id, then j
    gate = np.searchsorted(ends, home, side="right")
    r = (home - starts[gate]).astype("<i8")
    of = np.flatnonzero(np.unpackbits(r.view(np.uint8).reshape(-1, 8), axis=1,
                                      count=widest, bitorder="little"))
    del r
    j = (of % max(widest, 1)).astype(np.uint8)
    of //= max(widest, 1)
    at = lead[gate][of]
    at += j
    owner = flat.astype(np.min_scalar_type(c.m))[at]
    del gate, at
    rows = np.argsort(owner, kind="stable")
    bounds = np.zeros(c.m + 1, dtype=np.intp)
    np.cumsum(np.bincount(owner, minlength=c.m), out=bounds[1:])
    del owner
    # column-major, so that the two columns a flip reads are contiguous;
    # each column is written in place (take writes to out unbuffered in
    # mode "clip", which never clips here: every index is in range)
    table = np.empty((2, len(rows)), dtype=np.intp)
    np.take(of, rows, out=table[1], mode="clip")
    del of
    j = j[rows]
    del rows
    at = home[table[1]]
    at -= np.left_shift(np.intp(1), j)      # the position of A∖{x}
    del j
    np.take(ids, at, out=table[0], mode="clip")
    table = table.T
    lows, highs = bounds[:-1].tolist(), bounds[1:].tolist()
    affected = {x: table[lo:hi] for x, (lo, hi) in enumerate(zip(lows, highs))}
    return SymState(c, assignment, subsets, values, affected)


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
