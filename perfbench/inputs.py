"""Seeded input generators for the benchmark workloads.

The benchmark owns these generators so that its traffic changes only when
this file changes.  `BLOCKS[workload](seed)` yields a workload's inputs
block by block, each drawn from `random.Random` seeded with a string
made of the workload, the seed and the block, so a run generates the next
block, outside the timed region, for as long as it measures.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass

from dyncomplab.structures import DELETE, INSERT, Change

SET = (("U", 1),)
GRAPH = (("E", 2),)
COLOURED_GRAPH = (("E", 2), ("R", 1))

# In the grown streams, edge changes outnumber colour changes 3:1.
WEIGHTS = {"U": 1.0, "E": 3.0, "R": 1.0}
# In the acceptance suite's scripts, a change deletes a present tuple
# with this probability.
P_DELETE = 0.45

CATALOG = ("parity", "size_1", "size_2", "size_3", "size_4",
           "degree_rel_1", "degree_rel_2", "degree_rel_3",
           "parity_degree_div3", "parity_exists_prop_3",
           "parity_exists_prop_4")
# The lengths of a program's two scripts at one n add up to this.
PAIR_CHANGES = 56
AUDIT_EVERY = 10

GRAPH_N = 128
GRAPH_STREAM = 256
FO_BLOCK = 256
FLIPS_PER_CIRCUIT = 1000
# sym-flips runs SYM_GRID × SYM_GRID circuits.
SYM_GRID = 8


def schema_of(program: str) -> tuple[tuple[str, int], ...]:
    if program == "parity" or program.startswith("size_"):
        return SET
    if program.startswith("parity_exists_prop_"):
        return COLOURED_GRAPH
    return GRAPH


def target_size(relation: str, n: int) -> int:
    """Size a stream grows a relation to: 1.5·n edges, a quarter of the
    nodes coloured, half of the set."""
    return max(1, {"E": 3 * n // 2, "R": n // 4, "U": n // 2}[relation])


class Relations:
    """The tuples a stream has made present, per relation, with O(1)
    insert, delete and uniform choice."""

    def __init__(self, rng: random.Random, n: int, relations):
        self.rng = rng
        self.n = n
        self.relations = tuple(relations)
        # per relation: the present tuples, plus their positions
        self.present = {rel: [] for rel, _ in self.relations}
        self.where = {rel: {} for rel, _ in self.relations}

    def take(self, length: int) -> tuple[Change, ...]:
        return tuple(self.next() for _ in range(length))

    def insert(self, rel: str, arity: int) -> Change:
        present, where = self.present[rel], self.where[rel]
        while True:
            args = tuple(self.rng.randrange(self.n) for _ in range(arity))
            if args not in where:
                break
        where[args] = len(present)
        present.append(args)
        return Change(INSERT, rel, args)

    def delete(self, rel: str) -> Change:
        present, where = self.present[rel], self.where[rel]
        args = present[self.rng.randrange(len(present))]
        last = present.pop()
        if last != args:
            present[where[args]] = last
            where[last] = where[args]
        del where[args]
        return Change(DELETE, rel, args)


class ScriptStream(Relations):
    """Effective changes with the distribution of the acceptance suite's
    program scripts: the relation is chosen uniformly; a change deletes a
    uniformly chosen present tuple with probability P_DELETE, or when the
    relation is full, and inserts a new tuple otherwise."""

    def next(self) -> Change:
        rng = self.rng
        rel, arity = rng.choice(self.relations)
        size = len(self.present[rel])
        if size and (rng.random() < P_DELETE or size == self.n ** arity):
            return self.delete(rel)
        return self.insert(rel, arity)


class EffectiveStream(Relations):
    """Effective single-tuple changes that grow each relation to its
    target size and then churn around it, relations weighted by WEIGHTS.

    A relation below its target size is only inserted into; at or above
    it, a change is an insert with probability 1/2 - (size - target) /
    (2·target).
    """

    def __init__(self, rng: random.Random, n: int, relations):
        super().__init__(rng, n, relations)
        self.weights = [WEIGHTS[rel] for rel, _ in self.relations]

    def grown(self) -> bool:
        return all(len(self.present[rel]) >= target_size(rel, self.n)
                   for rel, _ in self.relations)

    def grow(self) -> tuple[Change, ...]:
        out = []
        while not self.grown():
            out.append(self.next())
        return tuple(out)

    def next(self) -> Change:
        rng = self.rng
        rel, arity = rng.choices(self.relations, self.weights)[0]
        size = len(self.present[rel])
        target = target_size(rel, self.n)
        p_insert = 1.0 if size < target else \
            max(0.0, 0.5 - (size - target) / (2 * target))
        if size < self.n ** arity and rng.random() < p_insert:
            return self.insert(rel, arity)
        return self.delete(rel)


# ------------------------------------------------------------- catalog-mix

@dataclass(frozen=True)
class Script:
    program: str
    n: int
    changes: tuple[Change, ...]
    audit: bool


def catalog_plan(seed: int) -> list[tuple[str, int, int, bool]]:
    """(program, n, length, audit) for each script of a round.

    Each program gets two scripts at every n of 4..12 (4..10 for
    parity_exists_prop_4), so that no seed weights some n more than
    others; their lengths lie in 8..48 and add up to PAIR_CHANGES.  Every
    AUDIT_EVERY-th script is audited.  The plan is the same in every
    round of a run; the changes are new."""
    rng = random.Random(f"catalog-mix:{seed}")
    plan = []
    for program in CATALOG:
        hi = 10 if program == "parity_exists_prop_4" else 12
        for n in range(4, hi + 1):
            length = rng.randint(8, PAIR_CHANGES - 8)
            for script_length in (length, PAIR_CHANGES - length):
                plan.append((program, n, script_length,
                             len(plan) % AUDIT_EVERY == 0))
    return plan


def catalog_blocks(seed: int):
    plan = catalog_plan(seed)
    for r in itertools.count():
        rng = random.Random(f"catalog-mix:{seed}:{r}")
        yield [Script(program, n,
                      ScriptStream(rng, n, schema_of(program)).take(length),
                      audit)
               for program, n, length, audit in plan]


# ----------------------------------------------------------- graph streams

@dataclass(frozen=True)
class Stream:
    """Changes of one block.  A block that is not `measured` is warm-up,
    checked but left out of the timings; every measured block ends in an
    audit."""

    changes: tuple[Change, ...]
    measured: bool = True


def graph_blocks(seed: int):
    """A new edge stream at n = 128 for every block: 192 inserts, then
    churn around 192 edges."""
    for b in itertools.count():
        rng = random.Random(f"graph-large-n:{seed}:{b}")
        yield Stream(EffectiveStream(rng, GRAPH_N, GRAPH).take(GRAPH_STREAM))


def fo_blocks(seed: int):
    """One stream of edge and colour changes at n = 128 (E:R = 3:1): a
    warm-up growth to 192 edges and 32 coloured nodes, then churn around
    them in blocks of FO_BLOCK changes."""
    stream = EffectiveStream(random.Random(f"fo-churn:{seed}"), GRAPH_N,
                             COLOURED_GRAPH)
    yield Stream(stream.grow(), measured=False)
    while True:
        yield Stream(stream.take(FO_BLOCK))


# --------------------------------------------------------------- sym-flips

@dataclass(frozen=True)
class CircuitInput:
    m: int
    gates: tuple[frozenset[int], ...]
    h: tuple[bool, ...]
    assignment: tuple[bool, ...]
    flips: tuple[int, ...]


def sym_blocks(seed: int):
    """The symmetric-circuit distribution of the acceptance suite (m in
    2..64, 1..200 and-gates of fan-in at most 6) on a grid: circuit
    8i + j takes m from the middle of the i-th eighth of its range and the
    gate count from the middle of the j-th eighth; the gates, their
    fan-ins, h and the starting assignment are drawn.  Every round of a
    run has the same circuits and starting assignments, and new flips."""
    rng = random.Random(f"sym-flips:{seed}")
    circuits = []
    for i in range(SYM_GRID):
        for j in range(SYM_GRID):
            m = 2 + int((i + 0.5) * 63 / SYM_GRID)
            count = 1 + int((j + 0.5) * 200 / SYM_GRID)
            gates = tuple(frozenset(rng.sample(range(m), rng.randint(1, min(6, m))))
                          for _ in range(count))
            h = tuple(rng.random() < 0.5 for _ in range(count + 1))
            circuits.append((m, gates, h, tuple(rng.random() < 0.5 for _ in range(m))))
    for r in itertools.count():
        rng = random.Random(f"sym-flips:{seed}:{r}")
        yield [CircuitInput(m, gates, h, assignment, flips=tuple(
                   rng.randrange(m) for _ in range(FLIPS_PER_CIRCUIT)))
               for m, gates, h, assignment in circuits]


BLOCKS = {
    "catalog-mix": catalog_blocks,
    "graph-large-n": graph_blocks,
    "fo-churn": fo_blocks,
    "sym-flips": sym_blocks,
}


def _canonical(value) -> str:
    """A text form of generated inputs that does not depend on set order."""
    if isinstance(value, (frozenset, set)):
        return "{" + ",".join(sorted(_canonical(v) for v in value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    if isinstance(value, Change):
        return str(value)
    if isinstance(value, (Script, Stream, CircuitInput)):
        return _canonical(tuple(vars(value).values()))
    return repr(value)


def digest(workload: str, seed: int, blocks: int = 3) -> str:
    """sha256 of the first `blocks` blocks a workload generates."""
    h = hashlib.sha256()
    for block in itertools.islice(BLOCKS[workload](seed), blocks):
        h.update(_canonical(block).encode())
    return h.hexdigest()
