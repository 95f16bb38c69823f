"""The four workloads and the closed loop that measures them.

One caller in one thread sends the next change only after the previous
change and its check have completed.  A run sets up, then plays blocks
of the same make-up until its time is up; each block's targets are set
up before its clock starts.
"""

from __future__ import annotations

import array
import gc
import math
import resource
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

from dyncomplab.oracle import QueryId
from dyncomplab.structures import INSERT, Structure

import inputs

CHECK_EVERY = 4
DIRECT_EVERY = 53
# Before the first block, set-up is timed at least SETUP_REPEATS times
# and until it has taken SETUP_SHARE of the run's seconds, at most
# SETUP_MOST times.  SETUP_SAMPLES calibration samples follow every
# set-up that ends SETUP_SAMPLE_S or more after the last samples, and
# the last set-up; shorter set-ups run back to back, so that the
# samples do not evict what they use from the cache.
SETUP_REPEATS = 3
SETUP_SHARE = 0.1
SETUP_MOST = 10000
SETUP_SAMPLES = 3
SETUP_SAMPLE_S = 0.01
# The package calls whose time is set-up time.
SETUP_CALLS = ("build", "init_state", "fo_degk", "fo_logn", "sym_init")
# Stream workloads time their changes in windows of this many.
WINDOW = 16
# Latencies kept per segment; longer segments keep an even subsample.
SEGMENT_SAMPLES = 128


class BenchError(Exception):
    """The benchmark cannot run against this source tree."""


class Calibration:
    """A fixed piece of work, independent of the package, timed after
    every timed segment.

    Other tenants of a shared machine slow its CPU, for stretches from a
    fraction of a second to minutes, and the share of a run they slow
    varies from run to run.  The mean time of this work over a run
    follows that share, so every reported change timing is scaled by
    NOMINAL_S over it, that is, given in seconds of a machine on which
    the work takes NOMINAL_S on average.  On the 2-core machine the
    baseline was measured on, a run's changes_per_s correlated 0.9 with
    the inverse of this mean, and the scaling halved the spread between
    runs.  Set-up, which runs before the changes, is scaled by samples
    taken between its repeats; the median set-up time of graph-large-n
    took values 1.6x apart from run to run without it, and 1.15x with
    it.
    """

    NOMINAL_S = 0.0005

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a, self.b = rng.integers(0, 2, (2, 1 << 16), dtype=np.uint8).astype(bool)
        self.times: list[float] = []

    def run(self) -> None:
        t0 = perf_counter()
        acc = 0
        for i in range(1500):
            acc = (acc * 31 + hash((i, acc & 1023))) & 0xFFFFFFFF
        np.count_nonzero(self.a & ~self.b)
        self.times.append(perf_counter() - t0)

    def scale(self) -> float:
        """Reported seconds per measured second."""
        return self.NOMINAL_S / statistics.fmean(self.times)


@dataclass(frozen=True)
class Segment:
    """A timed stretch of changes with their checks, or an audit."""

    seconds: float
    changes: int
    latencies: array.array
    tag: str = ""


class Meter:
    """What a run attempted, what failed, and how long it took.

    Time is recorded per segment, and set-up per call into the package.
    Segments made while `tag` is set carry it, and are measured apart
    from the others.
    """

    def __init__(self):
        self.changes = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # per set-up, the time of each of its calls into the package
        self.setups: list[list[float]] = []
        self.setup_calibration = Calibration()
        self.segments: list[Segment] = []
        self.calibration = Calibration()
        self.tag = ""
        self._latencies = array.array("d")
        self._start = (perf_counter(), 0)

    def begin(self) -> None:
        self._latencies = array.array("d")
        self._start = (perf_counter(), self.changes)

    def end(self) -> None:
        seconds = perf_counter() - self._start[0]
        kept = self._latencies
        if len(kept) > SEGMENT_SAMPLES:
            kept = kept[::math.ceil(len(kept) / SEGMENT_SAMPLES)]
        self.segments.append(
            Segment(seconds, self.changes - self._start[1], kept, self.tag))
        self.calibration.run()

    @staticmethod
    def timed(fn: Callable, times: list[float]) -> Callable:
        """`fn`, recording the time of each call into `times`."""
        def call(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            times.append(perf_counter() - t0)
            return out
        return call

    def changed(self, seconds: float) -> None:
        self.attempted += 1
        self.changes += 1
        self._latencies.append(seconds)

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def verdict(self, what: str, compare: Callable, *args) -> None:
        """Run one check or audit; it passes when `compare` returns a true
        bool or an empty list of discrepancies."""
        try:
            result = compare(*args)
        except Exception as exc:  # a raising oracle or audit is a failure
            self.fail(f"{what}: {type(exc).__name__}: {exc}")
            return
        if isinstance(result, list):
            ok, detail = not result, f": {result[:3]}"
        else:
            ok, detail = bool(result), ""
        if ok:
            self.attempted += 1
        else:
            self.fail(f"{what} disagrees{detail}")

    def measured(self, tag: str) -> list[Segment]:
        return [s for s in self.segments if s.tag == tag]

    def changes_per_s(self, tag: str = "") -> float:
        segments = self.measured(tag)
        changes = sum(s.changes for s in segments)
        return changes / sum(s.seconds for s in segments) if changes else 0.0

    def latency_ms(self, percentile: float, tag: str = "") -> float:
        """A percentile of the change latencies, each latency weighted by
        the changes it stands for."""
        values, weights = [], []
        for s in self.measured(tag):
            if s.latencies:
                values.append(np.frombuffer(s.latencies))
                weights.append(np.full(len(s.latencies), s.changes / len(s.latencies)))
        if not values:  # every change failed
            return 0.0
        return float(np.percentile(np.concatenate(values), percentile,
                                   weights=np.concatenate(weights),
                                   method="inverted_cdf")) * 1e3

    def setup_s(self) -> float:
        """The median, over the set-ups, of the time spent in their calls
        into the package."""
        return statistics.median(map(sum, self.setups))


# ------------------------------------------------------------------ targets

def _query(program: str) -> QueryId:
    kind, _, k = program.rpartition("_")
    if program == "parity":
        return QueryId("parity")
    if program == "parity_degree_div3":
        return QueryId("parity_degree_div3")
    if kind == "size":
        return QueryId("size_k", int(k))
    return QueryId("parity_exists_deg", int(k))


def oracle_answer(L, program: str, s: Structure):
    if program.startswith("degree_rel_"):
        k = int(program.rsplit("_", 1)[1])
        return {(w,) for w in L.indegree_buckets(s, k)[k]}
    return L.eval_query(_query(program), s)


class Shadow:
    """The input structure as the benchmark's own record of the changes
    sent; the oracle reads it, never a target's view of its input."""

    def __init__(self, n: int, schema):
        self.n = n
        self.arities = dict(schema)
        self.contents = {rel: set() for rel in self.arities}

    def apply(self, c) -> None:
        if c.op == INSERT:
            self.contents[c.relation].add(c.args)
        else:
            self.contents[c.relation].discard(c.args)

    def structure(self) -> Structure:
        return Structure.make(self.n, self.arities, self.contents)


class ProgramTarget:
    """A catalog program's state; a change is one `interpreter.step`."""

    def __init__(self, L, program, name: str, n: int):
        self.name = name
        self.state = L.init_state(program, n)

    def change(self, L, c) -> None:
        self.state = L.step(self.state, c)

    def answer_matches(self, L, shadow: Shadow) -> bool:
        return self.state.answer() == oracle_answer(L, self.name, shadow.structure())

    def audit(self, L, shadow: Shadow) -> list[str]:
        return [str(d) for d in L.audit_program_state(self.state)]


class EngineTarget:
    """A first-order engine; a change is one `apply`."""

    def __init__(self, name: str, engine, query: QueryId):
        self.name = name
        self.engine = engine
        self.query = query

    def change(self, L, c) -> None:
        L.apply(self.engine, c)

    def answer_matches(self, L, shadow: Shadow) -> bool:
        if L.counter is not None:
            L.counter.add("fo_engines.store_size", len(self.engine.store_pairs()))
        return self.engine.answer() == L.eval_query(
            self.query, L.graph_structure(self.engine))

    def audit(self, L, shadow: Shadow) -> list[str]:
        bad = [str(d) for d in L.audit_fo_state(self.engine)]
        seen = L.graph_structure(self.engine)
        if any(seen.tuples(rel) != shadow.contents[rel] for rel in ("E", "R")):
            bad.append("engine graph differs from the changes sent")
        return bad


def drive(L, meter: Meter, live: list, shadow: Shadow, changes,
          windows: bool = False) -> None:
    """Send every change to every live target, in lockstep, and check
    answers every CHECK_EVERY changes and at the end.  A target whose
    change raises is dropped from `live`.  With `windows`, every WINDOW
    changes are a segment."""
    n = shadow.n
    for t, c in enumerate(changes, start=1):
        if windows and (t - 1) % WINDOW == 0:
            meter.begin()
        shadow.apply(c)
        for target in list(live):
            t0 = perf_counter()
            try:
                target.change(L, c)
            except Exception as exc:  # counted; the stream goes on without it
                meter.fail(f"{target.name} n={n} change {t} ({c}): "
                           f"{type(exc).__name__}: {exc}")
                live.remove(target)
                continue
            meter.changed(perf_counter() - t0)
        if t % CHECK_EVERY == 0 or t == len(changes):
            for target in live:
                meter.verdict(f"{target.name} n={n} answer after change {t}",
                              L.check, target.answer_matches, L, shadow)
        if windows and (t % WINDOW == 0 or t == len(changes)):
            meter.end()


def audit(L, meter: Meter, targets, shadow: Shadow) -> None:
    """Audit every target's full state, as one segment."""
    meter.begin()
    for target in targets:
        meter.verdict(f"{target.name} n={shadow.n} audit", L.check,
                      target.audit, L, shadow)
    meter.end()


# ---------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Workload:
    """`context` builds what every block shares, `prepare` sets up one
    block's targets (given the previous block's, or None), `play` sends
    the block's changes.  Set-up time is that of the SETUP_CALLS that
    `context` and `prepare` of block 0 make."""

    name: str
    why: str
    blocks: Callable
    context: Callable
    prepare: Callable
    play: Callable


def _build(L, names) -> dict:
    programs = {}
    for name in names:
        programs[name] = L.build(name)
        want = dict(inputs.schema_of(name))
        if dict(programs[name].input_schema) != want:
            raise BenchError(f"{name} has input schema "
                             f"{dict(programs[name].input_schema)}, "
                             f"the benchmark generates {want}")
    return programs


def _catalog_prepare(L, programs, scripts, previous):
    return [ProgramTarget(L, programs[s.program], s.program, s.n) for s in scripts]


def _catalog_play(L, meter, programs, scripts, targets):
    """Each script is a segment, its audit another."""
    for script, target in zip(scripts, targets):
        live = [target]
        shadow = Shadow(script.n, inputs.schema_of(script.program))
        meter.begin()
        drive(L, meter, live, shadow, script.changes)
        meter.end()
        if script.audit:
            audit(L, meter, live, shadow)


GRAPH_PROGRAMS = ("degree_rel_3", "parity_degree_div3")


@dataclass
class Group:
    """Targets that take the same stream, and the benchmark's record of
    the stream so far."""

    live: list
    shadow: Shadow


def _graph_prepare(L, programs, stream, previous):
    return Group([ProgramTarget(L, programs[name], name, inputs.GRAPH_N)
                  for name in GRAPH_PROGRAMS],
                 Shadow(inputs.GRAPH_N, inputs.GRAPH))


def _graph_play(L, meter, programs, stream, group):
    drive(L, meter, group.live, group.shadow, stream.changes, windows=True)
    audit(L, meter, group.live, group.shadow)


def _fo_prepare(L, context, stream, previous):
    """Engines for the warm-up; later blocks continue its stream."""
    if previous is not None:
        return previous
    n = inputs.GRAPH_N
    return Group([EngineTarget("fo-degk", L.fo_degk(n, 2),
                               QueryId("parity_exists_deg", 2)),
                  EngineTarget("fo-logn", L.fo_logn(n),
                               QueryId("parity_exists_deg_logn"))],
                 Shadow(n, inputs.COLOURED_GRAPH))


def _fo_play(L, meter, context, stream, group):
    """The warm-up is checked, but not timed."""
    drive(L, meter, group.live, group.shadow, stream.changes,
          windows=stream.measured)
    if stream.measured:
        audit(L, meter, group.live, group.shadow)


def _sym_prepare(L, context, circuits, previous):
    """Circuits, their states and the benchmark's own copy of their
    assignments; later rounds flip on from where the last one ended."""
    if previous is not None:
        return previous
    out = []
    for c in circuits:
        circuit = L.make_circuit(c.m, 6, c.gates, c.h)
        out.append((circuit, L.sym_init(circuit, c.assignment), list(c.assignment)))
    return out


def _direct_matches(L, answer, circuit, assignment) -> bool:
    return answer == L.sym_eval_direct(circuit, assignment)


def _sym_play(L, meter, context, circuits, targets):
    """One segment per circuit."""
    counter = L.counter
    for index, (c, (circuit, state, assignment)) in enumerate(zip(circuits, targets)):
        meter.begin()
        answer = L.sym_output(state)
        for f, x in enumerate(c.flips):
            if counter is not None:
                counter.flip(state, x)
            t0 = perf_counter()
            try:
                L.sym_flip(state, x)
            except Exception as exc:  # counted; the circuit is abandoned
                meter.fail(f"circuit {index} flip {f} (x={x}): "
                           f"{type(exc).__name__}: {exc}")
                break
            meter.changed(perf_counter() - t0)
            assignment[x] = not assignment[x]
            answer = L.sym_output(state)
            if f % DIRECT_EVERY == 0 or f == len(c.flips) - 1:
                meter.verdict(f"circuit {index} output after flip {f}",
                              L.check, _direct_matches, L, answer, circuit,
                              assignment)
        meter.end()


WORKLOADS = {w.name: w for w in (
    Workload("catalog-mix",
             "all 11 catalog programs at n 4..12, scripts of 8..48 changes: "
             "rule evaluation bound by the per-step AST walk",
             inputs.catalog_blocks, lambda L: _build(L, inputs.CATALOG),
             _catalog_prepare, _catalog_play),
    Workload("graph-large-n",
             "degree_rel_3 and parity_degree_div3 at n=128 on long edge "
             "streams: steps bound by numpy work on n^3 arrays",
             inputs.graph_blocks, lambda L: _build(L, GRAPH_PROGRAMS),
             _graph_prepare, _graph_play),
    Workload("fo-churn",
             "fo-degk (k=2) and fo-logn at n=128 churning near 1.5n edges: "
             "the only workload the first-order engines serve",
             inputs.fo_blocks, lambda L: None, _fo_prepare, _fo_play),
    Workload("sym-flips",
             "1000 flips on each circuit of the acceptance distribution: "
             "the only workload of the symmetric-circuit counters",
             inputs.sym_blocks, lambda L: None, _sym_prepare, _sym_play),
)}


# ------------------------------------------------------------------ runs

def set_up(L, workload: Workload, block, meter: Meter):
    """Set `block` up once, timing each set-up call into the package;
    returns its context and targets.

    What is alive when the set-up starts, the benchmark's own objects and
    the targets of the blocks in play, is frozen out of the garbage
    collector's reach while it runs.  The collections the set-up triggers
    then scan only what it allocates itself; otherwise their cost, most
    of sym_init's time, would follow the size of the benchmark's heap.
    """
    plain = {name: getattr(L, name) for name in SETUP_CALLS}
    times: list[float] = []
    for name, fn in plain.items():
        setattr(L, name, meter.timed(fn, times))
    gc.freeze()
    try:
        context = workload.context(L)
        targets = workload.prepare(L, context, block, None)
    finally:
        gc.unfreeze()
        for name, fn in plain.items():
            setattr(L, name, fn)
    meter.setups.append(times)
    return context, targets


def measure(L, workload: Workload, seed: int, seconds: float, meter: Meter,
            repeats: int = SETUP_REPEATS, setup_share: float = SETUP_SHARE,
            blocks: tuple[int, int | None] = (1, None),
            before_block: Callable[[int], None] | None = None) -> None:
    """Set up, then play blocks until `seconds` have passed, playing
    between `blocks[0]` and `blocks[1]` measured blocks (no upper limit
    when None).  `before_block(k)` runs before each block is played, k
    the number of measured blocks played so far."""
    fewest, most = blocks
    source = workload.blocks(seed)
    first = next(source)
    start = sampled = perf_counter()
    while True:
        # each set-up starts after the last one's objects are freed, so
        # that all of them find the heap in the same state
        context = targets = None
        context, targets = set_up(L, workload, first, meter)
        done = len(meter.setups)
        last = done >= SETUP_MOST or done >= repeats and \
            perf_counter() - start >= setup_share * seconds
        if last or perf_counter() - sampled >= SETUP_SAMPLE_S:
            for _ in range(SETUP_SAMPLES):
                meter.setup_calibration.run()
            sampled = perf_counter()
        if last:
            break
    block = first
    start = perf_counter()
    played = 0
    while True:
        if before_block is not None:
            before_block(played)
        workload.play(L, meter, context, block, targets)
        played += getattr(block, "measured", True)
        if played >= fewest and (perf_counter() - start >= seconds or played == most):
            return
        block = next(source)
        targets = workload.prepare(L, context, block, targets)


def end_to_end(meter: Meter) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, timings in calibrated seconds."""
    scale = meter.calibration.scale()
    return {
        "setup_s": (meter.setup_s() * meter.setup_calibration.scale(), "s"),
        "changes_per_s": (meter.changes_per_s() / scale, "1/s"),
        "change_p50_ms": (meter.latency_ms(50) * scale, "ms"),
        "change_p99_ms": (meter.latency_ms(99) * scale, "ms"),
        "failed_ratio": (meter.failed / meter.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
