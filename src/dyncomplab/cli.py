"""Command-line entry point.

Subcommands: run, fuzz, oracle, construct, verify-constructions, sym,
validate, fmt.  Every command is deterministic given its flags; the
DYNCOMPLAB_SEED environment variable overrides the default seed.  Reports
print one human-readable line per checkpoint plus (with --json) one JSON
record per checkpoint for machine diffing; fields are documented in the
README.
"""

from __future__ import annotations

import argparse
import itertools
import os
import random
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

from . import constructions as cx
from . import fo_engines as fe
from . import interpreter as ip
from . import oracle as oc
from . import programs as pg
from . import symcircuit as sc
from .driver import ProgramRun, drive
from .structures import (Checkpoint, DynLabError, Structure, apply_change,
                         format_structure, format_script, parse_script,
                         parse_structure)

DEFAULT_SEED = 1729

QUERY_NAMES = {
    "parity": lambda a: oc.QueryId("parity"),
    "size-k": lambda a: oc.QueryId("size_k", _need_k(a)),
    "parity-exists": lambda a: oc.QueryId("parity_exists"),
    "parity-exists-deg": lambda a: oc.QueryId("parity_exists_deg", _need_k(a)),
    "parity-exists-deg-logn": lambda a: oc.QueryId("parity_exists_deg_logn"),
    "parity-degree-div3": lambda a: oc.QueryId("parity_degree_div3"),
}

# target aliases accepted by fuzz/run in addition to catalog names
TARGET_ALIASES = {
    "prop33": lambda k: f"parity_exists_prop_{k if k else 3}",
}


def _need_k(args) -> int:
    if getattr(args, "k", None) is None:
        raise DynLabError("this query needs --k")
    return args.k


def _read(path: str, flag: str) -> str:
    """The text of the file a flag names.  A missing, unreadable or
    non-UTF-8 file is a DynLabError, not a traceback."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DynLabError(f"{flag} {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DynLabError(f"{flag} {path}: not UTF-8 text "
                          f"(byte {exc.start})") from None


def _write(path: str, text: str, flag: str) -> None:
    """Write the file a flag names.  A directory, a missing parent or an
    unwritable file is a DynLabError, not a traceback."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise DynLabError(f"{flag} {path}: {exc.strerror or exc}") from None


def _seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("DYNCOMPLAB_SEED")
    return int(env) if env else DEFAULT_SEED


# ------------------------------------------------------------------ run

def _engine_query(engine: fe.ParityExistsEngine) -> oc.QueryId:
    return oc.QueryId("parity_exists_deg", engine.k)


def cmd_run(args) -> int:
    script = parse_script(_read(args.script, "--script"))
    query = QUERY_NAMES[args.oracle](args) if args.oracle else None
    n = script.domain_size
    if args.engine:
        if args.program:
            raise DynLabError("run takes --program or --engine, not both")
        if args.mode is not None:
            raise DynLabError("--mode applies to --program runs: an engine "
                              "always skips non-effective changes")
        target = fe.FoLogNState(n) if args.engine == "fo-logn" else \
            fe.FoDegKState(n, _need_k(args))
        own = _engine_query(target)
        allowed, choices = {own}, f"parity-exists-deg with --k {target.k}"
        if args.engine == "fo-logn":
            allowed.add(oc.QueryId("parity_exists_deg_logn"))
            choices += " or parity-exists-deg-logn"
        if query is not None and query not in allowed:
            raise DynLabError(f"--oracle {args.oracle} is not the query "
                              f"{args.engine} maintains; use {choices}")
        oracle = partial(oc.eval_query, query or own)
    else:
        if not args.program:
            raise DynLabError("run needs --program or --engine")
        program = ip.parse_program(_read(args.program, "--program"),
                                   name=Path(args.program).stem)
        target = ProgramRun(program, n, args.mode or "skip")
        oracle = partial(oc.eval_query, query) if query else None
    report = drive(target, script, oracle, audit_every=int(args.audit))
    report.emit(as_json=args.json)
    return 1 if report.mismatches else 0


# ----------------------------------------------------------------- fuzz

def _fuzz_target(name: str, n: int, k: int | None):
    """(script profile, fresh-target factory, oracle) for a catalog
    program or an engine."""
    if name in ("fo-degk", "fo-logn"):
        def make():
            return fe.FoLogNState(n) if name == "fo-logn" else \
                fe.FoDegKState(n, 3 if k is None else k)
        return cx.PROFILES["default"], make, \
            partial(oc.eval_query, _engine_query(make()))
    entry = pg.catalog_entry(name)
    program = entry.build()
    if "U" in program.input_schema:
        profile = cx.PROFILES["set"]
    elif "R" in program.input_schema:
        profile = cx.PROFILES["default"]
    else:
        profile = cx.PROFILES["edges"]
    return profile, lambda: ProgramRun(program, n), entry.oracle


def _fuzz_sym(seeds: list[int], flips: int, audit: bool) -> list[str]:
    """Flip random inputs of a random circuit per seed, checking the output
    against direct evaluation after every flip and, with `audit`, every
    counter against its brute-force count after the last flip."""
    failures = []
    for seed in seeds:
        rng = random.Random(seed)
        m = rng.randrange(1, 65)
        fanin = rng.randrange(1, 7)
        gates = [rng.sample(range(m), rng.randrange(1, min(fanin, m) + 1))
                 for _ in range(rng.randrange(0, 201))]
        h = [rng.random() < 0.5 for _ in range(len(gates) + 1)]
        circuit = sc.make_circuit(m, fanin, gates, h)
        assignment = [rng.random() < 0.5 for _ in range(m)]
        state = sc.sym_init(circuit, assignment)
        for t in range(flips):
            x = rng.randrange(m)
            sc.sym_flip(state, x)
            assignment[x] = not assignment[x]
            if sc.sym_output(state) != sc.sym_eval_direct(circuit, assignment):
                failures.append(f"seed {seed}: divergence at flip {t}")
                break
        else:
            if audit and state.counters != sc.counters_reference(circuit,
                                                                 assignment):
                failures.append(f"seed {seed}: counters differ from their "
                                f"brute-force count after flip {flips - 1}")
    return failures


def cmd_fuzz(args) -> int:
    if args.seeds < 1:
        raise DynLabError(f"--seeds must be at least 1, not {args.seeds}")
    if args.length is not None and args.length < 1:
        raise DynLabError(f"--length must be at least 1, not {args.length}")
    base = _seed(args)
    seeds = [base + i for i in range(args.seeds)]
    target = args.target
    if target in TARGET_ALIASES:
        target = TARGET_ALIASES[target](args.k)
    if target == "sym":
        if args.n is not None or args.k is not None:
            raise DynLabError("fuzz --target sym takes no --n or --k: each "
                              "circuit draws its own size and fan-in")
        failures = _fuzz_sym(seeds, args.length or 1000, args.audit)
    else:
        failures = []
        n = 8 if args.n is None else args.n
        profile, make, oracle = _fuzz_target(target, n, args.k)
        if args.length is not None:
            profile = replace(profile, length=args.length)
        for seed in seeds:
            script = cx.random_script(n, profile, seed)
            try:
                report = drive(make(), script, oracle,
                               audit_every=int(args.audit))
            except DynLabError as exc:
                failures.append(f"seed {seed}: {exc}")
                continue
            if report.mismatches:
                r = report.mismatches[0]
                failures.append(f"seed {seed}: first divergence at checkpoint "
                                f"{r.index} (change {r.change_index})")
    for f in failures:
        print(f)
    print(f"{len(seeds)} seeds, {len(failures)} failures")
    return 1 if failures else 0


# --------------------------------------------------------------- oracle

def cmd_oracle(args) -> int:
    query = QUERY_NAMES[args.query](args)
    if args.structure and args.script:
        raise DynLabError("oracle takes --structure or --script, not both")
    if args.structure:
        s = parse_structure(_read(args.structure, "--structure"))
        print(oc.eval_query(query, s))
        return 0
    if not args.script:
        raise DynLabError("oracle needs --structure or --script")
    script = parse_script(_read(args.script, "--script"))
    schema = {"E": 2, "R": 1, "U": 1}
    schema.update(script.declared)
    cur = Structure.make(script.domain_size, schema)
    for entry in script.entries:
        if isinstance(entry, Checkpoint):
            print(oc.eval_query(query, cur))
        else:
            cur = apply_change(cur, entry)
    return 0


# ------------------------------------------------------------ construct

def _parse_collection(n: int, k: int, text: str) -> cx.Collection:
    members = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            members.append({int(x) for x in chunk.split(",")})
        except ValueError:
            raise DynLabError(f"--collection member {chunk!r} is not a "
                              f"comma-separated list of integers") from None
    return cx.make_collection(n, k, members)


def cmd_construct(args) -> int:
    if args.what == "lower-bound":
        col = _parse_collection(args.n, args.k, args.collection or "")
        graph, _, _ = cx.lower_bound_graph(col)
        text = format_structure(graph)
    elif args.what == "fixture":
        text = format_structure(cx.figure_fixture(args.name).graph)
    elif args.what == "script":
        script = cx.random_script(args.n, args.profile, _seed(args))
        text = format_script(script)
    else:
        raise DynLabError(f"unknown construct target {args.what!r}")
    if args.output:
        _write(args.output, text, "-o")
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify_constructions(args) -> int:
    # below these, only the fig4 collection would be checked
    for flag, value, least in (("--n-max", args.n_max, 2),
                               ("--k-max", args.k_max, 0),
                               ("--samples", args.samples, 1)):
        if value < least:
            raise DynLabError(f"{flag} must be at least {least}, not {value}")
    rng = random.Random(_seed(args))
    bad = 0
    fig4 = cx.figure_fixture("fig4")
    if not bool(cx.verify_lower_bound_property(fig4.extra["collection"])):
        print("fig4 collection: FAIL")
        bad += 1
    for n in range(2, args.n_max + 1):
        for k in range(0, args.k_max + 1):
            if n < k + 1:
                continue
            universe = list(itertools.combinations(range(1, n + 1), k + 1))
            exhaustive = 2 ** len(universe) <= args.samples
            if exhaustive:
                pool = [[set(m) for m in members]
                        for r in range(len(universe) + 1)
                        for members in itertools.combinations(universe, r)]
            else:
                pool = [[set(m) for m in rng.sample(
                    universe, rng.randrange(0, len(universe) + 1))]
                    for _ in range(args.samples)]
            for members in pool:
                col = cx.make_collection(n, k, members)
                check = cx.verify_lower_bound_property(col)
                if not check:
                    print(f"n={n} k={k} members={members}: FAIL "
                          f"(counterexample {check.counterexample})")
                    bad += 1
            print(f"n={n} k={k}: {len(pool)} collections "
                  f"({'exhaustive' if exhaustive else 'sampled'}) verified")
    print(f"{bad} violations")
    return 1 if bad else 0


# ------------------------------------------------------------------ sym

def cmd_sym(args) -> int:
    circuit = sc.parse_circuit(_read(args.circuit, "--circuit"))
    assignment = [False] * circuit.m
    state = sc.sym_init(circuit, assignment)
    try:
        flips = [int(x) for x in args.flips.split()]
    except ValueError as exc:
        raise DynLabError(f"--flips takes input indices: {exc}") from None
    bad = 0
    for i, x in enumerate(flips):
        sc.sym_flip(state, x)
        assignment[x] = not assignment[x]
        line = f"flip {x}: activated={state.activated} " \
               f"output={sc.sym_output(state)}"
        if args.check:
            want = sc.sym_eval_direct(circuit, assignment)
            okay = sc.sym_output(state) == want
            line += f" direct={want} [{'ok' if okay else 'MISMATCH'}]"
            bad += 0 if okay else 1
        print(line)
    print(f"final output: {sc.sym_output(state)}")
    return 1 if bad else 0


# ------------------------------------------------------- validate / fmt

def cmd_validate(args) -> int:
    text = _read(args.program, "--program")
    try:
        program = ip.parse_program(text, name=Path(args.program).stem)
    except DynLabError as exc:
        print(f"parse error: {exc}")
        return 1
    print(f"{program.name}: ok ({program.class_claim}, "
          f"max aux arity {ip.max_aux_arity(program)})")
    return 0


def cmd_fmt(args) -> int:
    program = ip.parse_program(_read(args.program, "--program"),
                               name=Path(args.program).stem)
    sys.stdout.write(ip.format_program(program))
    return 0


# ----------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dyncomplab")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a program or engine over a script")
    p.add_argument("--program")
    p.add_argument("--engine", choices=["fo-degk", "fo-logn"])
    p.add_argument("--script", required=True)
    p.add_argument("--oracle", choices=sorted(QUERY_NAMES))
    p.add_argument("--k", type=int)
    p.add_argument("--mode", choices=["skip", "strict"])
    p.add_argument("--audit", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("fuzz", help="seeded differential fuzzing")
    p.add_argument("--target", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--length", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--audit", action="store_true")
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser("oracle", help="evaluate a query from scratch")
    p.add_argument("--query", required=True, choices=sorted(QUERY_NAMES))
    p.add_argument("--k", type=int)
    p.add_argument("--structure")
    p.add_argument("--script")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("construct", help="emit graphs, fixtures, scripts")
    p.add_argument("what", choices=["lower-bound", "fixture", "script"])
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--collection")
    p.add_argument("--name", default="fig1")
    p.add_argument("--profile", default="default")
    p.add_argument("--seed", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("verify-constructions",
                       help="check the subset-family encoding property")
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--k-max", type=int, default=2)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_verify_constructions)

    p = sub.add_parser("sym", help="flip inputs of a symmetric circuit")
    p.add_argument("--circuit", required=True)
    p.add_argument("--flips", default="")
    p.add_argument("--check", action="store_true")
    p.set_defaults(fn=cmd_sym)

    p = sub.add_parser("validate", help="validate a program file")
    p.add_argument("--program", required=True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("fmt", help="pretty-print a program file")
    p.add_argument("--program", required=True)
    p.set_defaults(fn=cmd_fmt)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DynLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
