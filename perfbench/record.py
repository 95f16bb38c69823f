"""Run the benchmark over many seeds and record a baseline.

    python3 perfbench/record.py --seeds 1-10 [--sets 2] [--traced 1-3]
                                [--workloads fo-churn,...] [--seconds 25]
                                [--write perfbench/baseline.json]

Runs `run.py` once per workload and seed, one run at a time, and prints
for every end-to-end metric its median, its quartiles and its spread: the
distance between the quartiles as a share of the median, which
BENCHMARK.json's bound must exceed.  With `--sets 2` it runs every seed
again after the first set, and compares the second set's medians with the
first's.  `--traced` makes one traced run per seed it names and
workload, for the tracing overhead and the per-layer figures.  With
`--write` it writes the baseline: machine, both sets, tracing overhead,
per-layer figures, input digests and the static rule counts of every
catalog program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGEST_SEED = 1
# Rows of the run's table that are not metrics but say how it was timed.
TIMING = ("calibration_scale",)


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """The run's result line, and its table rows that say how it was timed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    timing = {}
    for line in lines[:-1]:
        name, *rest = line.split()
        if name in TIMING:
            timing[name] = float(rest[0])
    return json.loads(lines[-1]), timing


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def run_set(workload: str, args, bounds: dict) -> dict:
    """One run per seed; the end-to-end metrics' summaries."""
    runs = [run(workload, s, args.seconds, 0) for s in args.seeds]
    results = [r for r, _ in runs]
    out = {"seeds": args.seeds,
           "attempted": sum(r["attempted"] for r in results),
           "failed": sum(r["failed"] for r in results),
           "timing": {name: [t[name] for _, t in runs] for name in TIMING},
           "metrics": {}}
    print(f"{workload}: failed {out['failed']} of {out['attempted']}")
    for name, spec in bounds.items():
        s = summary([r["metrics"][name]["value"] for r in results])
        s.update(unit=spec["unit"], better=spec["better"], bound=spec["bound"])
        out["metrics"][name] = s
        print(f"  {name:16s} median {s['median']:12.6g} {spec['unit']:5s} "
              f"spread {s['spread']:.4f}  bound {spec['bound']}  "
              f"{'ok' if s['spread'] < spec['bound'] / 3 else 'WIDE'}  "
              + " ".join(f"{v:.4g}" for v in s["values"]))
    return out


def compare(first: dict, second: dict) -> dict:
    """Per metric: the second set's median over the first's, and whether
    it is worse by more than the bound."""
    out = {}
    for name, a in first["metrics"].items():
        b = second["metrics"][name]
        ratio = b["median"] / a["median"]
        worse = ratio - 1 if a["better"] == "lower" else 1 / ratio - 1
        out[name] = {"ratio": ratio, "within_bound": worse <= a["bound"]}
        print(f"  {name:16s} second/first median {ratio:.4f}"
              f"{'' if worse <= a['bound'] else '  WORSE THAN BOUND'}")
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--traced", type=seeds, default=[])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--write", type=Path)
    args = ap.parse_args()

    bounds = {m["name"]: m for m in bench["end_to_end"]}
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    names = args.workloads.split(",")
    out = {"workloads": {name: {"why": why[name]} for name in names}}
    for name in names:
        out["workloads"][name].update(run_set(name, args, bounds))
    if args.sets == 2:
        print("second set")
        for name in names:
            entry = out["workloads"][name]
            entry["repeat"] = run_set(name, args, bounds)
            entry["repeat"]["against_first"] = compare(entry, entry["repeat"])
    for name in names:
        if not args.traced:
            break
        entry = out["workloads"][name]
        traced = [run(name, s, args.seconds, 1)[0]["metrics"] for s in args.traced]
        overhead = [m["bench.tracing_overhead"]["value"] for m in traced]
        entry["tracing_overhead"] = {"seeds": args.traced, "values": overhead,
                                     "median": statistics.median(overhead)}
        if len(overhead) > 1:
            q1, _, q3 = statistics.quantiles(overhead, n=4)
            entry["tracing_overhead"].update(q1=q1, q3=q3)
        entry["per_layer"] = {k: v["value"] for k, v in traced[0].items()}
        print(f"{name}: tracing overhead " + " ".join(f"{v:+.3f}" for v in overhead))
    if args.write:
        write(out, args, args.write)
    return 0


def write(out: dict, args, path: Path) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy

    import inputs
    from layers import build_program, rule_counts

    out["machine"] = {"python": platform.python_version(),
                      "numpy": numpy.__version__, "nproc": os.cpu_count(),
                      "machine": platform.machine(), "system": platform.system()}
    out["run_seconds"] = args.seconds
    out["note"] = ("metrics: one run per seed; repeat: the same seeds run "
                   "again after the first set; timing: each run's "
                   "calibration_scale, reported seconds per wall second; "
                   "tracing_overhead: traced over untraced changes_per_s "
                   "minus 1, per traced run")
    for name, entry in out["workloads"].items():
        entry["input_digest"] = {"seed": DIGEST_SEED, "blocks": 3,
                                 "sha256": inputs.digest(name, DIGEST_SEED)}
    out["static_counts"] = {
        name: rule_counts(list(build_program(name).rules.values()))
        for name in inputs.CATALOG}
    path.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
