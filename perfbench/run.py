"""Benchmark entry point.

    python3 perfbench/run.py --workload catalog-mix --seed 1 --seconds 20 --trace 0

Runs one workload in a closed loop against the package source in `src/`
next to this directory, checks every answer it samples against the
oracle, and prints a table and, as its last line, a JSON object with
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` they are the per-layer
spans and work counts.  The exit code is 0 when every change and check
succeeded, 1 when some failed, and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Metrics BENCHMARK.json lists as end-to-end; failed_ratio is printed in
# the table only, since it is 0 on a correct run and the result line
# carries `attempted` and `failed` instead.
END_TO_END = ("setup_s", "changes_per_s", "change_p50_ms", "change_p99_ms",
              "peak_rss_mb")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def load_package():
    """Import the package from SRC, and from nowhere else."""
    if not (SRC / "dyncomplab" / "__init__.py").is_file():
        raise ImportError(f"no package source at {SRC / 'dyncomplab'}")
    sys.path.insert(0, str(SRC))
    import dyncomplab
    if Path(dyncomplab.__file__).resolve().parent != SRC / "dyncomplab":
        raise ImportError(f"dyncomplab was imported from {dyncomplab.__file__}")


def run_untraced(workload, seed, seconds):
    from layers import Layers
    from workloads import Meter, end_to_end, measure

    meter = Meter()
    measure(Layers(), workload, seed, seconds, meter)
    metrics = end_to_end(meter)
    shown = {**metrics, "calibration_scale": (meter.calibration.scale(), "s/s")}
    return meter, {k: metrics[k] for k in END_TO_END}, shown


def run_traced(workload, seed, seconds):
    """Counts over block 0, then blocks alternately untraced and traced,
    in the order untraced, traced, traced, untraced, and so on.  The
    tracing overhead is the traced blocks' changes_per_s over the
    untraced blocks', minus 1: negative when tracing slows the loop."""
    from layers import Counter, Layers, TracedLayers, Tracer
    from workloads import Meter, measure

    meter = Meter()
    layers = Layers()
    counter = Counter(layers)
    try:
        measure(layers, workload, seed, 0, meter, repeats=1, setup_share=0,
                blocks=(1, 1))
    finally:
        counter.close()

    timing = Meter()
    tracer = Tracer()
    layers = TracedLayers(tracer)

    def before_block(played):
        on = played % 4 in (1, 2)
        layers.switch(on)
        timing.tag = "traced" if on else ""

    try:
        measure(layers, workload, seed, seconds, timing, blocks=(2, None),
                before_block=before_block)
    finally:
        layers.close()
        tracer.stop()

    metrics = {**tracer.metrics(), **counter.metrics()}
    untraced = timing.changes_per_s()
    metrics["bench.tracing_overhead"] = (
        timing.changes_per_s("traced") / untraced - 1 if untraced else 0.0,
        "ratio")
    meter.attempted += timing.attempted
    meter.failed += timing.failed
    meter.failures += timing.failures
    return meter, metrics, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_package()
    except ImportError as exc:
        print(f"perfbench: cannot load the package: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, BenchError

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    run = run_traced if args.trace else run_untraced
    try:
        meter, metrics, shown = run(workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    for what in meter.failures:
        print(f"FAILED {what}", file=sys.stderr)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in shown.items():
        print(f"  {name:44s} {value:>16.6g} {unit}")
    print(f"  attempted {meter.attempted}  failed {meter.failed}")
    correct = meter.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": meter.attempted,
        "failed": meter.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
