#!/usr/bin/env python3
"""Benchmark of the steinpi sample -> reweight/thin -> score pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mixture-optimal --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, their times
scaled to a reference host speed (see harness.py); ``--trace 1``
alternates untraced and traced runs and reports the per-layer metrics and
the tracing overhead.  ``--workload all`` runs every workload, each in a
fresh process.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the machine and each metric with its unit.  Run records and
the spans of the last traced run are written to ``perfbench/out/``.

Metric names and units are declared in ``BENCHMARK.json``; a run whose
metrics differ from the declared ones fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def declared_metrics(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args):
    codes = []
    for name in sorted(workloads.WORKLOADS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes.append(subprocess.run(cmd, check=False).returncode)
    return max(codes)


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    # One BLAS thread, like run_experiment(threads=1); must be set before numpy loads.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "steinpi" / "__init__.py").is_file():
        sys.exit(f"perfbench: no steinpi package under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))

    import harness
    from steinpi.experiment import parse_experiment_spec

    harness.check_source(ROOT)
    declared = declared_metrics(args.trace)
    specs = [parse_experiment_spec(cfg) for cfg in workloads.specs(args.workload, args.seed)]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    machine = harness.machine(args.seed)
    print("machine " + json.dumps(machine, sort_keys=True), flush=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, correct, attempted, failed, details, tracer = harness.per_layer(
            specs[0], args.seconds, out_dir
        )
        harness.write_spans(tracer, out_dir / f"{stem}.spans.jsonl.gz")
    else:
        metrics, correct, attempted, failed, details = harness.end_to_end(specs, args.seconds, out_dir)
    if set(metrics) != set(declared):
        sys.exit(f"perfbench: measured metrics {sorted(set(metrics) ^ set(declared))} "
                 "differ from those BENCHMARK.json declares")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "machine": machine, "details": details, "correct": correct, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"correct {correct}  cells {attempted}  failed {failed}")
    for name in declared:
        print(f"  {name:34s} {metrics[name]:>16.6g} {declared[name]}")
    if not args.trace:
        print("  unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in details["unscaled"].items()))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": declared[name]} for name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
