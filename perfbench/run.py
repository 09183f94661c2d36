"""Benchmark of the bisparse package: four recovery workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py                      # every workload, each in its own process
    python3 perfbench/run.py --workload rankone-sym-n24 --seed 3 --seconds 20 --trace 0

`--trace 0` reports the end-to-end metrics of an untraced run, with every
time scaled to a reference machine speed measured in the same run;
`--trace 1` reports the per-layer metrics of a traced run, unscaled (see
harness.py for both).  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Each run also writes its metrics, the environment and
the seed to perfbench/results/.

The package is imported from the src/ directory next to this one and nowhere
else; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
# BLAS threads are pinned so that reductions, and with them iteration counts, repeat exactly
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def import_seconds_in_child() -> float:
    """Time `import bisparse` in a fresh interpreter that has numpy loaded already."""
    code = ("import sys, time, numpy; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import bisparse; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(proc.stdout)


def run_one(args, workloads) -> int:
    if not (SRC / "bisparse" / "__init__.py").is_file():
        print(f"bisparse sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import bisparse
    import_s = time.perf_counter() - start
    if Path(bisparse.__file__).resolve().parent != SRC / "bisparse":
        print(f"imported bisparse from {bisparse.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import harness

    wl = workloads[args.workload]()
    if args.trace:
        line, details = harness.per_layer(bisparse, wl, args.seed, RESULTS)
    else:
        imports = [import_s] + [import_seconds_in_child()
                                for _ in range(harness.SETUP_REPEATS - 1)]
        line, details = harness.end_to_end(bisparse, wl, args.seed, args.seconds,
                                           statistics.median(imports), RESULTS)
        details["import_s"] = imports
    env = environment()
    record = {"workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "details": details, **line}
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"environment {json.dumps(env)}")
    print(f"{wl.name} seed={args.seed} solves={line['attempted']} failed={line['failed']} "
          f"correct={line['correct']}")
    for name, metric in line["metrics"].items():
        print(f"  {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(line))
    return 0


def run_all(args, workloads) -> int:
    """Run each workload in a child process of its own and print every metric."""
    merged = {}
    attempted = failed = 0
    correct = True
    for name in workloads:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited with status {proc.returncode}")
            correct = False
            continue
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        correct = correct and line["correct"]
        attempted += line["attempted"]
        failed += line["failed"]
        print(f"{name}: solves={line['attempted']} failed={line['failed']} "
              f"correct={line['correct']}")
        for metric, value in line["metrics"].items():
            print(f"  {metric:38} {value['value']:>16.6g} {value['unit']}")
            merged[f"{name}/{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if correct else 1


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, WORKLOADS)
    return run_one(args, WORKLOADS)


if __name__ == "__main__":
    sys.exit(main())
