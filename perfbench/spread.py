"""Run-to-run spread of the end-to-end metrics, against the bounds in BENCHMARK.json.

    python3 perfbench/spread.py --workload rankone-sym-n24 --seeds 1-10

Runs perfbench/run.py once per seed, in a fresh process each time, and
prints for every end-to-end metric the median, the quartiles and the
interquartile range as a share of the median (quartiles as
`statistics.quantiles(values, n=4)` gives them), next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_from(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in seeds_from(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=600)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()), flush=True)
        for name in values:
            values[name].append(line["metrics"][name]["value"])
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        print(f"{metric['name']:16} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {spread:6.3f}  bound {metric['bound']:.2f}  "
              f"{'ok' if spread < metric['bound'] / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
