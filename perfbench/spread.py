"""Run-to-run spread of the end-to-end metrics, for tuning steadiness.

Runs ``run.py`` once per seed, one run at a time, and prints for every
metric the median and the interquartile range as a share of the median
(the quartiles of ``statistics.quantiles(values, n=4)``), next to the
metric's bound from ``BENCHMARK.json``::

    python3 perfbench/spread.py --workload highdim-serve --seeds 1-5

Exits 1 when any spread exceeds a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            check=True, capture_output=True, text=True,
        )
        report = json.loads(out.stdout.strip().splitlines()[-1])
        for name, metric in report["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={report['correct']} "
              f"attempted={report['attempted']} "
              + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()),
              file=sys.stderr)
    steady = True
    print(f"{'metric':<18} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        s = spread(vals)
        flag = ""
        if s > bounds[name] / 3:
            flag, steady = "  > bound/3", False
        print(f"{name:<18} {statistics.median(vals):>12.4f} {s:>8.4f} "
              f"{bounds[name]:>6}{flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
