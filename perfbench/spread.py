"""Run a workload on several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload write_mix --seeds 1-10 [--seconds 25]

Runs ``run.py`` once per seed, one after another, then prints for every
end-to-end metric the workload measured, gated or not, its median and
its spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the bound ``BENCHMARK.json`` gives it ("-" when it is not gated).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        if done.returncode != 0:
            print(done.stderr[-3000:], file=sys.stderr)
            print(f"seed {seed}: exit {done.returncode}", file=sys.stderr)
            return 1
        record = json.loads(
            (HERE / "results" / f"{args.workload}-seed{seed}-trace0.json").read_text())
        for name, entry in record["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        print(f"seed {seed}: wall {record['record']['wall_s']} s", file=sys.stderr)

    print(f"{args.workload}: {len(args.seeds)} seeds, {seconds} s runs")
    for name, series in values.items():
        mid = statistics.median(series)
        if len(series) >= 2 and mid:
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = f"{(q3 - q1) / mid:.3f}"
        else:
            spread = "-"
        print(f"  {name:22s} median {mid:12.6g}  spread {spread:>6s}  "
              f"bound {bounds.get(name, '-')}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
