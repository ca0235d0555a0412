"""Tracing overhead: the traced runs' end-to-end numbers minus the untraced runs'.

Usage (from the repository root)::

    python3 perfbench/overhead.py --workload read_zipf [--seed 1] [--pairs 4] [--seconds 25]

Runs the workload in ``--pairs`` pairs, one untraced and one traced run
on the same seed per pair (seeds ``--seed``, ``--seed + 1``, ...).
Which run of a pair goes first alternates, so a drift of the host's
speed over time does not land on one side.  A traced run still measures
every end-to-end metric; it reports the per-layer metrics on its last
line, and keeps the end-to-end ones in its record under
``perfbench/results/``.

For each end-to-end metric it prints the untraced median, the median
of the per-pair differences (traced - untraced) and the untraced runs'
own quartile spread (q3 - q1).  A difference no larger than that spread
cannot be told apart from the host's noise, and is printed as
unresolved.
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


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.exit(f"run.py --seed {seed} --trace {trace} failed:\n{done.stderr[-3000:]}")
    record = HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(record.read_text())["metrics"]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=4)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, to give the untraced runs a spread")
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    plain: dict[str, list[float]] = {}
    differences: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for k in range(args.pairs):
        seed = args.seed + k
        runs = {trace: measure(args.workload, seed, seconds, trace)
                for trace in ((0, 1) if k % 2 == 0 else (1, 0))}
        for name, entry in runs[0].items():
            if name in runs[1]:
                plain.setdefault(name, []).append(entry["value"])
                differences.setdefault(name, []).append(runs[1][name]["value"] - entry["value"])
                units[name] = entry["unit"]
        print(f"pair {k + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)

    print(f"{args.workload}, {args.pairs} pairs from seed {args.seed}: traced - untraced")
    for name, values in plain.items():
        q1, _, q3 = statistics.quantiles(values, n=4)
        difference = statistics.median(differences[name])
        verdict = "unresolved" if abs(difference) <= q3 - q1 else "resolved"
        print(f"  {name:22s} untraced {statistics.median(values):10.4g}  "
              f"overhead {difference:+10.4g}  untraced q3-q1 {q3 - q1:10.4g} "
              f"{units[name]:5s} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
