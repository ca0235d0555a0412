"""Self-test of the benchmark's own checks; needs no server and no data.

Usage (from the repository root): ``python3 perfbench/selftest.py``

1. A deliberately corrupted estimate is counted as a failed operation:
   the load generator runs against a stub server that answers one
   request with a wrong value; the run then counts one failed operation,
   so it is not correct, and the phase misses its latency limit.
2. Every metric name prints with its unit; one a workload does not
   measure prints as absent, with no samples; and the metric lists in
   ``BENCHMARK.json`` match the ones the code reports.
3. The nearest-rank p99 of 1000 samples leaves ten samples beyond it.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import loadgen
import stats
from rollup import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORRUPTED = 3  # the request the stub answers wrongly


class _Stub(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args) -> None:
        pass

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        self.rfile.read(int(self.headers["Content-Length"]))
        index = int(self.headers["X-Bench-Id"].split(":")[1])
        value = 10.0 * index + (1.0 if index == CORRUPTED else 0.0)
        body = json.dumps({"estimates": [value], "version": 1}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def check_corrupted_estimate() -> list[str]:
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        n = 20
        spec = {
            "host": "127.0.0.1", "port": server.server_address[1],
            "keepalive": True, "connections": 2, "timeout": 5.0,
            "label": "stub", "rows": [], "attributes": [],
            "phases": [{
                "name": "base", "rate": 200.0,
                "limit_ms": {"read": 100.0, "update": 1000.0},
                "lanes": {"read": 2},
                "requests": [[0.005 * i, "read", {"a": "x"}, 10.0 * i] for i in range(n)],
            }],
        }
        (phase,) = loadgen.run(spec)["phases"]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)
    problems = []
    failed = [i for i, r in zip(phase["ids"], phase["records"]) if not r[2]]
    if failed != [CORRUPTED]:
        problems.append(f"expected only request {CORRUPTED} to fail, got {failed}")
    detail = phase["records"][phase["ids"].index(CORRUPTED)][4]
    if "wrong estimate" not in str(detail):
        problems.append(f"the failure does not name the wrong estimate: {detail!r}")

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    run = workloads.Run(root=ROOT, seed=0, seconds=1, trace=False, work=HERE)
    workloads.account(run, phase)
    if (run.attempted, run.failed) != (n, 1):
        problems.append(f"accounting gave attempted={run.attempted} failed={run.failed}")
    if workloads.Traffic.passes(phase):
        problems.append("a phase with a wrong answer in 20 still meets the p99 limit")
    return problems


def check_metric_names() -> list[str]:
    import run as entry

    problems = []
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    reported = {name: unit for name, (unit, _) in entry.END_TO_END.items()}
    if declared != reported:
        problems.append(f"end_to_end in BENCHMARK.json {declared} != reported {reported}")
    layers = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    if layers != LAYER_METRICS:
        problems.append("per_layer in BENCHMARK.json differs from rollup.LAYER_METRICS")

    fake = type("R", (), {})()
    fake.seed, fake.attempted, fake.failed, fake.failures = 0, 1, 0, []
    fake.record = {"workload": "selftest"}
    fake.metrics = {name: (1.5, unit, 3) for name, unit in {**reported, **entry.INFORMATIONAL}.items()}
    fake.layers = {}
    text = entry.table(fake, trace=False) + "\n" + entry.table(fake, trace=True)
    lines = text.splitlines()
    for name, unit in {**reported, **entry.INFORMATIONAL, **LAYER_METRICS, "error_rate": "ratio"}.items():
        if not any(line.split()[:1] == [name] and f" {unit}" in line for line in lines):
            problems.append(f"metric {name} does not print with its unit {unit}")
    # A workload that does not send an operation over HTTP prints its
    # metrics as absent, with no samples.
    fake.metrics = {name: (1.5, unit, 3) for name, unit in reported.items()}
    lines = entry.table(fake, trace=False).splitlines()
    for name, unit in entry.INFORMATIONAL.items():
        if not any(line.split()[:4] == [name, "-", unit, "n=0"] for line in lines):
            problems.append(f"absent metric {name} does not print as '- {unit} n=0'")
    return problems


def check_percentile() -> list[str]:
    values = list(range(1, 1001))
    p99 = stats.percentile(values, 99)
    beyond = sum(1 for v in values if v > p99)
    return [] if beyond == 10 else [f"p99 of 1000 samples leaves {beyond} beyond it"]


def main() -> int:
    problems = check_corrupted_estimate() + check_metric_names() + check_percentile()
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} failure(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
