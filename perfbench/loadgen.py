"""Open-loop HTTP load generator; runs as its own process.

Usage: ``python3 loadgen.py SPEC.json RESULT.json``

The spec (written by ``run.py``) fixes everything: the server address,
whether connections are kept alive, and one or more phases, each a list
of requests with their due times (seconds from the phase start).  Each
phase names its lanes: how many threads (one connection each) carry
each kind of request, e.g. ``{"read": 1, "update": 1}`` for a reader
and a writer that are separate clients.  The lanes never add up to more
than ``connections``.  A request that is due while every connection of
its lane is busy waits for one, and its latency still counts from when
it was due, so a stall on one request shows up in the requests queued
behind it.

Per request it records the latency, whether it failed (non-200,
timeout, refused connection or wrong answer) and how late it was sent.
A phase with ``abort`` set stops early once more requests of one kind
have missed their latency limit than a 99th percentile allows: the
phase has then already failed, and the rest of it would only cost time.

Standard library only, so it starts fast and shares nothing with the
server or the benchmark process.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time

ESTIMATE_HEADERS = {"Content-Type": "application/json"}
PAUSE_S = 0.3  # idle time after each phase, so the next starts on a quiet server


class _Phase:
    def __init__(self, spec: dict, rows: list, attributes: list, label: str):
        self.name = spec["name"]
        self.rate = spec["rate"]
        self.limits = spec["limit_ms"]
        self.abort = spec.get("abort", False)
        self.requests = []
        self.allowed_misses = {}
        for offset, kind, payload, expected in spec["requests"]:
            if kind == "read":
                path = f"/labels/{label}/estimate"
                body = json.dumps({"pattern": payload})
            else:
                path = f"/labels/{label}/update"
                body = json.dumps(
                    {"inserted": [dict(zip(attributes, rows[i])) for i in payload]}
                )
            self.requests.append((offset, kind, path, body.encode(), expected))
            self.allowed_misses[kind] = self.allowed_misses.get(kind, 0) + 1
        for kind, planned in self.allowed_misses.items():
            self.allowed_misses[kind] = planned // 100
        self.records: list = [None] * len(self.requests)
        self.misses = {kind: 0 for kind in self.allowed_misses}
        self.lanes = spec["lanes"]
        self.queues = {
            kind: [i for i, r in enumerate(self.requests) if r[1] == kind]
            for kind in self.lanes
        }
        self.next = {kind: 0 for kind in self.lanes}
        self.aborted = False
        self.lock = threading.Lock()

    def take(self, kind: str) -> int | None:
        with self.lock:
            queue = self.queues[kind]
            if self.aborted or self.next[kind] >= len(queue):
                return None
            self.next[kind] += 1
            return queue[self.next[kind] - 1]

    def record(self, index: int, kind: str, latency_ms: float, ok: bool,
               late_ms: float, detail) -> None:
        self.records[index] = (kind, latency_ms, ok, late_ms, detail)
        if ok and latency_ms <= self.limits[kind]:
            return
        with self.lock:
            self.misses[kind] += 1
            if self.abort and self.misses[kind] > self.allowed_misses[kind]:
                self.aborted = True


def _check(kind: str, status: int, body: bytes, expected):
    """(ok, detail): detail is the update's WAL seq or a failure reason."""
    if status != 200:
        return False, f"HTTP {status}: {body[:200]!r}"
    try:
        payload = json.loads(body)
    except ValueError:
        return False, f"invalid JSON response: {body[:200]!r}"
    if kind == "read":
        values = payload.get("estimates")
        if not isinstance(values, list) or len(values) != 1:
            return False, f"malformed estimate response {payload!r}"
        value = values[0]
        if expected is not None and value != expected:
            return False, f"wrong estimate {value!r}, expected {expected!r}"
        if not isinstance(value, (int, float)) or value < 0:
            return False, f"invalid estimate {value!r}"
        return True, None
    if not payload.get("streamed") or not isinstance(payload.get("seq"), int):
        return False, f"update not streamed: {payload!r}"
    return True, payload["seq"]


def _worker(phase: _Phase, lane: str, start: float, host: str, port: int,
            keepalive: bool, timeout: float) -> None:
    connection = None
    while True:
        index = phase.take(lane)
        if index is None:
            break
        offset, kind, path, body, expected = phase.requests[index]
        due = start + offset
        now = time.perf_counter()
        if due > now:
            time.sleep(due - now)
        sent = time.perf_counter()
        headers = dict(ESTIMATE_HEADERS)
        headers["X-Bench-Id"] = f"{phase.name}:{index}"
        if not keepalive:
            headers["Connection"] = "close"
        try:
            if connection is None:
                connection = http.client.HTTPConnection(host, port, timeout=timeout)
            connection.request("POST", path, body, headers)
            response = connection.getresponse()
            payload = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as exc:
            done = time.perf_counter()
            if connection is not None:
                connection.close()
            connection = None
            phase.record(index, kind, (done - due) * 1e3, False,
                         (sent - due) * 1e3, f"{type(exc).__name__}: {exc}")
            continue
        done = time.perf_counter()
        if not keepalive or response.will_close:
            connection.close()
            connection = None
        ok, detail = _check(kind, status, payload, expected)
        phase.record(index, kind, (done - due) * 1e3, ok, (sent - due) * 1e3, detail)
    if connection is not None:
        connection.close()


def run(spec: dict) -> dict:
    results = []
    for phase_spec in spec["phases"]:
        phase = _Phase(phase_spec, spec["rows"], spec["attributes"], spec["label"])
        if sum(phase.lanes.values()) > spec["connections"]:
            raise ValueError(f"phase {phase.name!r} has more lanes than connections")
        unserved = {r[1] for r in phase.requests} - phase.lanes.keys()
        if unserved:
            raise ValueError(f"phase {phase.name!r} has no lane for {sorted(unserved)}")
        start = time.perf_counter() + 0.1
        threads = [
            threading.Thread(
                target=_worker,
                args=(phase, lane, start, spec["host"], spec["port"],
                      spec["keepalive"], spec["timeout"]),
            )
            for lane, count in phase.lanes.items()
            for _ in range(count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        results.append({
            "name": phase.name,
            "rate": phase.rate,
            "planned": len(phase.requests),
            "aborted": phase.aborted,
            "records": [r for r in phase.records if r is not None],
            "ids": [i for i, r in enumerate(phase.records) if r is not None],
        })
        time.sleep(PAUSE_S)
    return {"phases": results}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: loadgen.py SPEC.json RESULT.json", file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        spec = json.load(handle)
    if spec["connections"] < 1:
        print("connections must be >= 1", file=sys.stderr)
        return 2
    result = run(spec)
    with open(argv[1], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
