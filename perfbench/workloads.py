"""The three workloads: ``fit``, ``read_zipf`` and ``write_mix``.

Each workload runs the real user path and fills a :class:`Run` with
end-to-end metrics, per-layer metrics (traced runs only), attempted and
failed operation counts, and a record of what it did.  Why each
workload exists, and which layer each one should and should not move,
is in ``README.md`` next to this file.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import rollup
import stats
from server import Server

from repro import LabelingSession, Pattern
from repro.dataset.table import Dataset

HERE = Path(__file__).resolve().parent

#: Load generator connections (and threads): the host's 2 cores.
CONNECTIONS = 2
READ_LIMIT_MS = 100.0  # an interactive profiling query
UPDATE_LIMIT_MS = 1000.0  # an ingest acknowledgement
LIMITS = {"read": READ_LIMIT_MS, "update": UPDATE_LIMIT_MS}
SETUP_REPEATS_FIT = 5  # data generations timed before, and again after, the fits
#: Server launches timed for the serve workloads' setup_s: before the
#: traffic (the last of these serves it), and after it.
SETUP_LAUNCHES_BEFORE = 3
SETUP_LAUNCHES_AFTER = 2
MIN_FITS = 3
SERVE_FITS = 2  # fits timed on the serve workloads before the pack is built
FIT_SHARE = 0.6  # of --seconds spent repeating the fit on the fit workload
HELD_OUT_PATTERNS = 5000
UPDATE_BATCH_ROWS = 20
ROW_POOL = 4096

#: read_zipf: keep-alive connections, zipf(1.1) over 20,000 distinct
#: patterns, 20x the result cache.  Base rate rung 54 = 13.9 req/s:
#: roughly 6-15% of keep-alive reads then pay the 40 ms delayed-ACK
#: stall, so p95 lands on it, while a read queued behind two stalled
#: ones (~80 ms), which needs a burst of arrivals, stays rarer than 5%.
#: At 12 req/s some seeds stall under 5% of reads; at 16 req/s some
#: queue over 5% behind two stalls.
ZIPF_S = 1.1
ZIPF_DISTINCT = 20_000
ZIPF_BASE_RUNG = 54
ZIPF_WARMUP = {"rate": 500.0, "seconds": 2.0}
ZIPF_PROBE_SHARE = 0.08  # of --seconds per probe
#: write_mix: fresh connections, unrepeated uniform estimates and a
#: fixed 1/6 share of 20-row update batches, from a reader and a writer
#: on one connection each.  Base rate rung 74 = 37.0 req/s, so ~6
#: updates/s.  Every 8th batch runs a ~230 ms drift recount inline and
#: the next batches queue behind it, which puts update p90 inside the
#: recount's shadow and update p50 outside it.  The write path's backlog
#: grows beyond ~30 updates/s.
WRITE_SHARE = 1 / 6
MIX_BASE_RUNG = 74
CHECK_SAMPLE = 200

#: Capacity search over the ladder: gallop up (or down) from the base
#: rung in steps of GALLOP rungs, then bisect; at most MAX_PROBES probes.
GALLOP = 8
MAX_PROBES = 2
PROBE_SHARE = 0.1  # of --seconds per probe

#: Stream ids: each input gets its own generator from (seed, stream).
HELD_OUT, ZIPF_SET, ZIPF_REQ, UNIFORM, ROWS, MIX, CHECK = range(7)


def settings() -> dict:
    """The fixed load parameters, recorded with every run."""
    return {
        "ladder": {"first_rps": stats.LADDER_BASE, "ratio": stats.LADDER_RATIO,
                   "rungs": stats.LADDER_RUNGS},
        "base_rates_rps": {"read_zipf": stats.rung(ZIPF_BASE_RUNG),
                           "write_mix": stats.rung(MIX_BASE_RUNG)},
        "write_share": WRITE_SHARE,
        "update_batch_rows": UPDATE_BATCH_ROWS,
        "latency_limits_ms": LIMITS,
        "connections": CONNECTIONS,
        "zipf": {"s": ZIPF_S, "distinct_patterns": ZIPF_DISTINCT,
                 "warmup": ZIPF_WARMUP},
        "bound": inputs.BOUND,
    }


def rng(seed: int, stream: int, *more: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, *more])


@dataclass
class Run:
    root: Path
    seed: int
    seconds: float
    trace: bool
    work: Path
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    #: name -> (value, unit, sample count)
    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    record: dict = field(default_factory=dict)
    #: every server launched, so the caller can stop them all
    servers: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def metric(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def timing(self, op: str, values_ms: list) -> None:
        """p50, the gated tail percentile and p99 of one operation."""
        for q in (50, stats.TAIL[op], 99):
            self.metric(f"{op}_p{q}_ms", stats.percentile(values_ms, q), "ms", len(values_ms))


# -- producer path (every workload) -------------------------------------------


def produce(run: Run, *, fits: int, fit_seconds: float = 0.0):
    """Generate the data, fit the label (timed; at least ``fits`` times
    and for at least ``fit_seconds``), score it on held-out patterns
    against a NumPy recount.  Returns ``(data, session)``."""
    data = inputs.make_dataset(run.seed)
    held_out = inputs.sample_patterns(data, HELD_OUT_PATTERNS, rng(run.seed, HELD_OUT))
    exact = inputs.exact_counts(data, held_out)

    fit_times, session = [], None
    began = time.perf_counter()
    while True:
        gc.collect()
        start = time.perf_counter()
        fitted = LabelingSession.fit(data, bound=inputs.BOUND)
        fit_times.append(time.perf_counter() - start)
        if session is None:
            session = fitted
        else:
            run.check(fitted.artifact == session.artifact,
                      "repeated fits of the same data gave different labels")
        del fitted
        if len(fit_times) >= fits and time.perf_counter() - began >= fit_seconds:
            break
    run.metric("fit_s", statistics.median(fit_times), "s", len(fit_times))

    run.check(session.size <= inputs.BOUND,
              f"label size {session.size} exceeds the bound {inputs.BOUND}")
    run.check(session.artifact.total == data.n_rows,
              f"label total {session.artifact.total} != {data.n_rows} rows")
    estimates = np.asarray(session.estimate_many([Pattern(p) for p in held_out]))
    abs_errors = np.abs(estimates - exact)
    guarded = np.maximum(np.rint(estimates), 1.0)
    q_errors = np.maximum(guarded / exact, exact / guarded)
    run.metric("fit_max_abs_error", abs_errors.max(), "rows", len(held_out))
    run.metric("fit_mean_q_error", q_errors.mean(), "ratio", len(held_out))
    stats_ = session.result.stats
    run.record["label"] = {
        "size": session.size,
        "rows": data.n_rows,
        "attributes": list(session.artifact.attributes),
        "subsets_examined": stats_.subsets_examined,
        "labels_evaluated": stats_.labels_evaluated,
    }
    run.record["fits"] = len(fit_times)
    return data, session


def produce_traced(run: Run, **options):
    """:func:`produce`; on a traced run, with the producer path's layers
    (data generation, counting, errors, search) traced and rolled up."""
    if not run.trace:
        return produce(run, **options)
    from tracing import Tracer, install_fit_probes

    tracer = Tracer()
    install_fit_probes(tracer)
    try:
        inputs.make_dataset(run.seed)  # one traced generation for dataset.load
        produced = produce(run, **options)
    finally:
        tracer.restore()
    run.layers.update(rollup.fit_layers(tracer.spans, run.record["label"], run.record["fits"]))
    return produced


# -- fit ----------------------------------------------------------------------


def time_setups(seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS_FIT):
        start = time.perf_counter()
        inputs.make_dataset(seed)
        times.append(time.perf_counter() - start)
    return times


def run_fit(run: Run) -> None:
    # Set-ups before and after the fits, ~15 s apart: a ~60 ms data
    # generation run back to back samples only one moment of the host's
    # speed, which swings by 20% and more from second to second.
    setup = time_setups(run.seed)
    produce_traced(run, fits=MIN_FITS, fit_seconds=FIT_SHARE * run.seconds)
    setup += time_setups(run.seed)
    run.metric("setup_s", statistics.median(setup), "s", len(setup))
    run.metric("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               "MiB", 1)


# -- serving (read_zipf, write_mix) ---------------------------------------------


def account(run: Run, phase: dict) -> None:
    """Count every request of a load generator phase as one operation."""
    for i, (kind, latency, ok, late, detail) in zip(phase["ids"], phase["records"]):
        run.check(ok, f"{phase['name']} request {i} ({kind}): {detail}")


class Traffic:
    """The serving half of a run: pack, server, load generator calls."""

    def __init__(self, run: Run, session, attributes) -> None:
        self.run = run
        self.attributes = list(attributes)
        #: phase name -> the request list sent in it
        self.sent: dict[str, list] = {}
        self.pack = run.work / "pack"
        session.to_pack(self.pack, name="compas")
        self.pack_bytes = sum(f.stat().st_size for f in self.pack.iterdir())
        run.record["pack_bytes"] = self.pack_bytes
        self.span_files: list[Path] = []
        self.results: list[dict] = []
        self.setup: list[float] = []
        for launch in range(SETUP_LAUNCHES_BEFORE - 1):
            self._launch(f"before-{launch}").stop()
        self.server = self._launch("serving")
        #: the spans of the server the traffic goes to (traced runs)
        self.serving_spans = self.span_files[-1]

    def _launch(self, name: str) -> Server:
        """Start a server on a fresh WAL directory; its set-up time is kept."""
        spans = self.run.work / f"spans-{name}.json"
        self.span_files.append(spans)
        server = Server(self.run.root, self.pack, self.run.work / f"wal-{name}",
                        self.run.work / f"server-{name}.log",
                        traced=self.run.trace, spans_path=spans)
        self.run.servers.append(server)
        self.setup.append(server.setup_s)
        return server

    def send(self, phases: list, *, keepalive: bool, rows: list | None = None) -> list:
        """Run phases through one load generator process."""
        spec = {
            "host": self.server.host, "port": self.server.port,
            "keepalive": keepalive, "connections": CONNECTIONS,
            "timeout": 10.0, "label": "compas", "phases": phases,
            "rows": rows or [], "attributes": self.attributes,
        }
        for phase in phases:
            self.sent[phase["name"]] = phase["requests"]
        spec_path = self.run.work / "spec.json"
        out_path = self.run.work / "result.json"
        spec_path.write_text(json.dumps(spec))
        subprocess.run([sys.executable, str(HERE / "loadgen.py"), str(spec_path), str(out_path)],
                       check=True, timeout=170)
        result = json.loads(out_path.read_text())["phases"]
        for phase in result:
            phase["keepalive"] = keepalive
            account(self.run, phase)
        self.results.extend(result)
        return result

    @staticmethod
    def latencies(phase: dict, kind: str) -> list:
        return [r[1] for r in phase["records"] if r[0] == kind and r[2]]

    @staticmethod
    def passes(phase: dict) -> bool:
        """p99 within each kind's limit (failures count as misses) and no
        growing backlog."""
        if phase["aborted"]:
            return False
        for kind, limit in LIMITS.items():
            mine = [r for r in phase["records"] if r[0] == kind]
            misses = sum(1 for r in mine if not r[2] or r[1] > limit)
            if misses > len(mine) // 100:
                return False
        late = [r[3] for r in phase["records"]]
        fifth = max(1, len(late) // 5)
        return statistics.median(late[-fifth:]) <= statistics.median(late[:fifth]) + READ_LIMIT_MS / 2

    def capacity(self, base_index: int, base_passed: bool, probe) -> None:
        """Highest ladder rung that passes; ``probe(index)`` runs one phase."""
        lo, hi = (base_index, None) if base_passed else (None, base_index)
        probes, step = [], GALLOP
        while len(probes) < MAX_PROBES:
            if hi is None:
                index = min(lo + step, stats.LADDER_RUNGS - 1)
            elif lo is None:
                index = max(hi - step, 0)
            elif hi - lo > 1:
                index = (lo + hi) // 2
            else:
                break
            if index in (lo, hi):
                break
            passed = probe(index)
            probes.append((round(stats.rung(index), 3), passed))
            if passed:
                lo = index
            else:
                hi = index
            step *= 2
        self.run.record["capacity_probes"] = probes
        # No passing rung: the lowest rung that failed bounds it from above.
        capacity = stats.rung(lo) if lo is not None else stats.rung(hi)
        self.run.metric("capacity_rps", capacity, "1/s", len(probes) + 1)

    def base_done(self) -> None:
        """Peak RSS at the end of the base phase.  Read here, not at the
        end of the run, because the capacity probes that follow send a
        seed-dependent number of update batches, and each one grows the
        server."""
        self.run.metric("peak_rss_mb", self.server.peak_rss_mb(), "MiB", 1)

    def finish(self) -> dict:
        """Server stats, stop, the last set-up launches; returns ``GET /stats``."""
        status, server_stats = self.server.request("GET", "/stats")
        self.run.check(status == 200, f"GET /stats answered {status}")
        self.run.check(self.server.stop(), "the server died during the run: "
                       f"{self.server.log.read_text()[-800:]}")
        # More launches, half a minute after the first ones: a launch
        # takes under a second, and launches back to back sample only
        # one moment of the host's speed.
        for launch in range(SETUP_LAUNCHES_AFTER):
            self._launch(f"after-{launch}").stop()
        self.run.metric("setup_s", statistics.median(self.setup), "s", len(self.setup))
        return server_stats


def _phase_record(phase: dict) -> dict:
    late = [r[3] for r in phase["records"]]
    return {
        "name": phase["name"], "rate": round(phase["rate"], 3),
        "keepalive": phase["keepalive"],
        "planned": phase["planned"], "attempted": len(phase["records"]),
        "failed": sum(1 for r in phase["records"] if not r[2]),
        "aborted": phase["aborted"], "passed": Traffic.passes(phase),
        "late_ms_p50": round(stats.percentile(late, 50), 3) if late else None,
        "late_ms_max": round(max(late), 3) if late else None,
        # The slowest requests of each kind, as [request index, latency]:
        # what a p99 is made of, and when in the phase it happened.
        "slowest_ms": {
            kind: [[i, round(r[1], 1)] for i, r in sorted(
                ((i, r) for i, r in zip(phase["ids"], phase["records"]) if r[0] == kind),
                key=lambda pair: -pair[1][1])[:15]]
            for kind in LIMITS
        },
    }


def run_read_zipf(run: Run) -> None:
    data, session = produce_traced(run, fits=SERVE_FITS)
    traffic = Traffic(run, session, data.attribute_names)
    served = LabelingSession.from_pack(traffic.pack)
    pool = inputs.distinct(inputs.sample_patterns(data, 3 * ZIPF_DISTINCT, rng(run.seed, ZIPF_SET)))
    pool = pool[:ZIPF_DISTINCT]
    expected: dict[int, float] = {}

    def phase(name, rate, seconds, stream, abort=False):
        generator = rng(run.seed, ZIPF_REQ, stream)
        offsets = inputs.arrivals(max(1, int(rate * seconds)), rate, generator)
        ranks = inputs.zipf_ranks(len(offsets), len(pool), ZIPF_S, generator)
        missing = sorted({int(r) for r in ranks} - expected.keys())
        values = served.estimate_many([Pattern(pool[r]) for r in missing])
        expected.update(zip(missing, values))
        return {
            "name": name, "rate": rate, "limit_ms": LIMITS, "abort": abort,
            "lanes": {"read": CONNECTIONS},
            "requests": [[t, "read", pool[r], expected[int(r)]] for t, r in zip(offsets, ranks)],
        }

    # Untimed warm-up over fresh connections fills the result cache.
    traffic.send([phase("warmup", ZIPF_WARMUP["rate"], ZIPF_WARMUP["seconds"], 0)],
                 keepalive=False)
    base_rate = stats.rung(ZIPF_BASE_RUNG)
    (base,) = traffic.send([phase("base", base_rate, run.seconds * 0.85, 1)], keepalive=True)
    run.timing("read", traffic.latencies(base, "read"))
    traffic.base_done()

    def probe(index: int) -> bool:
        (result,) = traffic.send(
            [phase(f"probe-{index}", stats.rung(index), run.seconds * ZIPF_PROBE_SHARE,
                   2 + index, abort=True)], keepalive=True)
        return Traffic.passes(result)

    traffic.capacity(ZIPF_BASE_RUNG, Traffic.passes(base), probe)
    server_stats = traffic.finish()
    run.record["distinct_patterns_requested"] = len(expected)
    run.record["phases"] = [_phase_record(p) for p in traffic.results]
    run.record["cache"] = server_stats["cache"]
    if run.trace:
        run.layers.update(rollup.serve_layers(run, traffic, server_stats))


def run_write_mix(run: Run) -> None:
    data, session = produce_traced(run, fits=SERVE_FITS)
    traffic = Traffic(run, session, data.attribute_names)
    pool = inputs.distinct(inputs.sample_patterns(data, 120_000, rng(run.seed, UNIFORM)))
    order = rng(run.seed, UNIFORM, 1).permutation(len(pool))
    cursor = [0]
    rows = inputs.update_rows(data, ROW_POOL, rng(run.seed, ROWS))

    def phase(name, rate, seconds, stream, abort=False):
        generator = rng(run.seed, MIX, stream)
        offsets = inputs.arrivals(max(1, int(rate * seconds)), rate, generator)
        # Exactly WRITE_SHARE of the requests are updates, at seeded
        # positions: every run of a phase applies the same number.
        is_update = np.zeros(len(offsets), dtype=bool)
        is_update[generator.choice(len(offsets), round(WRITE_SHARE * len(offsets)),
                                   replace=False)] = True
        requests = []
        for t, update in zip(offsets, is_update):
            if update:
                batch = generator.integers(0, ROW_POOL, size=UPDATE_BATCH_ROWS).tolist()
                requests.append([t, "update", batch, None])
            else:
                # Unrepeated: every estimate asks for a pattern not sent before.
                pattern = pool[order[cursor[0] % len(pool)]]
                cursor[0] += 1
                requests.append([t, "read", pattern, None])
        # A reader and a writer: separate clients, one connection each.
        return {"name": name, "rate": rate, "limit_ms": LIMITS, "abort": abort,
                "lanes": {"read": 1, "update": 1}, "requests": requests}

    base_rate = stats.rung(MIX_BASE_RUNG)
    (base,) = traffic.send([phase("base", base_rate, run.seconds * 0.8, 0)],
                           keepalive=False, rows=rows)
    run.timing("read", traffic.latencies(base, "read"))
    run.timing("update", traffic.latencies(base, "update"))
    traffic.base_done()
    traffic.capacity(
        MIX_BASE_RUNG, Traffic.passes(base),
        lambda index: Traffic.passes(traffic.send(
            [phase(f"probe-{index}", stats.rung(index), run.seconds * PROBE_SHARE,
                   1 + index, abort=True)],
            keepalive=False, rows=rows)[0]),
    )
    run.record["unrepeated_reads_sent"] = cursor[0]
    check_served_state(run, traffic, data, rows, pool)
    server_stats = traffic.finish()
    run.record["phases"] = [_phase_record(p) for p in traffic.results]
    run.record["cache"] = server_stats["cache"]
    if run.trace:
        run.layers.update(rollup.serve_layers(run, traffic, server_stats))


def check_served_state(run: Run, traffic: Traffic, data, rows: list, pool: list) -> None:
    """The served label must equal an in-process session that applied the
    acknowledged batches in WAL order."""
    batches = []
    for phase_spec_result in traffic.results:
        for i, record in zip(phase_spec_result["ids"], phase_spec_result["records"]):
            if record[0] == "update" and record[2]:
                batches.append((record[4], phase_spec_result["name"], i))
    batches.sort()
    run.check(len({seq for seq, _, _ in batches}) == len(batches),
              "two acknowledged updates share a WAL sequence number")
    sent = traffic.sent
    reference = LabelingSession.from_pack(traffic.pack)
    names = list(data.attribute_names)
    for _, phase_name, i in batches:
        reference.update(inserted=Dataset.from_rows(names, [rows[j] for j in sent[phase_name][i][2]]))
    status, catalog = traffic.server.request("GET", "/labels/compas")
    run.check(status == 200 and catalog["total"] == reference.artifact.total,
              f"served total {catalog.get('total') if status == 200 else status} != "
              f"in-process total {reference.artifact.total}")
    picks = rng(run.seed, CHECK).choice(len(pool), size=CHECK_SAMPLE, replace=False)
    sample = [pool[i] for i in picks]
    status, answer = traffic.server.request("POST", "/labels/compas/estimate", {"patterns": sample})
    want = reference.estimate_many([Pattern(p) for p in sample])
    got = answer.get("estimates") if status == 200 else None
    run.check(got == want, f"served estimates differ from the in-process session "
              f"on {sum(a != b for a, b in zip(got or [], want))} of {len(want)} patterns")
    run.record["updates_acknowledged"] = len(batches)


WORKLOADS = {"fit": run_fit, "read_zipf": run_read_zipf, "write_mix": run_write_mix}
