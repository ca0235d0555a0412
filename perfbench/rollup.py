"""Roll traced spans up into the per-layer metrics of ``BENCHMARK.json``.

Every traced run reports every metric below; a layer the workload does
not reach reports 0 (its counts are 0, and so are its times).  Times
marked ``self`` exclude the time of the traced calls beneath them.
"""

from __future__ import annotations

import json
import statistics

import stats
from tracing import SpanIndex

#: name -> unit, in report order.
LAYER_METRICS = {
    "dataset.load_s": "s",
    "core.counts.label_size_many.calls": "count",
    "core.counts.label_size_many_s": "s",
    "core.counts.counts_for_codes.calls": "count",
    "core.counts.counts_for_codes_s": "s",
    "core.errors.evaluate.calls": "count",
    "core.errors.evaluate_s": "s",
    "core.search.subsets_examined": "count",
    "core.search.labels_evaluated": "count",
    "core.search.self_s": "s",
    "serve.service.requests": "count",
    "serve.service.handler_ms.p50": "ms",
    "serve.service.handler_ms.p99": "ms",
    "net.outside_handler_ms.p50": "ms",
    "net.outside_handler_ms.p99": "ms",
    "net.read_tail_outside_share": "ratio",
    "serve.protocol.parse_ms": "ms",
    "serve.cache.hit_rate": "ratio",
    "serve.cache.evictions": "count",
    "serve.cache.admission_rejects": "count",
    "serve.batching.queue_wait_ms.p50": "ms",
    "serve.batching.queue_wait_ms.p99": "ms",
    "serve.batching.flushes": "count",
    "serve.batching.patterns_per_flush": "count",
    "core.estimator.kernel_ms": "ms",
    "core.estimator.patterns_per_call": "count",
    "stream.ingest.submit_ms.p50": "ms",
    "stream.ingest.submit_ms.p99": "ms",
    "stream.update_tail_drift_share": "ratio",
    "core.maintenance.apply_inserts_ms": "ms",
    "stream.wal.append_ms": "ms",
    "stream.wal.fsyncs": "count",
    "stream.wal.fsync_ms": "ms",
    "stream.wal.bytes_per_row": "B",
    "core.sharding.add_shard_ms": "ms",
    "serve.store.publish_ms": "ms",
    "stream.drift.checks": "count",
    "stream.drift.check_ms": "ms",
    "stream.drift.researches": "count",
    "stream.compactions": "count",
    "stream.compact_ms": "ms",
    "persist.pack_open_s": "s",
    "persist.pack_bytes_per_row": "B",
}


def _p(values, q):
    return stats.percentile(values, q) if values else 0.0


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def fit_layers(spans, label: dict, fits: int) -> dict:
    """Producer-path layers, per fit (sums over the traced fits / fits)."""
    index = SpanIndex(spans)
    out = {}
    loads = [index.duration(s) for s in index.named("dataset.load")]
    out["dataset.load_s"] = statistics.median(loads) if loads else 0.0
    for name in ("core.counts.label_size_many", "core.counts.counts_for_codes",
                 "core.errors.evaluate"):
        out[f"{name}.calls"] = len(index.named(name, outermost=True)) / fits
        out[f"{name}_s"] = sum(index.self_time(s) for s in index.named(name)) / fits
    out["core.search.self_s"] = sum(
        index.self_time(s) for s in index.named("core.search")) / fits
    out["core.search.subsets_examined"] = label["subsets_examined"]
    out["core.search.labels_evaluated"] = label["labels_evaluated"]
    return out


def _overlaps(span, others) -> bool:
    return any(o[3] < span[4] and span[3] < o[4] for o in others)


def serve_layers(run, traffic, server_stats) -> dict:
    """Serving and streaming layers from the traced server processes."""
    dumps = [json.loads(path.read_text()) for path in traffic.span_files]
    out = {}
    opens = []
    for dump in dumps:
        launch = SpanIndex(dump["spans"])
        opens.append(sum(launch.duration(s) for s in launch.named("persist.open_pack"))
                     + sum(launch.duration(s) for s in launch.named("persist.counter")))
    out["persist.pack_open_s"] = statistics.median(opens)
    out["persist.pack_bytes_per_row"] = traffic.pack_bytes / run.record["label"]["rows"]

    serving = dumps[traffic.span_files.index(traffic.serving_spans)]
    summary = serving["summary"]
    run.check(all(d is None for d in summary["detached"]),
              f"a stream detached its counter: {summary['detached']}")
    index = SpanIndex(serving["spans"])
    posts = index.named("serve.service.do_POST")
    out["serve.service.requests"] = len(posts)

    # Request-level splits over the base phase, the phase whose latency
    # the end-to-end read_*/update_* metrics report.
    base = next(p for p in traffic.results if p["name"] == "base")
    client = {f"base:{i}": r for i, r in zip(base["ids"], base["records"]) if r[2]}
    handler, outside, shares, queue_wait = [], [], [], []
    flush_of = {}
    for flush in index.named("serve.batching.flush"):
        kernel = sum(index.duration(k) for k in index.descendants(flush, "core.estimator.estimate_many"))
        for request in flush[6]["requests"]:
            flush_of[request] = kernel
    read_tail = _p([r[1] for r in client.values() if r[0] == "read"], stats.TAIL["read"])
    update_tail = _p([r[1] for r in client.values() if r[0] == "update"],
                     stats.TAIL["update"])
    drift = index.named("stream.drift.check")
    tail_updates, tail_with_drift = 0, 0
    for post in posts:
        record = client.get(post[5])
        if record is None:
            continue
        if record[0] == "read":
            handler.append(index.self_time(post) * 1e3)
            gap = record[1] - index.duration(post) * 1e3
            outside.append(gap)
            if record[1] >= read_tail:
                shares.append(gap / record[1])
            for estimate in index.descendants(post, "serve.workers.estimate"):
                if post[5] in flush_of:
                    queue_wait.append((index.duration(estimate) - flush_of[post[5]]) * 1e3)
        elif record[1] >= update_tail:
            tail_updates += 1
            tail_with_drift += _overlaps(post, drift)
    out["serve.service.handler_ms.p50"] = _p(handler, 50)
    out["serve.service.handler_ms.p99"] = _p(handler, 99)
    out["net.outside_handler_ms.p50"] = _p(outside, 50)
    out["net.outside_handler_ms.p99"] = _p(outside, 99)
    out["net.read_tail_outside_share"] = _mean(shares)
    out["stream.update_tail_drift_share"] = tail_with_drift / tail_updates if tail_updates else 0.0
    out["serve.batching.queue_wait_ms.p50"] = _p(queue_wait, 50)
    out["serve.batching.queue_wait_ms.p99"] = _p(queue_wait, 99)

    def ms(name, q=50):
        return _p([index.duration(s) * 1e3 for s in index.named(name)], q)

    out["serve.protocol.parse_ms"] = ms("serve.protocol.from_payload")
    cache = server_stats.get("cache") or {}
    out["serve.cache.hit_rate"] = cache.get("hit_rate", 0.0)
    out["serve.cache.evictions"] = cache.get("evictions", 0)
    out["serve.cache.admission_rejects"] = cache.get("rejected_admissions", 0)
    flushes = index.named("serve.batching.flush")
    out["serve.batching.flushes"] = len(flushes)
    out["serve.batching.patterns_per_flush"] = _mean([f[6]["patterns"] for f in flushes])
    kernels = index.named("core.estimator.estimate_many")
    out["core.estimator.kernel_ms"] = ms("core.estimator.estimate_many")
    out["core.estimator.patterns_per_call"] = _mean([k[6]["patterns"] for k in kernels])
    out["stream.ingest.submit_ms.p50"] = ms("stream.ingest.submit")
    out["stream.ingest.submit_ms.p99"] = ms("stream.ingest.submit", 99)
    out["core.maintenance.apply_inserts_ms"] = ms("core.maintenance.apply_inserts")
    appends = index.named("stream.wal.append")
    fsyncs = [f for a in appends for f in index.descendants(a, "os.fsync")]
    out["stream.wal.append_ms"] = ms("stream.wal.append")
    out["stream.wal.fsyncs"] = len(fsyncs)
    out["stream.wal.fsync_ms"] = _p([index.duration(f) * 1e3 for f in fsyncs], 50)
    rows = summary["wal_rows"]
    out["stream.wal.bytes_per_row"] = summary["wal_bytes"] / rows if rows else 0.0
    out["core.sharding.add_shard_ms"] = ms("core.sharding.add_shard")
    out["serve.store.publish_ms"] = ms("serve.store.publish")
    out["stream.drift.checks"] = len(drift)
    out["stream.drift.check_ms"] = ms("stream.drift.check")
    out["stream.drift.researches"] = sum(summary["researches"])
    out["stream.compactions"] = len(index.named("stream.compact"))
    out["stream.compact_ms"] = ms("stream.compact")
    return out


def complete(layers: dict) -> dict:
    """Every per-layer metric, 0 where the workload did not reach it."""
    return {name: float(layers.get(name, 0.0)) for name in LAYER_METRICS}
