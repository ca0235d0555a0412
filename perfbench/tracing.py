"""Timing spans around the public calls of each layer.

The benchmark does not change the program to trace it: it replaces
named callables of ``repro`` with wrappers that record a span per call
and then call the original.  A span is ``(id, parent, name, start,
end, request, extra)``: ``parent`` is the innermost span open on the
same thread when the call began, ``request`` the id of the HTTP request
the call serves (read from the ``X-Bench-Id`` header the load generator
sends, and inherited by every span below it on that thread), and
``extra`` a few numbers the roll-up needs, such as a batch size.
Spans stay in memory and are written out once, when the run ends.

A span's self time is its duration minus the durations of its child
spans; children run on the parent's thread inside its interval, so
they never overlap each other.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import threading
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_request(self):
        stack = self._stack()
        return stack[-1][1] if stack else None

    def _traced(self, func, name, request_of=None, extra_of=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent, request = stack[-1] if stack else (0, None)
            if request_of is not None:
                request = request_of(args) or request
            span_id = next(tracer._ids)
            stack.append((span_id, request))
            start = perf_counter()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                extra = extra_of(args, result) if extra_of is not None else None
                tracer.spans.append(
                    (span_id, parent, name, start, end, request, extra)
                )

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    def wrap_method(self, owner: type, attribute: str, name: str, **hooks):
        """Trace ``owner.attribute`` (plain, class- or static method)."""
        original = inspect.getattr_static(owner, attribute)
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(
                self._traced(original.__func__, name, **hooks)
            )
        else:
            replacement = self._traced(original, name, **hooks)
        setattr(owner, attribute, replacement)
        self._originals.append((owner, attribute, original))

    def wrap_function(self, module, attribute: str, name: str, **hooks):
        """Trace a module-level function, including every ``from x import f``
        binding of it in modules already imported."""
        original = getattr(module, attribute)
        replacement = self._traced(original, name, **hooks)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, attribute, None) is original:
                setattr(loaded, attribute, replacement)
                self._originals.append((loaded, attribute, original))

    def restore(self) -> None:
        """Undo every wrap (most recent first)."""
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    def dump(self, path, **summary) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": list(self.spans), "summary": summary}, handle)


# -- roll-up -----------------------------------------------------------------


class SpanIndex:
    """Spans by name, with durations and self times in seconds."""

    def __init__(self, spans) -> None:
        self.spans = [tuple(span) for span in spans]
        self.by_id = {span[0]: span for span in self.spans}
        self.children: dict[int, list] = {}
        for span in self.spans:
            self.children.setdefault(span[1], []).append(span)

    @staticmethod
    def duration(span) -> float:
        return span[4] - span[3]

    def self_time(self, span) -> float:
        return self.duration(span) - sum(
            self.duration(child) for child in self.children.get(span[0], ())
        )

    def named(self, name: str, *, outermost: bool = False) -> list:
        """Spans called ``name``; ``outermost`` drops those nested in a
        span of the same name (a sharded call fanning out per shard)."""
        found = [span for span in self.spans if span[2] == name]
        if outermost:
            found = [s for s in found if self.by_id.get(s[1], (None,) * 3)[2] != name]
        return found

    def descendants(self, span, name: str) -> list:
        out, todo = [], list(self.children.get(span[0], ()))
        while todo:
            child = todo.pop()
            if child[2] == name:
                out.append(child)
            todo.extend(self.children.get(child[0], ()))
        return out


# -- probes --------------------------------------------------------------------


def install_fit_probes(tracer: Tracer) -> None:
    """Wrap the producer path: data generation, counting, errors, search."""
    import repro.datasets
    from repro.api.session import LabelingSession
    from repro.core import search
    from repro.core.counts import PatternCounter
    from repro.core.errors import BatchLabelEvaluator
    from repro.core.sharding import ShardedPatternCounter

    tracer.wrap_function(repro.datasets, "load_dataset", "dataset.load")
    tracer.wrap_method(LabelingSession, "fit", "api.fit")
    tracer.wrap_function(search, "top_down_search", "core.search")
    for counter in (PatternCounter, ShardedPatternCounter):
        tracer.wrap_method(counter, "label_size_many", "core.counts.label_size_many")
        tracer.wrap_method(counter, "counts_for_codes", "core.counts.counts_for_codes")
    tracer.wrap_method(BatchLabelEvaluator, "evaluate", "core.errors.evaluate")


def install_serve_probes(tracer: Tracer) -> dict:
    """Wrap the serving and streaming path inside a ``repro serve`` process.

    Returns a dict that collects the stream ingestors the server attaches,
    so the launcher can report their state when it exits.
    """
    import os

    import repro.cli  # noqa: F401 — binds every name the wraps must reach
    import repro.persist
    from repro.core import maintenance
    from repro.core.sharding import ShardedPatternCounter
    from repro.persist.pack import PackReader
    from repro.serve.batching import MicroBatcher
    from repro.serve.protocol import EstimateRequest
    from repro.serve.service import LabelService, _Handler
    from repro.serve.store import LabelSnapshot, LabelStore
    from repro.serve.workers import WorkerGroup
    from repro.stream import wal as wal_module
    from repro.stream.drift import DriftMonitor
    from repro.stream.ingest import StreamIngestor

    attached: dict = {"ingestors": []}
    ticket_request: dict[int, object] = {}

    def bench_id(args):
        return args[0].headers.get("X-Bench-Id")

    def remember_ticket(args, ticket):
        if ticket is not None:
            ticket_request[id(ticket)] = tracer.current_request()
        return None

    def flush_extra(args, _):
        batch = args[1]
        return {
            "requests": [ticket_request.pop(id(t), None) for t in batch],
            "patterns": sum(len(t.patterns) for t in batch),
        }

    def pattern_count(args, _):
        return {"patterns": len(args[1])}

    def keep_ingestor(args, _):
        attached["ingestors"].append(args[1])
        return None

    tracer.wrap_method(_Handler, "do_POST", "serve.service.do_POST", request_of=bench_id)
    tracer.wrap_method(EstimateRequest, "from_payload", "serve.protocol.from_payload")
    tracer.wrap_method(WorkerGroup, "estimate", "serve.workers.estimate")
    tracer.wrap_method(MicroBatcher, "submit", "serve.batching.submit", extra_of=remember_ticket)
    tracer.wrap_method(MicroBatcher, "_flush", "serve.batching.flush", extra_of=flush_extra)
    tracer.wrap_method(LabelSnapshot, "estimate_many", "core.estimator.estimate_many",
                       extra_of=pattern_count)
    tracer.wrap_method(StreamIngestor, "submit", "stream.ingest.submit")
    tracer.wrap_method(StreamIngestor, "_compact_once", "stream.compact")
    tracer.wrap_function(maintenance, "apply_inserts", "core.maintenance.apply_inserts")
    tracer.wrap_method(wal_module.WriteAheadLog, "append", "stream.wal.append")
    tracer.wrap_function(os, "fsync", "os.fsync")
    tracer.wrap_method(ShardedPatternCounter, "add_shard", "core.sharding.add_shard")
    tracer.wrap_method(LabelStore, "publish", "serve.store.publish")
    tracer.wrap_method(DriftMonitor, "check", "stream.drift.check")
    tracer.wrap_function(repro.persist, "open_pack", "persist.open_pack")
    tracer.wrap_method(PackReader, "counter", "persist.counter")
    tracer.wrap_method(LabelService, "attach_stream", "serve.attach_stream",
                       extra_of=keep_ingestor)
    return attached
