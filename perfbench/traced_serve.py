"""Run ``repro serve`` with the layers' public calls traced.

Usage: ``python3 traced_serve.py SPANS.json serve [serve options...]``

Installs the probes of :func:`tracing.install_serve_probes`, then runs
the unchanged ``repro.cli.main`` with the given arguments.  On SIGTERM
(how the benchmark stops a server) the spans and the state of every
stream ingestor are written to ``SPANS.json`` and the process exits.
"""

from __future__ import annotations

import os
import signal
import sys

from tracing import Tracer, install_serve_probes


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    attached = install_serve_probes(tracer)

    def write() -> None:
        ingestors = attached["ingestors"]
        records = [r for i in ingestors for r in i.wal.records(i.name)]
        tracer.dump(
            spans_path,
            detached=[i.detached for i in ingestors],
            researches=[
                i.drift_monitor.researches if i.drift_monitor else 0
                for i in ingestors
            ],
            wal_bytes=sum(
                i.wal.path.stat().st_size for i in ingestors if i.wal.path.exists()
            ),
            wal_rows=sum(len(r.inserted or ()) for r in records),
        )

    def on_terminate(signum, frame) -> None:
        write()
        os._exit(0)

    signal.signal(signal.SIGTERM, on_terminate)
    from repro.cli import main as cli_main

    code = cli_main(cli_args)
    write()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
