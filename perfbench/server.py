"""Launch, probe and stop a ``repro serve`` process."""

from __future__ import annotations

import http.client
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
READY_TIMEOUT_S = 60.0
_URL = re.compile(r" at http://([0-9.]+):(\d+) ")


class ServerError(RuntimeError):
    pass


class Server:
    """One server process serving a pack with ``--stream``.

    ``traced`` launches it through ``traced_serve.py``, which wraps the
    layers' public calls in timing spans and writes them to
    ``spans_path`` when the server stops; otherwise it is the plain
    ``python -m repro serve`` a user runs.
    """

    def __init__(self, root: Path, pack: Path, wal_dir: Path, log: Path,
                 *, traced: bool = False, spans_path: Path | None = None):
        serve_args = [
            "serve", "--artifact-dir", str(pack), "--stream",
            "--wal-dir", str(wal_dir), "--cache-entries", "1024",
            "--port", "0",
        ]
        if traced:
            command = [sys.executable, str(HERE / "traced_serve.py"),
                       str(spans_path), *serve_args]
        else:
            command = [sys.executable, "-m", "repro", *serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.log = log
        self._log_handle = open(log, "w+")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.DEVNULL, stderr=self._log_handle,
            env=env, cwd=root,
        )
        try:
            self.host, self.port = self._wait_for_address()
            self.setup_s = self._wait_for_labels()
        except BaseException:
            self.stop()
            raise

    def _wait_for_address(self) -> tuple[str, int]:
        deadline = self.started + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise ServerError(f"server exited early: {self.log.read_text()}")
            match = _URL.search(self.log.read_text())
            if match:
                return match.group(1), int(match.group(2))
            time.sleep(0.002)
        raise ServerError("server did not report its address in time")

    def _wait_for_labels(self) -> float:
        """Seconds from launch to the first 200 answer of ``GET /labels``."""
        deadline = self.started + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            try:
                status, _ = self.request("GET", "/labels")
            except OSError:
                time.sleep(0.002)
                continue
            if status == 200:
                return time.perf_counter() - self.started
            time.sleep(0.002)
        raise ServerError("server did not answer GET /labels in time")

    def request(self, method: str, path: str, payload=None, timeout=30.0):
        connection = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        try:
            body = json.dumps(payload).encode() if payload is not None else None
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body, headers)
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"null")
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``) in MiB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        if not match:
            raise ServerError("cannot read the server's peak RSS")
        return int(match.group(1)) / 1024.0

    def stop(self, timeout: float = 30.0) -> bool:
        """Terminate the server; returns whether it was still running.

        SIGTERM ends a plain server at once (every acknowledged update is
        already in its fsynced WAL); a traced one writes its spans first.
        """
        alive = self.process.poll() is None
        if alive:
            self.process.terminate()
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log_handle.close()
        return alive
