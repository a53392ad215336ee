"""The served process and the closed-loop client that drives it.

The server is started as its own process with its output going to a
log file; the bound port is read from its ``serving ... on
127.0.0.1:<port>`` ready line.  One client connection sends a request,
waits for the whole reply line, decodes it, and only then sends the
next one.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

READY = re.compile(r"serving \S+ \(scale [^)]*\) on [\d.]+:(\d+)")
SERVE_ARGS = ["serve", "WG", "--scale", "1.0", "--port", "0"]
READY_TIMEOUT_S = 60.0
REPLY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


def pin(pid: int) -> None:
    """Pin ``pid`` to the last CPU this process may use.

    Client and server share that CPU: in a closed loop only one of them
    runs at a time, and a hand-off on one CPU never waits for an idle
    CPU to wake up.
    """
    os.sched_setaffinity(pid, {max(os.sched_getaffinity(0))})


def server_env() -> Dict[str, str]:
    """The server's environment: ``src`` importable, output unbuffered,
    and :mod:`repro.obs` left off whatever the caller's shell says."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_OBS"}
    env["PYTHONPATH"] = "src"
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Server:
    """One launched server process (``python -m repro serve`` or the
    traced launcher) and its log file."""

    def __init__(self, argv: Sequence[str], log_path: Path) -> None:
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, *argv],
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            env=server_env(),
        )
        pin(self.proc.pid)

    def wait_ready(self) -> int:
        """Block until the ready line appears; returns the port."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            match = READY.search(self.log_path.read_text(errors="replace"))
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        self.stop()
        raise RuntimeError(f"server not ready; log:\n{self.log_text()}")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
        return kib / 1024.0

    def stop(self) -> int:
        """Ctrl-C the server and wait for it to exit; returns its code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        return self.proc.returncode

    def log_text(self) -> str:
        return self.log_path.read_text(errors="replace")


class Connection:
    """One blocking client connection speaking newline-delimited JSON."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(
            ("127.0.0.1", port), timeout=REPLY_TIMEOUT_S
        )
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def call(self, line: bytes) -> bytes:
        """Send one request line; the raw reply line."""
        self.sock.sendall(line)
        reply = self.rfile.readline()
        if not reply.endswith(b"\n"):
            raise ConnectionError("connection closed mid-reply")
        return reply

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


@dataclass
class Phase:
    """What one timed phase sent and received.

    ``latency_ns[i]`` is the send-to-decoded-reply time of op ``i``;
    ``replies[i]`` its raw reply line, kept for checking after the
    phase; ``op_index[i]`` the op's position in the workload's op list.
    """

    latency_ns: "array[int]" = field(default_factory=lambda: array("q"))
    replies: List[bytes] = field(default_factory=list)
    op_index: "array[int]" = field(default_factory=lambda: array("q"))
    paths: int = 0
    wall_s: float = 0.0
    #: A reply timed out or was malformed, or the connection dropped;
    #: the phase ended there.
    broken: bool = False


def reply_paths(result: Dict) -> int:
    """Paths carried by a ``query`` or ``update`` result."""
    if "pairs" in result:
        return sum(pair.get("count", 0) for pair in result["pairs"])
    return result.get("count", 0)


def run_phase(
    conn: Connection,
    lines: Sequence[bytes],
    seconds: float,
    cyclic: bool,
) -> Phase:
    """Send ``lines`` in order, closed loop, for ``seconds``.

    With ``cyclic`` the phase sends whole passes over ``lines`` and ends
    at the first pass boundary after ``seconds``; otherwise it ends
    after ``seconds`` or when ``lines`` runs out.  Nothing but send,
    receive and decode happens between the two clock reads of an op.
    """
    phase = Phase()
    clock = time.perf_counter_ns
    start = clock()
    deadline = start + int(seconds * 1e9)
    finished = start
    i = 0
    while True:
        if i == len(lines):
            if not cyclic or finished >= deadline:
                break
            i = 0
        elif finished >= deadline and not cyclic:
            break
        sent = clock()
        try:
            raw = conn.call(lines[i])
            reply = json.loads(raw)
        except (OSError, ValueError):
            phase.broken = True
            break
        finished = clock()
        phase.latency_ns.append(finished - sent)
        phase.replies.append(raw)
        phase.op_index.append(i)
        if reply.get("ok"):
            phase.paths += reply_paths(reply["result"])
        i += 1
    phase.wall_s = (finished - start) / 1e9
    return phase


def percentile_ms(sorted_ns: Sequence[int], fraction: float) -> float:
    """Nearest-rank percentile of sorted nanosecond samples, in ms."""
    if not sorted_ns:
        return 0.0
    rank = max(1, -(-int(round(fraction * 1000)) * len(sorted_ns) // 1000))
    return sorted_ns[min(rank, len(sorted_ns)) - 1] / 1e6


def tail_percentile(n: int) -> float:
    """The highest of p99/p98/p95/p90 with at least ten samples beyond
    it among ``n`` (p90 when even that has fewer)."""
    for fraction in (0.99, 0.98, 0.95, 0.90):
        if n * (1.0 - fraction) >= 10.0 - 1e-9:
            return fraction
    return 0.90


def stats_call(conn: Connection, request_id: str) -> Optional[Dict]:
    """The server's ``stats`` result (sent outside timed phases)."""
    line = json.dumps({"id": request_id, "op": "stats"}) + "\n"
    reply = json.loads(conn.call(line.encode()))
    return reply.get("result") if reply.get("ok") else None
