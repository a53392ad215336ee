"""The repository benchmark: served k-st path enumeration over TCP.

Run from the repository root::

    python3 perfbench/run.py --workload monitor --seed 1 --seconds 20 --trace 0

It generates the workload from ``--seed``, launches ``python -m repro
serve WG --scale 1.0 --port 0`` as its own process, drives it with one
closed-loop client connection for ``--seconds``, checks every answer
against PathEnum after the timed phase, and prints a report followed by
one JSON result line.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` then serves the same phase again through
``perfbench/traced_serve.py`` and reports the per-layer metrics.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import layers
import wire
from traced_serve import bin_path, read_spans

ROOT = Path.cwd()
STATE = ROOT / ".perfbench"
#: Server launches per run; ``setup_s`` is their median.
SETUPS = 5

E2E_UNITS = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "ops/s"),
    ("paths_per_s", "paths/s"),
    ("server_peak_rss_mb", "MiB"),
)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("monitor", "adhoc_cold", "mixed_rw"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Served:
    """One served configuration: its set-ups and its timed phase."""

    def __init__(self) -> None:
        self.setup_s: List[float] = []
        self.setup_replies: List[List[bytes]] = []
        self.phase: Optional[wire.Phase] = None
        self.before: Dict = {}
        self.after: Dict = {}
        self.rss_mb = 0.0
        self.trace: Optional[Dict] = None


def serve(
    work,
    seconds: float,
    launches: int,
    spans_path: Optional[Path] = None,
) -> Served:
    """Launch the server ``launches`` times, timing each set-up; the
    last launch also runs the timed phase.  With ``spans_path`` the
    server runs under the traced launcher."""
    from workloads import request_line

    setup_lines = [request_line(i, op) for i, op in enumerate(work.setup)]
    lines = [request_line(i, op) for i, op in enumerate(work.ops)]
    if spans_path is None:
        argv = ["-m", "repro", *wire.SERVE_ARGS]
    else:
        argv = ["perfbench/traced_serve.py", str(spans_path), *wire.SERVE_ARGS]
    served = Served()
    for attempt in range(launches):
        log = STATE / f"server-{work.name}-{attempt}.log"
        started = time.perf_counter()
        server = wire.Server(argv, log)
        conn = None
        try:
            conn = wire.Connection(server.wait_ready())
            served.setup_replies.append([conn.call(line) for line in setup_lines])
            served.setup_s.append(time.perf_counter() - started)
            if attempt == launches - 1:
                served.before = wire.stats_call(conn, "before")
                served.phase = wire.run_phase(conn, lines, seconds, work.cyclic)
                served.after = wire.stats_call(conn, "after")
                served.rss_mb = server.peak_rss_mb()
        finally:
            if conn is not None:
                conn.close()
            code = server.stop()
        if code != 0:
            raise RuntimeError(f"server exited with {code}:\n{server.log_text()}")
    if spans_path is not None:
        served.trace = read_spans(str(spans_path))
        spans_path.unlink()
        Path(bin_path(str(spans_path))).unlink()
    return served


def check(work, served: Served, oracle) -> Tuple[int, int, List[str]]:
    """Check every set-up and timed reply: ``(attempted, failed, problems)``."""
    from oracle import MirrorGraph, MonitorChecker, mirror_after, query_answer_ok

    attempted = failed = 0
    problems: List[str] = []
    initial = MirrorGraph(work.graph)
    watched: Dict[Tuple[int, int], List] = {}
    for replies in served.setup_replies:
        for op, raw in zip(work.setup, replies):
            attempted += 1
            reply = json.loads(raw)
            if reply.get("ok") and query_answer_ok(
                reply["result"], oracle.reference(initial, *op[1:])
            ):
                watched[op[1:3]] = [tuple(p) for p in reply["result"]["paths"]]
            else:
                failed += 1
                problems.append(f"set-up {op}: wrong or failed reply")

    phase = served.phase
    attempted += len(phase.replies) + phase.broken
    failed += phase.broken
    if phase.broken:
        problems.append("a reply timed out or was malformed, or the "
                        "connection dropped")
    checker = None
    if work.name == "monitor":
        mid = mirror_after(work.graph, work.ops, work.midpoint)
        checker = MonitorChecker(
            watched,
            {op[1:3]: oracle.reference(mid, *op[1:]) for op in work.setup},
            work.midpoint,
            len(work.ops),
        )
    mirror = MirrorGraph(work.graph)
    for raw, index in zip(phase.replies, phase.op_index):
        op = work.ops[index]
        reply = json.loads(raw)
        if not reply.get("ok"):
            failed += 1
            problems.append(f"op {index}: error {reply.get('error')}")
            continue
        result = reply["result"]
        if checker is not None:
            ok = checker.observe(index, op, result)
        elif op[0] == "update":
            mirror.apply(*op[1:])
            ok = result.get("changed") is True and result.get("pairs") == []
        else:
            ok = query_answer_ok(result, oracle.reference(mirror, *op[1:]))
            if not ok:
                problems.append(f"op {index} {op}: answer differs from PathEnum")
        failed += not ok
    if checker is not None:
        problems += checker.problems
    return attempted, failed, problems


def end_to_end(served: Served) -> Dict[str, float]:
    """The end-to-end metrics of one served phase."""
    phase = served.phase
    ordered = sorted(phase.latency_ns)
    return {
        "setup_s": statistics.median(served.setup_s),
        "op_p50_ms": statistics.median(ordered) / 1e6,
        "op_tail_ms": wire.percentile_ms(ordered, wire.tail_percentile(len(ordered))),
        "ops_per_s": len(ordered) / phase.wall_s,
        "paths_per_s": phase.paths / phase.wall_s,
        "server_peak_rss_mb": served.rss_mb,
    }


def latency_lines(work, served: Served) -> List[str]:
    """Report lines: the op count, which percentile ``op_tail_ms`` is,
    and the latency metrics per op kind (``update_*`` / ``query_*``)."""
    phase = served.phase
    n = len(phase.latency_ns)
    lines = [f"ops {n} in {phase.wall_s:.2f} s; op_tail_ms is "
             f"p{wire.tail_percentile(n) * 100:g} of n={n}"]
    for kind, plural in (("update", "updates"), ("query", "queries")):
        samples = sorted(
            lat for lat, index in zip(phase.latency_ns, phase.op_index)
            if work.ops[index][0] == kind
        )
        if not samples:
            continue
        tail = wire.tail_percentile(len(samples))
        lines += [
            f"{kind}_p50_ms {statistics.median(samples) / 1e6:.6g} ms",
            f"{kind}_tail_ms {wire.percentile_ms(samples, tail):.6g} ms "
            f"(p{tail * 100:g}, n={len(samples)})",
            f"{plural}_per_s {len(samples) / phase.wall_s:.6g} {plural}/s",
        ]
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from oracle import Oracle

    STATE.mkdir(exist_ok=True)
    wire.pin(0)
    work = workloads.BUILDERS[args.workload](args.seed)
    untraced = serve(work, args.seconds, SETUPS)
    runs = [untraced]
    if args.trace:
        runs.append(serve(work, args.seconds, 1,
                          spans_path=STATE / f"spans-{work.name}.json"))

    started = time.perf_counter()
    oracle = Oracle(STATE / "references.json")
    attempted = failed = 0
    problems: List[str] = []
    for served in runs:
        a, f, p = check(work, served, oracle)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    oracle.save()
    check_s = time.perf_counter() - started

    e2e = end_to_end(untraced)
    units = dict(E2E_UNITS)
    report = latency_lines(work, untraced)
    report += [f"{name} {value:.6g} {units[name]}" for name, value in e2e.items()]
    metrics = e2e
    if args.trace:
        traced = runs[1]
        if traced.trace["obs_enabled"]:
            failed += 1
            problems.append("repro.obs was enabled in the traced server")
        traced_e2e = end_to_end(traced)
        spans = layers.PhaseSpans(traced.trace)
        metrics = layers.attribute(
            spans, traced.phase.latency_ns, traced.before, traced.after
        )
        metrics["trace.overhead_p50_ms"] = traced_e2e["op_p50_ms"] - e2e["op_p50_ms"]
        metrics["trace.overhead_ops_per_s_share"] = (
            1.0 - traced_e2e["ops_per_s"] / e2e["ops_per_s"]
        )
        units = dict(layers.metric_units())
        report.append("traced phase:")
        report += latency_lines(work, traced)
        report += layers.layer_table(spans, len(traced.phase.latency_ns))
        report += [f"{name} {value:.6g} {units[name]}"
                   for name, value in metrics.items()]

    print(f"# perfbench {work.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for line in report:
        print(line)
    print(f"failed_op_ratio {failed / max(attempted, 1):.6g} ratio "
          f"({failed} of {attempted}); {oracle.computed} references "
          f"computed, checks took {check_s:.1f} s")
    for problem in problems[:20]:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
