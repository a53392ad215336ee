"""Per-layer attribution of one traced run.

Input: the span file written by ``traced_serve.py``, the client's
per-op latencies of the timed phase, and the server's ``stats`` taken
just before and just after that phase.  The timed phase is the window
between the two ``stats`` requests' ``service.engine.handle`` spans.

A layer is a span name without its last component (``core.distance``
for ``core.distance.bfs``).  A span's self time is its duration minus
the durations of its child spans.  A layer's busy time is the summed
duration of its spans whose parent is in another layer.  Both rely on
the closed loop: one request is served at a time, and a child runs
inside its parent on the parent's thread, so these spans never overlap.
"""

from __future__ import annotations

import statistics
from array import array
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from traced_serve import NO_VALUE

#: Layers reported as ``<layer>.self_ms_per_op`` / ``busy_ms_per_op`` /
#: ``calls_per_op`` (``service.server`` is the remainder between the
#: client's latency and the engine, see ``service.server.overhead_ms``).
LAYERS = (
    "service.protocol",
    "service.admission",
    "service.engine",
    "service.cache",
    "core.monitor",
    "graph.digraph",
    "core.distance",
    "core.construction",
    "core.enumeration",
    "core.maintenance",
)

#: Per-layer metrics with their units, in the order they are reported.
SPECIFIC = (
    ("service.server.overhead_ms", "ms"),
    ("service.protocol.decode_us", "us"),
    ("service.protocol.encode_ms", "ms"),
    ("service.protocol.encode_paths_ms", "ms"),
    ("service.protocol.response_bytes", "bytes"),
    ("service.admission.wait_ms", "ms"),
    ("service.admission.rejected", "count"),
    ("service.engine.handle_ms.query", "ms"),
    ("service.engine.handle_ms.update", "ms"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.cache.lookups", "count"),
    ("service.cache.miss_build_ms", "ms"),
    ("service.cache.evictions", "count"),
    ("service.cache.bypasses", "count"),
    ("service.cache.observe_all_ms", "ms"),
    ("service.cache.entries_repaired", "count"),
    ("service.cache.bytes", "bytes"),
    ("core.monitor.observe_ms", "ms"),
    ("core.monitor.pairs_repaired", "count"),
    ("graph.digraph.apply_update_us", "us"),
    ("core.distance.bfs_ms", "ms"),
    ("core.distance.relax_ms", "ms"),
    ("core.distance.tighten_ms", "ms"),
    ("core.distance.changed_vertices", "count"),
    ("core.construction.build_index_ms", "ms"),
    ("core.construction.prep_ms", "ms"),
    ("core.construction.build_ms", "ms"),
    ("core.construction.expansions", "count"),
    ("core.construction.prune_ratio", "ratio"),
    ("core.maintenance.insert_ms", "ms"),
    ("core.maintenance.delete_ms", "ms"),
    ("core.maintenance.apply_removals_ms", "ms"),
    ("core.maintenance.delta_partials", "count"),
    ("core.maintenance.changed_ratio", "ratio"),
    ("core.enumeration.full_ms", "ms"),
    ("core.enumeration.full_paths_per_s", "paths/s"),
    ("core.enumeration.delta_ms", "ms"),
    ("core.enumeration.delta_paths", "count"),
    ("core.index.bytes", "bytes"),
    ("trace.unattributed_ms_per_op", "ms"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_p50_ms", "ms"),
    ("trace.overhead_ops_per_s_share", "ratio"),
)


def metric_units() -> List[Tuple[str, str]]:
    """Every per-layer metric name with its unit."""
    units = list(SPECIFIC)
    for layer in LAYERS:
        units += [
            (f"{layer}.self_ms_per_op", "ms"),
            (f"{layer}.busy_ms_per_op", "ms"),
            (f"{layer}.calls_per_op", "calls"),
        ]
    return units


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


class PhaseSpans:
    """The spans of the timed phase, grouped by name.

    ``groups[name]`` lists row indexes into the trace's columns;
    ``self_ns[row]`` is that span's self time.
    """

    def __init__(self, trace: Dict) -> None:
        cols = trace["columns"]
        names = trace["names"]
        self.trace = trace
        self.ids, self.parents = cols["id"], cols["parent"]
        self.starts, self.ends = cols["start_ns"], cols["end_ns"]
        self.values, self.tags = cols["value"], trace["tags"]
        handle = names.index("service.engine.handle")
        marks = sorted(
            (self.starts[row], self.ends[row]) for row in range(trace["count"])
            if cols["name"][row] == handle
            and self.tags.get(self.ids[row]) == "stats"
        )
        if len(marks) < 2:
            raise ValueError("trace lacks the stats requests around the phase")
        opened, closed = marks[-2][1], marks[-1][0]
        self.groups: Dict[str, List[int]] = defaultdict(list)
        child_ns: Dict[int, int] = defaultdict(int)
        name_of: Dict[int, str] = {}
        for row in range(trace["count"]):
            if opened <= self.starts[row] < closed:
                name = names[cols["name"][row]]
                self.groups[name].append(row)
                name_of[self.ids[row]] = name
                child_ns[self.parents[row]] += self.duration(row)
        self.self_ns = array("q", (0,)) * trace["count"]
        self.outer: Dict[str, int] = defaultdict(int)
        for name, rows in self.groups.items():
            layer = name.rsplit(".", 1)[0]
            for row in rows:
                self.self_ns[row] = self.duration(row) - child_ns[self.ids[row]]
                parent = name_of.get(self.parents[row], "")
                if parent.rsplit(".", 1)[0] != layer:
                    self.outer[layer] += self.duration(row)

    def duration(self, row: int) -> int:
        return self.ends[row] - self.starts[row]

    def rows(self, name: str) -> List[int]:
        return self.groups.get(name, [])

    def mean_ms(self, name: str) -> float:
        return _mean([self.duration(row) / 1e6 for row in self.rows(name)])

    def values_of(self, name: str) -> List[int]:
        return [self.values[row] for row in self.rows(name)
                if self.values[row] != NO_VALUE]

    def tag(self, row: int) -> str:
        return self.tags.get(self.ids[row], "")


def attribute(
    spans: PhaseSpans,
    latency_ns: Sequence[int],
    before: Dict,
    after: Dict,
) -> Dict[str, float]:
    """Per-layer metrics of one traced timed phase."""
    trace = spans.trace
    extras = trace["extras"]
    ops = max(len(latency_ns), 1)
    out: Dict[str, float] = {}

    handles = sorted(spans.rows("service.engine.handle"),
                     key=lambda row: spans.starts[row])
    if len(handles) == len(latency_ns):
        out["service.server.overhead_ms"] = statistics.median(
            (lat - spans.duration(row)) / 1e6
            for lat, row in zip(latency_ns, handles)
        )
    else:
        out["service.server.overhead_ms"] = (
            sum(latency_ns) - sum(map(spans.duration, handles))
        ) / 1e6 / ops
    out["service.protocol.decode_us"] = spans.mean_ms("service.protocol.decode") * 1e3
    out["service.protocol.encode_ms"] = spans.mean_ms("service.protocol.encode")
    out["service.protocol.encode_paths_ms"] = spans.mean_ms(
        "service.protocol.encode_paths"
    )
    out["service.protocol.response_bytes"] = _mean(
        spans.values_of("service.protocol.encode")
    )
    out["service.admission.wait_ms"] = spans.mean_ms("service.admission.wait")
    refused = ("rejected_overload", "rejected_shutdown", "expired")
    out["service.admission.rejected"] = float(sum(
        after["admission"][key] - before["admission"][key] for key in refused
    ))
    for op in ("query", "update"):
        out[f"service.engine.handle_ms.{op}"] = _mean([
            spans.self_ns[row] / 1e6 for row in handles if spans.tag(row) == op
        ])
    lookups = spans.rows("service.cache.get_or_build")
    outcomes = [spans.tag(row) for row in lookups]
    out["service.cache.lookups"] = float(len(lookups))
    out["service.cache.hit_ratio"] = (
        outcomes.count("hit") / len(lookups) if lookups else 0.0
    )
    out["service.cache.miss_build_ms"] = _mean([
        spans.duration(row) / 1e6 for row in lookups
        if spans.tag(row) in ("miss", "bypass")
    ])
    out["service.cache.evictions"] = float(
        after["cache"]["evictions"] - before["cache"]["evictions"]
    )
    out["service.cache.bypasses"] = float(outcomes.count("bypass"))
    out["service.cache.observe_all_ms"] = spans.mean_ms("service.cache.observe_all")
    out["service.cache.entries_repaired"] = _mean(
        spans.values_of("service.cache.observe_all")
    )
    out["service.cache.bytes"] = float(after["cache"]["current_bytes"])
    out["core.monitor.observe_ms"] = spans.mean_ms("core.monitor.observe")
    out["core.monitor.pairs_repaired"] = _mean(spans.values_of("core.monitor.observe"))
    out["graph.digraph.apply_update_us"] = (
        spans.mean_ms("graph.digraph.apply_update") * 1e3
    )
    out["core.distance.bfs_ms"] = spans.mean_ms("core.distance.bfs")
    out["core.distance.relax_ms"] = spans.mean_ms("core.distance.relax")
    out["core.distance.tighten_ms"] = spans.mean_ms("core.distance.tighten")
    out["core.distance.changed_vertices"] = _mean(
        spans.values_of("core.distance.relax")
        + spans.values_of("core.distance.tighten")
    )
    builds = [extras[spans.ids[row]]
              for row in spans.rows("core.construction.build_index")
              if spans.ids[row] in extras]
    out["core.construction.build_index_ms"] = spans.mean_ms(
        "core.construction.build_index"
    )
    out["core.construction.prep_ms"] = _mean([b[0] * 1e3 for b in builds])
    out["core.construction.build_ms"] = _mean([b[1] * 1e3 for b in builds])
    out["core.construction.expansions"] = _mean([b[2] for b in builds])
    explored = sum(b[2] + b[3] for b in builds)
    out["core.construction.prune_ratio"] = (
        sum(b[3] for b in builds) / explored if explored else 0.0
    )
    out["core.maintenance.insert_ms"] = spans.mean_ms("core.maintenance.insert")
    out["core.maintenance.delete_ms"] = spans.mean_ms("core.maintenance.delete")
    out["core.maintenance.apply_removals_ms"] = spans.mean_ms(
        "core.maintenance.apply_removals"
    )
    repairs = (spans.rows("core.maintenance.insert")
               + spans.rows("core.maintenance.delete"))
    out["core.maintenance.delta_partials"] = _mean(
        [spans.values[row] for row in repairs]
    )
    out["core.maintenance.changed_ratio"] = _mean([
        float(spans.values[row] > 0 or spans.tag(row) == "direct")
        for row in repairs
    ])
    full_s = sum(map(spans.duration, spans.rows("core.enumeration.full"))) / 1e9
    out["core.enumeration.full_ms"] = spans.mean_ms("core.enumeration.full")
    out["core.enumeration.full_paths_per_s"] = (
        sum(spans.values_of("core.enumeration.full")) / full_s if full_s else 0.0
    )
    out["core.enumeration.delta_ms"] = spans.mean_ms("core.enumeration.delta")
    out["core.enumeration.delta_paths"] = _mean(
        spans.values_of("core.enumeration.delta")
    )
    out["core.index.bytes"] = float(trace["index_bytes"])

    attributed = 0
    for layer in LAYERS:
        mine = [row for name, rows in spans.groups.items()
                if name.rsplit(".", 1)[0] == layer for row in rows]
        layer_self = sum(spans.self_ns[row] for row in mine)
        attributed += layer_self
        out[f"{layer}.self_ms_per_op"] = layer_self / 1e6 / ops
        out[f"{layer}.busy_ms_per_op"] = spans.outer[layer] / 1e6 / ops
        out[f"{layer}.calls_per_op"] = len(mine) / ops
    total = sum(latency_ns)
    out["trace.unattributed_ms_per_op"] = (total - attributed) / 1e6 / ops
    out["trace.unattributed_share"] = (total - attributed) / total if total else 0.0
    return out


def layer_table(spans: PhaseSpans, ops: int) -> List[str]:
    """Human-readable calls / busy / self per span name."""
    ops = max(ops, 1)
    lines = [f"  {'span':38s} {'calls':>9s} {'busy ms/op':>11s} {'self ms/op':>11s}"]
    for name in sorted(spans.groups):
        rows = spans.groups[name]
        busy = sum(map(spans.duration, rows))
        own = sum(spans.self_ns[row] for row in rows)
        lines.append(
            f"  {name:38s} {len(rows):9d} {busy / 1e6 / ops:11.4f} "
            f"{own / 1e6 / ops:11.4f}"
        )
    return lines
