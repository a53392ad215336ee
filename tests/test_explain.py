"""Tests for :mod:`repro.obs.explain` — per-query EXPLAIN/ANALYZE.

The reports must agree with the algorithms they describe: the recorded
cut sums to k, the per-pair emit counts sum to the enumerated path
total (the ANALYZE invariant), and the frontier-cost estimates bound
the measured join output from above (they ignore disjointness).
"""

import json

import pytest

from repro import obs
from repro.core.enumerator import CpeEnumerator
from repro.obs.explain import ExplainRecord, explain_query, recording, active
from repro.obs.trace import validate_chrome_trace
from repro.graph.digraph import DynamicDiGraph, EdgeUpdate


@pytest.fixture
def grid():
    """A 4x4 grid digraph (edges right and down): many 0->15 paths."""
    graph = DynamicDiGraph()
    for row in range(4):
        for col in range(4):
            v = row * 4 + col
            if col < 3:
                graph.add_edge(v, v + 1)
            if row < 3:
                graph.add_edge(v, v + 4)
    return graph


class TestExplain:
    def test_split_sums_to_k(self, grid):
        report = explain_query(grid, 0, 15, 6)
        l, r = report.record.split
        assert l + r == 6
        assert report.record.plan_pairs[0] == (1, 1)

    def test_buckets_and_levels_are_recorded(self, grid):
        record = explain_query(grid, 0, 15, 6).record
        assert record.left_buckets and record.right_buckets
        assert any(level.side == "left" for level in record.levels)
        assert any(level.side == "right" for level in record.levels)
        for level in record.levels:
            assert level.pruned == level.expansions - level.admitted
            assert level.pruned >= 0

    def test_cut_steps_carry_frontier_sizes(self, grid):
        record = explain_query(grid, 0, 15, 6).record
        assert record.cut_steps, "Opt. 2 made no recorded decisions"
        for step in record.cut_steps:
            assert step.side in ("left", "right")
            assert step.left_frontier >= 0 and step.right_frontier >= 0

    def test_explain_without_analyze_leaves_invariant_open(self, grid):
        record = explain_query(grid, 0, 15, 6).record
        assert record.total_paths is None
        assert record.invariant_ok() is None
        assert record.join_pairs == []

    def test_analyze_invariant_holds(self, grid):
        report = explain_query(grid, 0, 15, 6, analyze=True)
        record = report.record
        assert record.invariant_ok() is True
        assert record.emitted_total() == record.total_paths
        expected = len(CpeEnumerator(grid, 0, 15, 6).startup())
        assert record.total_paths == expected

    def test_analyze_invariant_holds_with_direct_edge(self, diamond):
        report = explain_query(diamond, 0, 3, 3, analyze=True)
        record = report.record
        assert record.direct_edge is True
        assert record.invariant_ok() is True
        assert record.total_paths == 3

    def test_estimates_bound_measured_output(self, grid):
        report = explain_query(grid, 0, 15, 6, analyze=True)
        measured = {(p.i, p.j): p.emitted for p in report.record.join_pairs}
        for estimate in report.estimates:
            pair = (estimate["i"], estimate["j"])
            assert estimate["est_output"] >= measured.get(pair, 0)

    def test_no_paths_query(self):
        graph = DynamicDiGraph([(0, 1), (2, 3)])
        report = explain_query(graph, 0, 3, 4, analyze=True)
        assert report.record.total_paths == 0
        assert report.record.invariant_ok() is True

    def test_rejects_bad_query(self, grid):
        with pytest.raises(ValueError):
            explain_query(grid, 0, 0, 4)


class TestRecordingContext:
    def test_recording_sets_and_restores_active(self, grid):
        assert active() is None
        with recording() as record:
            assert active() is record
        assert active() is None

    def test_maintenance_is_recorded(self, diamond):
        cpe = CpeEnumerator(diamond, 0, 3, 3)
        cpe.startup()
        with recording() as record:
            cpe.apply(EdgeUpdate(1, 2, True))
            cpe.apply(EdgeUpdate(1, 2, False))
        kinds = [m.kind for m in record.maintenance]
        assert kinds == ["insert", "delete"]

    def test_plain_calls_record_nothing(self, grid):
        before = ExplainRecord()
        CpeEnumerator(grid, 0, 15, 6).startup()
        assert active() is None
        assert before.cut_steps == []


#: Per plan pair, in plan order: ``(i, j, cut_vertices, probes, emitted)``.
#: Every plan pair gets a row, including pairs with an empty level.
PINNED_JOIN_ROWS = {
    "grid": [
        (1, 1, 0, 0, 0),
        (1, 2, 0, 0, 0),
        (2, 2, 0, 0, 0),
        (2, 3, 0, 0, 0),
        (3, 3, 4, 20, 20),
    ],
    "diamond": [(1, 1, 2, 2, 2), (1, 2, 0, 0, 0)],
}

#: ``enumeration.*`` counters and the ``join_pair_output`` sample count
#: with obs on.  Pairs whose levels are both non-empty record a sample
#: even with no shared cut vertex (the grid's first four pairs); pairs
#: with an empty level record nothing (the diamond's empty ``RP_2``).
PINNED_COUNTERS = {
    "grid": (
        {
            "enumeration.join.1x1.paths": 0,
            "enumeration.join.1x2.paths": 0,
            "enumeration.join.2x2.paths": 0,
            "enumeration.join.2x3.paths": 0,
            "enumeration.join.3x3.paths": 20,
            "enumeration.paths": 20,
        },
        5,
    ),
    "diamond": (
        {"enumeration.join.1x1.paths": 2, "enumeration.paths": 3},
        1,
    ),
}


@pytest.fixture(params=["grid", "diamond"])
def pinned_query(request, grid, diamond):
    if request.param == "grid":
        return request.param, grid, (0, 15, 6)
    return request.param, diamond, (0, 3, 3)


def _enumeration_metrics():
    snap = obs.snapshot()
    counters = {
        name: value
        for name, value in snap["counters"].items()
        if name.startswith("enumeration.")
    }
    samples = snap["histograms"]["enumeration.join_pair_output"]["count"]
    return counters, samples


class TestPinnedJoinTelemetry:
    """The join's telemetry values, fixed per query and per plan pair."""

    def test_analyze_rows(self, pinned_query):
        name, graph, (s, t, k) = pinned_query
        report = explain_query(graph, s, t, k, analyze=True)
        rows = [
            (p.i, p.j, p.cut_vertices, p.probes, p.emitted)
            for p in report.record.join_pairs
        ]
        assert rows == PINNED_JOIN_ROWS[name]
        estimates = [
            (e["i"], e["j"], e["cut_vertices"], e["est_output"])
            for e in report.estimates
        ]
        assert estimates == [row[:4] for row in PINNED_JOIN_ROWS[name]]

    @pytest.mark.parametrize("streaming", [False, True])
    def test_obs_counters(self, pinned_query, streaming):
        name, graph, (s, t, k) = pinned_query
        cpe = CpeEnumerator(graph, s, t, k)
        previous = obs.set_enabled(True)
        obs.reset()
        try:
            if streaming:
                list(cpe.iter_paths())
            else:
                cpe.startup()
            assert _enumeration_metrics() == PINNED_COUNTERS[name]
        finally:
            obs.set_enabled(previous)
            obs.reset()

    def test_obs_counters_ignore_the_recorder(self, pinned_query):
        name, graph, (s, t, k) = pinned_query
        cpe = CpeEnumerator(graph, s, t, k)
        previous = obs.set_enabled(True)
        obs.reset()
        try:
            with recording() as record:
                cpe.startup()
            assert _enumeration_metrics() == PINNED_COUNTERS[name]
        finally:
            obs.set_enabled(previous)
            obs.reset()
        rows = [
            (p.i, p.j, p.cut_vertices, p.probes, p.emitted)
            for p in record.join_pairs
        ]
        assert rows == PINNED_JOIN_ROWS[name]


class TestReportRendering:
    def test_to_dict_schema(self, grid):
        payload = explain_query(grid, 0, 15, 6, analyze=True).to_dict()
        assert payload["schema"] == "repro-explain/1"
        assert payload["query"] == {"s": 0, "t": 15, "k": 6}
        assert payload["analyze"] is True
        assert payload["graph"]["num_vertices"] == 16
        assert payload["invariant_ok"] is True
        assert sum(payload["cut"]["split"]) == 6
        json.dumps(payload)  # must be JSON-serializable as-is

    def test_render_text_mentions_the_decisions(self, grid):
        text = explain_query(grid, 0, 15, 6, analyze=True).render_text()
        assert "EXPLAIN ANALYZE" in text
        assert "dynamic cut decisions" in text
        assert "Opt. 1" in text
        assert "join pairs" in text
        assert "invariant emit-total == path-total: ok" in text

    def test_chrome_trace_round_trip(self, grid):
        previous = obs.set_enabled(True)
        try:
            with obs.tracing() as buffer:
                report = explain_query(grid, 0, 15, 6, analyze=True)
        finally:
            obs.set_enabled(previous)
        payload = report.to_chrome_trace(buffer)
        assert validate_chrome_trace(payload) == []
        names = {event["name"] for event in payload["traceEvents"]}
        assert "explain.cut" in names
        assert "explain.level" in names
        assert "explain.join" in names
        assert "construction.build" in names
        assert payload["metadata"]["explain"]["schema"] == "repro-explain/1"

    def test_trace_instants_carry_counter_args(self, grid):
        previous = obs.set_enabled(True)
        try:
            with obs.tracing() as buffer:
                report = explain_query(grid, 0, 15, 6, analyze=True)
        finally:
            obs.set_enabled(previous)
        payload = report.to_chrome_trace(buffer)
        levels = [e for e in payload["traceEvents"]
                  if e["name"] == "explain.level"]
        assert levels
        for event in levels:
            assert {"side", "level", "expansions", "admitted"} <= set(
                event["args"]
            )
        joins = [e for e in payload["traceEvents"]
                 if e["name"] == "explain.join"]
        assert sum(e["args"]["emitted"] for e in joins) + int(
            report.record.direct_edge
        ) == report.record.total_paths
