"""Observability overhead: instrumentation must cost <5% when enabled.

Runs one representative index lifecycle (CPE_startup construction +
enumeration, then a result-relevant update stream) with :mod:`repro.obs`
disabled and enabled, interleaved A/B to decorrelate machine drift, and
compares the medians.  The disabled path is a single module-level
boolean check per instrumentation site, so the interesting number is
the *enabled* ratio — the budget docs/OBSERVABILITY.md promises is 5%
(CI tolerance is configurable via ``REPRO_BENCH_OBS_TOLERANCE`` because
sub-second workloads on shared runners are noisy).

The core workload now also passes through the EXPLAIN hooks
(``explain_active()`` checks in construction/enumeration/maintenance),
so the first benchmark's disabled side bounds their off cost too.  The
second benchmark drives the same graph through the service engine and
compares the structured event log off vs on
(:mod:`repro.obs.events`) — bounding the *enabled* emission cost, which
in turn bounds the disabled one-boolean path.

The third benchmark bounds the always-on forensic plane: the same
engine traffic with the flight recorder and the metrics time-series
ring off vs on (:mod:`repro.obs.flight` / :mod:`repro.obs.timeseries`).
The on side pays one deque append per span plus one lock-and-compare
per request for the ring tick — the budget for leaving the recorder on
in production is the same 5%.

The fourth benchmark bounds the join counters on a heavy join: the
largest-result pair among 10 hot WG 0.25 candidates at k=10 (fixed
seed), with ``enumerate_full_list`` timed with obs off, obs on and
under an EXPLAIN recorder.  The per-pair counters come from the
production join at O(plan length) per call, so both ratios must stay
within the tolerance; a join that swaps in a different algorithm when
instrumented fails here.

Runs are recorded under ``benchmarks/results/bench_obs.json``,
``benchmarks/results/bench_obs_events.json``,
``benchmarks/results/bench_obs_flight.json`` and
``benchmarks/results/bench_obs_heavy.json``.
"""

from __future__ import annotations

import os
import statistics
import time

from benchmarks.conftest import bench_config as _config, metric, publish_json
from repro import obs
from repro.core.enumeration import enumerate_full_list
from repro.core.enumerator import CpeEnumerator
from repro.graph import datasets
from repro.obs import explain
from repro.workloads.queries import hot_queries
from repro.workloads.updates import relevant_update_stream

#: Allowed enabled/disabled ratio; 1.05 is the documented 5% budget,
#: relaxed via env for noisy shared CI runners.
TOLERANCE = float(os.environ.get("REPRO_BENCH_OBS_TOLERANCE", 1.25))

REPEATS = int(os.environ.get("REPRO_BENCH_OBS_REPEATS", 5))


def _workload():
    config = _config()
    graph = datasets.load("WG", config.scale)
    query = hot_queries(graph, 1, config.k, 0.05, seed=config.seed)[0]
    updates = relevant_update_stream(
        graph, query.s, query.t, query.k, 10, 10, seed=config.seed
    )
    return graph, query, updates, config


def _run_once(graph, query, updates) -> float:
    working = graph.copy()
    start = time.perf_counter()
    enumerator = CpeEnumerator(working, query.s, query.t, query.k)
    enumerator.startup()
    for update in updates:
        if working.apply_update(update):
            enumerator.observe(update)
    return time.perf_counter() - start


def bench_obs_overhead_under_budget():
    """Median enabled/disabled ratio stays within the tolerance."""
    graph, query, updates, config = _workload()
    previous = obs.set_enabled(False)
    disabled_times = []
    enabled_times = []
    try:
        _run_once(graph, query, updates)  # warm caches before measuring
        for _ in range(REPEATS):
            obs.disable()
            disabled_times.append(_run_once(graph, query, updates))
            obs.enable()
            obs.reset()
            enabled_times.append(_run_once(graph, query, updates))
    finally:
        obs.set_enabled(previous)
        obs.reset()
    disabled = statistics.median(disabled_times)
    enabled = statistics.median(enabled_times)
    ratio = enabled / disabled
    print(f"\nobs overhead: disabled {disabled * 1e3:.2f} ms, "
          f"enabled {enabled * 1e3:.2f} ms, ratio {ratio:.3f} "
          f"(tolerance {TOLERANCE:.2f})")
    publish_json(
        "bench_obs",
        {
            "disabled_s": metric(disabled),
            "enabled_s": metric(enabled),
            "overhead_ratio": metric(ratio, unit="ratio"),
        },
        config=config,
    )
    assert ratio < TOLERANCE, (
        f"instrumentation overhead ratio {ratio:.3f} exceeds {TOLERANCE:.2f}"
    )


def _run_engine_once(graph, queries, updates, k) -> float:
    from repro.service.engine import PathQueryEngine

    working = graph.copy()
    engine = PathQueryEngine(working, default_k=k)
    start = time.perf_counter()
    for _ in range(3):
        for query in queries:
            engine.handle(
                "query", {"s": query.s, "t": query.t, "k": query.k}
            )
    for update in updates:
        engine.handle(
            "update", {"u": update.u, "v": update.v, "insert": update.insert}
        )
    return time.perf_counter() - start


def bench_events_overhead_under_budget():
    """Engine traffic with the event log on stays within the tolerance.

    The A side (events disabled) is the production default: every emit
    site reduces to one module-boolean check.  The B side takes the
    full ring-buffer write, so the asserted ratio is an upper bound on
    what anyone pays with the log left off.
    """
    from repro.obs import events

    graph, query, updates, config = _workload()
    queries = hot_queries(graph, 4, config.k, 0.05, seed=config.seed)
    previous_obs = obs.set_enabled(False)
    previous_events = events.set_enabled(False)
    disabled_times = []
    enabled_times = []
    try:
        _run_engine_once(graph, queries, updates, config.k)  # warm-up
        for _ in range(REPEATS):
            events.set_enabled(False)
            disabled_times.append(
                _run_engine_once(graph, queries, updates, config.k)
            )
            events.set_enabled(True)
            events.reset()
            enabled_times.append(
                _run_engine_once(graph, queries, updates, config.k)
            )
    finally:
        events.set_enabled(previous_events)
        events.reset()
        obs.set_enabled(previous_obs)
    disabled = statistics.median(disabled_times)
    enabled = statistics.median(enabled_times)
    ratio = enabled / disabled
    print(f"\nevents overhead: disabled {disabled * 1e3:.2f} ms, "
          f"enabled {enabled * 1e3:.2f} ms, ratio {ratio:.3f} "
          f"(tolerance {TOLERANCE:.2f})")
    publish_json(
        "bench_obs_events",
        {
            "disabled_s": metric(disabled),
            "enabled_s": metric(enabled),
            "overhead_ratio": metric(ratio, unit="ratio"),
        },
        config=config,
    )
    assert ratio < TOLERANCE, (
        f"event-log overhead ratio {ratio:.3f} exceeds {TOLERANCE:.2f}"
    )


def _run_engine_recorder_once(
    graph, queries, updates, k, flight_window, timeseries_interval
) -> float:
    """Engine traffic with the forensic plane configured as given.

    Mirrors production ticking: the server/worker loops call
    ``timeseries.maybe_sample()`` once per handled request, so the
    measured cost includes the per-request decline path plus the
    periodic full samples.
    """
    from repro.obs import timeseries
    from repro.service.engine import PathQueryEngine

    working = graph.copy()
    engine = PathQueryEngine(
        working,
        default_k=k,
        flight_window=flight_window,
        timeseries_interval=timeseries_interval,
    )
    try:
        start = time.perf_counter()
        for _ in range(3):
            for query in queries:
                engine.handle(
                    "query", {"s": query.s, "t": query.t, "k": query.k}
                )
                timeseries.maybe_sample()
        for update in updates:
            engine.handle(
                "update",
                {"u": update.u, "v": update.v, "insert": update.insert},
            )
            timeseries.maybe_sample()
        return time.perf_counter() - start
    finally:
        engine.close()


def bench_flight_overhead_under_budget():
    """Flight recorder + time-series ring stay within the tolerance.

    Both sides run with metrics enabled, so the ratio isolates exactly
    what the always-on forensic plane adds on top of ordinary
    instrumentation: the span-ring append and the ring tick.
    """
    graph, query, updates, config = _workload()
    queries = hot_queries(graph, 4, config.k, 0.05, seed=config.seed)
    previous_obs = obs.set_enabled(True)
    disabled_times = []
    enabled_times = []
    try:
        _run_engine_recorder_once(  # warm-up
            graph, queries, updates, config.k, 0.0, 0.0
        )
        for _ in range(REPEATS):
            obs.reset()
            disabled_times.append(_run_engine_recorder_once(
                graph, queries, updates, config.k, 0.0, 0.0
            ))
            obs.reset()
            enabled_times.append(_run_engine_recorder_once(
                graph, queries, updates, config.k, 30.0, 0.25
            ))
    finally:
        obs.set_enabled(previous_obs)
        obs.reset()
    disabled = statistics.median(disabled_times)
    enabled = statistics.median(enabled_times)
    ratio = enabled / disabled
    print(f"\nflight overhead: recorder off {disabled * 1e3:.2f} ms, "
          f"on {enabled * 1e3:.2f} ms, ratio {ratio:.3f} "
          f"(tolerance {TOLERANCE:.2f})")
    publish_json(
        "bench_obs_flight",
        {
            "disabled_s": metric(disabled),
            "enabled_s": metric(enabled),
            "flight_overhead_ratio": metric(ratio, unit="ratio"),
        },
        config=config,
    )
    assert ratio < TOLERANCE, (
        f"flight-recorder overhead ratio {ratio:.3f} exceeds "
        f"{TOLERANCE:.2f}"
    )


def _heavy_index():
    """The index of the largest-result pair among 10 hot candidates.

    Fixed rule: ``hot_queries(WG 0.25, 10, k=10, top_fraction=0.05,
    seed=config.seed)``, ties broken by candidate order.
    """
    config = _config(scale=0.25, k=10)
    graph = datasets.load("WG", config.scale)
    candidates = hot_queries(graph, 10, config.k, 0.05, seed=config.seed)
    best = None
    for query in candidates:
        enumerator = CpeEnumerator(graph, query.s, query.t, query.k)
        count = enumerator.count_paths()
        if best is None or count > best[0]:
            best = (count, query, enumerator.index)
    assert best is not None
    return best[0], best[1], best[2], config


def _time_join(index) -> float:
    start = time.perf_counter()
    enumerate_full_list(index)
    return time.perf_counter() - start


def bench_heavy_join_counters_under_budget():
    """Join counters and EXPLAIN on a heavy join stay within tolerance."""
    paths, query, index, config = _heavy_index()
    previous = obs.set_enabled(False)
    disabled_times = []
    enabled_times = []
    explain_times = []
    try:
        _time_join(index)  # warm the packed program before measuring
        for _ in range(REPEATS):
            obs.disable()
            disabled_times.append(_time_join(index))
            obs.enable()
            obs.reset()
            enabled_times.append(_time_join(index))
            obs.disable()
            with explain.recording():
                explain_times.append(_time_join(index))
    finally:
        obs.set_enabled(previous)
        obs.reset()
    disabled = statistics.median(disabled_times)
    enabled = statistics.median(enabled_times)
    explained = statistics.median(explain_times)
    obs_ratio = enabled / disabled
    explain_ratio = explained / disabled
    print(f"\nheavy join q({query.s}, {query.t}, {query.k}), {paths} paths: "
          f"disabled {disabled * 1e3:.2f} ms, obs {enabled * 1e3:.2f} ms "
          f"(ratio {obs_ratio:.3f}), explain {explained * 1e3:.2f} ms "
          f"(ratio {explain_ratio:.3f}) (tolerance {TOLERANCE:.2f})")
    publish_json(
        "bench_obs_heavy",
        {
            "paths": metric(paths, unit="count", direction="higher"),
            "disabled_s": metric(disabled),
            "enabled_s": metric(enabled),
            "explain_s": metric(explained),
            "overhead_ratio": metric(obs_ratio, unit="ratio"),
            "explain_overhead_ratio": metric(explain_ratio, unit="ratio"),
        },
        config=config,
    )
    assert obs_ratio < TOLERANCE, (
        f"heavy-join obs overhead ratio {obs_ratio:.3f} exceeds "
        f"{TOLERANCE:.2f}"
    )
    assert explain_ratio < TOLERANCE, (
        f"heavy-join explain overhead ratio {explain_ratio:.3f} exceeds "
        f"{TOLERANCE:.2f}"
    )


__all__ = [
    "TOLERANCE",
    "REPEATS",
    "bench_obs_overhead_under_budget",
    "bench_events_overhead_under_budget",
    "bench_flight_overhead_under_budget",
    "bench_heavy_join_counters_under_budget",
]
