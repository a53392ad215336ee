"""Seeded inputs for the three benchmark workloads.

Everything is built from the public :mod:`repro.workloads` generators
over WG at scale 1.0, before any server is launched; the server only
ever sees the wire requests produced here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.graph import datasets
from repro.graph.digraph import DynamicDiGraph, EdgeUpdate
from repro.workloads.queries import hot_queries
from repro.workloads.traffic import service_traffic
from repro.workloads.updates import relevant_update_stream

DATASET = "WG"
SCALE = 1.0

#: Seed of every workload's query pairs and update streams.  They are
#: part of a workload's definition: the cost of a k-st query or of an
#: update varies by orders of magnitude between hot pairs and edges, so
#: drawing them per run would make the run-to-run spread measure the
#: draw, not the program.  The run's ``--seed`` sets the request order:
#: how the monitored streams interleave, which query lands in which
#: slot of the mixed traffic, and the order of the cold queries.
PAIR_SEED = 0

MONITOR_K = 8
MONITOR_PAIRS = 8
#: Per watched pair: result-relevant insertions and deletions.
MONITOR_UPDATES_PER_PAIR = 100

ADHOC_K = 10
#: Distinct pairs of ``adhoc_cold``; a run sends whole passes over them.
ADHOC_PAIRS = 100

MIXED_K = 8
#: Ops generated for ``mixed_rw``; a run sends a prefix.
MIXED_OPS = 12000

Pair = Tuple[int, int]


@dataclass
class Workload:
    """One workload's inputs.

    ``setup`` requests are sent after the server is ready and before
    the timed phase (the ``watch`` registrations of ``monitor``).
    ``ops`` are the timed requests as ``("query", s, t, k)`` or
    ``("update", u, v, insert)`` tuples.  With ``cyclic`` the client
    sends whole passes over them until the run's time is up; otherwise
    it sends a prefix.
    """

    name: str
    graph: DynamicDiGraph
    setup: List[Tuple] = field(default_factory=list)
    ops: List[Tuple] = field(default_factory=list)
    cyclic: bool = False
    #: ``monitor`` only: index into ``ops`` where the inverted half
    #: starts (the mid-round checkpoint).
    midpoint: int = 0


def load_graph() -> DynamicDiGraph:
    """The served graph, built exactly as ``repro serve`` builds it."""
    return datasets.load(DATASET, SCALE)


def distinct_hot_pairs(
    graph: DynamicDiGraph, count: int, k: int, seed: int
) -> List[Pair]:
    """``count`` distinct hot (top-10 % degree) pairs, in draw order."""
    drawn = hot_queries(graph, 2 * count, k, top_fraction=0.10, seed=seed)
    pairs: Dict[Pair, None] = {}
    for query in drawn:
        pairs.setdefault((query.s, query.t), None)
    if len(pairs) < count:
        raise RuntimeError(f"only {len(pairs)} distinct hot pairs, need {count}")
    return list(pairs)[:count]


def monitor(seed: int) -> Workload:
    """Eight watched pairs; one round = their relevant update streams,
    merged in a seeded order with no-ops dropped, then the same
    stream inverted."""
    graph = load_graph()
    pairs = distinct_hot_pairs(graph, MONITOR_PAIRS, MONITOR_K, PAIR_SEED)
    streams = [
        relevant_update_stream(
            graph, s, t, MONITOR_K,
            num_insertions=MONITOR_UPDATES_PER_PAIR,
            num_deletions=MONITOR_UPDATES_PER_PAIR,
            seed=PAIR_SEED + index,
        )
        for index, (s, t) in enumerate(pairs)
    ]
    # Each stream keeps its own order; the seed picks which stream
    # supplies the next update.
    turns = [i for i, stream in enumerate(streams) for _ in stream]
    random.Random(seed).shuffle(turns)
    cursors = [iter(stream) for stream in streams]
    merged = [next(cursors[i]) for i in turns]
    mirror = graph.copy()
    forward = [update for update in merged if mirror.apply_update(update)]
    inverted = [
        EdgeUpdate(update.u, update.v, not update.insert)
        for update in reversed(forward)
    ]
    return Workload(
        name="monitor",
        graph=graph,
        setup=[("watch", s, t, MONITOR_K) for s, t in pairs],
        ops=[("update", e.u, e.v, e.insert) for e in forward + inverted],
        cyclic=True,
        midpoint=len(forward),
    )


def adhoc_cold(seed: int) -> Workload:
    """Distinct hot pairs at k = 10, each queried once per pass, in a
    seeded order."""
    graph = load_graph()
    pairs = distinct_hot_pairs(graph, ADHOC_PAIRS, ADHOC_K, PAIR_SEED)
    random.Random(seed).shuffle(pairs)
    return Workload(
        name="adhoc_cold",
        graph=graph,
        ops=[("query", s, t, ADHOC_K) for s, t in pairs],
        cyclic=True,
    )


def mixed_rw(seed: int) -> Workload:
    """Zipf-popular hot queries over 32 pairs with 20 % updates.

    The traffic is generated with :data:`PAIR_SEED`; the run's seed
    then deals the query ops to the query slots in a seeded order
    (updates keep their slots, so the stream stays valid).
    """
    graph = load_graph()
    ops = service_traffic(
        graph,
        MIXED_OPS,
        MIXED_K,
        update_fraction=0.2,
        distinct_pairs=32,
        hot_fraction=0.10,
        zipf_a=1.1,
        seed=PAIR_SEED,
    )
    queries = [op for op in ops if op[0] == "query"]
    random.Random(seed).shuffle(queries)
    dealt = iter(queries)
    ops = [op if op[0] == "update" else next(dealt) for op in ops]
    return Workload(name="mixed_rw", graph=graph, ops=ops)


BUILDERS = {"monitor": monitor, "adhoc_cold": adhoc_cold, "mixed_rw": mixed_rw}


def request_line(request_id: int, op: Sequence) -> bytes:
    """One wire request line for a workload op tuple."""
    kind = op[0]
    if kind == "update":
        payload = {"id": request_id, "op": "update", "u": op[1], "v": op[2],
                   "insert": op[3]}
    else:  # query / watch
        payload = {"id": request_id, "op": kind, "s": op[1], "t": op[2],
                   "k": op[3]}
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode()
