"""Answer checking against :class:`repro.baselines.PathEnumEnumerator`.

References are computed in the client, after the timed phase, on the
client's own mirror of the served graph.  PathEnum is an independent
join/DFS implementation, but it shares the hop-capped BFS of
:mod:`repro.core.distance` with the served program, so a defect in that
BFS alone could go unnoticed by this check.

A reference is stored as ``(count, digest)`` of the sorted path list,
keyed by an order-independent hash of the graph's edge set plus
``(s, t, k)``, in a cache file inside the checkout: a graph state seen
by an earlier run (same seed, or a state shared across seeds, such as
the initial graph of ``adhoc_cold``) is not recomputed.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.baselines import PathEnumEnumerator
from repro.graph.digraph import DynamicDiGraph, EdgeUpdate

PathT = Tuple[int, ...]
Reference = Tuple[int, str]

_MASK = (1 << 128) - 1


def _edge_hash(u: int, v: int) -> int:
    digest = hashlib.blake2b(f"{u},{v}".encode(), digest_size=16).digest()
    return int.from_bytes(digest, "big")


def answer_digest(paths: Iterable[Sequence[int]]) -> Reference:
    """``(count, digest)`` of a path list, independent of its order."""
    canonical = sorted(tuple(path) for path in paths)
    digest = hashlib.blake2b(repr(canonical).encode(), digest_size=16)
    return len(canonical), digest.hexdigest()


class MirrorGraph:
    """The client's copy of the served graph with a running edge-set
    hash, updated in O(1) per edge update."""

    def __init__(self, graph: DynamicDiGraph) -> None:
        self.graph = graph.copy()
        total = 0
        for u, v in self.graph.edges():
            total += _edge_hash(u, v)
        self.hash = total & _MASK

    def apply(self, u: int, v: int, insert: bool) -> bool:
        if not self.graph.apply_update(EdgeUpdate(u, v, insert)):
            return False
        delta = _edge_hash(u, v)
        self.hash = (self.hash + (delta if insert else -delta)) & _MASK
        return True


class Oracle:
    """PathEnum references with an on-disk ``(count, digest)`` cache."""

    def __init__(self, cache_path: Path) -> None:
        self.cache_path = cache_path
        self._refs: Dict[str, List] = {}
        self._dirty = False
        self.computed = 0
        if cache_path.exists():
            try:
                self._refs = json.loads(cache_path.read_text())
            except ValueError:
                self._refs = {}

    def reference(self, mirror: MirrorGraph, s: int, t: int, k: int) -> Reference:
        key = f"{mirror.hash:032x}:{s}:{t}:{k}"
        cached = self._refs.get(key)
        if cached is not None:
            return cached[0], cached[1]
        ref = answer_digest(PathEnumEnumerator(mirror.graph, s, t, k).paths())
        self.computed += 1
        self._refs[key] = list(ref)
        self._dirty = True
        return ref

    def save(self) -> None:
        if not self._dirty:
            return
        self.cache_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.cache_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self._refs, separators=(",", ":")))
        os.replace(tmp, self.cache_path)
        self._dirty = False


def query_answer_ok(result: Dict, ref: Reference) -> bool:
    """A ``query`` result carries exactly the reference paths."""
    paths = result.get("paths")
    if not isinstance(paths, list) or result.get("count") != len(paths):
        return False
    return answer_digest(paths) == ref


def _has_edge(path: Sequence[int], u: int, v: int) -> bool:
    return any(a == u and b == v for a, b in zip(path, path[1:]))


class MonitorChecker:
    """Checks the ``monitor`` stream of update replies.

    Per watched pair it keeps the initial result set plus every
    reported new path minus every reported deleted path.  Each
    reported path must go through the updated edge; a new path must be
    absent and a deleted one present.  At each round's midpoint the
    tracked set must equal the PathEnum reference on the mirror graph
    at that point, and at each round's end (graph restored) it must
    equal the initial set again.
    """

    def __init__(
        self,
        initial: Dict[Tuple[int, int], List[PathT]],
        midpoint_refs: Dict[Tuple[int, int], Reference],
        midpoint: int,
        round_len: int,
    ) -> None:
        self.initial = {pair: set(paths) for pair, paths in initial.items()}
        self.current = {pair: set(paths) for pair, paths in initial.items()}
        self.midpoint_refs = midpoint_refs
        self.midpoint = midpoint
        self.round_len = round_len
        self.problems: List[str] = []

    def observe(self, op_index: int, op: Tuple, result: Dict) -> bool:
        """Fold one update reply in; False if it is wrong."""
        _, u, v, insert = op
        if result.get("changed") is not True:
            self.problems.append(f"op {op_index}: update reported no change")
            return False
        ok = True
        for entry in result.get("pairs", []):
            pair = (entry.get("s"), entry.get("t"))
            tracked = self.current.get(pair)
            paths = [tuple(p) for p in entry.get("paths", [])]
            if tracked is None or entry.get("count") != len(paths):
                self.problems.append(f"op {op_index}: bad pair entry {pair}")
                ok = False
                continue
            for path in paths:
                through = _has_edge(path, u, v)
                if insert and through and path not in tracked:
                    tracked.add(path)
                elif not insert and through and path in tracked:
                    tracked.remove(path)
                else:
                    self.problems.append(
                        f"op {op_index}: wrong delta path {path} for {pair}"
                    )
                    ok = False
        position = op_index + 1
        if position == self.midpoint:
            for pair, ref in self.midpoint_refs.items():
                if answer_digest(self.current.get(pair, ())) != ref:
                    self.problems.append(
                        f"op {op_index}: pair {pair} differs from the "
                        f"PathEnum reference at the round midpoint"
                    )
                    ok = False
        if position == self.round_len:
            for pair, paths in self.initial.items():
                if self.current[pair] != paths:
                    self.problems.append(
                        f"op {op_index}: pair {pair} not back to its "
                        f"initial set at the round end"
                    )
                    ok = False
        return ok


def mirror_after(
    graph: DynamicDiGraph, updates: Sequence[Tuple], stop: int
) -> MirrorGraph:
    """A mirror of ``graph`` after the first ``stop`` update ops."""
    mirror = MirrorGraph(graph)
    for index, op in enumerate(updates[:stop]):
        if not mirror.apply(*op[1:]):
            raise RuntimeError(f"update op {index} is a no-op on the mirror")
    return mirror
