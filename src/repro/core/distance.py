"""Hop-capped dynamic shortest-distance maps (``Dist_s`` / ``Dist_t``).

The CPE index stores a partial path only while it can still extend to a
full k-st path, which is decided with the shortest distances from ``s``
(``Dist_s``) and to ``t`` (``Dist_t``).  Both maps must stay exact under
edge insertions and deletions; this module implements:

- a plain BFS build capped at a hop *horizon* (distances beyond the
  horizon are equivalent for every admissibility test, so they are
  represented by a single ``FAR`` sentinel — the paper computes the map
  "for vertices within k-1 hops" for the same reason);
- :meth:`DistanceMap.relax_insert` — the paper's Algorithm 3: after an
  edge arrives, decreases spread from its head in BFS order (Theorem 5);
- :meth:`DistanceMap.tighten_delete` — the paper's Algorithm 5: after an
  edge expires, the affected set is identified in increasing-distance
  order (so a vertex is classified only after all of its potential
  shortest-path parents) and then re-settled with a bucket-ordered
  unit-weight Dijkstra from the unaffected boundary.

A ``Dist_t`` map is simply a ``DistanceMap`` built over the graph's
reverse view.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Set, Tuple

from repro.graph.digraph import Vertex


class DistanceMap:
    """Shortest hop distances from ``source`` in a graph view.

    Parameters
    ----------
    view:
        Any object exposing ``out_neighbors`` / ``in_neighbors`` (a
        :class:`~repro.graph.digraph.DynamicDiGraph` or its reverse view).
        The view must reflect graph mutations *before* the corresponding
        ``relax_insert`` / ``tighten_delete`` call.
    source:
        The BFS source.
    horizon:
        Distances above ``horizon`` are reported as :attr:`far`
        (= ``horizon + 1``).
    """

    __slots__ = ("_view", "source", "horizon", "far", "_dist")

    def __init__(self, view, source: Vertex, horizon: int) -> None:
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        self._view = view
        self.source = source
        self.horizon = horizon
        self.far = horizon + 1
        self._dist: Dict[Vertex, int] = {}
        self._build()

    def _build(self) -> None:
        if not self._build_from_arrays():
            self._dist = self.recomputed()

    #: Unvisited sentinel of the flat BFS distance array (one byte).
    _UNSEEN = 255

    def _build_from_arrays(self) -> bool:
        """Flat-array BFS over the interned adjacency plane.

        When the view exposes ``int_adjacency()`` (a
        :class:`~repro.graph.digraph.DynamicDiGraph` or its reverse
        view), the hop-capped BFS runs over dense int ids with a
        ``bytearray`` distance table instead of hashing vertices, and
        the result is translated into ``_dist`` once, in discovery
        order — so the maintained dict is byte-identical (content *and*
        insertion order) to what :meth:`recomputed` produces.  Returns
        False when the view has no interned plane or the horizon does
        not fit the byte table.
        """
        int_adjacency = getattr(self._view, "int_adjacency", None)
        if int_adjacency is None or self.horizon >= self._UNSEEN - 1:
            return False
        adjacency, interner = int_adjacency()
        source_id = interner.get(self.source)
        if source_id < 0 or source_id >= len(adjacency):
            # Unregistered source: same result as :meth:`recomputed` over
            # an empty neighbor view.
            self._dist = {self.source: 0}
            return True
        unseen = self._UNSEEN
        table = bytearray([unseen]) * len(adjacency)
        table[source_id] = 0
        order = [source_id]
        head = 0
        horizon = self.horizon
        while head < len(order):
            u = order[head]
            head += 1
            du = table[u]
            if du >= horizon:
                continue
            dv = du + 1
            for v in adjacency[u]:
                if table[v] == unseen:
                    table[v] = dv
                    order.append(v)
        vertex_of = interner.vertices()
        self._dist = {vertex_of[i]: table[i] for i in order}
        return True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, v: Vertex) -> int:
        """Distance from the source to ``v`` (``far`` if above horizon)."""
        return self._dist.get(v, self.far)

    @property
    def raw(self) -> Dict[Vertex, int]:
        """The live distance mapping (absent means :attr:`far`).

        Hot loops (the construction level search) probe this dict
        directly instead of paying a method call per vertex; callers
        must treat it as read-only.
        """
        return self._dist

    def known(self) -> Iterator[Tuple[Vertex, int]]:
        """All ``(vertex, distance)`` pairs within the horizon."""
        return iter(self._dist.items())

    def clone(self) -> "DistanceMap":
        """An independent copy sharing the graph view but not the state.

        The copy's distance dict preserves BFS insertion order, so a
        clone is indistinguishable from a freshly built map over the
        same view — which is what lets one BFS pass seed many query
        indexes (:mod:`repro.batching`): each consumer's maintainer
        mutates its own clone, never the shared master.
        """
        twin = object.__new__(DistanceMap)
        twin._view = self._view
        twin.source = self.source
        twin.horizon = self.horizon
        twin.far = self.far
        twin._dist = dict(self._dist)
        return twin

    def __len__(self) -> int:
        return len(self._dist)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._dist

    def __repr__(self) -> str:
        return (
            f"DistanceMap(source={self.source!r}, horizon={self.horizon}, "
            f"known={len(self._dist)})"
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def relax_insert(self, u: Vertex, v: Vertex) -> Dict[Vertex, Tuple[int, int]]:
        """Repair the map after edge ``(u, v)`` was inserted into the view.

        Implements the paper's Algorithm 3: if the new edge shortens the
        distance of ``v``, the decrease spreads from ``v`` in a tree form
        (Theorem 5), so a BFS over strictly-improving vertices suffices.

        Returns ``{vertex: (old_distance, new_distance)}`` for every
        vertex whose distance decreased (``old_distance`` may be
        :attr:`far`).
        """
        changed: Dict[Vertex, Tuple[int, int]] = {}
        start = self.get(u) + 1
        if start > self.horizon or start >= self.get(v):
            return changed
        changed[v] = (self.get(v), start)
        self._dist[v] = start
        queue = deque([v])
        while queue:
            w = queue.popleft()
            dw = self._dist[w]
            if dw >= self.horizon:
                continue
            cand = dw + 1
            for y in self._view.out_neighbors(w):
                old = self.get(y)
                if cand < old:
                    if y not in changed:
                        changed[y] = (old, cand)
                    else:
                        changed[y] = (changed[y][0], cand)
                    self._dist[y] = cand
                    queue.append(y)
        return changed

    def tighten_delete(self, u: Vertex, v: Vertex) -> Dict[Vertex, Tuple[int, int]]:
        """Repair the map after edge ``(u, v)`` was deleted from the view.

        Implements the paper's Algorithm 5 in its textbook-correct form
        (unit-weight Ramalingam–Reps):

        1. If ``(u, v)`` was not a shortest-path tree edge, nothing moves.
        2. Otherwise identify the *affected set* — vertices all of whose
           shortest-path parents are themselves affected — by processing
           candidates in increasing old-distance order, which makes the
           classification well-founded.
        3. Re-settle affected vertices by a bucket-ordered unit-weight
           Dijkstra seeded from their unaffected in-neighbors; vertices
           ending beyond the horizon fall out of the map (become far).

        Returns ``{vertex: (old_distance, new_distance)}`` for every
        vertex whose distance increased (``new_distance`` may be
        :attr:`far`).
        """
        old_v = self.get(v)
        if old_v > self.horizon or self.get(u) + 1 != old_v:
            return {}
        # Fast path: v keeps its distance through another parent.
        if any(
            self.get(x) + 1 == old_v for x in self._view.in_neighbors(v)
        ):
            return {}

        affected = self._affected_set(v)
        if not affected:
            return {}
        return self._resettle(affected)

    def _affected_set(self, v: Vertex) -> Set[Vertex]:
        """Phase 1: vertices whose distance must increase.

        Candidates are explored along shortest-path tree edges and
        classified in increasing old-distance order: a candidate is
        affected iff it has no unaffected in-neighbor at distance one
        less.  (When ``_affected_set`` is called, ``v`` is already known
        to have lost all of its parents.)
        """
        affected: Set[Vertex] = {v}
        # Buckets by old distance; candidates at distance d are classified
        # only after every vertex at distance d - 1.
        buckets: Dict[int, List[Vertex]] = {}
        seen: Set[Vertex] = {v}

        def push_children(w: Vertex) -> None:
            dw = self._dist[w]
            if dw >= self.horizon:
                return  # children would sit beyond the horizon (far already)
            for y in self._view.out_neighbors(w):
                if y in seen:
                    continue
                dy = self.get(y)
                if dy == dw + 1:
                    seen.add(y)
                    buckets.setdefault(dy, []).append(y)

        push_children(v)
        d = self._dist[v]
        max_d = self.horizon
        while d <= max_d:
            d += 1
            queue = buckets.pop(d, [])
            for y in queue:
                has_live_parent = any(
                    self.get(x) + 1 == d and x not in affected
                    for x in self._view.in_neighbors(y)
                )
                if not has_live_parent:
                    affected.add(y)
                    push_children(y)
        return affected

    def _resettle(self, affected: Set[Vertex]) -> Dict[Vertex, Tuple[int, int]]:
        """Phase 2: bucket Dijkstra over the affected set."""
        far = self.far
        old: Dict[Vertex, int] = {w: self._dist[w] for w in affected}
        tentative: Dict[Vertex, int] = {}
        buckets: Dict[int, List[Vertex]] = {}

        def offer(w: Vertex, d: int) -> None:
            if d <= self.horizon and d < tentative.get(w, far):
                tentative[w] = d
                buckets.setdefault(d, []).append(w)

        for w in affected:
            best = far
            for x in self._view.in_neighbors(w):
                if x not in affected:
                    dx = self.get(x)
                    if dx + 1 < best:
                        best = dx + 1
            offer(w, best)

        changed: Dict[Vertex, Tuple[int, int]] = {}
        settled: Set[Vertex] = set()
        for d in range(0, self.horizon + 1):
            for w in buckets.pop(d, []):
                if w in settled or tentative.get(w) != d:
                    continue
                settled.add(w)
                self._dist[w] = d
                if d != old[w]:
                    changed[w] = (old[w], d)
                for y in self._view.out_neighbors(w):
                    if y in affected and y not in settled:
                        offer(y, d + 1)
        for w in affected:
            if w not in settled:
                del self._dist[w]
                changed[w] = (old[w], far)
        return changed

    # ------------------------------------------------------------------
    # Verification helpers (used by tests)
    # ------------------------------------------------------------------
    def recomputed(self) -> Dict[Vertex, int]:
        """A fresh BFS result for the current view (ground truth)."""
        dist = {self.source: 0}
        queue = deque([self.source])
        while queue:
            w = queue.popleft()
            dw = dist[w]
            if dw >= self.horizon:
                continue
            for y in self._view.out_neighbors(w):
                if y not in dist:
                    dist[y] = dw + 1
                    queue.append(y)
        return dist

    def is_consistent(self) -> bool:
        """Whether the maintained map equals a fresh BFS."""
        return self._dist == self.recomputed()


def induced_vertices(dist_s: DistanceMap, dist_t: DistanceMap, k: int) -> Set[Vertex]:
    """The paper's ``V_sub`` (Theorem 4): vertices on some k-hop s-t walk.

    ``{v : Dist_s[v] + Dist_t[v] <= k}`` — every k-st path lies entirely
    within the subgraph induced by this set.
    """
    smaller, larger = (
        (dist_s, dist_t) if len(dist_s) <= len(dist_t) else (dist_t, dist_s)
    )
    return {
        v for v, d in smaller.known() if d + larger.get(v) <= k
    }


__all__ = [
    "DistanceMap",
    "induced_vertices",
]
