"""The partial path-based index (Section III-A).

For a query ``q(s, t, k)`` the index holds:

- ``LP_i(v)`` — every admissible simple path ``s -> v`` with ``i`` hops
  (``1 <= i <= l``), avoiding ``t``, satisfying ``i + Dist_t[v] <= k``;
- ``RP_j(v)`` — every admissible simple path ``v -> t`` with ``j`` hops
  (``1 <= j <= r``), avoiding ``s``, satisfying ``j + Dist_s[v] <= k``;
- the :class:`~repro.core.plan.JoinPlan` with ``l + r = k``;
- whether the direct edge ``(s, t)`` exists (the length-1 path cannot be
  represented as a join of two non-empty partial paths, so it is tracked
  explicitly — see DESIGN.md §3).

Right partial paths are stored in *forward* orientation ``(v, ..., t)``
so that joining is plain tuple concatenation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

from repro.core.paths import Path
from repro.core.plan import JoinPlan
from repro.graph.digraph import Vertex
from repro.graph.interning import VertexInterner

#: One index level: key vertex -> ``{path: join mask}``.  Both dicts
#: are insertion-ordered, and that order is the join's emission order.
Bucket = Dict[Vertex, Dict[Path, int]]

#: One level as the join probe reads it: key vertex -> ``(mask, path)``
#: pairs (left side) or ``(mask, path[1:])`` pairs (right side), in
#: bucket insertion order.  Built from a :data:`Bucket` without touching
#: a vertex, cached per length, and read-only (lint rule R013).
PackedLevel = Dict[Vertex, List[Tuple[int, Path]]]

#: One cut-vertex bucket of a big join step: ``(vc bit, left (mask,
#: path) pairs, right (mask, tail) pairs)`` — the packed level's own
#: lists, shared, not copied.
BucketStep = Tuple[int, List[Tuple[int, Path]], List[Tuple[int, Path]]]

#: One linearized probe of a small join step:
#: ``(left mask, left path, right mask, right tail, vc bit)``.
ProbeStep = Tuple[int, Path, int, Path, int]

#: Per-step probe-count ceiling for linearization: a step whose total
#: probe count stays under this is stored as one flat probe list (one
#: tuple per ``(lp, rp)`` combination, in emission order), so the join
#: runs as a single comprehension; bigger steps keep the per-bucket
#: nested layout.
PACK_FLAT_STEP_MAX = 4096


class JoinStep(NamedTuple):
    """One plan pair ``(i, j)`` resolved against the packed levels.

    The program has one step per plan pair, in plan order, including
    pairs with an empty level or no shared cut vertex (their probe data
    is empty).  The cardinalities are the join's own: EXPLAIN estimates
    and ANALYZE probe counts read them straight off the step.
    """

    i: int
    j: int
    #: Whether both ``LP_i`` and ``RP_j`` hold paths.
    live: bool
    #: Middle vertices present on both sides.
    cut_vertices: int
    #: ``Σ_v |LP_i(v)|·|RP_j(v)|`` — the ``(lp, rp)`` combinations probed.
    probe_total: int
    #: The flat probe list (steps under :data:`PACK_FLAT_STEP_MAX`), or
    #: None when the step keeps the per-bucket layout.
    probes: Optional[List[ProbeStep]]
    #: Per-cut-vertex buckets (big steps; empty when ``probes`` is used).
    buckets: List[BucketStep]


class PathBuckets:
    """One side of the index: paths bucketed by ``(length, key vertex)``.

    The key vertex is the path's *cut-side* endpoint — the last vertex
    for left partial paths, the first for right partial paths.  The
    caller passes it explicitly so the same container serves both sides
    (and the maintenance delta records).

    Each path is stored with its *join mask*: the OR of ``1 << bit(v)``
    over its vertices, in the owning index's private bit space.  Two
    partial paths meeting at cut vertex ``v`` join into a simple path
    iff ``left_mask & right_mask == bit(v)``.  The writer supplies the
    mask (construction and maintenance derive it from the parent path's
    mask as they extend), so nothing here ever interns a vertex.
    """

    __slots__ = ("_by_len", "_counts", "_version", "_packed")

    def __init__(self) -> None:
        self._by_len: Dict[int, Bucket] = {}
        # Paths per length: len(), count_at_length() and the memory
        # accounting read these instead of walking the paths.
        self._counts: Dict[int, int] = {}
        # Write counter (the join program's cache stamp) and the
        # per-length packed views; a write at length L drops only L's.
        self._version = 0
        self._packed: Dict[int, PackedLevel] = {}

    def add(self, vertex: Vertex, path: Path, mask: int) -> bool:
        """Insert ``path`` with its join ``mask``; True if new."""
        length = len(path) - 1
        bucket = self._by_len.get(length)
        if bucket is None:
            bucket = self._by_len[length] = {}
        paths = bucket.get(vertex)
        if paths is None:
            bucket[vertex] = {path: mask}
        elif path in paths:
            return False
        else:
            paths[path] = mask
        counts = self._counts
        counts[length] = counts.get(length, 0) + 1
        self._version += 1
        self._packed.pop(length, None)
        return True

    def remove(self, vertex: Vertex, path: Path) -> bool:
        """Remove ``path``; True if it was present."""
        length = len(path) - 1
        bucket = self._by_len.get(length)
        if bucket is None:
            return False
        paths = bucket.get(vertex)
        if paths is None or path not in paths:
            return False
        del paths[path]
        self._counts[length] -= 1
        self._version += 1
        self._packed.pop(length, None)
        if not paths:
            del bucket[vertex]
            if not bucket:
                del self._by_len[length]
                del self._counts[length]
        return True

    def contains(self, vertex: Vertex, path: Path) -> bool:
        """Membership test under ``(hops(path), vertex)``."""
        return self.mask_of(vertex, path) is not None

    def mask_of(self, vertex: Vertex, path: Path) -> Optional[int]:
        """The stored join mask of ``path``, or None if it is absent."""
        bucket = self._by_len.get(len(path) - 1)
        if bucket is None:
            return None
        paths = bucket.get(vertex)
        return None if paths is None else paths.get(path)

    def bucket(self, length: int) -> Bucket:
        """All vertex buckets at ``length`` (live mapping; may be empty)."""
        return self._by_len.get(length, {})

    def level_dict(self, length: int) -> Bucket:
        """The live bucket at ``length``, created if missing.

        Bulk-insert fast path for the construction level search: callers
        write ``{path: mask}`` entries directly and report the added
        count through :meth:`note_added`.
        """
        return self._by_len.setdefault(length, {})

    def note_added(self, length: int, count: int) -> None:
        """Account for ``count`` direct ``level_dict`` writes at ``length``.

        The construction level search *always* reports through this
        hook, so the counters and the packed view of ``length`` stay
        exact without a per-path cost.
        """
        self._counts[length] = self._counts.get(length, 0) + count
        self._version += 1
        self._packed.pop(length, None)

    @property
    def version(self) -> int:
        """Write stamp; changes whenever the stored paths change."""
        return self._version

    def packed(self, length: int, tails: bool = False) -> Optional[PackedLevel]:
        """The level at ``length`` as a :data:`PackedLevel` (cached).

        With ``tails`` each pair carries ``path[1:]`` instead of the
        path, so a right level's emit is one tuple concatenation.
        Returns ``None`` for an empty level.  The view is rebuilt only
        after a write at ``length``; vertex and within-bucket order
        follow the live dicts (insertion order).
        """
        view = self._packed.get(length)
        if view is not None:
            return view
        bucket = self._by_len.get(length)
        if not bucket:
            return None
        if tails:
            view = {
                vertex: [(mask, path[1:]) for path, mask in paths.items()]
                for vertex, paths in bucket.items()
            }
        else:
            view = {
                vertex: list(zip(paths.values(), paths))
                for vertex, paths in bucket.items()
            }
        self._packed[length] = view
        return view

    def at(self, vertex: Vertex, length: int) -> Dict[Path, int]:
        """``{path: mask}`` at ``(vertex, length)`` (live; may be empty)."""
        return self._by_len.get(length, {}).get(vertex, {})

    def at_vertex(self, vertex: Vertex) -> Iterator[Tuple[int, Path, int]]:
        """All ``(length, path, mask)`` entries keyed at ``vertex``."""
        for length, bucket in self._by_len.items():
            paths = bucket.get(vertex)
            if paths:
                for path, mask in paths.items():
                    yield length, path, mask

    def paths(self) -> Iterator[Path]:
        """Every stored path, by length, key vertex and insertion."""
        for bucket in self._by_len.values():
            for paths in bucket.values():
                yield from paths

    def entries(self) -> Iterator[Tuple[int, Vertex, Path]]:
        """Every ``(length, vertex, path)`` triple."""
        for length, bucket in self._by_len.items():
            for vertex, paths in bucket.items():
                for path in paths:
                    yield length, vertex, path

    def lengths(self) -> Iterator[int]:
        """Lengths with at least one stored path."""
        return iter(self._by_len)

    def count_at_length(self, length: int) -> int:
        """Number of paths of exactly ``length`` hops."""
        return self._counts.get(length, 0)

    def vertex_slots(self) -> int:
        """Total vertex entries: a path of ``L`` hops holds ``L + 1``."""
        return sum((length + 1) * n for length, n in self._counts.items())

    def __len__(self) -> int:
        return sum(self._counts.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathBuckets):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def as_dict(self) -> Dict[int, Dict[Vertex, Set[Path]]]:
        """A normalized copy (empty buckets dropped, masks and order
        ignored) for comparisons."""
        return {
            length: {v: set(ps) for v, ps in bucket.items() if ps}
            for length, bucket in self._by_len.items()
            if any(bucket.values())
        }

    def __repr__(self) -> str:
        return f"PathBuckets(paths={len(self)})"


@dataclass(frozen=True)
class IndexMemoryStats:
    """Memory accounting for Fig. 12.

    ``path_count`` / ``vertex_slots`` count stored paths and their total
    vertex entries; ``approx_bytes`` estimates the resident size the way
    the paper's "AvgIdx" measures its C++ index (vertex ids as machine
    words plus per-path overhead).
    """

    left_paths: int
    right_paths: int
    vertex_slots: int

    @property
    def path_count(self) -> int:
        """Total stored partial paths."""
        return self.left_paths + self.right_paths

    @property
    def approx_bytes(self) -> int:
        """8 bytes per vertex slot + 16 bytes per path record."""
        return 8 * self.vertex_slots + 16 * self.path_count


class PartialPathIndex:
    """The partial path index for one query ``q(s, t, k)``.

    ``bits`` is the query-private bit space of the join masks; the
    construction level search passes the interner it assigned bits
    with (in discovery order), so the masks it stored stay valid.
    """

    __slots__ = (
        "s",
        "t",
        "k",
        "plan",
        "left",
        "right",
        "direct_edge",
        "_bits",
        "_program",
    )

    def __init__(
        self,
        s: Vertex,
        t: Vertex,
        k: int,
        plan: JoinPlan,
        bits: Optional[VertexInterner] = None,
    ) -> None:
        if s == t:
            raise ValueError("s and t must differ")
        if plan.k != k:
            raise ValueError(f"plan is for k={plan.k}, query has k={k}")
        self.s = s
        self.t = t
        self.k = k
        self.plan = plan
        self.left = PathBuckets()
        self.right = PathBuckets()
        self.direct_edge = False
        self._bits = bits if bits is not None else VertexInterner()
        # Join-program cache: (left obj, right obj, left ver, right ver,
        # program, per-step (left view, right view)).  Identity + version
        # checks catch both in-place writes and wholesale bucket
        # replacement; a stale program keeps every step whose two packed
        # views are still the cached ones.
        self._program: Optional[
            Tuple[Any, Any, int, int, List[JoinStep], List[Tuple[Any, Any]]]
        ] = None

    # ------------------------------------------------------------------
    # Join masks
    # ------------------------------------------------------------------
    def bit(self, vertex: Vertex) -> int:
        """``vertex``'s mask bit, assigning the next bit if it is new."""
        return 1 << self._bits.intern(vertex)

    def mask_of(self, path: Path) -> int:
        """The join mask of ``path``: one pass over its vertices."""
        intern = self._bits.intern
        mask = 0
        for v in path:
            mask |= 1 << intern(v)
        return mask

    # ------------------------------------------------------------------
    # Left side (paths s -> v, keyed by their last vertex)
    # ------------------------------------------------------------------
    def add_left(self, path: Path, mask: Optional[int] = None) -> bool:
        """Store a left partial path; True if new.

        ``mask`` is the path's join mask when the caller derived it from
        a parent path; otherwise it is computed here.
        """
        if mask is None:
            mask = self.mask_of(path)
        return self.left.add(path[-1], path, mask)

    def remove_left(self, path: Path) -> bool:
        """Drop a left partial path; True if present."""
        return self.left.remove(path[-1], path)

    def has_left(self, path: Path) -> bool:
        """Whether a left partial path is stored."""
        return self.left.contains(path[-1], path)

    # ------------------------------------------------------------------
    # Right side (paths v -> t in forward orientation, keyed by first vertex)
    # ------------------------------------------------------------------
    def add_right(self, path: Path, mask: Optional[int] = None) -> bool:
        """Store a right partial path; True if new (``mask`` as above)."""
        if mask is None:
            mask = self.mask_of(path)
        return self.right.add(path[0], path, mask)

    def remove_right(self, path: Path) -> bool:
        """Drop a right partial path; True if present."""
        return self.right.remove(path[0], path)

    def has_right(self, path: Path) -> bool:
        """Whether a right partial path is stored."""
        return self.right.contains(path[0], path)

    # ------------------------------------------------------------------
    # Packed join views
    # ------------------------------------------------------------------
    def packed_left(self, length: int) -> Optional[PackedLevel]:
        """``LP_length`` as ``(mask, path)`` pairs per vertex (None if empty)."""
        return self.left.packed(length)

    def packed_right(self, length: int) -> Optional[PackedLevel]:
        """``RP_length`` as ``(mask, tail)`` pairs per vertex (None if empty)."""
        return self.right.packed(length, tails=True)

    def packed_program(self) -> List[JoinStep]:
        """The join plan resolved against the packed levels.

        One :class:`JoinStep` per plan pair, in plan order, carrying the
        step's cut-vertex count and probe total plus, per cut vertex
        present on both sides, its probe data — middle-vertex
        intersection order preserved (driven from the smaller side).
        Cached until either side is written or replaced; after a write
        only the steps reading a rewritten length are rebuilt.
        """
        left, right = self.left, self.right
        cached = self._program
        if (
            cached is not None
            and cached[0] is left
            and cached[1] is right
            and cached[2] == left.version
            and cached[3] == right.version
        ):
            return cached[4]
        program: List[JoinStep] = []
        views: List[Tuple[Any, Any]] = []
        for pos, (i, j) in enumerate(self.plan):
            lview = left.packed(i)
            rview = right.packed(j, tails=True)
            if cached is not None:
                old_l, old_r = cached[5][pos]
                if old_l is lview and old_r is rview:
                    program.append(cached[4][pos])
                    views.append((lview, rview))
                    continue
            program.append(self._join_step(i, j, lview, rview))
            views.append((lview, rview))
        self._program = (
            left, right, left.version, right.version, program, views
        )
        return program

    def _join_step(
        self,
        i: int,
        j: int,
        lview: Optional[PackedLevel],
        rview: Optional[PackedLevel],
    ) -> JoinStep:
        if lview is None or rview is None:
            return JoinStep(i, j, False, 0, 0, [], [])
        if len(lview) <= len(rview):
            middles = [v for v in lview if v in rview]
        else:
            middles = [v for v in rview if v in lview]
        id_of = self._bits.id_of
        cuts: List[BucketStep] = []
        probe_total = 0
        for vc in middles:
            lpairs = lview[vc]
            rpairs = rview[vc]
            probe_total += len(lpairs) * len(rpairs)
            cuts.append((1 << id_of(vc), lpairs, rpairs))
        if probe_total < PACK_FLAT_STEP_MAX:
            probes = [
                (lmask, lp, rmask, rtail, vcbit)
                for vcbit, lpairs, rpairs in cuts
                for lmask, lp in lpairs
                for rmask, rtail in rpairs
            ]
            return JoinStep(i, j, True, len(cuts), probe_total, probes, [])
        return JoinStep(i, j, True, len(cuts), probe_total, None, cuts)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def memory_stats(self) -> IndexMemoryStats:
        """Size accounting for the memory experiment (Fig. 12).

        O(stored lengths): read off the per-length path counts.
        """
        return IndexMemoryStats(
            left_paths=len(self.left),
            right_paths=len(self.right),
            vertex_slots=self.left.vertex_slots() + self.right.vertex_slots(),
        )

    def __repr__(self) -> str:
        return (
            f"PartialPathIndex(s={self.s!r}, t={self.t!r}, k={self.k}, "
            f"l={self.plan.l}, r={self.plan.r}, "
            f"|LP|={len(self.left)}, |RP|={len(self.right)}, "
            f"direct_edge={self.direct_edge})"
        )


__all__ = [
    "Bucket",
    "PackedLevel",
    "JoinStep",
    "PathBuckets",
    "IndexMemoryStats",
    "PartialPathIndex",
]
