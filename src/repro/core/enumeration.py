"""Join-based enumeration on the index (Section III-B).

- :func:`enumerate_full` — Algorithm 1: for every plan pair ``(i, j)``
  join ``LP_i(v_c)`` with ``RP_j(v_c)`` over the middle vertices, with a
  vertex-disjointness check; each k-st path appears exactly once
  (Theorems 1–2).
- :func:`enumerate_delta` — the update enumeration: joins in which at
  least one side belongs to the changed part of the index, i.e.
  ``ΔLP ⋈ RP  ∪  (LP − ΔLP) ⋈ ΔRP`` (Theorem 3).  Used with the
  *post-addition* index for insertions and the *pre-removal* index for
  deletions, so "``RP``" always denotes the variant that contains the
  changed paths.
"""

from __future__ import annotations

from typing import Iterator, List

from repro import obs
from repro.obs.explain import active as explain_active
from repro.core.index import PartialPathIndex, PathBuckets
from repro.core.paths import Path


def _join_steps(index: PartialPathIndex) -> Iterator[List[Path]]:
    """The one full join: each step's output, direct edge first.

    Runs :meth:`PartialPathIndex.packed_program` step by step: one int
    AND of the two stored join masks against the cut-vertex bit per
    probe is the disjointness test, and the packed views keep bucket
    insertion order, so the emitted sequence is the Algorithm 1 walk of
    the buckets.  Each step's emit count is the length of its
    output, so with observability on (:func:`repro.obs.enabled`) or an
    EXPLAIN recorder installed (:func:`repro.obs.explain.active`) the
    per-pair accounting costs O(plan length), not O(paths).
    """
    recorder = explain_active()
    observed = obs.enabled()
    total = 0
    if index.direct_edge:
        total = 1
        yield [(index.s, index.t)]
    for step in index.packed_program():
        probes = step.probes
        if probes is not None:
            out: List[Path] = [
                lp + rtail
                for lmask, lp, rmask, rtail, vcbit in probes
                if (lmask & rmask) == vcbit
            ]
        else:
            out = []
            append = out.append
            for vcbit, lpairs, rpairs in step.buckets:
                for lmask, lp in lpairs:
                    for rmask, rtail in rpairs:
                        if (lmask & rmask) == vcbit:
                            append(lp + rtail)
        yield out
        emitted = len(out)
        total += emitted
        if recorder is not None:
            recorder.record_join_pair(
                step.i, step.j, step.cut_vertices, step.probe_total, emitted
            )
        # Pairs with an empty level never reach the probe, so they get no
        # sample; live pairs with no shared cut vertex record a 0.
        if observed and step.live:
            obs.incr(f"enumeration.join.{step.i}x{step.j}.paths", emitted)
            obs.observe("enumeration.join_pair_output", emitted)
    if observed:
        obs.incr("enumeration.paths", total)


def enumerate_full(index: PartialPathIndex) -> Iterator[Path]:
    """Yield every k-st path currently represented by the index.

    Memory is bounded by one join step's output, not by the path total.
    """
    for out in _join_steps(index):
        yield from out


def enumerate_full_list(index: PartialPathIndex) -> List[Path]:
    """:func:`enumerate_full` materialized — the throughput fast path.

    Same paths, same order, without the generator frame per path.
    """
    paths: List[Path] = []
    for out in _join_steps(index):
        paths += out
    return paths


def enumerate_delta(
    index: PartialPathIndex,
    left_delta: PathBuckets,
    right_delta: PathBuckets,
    direct_edge_changed: bool = False,
) -> Iterator[Path]:
    """Yield the full paths with at least one changed partial path.

    The two join terms are disjoint by construction (the second term
    explicitly skips left paths that are in the delta), so every changed
    full path is produced exactly once.  The disjointness test is the
    full join's: the stored join masks of the two sides may share only
    the cut vertex's bit.
    """
    if direct_edge_changed:
        yield (index.s, index.t)
    left, right = index.left, index.right
    bit = index.bit
    for i, j in index.plan:
        # Term 1: changed left x full right.
        delta_left_bucket = left_delta.bucket(i)
        if delta_left_bucket:
            right_bucket = right.bucket(j)
            for vc, delta_paths in delta_left_bucket.items():
                right_paths = right_bucket.get(vc)
                if not right_paths:
                    continue
                vcbit = bit(vc)
                for lp, lmask in delta_paths.items():
                    for rp, rmask in right_paths.items():
                        if (lmask & rmask) == vcbit:
                            yield lp + rp[1:]
        # Term 2: unchanged left x changed right.
        delta_right_bucket = right_delta.bucket(j)
        if delta_right_bucket:
            left_bucket = left.bucket(i)
            for vc, delta_paths in delta_right_bucket.items():
                left_paths = left_bucket.get(vc)
                if not left_paths:
                    continue
                changed = delta_left_bucket.get(vc, ())
                vcbit = bit(vc)
                for lp, lmask in left_paths.items():
                    if lp in changed:
                        continue
                    for rp, rmask in delta_paths.items():
                        if (lmask & rmask) == vcbit:
                            yield lp + rp[1:]


def count_full(index: PartialPathIndex) -> int:
    """Number of k-st paths, holding one join step's output at a time."""
    return sum(map(len, _join_steps(index)))


__all__ = [
    "enumerate_full",
    "enumerate_full_list",
    "enumerate_delta",
    "count_full",
]
