"""Tests for the interned array substrate.

Covers the dense-int vertex id space (:mod:`repro.graph.interning`),
the optional-numpy switch (:mod:`repro.graph.npcompat`), the graph's
dual-plane adjacency, the packed join levels / join program on the
index, and the equivalence of the join's entry points with and without
instrumentation — every leg must agree path-for-path, in order.
"""

import random

import pytest

from repro import obs
from repro.core.enumeration import enumerate_full, enumerate_full_list
from repro.core.enumerator import CpeEnumerator
from repro.core.serialize import restore, snapshot
from repro.graph.digraph import DynamicDiGraph
from repro.graph.interning import VertexInterner
from repro.graph.npcompat import NO_NUMPY_ENV, get_numpy, numpy_available
from repro.obs.explain import recording
from repro.service.cache import ENTRY_BASE_BYTES, estimated_entry_bytes
from tests.conftest import make_random_graph, random_query


# ----------------------------------------------------------------------
# VertexInterner
# ----------------------------------------------------------------------
class TestVertexInterner:
    def test_ids_are_dense_and_insertion_ordered(self):
        interner = VertexInterner()
        assert [interner.intern(v) for v in "cab"] == [0, 1, 2]
        assert interner.vertices() == ["c", "a", "b"]

    def test_intern_is_idempotent(self):
        interner = VertexInterner()
        assert interner.intern("x") == interner.intern("x") == 0
        assert len(interner) == 1

    def test_id_of_and_get(self):
        interner = VertexInterner()
        interner.intern(41)
        assert interner.id_of(41) == 0
        assert interner.get(41) == 0
        assert interner.get("missing") == -1
        assert interner.get("missing", default=-7) == -7
        with pytest.raises(KeyError):
            interner.id_of("missing")

    def test_vertex_of_inverts_intern(self):
        interner = VertexInterner()
        for v in ("s", "t", 3, (1, 2)):
            assert interner.vertex_of(interner.intern(v)) == v

    def test_clone_is_independent(self):
        interner = VertexInterner()
        interner.intern("a")
        twin = interner.clone()
        twin.intern("b")
        assert "b" in twin and "b" not in interner
        assert twin.id_of("a") == interner.id_of("a") == 0

    def test_contains_and_iter(self):
        interner = VertexInterner()
        interner.intern(1)
        interner.intern(2)
        assert 1 in interner and 3 not in interner
        assert list(interner) == [1, 2]


# ----------------------------------------------------------------------
# npcompat
# ----------------------------------------------------------------------
class TestNpCompat:
    def test_env_flag_forces_fallback(self, monkeypatch):
        monkeypatch.setenv(NO_NUMPY_ENV, "1")
        assert get_numpy() is None
        assert not numpy_available()

    def test_zero_flag_means_enabled(self, monkeypatch):
        monkeypatch.setenv(NO_NUMPY_ENV, "0")
        assert get_numpy() is not None or not numpy_available()

    def test_flag_is_reread_each_call(self, monkeypatch):
        monkeypatch.setenv(NO_NUMPY_ENV, "1")
        assert get_numpy() is None
        monkeypatch.delenv(NO_NUMPY_ENV)
        numpy = pytest.importorskip("numpy")
        assert get_numpy() is numpy


# ----------------------------------------------------------------------
# Dual-plane adjacency
# ----------------------------------------------------------------------
def assert_planes_in_lockstep(graph):
    """The int-id arrays must mirror the dict adjacency exactly."""
    interner = graph.interner
    out_ids, _ = graph.int_adjacency()
    in_ids, _ = graph.int_adjacency(reverse=True)
    for v in graph.vertices():
        iid = interner.id_of(v)
        assert [interner.vertex_of(i) for i in out_ids[iid]] == list(
            graph.out_neighbors(v)
        )
        assert [interner.vertex_of(i) for i in in_ids[iid]] == list(
            graph.in_neighbors(v)
        )


class TestDualPlaneAdjacency:
    def test_lockstep_after_random_churn(self):
        rng = random.Random(17)
        g = make_random_graph(rng)
        vs = list(g.vertices())
        for _ in range(60):
            u, v = rng.sample(vs, 2)
            if g.has_edge(u, v):
                g.remove_edge(u, v)
            else:
                g.add_edge(u, v)
        assert_planes_in_lockstep(g)

    def test_vertex_removal_and_readd_reuses_id(self):
        g = DynamicDiGraph([(0, 1), (1, 2), (2, 0)])
        vid = g.interner.id_of(1)
        g.remove_vertex(1)
        assert_planes_in_lockstep(g)
        g.add_edge(1, 2)
        assert g.interner.id_of(1) == vid
        assert_planes_in_lockstep(g)

    def test_copy_detaches_the_array_plane(self):
        g = DynamicDiGraph([(0, 1), (1, 2)])
        twin = g.copy()
        twin.add_edge(2, 0)
        twin.remove_edge(0, 1)
        assert g.has_edge(0, 1) and not g.has_edge(2, 0)
        assert_planes_in_lockstep(g)
        assert_planes_in_lockstep(twin)

    def test_reverse_view_int_adjacency(self):
        g = DynamicDiGraph([(0, 1), (0, 2)])
        fwd_in, _ = g.int_adjacency(reverse=True)
        rev_out, _ = g.reverse_view().int_adjacency()
        assert [list(a) for a in fwd_in] == [list(a) for a in rev_out]

    def test_packed_adjacency_is_csr_of_the_dict_plane(self):
        rng = random.Random(5)
        g = make_random_graph(rng)
        vertices, indptr, indices = g.packed_adjacency()
        assert vertices == list(g.vertices())
        assert indptr[0] == 0 and indptr[-1] == len(indices)
        for pos, v in enumerate(vertices):
            neigh = [
                vertices[indices[slot]]
                for slot in range(indptr[pos], indptr[pos + 1])
            ]
            assert neigh == list(g.out_neighbors(v))

    def test_packed_adjacency_numpy_and_fallback_agree(self, monkeypatch):
        pytest.importorskip("numpy")
        rng = random.Random(23)
        g = make_random_graph(rng)
        with_np = g.packed_adjacency()
        monkeypatch.setenv(NO_NUMPY_ENV, "1")
        assert g.packed_adjacency() == with_np


# ----------------------------------------------------------------------
# Packed join levels and the join program
# ----------------------------------------------------------------------
def make_indexed_enumerator():
    g = DynamicDiGraph(
        [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (0, 4), (4, 3), (4, 2)]
    )
    cpe = CpeEnumerator(g, 0, 3, 4)
    cpe.startup()
    return cpe


class TestPackedLevels:
    def test_packed_level_mirrors_the_dict_walk(self):
        cpe = make_indexed_enumerator()
        index = cpe.index
        for length in index.left.lengths():
            level = index.packed_left(length)
            if level is None:  # level exists but holds no paths
                assert index.left.count_at_length(length) == 0
                continue
            walked = {
                vertex: [(mask, path) for path, mask in paths.items()]
                for vertex, paths in index.left.bucket(length).items()
            }
            assert level == walked
            assert list(level) == list(index.left.bucket(length))

    def test_masks_encode_exact_vertex_sets(self):
        cpe = make_indexed_enumerator()
        index = cpe.index
        for length in index.right.lengths():
            level = index.packed_right(length)
            if level is None:  # level exists but holds no paths
                assert index.right.count_at_length(length) == 0
                continue
            for vertex, pairs in level.items():
                paths = list(index.right.at(vertex, length))
                assert [tail for _, tail in pairs] == [p[1:] for p in paths]
                for (mask, _), path in zip(pairs, paths):
                    expected = 0
                    for v in path:
                        expected |= 1 << index._bits.id_of(v)
                    assert mask == expected

    def test_version_bump_invalidates_the_cache(self):
        cpe = make_indexed_enumerator()
        index = cpe.index
        before = index.packed_program()
        cpe.insert_edge(1, 4)
        after = index.packed_program()
        assert after is not before
        assert index.packed_program() is after  # stable until next write

    def test_program_survives_no_op_reads(self):
        cpe = make_indexed_enumerator()
        index = cpe.index
        program = index.packed_program()
        list(enumerate_full(index))
        index.left.bucket(1)
        assert index.packed_program() is program


def _stored_masks_are_exact(index):
    for side in (index.left, index.right):
        for length in side.lengths():
            for paths in side.bucket(length).values():
                for path, mask in paths.items():
                    assert mask == index.mask_of(path), path


def _views(index):
    return (
        {n: index.packed_left(n) for n in index.left.lengths()},
        {n: index.packed_right(n) for n in index.right.lengths()},
    )


class TestStoredMasks:
    """The join masks live in the buckets; packed views are per length."""

    def test_masks_and_views_track_every_write(self):
        rng = random.Random(4242)
        for _ in range(25):
            g = make_random_graph(rng, max_edges=22)
            s, t, k = random_query(rng, g)
            cpe = CpeEnumerator(g, s, t, max(k, 2))
            index = cpe.index
            _stored_masks_are_exact(index)
            for _ in range(10):
                left_views, right_views = _views(index)
                program = index.packed_program()
                u, v = rng.sample(list(g.vertices()), 2)
                if g.has_edge(u, v):
                    result = cpe.delete_edge(u, v)
                else:
                    result = cpe.insert_edge(u, v)
                assert cpe.index is index
                _stored_masks_are_exact(index)
                record = result.record
                written = (
                    set(record.left_delta.lengths()),
                    set(record.right_delta.lengths()),
                )
                for views, touched, packed in (
                    (left_views, written[0], index.packed_left),
                    (right_views, written[1], index.packed_right),
                ):
                    for length, view in views.items():
                        if length in touched:
                            assert packed(length) is not view
                        else:
                            assert packed(length) is view
                if written == (set(), set()):
                    assert index.packed_program() is program
                else:
                    assert index.packed_program() is not program
                again = index.packed_program()
                assert index.packed_program() is again
                # Steps reading only unwritten lengths are reused as is.
                for old, new in zip(program, again):
                    if old.i not in written[0] and old.j not in written[1]:
                        assert new is old

    def test_memory_stats_equal_the_slot_walk(self):
        rng = random.Random(31337)
        for _ in range(15):
            g = make_random_graph(rng, max_edges=22)
            s, t, k = random_query(rng, g)
            cpe = CpeEnumerator(g, s, t, k)
            for _ in range(8):
                index = cpe.index
                walked = sum(len(p) for p in index.left.paths())
                walked += sum(len(p) for p in index.right.paths())
                stats = index.memory_stats()
                assert stats.vertex_slots == walked
                assert stats.left_paths == len(list(index.left.paths()))
                assert stats.right_paths == len(list(index.right.paths()))
                assert estimated_entry_bytes(cpe) == (
                    ENTRY_BASE_BYTES
                    + 8 * walked
                    + 16 * (stats.left_paths + stats.right_paths)
                )
                u, v = rng.sample(list(g.vertices()), 2)
                if g.has_edge(u, v):
                    cpe.delete_edge(u, v)
                else:
                    cpe.insert_edge(u, v)

    def test_updates_far_from_the_query_add_no_bits(self):
        cpe = make_indexed_enumerator()
        bits = len(cpe.index._bits)
        # 7, 8 and 9 lie on no s-t walk within k hops.
        for u, v in ((7, 8), (8, 9), (2, 7), (9, 3)):
            cpe.insert_edge(u, v)
            cpe.delete_edge(u, v)
        assert len(cpe.index._bits) == bits

    def test_packing_interns_no_vertex(self, monkeypatch):
        rng = random.Random(7)
        g = make_random_graph(rng, n_lo=8, n_hi=10, max_edges=40)
        s, t = 0, 1
        index = CpeEnumerator(g, s, t, 6).index
        calls = []
        original = VertexInterner.intern

        def counting(self, v):
            calls.append(v)
            return original(self, v)

        monkeypatch.setattr(VertexInterner, "intern", counting)
        enumerate_full_list(index)
        assert calls == []

    def test_two_builds_enumerate_in_the_same_order(self):
        rng = random.Random(99)
        for _ in range(20):
            g = make_random_graph(rng, max_edges=22)
            s, t, k = random_query(rng, g)
            first = CpeEnumerator(g, s, t, k).startup()
            assert CpeEnumerator(g, s, t, k).startup() == first

    def test_snapshot_restore_keeps_the_order(self):
        rng = random.Random(5150)
        for _ in range(15):
            g = make_random_graph(rng, max_edges=22)
            s, t, k = random_query(rng, g)
            cpe = CpeEnumerator(g, s, t, k)
            for _ in range(6):
                assert restore(snapshot(cpe)).startup() == cpe.startup()
                u, v = rng.sample(list(g.vertices()), 2)
                if g.has_edge(u, v):
                    cpe.delete_edge(u, v)
                else:
                    cpe.insert_edge(u, v)


# ----------------------------------------------------------------------
# Join equivalence: generator vs list, obs off vs on vs EXPLAIN
# ----------------------------------------------------------------------
class TestJoinEquivalence:
    def test_list_variant_matches_generator(self):
        rng = random.Random(101)
        for _ in range(20):
            g = make_random_graph(rng)
            s, t, k = random_query(rng, g)
            cpe = CpeEnumerator(g, s, t, k)
            paths = cpe.startup()
            assert paths == list(enumerate_full(cpe.index))
            # Instrumentation must not change the join or its order.
            previous = obs.set_enabled(True)
            try:
                assert cpe.startup() == paths
            finally:
                obs.set_enabled(previous)
                obs.reset()
            with recording() as record:
                assert cpe.startup() == paths
            emitted = sum(pair.emitted for pair in record.join_pairs)
            assert emitted + cpe.index.direct_edge == len(paths)

    def test_update_then_enumerate_matches_fresh_build(self):
        rng = random.Random(77)
        for _ in range(10):
            g = make_random_graph(rng)
            s, t, k = random_query(rng, g)
            cpe = CpeEnumerator(g, s, t, k)
            cpe.startup()
            for _ in range(8):
                u, v = rng.sample(list(g.vertices()), 2)
                if g.has_edge(u, v):
                    cpe.delete_edge(u, v)
                else:
                    cpe.insert_edge(u, v)
            fresh = CpeEnumerator(g.copy(), s, t, k)
            assert sorted(cpe.startup()) == sorted(fresh.startup())
