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
from repro.graph.digraph import DynamicDiGraph
from repro.graph.interning import VertexInterner
from repro.graph.npcompat import NO_NUMPY_ENV, get_numpy, numpy_available
from repro.obs.explain import recording
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
            walked = [
                path
                for vertex, paths in index.left.bucket(length).items()
                for path in paths
            ]
            assert level.flat_paths == walked
            for vertex, (start, end, vcbit) in level.slots.items():
                assert all(
                    p[-1] == vertex for p in level.flat_paths[start:end]
                )
                assert vcbit and (vcbit & (vcbit - 1)) == 0  # one bit

    def test_masks_encode_exact_vertex_sets(self):
        cpe = make_indexed_enumerator()
        index = cpe.index
        for length in index.right.lengths():
            level = index.packed_right(length)
            if level is None:  # level exists but holds no paths
                assert index.right.count_at_length(length) == 0
                continue
            assert level.tails is not None
            for pos, path in enumerate(level.flat_paths):
                expected = 0
                for v in path:
                    expected |= 1 << index._bits.id_of(v)
                assert level.masks[pos] == expected
                assert level.tails[pos] == path[1:]

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
