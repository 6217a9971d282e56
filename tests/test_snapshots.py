"""Snapshot graph construction and hop levels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asrecon import bfs_levels, build_snapshot
from asrecon.ingest import PathRecord
from asrecon.snapshots import ABSENT, SnapshotError, build_all_snapshots, group_records


def _records(*paths: tuple[int, ...]) -> list[PathRecord]:
    return [PathRecord(collector_id=0, time_period=0, nodes=p) for p in paths]


def _edge_set(graph) -> set[tuple[int, int]]:
    return {(int(i), int(j)) for i, j in graph.edges}


def test_union_of_two_paths():
    # r=0, a=1, b=2, f=3
    graph = build_snapshot(_records((0, 1, 2), (0, 1, 3)), n_total=4)
    assert _edge_set(graph) == {(0, 1), (1, 2), (1, 3)}
    assert graph.root == 0
    assert graph.n_pruned == 0


def test_single_edge_path():
    graph = build_snapshot(_records((0, 1)), n_total=2)
    assert _edge_set(graph) == {(0, 1)}


def test_disconnected_nodes_pruned():
    graph = build_snapshot(_records((0, 1), (2, 3)), n_total=4)
    assert _edge_set(graph) == {(0, 1)}
    assert graph.n_pruned == 2
    levels = bfs_levels(graph)
    assert levels[2] == ABSENT and levels[3] == ABSENT


def test_empty_record_set_rejected():
    with pytest.raises(SnapshotError, match="empty record set"):
        build_snapshot([], n_total=1)


def test_mixed_groups_rejected():
    records = [
        PathRecord(collector_id=0, time_period=0, nodes=(0, 1)),
        PathRecord(collector_id=1, time_period=0, nodes=(0, 1)),
    ]
    with pytest.raises(SnapshotError, match="multiple"):
        build_snapshot(records, n_total=2)


def test_root_is_most_frequent_first_node():
    records = _records((5, 1), (5, 2), (7, 5))
    graph = build_snapshot(records, n_total=8)
    assert graph.root == 5
    # Paths rooted elsewhere still contribute their edges.
    assert (5, 7) in _edge_set(graph)


def test_root_counts_repeated_paths():
    # Dropping the repeat before the root choice would tie 5 and 7 and pick 5.
    graph = build_snapshot(_records((5, 1), (7, 5), (7, 5)), n_total=8)
    assert graph.root == 7


def test_repeated_paths_build_the_same_snapshot():
    distinct = [(0, 1, 2), (0, 1, 3), (4, 5), (0, 2), (2, 6, 3)]
    repeated = _records(*distinct, (0, 1, 2), (4, 5), (2, 6, 3), (0, 1, 2), (0, 2))
    once = build_snapshot(_records(*distinct), n_total=7)
    again = build_snapshot(repeated, n_total=7)
    assert again.root == once.root == 0
    np.testing.assert_array_equal(again.edges, once.edges)
    assert list(again.adjacency) == list(once.adjacency) == [0, 1, 2, 3, 6]  # first seen
    for node, nbrs in once.adjacency.items():
        np.testing.assert_array_equal(again.adjacency[node], nbrs)
    assert again.n_pruned == once.n_pruned == 2
    np.testing.assert_array_equal(bfs_levels(again), bfs_levels(once))


def test_root_tie_breaks_to_first_seen():
    graph = build_snapshot(_records((3, 1), (2, 1)), n_total=4)
    assert graph.root == 3


def test_levels_on_path_graph():
    graph = build_snapshot(_records((0, 1, 2, 3)), n_total=4)
    assert bfs_levels(graph).tolist() == [0, 1, 2, 3]


def test_levels_on_star():
    graph = build_snapshot(_records((0, 1), (0, 2), (0, 3)), n_total=4)
    assert bfs_levels(graph).tolist() == [0, 1, 1, 1]


def test_micro_corpus_first_snapshot_levels(micro_corpus):
    # Collector r1, first period: peer AS at hop 0, then a=1, b=2, c=3, e=4
    # down the chain, with f two hops out via a.
    groups = group_records(micro_corpus)
    graph = build_snapshot(groups[(0, 0)], n_total=micro_corpus.registry.n_nodes)
    levels = bfs_levels(graph)
    reg = micro_corpus.registry
    expected = {101: 0, 1: 1, 2: 2, 3: 3, 5: 4, 6: 2}
    for asn, hops in expected.items():
        assert levels[reg.id_of(asn)] == hops
    assert levels[reg.id_of(4)] == ABSENT
    assert levels[reg.id_of(102)] == ABSENT


def test_rebuild_from_own_edges_is_idempotent(micro_corpus):
    for graph, _ in build_all_snapshots(micro_corpus):
        two_hop = [
            PathRecord(graph.collector_id, graph.time_period, (graph.root,))
        ] + [
            PathRecord(graph.collector_id, graph.time_period, (int(i), int(j)))
            for i, j in graph.edges
        ]
        rebuilt = build_snapshot(two_hop, n_total=graph.n_total)
        assert _edge_set(rebuilt) == _edge_set(graph)
        assert rebuilt.n_pruned == 0


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_levels_relax_across_every_edge(data):
    n = data.draw(st.integers(min_value=2, max_value=24))
    # Random connected-ish path soup over n nodes rooted at 0.
    n_paths = data.draw(st.integers(min_value=1, max_value=10))
    paths = []
    for _ in range(n_paths):
        length = data.draw(st.integers(min_value=1, max_value=min(n, 6)))
        walk = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=length,
                max_size=length,
                unique=True,
            )
        )
        paths.append(tuple([0] + [v for v in walk if v != 0]))
    graph = build_snapshot(_records(*paths), n_total=n)
    levels = bfs_levels(graph)
    assert levels[graph.root] == 0
    for i, j in graph.edges:
        di, dj = levels[int(i)], levels[int(j)]
        assert di != ABSENT and dj != ABSENT
        assert abs(di - dj) <= 1


def test_snapshot_dump(tmp_path):
    from asrecon.snapshots import dump_snapshot_edges

    graph = build_snapshot(_records((0, 1, 2)), n_total=3)
    out = tmp_path / "edges.txt"
    dump_snapshot_edges(graph, out)
    assert out.read_text() == "0 1\n1 2\n"
