"""Per-(collector, period) union graphs and hop distances from the collector.

Each collector's paths for one time period are folded into an undirected
graph; nodes the collector cannot reach from its own vantage AS are pruned.
Hop distances from that root drive the negative-observation rule in
:mod:`asrecon.counting`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .ingest import PathCorpus, PathRecord

ABSENT = -1  # level sentinel for nodes outside a snapshot


class SnapshotError(ValueError):
    pass


@dataclass
class SnapshotGraph:
    """Union of one collector's paths in one period, pruned to the root's component.

    `adjacency` maps node id to a sorted array of neighbor ids; `edges` holds
    each undirected edge once as a row (i, j) with i < j.
    """

    collector_id: int
    time_period: int
    root: int
    adjacency: dict[int, np.ndarray]
    edges: np.ndarray
    n_total: int
    n_pruned: int = 0


def hop_levels(
    adjacency: Sequence[Iterable[int]] | Mapping[int, Iterable[int]], root: int, n_nodes: int
) -> np.ndarray:
    """Exact unweighted hop counts from `root`; ABSENT where it is unreachable.

    `adjacency[u]` lists the neighbors of node u, for every node reachable
    from the root.
    """
    dist = [ABSENT] * n_nodes
    dist[root] = 0
    frontier = [root]
    level = 0
    while frontier:
        level += 1
        grown = []
        for u in frontier:
            for v in adjacency[u]:
                if dist[v] == ABSENT:
                    dist[v] = level
                    grown.append(v)
        frontier = grown
    return np.array(dist, dtype=np.int64)


def _pick_root(records: Sequence[PathRecord]) -> int:
    # Most frequent first AS wins; ties go to the earliest-seen candidate.
    # Public collectors multiplex vantage points, but the level-based negative
    # observation rule needs a single BFS source per snapshot.
    firsts = [r.nodes[0] for r in records]
    counts = Counter(firsts)
    best = max(counts.values())
    for node in firsts:
        if counts[node] == best:
            return node
    raise AssertionError("unreachable")


def _build(records: Sequence[PathRecord], n_total: int) -> tuple[SnapshotGraph, np.ndarray]:
    if not records:
        raise SnapshotError("cannot build a snapshot from an empty record set")
    collector_id = records[0].collector_id
    time_period = records[0].time_period
    for r in records:
        if r.collector_id != collector_id or r.time_period != time_period:
            raise SnapshotError(
                "records span multiple (collector, period) groups: "
                f"({collector_id},{time_period}) vs ({r.collector_id},{r.time_period})"
            )

    # Repeated paths add no edge, so walk each distinct one once; first-seen
    # order keeps `neighbors` in the same order. `_pick_root` still counts
    # every record.
    neighbors: dict[int, set[int]] = {}
    for nodes in dict.fromkeys(r.nodes for r in records):
        neighbors.setdefault(nodes[0], set())
        for a, b in zip(nodes, nodes[1:]):
            if a == b:
                continue
            neighbors.setdefault(a, set()).add(b)
            neighbors.setdefault(b, set()).add(a)

    root = _pick_root(records)
    # The walk from the root both prunes to its connected component and
    # levels it; every neighbor of a reachable node is reachable.
    levels = hop_levels(neighbors, root, n_total)
    adjacency = {
        u: np.fromiter(sorted(nbrs), dtype=np.int64)
        for u, nbrs in neighbors.items()
        if levels[u] != ABSENT
    }
    edge_rows = [(u, v) for u, nbrs in adjacency.items() for v in nbrs if u < v]
    edge_rows.sort()
    edges = (
        np.array(edge_rows, dtype=np.int64) if edge_rows else np.empty((0, 2), dtype=np.int64)
    )
    graph = SnapshotGraph(
        collector_id=collector_id,
        time_period=time_period,
        root=root,
        adjacency=adjacency,
        edges=edges,
        n_total=n_total,
        n_pruned=len(neighbors) - len(adjacency),
    )
    return graph, levels


def build_snapshot(records: Sequence[PathRecord], n_total: int) -> SnapshotGraph:
    """Union the edges of one (collector, period) record group.

    All records must share collector and period. Consecutive path hops become
    undirected edges; nodes unreachable from the root are pruned and counted.
    """
    return _build(records, n_total)[0]


def bfs_levels(graph: SnapshotGraph) -> np.ndarray:
    """Exact unweighted hop counts from the snapshot root; ABSENT if pruned."""
    return hop_levels(graph.adjacency, graph.root, graph.n_total)


def group_records(corpus: PathCorpus) -> dict[tuple[int, int], list[PathRecord]]:
    """Bucket corpus records by (collector, period)."""
    groups: dict[tuple[int, int], list[PathRecord]] = {}
    for record in corpus.records:
        groups.setdefault((record.collector_id, record.time_period), []).append(record)
    return groups


def build_all_snapshots(corpus: PathCorpus) -> list[tuple[SnapshotGraph, np.ndarray]]:
    """Build and level every (collector, period) snapshot, ordered by (collector, period)."""
    n_total = corpus.registry.n_nodes
    return [_build(records, n_total) for _, records in sorted(group_records(corpus).items())]


def dump_snapshot_edges(graph: SnapshotGraph, path: str | Path) -> None:
    """Debug dump: one sorted `i j` line per edge."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, j in graph.edges:
            fh.write(f"{i} {j}\n")
