"""Counting positive and negative edge observations, and class compaction.

For every AS pair and collector we count, over the time periods:

* E, the periods in which the pair appeared as an edge of the collector's
  snapshot graph, and
* F, the periods in which the pair was absent although both endpoints were
  visible and their hop distances from the collector differed by at least 2,
  so the missing edge would have shortened a path.

Counts are binary per (collector, period); how many distinct paths contained
an edge is deliberately ignored so that chatty collectors do not dominate.
Pairs with identical observation vectors are then collapsed into observation
classes, which is what makes inference tractable: all later stages work on
classes weighted by multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ingest import PathCorpus
from .snapshots import SnapshotGraph, build_all_snapshots


class CountingError(ValueError):
    pass


def total_pair_count(n_nodes: int) -> int:
    return n_nodes * (n_nodes - 1) // 2


@dataclass
class PairStore:
    """The class of every pair that was observed at least once.

    Pairs are keyed by `i * n_nodes + j` with i < j, sorted; `class_index`
    holds each pair's row of `table`. Unobserved pairs are implicit; they all
    belong to the all-zero class.
    """

    table: ClassTable
    pair_ids: np.ndarray
    class_index: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.table.n_nodes

    @property
    def n_pairs(self) -> int:
        return int(self.pair_ids.size)

    def pairs_ij(self) -> tuple[np.ndarray, np.ndarray]:
        return self.pair_ids // self.n_nodes, self.pair_ids % self.n_nodes

    def row_of(self, i: int, j: int) -> int | None:
        """Index into pair_ids/class_index for pair (i, j), or None if unobserved."""
        if i == j:
            raise CountingError("self pairs carry no observations")
        if i > j:
            i, j = j, i
        pid = i * self.n_nodes + j
        pos = int(np.searchsorted(self.pair_ids, pid))
        if pos < self.pair_ids.size and self.pair_ids[pos] == pid:
            return pos
        return None

    def vector_of(self, i: int, j: int) -> np.ndarray | None:
        row = self.row_of(i, j)
        return None if row is None else self.table.vectors[self.class_index[row]]


@dataclass
class ClassTable:
    """Distinct observation vectors with pair multiplicities.

    Row 0 is always the all-zero class holding every unobserved pair (its
    multiplicity may be 0); the remaining rows are sorted lexicographically,
    so the table is independent of counting order.
    """

    vectors: np.ndarray
    multiplicity: np.ndarray
    n_collectors: int
    n_periods: int
    n_nodes: int
    total_pairs: int
    zero_class_index: int = 0

    @property
    def n_classes(self) -> int:
        return int(self.multiplicity.size)

    @property
    def pos_counts(self) -> np.ndarray:
        """E columns, shape (n_classes, n_collectors)."""
        return self.vectors[:, 0::2]

    @property
    def neg_counts(self) -> np.ndarray:
        """F columns, shape (n_classes, n_collectors)."""
        return self.vectors[:, 1::2]

    def validate(self) -> None:
        if int(self.multiplicity.sum()) != self.total_pairs:
            raise CountingError(
                f"class multiplicities sum to {int(self.multiplicity.sum())}, "
                f"expected {self.total_pairs}"
            )
        # A pair is seen or missed at most once per (collector, period), so
        # 0 <= E, F and E + F <= T; unique_rows relies on the lower bound.
        if self.vectors.size and self.vectors.min() < 0:
            raise CountingError("negative observation count")
        if np.any(self.pos_counts + self.neg_counts > self.n_periods):
            raise CountingError(f"a class has E+F > T={self.n_periods} for some collector")
        if unique_rows(self.vectors)[0].shape[0] != self.n_classes:
            raise CountingError("duplicate observation classes")
        if np.any(self.vectors[self.zero_class_index]):
            raise CountingError("zero-class row is not all-zero")


def unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows of a non-negative integer matrix, with inverse and counts.

    Returns what ``np.unique(rows, axis=0, return_inverse=True,
    return_counts=True)`` returns: the rows in lexicographic order, the index
    of each input row's distinct row, and how often each occurs. Each row is
    radix-packed in base ``max + 1`` into as few int64 words as hold it, so
    one lexsort over the words replaces a sort over row views.
    """
    rows = np.asarray(rows)
    n, width = rows.shape
    if n == 0:
        return rows[:0], np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if rows.min() < 0:
        raise CountingError("unique_rows needs non-negative entries")
    base = max(int(rows.max()) + 1, 2)
    digits = 1  # columns per word: base**digits - 1 must fit in an int64
    while base ** (digits + 1) <= 2**63:
        digits += 1
    words = []
    for start in range(0, width, digits):
        word = rows[:, start].astype(np.int64)
        for c in range(start + 1, min(start + digits, width)):
            word = word * base + rows[:, c]
        words.append(word)
    order = np.lexsort(words[::-1])  # lexsort's primary key is the last one
    packed = np.stack(words)[:, order]
    first = np.ones(n, dtype=bool)
    first[1:] = np.any(packed[:, 1:] != packed[:, :-1], axis=0)
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, n))
    return rows[order[starts]], inverse, counts


def _snapshot_observation_ids(
    graph: SnapshotGraph, levels: np.ndarray, n_nodes: int
) -> tuple[int, np.ndarray, np.ndarray]:
    """Positive and negative pair ids contributed by one snapshot."""
    if graph.n_total != n_nodes:
        raise CountingError(
            f"snapshot built against {graph.n_total} nodes, counting against {n_nodes}"
        )
    if graph.edges.size:
        pos = graph.edges[:, 0] * n_nodes + graph.edges[:, 1]
    else:
        pos = np.empty(0, dtype=np.int64)

    # Nodes absent from the snapshot contribute nothing: absence of evidence
    # is not evidence of absence. Within the snapshot, any cross-level pair
    # with gap >= 2 cannot be an edge (BFS levels of adjacent nodes differ by
    # at most 1), so the level buckets alone enumerate the negative pairs.
    present = np.flatnonzero(levels >= 0)
    lv = levels[present]
    max_level = int(lv.max(initial=0))
    buckets = [present[lv == level] for level in range(max_level + 1)]

    neg_parts: list[np.ndarray] = []
    low = np.empty(0, dtype=np.int64)
    for level in range(2, max_level + 1):
        low = np.concatenate([low, buckets[level - 2]])
        high = buckets[level]
        if high.size == 0 or low.size == 0:
            continue
        u = np.repeat(high, low.size)
        v = np.tile(low, high.size)
        i = np.minimum(u, v)
        j = np.maximum(u, v)
        neg_parts.append(i * n_nodes + j)
    neg = np.concatenate(neg_parts) if neg_parts else np.empty(0, dtype=np.int64)
    return graph.collector_id, pos, neg


def count_observations(
    snapshots: Sequence[tuple[SnapshotGraph, np.ndarray]],
    n_nodes: int,
    n_collectors: int,
    n_periods: int,
) -> PairStore:
    """Aggregate per-snapshot observations into per-pair count vectors, and
    compact those into classes.

    Snapshots are merged by pair id, so the result does not depend on their
    order.
    """
    # The per-snapshot observations are freed before compaction allocates.
    pair_ids, vectors = _pair_vectors(snapshots, n_nodes, n_collectors, n_periods)
    return compact_classes(pair_ids, vectors, n_nodes, n_periods)


def _pair_vectors(
    snapshots: Sequence[tuple[SnapshotGraph, np.ndarray]],
    n_nodes: int,
    n_collectors: int,
    n_periods: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The sorted ids of the observed pairs and their `[E_1, F_1, ...]` rows."""
    pos_by_k: list[list[np.ndarray]] = [[] for _ in range(n_collectors)]
    neg_by_k: list[list[np.ndarray]] = [[] for _ in range(n_collectors)]
    for graph, levels in snapshots:
        k, pos, neg = _snapshot_observation_ids(graph, levels, n_nodes)
        if k < 0 or k >= n_collectors:
            raise CountingError(f"collector id {k} outside 0..{n_collectors - 1}")
        pos_by_k[k].append(pos)
        neg_by_k[k].append(neg)

    def _tally(parts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        if not parts:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        ids, counts = np.unique(np.concatenate(parts), return_counts=True)
        return ids, counts

    tallies = [(_tally(pos_by_k[k]), _tally(neg_by_k[k])) for k in range(n_collectors)]

    id_arrays: list[np.ndarray] = []
    for (pos_ids, _), (neg_ids, _) in tallies:
        id_arrays.append(pos_ids)
        id_arrays.append(neg_ids)
    union = (
        np.unique(np.concatenate(id_arrays))
        if any(a.size for a in id_arrays)
        else np.empty(0, dtype=np.int64)
    )
    vectors = np.zeros((union.size, 2 * n_collectors), dtype=np.int64)
    for k, ((pos_ids, pos_counts), (neg_ids, neg_counts)) in enumerate(tallies):
        if pos_ids.size:
            vectors[np.searchsorted(union, pos_ids), 2 * k] = pos_counts
        if neg_ids.size:
            vectors[np.searchsorted(union, neg_ids), 2 * k + 1] = neg_counts

    # A pair cannot be both positively and negatively observed in the same
    # period, so per collector the two counts sum to at most T.
    both = vectors[:, 0::2] + vectors[:, 1::2]
    if both.size and int(both.max()) > n_periods:
        bad = np.argwhere(both > n_periods)[0]
        raise CountingError(
            f"pair id {int(union[bad[0]])} has E+F={int(both[bad[0], bad[1]])} > T={n_periods} "
            f"for collector {int(bad[1])}"
        )

    return union, vectors


def compact_classes(
    pair_ids: np.ndarray,
    vectors: np.ndarray,
    n_nodes: int,
    n_periods: int,
    total_pairs: int | None = None,
) -> PairStore:
    """Collapse identical observation vectors into weighted classes.

    `vectors` rows are `[E_1, F_1, ..., E_M, F_M]`, aligned with the sorted
    `pair_ids`. The implicit all-zero class receives every pair absent from
    them. Returns the store of each pair's class, which carries the table.
    """
    if total_pairs is None:
        total_pairs = total_pair_count(n_nodes)
    if total_pairs >= 2**63:
        raise CountingError("pair count exceeds 64-bit multiplicities")
    n_pairs = int(pair_ids.size)
    if n_pairs > total_pairs:
        raise CountingError(f"{n_pairs} observed pairs exceed total {total_pairs}")

    width = vectors.shape[1]
    uniq, inverse, counts = unique_rows(vectors)
    table = ClassTable(
        vectors=np.vstack([np.zeros((1, width), dtype=np.int64), uniq.astype(np.int64)]),
        multiplicity=np.concatenate(
            [np.array([total_pairs - n_pairs], dtype=np.int64), counts.astype(np.int64)]
        ),
        n_collectors=width // 2,
        n_periods=n_periods,
        n_nodes=n_nodes,
        total_pairs=total_pairs,
        zero_class_index=0,
    )
    table.validate()
    return PairStore(table=table, pair_ids=pair_ids, class_index=inverse + 1)


def project_classes(table: ClassTable, collectors: Sequence[int]) -> ClassTable:
    """Restrict a class table to a subset of collectors and re-compact.

    Classes whose vectors collide after dropping the other collectors merge,
    so the projected table never has more classes than the original.
    """
    collectors = list(collectors)
    if not collectors:
        raise CountingError("cannot project onto an empty collector subset")
    if len(set(collectors)) != len(collectors):
        raise CountingError("duplicate collector in projection subset")
    for k in collectors:
        if k < 0 or k >= table.n_collectors:
            raise CountingError(f"collector {k} outside 0..{table.n_collectors - 1}")

    cols = [c for k in collectors for c in (2 * k, 2 * k + 1)]
    projected = np.ascontiguousarray(table.vectors[:, cols])
    uniq, inverse, _ = unique_rows(projected)
    multiplicity = np.zeros(uniq.shape[0], dtype=np.int64)
    np.add.at(multiplicity, inverse, table.multiplicity)

    # unique_rows sorts rows lexicographically; non-negative counts put the
    # all-zero row (always present via the original zero class) first.
    zero = int(np.flatnonzero(~uniq.any(axis=1))[0])
    if zero != 0:
        raise CountingError("projected zero class not in leading position")

    out = ClassTable(
        vectors=uniq.astype(np.int64),
        multiplicity=multiplicity,
        n_collectors=len(collectors),
        n_periods=table.n_periods,
        n_nodes=table.n_nodes,
        total_pairs=table.total_pairs,
        zero_class_index=0,
    )
    out.validate()
    return out


def count_corpus(corpus: PathCorpus) -> tuple[PairStore, ClassTable]:
    """Full counting stage: snapshots, observation vectors, class table."""
    store = count_observations(
        build_all_snapshots(corpus),
        n_nodes=corpus.registry.n_nodes,
        n_collectors=corpus.n_collectors,
        n_periods=corpus.n_periods,
    )
    return store, store.table
