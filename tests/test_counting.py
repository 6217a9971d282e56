"""Observation counting and class compaction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra import numpy as hnp
from hypothesis import strategies as st

from asrecon import (
    CountingError,
    compact_classes,
    count_corpus,
    count_observations,
    parse_paths_file,
    project_classes,
    total_pair_count,
    unique_rows,
)
from asrecon.snapshots import build_all_snapshots
from tests.conftest import MICRO_EXPECTED, MICRO_UNOBSERVED, random_table, store_vector


def test_path_graph_hand_counts():
    # Single collector, single period, path r(0)-a(1)-b(2)-c(3).
    corpus = parse_paths_file("c\tt\t10 11 12 13\n")
    store, _ = count_corpus(corpus)
    assert store_vector(corpus, store, 10, 11) == (1, 0)  # r-a edge
    assert store_vector(corpus, store, 11, 12) == (1, 0)  # a-b edge
    assert store_vector(corpus, store, 10, 12) == (0, 1)  # gap 2
    assert store_vector(corpus, store, 10, 13) == (0, 1)  # gap 3
    assert store_vector(corpus, store, 11, 13) == (0, 1)  # gap 2
    assert store_vector(corpus, store, 12, 13) == (1, 0)
    assert store.n_pairs == 6


def test_micro_corpus_vectors(micro_counted):
    corpus, store, _ = micro_counted
    for (as_a, as_b), expected in MICRO_EXPECTED.items():
        assert store_vector(corpus, store, as_a, as_b) == expected, (as_a, as_b)
    for as_a, as_b in MICRO_UNOBSERVED:
        assert store_vector(corpus, store, as_a, as_b) is None, (as_a, as_b)
    assert store.n_pairs == len(MICRO_EXPECTED)


def test_micro_corpus_classes(micro_counted):
    _, store, table = micro_counted
    assert table.total_pairs == total_pair_count(8) == 28
    assert int(table.multiplicity.sum()) == 28
    assert table.zero_class_index == 0
    assert int(table.multiplicity[0]) == len(MICRO_UNOBSERVED)
    by_vector = {
        tuple(int(x) for x in row): int(mult)
        for row, mult in zip(table.vectors, table.multiplicity)
    }
    assert by_vector[(2, 0, 2, 0)] == 3
    assert by_vector[(0, 2, 0, 2)] == 3
    assert by_vector[(1, 1, 0, 0)] == 2
    assert by_vector[(0, 2, 0, 0)] == 4
    assert by_vector[(0, 0, 0, 2)] == 5
    assert by_vector[(0, 0, 2, 0)] == 2
    assert table.n_classes == 9


def test_counts_bounded_by_periods(micro_counted):
    _, store, _ = micro_counted
    per_collector = store.vectors[:, 0::2] + store.vectors[:, 1::2]
    assert int(per_collector.max()) <= store.n_periods


def test_counting_order_independent(micro_corpus):
    snapshots = build_all_snapshots(micro_corpus)
    n = micro_corpus.registry.n_nodes
    base = count_observations(snapshots, n, 2, 2)
    flipped = count_observations(list(reversed(snapshots)), n, 2, 2)
    assert np.array_equal(base.pair_ids, flipped.pair_ids)
    assert np.array_equal(base.vectors, flipped.vectors)
    t1 = compact_classes(base)
    t2 = compact_classes(flipped)
    assert np.array_equal(t1.vectors, t2.vectors)
    assert np.array_equal(t1.multiplicity, t2.multiplicity)


def test_inconsistent_node_count_rejected(micro_corpus):
    snapshots = build_all_snapshots(micro_corpus)
    with pytest.raises(CountingError, match="built against"):
        count_observations(snapshots, micro_corpus.registry.n_nodes + 1, 2, 2)


def test_compaction_arithmetic():
    # 3 pairs share one vector, 1 pair another; N=6 leaves 11 untouched pairs.
    from asrecon.counting import PairStore

    vectors = np.array([[2, 0], [2, 0], [2, 0], [0, 1]], dtype=np.int64)
    ids = np.array([0 * 6 + 1, 0 * 6 + 2, 1 * 6 + 2, 3 * 6 + 4], dtype=np.int64)
    store = PairStore(n_nodes=6, n_collectors=1, n_periods=2, pair_ids=ids, vectors=vectors)
    table = compact_classes(store)
    assert table.total_pairs == 15
    by_vector = {
        tuple(int(x) for x in row): int(mult)
        for row, mult in zip(table.vectors, table.multiplicity)
    }
    assert by_vector == {(0, 0): 11, (0, 1): 1, (2, 0): 3}
    assert store.class_index is not None
    assert table.vectors[store.class_index[0]].tolist() == [2, 0]


def test_all_pairs_unobserved():
    from asrecon.counting import PairStore

    store = PairStore(
        n_nodes=5,
        n_collectors=2,
        n_periods=1,
        pair_ids=np.empty(0, dtype=np.int64),
        vectors=np.empty((0, 4), dtype=np.int64),
    )
    table = compact_classes(store)
    assert table.n_classes == 1
    assert int(table.multiplicity[0]) == 10


def test_projection_identity_and_merging(micro_counted):
    _, _, table = micro_counted
    same = project_classes(table, [0, 1])
    assert np.array_equal(same.vectors, table.vectors)
    assert np.array_equal(same.multiplicity, table.multiplicity)

    only_first = project_classes(table, [0])
    assert only_first.n_classes <= table.n_classes
    assert int(only_first.multiplicity.sum()) == table.total_pairs
    # Pairs only r2 observed fold into the zero class.
    by_vector = {
        tuple(int(x) for x in row): int(mult)
        for row, mult in zip(only_first.vectors, only_first.multiplicity)
    }
    assert by_vector[(0, 0)] == 6 + 5 + 2  # unobserved + r2-only classes


def test_projection_rejects_bad_subsets(micro_counted):
    _, _, table = micro_counted
    with pytest.raises(CountingError):
        project_classes(table, [])
    with pytest.raises(CountingError):
        project_classes(table, [0, 0])
    with pytest.raises(CountingError):
        project_classes(table, [2])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_nested_projection_equals_direct_projection(seed):
    rng = np.random.default_rng(seed)
    table = random_table(rng)
    perm = rng.permutation(table.n_collectors).tolist()
    permuted = project_classes(table, perm)
    chained = permuted
    for k in range(table.n_collectors, 0, -1):
        direct = project_classes(table, perm[:k])
        chained = project_classes(chained, range(k))  # prefix k from prefix k + 1
        for nested in (project_classes(permuted, range(k)), chained):
            assert np.array_equal(nested.vectors, direct.vectors)
            assert np.array_equal(nested.multiplicity, direct.multiplicity)
            assert nested.n_collectors == direct.n_collectors == k
            assert nested.total_pairs == direct.total_pairs


def test_noise_free_simulation_counts():
    # Every collector sees its tree every period; no negative observation may
    # land on a true edge.
    from asrecon import SimConfig, generate

    sim = generate(SimConfig(n_nodes=40, n_collectors=3, n_periods=3, density=0.12, seed=5))
    reg = sim.corpus.registry
    true_ids = set()
    for u, v in sim.true_edges:
        a, b = int(sim.as_numbers[u]), int(sim.as_numbers[v])
        if a in reg and b in reg:
            i, j = sorted((reg.id_of(a), reg.id_of(b)))
            true_ids.add(i * reg.n_nodes + j)
    neg = sim.store.vectors[:, 1::2].sum(axis=1)
    for pid, f_total in zip(sim.store.pair_ids, neg):
        if f_total > 0:
            assert int(pid) not in true_ids


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**40))
def test_compaction_conserves_pairs(n_nodes, seed):
    from asrecon.counting import PairStore

    rng = np.random.default_rng(seed)
    total = total_pair_count(n_nodes)
    n_obs = int(rng.integers(0, total + 1))
    i, j = np.triu_indices(n_nodes, k=1)
    chosen = rng.choice(i.size, size=n_obs, replace=False)
    chosen.sort()
    vectors = rng.integers(0, 3, size=(n_obs, 4)).astype(np.int64)
    keep = vectors.any(axis=1)
    store = PairStore(
        n_nodes=n_nodes,
        n_collectors=2,
        n_periods=4,
        pair_ids=(i[chosen] * n_nodes + j[chosen])[keep],
        vectors=vectors[keep],
    )
    table = compact_classes(store)
    assert int(table.multiplicity.sum()) == total
    assert np.unique(table.vectors, axis=0).shape[0] == table.n_classes


def _assert_matches_np_unique(rows: np.ndarray) -> None:
    uniq, inverse, counts = unique_rows(rows)
    ref_uniq, ref_inverse, ref_counts = np.unique(
        rows, axis=0, return_inverse=True, return_counts=True
    )
    assert np.array_equal(uniq, ref_uniq)
    assert uniq.shape == ref_uniq.shape
    assert np.array_equal(inverse, ref_inverse.reshape(-1))
    assert np.array_equal(counts, ref_counts)


def test_unique_rows_edge_cases():
    _assert_matches_np_unique(np.empty((0, 4), dtype=np.int64))
    _assert_matches_np_unique(np.array([[3, 0, 2]], dtype=np.int64))
    _assert_matches_np_unique(np.zeros((5, 3), dtype=np.int64))
    with pytest.raises(CountingError):
        unique_rows(np.array([[0, -1]], dtype=np.int64))


def test_unique_rows_two_words():
    # 16 collectors x 8 periods: 32 base-9 digits, and 9**32 > 2**63, so the
    # rows span two packed words. Rows that agree on the first word must
    # still be told apart, and sorted, by the second.
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 9, size=(400, 32)).astype(np.int64)
    rows[200:] = rows[:200]
    rows[100:200, :24] = rows[0, :24]
    _assert_matches_np_unique(rows)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_unique_rows_matches_np_unique(data):
    # The largest entry sets the packing base, and so how many columns share
    # a word: from 63 columns per word (base 2) down to one (base 2**62 + 1).
    high = data.draw(st.sampled_from([1, 3, 8, 2**20, 2**62]))
    shape = data.draw(st.tuples(st.integers(1, 30), st.integers(1, 12)))
    rows = data.draw(hnp.arrays(np.int64, shape, elements=st.integers(0, high)))
    _assert_matches_np_unique(rows)
