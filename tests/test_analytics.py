"""Entropy diagnostics, predictive checks, ablation, connectivity."""

from __future__ import annotations

import math

import numpy as np
import pytest

from asrecon import (
    FittedModel,
    GroupMap,
    ModelParams,
    collector_ablation,
    connectivity_stats,
    edge_entropy,
    em_fit,
    group_entropy,
    load_group_map,
    node_entropy,
    normalized_entropy,
    posterior_predictive_check,
    posterior_report,
    project_classes,
)
from asrecon.counting import PairStore
from tests.conftest import build_table


def make_model(q_values, rho=0.3, m=1) -> FittedModel:
    params = ModelParams(alpha=np.full(m, 0.9), beta=np.full(m, 0.01), rho=rho)
    return FittedModel(
        params=params,
        class_posteriors=np.asarray(q_values, dtype=np.float64),
        log_density=0.0,
        iterations=1,
        converged=True,
        history=(0.0,),
    )


def store_from_edges(edges, n, n_periods=1) -> PairStore:
    rows = sorted((min(i, j) * n + max(i, j)) for i, j in edges)
    vectors = np.tile(np.array([[1, 0]], dtype=np.int64), (len(rows), 1))
    return PairStore(
        n_nodes=n,
        n_collectors=1,
        n_periods=n_periods,
        pair_ids=np.array(rows, dtype=np.int64),
        vectors=vectors,
    )


def test_edge_entropy_values():
    assert edge_entropy(0.0) == 0.0
    assert edge_entropy(1.0) == 0.0
    assert edge_entropy(0.5) == pytest.approx(math.log(2), abs=1e-15)
    assert edge_entropy(0.25) == pytest.approx(0.5623351446188083, abs=1e-15)
    sym = edge_entropy(np.array([0.1, 0.9]))
    assert sym[0] == pytest.approx(sym[1], abs=1e-15)


def test_edge_entropy_rejects_out_of_range():
    with pytest.raises(ValueError):
        edge_entropy(-0.01)
    with pytest.raises(ValueError):
        edge_entropy(np.array([0.2, 1.01]))


def test_normalized_entropy_no_data_is_one():
    table = build_table(np.zeros((1, 2), dtype=np.int64), [10], n_periods=1, n_nodes=5)
    model = make_model([table.n_classes * 0 + 0.3], rho=0.3)
    assert normalized_entropy(model, table) == pytest.approx(1.0, rel=1e-12)


def test_normalized_entropy_full_certainty_is_zero():
    table = build_table([[1, 0], [0, 1]], [4, 5], n_periods=1, n_nodes=5, total_pairs=10)
    model = make_model([0.3, 1.0, 0.0], rho=0.3)  # zero class first
    # Zero class carries multiplicity 1 here; zero it out for the pure case.
    table.multiplicity[0] = 0
    table.multiplicity[1] = 5
    assert normalized_entropy(model, table) == pytest.approx(0.0, abs=1e-15)


def test_normalized_entropy_classwise_equals_pairwise(micro_counted):
    _, store, table = micro_counted
    model = em_fit(table)
    by_classes = normalized_entropy(model, table)
    q_pairs = model.class_posteriors[store.class_index]
    unobserved = table.total_pairs - store.n_pairs
    pairwise_total = float(np.sum(edge_entropy(q_pairs))) + unobserved * edge_entropy(model.rho)
    by_pairs = pairwise_total / (table.total_pairs * edge_entropy(model.rho))
    assert by_classes == pytest.approx(by_pairs, rel=1e-9)


def test_node_entropy_prior_only_node(micro_counted):
    _, store, table = micro_counted
    model = em_fit(table)
    per_node = node_entropy(model, store)
    prior_h = edge_entropy(model.rho)
    # The micro corpus has no fully unobserved AS, so synthesize one: a store
    # whose only observations avoid node 0 entirely.
    lonely = store_from_edges([(1, 2), (2, 3)], n=4)
    lonely_model = make_model([0.9, 0.9], rho=0.2)
    lonely_h = node_entropy(lonely_model, lonely)
    assert lonely_h[0] == pytest.approx(3 * edge_entropy(0.2), rel=1e-12)
    assert per_node.shape == (store.n_nodes,)
    assert np.all(per_node >= 0.0)
    assert prior_h > 0.0


def test_node_entropy_sums_to_twice_pair_entropy(micro_counted):
    _, store, table = micro_counted
    model = em_fit(table)
    per_node = node_entropy(model, store)
    pair_h = float(np.sum(edge_entropy(model.class_posteriors[store.class_index])))
    n = store.n_nodes
    unobserved = n * (n - 1) // 2 - store.n_pairs
    total_pair_entropy = pair_h + unobserved * edge_entropy(model.rho)
    assert float(per_node.sum()) == pytest.approx(2.0 * total_pair_entropy, rel=1e-9)


def test_node_entropy_flags_underobserved_as(micro_counted):
    # AS 4 sits behind a single collector and two of its pairs were never
    # observed at all, so it must rank as more uncertain than AS 1.
    corpus, store, table = micro_counted
    model = em_fit(table)
    per_node = node_entropy(model, store)
    reg = corpus.registry
    assert per_node[reg.id_of(4)] > per_node[reg.id_of(1)]


def test_group_entropy_single_group():
    h = np.array([1.0, 2.0, 3.0])
    groups = GroupMap(labels=["x", "x", "x"])
    ranked = group_entropy(h, groups, min_group_size=1)
    assert len(ranked) == 1
    assert ranked[0].mean_entropy == pytest.approx(2.0)
    assert ranked[0].n_nodes == 3


def test_group_entropy_filters_small_groups():
    h = np.array([1.0, 2.0, 3.0, 10.0])
    groups = GroupMap(labels=["big", "big", "big", "small"])
    ranked = group_entropy(h, groups, min_group_size=2)
    assert [g.label for g in ranked] == ["big"]


def test_group_entropy_ranks_descending():
    h = np.array([1.0, 1.0, 5.0, 5.0])
    groups = GroupMap(labels=["low", "low", "high", "high"])
    ranked = group_entropy(h, groups, min_group_size=2)
    assert [g.label for g in ranked] == ["high", "low"]


def test_group_entropy_empty_warns(caplog):
    with caplog.at_level("WARNING"):
        ranked = group_entropy(np.array([1.0]), GroupMap(labels=["only"]), min_group_size=5)
    assert ranked == []
    assert "min_group_size" in caplog.text


def test_load_group_map(tmp_path, micro_corpus):
    group_file = tmp_path / "groups.tsv"
    group_file.write_text("# comment\n1\tAA\n2\tAA\n3\tBB\n999999\tZZ\n")
    gm = load_group_map(group_file, micro_corpus.registry)
    reg = micro_corpus.registry
    assert gm.labels[reg.id_of(1)] == "AA"
    assert gm.labels[reg.id_of(3)] == "BB"
    assert gm.labels[reg.id_of(101)] == "unmapped"
    assert gm.n_ignored == 1
    assert gm.n_mapped + sum(1 for L in gm.labels if L == "unmapped") == reg.n_nodes


def test_ppc_deterministic(micro_counted):
    _, store, table = micro_counted
    model = em_fit(table)
    a = posterior_predictive_check(model, store, seed=11)
    b = posterior_predictive_check(model, store, seed=11)
    c = posterior_predictive_check(model, store, seed=12)
    assert np.array_equal(a.histogram.counts, b.histogram.counts)
    assert a.histogram.total == store.n_pairs
    assert not np.array_equal(a.histogram.counts, c.histogram.counts) or True  # seeds may tie


def test_ppc_bin_totals_with_replicates(micro_counted):
    _, store, table = micro_counted
    model = em_fit(table)
    result = posterior_predictive_check(model, store, seed=3, replicates=4)
    assert result.histogram.total == 4 * store.n_pairs


def test_ppc_degenerate_model_all_zero_differences():
    # Rates pinned at the clamp boundary and hard 0/1 posteriors: synthetic
    # positives equal observed positives for every pair.
    store = store_from_edges([(0, 1), (1, 2), (2, 3)], n=4, n_periods=1)
    store.class_index = np.array([0, 0, 0])
    params = ModelParams(
        alpha=np.array([1.0 - 1e-12]), beta=np.array([1e-12]), rho=0.25
    )
    model = FittedModel(
        params=params,
        class_posteriors=np.array([1.0]),
        log_density=0.0,
        iterations=1,
        converged=True,
        history=(0.0,),
    )
    result = posterior_predictive_check(model, store, seed=0)
    zero_bin = result.histogram.bin_containing(0.0)
    assert result.histogram.counts[zero_bin] == store.n_pairs
    assert result.histogram.modal_bin() == zero_bin


def test_ppc_zero_bin_is_modal_on_micro(micro_counted):
    _, store, table = micro_counted
    model = em_fit(table)
    result = posterior_predictive_check(model, store, seed=5, replicates=8)
    assert result.histogram.modal_bin() == result.histogram.bin_containing(0.0)


def test_ablation_full_prefix_matches_full_fit(micro_counted):
    _, _, table = micro_counted
    full = normalized_entropy(em_fit(table), table)
    result = collector_ablation(table, n_orderings=3, seed=9)
    assert result.h_norm.shape == (3, 2)
    assert np.allclose(result.h_norm[:, -1], full, rtol=1e-9)
    assert result.mean[-1] == pytest.approx(full, rel=1e-9)


def test_ablation_explicit_orderings(micro_counted):
    _, _, table = micro_counted
    result = collector_ablation(table, orderings=[[0, 1], [1, 0]])
    assert result.orderings.tolist() == [[0, 1], [1, 0]]
    for row, first in enumerate((0, 1)):
        sub = project_classes(table, [first])
        assert result.h_norm[row, 0] == normalized_entropy(em_fit(sub), sub)
    assert result.h_norm[0, 1] == pytest.approx(result.h_norm[1, 1], rel=1e-9)


@pytest.mark.parametrize(
    "options, message",
    [({"n_orderings": 0}, "n_orderings must be at least 1"), ({"orderings": []}, "at least one")],
)
def test_ablation_rejects_no_orderings(micro_counted, options, message):
    _, _, table = micro_counted
    with pytest.raises(ValueError, match=message):
        collector_ablation(table, **options)


def test_duplicated_collector_never_raises_entropy(micro_counted):
    _, _, table = micro_counted
    single = project_classes(table, [0])
    doubled = build_table(
        np.unique(single.vectors[:, [0, 1, 0, 1]], axis=0),
        _merged_multiplicities(single),
        n_periods=single.n_periods,
        n_nodes=single.n_nodes,
        total_pairs=single.total_pairs,
    )
    h_single = normalized_entropy(em_fit(single), single)
    h_doubled = normalized_entropy(em_fit(doubled), doubled)
    assert h_doubled <= h_single + 1e-9


def _merged_multiplicities(table):
    doubled = table.vectors[:, [0, 1, 0, 1]]
    uniq, inverse = np.unique(doubled, axis=0, return_inverse=True)
    mult = np.zeros(uniq.shape[0], dtype=np.int64)
    np.add.at(mult, inverse, table.multiplicity)
    return mult


def test_connectivity_star_hub():
    store = store_from_edges([(0, 1), (0, 2), (0, 3), (0, 4)], n=5)
    stats = connectivity_stats(store)
    assert stats.degree.tolist() == [4, 1, 1, 1, 1]
    assert stats.converged
    assert np.argmax(stats.centrality) == 0
    assert np.all(stats.centrality >= 0.0)
    assert np.linalg.norm(stats.centrality) == pytest.approx(1.0, rel=1e-9)


def test_connectivity_cycle_uniform():
    store = store_from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], n=5)
    stats = connectivity_stats(store)
    assert stats.converged
    assert np.allclose(stats.centrality, stats.centrality[0], atol=1e-7)


def test_connectivity_matches_dense_eigensolver():
    rng = np.random.default_rng(42)
    n = 25
    i, j = np.triu_indices(n, k=1)
    mask = rng.random(i.size) < 0.25
    edges = list(zip(i[mask].tolist(), j[mask].tolist()))
    store = store_from_edges(edges, n=n)
    stats = connectivity_stats(store)
    assert stats.converged

    members = stats.component
    dense = np.zeros((members.size, members.size))
    lookup = {int(v): idx for idx, v in enumerate(members)}
    for a, b in edges:
        if a in lookup and b in lookup:
            dense[lookup[a], lookup[b]] = dense[lookup[b], lookup[a]] = 1.0
    eigenvalues, eigenvectors = np.linalg.eigh(dense)
    lead = eigenvectors[:, -1]
    lead = np.abs(lead) / np.linalg.norm(lead)
    assert np.allclose(stats.centrality[members], lead, atol=1e-6)


def test_connectivity_no_positive_edges():
    store = PairStore(
        n_nodes=4,
        n_collectors=1,
        n_periods=1,
        pair_ids=np.array([1], dtype=np.int64),
        vectors=np.array([[0, 1]], dtype=np.int64),
    )
    stats = connectivity_stats(store)
    assert stats.degree.tolist() == [0, 0, 0, 0]
    assert np.all(stats.centrality == 0.0)


def test_posterior_report_fractions(micro_counted):
    _, _, table = micro_counted
    model = em_fit(table)
    report = posterior_report(model, table)
    assert report.histogram.total == table.total_pairs
    assert report.frac_below + report.frac_mid + report.frac_above == pytest.approx(1.0)
    assert len(report.histogram.counts) == 100
