"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run `pytest tests/test_acceptance.py -v -s` to get one PASS line per
criterion. Synthetic-recovery criteria use fixed seeds and budgets chosen
before any tuning; full-Internet-scale results are not reproducible on a
workstation, so acceptance rests on oracle equivalence, invariants, and
recovery experiments with known ground truth.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy.stats import rankdata

from asrecon import (
    SimConfig,
    collector_ablation,
    count_corpus,
    em_fit,
    generate,
    log_density,
    naive_reconstruction,
    normalized_entropy,
    parse_paths_file,
    posterior_edge_prob,
    posterior_predictive_check,
    score_reconstruction,
    threshold_reconstruction,
)
from asrecon.counting import compact_classes
from asrecon.inference import CLAMP_EPS, ModelParams
from tests.conftest import MICRO_PATHS
from tests.test_inference import direct_posterior_longdouble

RECOVERY_CONFIG = dict(
    n_nodes=200,
    n_collectors=5,
    n_periods=5,
    graph_model="preferential",
    edges_per_node=2,
    p_miss=0.05,
    p_false_edge=0.001,
    p_reroute=0.1,
)
RECOVERY_SEEDS = tuple(range(10))


def _true_pair_ids(sim):
    reg = sim.corpus.registry
    n = reg.n_nodes
    ids = set()
    for u, v in sim.true_edges:
        a, b = int(sim.as_numbers[u]), int(sim.as_numbers[v])
        if a in reg and b in reg:
            i, j = sorted((reg.id_of(a), reg.id_of(b)))
            ids.add(i * n + j)
    return ids


def edge_ranking_auc(sim, model) -> float:
    """Tie-aware AUC of posterior Q against the planted edge set, all pairs."""
    true_ids = _true_pair_ids(sim)
    n = sim.corpus.registry.n_nodes
    total = n * (n - 1) // 2
    q_observed = model.class_posteriors[sim.store.class_index]
    observed_true = np.isin(
        sim.store.pair_ids, np.fromiter(true_ids, dtype=np.int64, count=len(true_ids))
    )
    n_unobserved = total - sim.store.n_pairs
    unobserved_true = len(true_ids) - int(observed_true.sum())
    values = np.concatenate([q_observed, np.full(n_unobserved, model.rho)])
    labels = np.concatenate(
        [
            observed_true,
            np.concatenate(
                [np.ones(unobserved_true, dtype=bool), np.zeros(n_unobserved - unobserved_true, dtype=bool)]
            ),
        ]
    )
    ranks = rankdata(values)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


@pytest.fixture(scope="module")
def recovery_runs():
    runs = []
    for seed in RECOVERY_SEEDS:
        sim = generate(SimConfig(seed=seed, **RECOVERY_CONFIG))
        runs.append((sim, em_fit(sim.table)))
    return runs


def test_criterion_1_posterior_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    checked = 0
    worst = 0.0
    while checked < 1000:
        m = int(rng.integers(1, 9))
        params = ModelParams(
            alpha=rng.uniform(0.01, 0.99, size=m),
            beta=rng.uniform(0.01, 0.99, size=m),
            rho=float(rng.uniform(0.001, 0.999)),
        )
        batch = min(50, 1000 - checked)
        n_periods = int(rng.integers(1, 7))
        pos = rng.integers(0, n_periods + 1, size=(batch, m))
        neg = np.array([[rng.integers(0, n_periods - e + 1) for e in row] for row in pos])
        vectors = np.empty((batch, 2 * m), dtype=np.int64)
        vectors[:, 0::2] = pos
        vectors[:, 1::2] = neg
        stable = posterior_edge_prob(vectors, params)
        direct = direct_posterior_longdouble(vectors, params)
        worst = max(worst, float(np.max(np.abs(stable - direct))))
        checked += batch
    elapsed = time.perf_counter() - started
    assert worst < 1e-12, f"max |Q - oracle| = {worst}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(
        f"\nCRITERION 1 PASS: {checked} random vectors, max posterior deviation "
        f"{worst:.2e} < 1e-12 in {elapsed:.2f}s"
    )


def test_criterion_2_class_pair_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2)
    instances = 0
    for n_nodes, m, t in ((50, 1, 5), (120, 3, 3), (300, 5, 5), (300, 2, 1)):
        total = n_nodes * (n_nodes - 1) // 2
        n_observed = int(rng.integers(1, min(total, 4000)))
        i_idx, j_idx = np.triu_indices(n_nodes, k=1)
        chosen = np.sort(rng.choice(i_idx.size, size=n_observed, replace=False))
        pos = rng.integers(0, t + 1, size=(n_observed, m))
        neg = np.array([[rng.integers(0, t - e + 1) for e in row] for row in pos])
        vectors = np.empty((n_observed, 2 * m), dtype=np.int64)
        vectors[:, 0::2] = pos
        vectors[:, 1::2] = neg
        keep = vectors.any(axis=1)
        store = compact_classes(
            (i_idx[chosen] * n_nodes + j_idx[chosen])[keep], vectors[keep], n_nodes, t
        )
        table = store.table
        assert int(table.multiplicity.sum()) == total

        params = ModelParams(
            alpha=rng.uniform(0.05, 0.95, size=m),
            beta=rng.uniform(0.05, 0.95, size=m),
            rho=float(rng.uniform(0.01, 0.5)),
        )
        by_classes = log_density(table, params)

        # Honest pairwise oracle: one term per pair, summed exactly.
        from asrecon.inference import class_log_likelihoods

        l_a, l_b = class_log_likelihoods(vectors[keep], params)
        per_pair = np.logaddexp(l_a, l_b)
        zero_term = float(
            np.logaddexp(math.log(params.rho), math.log1p(-params.rho))
        )
        terms = np.concatenate([per_pair, np.full(total - store.n_pairs, zero_term)])
        by_pairs = math.fsum(terms.tolist())
        assert by_classes == pytest.approx(by_pairs, rel=1e-9), (n_nodes, m, t)
        instances += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(
        f"\nCRITERION 2 PASS: class and pairwise log-densities agree (rel 1e-9) on "
        f"{instances} instances up to N=300 in {elapsed:.2f}s"
    )


def test_criterion_3_em_ascent_and_convergence(recovery_runs):
    micro_model = em_fit(count_corpus(parse_paths_file(MICRO_PATHS))[1])
    models = [micro_model] + [model for _, model in recovery_runs]
    worst_drop = 0.0
    max_iters = 0
    for model in models:
        assert model.converged, "EM failed to converge within 500 iterations"
        assert model.iterations <= 500
        diffs = np.diff(np.array(model.history))
        if diffs.size:
            worst_drop = min(worst_drop, float(diffs.min()))
        max_iters = max(max_iters, model.iterations)
    assert worst_drop >= -1e-9, f"log-density dropped by {-worst_drop}"
    print(
        f"\nCRITERION 3 PASS: {len(models)} fits converged (max {max_iters} iterations), "
        f"worst per-step log-density change {worst_drop:.2e} >= -1e-9"
    )


def test_criterion_4_micro_instance():
    started = time.perf_counter()
    corpus = parse_paths_file(MICRO_PATHS)
    store, table = count_corpus(corpus)
    reg = corpus.registry

    def vec(a, b):
        v = store.vector_of(reg.id_of(a), reg.id_of(b))
        return None if v is None else tuple(int(x) for x in v)

    for pair in ((1, 2), (2, 3), (3, 5)):  # a-b, b-c, c-e
        assert vec(*pair) == (2, 0, 2, 0), pair
    for pair in ((1, 3), (1, 5), (2, 5)):  # a-c, a-e, b-e
        assert vec(*pair) == (0, 2, 0, 2), pair
    for pair in ((2, 4), (3, 4)):  # b-d, c-d: never observed
        assert vec(*pair) is None, pair

    model = em_fit(table)
    q_zero = model.class_posteriors[table.zero_class_index]
    assert q_zero == model.params.rho  # bitwise
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(
        f"\nCRITERION 4 PASS: micro corpus counts match by hand; unobserved pairs "
        f"get Q = rho = {model.params.rho:.6f} exactly ({elapsed:.2f}s)"
    )


def test_criterion_5_synthetic_recovery(recovery_runs):
    started = time.perf_counter()
    aucs = []
    for sim, model in recovery_runs:
        aucs.append(edge_ranking_auc(sim, model))

        alpha_err = np.abs(model.params.alpha - sim.empirical_alpha)
        assert np.all(alpha_err <= 0.05), (
            f"seed {sim.config.seed}: alpha error {alpha_err.max():.4f} > 0.05"
        )

        true_ids = _true_pair_ids(sim)
        observed_true = np.isin(
            sim.store.pair_ids, np.fromiter(true_ids, dtype=np.int64, count=len(true_ids))
        )
        vectors = sim.table.vectors[sim.store.class_index]
        pos = vectors[:, 0::2]
        opportunities = pos + vectors[:, 1::2]
        false_freq = float(pos[~observed_true].sum()) / float(opportunities[~observed_true].sum())
        bound = max(10.0 * false_freq, 2.0 * CLAMP_EPS)
        assert np.all(model.params.beta <= bound), (
            f"seed {sim.config.seed}: beta {model.params.beta.max():.2e} > {bound:.2e}"
        )
    mean_auc = float(np.mean(aucs))
    elapsed = time.perf_counter() - started
    assert mean_auc >= 0.95, f"mean AUC {mean_auc:.4f} < 0.95"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(
        f"\nCRITERION 5 PASS: mean edge-ranking AUC {mean_auc:.4f} >= 0.95 over "
        f"{len(recovery_runs)} seeds; alpha within 0.05 of empirical; beta bounded "
        f"({elapsed:.1f}s)"
    )


def test_criterion_6_entropy_shrinks_with_data():
    started = time.perf_counter()
    violations = 0
    for seed in range(10):
        base = dict(
            n_nodes=80,
            n_collectors=4,
            graph_model="preferential",
            edges_per_node=2,
            p_miss=0.05,
            p_false_edge=0.001,
            p_reroute=0.1,
            seed=seed,
        )
        sim_many = generate(SimConfig(n_periods=5, **base))
        sim_one = generate(SimConfig(n_periods=1, **base))
        ablation = collector_ablation(sim_many.table, n_orderings=10, seed=seed)
        monotone = bool(np.all(np.diff(ablation.mean) <= 1e-9))
        h_many = normalized_entropy(em_fit(sim_many.table), sim_many.table)
        h_one = normalized_entropy(em_fit(sim_one.table), sim_one.table)
        if not (monotone and h_many <= h_one + 1e-9):
            violations += 1
    elapsed = time.perf_counter() - started
    assert violations <= 1, f"{violations} of 10 seeds violated the entropy trend"
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    print(
        f"\nCRITERION 6 PASS: mean h_norm non-increasing in collector count and "
        f"T=5 <= T=1 on {10 - violations}/10 seeds ({elapsed:.1f}s)"
    )


def test_criterion_7_posterior_predictive_check(recovery_runs):
    started = time.perf_counter()
    sim, model = recovery_runs[0]
    assert model.converged
    result = posterior_predictive_check(model, sim.store, seed=1234)
    zero_bin = result.histogram.bin_containing(0.0)
    modal_bin = result.histogram.modal_bin()
    share = float(result.histogram.counts[zero_bin]) / float(result.histogram.total)
    elapsed = time.perf_counter() - started
    assert modal_bin == zero_bin
    assert share >= 0.60, f"only {share:.1%} of pairs in the zero-difference bin"
    assert elapsed < 30.0
    print(
        f"\nCRITERION 7 PASS: zero-difference bin is modal with {share:.1%} of "
        f"{result.n_pairs} pairs ({elapsed:.1f}s)"
    )


def test_criterion_8_reconstruction_scoring():
    started = time.perf_counter()
    config = SimConfig(seed=0, **{**RECOVERY_CONFIG, "p_false_edge": 0.01})
    sim = generate(config)
    assert sim.corruptions, "config must inject false edges for this criterion"
    model = em_fit(sim.table)

    recs = {tau: threshold_reconstruction(model, sim.store, tau) for tau in (0.1, 0.5, 0.9)}
    sets = {tau: {tuple(r) for r in rec.edges} for tau, rec in recs.items()}
    assert sets[0.9] <= sets[0.5] <= sets[0.1], "threshold reconstructions must nest"

    scores = {
        tau: score_reconstruction(rec, model, sim.store) for tau, rec in recs.items()
    }
    naive = score_reconstruction(naive_reconstruction(sim.store), model, sim.store)
    assert scores[0.5].log_q > naive.log_q, (
        f"tau=0.5 log_q {scores[0.5].log_q:.1f} not above naive {naive.log_q:.1f} "
        f"despite {len(sim.corruptions)} injected corruptions"
    )
    assert scores[0.9].precision >= scores[0.5].precision >= scores[0.1].precision
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        f"\nCRITERION 8 PASS: nested thresholds; tau=0.5 log_q {scores[0.5].log_q:.1f} > "
        f"naive {naive.log_q:.1f} with {len(sim.corruptions)} corruptions; precision "
        f"monotone ({elapsed:.1f}s)"
    )


def test_criterion_9_determinism(tmp_path):
    from asrecon.cli import main

    out = tmp_path / "run"

    def run_all():
        stages = [
            ["simulate", "--out", str(out), "--nodes", "40", "--collectors", "2",
             "--periods", "2", "--graph-model", "preferential", "--edges-per-node", "2",
             "--p-miss", "0.1", "--p-false-edge", "0.02", "--p-reroute", "0.2",
             "--seed", "77"],
            ["count", "--out", str(out), "--paths", str(out / "paths.txt")],
            ["fit", "--out", str(out)],
            ["entropy", "--out", str(out)],
            ["ppc", "--out", str(out), "--seed", "5"],
            ["report", "--out", str(out)],
            ["threshold", "--out", str(out)],
            ["eval", "--out", str(out), "--rec", f"naive={out / 'edges_naive.txt'}"],
            ["ablate", "--out", str(out), "--orderings", "4", "--seed", "3"],
        ]
        for argv in stages:
            assert main(argv) == 0, argv

    run_all()
    first = {
        p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()
    }
    run_all()
    second = {
        p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()
    }
    assert first.keys() == second.keys()
    different = [name for name in first if first[name] != second[name]]
    assert not different, f"artifacts changed between identical reruns: {different}"
    print(
        f"\nCRITERION 9 PASS: {len(first)} artifacts byte-identical across a full "
        f"pipeline rerun"
    )
