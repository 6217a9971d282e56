"""Model fitting: stabilized posteriors against direct oracles, EM behavior."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asrecon import (
    InferenceError,
    ModelParams,
    class_log_likelihoods,
    em_fit,
    log_density,
    posterior_edge_prob,
)
from asrecon.inference import default_init, naive_graph_density
from tests.conftest import build_table


def direct_posterior_mp(vector, params: ModelParams, dps: int = 60) -> float:
    """Unstabilized Bayes ratio in high precision; the independent oracle."""
    with mpmath.workdps(dps):
        rho = mpmath.mpf(params.rho)
        p_edge = mpmath.mpf(1)
        p_gap = mpmath.mpf(1)
        for k in range(params.n_collectors):
            e, f = int(vector[2 * k]), int(vector[2 * k + 1])
            a = mpmath.mpf(float(params.alpha[k]))
            b = mpmath.mpf(float(params.beta[k]))
            p_edge *= a**e * (1 - a) ** f
            p_gap *= b**e * (1 - b) ** f
        return float(rho * p_edge / (rho * p_edge + (1 - rho) * p_gap))


def direct_posterior_longdouble(vectors, params: ModelParams) -> np.ndarray:
    """Same product form evaluated in extended precision, vectorized."""
    e = np.asarray(vectors, dtype=np.longdouble)[:, 0::2]
    f = np.asarray(vectors, dtype=np.longdouble)[:, 1::2]
    alpha = params.alpha.astype(np.longdouble)
    beta = params.beta.astype(np.longdouble)
    rho = np.longdouble(params.rho)
    p_edge = np.prod(alpha**e * (1 - alpha) ** f, axis=1)
    p_gap = np.prod(beta**e * (1 - beta) ** f, axis=1)
    return (rho * p_edge / (rho * p_edge + (1 - rho) * p_gap)).astype(np.float64)


def pairwise_log_density(table, params: ModelParams) -> float:
    """Sum over individual pairs instead of classes; the equivalence oracle."""
    total = 0.0
    for row, mult in zip(table.vectors, table.multiplicity):
        l_a, l_b = class_log_likelihoods(row, params)
        total += int(mult) * float(np.logaddexp(l_a, l_b))
    return total


def test_zero_vector_returns_prior_exactly():
    params = ModelParams(alpha=np.array([0.9, 0.8]), beta=np.array([0.05, 0.01]), rho=0.37)
    l_a, l_b = class_log_likelihoods(np.zeros(4), params)
    assert l_a == pytest.approx(math.log(0.37), abs=1e-15)
    assert l_b == pytest.approx(math.log(0.63), abs=1e-15)
    assert posterior_edge_prob(np.zeros(4), params) == 0.37


def test_single_collector_hand_values():
    params = ModelParams(alpha=np.array([0.9]), beta=np.array([0.1]), rho=0.01)
    l_a, l_b = class_log_likelihoods(np.array([2, 0]), params)
    assert l_a == pytest.approx(math.log(0.01 * 0.81), rel=1e-14)
    assert l_b == pytest.approx(math.log(0.99 * 0.01), rel=1e-14)
    q = posterior_edge_prob(np.array([2, 0]), params)
    assert q == pytest.approx(0.0081 / (0.0081 + 0.0099), rel=1e-13)
    assert q == pytest.approx(0.45, rel=1e-12)


def test_single_negative_observation_factor():
    params = ModelParams(alpha=np.array([0.9]), beta=np.array([0.5]), rho=0.5)
    l_a, _ = class_log_likelihoods(np.array([0, 1]), params)
    assert l_a == pytest.approx(math.log(0.5) + math.log(0.1), rel=1e-14)


def test_posterior_matches_mpmath_oracle():
    rng = np.random.default_rng(20240517)
    for _ in range(50):
        m = int(rng.integers(1, 6))
        params = ModelParams(
            alpha=rng.uniform(0.05, 0.95, size=m),
            beta=rng.uniform(0.05, 0.95, size=m),
            rho=float(rng.uniform(0.001, 0.5)),
        )
        vector = rng.integers(0, 6, size=2 * m)
        stable = posterior_edge_prob(vector, params)
        assert abs(stable - direct_posterior_mp(vector, params)) < 1e-12


def test_posterior_saturates_for_concordant_positives():
    m = 6
    params = ModelParams(
        alpha=np.full(m, 0.9), beta=np.full(m, 0.01), rho=0.001
    )
    vector = np.zeros(2 * m, dtype=np.int64)
    vector[0::2] = 5
    q = posterior_edge_prob(vector, params)
    assert q > 0.999
    assert abs(q - direct_posterior_mp(vector, params)) < 1e-12


def test_log_density_of_pure_zero_table():
    table = build_table(np.zeros((1, 4), dtype=np.int64), [10], n_periods=3, n_nodes=5)
    params = ModelParams(alpha=np.array([0.9, 0.9]), beta=np.array([0.1, 0.1]), rho=0.3)
    assert abs(log_density(table, params)) < 1e-12


def test_log_density_matches_pairwise_oracle(micro_counted):
    _, _, table = micro_counted
    params = ModelParams(alpha=np.array([0.85, 0.7]), beta=np.array([0.02, 0.08]), rho=0.2)
    by_classes = log_density(table, params)
    by_pairs = pairwise_log_density(table, params)
    assert by_classes == pytest.approx(by_pairs, rel=1e-12)
    assert math.isfinite(by_classes)


def test_label_swap_symmetry(micro_counted):
    _, _, table = micro_counted
    rng = np.random.default_rng(7)
    for _ in range(20):
        params = ModelParams(
            alpha=rng.uniform(0.01, 0.99, size=2),
            beta=rng.uniform(0.01, 0.99, size=2),
            rho=float(rng.uniform(0.01, 0.99)),
        )
        assert log_density(table, params) == pytest.approx(
            log_density(table, params.swapped()), rel=1e-12
        )


def test_params_validation():
    with pytest.raises(InferenceError):
        ModelParams(alpha=np.array([1.0]), beta=np.array([0.1]), rho=0.5)
    with pytest.raises(InferenceError):
        ModelParams(alpha=np.array([0.9]), beta=np.array([0.0]), rho=0.5)
    with pytest.raises(InferenceError):
        ModelParams(alpha=np.array([0.9, 0.9]), beta=np.array([0.1]), rho=0.5)


def test_em_noise_free_recovery():
    # Idealized full-visibility data: every true pair positively observed in
    # all periods by both collectors, every non-pair negatively observed.
    n_nodes, n_periods = 30, 3
    total = n_nodes * (n_nodes - 1) // 2
    n_true = 87
    vectors = [[n_periods, 0, n_periods, 0], [0, n_periods, 0, n_periods]]
    table = build_table(vectors, [n_true, total - n_true], n_periods, n_nodes)
    model = em_fit(table)
    assert model.converged
    assert np.all(model.params.alpha >= 1.0 - 1e-9)
    assert np.all(model.params.beta <= 1e-9)
    assert model.params.rho == pytest.approx(n_true / total, rel=1e-9)
    rows = table.vectors.tolist()
    assert model.class_posteriors[rows.index(vectors[0])] > 1.0 - 1e-9
    assert model.class_posteriors[rows.index(vectors[1])] < 1e-9


def test_em_single_positive_class_stationary_point():
    # One collector, one class of fully positive pairs plus the zero class.
    # With this data alpha and beta are not separable, so EM parks rho at a
    # value derivable in closed form from the documented initialization.
    n_nodes, n_periods, m1 = 100, 5, 100
    total = n_nodes * (n_nodes - 1) // 2
    table = build_table([[n_periods, 0]], [m1], n_periods, n_nodes)
    init = default_init(table)
    assert init.rho == pytest.approx(m1 / total)

    gap = (math.log(init.rho) - math.log1p(-init.rho)) + n_periods * (
        math.log(init.alpha[0]) - math.log(init.beta[0])
    )
    q1 = 1.0 / (1.0 + math.exp(-gap))
    expected_rho = (m1 * q1 + (total - m1) * init.rho) / total

    model = em_fit(table)
    assert model.converged
    assert model.params.rho == pytest.approx(expected_rho, rel=1e-9)
    # Still the right order: within a factor of two of the planted density.
    assert m1 / total <= model.params.rho <= 2.2 * m1 / total


def test_em_monotone_log_density(micro_counted):
    _, _, table = micro_counted
    model = em_fit(table)
    assert model.converged
    assert model.iterations <= 500
    diffs = np.diff(np.array(model.history))
    assert np.all(diffs >= -1e-9)


def test_em_zero_class_posterior_is_prior_bitwise(micro_counted):
    _, _, table = micro_counted
    model = em_fit(table)
    assert model.class_posteriors[table.zero_class_index] == model.params.rho


def test_em_micro_collector_asymmetry(micro_counted):
    # r1 flip-flopped on two pairs ((1,6) and (5,6) each earned E=1, F=1),
    # while r2 never contradicted itself, so r1's fitted accuracy is lower.
    _, _, table = micro_counted
    model = em_fit(table)
    assert model.params.alpha[1] > model.params.alpha[0]
    assert model.params.rho < 0.5


def test_em_relabels_mirrored_start(micro_counted):
    # A deliberately mirrored initialization converges to the mirror optimum;
    # the fit must hand back the sparse labeling.
    _, _, table = micro_counted
    init = ModelParams(alpha=np.array([0.05, 0.05]), beta=np.array([0.97, 0.97]), rho=0.9)
    model = em_fit(table, init=init)
    assert model.params.rho < 0.5
    assert model.relabeled
    reference = em_fit(table)
    assert model.log_density == pytest.approx(reference.log_density, rel=1e-9)


def test_em_retains_rate_for_silent_collector():
    # Second collector never observes anything: its rates cannot move.
    vectors = [[3, 0, 0, 0], [0, 3, 0, 0]]
    table = build_table(vectors, [40, 60], n_periods=3, n_nodes=40)
    model = em_fit(table)
    assert 1 in model.retained_alpha or 1 in model.retained_beta
    assert model.converged


def test_em_rejects_mismatched_init(micro_counted):
    _, _, table = micro_counted
    with pytest.raises(InferenceError, match="collectors"):
        em_fit(table, init=ModelParams(alpha=np.array([0.9]), beta=np.array([0.1]), rho=0.1))


def test_naive_density(micro_counted):
    _, _, table = micro_counted
    # Positive observations touch 8 pairs in the micro corpus.
    assert naive_graph_density(table) == pytest.approx(8 / 28)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_posterior_oracle_property(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    params = ModelParams(
        alpha=rng.uniform(0.02, 0.98, size=m),
        beta=rng.uniform(0.02, 0.98, size=m),
        rho=float(rng.uniform(0.01, 0.99)),
    )
    vectors = rng.integers(0, 7, size=(16, 2 * m))
    stable = posterior_edge_prob(vectors, params)
    direct = direct_posterior_longdouble(vectors, params)
    assert np.all(np.abs(stable - direct) < 1e-12)
    assert np.all((stable >= 0.0) & (stable <= 1.0))
