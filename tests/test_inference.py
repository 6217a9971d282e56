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
    SimConfig,
    class_log_likelihoods,
    em_fit,
    generate,
    log_density,
    posterior_edge_prob,
)
from asrecon.inference import (
    CLAMP_EPS,
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    default_init,
    naive_graph_density,
)
from tests.conftest import build_table, random_table


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


def reference_e_step(table, params: ModelParams) -> tuple[float, np.ndarray, float]:
    """Log-density, class posteriors, and the summed magnitude of the joint
    log-likelihoods, from strided views of a fresh float copy of the table.

    The magnitude sets the absolute error of the log-density: with every class
    explained almost surely it is a sum of terms near 0, each rounded at the
    scale of the log-likelihoods it combines.
    """
    arr = table.vectors.astype(np.float64)
    l_a = np.log(params.rho) + arr[:, 0::2] @ np.log(params.alpha)
    l_a = l_a + arr[:, 1::2] @ np.log1p(-params.alpha)
    l_b = np.log1p(-params.rho) + arr[:, 0::2] @ np.log(params.beta)
    l_b = l_b + arr[:, 1::2] @ np.log1p(-params.beta)
    with np.errstate(over="ignore"):
        q = 1.0 / (1.0 + np.exp(-(l_a - l_b)))
    q[table.zero_class_index] = params.rho
    m = table.multiplicity.astype(np.float64)
    scale = float(np.sum(m * (np.abs(l_a) + np.abs(l_b))))
    return float(np.sum(m * np.logaddexp(l_a, l_b))), q, scale


def reference_em(table, init: ModelParams | None = None, max_iters: int = DEFAULT_MAX_ITERS):
    """EM in its plain form, with an M-step of broadcast sums; the reference for em_fit."""
    params = (init or default_init(table)).clamped()
    m = table.multiplicity.astype(np.float64)
    pos = table.pos_counts.astype(np.float64)
    opportunities = pos + table.neg_counts.astype(np.float64)
    history = []
    while True:
        ld, q, _ = reference_e_step(table, params)
        history.append(ld)
        if len(history) > 1 and abs(ld - history[-2]) / max(abs(ld), CLAMP_EPS) < DEFAULT_TOL:
            break
        if len(history) == max_iters:
            break
        w_edge, w_gap = m * q, m * (1.0 - q)
        rates = []
        for w, old in ((w_edge, params.alpha), (w_gap, params.beta)):
            num = (pos * w[:, None]).sum(axis=0)
            den = (opportunities * w[:, None]).sum(axis=0)
            rate = np.divide(num, den, out=old.copy(), where=den > 0.0)
            rates.append(np.clip(rate, CLAMP_EPS, 1.0 - CLAMP_EPS))
        rho = float(np.clip(np.sum(w_edge) / table.total_pairs, CLAMP_EPS, 1.0 - CLAMP_EPS))
        params = ModelParams(alpha=rates[0], beta=rates[1], rho=rho)
    if params.rho > 0.5:
        params = params.swapped()
        q = reference_e_step(table, params)[1]
    return params, q, history


def assert_matches_reference(table, init: ModelParams | None = None, max_iters=DEFAULT_MAX_ITERS):
    """Same iterations, and history, rates, prior and posteriors within 1e-12 relative.

    The last log-density and the posteriors are checked against the reference
    E-step at em_fit's own final rates. Near 1, a one-ulp change in a rate
    moves log(1 - rate) by far more than an ulp, so two equally valid
    summation orders can leave the posteriors of pairs with misses more than
    1e-12 apart even when the rates agree to the last bits.
    """
    model = em_fit(table, init=init, max_iters=max_iters)
    params, _, history = reference_em(table, init, max_iters=max_iters)
    assert model.iterations == len(history)
    close = dict(rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(model.history[:-1], history[:-1], **close)
    np.testing.assert_allclose(model.params.alpha, params.alpha, **close)
    np.testing.assert_allclose(model.params.beta, params.beta, **close)
    np.testing.assert_allclose(model.params.rho, params.rho, **close)
    ld, q, scale = reference_e_step(table, model.params)
    np.testing.assert_allclose(model.history[-1], ld, rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_allclose(model.class_posteriors, q, **close)
    return model


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


@pytest.mark.parametrize("mirrored", [False, True])
def test_em_matches_reference_on_micro(micro_counted, mirrored):
    _, _, table = micro_counted
    init = None
    if mirrored:  # converges to the mirror optimum, so the relabel path runs too
        init = ModelParams(alpha=np.array([0.05, 0.05]), beta=np.array([0.97, 0.97]), rho=0.9)
    model = assert_matches_reference(table, init)
    q = reference_em(table, init)[1]
    np.testing.assert_allclose(model.class_posteriors, q, rtol=1e-12, atol=0.0)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=10, max_value=40),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([0.0, 0.1]),
    st.sampled_from([0.0, 0.05]),
    st.integers(min_value=0, max_value=2**32),
)
def test_em_matches_reference_on_simulated_tables(n, collectors, periods, p_miss, p_false, seed):
    config = SimConfig(
        n_nodes=n, n_collectors=collectors, n_periods=periods, graph_model="preferential",
        p_miss=p_miss, p_false_edge=p_false, p_reroute=0.2, seed=seed,
    )
    assert_matches_reference(generate(config).table)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_em_step_matches_reference_on_random_tables(seed):
    # One EM step from a drawn start. Whole fits are compared on counted
    # tables above: on arbitrary tables a path may pass a rate clamped at
    # 1e-12 and leave it again, which multiplies ulp differences along it.
    rng = np.random.default_rng(seed)
    table = random_table(rng)
    start = ModelParams(
        alpha=rng.uniform(0.01, 0.99, size=table.n_collectors),
        beta=rng.uniform(0.01, 0.99, size=table.n_collectors),
        rho=float(rng.uniform(0.01, 0.99)),
    )
    assert_matches_reference(table, start, max_iters=2)


@pytest.mark.parametrize(
    "options, message",
    [
        ({"max_iters": 0}, "max_iters"),
        ({"max_iters": -2}, "max_iters"),
        ({"tol": float("nan")}, "tol"),
        ({"tol": float("inf")}, "tol"),
        ({"tol": -1e-3}, "tol"),
    ],
)
def test_em_rejects_bad_iteration_options(micro_counted, options, message):
    _, _, table = micro_counted
    with pytest.raises(InferenceError, match=message):
        em_fit(table, **options)


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
