"""Model fitting: per-collector error rates, edge prior, and edge posteriors.

Each collector k is an independent observation mode with a true positive
rate alpha_k and a false positive rate beta_k; every pair is an edge a
priori with probability rho. Conditioned on edge existence, a pair's counts
(E, F) are reproduced with probability

    prod_k alpha_k**E_k * (1 - alpha_k)**F_k    (edge exists)
    prod_k beta_k**E_k  * (1 - beta_k)**F_k     (edge absent)

All likelihood work happens in log space on observation classes; the only
exponentiations are inside logaddexp/expit, which keeps the posterior finite
for arbitrarily extreme count vectors.

Parameters are point estimates found by EM on the class-weighted marginal
log-density. The M-step maximizers are not exotic: responsibilities Q per
class, then

    rho     <- sum_C m_C Q_C / total_pairs
    alpha_k <- sum_C m_C Q_C E_Ck / sum_C m_C Q_C (E_Ck + F_Ck)
    beta_k  <- sum_C m_C (1-Q_C) E_Ck / sum_C m_C (1-Q_C) (E_Ck + F_Ck)

The fit asserts the EM ascent property on every iteration, which certifies
the derivation at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counting import ClassTable

CLAMP_EPS = 1e-12
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 500
ASCENT_SLACK = 1e-9


class InferenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class ModelParams:
    """Per-collector observation rates and the edge prior."""

    alpha: np.ndarray
    beta: np.ndarray
    rho: float

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=np.float64)
        beta = np.asarray(self.beta, dtype=np.float64)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        if alpha.shape != beta.shape or alpha.ndim != 1:
            raise InferenceError(
                f"alpha/beta must be 1-d and aligned, got {alpha.shape} vs {beta.shape}"
            )
        for name, value in (("alpha", alpha), ("beta", beta), ("rho", np.array([self.rho]))):
            if np.any(value <= 0.0) or np.any(value >= 1.0):
                raise InferenceError(f"{name} must lie strictly inside (0, 1)")

    @property
    def n_collectors(self) -> int:
        return int(self.alpha.size)

    def clamped(self, eps: float = CLAMP_EPS) -> "ModelParams":
        return ModelParams(
            alpha=np.clip(self.alpha, eps, 1.0 - eps),
            beta=np.clip(self.beta, eps, 1.0 - eps),
            rho=float(np.clip(self.rho, eps, 1.0 - eps)),
        )

    def swapped(self) -> "ModelParams":
        """Relabeled mirror solution: alpha and beta exchanged, rho reflected."""
        return ModelParams(alpha=self.beta.copy(), beta=self.alpha.copy(), rho=1.0 - self.rho)


@dataclass(frozen=True)
class FittedModel:
    """EM point estimate plus per-class edge posteriors and fit metadata."""

    params: ModelParams
    class_posteriors: np.ndarray
    log_density: float
    iterations: int
    converged: bool
    history: tuple[float, ...]
    retained_alpha: frozenset[int] = frozenset()
    retained_beta: frozenset[int] = frozenset()
    relabeled: bool = False

    @property
    def rho(self) -> float:
        return self.params.rho


def _expit(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid 1 / (1 + exp(-x)); exp(-x) overflowing to inf gives exactly 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _as_matrix(vectors: np.ndarray) -> tuple[np.ndarray, bool]:
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim == 1:
        return arr[None, :], True
    return arr, False


def _log_likelihoods(x: np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(L_alpha, L_beta) of float count rows laid out E_0, F_0, E_1, F_1, ...

    Both columns come from one matrix product with the log rates interleaved
    the same way.
    """
    rates = np.stack([params.alpha, params.beta], axis=1)
    log_rates = np.empty((2 * params.n_collectors, 2))
    log_rates[0::2] = np.log(rates)
    log_rates[1::2] = np.log1p(-rates)
    joint = x @ log_rates
    return np.log(params.rho) + joint[:, 0], np.log1p(-params.rho) + joint[:, 1]


def class_log_likelihoods(
    vectors: np.ndarray, params: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Joint log-likelihoods (edge, non-edge) of observation vectors.

    Returns (L_alpha, L_beta) where L_alpha = log rho + sum_k E_k log alpha_k
    + F_k log(1 - alpha_k), and L_beta is the same with beta and 1 - rho.
    """
    arr, single = _as_matrix(vectors)
    if arr.shape[1] != 2 * params.n_collectors:
        raise InferenceError(
            f"vector width {arr.shape[1]} does not match {params.n_collectors} collectors"
        )
    l_alpha, l_beta = _log_likelihoods(arr, params)
    if single:
        return l_alpha[0], l_beta[0]
    return l_alpha, l_beta


def posterior_edge_prob(vectors: np.ndarray, params: ModelParams) -> np.ndarray | float:
    """Posterior probability that an edge exists, given its observation vector.

    Evaluated as a sigmoid of the log-likelihood gap, which is algebraically
    the Bayes ratio of the two data likelihoods but immune to underflow.
    Vectors with no observations at all get the prior exactly.
    """
    arr, single = _as_matrix(vectors)
    l_alpha, l_beta = class_log_likelihoods(arr, params)
    q = _expit(l_alpha - l_beta)
    q[~arr.any(axis=1)] = params.rho
    return float(q[0]) if single else q


def log_density(table: ClassTable, params: ModelParams) -> float:
    """Class-weighted marginal log-density of the parameters given the data."""
    l_alpha, l_beta = class_log_likelihoods(table.vectors, params)
    terms = table.multiplicity.astype(np.float64) * np.logaddexp(l_alpha, l_beta)
    return float(np.sum(terms))


def naive_graph_density(table: ClassTable) -> float:
    """Fraction of pairs with at least one positive observation."""
    positive = table.pos_counts.any(axis=1)
    return float(table.multiplicity[positive].sum()) / float(table.total_pairs)


def default_init(table: ClassTable) -> ModelParams:
    """Start in the basin where collectors are mostly honest.

    A high alpha / low beta start avoids the mirrored labeling in which
    collectors report mostly opposites of the truth.
    """
    m = table.n_collectors
    rho = max(1e-6, naive_graph_density(table))
    return ModelParams(alpha=np.full(m, 0.9), beta=np.full(m, 0.01), rho=rho).clamped()


def em_fit(
    table: ClassTable,
    init: ModelParams | None = None,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> FittedModel:
    """Fit rates and prior by EM; converged when the relative log-density change < tol.

    Raises InferenceError if the log-density ever decreases beyond numerical
    slack (the ascent property certifies the M-step) or becomes non-finite,
    and for a max_iters below 1 or a tol that is negative or not finite.
    """
    if max_iters < 1:
        raise InferenceError(f"max_iters must be at least 1, got {max_iters}")
    if not (np.isfinite(tol) and tol >= 0.0):
        raise InferenceError(f"tol must be finite and non-negative, got {tol!r}")
    params = (init or default_init(table)).clamped()
    if params.n_collectors != table.n_collectors:
        raise InferenceError(
            f"init has {params.n_collectors} collectors, table has {table.n_collectors}"
        )

    # Convert the table once; each E-step and M-step is then one matrix product.
    m = table.multiplicity.astype(np.float64)
    x = table.vectors.astype(np.float64)
    # [E | E+F]: weighted by the rows m*q and m*(1-q) it sums to
    # [num_a | den_a] and [num_b | den_b].
    pos_opp = np.concatenate([x[:, 0::2], x[:, 0::2] + x[:, 1::2]], axis=1)
    total_pairs = float(table.total_pairs)
    has_zero_class = not table.vectors[table.zero_class_index].any()

    history: list[float] = []
    retained_alpha: set[int] = set()
    retained_beta: set[int] = set()
    converged = False
    q = np.empty(0)
    prev_ld = None

    iterations = 0
    for iterations in range(1, max_iters + 1):
        l_alpha, l_beta = _log_likelihoods(x, params)
        ld = float(np.sum(m * np.logaddexp(l_alpha, l_beta)))
        if not np.isfinite(ld):
            raise InferenceError(
                f"log-density became non-finite at iteration {iterations}: "
                f"rho={params.rho!r} alpha={params.alpha!r} beta={params.beta!r}"
            )
        if prev_ld is not None and ld < prev_ld - ASCENT_SLACK:
            raise InferenceError(
                f"log-density decreased at iteration {iterations}: {prev_ld!r} -> {ld!r}"
            )
        history.append(ld)

        q = _expit(l_alpha - l_beta)
        if has_zero_class:
            q[table.zero_class_index] = params.rho  # exact: no data returns the prior

        if prev_ld is not None and abs(ld - prev_ld) / max(abs(ld), CLAMP_EPS) < tol:
            converged = True
            break
        prev_ld = ld
        if iterations == max_iters:
            break  # keep params, posteriors, and log_density mutually consistent

        weights = np.stack([m * q, m * (1.0 - q)])
        rho = float(np.sum(weights[0])) / total_pairs
        (num_a, den_a), (num_b, den_b) = (weights @ pos_opp).reshape(2, 2, table.n_collectors)

        alpha = params.alpha.copy()
        beta = params.beta.copy()
        for k in range(table.n_collectors):
            if den_a[k] > 0.0:
                alpha[k] = num_a[k] / den_a[k]
            else:
                retained_alpha.add(k)
            if den_b[k] > 0.0:
                beta[k] = num_b[k] / den_b[k]
            else:
                retained_beta.add(k)
        params = ModelParams(
            alpha=np.clip(alpha, CLAMP_EPS, 1.0 - CLAMP_EPS),
            beta=np.clip(beta, CLAMP_EPS, 1.0 - CLAMP_EPS),
            rho=float(np.clip(rho, CLAMP_EPS, 1.0 - CLAMP_EPS)),
        )

    relabeled = False
    if params.rho > 0.5:
        # The likelihood is invariant under exchanging the two labelings;
        # keep the sparse branch, which is the physical one.
        params = params.swapped()
        l_alpha, l_beta = _log_likelihoods(x, params)
        q = _expit(l_alpha - l_beta)
        if has_zero_class:
            q[table.zero_class_index] = params.rho
        relabeled = True

    return FittedModel(
        params=params,
        class_posteriors=q,
        log_density=history[-1],
        iterations=iterations,
        converged=converged,
        history=tuple(history),
        retained_alpha=frozenset(retained_alpha),
        retained_beta=frozenset(retained_beta),
        relabeled=relabeled,
    )
