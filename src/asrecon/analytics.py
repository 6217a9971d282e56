"""Uncertainty diagnostics for a fitted model.

Entropy is the working currency here: per-pair posterior entropy, its
normalized aggregate over all pairs (1 = the data taught us nothing, 0 =
full certainty), per-AS entropy for spotting under-measured corners of the
network, and groupwise rankings. A posterior predictive check and the
connectivity statistics round out the model-criticism toolkit.

Logs are natural throughout; entropies are in nats.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .counting import ClassTable, PairStore, project_classes
from .inference import DEFAULT_MAX_ITERS, DEFAULT_TOL, FittedModel, em_fit
from .ingest import AsRegistry

logger = logging.getLogger(__name__)

UNMAPPED = "unmapped"

PPC_BINS = 64
PPC_BIN_WIDTH = 5

POWER_ITER_TOL = 1e-9
POWER_ITER_MAX = 1000


@dataclass(frozen=True)
class Histogram:
    """Fixed-bin histogram; edges has one more entry than counts."""

    edges: np.ndarray
    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def modal_bin(self) -> int:
        return int(np.argmax(self.counts))

    def bin_containing(self, value: float) -> int:
        idx = int(np.searchsorted(self.edges, value, side="right")) - 1
        return min(max(idx, 0), len(self.counts) - 1)


def _entr(x: np.ndarray) -> np.ndarray:
    """-x log x elementwise, with 0 at x = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -x * np.log(x)
    return np.where(x == 0.0, 0.0, h)


def edge_entropy(q) -> np.ndarray | float:
    """Binary entropy of an edge posterior, in nats; 0 log 0 reads as 0."""
    arr = np.asarray(q, dtype=np.float64)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("edge probabilities must lie in [0, 1]")
    h = _entr(arr) + _entr(1.0 - arr)
    return float(h) if np.isscalar(q) or arr.ndim == 0 else h


def normalized_entropy(model: FittedModel, table: ClassTable) -> float:
    """Total posterior entropy relative to an all-prior network.

    1 when the observations carried no information, 0 at full certainty.
    """
    prior_h = edge_entropy(model.rho)
    if prior_h == 0.0:
        raise ValueError("prior entropy is zero; normalization undefined")
    weights = table.multiplicity.astype(np.float64)
    total = float(np.sum(weights * edge_entropy(model.class_posteriors)))
    return total / (float(table.total_pairs) * prior_h)


def node_entropy(model: FittedModel, store: PairStore) -> np.ndarray:
    """Summed posterior entropy over each node's pairs, observed or not.

    Pairs without observations sit at the prior, so a node with no data at
    all scores (N - 1) times the prior entropy.
    """
    n = store.n_nodes
    h_prior = edge_entropy(model.rho)
    out = np.full(n, float(n - 1) * h_prior, dtype=np.float64)
    if store.n_pairs == 0:
        return out
    i, j = store.pairs_ij()
    h = edge_entropy(model.class_posteriors)[store.class_index]
    np.add.at(out, i, h - h_prior)
    np.add.at(out, j, h - h_prior)
    return out


@dataclass
class GroupMap:
    """Node id -> group label (e.g. registered nation); sentinel when unknown."""

    labels: list[str]
    sentinel: str = UNMAPPED
    n_ignored: int = 0

    @property
    def n_mapped(self) -> int:
        return sum(1 for label in self.labels if label != self.sentinel)


def load_group_map(path: str | Path, registry: AsRegistry, sentinel: str = UNMAPPED) -> GroupMap:
    """Read `as_number<TAB>group_label` lines; ASes unknown to the registry are skipped."""
    labels = [sentinel] * registry.n_nodes
    ignored = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = stripped.split("\t")
            if len(fields) != 2:
                raise ValueError(f"group map line needs 2 tab-separated fields: {stripped!r}")
            asn = int(fields[0])
            if asn in registry:
                labels[registry.id_of(asn)] = fields[1]
            else:
                ignored += 1
    return GroupMap(labels=labels, sentinel=sentinel, n_ignored=ignored)


@dataclass(frozen=True)
class GroupEntropy:
    label: str
    mean_entropy: float
    n_nodes: int


def group_entropy(
    per_node_entropy: np.ndarray, groups: GroupMap, min_group_size: int = 50
) -> list[GroupEntropy]:
    """Mean node entropy per group, largest first; small groups are filtered out."""
    if min_group_size < 1:
        raise ValueError("min_group_size must be at least 1")
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for node, label in enumerate(groups.labels):
        sums[label] = sums.get(label, 0.0) + float(per_node_entropy[node])
        counts[label] = counts.get(label, 0) + 1
    ranked = [
        GroupEntropy(label=label, mean_entropy=sums[label] / counts[label], n_nodes=counts[label])
        for label in sums
        if counts[label] >= min_group_size
    ]
    ranked.sort(key=lambda g: (-g.mean_entropy, g.label))
    if not ranked:
        logger.warning("no group reaches min_group_size=%d; empty entropy ranking", min_group_size)
    return ranked


@dataclass(frozen=True)
class PpcResult:
    """Observed-minus-synthetic positive-count differences over stored pairs."""

    histogram: Histogram
    n_pairs: int
    replicates: int


def posterior_predictive_check(
    model: FittedModel, store: PairStore, seed: int, replicates: int = 1
) -> PpcResult:
    """Regenerate the observations from the fitted model and diff the positives.

    For each stored pair, edge existence is drawn from its posterior and each
    collector's positive count is redrawn binomially over the pair's actual
    observation opportunities (E + F). Routing itself is not re-simulated:
    opportunities are fixed by path structure the model does not generate.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be at least 1, got {replicates}")
    rng = np.random.default_rng(seed)
    t, ci = store.table, store.class_index
    opportunities = (t.pos_counts + t.neg_counts)[ci]
    observed_totals = t.pos_counts.sum(axis=1)[ci]
    q = model.class_posteriors[ci]

    lo = -(PPC_BINS // 2) * PPC_BIN_WIDTH
    edges = np.arange(lo, lo + (PPC_BINS + 1) * PPC_BIN_WIDTH, PPC_BIN_WIDTH)
    counts = np.zeros(PPC_BINS, dtype=np.int64)
    for _ in range(replicates):
        exists = rng.random(store.n_pairs) < q
        rates = np.where(exists[:, None], model.params.alpha[None, :], model.params.beta[None, :])
        synthetic = rng.binomial(opportunities, rates)
        diff = observed_totals - synthetic.sum(axis=1)
        clipped = np.clip(diff, edges[0], edges[-1] - 1)
        counts += np.histogram(clipped, bins=edges)[0]
    return PpcResult(
        histogram=Histogram(edges=edges, counts=counts),
        n_pairs=store.n_pairs,
        replicates=replicates,
    )


@dataclass(frozen=True)
class AblationResult:
    """Normalized entropy after refitting on growing collector prefixes."""

    orderings: np.ndarray
    h_norm: np.ndarray
    mean: np.ndarray
    std: np.ndarray


def collector_ablation(
    table: ClassTable,
    n_orderings: int = 10,
    seed: int = 0,
    orderings: Sequence[Sequence[int]] | None = None,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> AblationResult:
    """Refit on the first k collectors of shuffled orderings, for every k.

    Quantifies how much each additional collector sharpens the inference;
    reported as mean and standard deviation over the orderings. Each prefix
    table is projected from the next longer one, which gives the same table
    as projecting the full table, from fewer classes.
    """
    m = table.n_collectors
    if orderings is None:
        if n_orderings < 1:
            raise ValueError("n_orderings must be at least 1")
        rng = np.random.default_rng(seed)
        perms = np.stack([rng.permutation(m) for _ in range(n_orderings)])
    else:
        perms = np.asarray([list(o) for o in orderings], dtype=np.int64)
        if perms.shape[0] == 0:
            raise ValueError("orderings must hold at least one ordering")
        if perms.ndim != 2 or perms.shape[1] != m:
            raise ValueError(f"orderings must each list all {m} collectors")

    def _curve(perm: np.ndarray) -> np.ndarray:
        values = np.empty(m, dtype=np.float64)
        sub = project_classes(table, perm.tolist())
        for k in range(m, 0, -1):
            model = em_fit(sub, tol=tol, max_iters=max_iters)
            values[k - 1] = normalized_entropy(model, sub)
            if k > 1:
                sub = project_classes(sub, range(k - 1))
        return values

    h_norm = np.stack([_curve(p) for p in perms])
    return AblationResult(
        orderings=perms,
        h_norm=h_norm,
        mean=h_norm.mean(axis=0),
        std=h_norm.std(axis=0),
    )


@dataclass(frozen=True)
class ConnectivityStats:
    """Degree and eigenvector centrality on the union of positive observations."""

    degree: np.ndarray
    centrality: np.ndarray
    component: np.ndarray
    iterations: int
    converged: bool


def connectivity_stats(store: PairStore) -> ConnectivityStats:
    """Per-node degree plus power-iteration eigenvector centrality.

    The centrality is computed on the largest connected component of the
    positive-observation union graph, L2-normalized and non-negative; other
    nodes score 0. The iteration uses the identity-shifted adjacency, which
    has the same leading eigenvector but also converges on bipartite
    components.
    """
    # Imported here so that the CLI stages, which never call this, skip
    # loading scipy.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n = store.n_nodes
    positive = store.table.pos_counts.any(axis=1)[store.class_index]
    i, j = store.pairs_ij()
    i, j = i[positive], j[positive]

    degree = np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
    if i.size == 0:
        return ConnectivityStats(
            degree=degree,
            centrality=np.zeros(n),
            component=np.empty(0, dtype=np.int64),
            iterations=0,
            converged=True,
        )

    data = np.ones(2 * i.size, dtype=np.float64)
    adjacency = csr_matrix(
        (data, (np.concatenate([i, j]), np.concatenate([j, i]))), shape=(n, n)
    )
    n_comp, labels = connected_components(adjacency, directed=False)
    sizes = np.bincount(labels, minlength=n_comp)
    members = np.flatnonzero(labels == int(np.argmax(sizes)))
    sub = adjacency[members][:, members]

    x = np.full(members.size, 1.0 / np.sqrt(members.size))
    iterations = 0
    converged = False
    for iterations in range(1, POWER_ITER_MAX + 1):
        y = sub @ x + x
        y /= np.linalg.norm(y)
        if np.linalg.norm(y - x) < POWER_ITER_TOL:
            x = y
            converged = True
            break
        x = y
    if not converged:
        logger.warning("eigenvector centrality did not converge in %d iterations", iterations)

    centrality = np.zeros(n)
    centrality[members] = x
    return ConnectivityStats(
        degree=degree,
        centrality=centrality,
        component=members,
        iterations=iterations,
        converged=converged,
    )


@dataclass(frozen=True)
class PosteriorReport:
    """Distribution of edge posteriors over all pairs, zero class included."""

    histogram: Histogram
    frac_below: float
    frac_mid: float
    frac_above: float
    low_cut: float = 0.1
    high_cut: float = 0.9


def posterior_report(model: FittedModel, table: ClassTable, bins: int = 100) -> PosteriorReport:
    """Multiplicity-weighted histogram of Q over [0, 1] plus coarse fractions."""
    edges = np.linspace(0.0, 1.0, bins + 1)
    weights = table.multiplicity.astype(np.float64)
    counts = np.histogram(model.class_posteriors, bins=edges, weights=weights)[0]
    total = float(table.total_pairs)
    q = model.class_posteriors
    below = float(weights[q < 0.1].sum()) / total
    above = float(weights[q > 0.9].sum()) / total
    return PosteriorReport(
        histogram=Histogram(edges=edges, counts=counts.astype(np.int64)),
        frac_below=below,
        frac_mid=max(0.0, 1.0 - below - above),
        frac_above=above,
    )
