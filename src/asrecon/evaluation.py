"""Scoring candidate topologies against the fitted edge posteriors.

A reconstruction is any concrete edge set (ours via thresholding, or an
external method's output). It is scored by the log-probability its adjacency
structure receives under the independent-edge posterior, plus precision
(how much posterior mass the included edges carry on average) and recall
(how much of the total posterior edge mass the set captures).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .counting import ClassTable, PairStore
from .inference import CLAMP_EPS, FittedModel
from .ingest import AsRegistry


class EvaluationError(ValueError):
    pass


@dataclass
class Reconstruction:
    """A proposed edge set over node ids; rows are (i, j) with i < j, deduplicated."""

    label: str
    edges: np.ndarray
    unmatched: int = 0

    @property
    def n_edges(self) -> int:
        return int(self.edges.shape[0])


def make_reconstruction(
    pairs: Sequence[tuple[int, int]] | np.ndarray, label: str, unmatched: int = 0
) -> Reconstruction:
    """Normalize arbitrary (i, j) pairs into a canonical reconstruction."""
    arr = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs, dtype=np.int64)
    if arr.size == 0:
        arr = np.empty((0, 2), dtype=np.int64)
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    keep = lo != hi
    rows = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
    return Reconstruction(label=label, edges=rows, unmatched=unmatched)


def load_reconstruction(
    path: str | Path, registry: AsRegistry, label: str | None = None
) -> Reconstruction:
    """Read an edge list of `as1 as2` lines; `as1|as2|...` serializations also work.

    Edges naming ASes unknown to the registry cannot be scored (the model has
    no posterior for unknown nodes); they are skipped and counted instead of
    being silently treated as non-edges.
    """
    pairs: list[tuple[int, int]] = []
    unmatched = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = stripped.split("|") if "|" in stripped else stripped.split()
            if len(fields) < 2:
                raise EvaluationError(f"{path}:{lineno}: expected two AS numbers")
            try:
                a, b = int(fields[0]), int(fields[1])
            except ValueError:
                raise EvaluationError(f"{path}:{lineno}: non-numeric AS number") from None
            if a in registry and b in registry:
                pairs.append((registry.id_of(a), registry.id_of(b)))
            else:
                unmatched += 1
    return make_reconstruction(pairs, label or Path(path).stem, unmatched=unmatched)


def write_reconstruction(
    rec: Reconstruction, registry: AsRegistry, path: str | Path, header: Sequence[str] = ()
) -> None:
    """Write `as1 as2` lines, sorted numerically."""
    rows = sorted(
        (min(registry.as_of(i), registry.as_of(j)), max(registry.as_of(i), registry.as_of(j)))
        for i, j in rec.edges
    )
    with open(path, "w", encoding="utf-8") as fh:
        for line in header:
            fh.write(line.rstrip("\n") + "\n")
        for a, b in rows:
            fh.write(f"{a} {b}\n")


@dataclass(frozen=True)
class ReconstructionScore:
    label: str
    log_q: float
    precision: float
    recall: float
    edges_scored: int
    edges_unmatched: int
    n_clamped: int


def _clamped_logs(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    clamped = np.clip(q, CLAMP_EPS, 1.0 - CLAMP_EPS)
    fired = (q < CLAMP_EPS) | (q > 1.0 - CLAMP_EPS)
    return np.log(clamped), np.log1p(-clamped), fired


def log_q_no_edges(model: FittedModel, table: ClassTable) -> float:
    """Log-probability of the empty topology: every pair scored as a non-edge.

    The zero class enters in closed form as multiplicity times log(1 - rho).
    """
    _, log_not, _ = _clamped_logs(model.class_posteriors)
    return float(np.sum(table.multiplicity.astype(np.float64) * log_not))


def _edge_posteriors(rec: Reconstruction, model: FittedModel, store: PairStore) -> np.ndarray:
    ids = rec.edges[:, 0] * store.n_nodes + rec.edges[:, 1]
    pos = np.searchsorted(store.pair_ids, ids)
    pos = np.minimum(pos, max(store.n_pairs - 1, 0))
    found = store.n_pairs > 0
    hit = (store.pair_ids[pos] == ids) if found else np.zeros(ids.size, dtype=bool)
    q = np.full(ids.size, model.rho)
    if found:
        q[hit] = model.class_posteriors[store.class_index[pos[hit]]]
    return q


def score_reconstruction(
    rec: Reconstruction, model: FittedModel, store: PairStore
) -> ReconstructionScore:
    """Score an edge set by posterior log-probability, precision, and recall.

    Posteriors of exactly 0 or 1 are clamped before the log so that imperfect
    reconstructions still receive a finite (if dismal) score; the number of
    clamp events is reported.
    """
    if rec.n_edges == 0:
        raise EvaluationError(
            f"reconstruction {rec.label!r} has no scorable edges; precision undefined"
        )
    table = store.table
    q_edges = _edge_posteriors(rec, model, store)
    log_q_edge, log_not_edge, fired_edges = _clamped_logs(q_edges)

    _, log_not_classes, fired_classes = _clamped_logs(model.class_posteriors)
    base = float(np.sum(table.multiplicity.astype(np.float64) * log_not_classes))
    log_q = base + float(np.sum(log_q_edge - log_not_edge))

    q_total = float(np.sum(table.multiplicity.astype(np.float64) * model.class_posteriors))
    q_included = float(q_edges.sum())
    return ReconstructionScore(
        label=rec.label,
        log_q=log_q,
        precision=q_included / rec.n_edges,
        recall=q_included / q_total,
        edges_scored=rec.n_edges,
        edges_unmatched=rec.unmatched,
        n_clamped=int(fired_edges.sum()) + int(fired_classes.sum()),
    )


def threshold_reconstruction(
    model: FittedModel, store: PairStore, tau: float, label: str | None = None
) -> Reconstruction:
    """All pairs whose edge posterior exceeds tau.

    Unobserved pairs sit at the prior, so they are all included exactly when
    rho > tau; that degenerate regime is only enumerable for small graphs.
    """
    if not 0.0 < tau < 1.0:
        raise EvaluationError(f"tau must lie in (0, 1), got {tau}")
    q = model.class_posteriors[store.class_index]
    keep = q > tau
    i, j = store.pairs_ij()
    rows = [np.stack([i[keep], j[keep]], axis=1)]

    if model.rho > tau:
        n = store.n_nodes
        if n > 20_000:
            raise EvaluationError(
                f"rho={model.rho:.3g} > tau includes all {n * (n - 1) // 2} unobserved pairs; "
                "refusing to enumerate them for this graph size"
            )
        ii, jj = np.triu_indices(n, k=1)
        all_ids = ii * n + jj
        unobserved = ~np.isin(all_ids, store.pair_ids)
        rows.append(np.stack([ii[unobserved], jj[unobserved]], axis=1))

    edges = np.unique(np.vstack(rows), axis=0) if rows else np.empty((0, 2), dtype=np.int64)
    return Reconstruction(label=label or f"tau={tau:g}", edges=edges.astype(np.int64))


def naive_reconstruction(store: PairStore, label: str = "naive") -> Reconstruction:
    """Union of all positive observations: any pair some collector ever saw as an edge."""
    positive = store.table.pos_counts.any(axis=1)[store.class_index]
    i, j = store.pairs_ij()
    return make_reconstruction(np.stack([i[positive], j[positive]], axis=1), label)
