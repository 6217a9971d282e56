"""Readers and writers for the files that connect pipeline stages.

Stages communicate through files, never in-memory handoff, so each stage can
be rerun and tested in isolation. Every artifact starts with comment lines
recording the tool version, a hash of the effective configuration, and
hashes of the input files; there are deliberately no timestamps, so a rerun
with identical inputs produces byte-identical files.
"""

from __future__ import annotations

import hashlib
import warnings
from pathlib import Path
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

from . import __version__
from .analytics import GroupEntropy, Histogram
from .counting import ClassTable, CountingError, PairStore
from .evaluation import ReconstructionScore
from .inference import FittedModel, ModelParams
from .ingest import AsRegistry


class ArtifactError(ValueError):
    pass


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def config_hash(items: Mapping[str, object]) -> str:
    canon = "\n".join(f"{k}={items[k]!r}" for k in sorted(items))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def header_lines(
    artifact: str,
    config: Mapping[str, object] | None = None,
    inputs: Mapping[str, str] | None = None,
) -> list[str]:
    lines = [f"# asrecon {__version__} artifact={artifact}"]
    if config is not None:
        lines.append(f"# config sha256:{config_hash(config)}")
    for name, digest in (inputs or {}).items():
        lines.append(f"# input {name} sha256:{digest}")
    return lines


def _write_header(fh: TextIO, header: Sequence[str]) -> None:
    for line in header:
        fh.write(line.rstrip("\n") + "\n")


def _load_matrix(source, path: str | Path, dtype, n_cols: int, layout: str) -> np.ndarray:
    """The data rows of `source` (a path or an open file) as an (n, n_cols) array."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no data rows is not an error here
            data = np.loadtxt(source, dtype=dtype, comments="#", ndmin=2)
    except (ValueError, OverflowError) as exc:
        raise ArtifactError(f"{path}: expected `{layout}` rows: {exc}") from None
    if data.size == 0:
        return data.reshape(0, n_cols)
    if data.shape[1] != n_cols:
        raise ArtifactError(f"{path}: expected `{layout}` rows, found {data.shape[1]} columns")
    return data


def _data_lines(path: str | Path) -> Iterable[tuple[int, str]]:
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            yield lineno, stripped


# -- counting stage -----------------------------------------------------------


def write_registry(registry: AsRegistry, path: str | Path, header: Sequence[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_header(fh, header)
        for asn in registry.id_to_as_number:
            fh.write(f"{asn}\n")


def read_registry(path: str | Path) -> AsRegistry:
    registry = AsRegistry()
    for lineno, line in _data_lines(path):
        try:
            asn = int(line)
        except ValueError:
            raise ArtifactError(f"{path}:{lineno}: expected an AS number, got {line!r}") from None
        if asn in registry:
            raise ArtifactError(f"{path}:{lineno}: AS {asn} is listed twice")
        registry.intern(asn)
    return registry


def write_labels(labels: Sequence[str], path: str | Path, header: Sequence[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_header(fh, header)
        for label in labels:
            fh.write(f"{label}\n")


def read_labels(path: str | Path) -> list[str]:
    return [line for _, line in _data_lines(path)]


def write_classes(table: ClassTable, path: str | Path, header: Sequence[str] = ()) -> None:
    """Header row `M T N total_pairs`, then one `E1 F1 ... EM FM multiplicity` per class."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_header(fh, header)
        fh.write(f"{table.n_collectors} {table.n_periods} {table.n_nodes} {table.total_pairs}\n")
        fh.write(
            "".join(
                " ".join(map(str, row)) + f" {mult}\n"
                for row, mult in zip(table.vectors.tolist(), table.multiplicity.tolist())
            )
        )


def read_classes(path: str | Path) -> ClassTable:
    with open(path, encoding="utf-8") as fh:
        meta = None
        for line in iter(fh.readline, ""):
            fields = line.split("#", 1)[0].split()
            if fields:
                meta = fields
                break
        if meta is None:
            raise ArtifactError(f"{path}: empty class table")
        if len(meta) != 4:
            raise ArtifactError(f"{path}: expected `M T N total_pairs` header row")
        try:
            m, t, n, total_pairs = (int(x) for x in meta)
        except ValueError as exc:
            raise ArtifactError(f"{path}: bad `M T N total_pairs` header row: {exc}") from None
        rows = _load_matrix(fh, path, np.int64, 2 * m + 1, "E1 F1 ... EM FM multiplicity")
    vectors = np.ascontiguousarray(rows[:, :-1])
    zero_rows = np.flatnonzero(~vectors.any(axis=1))
    if zero_rows.size != 1:
        raise CountingError(f"{path}: class table must contain exactly one all-zero class")
    table = ClassTable(
        vectors=vectors,
        multiplicity=rows[:, -1].copy(),
        n_collectors=m,
        n_periods=t,
        n_nodes=n,
        total_pairs=total_pairs,
        zero_class_index=int(zero_rows[0]),
    )
    table.validate()
    return table


def write_pairs(
    store: PairStore, registry: AsRegistry, path: str | Path, header: Sequence[str] = ()
) -> None:
    """One `as_i as_j class_index` line per observed pair, as_i < as_j."""
    if store.class_index is None:
        raise ArtifactError("pair store has no class assignment; compact it first")
    as_numbers = np.asarray(registry.id_to_as_number, dtype=np.int64)
    i, j = store.pairs_ij()
    as_i, as_j = as_numbers[i], as_numbers[j]
    lo, hi = np.minimum(as_i, as_j), np.maximum(as_i, as_j)
    with open(path, "w", encoding="utf-8") as fh:
        _write_header(fh, header)
        fh.write(
            "".join(
                f"{a} {b} {c}\n"
                for a, b, c in zip(lo.tolist(), hi.tolist(), store.class_index.tolist())
            )
        )


def read_pairs(path: str | Path, registry: AsRegistry, table: ClassTable) -> PairStore:
    rows = _load_matrix(path, path, np.int64, 3, "as_i as_j class_index")
    n = registry.n_nodes
    as_numbers = np.asarray(registry.id_to_as_number, dtype=np.int64)
    by_as = np.argsort(as_numbers)
    sorted_as = as_numbers[by_as]
    ends = rows[:, :2]
    pos = np.searchsorted(sorted_as, ends)
    known = pos < n
    known[known] = sorted_as[pos[known]] == ends[known]
    if not known.all():
        raise ArtifactError(f"{path}: AS {int(ends[~known][0])} is not in the registry")
    ids = by_as[pos]
    class_index = rows[:, 2]
    if class_index.size and (class_index.min() < 0 or class_index.max() >= table.n_classes):
        raise ArtifactError(f"{path}: class index outside 0..{table.n_classes - 1}")
    if np.any(ids[:, 0] == ids[:, 1]):
        raise ArtifactError(f"{path}: a pair joins an AS to itself")
    pair_ids = ids.min(axis=1) * n + ids.max(axis=1)
    order = np.argsort(pair_ids)
    pair_ids = pair_ids[order]
    class_index = class_index[order]
    if np.any(pair_ids[1:] == pair_ids[:-1]):
        raise ArtifactError(f"{path}: a pair is listed twice")
    return PairStore(
        n_nodes=n,
        n_collectors=table.n_collectors,
        n_periods=table.n_periods,
        pair_ids=pair_ids,
        vectors=table.vectors[class_index],
        class_index=class_index,
    )


# -- fitting stage ------------------------------------------------------------


def write_model(
    model: FittedModel, table: ClassTable, path: str | Path, header: Sequence[str] = ()
) -> None:
    """Header row `M T total_pairs iterations log_density`, then rates, then rho."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_header(fh, header)
        fh.write(f"# converged {str(model.converged).lower()}\n")
        fh.write(
            f"{table.n_collectors} {table.n_periods} {table.total_pairs} "
            f"{model.iterations} {model.log_density:.17g}\n"
        )
        for k in range(table.n_collectors):
            fh.write(f"{model.params.alpha[k]:.17g} {model.params.beta[k]:.17g}\n")
        fh.write(f"{model.params.rho:.17g}\n")


def read_model(
    path: str | Path,
    class_posteriors: np.ndarray | None = None,
    table: ClassTable | None = None,
) -> FittedModel:
    """The fitted model; given `table`, it must have been fitted to that table's M, T
    and total_pairs."""
    converged = True
    with open(path, encoding="utf-8") as fh:
        body = []
        for line in fh:
            stripped = line.strip()
            if stripped.startswith("# converged"):
                converged = stripped.split()[-1] == "true"
            if not stripped or stripped.startswith("#"):
                continue
            body.append(stripped)
    if not body:
        raise ArtifactError(f"{path}: empty model file")
    meta = body[0].split()
    if len(meta) != 5:
        raise ArtifactError(f"{path}: expected `M T total_pairs iterations log_density`")
    m = int(meta[0])
    if table is not None:
        fitted = (m, int(meta[1]), int(meta[2]))
        counted = (table.n_collectors, table.n_periods, table.total_pairs)
        if fitted != counted:
            raise ArtifactError(
                f"{path}: fitted to (M, T, total_pairs) = {fitted}, but the class table "
                f"has {counted}; rerun `asrecon fit`"
            )
    if len(body) != 2 + m:
        raise ArtifactError(f"{path}: expected {m} rate rows plus rho")
    rates = np.array([[float(x) for x in row.split()] for row in body[1 : 1 + m]])
    params = ModelParams(alpha=rates[:, 0], beta=rates[:, 1], rho=float(body[1 + m]))
    return FittedModel(
        params=params,
        class_posteriors=class_posteriors if class_posteriors is not None else np.empty(0),
        log_density=float(meta[4]),
        iterations=int(meta[3]),
        converged=converged,
        history=(),
    )


def write_class_posteriors(q: np.ndarray, path: str | Path, header: Sequence[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_header(fh, header)
        for idx, value in enumerate(q):
            fh.write(f"{idx} {value:.17g}\n")


def read_class_posteriors(path: str | Path) -> np.ndarray:
    """Posteriors by class index; the indices must be exactly 0..n-1, each once."""
    rows = _load_matrix(path, path, np.float64, 2, "class_index Q")
    idx = rows[:, 0]
    if not np.array_equal(np.sort(idx), np.arange(idx.size)):
        raise ArtifactError(f"{path}: class indices are not 0..{idx.size - 1}, each once")
    out = np.empty(idx.size)
    out[idx.astype(np.int64)] = rows[:, 1]
    return out


def load_model(
    model_path: str | Path, posteriors_path: str | Path, table: ClassTable | None = None
) -> FittedModel:
    return read_model(model_path, read_class_posteriors(posteriors_path), table)


# -- reports ------------------------------------------------------------------


def write_histogram(hist: Histogram, path: str | Path, header: Sequence[str] = ()) -> None:
    """One `bin_lower bin_upper count` line per bin."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_header(fh, header)
        for lo, hi, count in zip(hist.edges[:-1], hist.edges[1:], hist.counts):
            fh.write(f"{lo:g} {hi:g} {int(count)}\n")


def read_histogram(path: str | Path) -> Histogram:
    lowers, uppers, counts = [], [], []
    for _, line in _data_lines(path):
        lo, hi, count = line.split()
        lowers.append(float(lo))
        uppers.append(float(hi))
        counts.append(int(count))
    edges = np.array(lowers + [uppers[-1]]) if lowers else np.array([])
    return Histogram(edges=edges, counts=np.array(counts, dtype=np.int64))


def write_node_entropy(
    per_node: np.ndarray, registry: AsRegistry, path: str | Path, header: Sequence[str] = ()
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_header(fh, header)
        for node, value in enumerate(per_node):
            fh.write(f"{registry.as_of(node)} {value:.17g}\n")


def write_group_entropy(
    ranking: Sequence[GroupEntropy], path: str | Path, header: Sequence[str] = ()
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_header(fh, header)
        for entry in ranking:
            fh.write(f"{entry.label}\t{entry.mean_entropy:.17g}\t{entry.n_nodes}\n")


def write_eval_summary(
    scores: Sequence[ReconstructionScore], path: str | Path, header: Sequence[str] = ()
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_header(fh, header)
        for score in scores:
            fh.write(f"# clamps {score.label} {score.n_clamped}\n")
        fh.write("label\tlog_q\tprecision\trecall\tedges_scored\tedges_unmatched\n")
        for s in scores:
            fh.write(
                f"{s.label}\t{s.log_q:.17g}\t{s.precision:.17g}\t{s.recall:.17g}\t"
                f"{s.edges_scored}\t{s.edges_unmatched}\n"
            )


def write_ablation(
    orderings: np.ndarray,
    h_norm: np.ndarray,
    mean: np.ndarray,
    std: np.ndarray,
    curves_path: str | Path,
    summary_path: str | Path,
    header: Sequence[str] = (),
) -> None:
    with open(curves_path, "w", encoding="utf-8") as fh:
        _write_header(fh, header)
        fh.write("ordering\tprefix\th_norm\tcollectors\n")
        for r in range(h_norm.shape[0]):
            for k in range(h_norm.shape[1]):
                prefix = ",".join(str(int(c)) for c in orderings[r, : k + 1])
                fh.write(f"{r}\t{k + 1}\t{h_norm[r, k]:.17g}\t{prefix}\n")
    with open(summary_path, "w", encoding="utf-8") as fh:
        _write_header(fh, header)
        fh.write("prefix\tmean_h_norm\tstd_h_norm\n")
        for k in range(mean.size):
            fh.write(f"{k + 1}\t{mean[k]:.17g}\t{std[k]:.17g}\n")
