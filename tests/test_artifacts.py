"""Round trips for the files that connect pipeline stages."""

from __future__ import annotations

import numpy as np
import pytest

from asrecon import em_fit
from asrecon.artifacts import (
    ArtifactError,
    header_lines,
    read_classes,
    read_labels,
    read_model,
    read_pairs,
    read_registry,
    read_class_posteriors,
    read_histogram,
    write_classes,
    write_class_posteriors,
    write_histogram,
    write_labels,
    write_model,
    write_pairs,
    write_registry,
)
from asrecon.analytics import Histogram
from asrecon.counting import CountingError


def test_registry_round_trip(tmp_path, micro_corpus):
    path = tmp_path / "registry.txt"
    write_registry(micro_corpus.registry, path, header_lines("registry"))
    back = read_registry(path)
    assert back.id_to_as_number == micro_corpus.registry.id_to_as_number


def test_labels_round_trip(tmp_path, micro_corpus):
    path = tmp_path / "collectors.txt"
    write_labels(micro_corpus.collector_labels, path)
    assert read_labels(path) == ["r1", "r2"]


def test_classes_round_trip(tmp_path, micro_counted):
    _, _, table = micro_counted
    path = tmp_path / "classes.txt"
    write_classes(table, path, header_lines("classes", config={"x": 1}))
    back = read_classes(path)
    assert np.array_equal(back.vectors, table.vectors)
    assert np.array_equal(back.multiplicity, table.multiplicity)
    assert back.total_pairs == table.total_pairs
    assert back.zero_class_index == table.zero_class_index
    assert (back.n_collectors, back.n_periods, back.n_nodes) == (2, 2, 8)


def test_pairs_round_trip(tmp_path, micro_counted):
    corpus, store, table = micro_counted
    path = tmp_path / "pairs.txt"
    write_pairs(store, corpus.registry, path)
    back = read_pairs(path, corpus.registry, table)
    assert np.array_equal(back.pair_ids, store.pair_ids)
    assert np.array_equal(back.vectors, store.vectors)
    assert np.array_equal(back.class_index, store.class_index)


def test_model_round_trip(tmp_path, micro_counted):
    _, _, table = micro_counted
    model = em_fit(table)
    model_path = tmp_path / "model.txt"
    q_path = tmp_path / "class_q.txt"
    write_model(model, table, model_path)
    write_class_posteriors(model.class_posteriors, q_path)

    back = read_model(model_path, read_class_posteriors(q_path))
    assert np.array_equal(back.params.alpha, model.params.alpha)
    assert np.array_equal(back.params.beta, model.params.beta)
    assert back.params.rho == model.params.rho
    assert back.log_density == pytest.approx(model.log_density, rel=1e-15)
    assert back.iterations == model.iterations
    assert back.converged == model.converged
    assert np.array_equal(back.class_posteriors, model.class_posteriors)


def test_histogram_round_trip(tmp_path):
    hist = Histogram(edges=np.array([-10.0, -5.0, 0.0, 5.0]), counts=np.array([1, 2, 3]))
    path = tmp_path / "hist.txt"
    write_histogram(hist, path)
    back = read_histogram(path)
    assert np.allclose(back.edges, hist.edges)
    assert np.array_equal(back.counts, hist.counts)


def test_headers_have_no_timestamps(tmp_path, micro_counted):
    _, _, table = micro_counted
    path = tmp_path / "classes.txt"
    write_classes(table, path, header_lines("classes", config={"a": 1}, inputs={"in": "ab" * 32}))
    text = path.read_text()
    head = [line for line in text.splitlines() if line.startswith("#")]
    assert any("artifact=classes" in line for line in head)
    assert any(line.startswith("# config sha256:") for line in head)
    assert any(line.startswith("# input in sha256:") for line in head)
    write_classes(table, tmp_path / "again.txt", header_lines("classes", config={"a": 1}, inputs={"in": "ab" * 32}))
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


def test_class_posteriors_need_each_index_once(tmp_path):
    path = tmp_path / "class_q.txt"
    path.write_text("0 0.5\n0 0.25\n2 0.75\n")
    with pytest.raises(ArtifactError, match="each once"):
        read_class_posteriors(path)
    path.write_text("1 0.25\n0 0.5\n")
    assert np.array_equal(read_class_posteriors(path), [0.5, 0.25])


@pytest.mark.parametrize(
    "row",
    [
        "0 -1 0 0 1",  # negative count
        "2 1 0 0 1",  # E + F = 3 > T = 2
    ],
)
def test_classes_reject_impossible_counts(tmp_path, row):
    path = tmp_path / "classes.txt"
    path.write_text(f"# header\n2 2 8 28\n0 0 0 0 27\n{row}\n")
    with pytest.raises(CountingError):
        read_classes(path)


def test_classes_reject_wrong_width(tmp_path):
    path = tmp_path / "classes.txt"
    path.write_text("2 2 8 28\n0 0 0 0 27\n1 0 0 1\n")
    with pytest.raises(ArtifactError, match="classes.txt"):
        read_classes(path)


@pytest.mark.parametrize(
    "line, message",
    [
        ("1 999 1", "AS 999 is not in the registry"),
        ("1 2", "columns"),
        ("1 2 99", "class index"),
        ("3 3 1", "itself"),
        ("2 1 1", "listed twice"),
    ],
)
def test_pairs_reject_bad_rows(tmp_path, micro_counted, line, message):
    corpus, store, table = micro_counted
    path = tmp_path / "pairs.txt"
    write_pairs(store, corpus.registry, path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    with pytest.raises(ArtifactError, match=message):
        read_pairs(path, corpus.registry, table)
