"""Shared fixtures: a hand-checked two-collector micro corpus and helpers."""

from __future__ import annotations

import numpy as np
import pytest

from asrecon import ClassTable, count_corpus, parse_paths_file

# Six ASes (1..6, mnemonics a..f) seen by two collectors whose peer ASes are
# 101 and 102, over two periods. Collector r1 reaches the chain a-b-c-e and
# sees f first behind a, then behind e; r2 sits next to e and also sees d.
MICRO_PATHS = """\
# micro corpus: two collectors, two periods
r1\tt0\t101 1 2 3 5
r1\tt0\t101 1 6
r1\tt1\t101 1 2 3 5
r1\tt1\t101 1 2 3 5 6
r2\tt0\t102 5 4
r2\tt0\t102 5 3 2 1
r2\tt1\t102 5 4
r2\tt1\t102 5 3 2 1
"""

# Hand-derived observation vectors [E1, F1, E2, F2] for every observed pair,
# worked out by unioning each snapshot's edges and walking hop counts from
# the collector's peer AS.
MICRO_EXPECTED = {
    (1, 2): (2, 0, 2, 0),
    (2, 3): (2, 0, 2, 0),
    (3, 5): (2, 0, 2, 0),
    (101, 1): (2, 0, 0, 0),
    (1, 6): (1, 1, 0, 0),
    (5, 6): (1, 1, 0, 0),
    (102, 5): (0, 0, 2, 0),
    (4, 5): (0, 0, 2, 0),
    (1, 3): (0, 2, 0, 2),
    (1, 5): (0, 2, 0, 2),
    (2, 5): (0, 2, 0, 2),
    (101, 2): (0, 2, 0, 0),
    (101, 3): (0, 2, 0, 0),
    (101, 5): (0, 2, 0, 0),
    (101, 6): (0, 2, 0, 0),
    (2, 6): (0, 1, 0, 0),
    (3, 6): (0, 1, 0, 0),
    (102, 1): (0, 0, 0, 2),
    (102, 2): (0, 0, 0, 2),
    (102, 3): (0, 0, 0, 2),
    (102, 4): (0, 0, 0, 2),
    (1, 4): (0, 0, 0, 2),
}

# Pairs with no observation at all (8 ASes -> 28 pairs, 22 observed above).
MICRO_UNOBSERVED = {(2, 4), (3, 4), (4, 6), (4, 101), (6, 102), (101, 102)}


@pytest.fixture(scope="session")
def micro_corpus():
    return parse_paths_file(MICRO_PATHS, source="<micro>")


@pytest.fixture(scope="session")
def micro_counted(micro_corpus):
    store, table = count_corpus(micro_corpus)
    return micro_corpus, store, table


def build_table(vectors, multiplicity, n_periods, n_nodes, total_pairs=None) -> ClassTable:
    """Assemble a class table directly; prepends the zero class if missing."""
    vectors = np.asarray(vectors, dtype=np.int64)
    multiplicity = np.asarray(multiplicity, dtype=np.int64)
    n_collectors = vectors.shape[1] // 2
    if total_pairs is None:
        total_pairs = n_nodes * (n_nodes - 1) // 2
    if not np.any(~vectors.any(axis=1)):
        zero = np.zeros((1, vectors.shape[1]), dtype=np.int64)
        vectors = np.vstack([zero, vectors])
        multiplicity = np.concatenate(
            [np.array([total_pairs - multiplicity.sum()], dtype=np.int64), multiplicity]
        )
    table = ClassTable(
        vectors=vectors,
        multiplicity=multiplicity,
        n_collectors=n_collectors,
        n_periods=n_periods,
        n_nodes=n_nodes,
        total_pairs=total_pairs,
        zero_class_index=int(np.flatnonzero(~vectors.any(axis=1))[0]),
    )
    table.validate()
    return table


def random_table(
    rng: np.random.Generator, max_collectors: int = 5, max_periods: int = 6
) -> ClassTable:
    """A valid class table of random counts: E + F <= T for every collector."""
    n_collectors = int(rng.integers(1, max_collectors + 1))
    n_periods = int(rng.integers(1, max_periods + 1))
    pos = rng.integers(0, n_periods + 1, size=(int(rng.integers(1, 40)), n_collectors))
    neg = rng.integers(0, n_periods - pos + 1)
    vectors = np.empty((pos.shape[0], 2 * n_collectors), dtype=np.int64)
    vectors[:, 0::2], vectors[:, 1::2] = pos, neg
    vectors = np.unique(vectors[vectors.any(axis=1)], axis=0)
    multiplicity = rng.integers(1, 30, size=vectors.shape[0])
    n_nodes = int(np.sqrt(2 * multiplicity.sum())) + 3  # leaves pairs for the zero class
    return build_table(vectors, multiplicity, n_periods, n_nodes)


def store_vector(corpus, store, as_a, as_b):
    """Observation vector for an AS pair, or None if unobserved."""
    reg = corpus.registry
    vec = store.vector_of(reg.id_of(as_a), reg.id_of(as_b))
    return None if vec is None else tuple(int(x) for x in vec)
