"""Synthetic topologies with configurable measurement noise.

Generates a ground-truth graph, plants collectors on it, and emits the paths
those collectors would advertise: per period, each collector's view is a
shortest-path tree whose tie-breaking can re-randomize (route churn), with
paths dropped outright (missed advertisements) or corrupted by splicing a
detour through an AS that is not actually adjacent (stealthy fake hops).

Everything observable about a run is recorded in a manifest: the true edge
set, collector roots, every fake adjacency that was emitted, and empirical
per-collector observation rates computed by running the standard counting
stage against the planted truth. That makes end-to-end recovery claims
checkable without re-deriving anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .counting import PairStore, ClassTable, count_corpus
from .ingest import PathCorpus, parse_paths_file
from .snapshots import ABSENT, hop_levels

GRAPH_MODELS = ("uniform", "preferential")


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class SimConfig:
    n_nodes: int
    n_collectors: int
    n_periods: int
    graph_model: str = "uniform"
    density: float = 0.05
    edges_per_node: int = 2
    p_miss: float = 0.0
    p_false_edge: float = 0.0
    p_reroute: float = 0.0
    seed: int = 0
    retry_limit: int = 20

    def __post_init__(self):
        if self.graph_model not in GRAPH_MODELS:
            raise SimulationError(f"graph_model must be one of {GRAPH_MODELS}")
        if not (self.n_nodes >= self.n_collectors >= 1):
            raise SimulationError("need n_nodes >= n_collectors >= 1")
        if self.n_periods < 1:
            raise SimulationError("need at least one period")
        for name in ("p_miss", "p_false_edge", "p_reroute"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise SimulationError(f"{name} must lie in [0, 1]")
        if self.graph_model == "uniform" and not 0.0 < self.density <= 1.0:
            raise SimulationError("density must lie in (0, 1]")
        if self.graph_model == "preferential" and not 1 <= self.edges_per_node < self.n_nodes:
            raise SimulationError("edges_per_node must lie in 1..n_nodes-1")

    def as_items(self) -> list[tuple[str, str]]:
        return [
            ("n_nodes", str(self.n_nodes)),
            ("n_collectors", str(self.n_collectors)),
            ("n_periods", str(self.n_periods)),
            ("graph_model", self.graph_model),
            ("density", f"{self.density:g}"),
            ("edges_per_node", str(self.edges_per_node)),
            ("p_miss", f"{self.p_miss:g}"),
            ("p_false_edge", f"{self.p_false_edge:g}"),
            ("p_reroute", f"{self.p_reroute:g}"),
            ("seed", str(self.seed)),
        ]


@dataclass
class Simulation:
    """A generated dataset plus its own counting-stage byproducts."""

    config: SimConfig
    as_numbers: np.ndarray
    true_edges: set[tuple[int, int]]
    roots: np.ndarray
    corpus: PathCorpus
    store: PairStore
    corruptions: list[tuple[str, str, int, int]]
    empirical_alpha: np.ndarray
    empirical_beta: np.ndarray
    dropped_paths: int = 0
    regenerations: int = 0

    @property
    def table(self) -> ClassTable:
        return self.store.table

    def true_edges_as(self) -> list[tuple[int, int]]:
        out = []
        for i, j in sorted(self.true_edges):
            a, b = int(self.as_numbers[i]), int(self.as_numbers[j])
            out.append((min(a, b), max(a, b)))
        return sorted(out)


def _sample_uniform(n: int, density: float, rng: np.random.Generator) -> list[set[int]]:
    i_idx, j_idx = np.triu_indices(n, k=1)
    mask = rng.random(i_idx.size) < density
    adj: list[set[int]] = [set() for _ in range(n)]
    for a, b in zip(i_idx[mask], j_idx[mask]):
        adj[int(a)].add(int(b))
        adj[int(b)].add(int(a))
    return adj


def _sample_preferential(n: int, m: int, rng: np.random.Generator) -> list[set[int]]:
    # Classic growth with degree-proportional attachment; connected by construction.
    adj: list[set[int]] = [set() for _ in range(n)]
    repeated: list[int] = []
    targets = list(range(m))
    for v in range(m, n):
        for u in targets:
            adj[u].add(v)
            adj[v].add(u)
        repeated.extend(targets)
        repeated.extend([v] * m)
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(repeated[int(rng.integers(len(repeated)))])
        targets = sorted(chosen)
    return adj


def generate(config: SimConfig) -> Simulation:
    """Build the ground truth and emit noisy per-collector path observations."""
    rng = np.random.default_rng(config.seed)
    n = config.n_nodes

    regenerations = 0
    while True:
        if config.graph_model == "uniform":
            adj_sets = _sample_uniform(n, config.density, rng)
        else:
            adj_sets = _sample_preferential(n, config.edges_per_node, rng)
        if np.all(hop_levels(adj_sets, 0, n) != ABSENT):
            break
        regenerations += 1
        if regenerations >= config.retry_limit:
            raise SimulationError(
                f"no connected graph after {config.retry_limit} attempts; "
                "raise the density or edges_per_node"
            )

    adj = [np.fromiter(sorted(s), dtype=np.int64) for s in adj_sets]
    true_edges = {(u, v) for u in range(n) for v in adj_sets[u] if u < v}

    # Non-dense AS numbers exercise interning downstream.
    as_numbers = rng.choice(np.arange(1, 10 * n + 1), size=n, replace=False)
    roots = np.sort(rng.choice(n, size=config.n_collectors, replace=False))

    levels = [hop_levels(adj, int(r), n) for r in roots]
    # Tie-break preference per (collector, node), aligned with adj[v].
    prefs = [[rng.random(adj[v].size) for v in range(n)] for _ in range(config.n_collectors)]

    lines: list[str] = []
    corruptions: list[tuple[str, str, int, int]] = []
    dropped = 0
    for t in range(config.n_periods):
        period_label = f"t{t}"
        for k in range(config.n_collectors):
            collector_label = f"c{k}"
            root = int(roots[k])
            dist = levels[k]
            if t > 0 and config.p_reroute > 0.0:
                for v in range(n):
                    if adj[v].size and rng.random() < config.p_reroute:
                        prefs[k][v] = rng.random(adj[v].size)
            parent = np.full(n, -1, dtype=np.int64)
            for v in range(n):
                if v == root or dist[v] < 0:
                    continue
                candidates = adj[v][dist[adj[v]] == dist[v] - 1]
                scores = prefs[k][v][dist[adj[v]] == dist[v] - 1]
                parent[v] = candidates[int(np.argmin(scores))]

            for v in range(n):
                if v == root or dist[v] < 0:
                    continue
                if rng.random() < config.p_miss:
                    dropped += 1
                    continue
                path = [v]
                while path[-1] != root:
                    path.append(int(parent[path[-1]]))
                path.reverse()
                if rng.random() < config.p_false_edge:
                    path, fakes = _inject_detour(path, true_edges, n, rng)
                    for a, b in fakes:
                        corruptions.append((collector_label, period_label, a, b))
                lines.append(
                    f"{collector_label}\t{period_label}\t"
                    + " ".join(str(int(as_numbers[u])) for u in path)
                )

    corpus = parse_paths_file("\n".join(lines) + "\n", source="<simulation>")
    store, _ = count_corpus(corpus)
    alpha_emp, beta_emp = _empirical_rates(corpus, store, as_numbers, true_edges)

    return Simulation(
        config=config,
        as_numbers=as_numbers,
        true_edges=true_edges,
        roots=roots,
        corpus=corpus,
        store=store,
        corruptions=corruptions,
        empirical_alpha=alpha_emp,
        empirical_beta=beta_emp,
        dropped_paths=dropped,
        regenerations=regenerations,
    )


def _inject_detour(
    path: list[int], true_edges: set[tuple[int, int]], n: int, rng: np.random.Generator
) -> tuple[list[int], list[tuple[int, int]]]:
    """Splice one AS into the path; the adjacencies it fabricates are returned.

    The detour node may land mid-path or as a fake last hop. Nodes already on
    the path are avoided so loop filtering does not discard the corruption.
    """
    on_path = set(path)
    if len(on_path) >= n:
        return path, []
    z = int(rng.integers(n))
    while z in on_path:
        z = int(rng.integers(n))
    pos = int(rng.integers(1, len(path) + 1))
    fakes = []
    before = path[pos - 1]
    if (min(before, z), max(before, z)) not in true_edges:
        fakes.append((before, z))
    if pos < len(path):
        after = path[pos]
        if (min(z, after), max(z, after)) not in true_edges:
            fakes.append((z, after))
    return path[:pos] + [z] + path[pos:], fakes


def _empirical_rates(
    corpus: PathCorpus,
    store: PairStore,
    as_numbers: np.ndarray,
    true_edges: set[tuple[int, int]],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-collector observed positive frequencies, split by planted truth.

    alpha: positives / opportunities over true pairs; beta: the same over
    non-pairs. Gives the rates a perfectly informed fit should recover.
    """
    registry = corpus.registry
    nc = registry.n_nodes
    true_ids = set()
    for u, v in true_edges:
        a, b = int(as_numbers[u]), int(as_numbers[v])
        if a in registry and b in registry:
            i, j = registry.id_of(a), registry.id_of(b)
            if i > j:
                i, j = j, i
            true_ids.add(i * nc + j)
    is_true = np.isin(store.pair_ids, np.fromiter(true_ids, dtype=np.int64, count=len(true_ids)))

    # Pairs per class, true and not; the count sums are exact integers.
    t, ci = store.table, store.class_index
    n_true = np.bincount(ci[is_true], minlength=t.n_classes)
    n_false = np.bincount(ci[~is_true], minlength=t.n_classes)
    opp = t.pos_counts + t.neg_counts
    with np.errstate(invalid="ignore", divide="ignore"):
        alpha = (n_true @ t.pos_counts) / (n_true @ opp)
        beta = (n_false @ t.pos_counts) / (n_false @ opp)
    return alpha, beta


def write_simulation(sim: Simulation, out_dir: str | Path) -> tuple[Path, Path]:
    """Write paths.txt and manifest.txt; byte-identical for identical configs."""
    from .artifacts import header_lines
    from .ingest import write_paths_file

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths_file = out / "paths.txt"
    manifest_file = out / "manifest.txt"

    config_items = dict(sim.config.as_items())
    write_paths_file(
        sim.corpus, paths_file, header_lines=header_lines("paths", config=config_items)
    )

    with open(manifest_file, "w", encoding="utf-8") as fh:
        for line in header_lines("manifest", config=config_items):
            fh.write(line + "\n")
        for key, value in sim.config.as_items():
            fh.write(f"config {key}={value}\n")
        fh.write(f"regenerations {sim.regenerations}\n")
        fh.write(f"dropped_paths {sim.dropped_paths}\n")
        for k in range(sim.config.n_collectors):
            fh.write(f"root c{k} {int(sim.as_numbers[sim.roots[k]])}\n")
        # Empirical rates are aligned with the corpus' first-seen collector
        # order, so key them by label rather than simulation index.
        for k, label in enumerate(sim.corpus.collector_labels):
            fh.write(f"empirical_alpha {label} {sim.empirical_alpha[k]:.17g}\n")
        for k, label in enumerate(sim.corpus.collector_labels):
            fh.write(f"empirical_beta {label} {sim.empirical_beta[k]:.17g}\n")
        for a, b in sim.true_edges_as():
            fh.write(f"true_edge {a} {b}\n")
        for collector, period, u, z in sim.corruptions:
            a, b = int(sim.as_numbers[u]), int(sim.as_numbers[z])
            fh.write(f"corruption {collector} {period} {a} {b}\n")
    return paths_file, manifest_file


@dataclass
class Manifest:
    """Parsed simulation manifest."""

    config: dict[str, str]
    roots: dict[str, int]
    true_edges: set[tuple[int, int]] = field(default_factory=set)
    corruptions: list[tuple[str, str, int, int]] = field(default_factory=list)
    empirical_alpha: dict[str, float] = field(default_factory=dict)
    empirical_beta: dict[str, float] = field(default_factory=dict)
    dropped_paths: int = 0

    def fake_edges(self) -> set[tuple[int, int]]:
        return {(min(a, b), max(a, b)) for _, _, a, b in self.corruptions}


def read_manifest(path: str | Path) -> Manifest:
    manifest = Manifest(config={}, roots={})
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            kind, rest = stripped.split(" ", 1)
            if kind == "config":
                key, value = rest.split("=", 1)
                manifest.config[key] = value
            elif kind == "root":
                label, asn = rest.split()
                manifest.roots[label] = int(asn)
            elif kind == "true_edge":
                a, b = map(int, rest.split())
                manifest.true_edges.add((min(a, b), max(a, b)))
            elif kind == "corruption":
                collector, period, a, b = rest.split()
                manifest.corruptions.append((collector, period, int(a), int(b)))
            elif kind == "empirical_alpha":
                label, value = rest.split()
                manifest.empirical_alpha[label] = float(value)
            elif kind == "empirical_beta":
                label, value = rest.split()
                manifest.empirical_beta[label] = float(value)
            elif kind == "dropped_paths":
                manifest.dropped_paths = int(rest)
    return manifest
