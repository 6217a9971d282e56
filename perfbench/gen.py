"""Seeded input generator for the benchmark workloads.

Writes, for one workload and seed, the collector paths files, the planted
truth as `as1 as2` lines, and an `as<TAB>group` map. It deliberately imports
nothing from `asrecon`, so the bytes a seed produces do not change when the
package's own simulator does, and set-up never pays for a counting run.

The noise model is the paper's: each (collector, period) view is a
shortest-path tree from the collector's AS. Between periods, the
tie-breaking is re-randomised for a share P_REROUTE of the nodes. A share
P_MISS of the paths is missed, and into a share P_FALSE_EDGE one AS that is
not on the path is spliced.

Run on its own to inspect a workload's inputs:

    python3 perfbench/gen.py --workload prefix-heavy --seed 1 --out inputs
"""

from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_GROUPS = 20
# The paper's noise model, the same for every workload.
P_MISS = 0.05
P_FALSE_EDGE = 0.01
P_REROUTE = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    salt: int  # mixed into the seed so workloads never share a random stream
    graph: str  # "preferential" or "uniform"
    n_nodes: int
    n_collectors: int
    n_periods: int
    edges_per_node: int = 2
    density: float = 0.01
    split_files: bool = False
    prefix_copies: int = 1
    p_prepend: float = 0.0
    p_loop: float = 0.0

    def simulate_args(self) -> list[str]:
        """`asrecon simulate` flags for the workload's base graph.

        The seed is fixed, like the topology, because the simulator draws a new
        graph per seed and the work would change from run to run.
        """
        args = [
            "--seed", str(self.salt),
            "--nodes", str(self.n_nodes),
            "--collectors", str(self.n_collectors),
            "--periods", str(self.n_periods),
            "--graph-model", self.graph,
            "--p-miss", str(P_MISS),
            "--p-false-edge", str(P_FALSE_EDGE),
            "--p-reroute", str(P_REROUTE),
        ]
        if self.graph == "preferential":
            args += ["--edges-per-node", str(self.edges_per_node)]
        else:
            args += ["--density", str(self.density)]
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="deep-sparse",
            why="deep BFS trees: nearly all stored pairs are negative-only, so counting, "
            "compaction and pairs.txt I/O dominate",
            salt=11,
            graph="preferential",
            n_nodes=800,
            n_collectors=5,
            n_periods=5,
        ),
        Workload(
            name="wide-vantage",
            why="many shallow vantage points: many paths and classes, so per-path ingest, "
            "classes.txt I/O and ablation refits dominate",
            salt=23,
            graph="uniform",
            n_nodes=450,
            density=0.03,
            n_collectors=16,
            n_periods=8,
        ),
        Workload(
            name="prefix-heavy",
            why="32 prefix copies per origin over 25 files: parsing and stage fixed costs "
            "dominate; bypasses counting and compaction",
            salt=37,
            graph="preferential",
            n_nodes=400,
            n_collectors=5,
            n_periods=5,
            split_files=True,
            prefix_copies=32,
            p_prepend=0.3,
            p_loop=0.01,
        ),
    )
}


def _preferential(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Degree-proportional growth from an m-node seed path; connected by construction."""
    edges = [(v, v + 1) for v in range(m - 1)]
    repeated = [u for e in edges for u in e] or [0]
    for v in range(m, n):
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(repeated[int(rng.integers(len(repeated)))])
        for u in sorted(chosen):
            edges.append((u, v))
            repeated += [u, v]
    return np.array(edges, dtype=np.int64)


def _uniform(n: int, density: float, rng: np.random.Generator) -> np.ndarray:
    i, j = np.triu_indices(n, k=1)
    keep = rng.random(i.size) < density
    return np.stack([i[keep], j[keep]], axis=1)


def _csr(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    return np.cumsum(indptr), dst[order]


def _bfs(indptr: np.ndarray, indices: np.ndarray, root: int) -> np.ndarray:
    dist = np.full(indptr.size - 1, -1, dtype=np.int64)
    dist[root] = 0
    frontier = np.array([root])
    level = 0
    while frontier.size:
        level += 1
        nbrs = np.concatenate([indices[indptr[u] : indptr[u + 1]] for u in frontier])
        nbrs = np.unique(nbrs[dist[nbrs] < 0])
        dist[nbrs] = level
        frontier = nbrs
    return dist


def gap_pairs(dist: np.ndarray) -> int:
    """Pairs whose BFS levels differ by at least 2: the negatives one snapshot yields."""
    counts = np.bincount(dist[dist >= 0]).astype(np.int64)
    below = np.concatenate([[0, 0], np.cumsum(counts)[:-2]])
    return int((counts * below[: counts.size]).sum())


def _place_collectors(indptr, indices, k: int, rng: np.random.Generator):
    """Pick k collector ASes of typical depth among 8k random candidates.

    Those whose BFS trees yield nearest the candidates' median number of
    negative pairs are chosen, so no workload hinges on one unusually deep or
    shallow vantage point.
    """
    n = indptr.size - 1
    cand = rng.choice(n, size=min(n, 8 * k), replace=False)
    dists = [_bfs(indptr, indices, int(c)) for c in cand]
    score = np.array([gap_pairs(d) for d in dists], dtype=np.float64)
    pick = np.sort(np.argsort(np.abs(score - np.median(score)), kind="stable")[:k])
    order = np.argsort(cand[pick])
    return cand[pick][order], [dists[i] for i in pick[order]]


def _parents(indptr, indices, row, dist, pref) -> np.ndarray:
    """Each node's preferred neighbour one level closer to the root (-1 for the root)."""
    ok = dist[indices] == dist[row] - 1
    key = np.where(ok, pref, np.inf)
    order = np.lexsort((key, row))
    first = order[indptr[:-1]]
    parent = np.where(ok[first], indices[first], -1)
    return parent


def _exactly(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """A mask with exactly round(p * n) of n entries set, at random places.

    Fixed counts instead of independent coin flips keep the amount of noise,
    and so the work it causes, the same from seed to seed.
    """
    mask = np.zeros(n, dtype=bool)
    mask[rng.choice(n, size=round(p * n), replace=False)] = True
    return mask


def _detour(path: list[int], n: int, rng: np.random.Generator) -> list[int]:
    on_path = set(path)
    z = int(rng.integers(n))
    while z in on_path:
        z = int(rng.integers(n))
    pos = int(rng.integers(1, len(path) + 1))
    return path[:pos] + [z] + path[pos:]


def _copies(path: list[int], w: Workload, rng: np.random.Generator) -> tuple[list[list[int]], bool]:
    """The prefix copies of one origin's path, some prepended and a few looped.

    Also says whether any copy is loop-free, i.e. survives ingest.
    """
    if w.prefix_copies == 1:
        return [path], True
    out = []
    kept = False
    for _ in range(w.prefix_copies):
        copy = list(path)
        if rng.random() < w.p_prepend:
            at = int(rng.integers(len(copy)))
            copy[at:at] = [copy[at]] * int(rng.integers(1, 4))
        if rng.random() < w.p_loop:
            copy.append(copy[int(rng.integers(len(copy) - 1))])
        else:
            kept = True
        out.append(copy)
    return out, kept


def generate(w: Workload, seed: int, out: Path) -> dict:
    """Write the workload's inputs under `out`.

    The topology and the collectors' placement come from the workload alone;
    the seed draws the AS numbering, route churn, missed paths, fake hops,
    prefix copies and groups. Returns the files, their sha256, and the node
    count the counting stage must report.
    """
    topo = np.random.default_rng(w.salt)
    rng = np.random.default_rng([seed, w.salt])
    n = w.n_nodes
    while True:
        if w.graph == "preferential":
            edges = _preferential(n, w.edges_per_node, topo)
        else:
            edges = _uniform(n, w.density, topo)
        indptr, indices = _csr(n, edges)
        if (_bfs(indptr, indices, 0) >= 0).all():
            break
    row = np.repeat(np.arange(n), np.diff(indptr))
    as_numbers = rng.choice(np.arange(1, 10 * n + 1), size=n, replace=False)
    as_text = [str(int(a)) for a in as_numbers]
    roots, dists = _place_collectors(indptr, indices, w.n_collectors, topo)
    prefs = [rng.random(indices.size) for _ in roots]

    out.mkdir(parents=True, exist_ok=True)
    files: list[Path] = []
    lines: list[str] = []
    seen = np.zeros(n, dtype=bool)
    for t in range(w.n_periods):
        for k, root in enumerate(roots):
            if t > 0:
                slots = _exactly(n, P_REROUTE, rng)[row]
                prefs[k][slots] = rng.random(int(slots.sum()))
            parent = _parents(indptr, indices, row, dists[k], prefs[k])
            miss = _exactly(n, P_MISS, rng)
            fake = _exactly(n, P_FALSE_EDGE, rng)
            label = f"c{k}\tt{t}\t"
            for v in range(n):
                if v == root or miss[v]:
                    continue
                path = [v]
                while path[-1] != root:
                    path.append(int(parent[path[-1]]))
                path.reverse()
                if fake[v]:
                    path = _detour(path, n, rng)
                copies, kept = _copies(path, w, rng)
                seen[path] |= kept
                for copy in copies:
                    lines.append(label + " ".join(as_text[u] for u in copy))
            if w.split_files:
                files.append(_write_lines(out / f"paths_c{k}_t{t}.txt", lines))
                lines = []
    if not w.split_files:
        files.append(_write_lines(out / "paths.txt", lines))

    truth = sorted(
        (min(as_numbers[a], as_numbers[b]), max(as_numbers[a], as_numbers[b])) for a, b in edges
    )
    truth_file = _write_lines(out / "truth.txt", [f"{a} {b}" for a, b in truth])
    # Zipf-sized groups, like ASes per country: the largest pass entropy's size filter.
    weights = 1.0 / np.arange(1, N_GROUPS + 1)
    groups = rng.choice(N_GROUPS, size=n, p=weights / weights.sum())
    groups_file = _write_lines(
        out / "groups.txt", [f"{as_text[v]}\tg{int(groups[v]):02d}" for v in range(n)]
    )
    produced = {"paths": files, "truth": truth_file, "groups": groups_file}
    return {
        "files": produced,
        "sha256": {p.name: _sha256(p) for p in [*files, truth_file, groups_file]},
        "n_nodes": int(seen.sum()),
    }


def _write_lines(path: Path, lines: list[str]) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    result = generate(WORKLOADS[args.workload], args.seed, Path(args.out))
    print(json.dumps(result["sha256"], indent=1))


if __name__ == "__main__":
    main()
