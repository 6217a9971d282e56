"""Command-line pipeline: simulate, count, fit, and the report stages.

Stages hand data to each other through files in a shared output directory,
so each one can be rerun, resumed, or tested on its own:

    asrecon simulate --out run --nodes 200 --collectors 5 --periods 5 --seed 1
    asrecon count    --out run --paths run/paths.txt
    asrecon fit      --out run
    asrecon entropy  --out run
    asrecon ppc      --out run --seed 7
    asrecon threshold --out run
    asrecon eval     --out run --rec naive=run/edges_naive.txt

Options may also come from a `key=value` config file (--config); explicit
flags win. Artifact headers carry the tool version, a config hash, and input
hashes, and contain no timestamps, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable

from . import __version__, artifacts
from .analytics import (
    collector_ablation,
    group_entropy,
    load_group_map,
    node_entropy,
    normalized_entropy,
    posterior_predictive_check,
    posterior_report,
)
from .counting import count_corpus
from .evaluation import (
    load_reconstruction,
    naive_reconstruction,
    score_reconstruction,
    threshold_reconstruction,
    write_reconstruction,
)
from .inference import DEFAULT_MAX_ITERS, DEFAULT_TOL, em_fit
from .ingest import load_corpus
from .simulate import SimConfig, generate, write_simulation
from .snapshots import build_all_snapshots, dump_snapshot_edges


class StageError(RuntimeError):
    """Missing inputs or a stage run out of order."""


def _config_keys(parser: argparse.ArgumentParser) -> set[str]:
    """The keys a config file may set: the stage options `_opt` reads.

    Those are the options whose default is None; `--out`, `--paths` and `--rec`
    are required, `--dump-snapshots` is a switch, and `--config` is the file itself.
    """
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        action.dest
        for stage in sub.choices.values()
        for action in stage._actions
        if action.default is None and not action.required and action.dest != "config"
    }


def _read_config(path: str | None, keys: set[str]) -> dict[str, str]:
    if path is None:
        return {}
    config: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise StageError(f"{path}:{lineno}: expected key=value")
            key, value = stripped.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in keys:
                raise StageError(f"{path}:{lineno}: {key!r} names no stage option")
            config[key] = value.strip()
    return config


def _opt(args: argparse.Namespace, config: dict[str, str], name: str, cast: Callable, default):
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in config:
        return cast(config[name])
    return default


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise StageError(f"missing {path}; run `asrecon {producer}` first")
    return path


def _load_classes(out: Path):
    return artifacts.read_classes(_require(out / "classes.txt", "count"))


def _load_counting(out: Path):
    registry = artifacts.read_registry(_require(out / "registry.txt", "count"))
    table = _load_classes(out)
    if registry.n_nodes != table.n_nodes:
        raise StageError(
            f"{out / 'registry.txt'} lists {registry.n_nodes} ASes for the "
            f"{table.n_nodes} nodes of {out / 'classes.txt'}; rerun `asrecon count`"
        )
    store = artifacts.read_pairs(_require(out / "pairs.txt", "count"), registry, table)
    return registry, table, store


def _load_model(out: Path, table):
    model = artifacts.load_model(
        _require(out / "model.txt", "fit"), _require(out / "class_q.txt", "fit"), table
    )
    if model.class_posteriors.size != table.n_classes:
        raise StageError(
            f"{out / 'class_q.txt'} has {model.class_posteriors.size} posteriors for "
            f"{table.n_classes} classes; rerun `asrecon fit`"
        )
    return model


def _make_header(artifact: str, config: dict, inputs: dict[str, Path]) -> list[str]:
    return artifacts.header_lines(
        artifact,
        config=config,
        inputs={name: artifacts.sha256_file(p) for name, p in inputs.items()},
    )


def cmd_simulate(args, config) -> int:
    out = Path(args.out)
    sim_config = SimConfig(
        n_nodes=_opt(args, config, "nodes", int, 100),
        n_collectors=_opt(args, config, "collectors", int, 3),
        n_periods=_opt(args, config, "periods", int, 3),
        graph_model=_opt(args, config, "graph_model", str, "uniform"),
        density=_opt(args, config, "density", float, 0.05),
        edges_per_node=_opt(args, config, "edges_per_node", int, 2),
        p_miss=_opt(args, config, "p_miss", float, 0.0),
        p_false_edge=_opt(args, config, "p_false_edge", float, 0.0),
        p_reroute=_opt(args, config, "p_reroute", float, 0.0),
        seed=_opt(args, config, "seed", int, 0),
    )
    sim = generate(sim_config)
    paths_file, manifest_file = write_simulation(sim, out)
    print(f"wrote {paths_file} ({len(sim.corpus.records)} paths) and {manifest_file}")
    print(
        f"true edges: {len(sim.true_edges)}, corruptions: {len(sim.corruptions)}, "
        f"dropped paths: {sim.dropped_paths}"
    )
    return 0


def cmd_count(args, config) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    paths = [Path(p) for p in args.paths]
    for p in paths:
        if not p.exists():
            raise StageError(f"paths file not found: {p}")
    corpus = load_corpus(paths)
    store, table = count_corpus(corpus)

    effective = {"paths": [str(p) for p in paths]}
    inputs = {p.name: p for p in paths}
    header = _make_header("counting", effective, inputs)
    header.append(f"# dropped_loops {corpus.dropped_loops}")

    artifacts.write_registry(corpus.registry, out / "registry.txt", header)
    artifacts.write_labels(corpus.collector_labels, out / "collectors.txt", header)
    artifacts.write_labels(corpus.period_labels, out / "periods.txt", header)
    artifacts.write_classes(table, out / "classes.txt", header)
    artifacts.write_pairs(store, corpus.registry, out / "pairs.txt", header)

    if args.dump_snapshots:
        snap_dir = out / "snapshots"
        snap_dir.mkdir(exist_ok=True)
        for graph, _ in build_all_snapshots(corpus):
            dump_snapshot_edges(
                graph, snap_dir / f"snapshot_k{graph.collector_id}_t{graph.time_period}.txt"
            )

    print(
        f"counted {store.n_pairs} observed pairs over {corpus.n_collectors} collectors, "
        f"{corpus.n_periods} periods; {table.n_classes} classes "
        f"({corpus.dropped_loops} loop paths dropped)"
    )
    return 0


def cmd_fit(args, config) -> int:
    out = Path(args.out)
    table = _load_classes(out)
    tol = _opt(args, config, "tol", float, DEFAULT_TOL)
    max_iters = _opt(args, config, "max_iters", int, DEFAULT_MAX_ITERS)
    model = em_fit(table, tol=tol, max_iters=max_iters)

    effective = {"tol": tol, "max_iters": max_iters}
    header = _make_header("model", effective, {"classes.txt": out / "classes.txt"})
    artifacts.write_model(model, table, out / "model.txt", header)
    artifacts.write_class_posteriors(model.class_posteriors, out / "class_q.txt", header)
    status = "converged" if model.converged else "NOT converged"
    print(
        f"fit {status} after {model.iterations} iterations, "
        f"log-density {model.log_density:.6f}, rho {model.rho:.3e}"
    )
    return 0


def cmd_entropy(args, config) -> int:
    out = Path(args.out)
    registry, table, store = _load_counting(out)
    model = _load_model(out, table)
    min_group_size = _opt(args, config, "min_group_size", int, 50)
    groups_path = _opt(args, config, "groups", str, None)

    h_norm = normalized_entropy(model, table)
    per_node = node_entropy(model, store)

    effective = {"min_group_size": min_group_size, "groups": groups_path}
    inputs = {"model.txt": out / "model.txt", "pairs.txt": out / "pairs.txt"}
    header = _make_header("entropy", effective, inputs)

    with open(out / "entropy_summary.txt", "w", encoding="utf-8") as fh:
        for line in header:
            fh.write(line + "\n")
        fh.write(f"h_norm {h_norm:.17g}\n")
        fh.write(f"rho {model.rho:.17g}\n")
        fh.write(f"total_pairs {table.total_pairs}\n")
        fh.write(f"observed_pairs {store.n_pairs}\n")
    artifacts.write_node_entropy(per_node, registry, out / "node_entropy.txt", header)

    if groups_path is not None:
        group_map = load_group_map(groups_path, registry)
        ranking = group_entropy(per_node, group_map, min_group_size=min_group_size)
        artifacts.write_group_entropy(ranking, out / "group_entropy.txt", header)
    print(f"h_norm {h_norm:.6f} over {table.total_pairs} pairs")
    return 0


def cmd_ppc(args, config) -> int:
    out = Path(args.out)
    _, table, store = _load_counting(out)
    model = _load_model(out, table)
    seed = _opt(args, config, "seed", int, 0)
    replicates = _opt(args, config, "replicates", int, 1)
    result = posterior_predictive_check(model, store, seed=seed, replicates=replicates)

    effective = {"seed": seed, "replicates": replicates}
    inputs = {"model.txt": out / "model.txt", "pairs.txt": out / "pairs.txt"}
    header = _make_header("ppc", effective, inputs)
    header.append(f"# pairs {result.n_pairs} replicates {result.replicates}")
    artifacts.write_histogram(result.histogram, out / "ppc_histogram.txt", header)

    modal = result.histogram.modal_bin()
    zero_bin = result.histogram.bin_containing(0.0)
    in_modal = result.histogram.counts[modal] / max(result.histogram.total, 1)
    print(
        f"ppc over {result.n_pairs} pairs x{replicates}: modal bin "
        f"[{result.histogram.edges[modal]:g}, {result.histogram.edges[modal + 1]:g}) "
        f"holds {in_modal:.1%} (zero bin index {zero_bin})"
    )
    return 0


def cmd_report(args, config) -> int:
    out = Path(args.out)
    table = _load_classes(out)
    model = _load_model(out, table)
    report = posterior_report(model, table)

    header = _make_header("report", {}, {"model.txt": out / "model.txt"})
    artifacts.write_histogram(report.histogram, out / "q_histogram.txt", header)
    with open(out / "report_summary.txt", "w", encoding="utf-8") as fh:
        for line in header:
            fh.write(line + "\n")
        fh.write(f"frac_q_below_0.1 {report.frac_below:.17g}\n")
        fh.write(f"frac_q_mid {report.frac_mid:.17g}\n")
        fh.write(f"frac_q_above_0.9 {report.frac_above:.17g}\n")
    print(
        f"posterior mass: {report.frac_below:.4%} below 0.1, {report.frac_mid:.4%} in "
        f"[0.1, 0.9], {report.frac_above:.4%} above 0.9"
    )
    return 0


def cmd_eval(args, config) -> int:
    out = Path(args.out)
    registry, table, store = _load_counting(out)
    model = _load_model(out, table)

    scores = []
    inputs = {"model.txt": out / "model.txt"}
    labels = set()
    for spec_item in args.rec:
        # LABEL=PATH splits at the first "=", so a path may contain one.
        label, sep, path = spec_item.partition("=")
        if not sep:
            label, path = "", spec_item
        rec_path = Path(path)
        label = label or rec_path.stem
        if label in labels:
            raise StageError(f"--rec label {label!r} given twice")
        labels.add(label)
        if not rec_path.exists():
            raise StageError(f"reconstruction file not found: {rec_path}")
        rec = load_reconstruction(rec_path, registry, label=label)
        scores.append(score_reconstruction(rec, model, table, store))
        inputs[path] = rec_path  # as given: two files may share a name

    header = _make_header("evaluation", {"rec": list(args.rec)}, inputs)
    artifacts.write_eval_summary(scores, out / "eval_summary.txt", header)
    for s in scores:
        print(
            f"{s.label}: log_q {s.log_q:.6g}, precision {s.precision:.4f}, "
            f"recall {s.recall:.4f} ({s.edges_scored} edges, {s.edges_unmatched} unmatched)"
        )
    return 0


def cmd_threshold(args, config) -> int:
    out = Path(args.out)
    registry, table, store = _load_counting(out)
    model = _load_model(out, table)
    taus_text = _opt(args, config, "taus", str, "0.1,0.5,0.9")
    taus = [float(t) for t in taus_text.split(",") if t.strip()]
    header = _make_header("edges", {"taus": taus_text}, {"model.txt": out / "model.txt"})

    for tau in taus:
        rec = threshold_reconstruction(model, store, tau)
        path = out / f"edges_tau_{tau:g}.txt"
        write_reconstruction(rec, registry, path, header)
        print(f"tau={tau:g}: {rec.n_edges} edges -> {path}")

    naive = naive_reconstruction(store)
    write_reconstruction(naive, registry, out / "edges_naive.txt", header)
    print(f"naive union of positives: {naive.n_edges} edges -> {out / 'edges_naive.txt'}")
    return 0


def cmd_ablate(args, config) -> int:
    out = Path(args.out)
    table = _load_classes(out)
    seed = _opt(args, config, "seed", int, 0)
    n_orderings = _opt(args, config, "orderings", int, 10)
    result = collector_ablation(table, n_orderings=n_orderings, seed=seed)

    effective = {"seed": seed, "orderings": n_orderings}
    header = _make_header("ablation", effective, {"classes.txt": out / "classes.txt"})
    artifacts.write_ablation(
        result.orderings,
        result.h_norm,
        result.mean,
        result.std,
        out / "ablation_curves.txt",
        out / "ablation_summary.txt",
        header,
    )
    trend = " ".join(f"{v:.4f}" for v in result.mean)
    print(f"mean h_norm by collector prefix: {trend}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asrecon",
        description="Infer AS-level edge existence probabilities from noisy collector paths.",
    )
    parser.add_argument("--version", action="version", version=f"asrecon {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", required=True, help="shared artifact directory")
        p.add_argument("--config", default=None, help="key=value defaults file")

    p = sub.add_parser("simulate", help="generate a synthetic dataset with known truth")
    common(p)
    p.add_argument("--nodes", type=int)
    p.add_argument("--collectors", type=int)
    p.add_argument("--periods", type=int)
    p.add_argument("--graph-model", dest="graph_model", choices=["uniform", "preferential"])
    p.add_argument("--density", type=float)
    p.add_argument("--edges-per-node", dest="edges_per_node", type=int)
    p.add_argument("--p-miss", dest="p_miss", type=float)
    p.add_argument("--p-false-edge", dest="p_false_edge", type=float)
    p.add_argument("--p-reroute", dest="p_reroute", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("count", help="paths files -> observation classes")
    common(p)
    p.add_argument("--paths", nargs="+", required=True)
    p.add_argument("--dump-snapshots", action="store_true")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("fit", help="observation classes -> fitted model")
    common(p)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("entropy", help="normalized and per-AS entropy reports")
    common(p)
    p.add_argument("--groups", help="as_number<TAB>group_label file")
    p.add_argument("--min-group-size", dest="min_group_size", type=int)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("ppc", help="posterior predictive check histogram")
    common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--replicates", type=int)
    p.set_defaults(func=cmd_ppc)

    p = sub.add_parser("report", help="edge posterior distribution report")
    common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("eval", help="score external reconstructions")
    common(p)
    p.add_argument("--rec", action="append", required=True, metavar="LABEL=PATH")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("threshold", help="edge lists at posterior thresholds")
    common(p)
    p.add_argument("--taus")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("ablate", help="refit on growing random collector subsets")
    common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--orderings", type=int)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _read_config(args.config, _config_keys(parser))
        return args.func(args, config)
    except (StageError, OSError, ValueError, RuntimeError) as exc:
        print(f"asrecon {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
