"""In-process traced run of the asrecon pipeline, and the per-layer metrics.

A child process started by `run.py --trace 1` runs this file with a JSON
spec. It imports the checkout's `asrecon`, runs the pipeline once to warm
up, then repeats passes until the spec's time is up (at least two). Each
pass runs the pipeline once plainly through `asrecon.cli.main(argv)` and
once traced, in alternating order; the traced pass also runs `simulate`.

Tracing rebinds every public module-level function of each layer module, in
every loaded `asrecon` namespace that holds it, to a wrapper. The wrapper
records a span (stage, layer, function, start, end, parent span) and a few
counts read off the return value. Spans stay in memory and go to the result
JSON when the process ends. A function a later change deleted is simply not
wrapped; its metrics are then absent, never 0.

    python3 perfbench/tracing.py SPEC.json RESULT.json
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from gen import gap_pairs

LAYERS = (
    "ingest", "snapshots", "counting", "inference", "artifacts", "analytics", "evaluation",
    "simulate",
)
PIPELINE = ("count", "fit", "entropy", "ppc", "report", "threshold", "eval", "ablate")

# Per-layer metrics named `<layer>.<function>_s`: the time spent in that
# function, nested calls of itself not counted twice.
FUNCTION_TIMES = (
    "counting.count_observations_s", "counting.compact_classes_s", "counting.project_classes_s",
    "inference.em_fit_s",
    "artifacts.write_pairs_s", "artifacts.read_pairs_s",
    "artifacts.write_classes_s", "artifacts.read_classes_s",
    "analytics.node_entropy_s", "analytics.group_entropy_s",
    "analytics.posterior_predictive_check_s", "analytics.posterior_report_s",
    "analytics.collector_ablation_s",
    "evaluation.load_reconstruction_s", "evaluation.threshold_reconstruction_s",
    "evaluation.naive_reconstruction_s", "evaluation.score_reconstruction_s",
    "simulate.generate_s",
)
READ_PREFIXES = ("read_", "load_")
WRITE_PREFIXES = ("write_",)


def _file_bytes(args, kwargs) -> int:
    total = 0
    for a in [*args, *kwargs.values()]:
        for p in a if isinstance(a, (list, tuple)) else (a,):
            if isinstance(p, (str, os.PathLike)) and os.path.isfile(p):
                total += os.path.getsize(p)
    return total


def _snapshot_counts(result) -> dict:
    """Counts from snapshot graphs and their BFS levels, whatever container holds them."""
    items = result if isinstance(result, (list, tuple)) else [result]
    out: dict[str, int] = {}

    def add(key: str, value: int) -> None:
        out[key] = out.get(key, 0) + int(value)

    for item in items:
        graph, levels = item if isinstance(item, tuple) and len(item) == 2 else (item, None)
        if not hasattr(graph, "edges"):
            continue
        add("count", 1)
        add("edges", len(graph.edges))
        add("positive_observations", len(graph.edges))
        if hasattr(graph, "adjacency"):
            add("nodes", len(graph.adjacency))
        if hasattr(graph, "n_pruned"):
            add("pruned_nodes", graph.n_pruned)
        dist = getattr(levels, "dist", levels)
        if isinstance(dist, np.ndarray):
            add("negative_observations", gap_pairs(dist))
    return out


def summarize(layer: str, name: str, args, kwargs, result) -> dict:
    """The counts a span records, read off its arguments and return value."""
    counts: dict[str, float] = {}
    if layer == "ingest":
        if hasattr(result, "records"):
            counts["paths"] = len(result.records)
        if hasattr(result, "dropped_loops"):
            counts["dropped_loops"] = result.dropped_loops
    elif layer == "snapshots":
        counts.update(_snapshot_counts(result))
    elif layer == "counting":
        for obj in result if isinstance(result, tuple) else (result,):
            if hasattr(obj, "n_pairs"):
                counts["stored_pairs"] = obj.n_pairs
            if hasattr(obj, "n_classes"):
                counts["classes"] = obj.n_classes
    elif layer == "inference" and hasattr(result, "iterations"):
        counts["iterations"] = result.iterations
    elif layer == "artifacts" and name.startswith(READ_PREFIXES + WRITE_PREFIXES):
        counts["bytes"] = _file_bytes(args, kwargs)
    return counts


class Tracer:
    """Records spans around every public function of the layer modules."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.present: list[str] = []  # "layer.function" for every wrapped function
        self._stack: list[int] = []
        self._stage: str | None = None
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(spans), "parent": stack[-1] if stack else None,
                "stage": self._stage, "layer": layer, "name": name,
            }
            spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            span["counts"] = summarize(layer, name, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"asrecon.{layer}")
            except ModuleNotFoundError:
                continue  # a layer module a later change removed
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(obj, layer, name))
                self.present.append(f"{layer}.{name}")
        for modname, module in list(sys.modules.items()):
            if modname != "asrecon" and not modname.startswith("asrecon."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in self._rebound:
            setattr(module, attr, value)
        self._rebound = []

    def run_stage(self, stage: str, argv: list[str]) -> int:
        """One CLI stage as the root span of layer `cli`."""
        cli = importlib.import_module("asrecon.cli")
        self._stage = stage
        span = {"id": len(self.spans), "parent": None, "stage": stage, "layer": "cli",
                "name": stage, "counts": {}}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            return cli.main(argv)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            self._stage = None


# -- aggregation --------------------------------------------------------------


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def _outermost(spans: list[dict], span: dict, same) -> bool:
    parent = span["parent"]
    while parent is not None:
        if same(spans[parent]):
            return False
        parent = spans[parent]["parent"]
    return True


def stage_accounting(spans: list[dict]) -> dict[str, dict]:
    """Per stage: wall time and the self time of each layer.

    The self times add up to the wall time by construction: each span's time
    is counted once, in the span that holds it innermost.
    """
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s, own in zip(spans, selfs):
        entry = out.setdefault(s["stage"], {"wall_s": 0.0, "self_s": {}})
        if s["parent"] is None:
            entry["wall_s"] += s["end"] - s["start"]
        entry["self_s"][s["layer"]] = entry["self_s"].get(s["layer"], 0.0) + own
    return out


def layer_metrics(spans: list[dict], present: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Everything is summed over the eight pipeline stages, except `simulate.*`,
    which comes from the `simulate` stage; structure counts (snapshots,
    stored pairs, classes) come from the `count` stage.
    """
    selfs = self_times(spans)
    has = set(present)
    layers_present = {p.split(".")[0] for p in present}
    m: dict[str, float] = {}

    def in_scope(s: dict, layer: str) -> bool:
        return s["stage"] == "simulate" if layer == "simulate" else s["stage"] in PIPELINE

    for layer in (*LAYERS, "cli"):
        if layer == "cli" or layer in layers_present:
            m[f"{layer}.self_s"] = sum(
                own for s, own in zip(spans, selfs) if s["layer"] == layer and in_scope(s, layer)
            )

    for metric in FUNCTION_TIMES:
        layer, name = metric[: -len("_s")].split(".")
        if f"{layer}.{name}" not in has:
            continue
        same = lambda t, layer=layer, name=name: t["layer"] == layer and t["name"] == name
        m[metric] = sum(
            s["end"] - s["start"]
            for s in spans
            if same(s) and in_scope(s, layer) and _outermost(spans, s, same)
        )

    def family(prefixes):
        return [
            s for s in spans
            if s["layer"] == "artifacts" and s["name"].startswith(prefixes)
            and s["stage"] in PIPELINE
            and _outermost(spans, s, lambda t: t["layer"] == "artifacts")
        ]

    for kind, prefixes in (("write", WRITE_PREFIXES), ("read", READ_PREFIXES)):
        if any(p.startswith("artifacts.") and p.split(".")[1].startswith(prefixes) for p in has):
            chosen = family(prefixes)
            m[f"artifacts.{kind}_s"] = sum(s["end"] - s["start"] for s in chosen)
            m[f"artifacts.bytes_{'written' if kind == 'write' else 'read'}"] = sum(
                s["counts"].get("bytes", 0) for s in chosen
            )

    if "ingest" in layers_present:
        ingest = [s for s in spans if s["layer"] == "ingest" and s["stage"] in PIPELINE]
        m["ingest.calls"] = len(ingest)
        top = [s for s in ingest if _outermost(spans, s, lambda t: t["layer"] == "ingest")]
        for key in ("paths", "dropped_loops"):
            values = [s["counts"][key] for s in top if key in s["counts"]]
            if values:
                m[f"ingest.{key}"] = sum(values)

    count_stage = [s for s in spans if s["stage"] == "count"]
    snaps = [
        s for s in count_stage
        if s["layer"] == "snapshots" and _outermost(spans, s, lambda t: t["layer"] == "snapshots")
    ]
    for key, metric in (
        ("count", "snapshots.count"), ("nodes", "snapshots.nodes"),
        ("pruned_nodes", "snapshots.pruned_nodes"), ("edges", "snapshots.edges"),
        ("positive_observations", "counting.positive_observations"),
        ("negative_observations", "counting.negative_observations"),
    ):
        values = [s["counts"][key] for s in snaps if key in s["counts"]]
        if values:
            m[metric] = sum(values)

    counting_top = [
        s for s in count_stage
        if s["layer"] == "counting" and _outermost(spans, s, lambda t: t["layer"] == "counting")
    ]
    for key in ("stored_pairs", "classes"):
        values = [s["counts"][key] for s in counting_top if key in s["counts"]]
        if values:
            m[f"counting.{key}"] = values[-1]
    if m.get("counting.stored_pairs"):
        if "counting.classes" in m:
            m["counting.classes_per_stored_pair"] = m["counting.classes"] / m["counting.stored_pairs"]

    if "inference.em_fit" in has:
        fits = [
            s for s in spans
            if s["layer"] == "inference" and s["name"] == "em_fit" and s["stage"] in PIPELINE
        ]
        m["inference.em_fit_calls"] = len(fits)
        iterations = [s["counts"]["iterations"] for s in fits if "iterations" in s["counts"]]
        if iterations:
            m["inference.em_iterations"] = sum(iterations)
    return m


# -- child process ------------------------------------------------------------


def _argv(template: list[str], out: Path) -> list[str]:
    return [a.replace("{out}", str(out)) for a in template]


def _plain_pass(stages: list[dict], out: Path) -> tuple[dict[str, float], dict[str, int]]:
    cli = importlib.import_module("asrecon.cli")
    walls, codes = {}, {}
    for st in stages:
        t0 = time.perf_counter()
        codes[st["name"]] = cli.main(_argv(st["argv"], out))
        walls[st["name"]] = time.perf_counter() - t0
    return walls, codes


def _traced_pass(stages: list[dict], out: Path, simulate: dict, sim_out: Path):
    tracer = Tracer()
    tracer.install()
    codes = {}
    try:
        for st in [*stages, simulate]:
            target = sim_out if st is simulate else out
            codes[st["name"]] = tracer.run_stage(st["name"], _argv(st["argv"], target))
    finally:
        tracer.uninstall()
    return tracer, codes


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    work = Path(spec["work"])
    stages, simulate = spec["stages"], spec["simulate"]
    started = time.perf_counter()
    # One unmeasured pass first, so that no measured pass pays first-call costs.
    _, warmup_codes = _plain_pass(stages, work / "warmup")
    shutil.rmtree(work / "warmup", ignore_errors=True)
    passes = []
    measured = time.perf_counter()
    # Start another pass only if it should end within the time given.
    while len(passes) < 2 or (
        time.perf_counter() - started + (time.perf_counter() - measured) / len(passes)
        <= spec["seconds"]
    ):
        p = len(passes)
        plain_out, traced_out = work / f"plain{p}", work / f"traced{p}"
        if p % 2 == 0:
            walls, plain_codes = _plain_pass(stages, plain_out)
            tracer, traced_codes = _traced_pass(stages, traced_out, simulate, work / f"sim{p}")
        else:
            tracer, traced_codes = _traced_pass(stages, traced_out, simulate, work / f"sim{p}")
            walls, plain_codes = _plain_pass(stages, plain_out)
        accounting = stage_accounting(tracer.spans)
        traced_pipeline = sum(accounting[name]["wall_s"] for name in PIPELINE if name in accounting)
        passes.append({
            "codes": {"plain": plain_codes, "traced": traced_codes},
            "plain_walls": walls,
            "overhead_s": traced_pipeline - sum(walls.values()),
            "accounting": accounting,
            "metrics": layer_metrics(tracer.spans, tracer.present),
            "spans": tracer.spans,
        })
        for done in (plain_out, traced_out, work / f"sim{p}"):
            shutil.rmtree(done, ignore_errors=True)
    Path(sys.argv[2]).write_text(json.dumps({"warmup_codes": warmup_codes, "passes": passes}))
    return 0


def summarize_passes(passes: list[dict]) -> dict[str, float]:
    """Per-layer metrics over passes: median times, the first pass's counts, and
    the tracing overhead."""
    names = set.intersection(*(set(p["metrics"]) for p in passes))
    out = {
        n: statistics.median(p["metrics"][n] for p in passes) if n.endswith("_s")
        else passes[0]["metrics"][n]
        for n in names
    }
    out["trace.overhead_s"] = statistics.median(p["overhead_s"] for p in passes)
    return out


if __name__ == "__main__":
    sys.exit(main())
