"""asrecon benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload deep-sparse --seed 1 --seconds 25 --trace 0

Set-up generates the workload's inputs from the seed with `gen.py`, three
to fifteen times within about 1.5 seconds, and reports the median. With `--trace 0` the benchmark then runs the
pipeline `count fit entropy ppc report threshold eval ablate`, each stage
as its own `python -m asrecon.cli` process timed from outside with wall time
and peak RSS from `os.wait4`, plus `simulate` at the workload's base size,
again and again until `--seconds` have passed (at least three times). It
reports median times and the lowest peak RSS. With `--trace 1` it reports per-layer self times and work
counts from an in-process traced run (see `tracing.py`).

Every run checks the program's outputs; a failed check counts as a failed
operation and makes the run exit 1. Stages run the checkout's own `src`
through PYTHONPATH, from cached bytecode, with BLAS threads pinned to 1 and
PYTHONHASHSEED=0. The
file cache is not controlled and no machine setting is changed. The last
line of standard output is the JSON result; a fuller record, with input
hashes and versions, goes to `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gen
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_BUDGET_S = 1.5
MIN_ITERATIONS = 3
IMPORT_REPEATS = 5
STAGE_TIMEOUT_S = 150
BLAS_THREADS = "1"

DATA_FILES = ("classes.txt", "model.txt", "class_q.txt", "report_summary.txt", "eval_summary.txt")

END_TO_END_UNITS = {
    "setup_s": "s", "pipeline_s": "s",
    **{f"{name}_s": "s" for name in tracing.PIPELINE},
    "simulate_s": "s", "count_rss_mb": "MB", "downstream_rss_mb": "MB",
    "artifact_mb": "MB", "recon_f1": "1",
}


PER_LAYER = (
    "ingest.self_s", "ingest.calls", "ingest.paths", "ingest.dropped_loops", "ingest.input_mb",
    "snapshots.self_s", "snapshots.count", "snapshots.nodes", "snapshots.pruned_nodes",
    "snapshots.edges",
    "counting.self_s", "counting.count_observations_s", "counting.compact_classes_s",
    "counting.project_classes_s", "counting.stored_pairs", "counting.classes",
    "counting.classes_per_stored_pair", "counting.positive_observations",
    "counting.negative_observations",
    "inference.self_s", "inference.em_fit_s", "inference.em_fit_calls", "inference.em_iterations",
    "artifacts.self_s", "artifacts.write_s", "artifacts.read_s", "artifacts.write_pairs_s",
    "artifacts.read_pairs_s", "artifacts.write_classes_s", "artifacts.read_classes_s",
    "artifacts.bytes_written", "artifacts.bytes_read",
    "analytics.self_s", "analytics.node_entropy_s", "analytics.group_entropy_s",
    "analytics.posterior_predictive_check_s", "analytics.posterior_report_s",
    "analytics.collector_ablation_s",
    "evaluation.self_s", "evaluation.load_reconstruction_s",
    "evaluation.threshold_reconstruction_s", "evaluation.naive_reconstruction_s",
    "evaluation.score_reconstruction_s",
    "simulate.self_s", "simulate.generate_s",
    "cli.self_s", "cli.import_s", "trace.overhead_s",
)


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.startswith("artifacts.bytes_"):
        return "B"
    if name == "counting.classes_per_stored_pair":
        return "1"
    return "count"


class Tally:
    """Operations attempted and failed; every stage run and every check is one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def stage_env() -> dict[str, str]:
    env = dict(os.environ)
    # Stages import asrecon from cached bytecode, as an installed package would;
    # the first import of a run writes the cache.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
    )
    return env


def run_process(argv: list[str], env: dict[str, str], log: Path) -> tuple[float, float, int]:
    """Run one process to completion: wall seconds, peak RSS in MB, exit code."""
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code  # already reaped by wait4
    return wall, usage.ru_maxrss / 1024.0, code


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "asrecon.cli", *args]


def pipeline(inputs: dict, out: str) -> list[tuple[str, list[str]]]:
    """The eight stages, in order, as (name, CLI arguments)."""
    files = inputs["files"]
    return [
        ("count", ["count", "--out", out, "--paths", *map(str, files["paths"])]),
        ("fit", ["fit", "--out", out]),
        ("entropy", ["entropy", "--out", out, "--groups", str(files["groups"])]),
        ("ppc", ["ppc", "--out", out, "--seed", "7"]),
        ("report", ["report", "--out", out]),
        ("threshold", ["threshold", "--out", out, "--taus", "0.1,0.5,0.9"]),
        ("eval", [
            "eval", "--out", out,
            "--rec", f"naive={out}/edges_naive.txt",
            "--rec", f"tau05={out}/edges_tau_0.5.txt",
            "--rec", f"truth={files['truth']}",
        ]),
        ("ablate", ["ablate", "--out", out, "--orderings", "2", "--seed", "3"]),
    ]


def simulate_args(workload: gen.Workload, out: str) -> list[str]:
    return ["simulate", "--out", out, *workload.simulate_args()]


def data_digest(path: Path) -> str | None:
    """sha256 of a file's lines with comment lines removed; None if it is missing."""
    if not path.is_file():
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for line in fh:
            if not line.startswith(b"#"):
                digest.update(line)
    return digest.hexdigest()


def _data_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.split() for line in fh if line.strip() and not line.startswith("#")]


def _edge_set(path: Path) -> set[tuple[int, int]]:
    edges = set()
    for row in _data_rows(path):
        a, b = int(row[0]), int(row[1])
        edges.add((min(a, b), max(a, b)))
    return edges


def check_outputs(out: Path, workload: gen.Workload, inputs: dict, tally: Tally) -> float:
    """The per-iteration output checks; returns the F1 of the tau=0.5 edges."""
    n = inputs["n_nodes"]
    try:
        rows = _data_rows(out / "classes.txt")
        meta = [int(x) for x in rows[0]]
        mult = sum(int(r[-1]) for r in rows[1:])
        ok = meta == [workload.n_collectors, workload.n_periods, n, n * (n - 1) // 2]
        tally.check(ok and mult == n * (n - 1) // 2, f"classes.txt header {meta}, multiplicity {mult}")
    except (OSError, ValueError, IndexError) as exc:
        tally.check(False, f"classes.txt unreadable: {exc}")

    try:
        table = _data_rows(out / "eval_summary.txt")
        log_q = {row[0]: float(row[1]) for row in table[1:]}
        tally.check(log_q["tau05"] > log_q["naive"], f"eval log_q tau05 <= naive: {log_q}")
    except (OSError, ValueError, IndexError, KeyError) as exc:
        tally.check(False, f"eval_summary.txt unreadable: {exc}")

    try:
        rec = _edge_set(out / "edges_tau_0.5.txt")
        truth = _edge_set(inputs["files"]["truth"])
    except (OSError, ValueError, IndexError) as exc:
        tally.check(False, f"edge lists unreadable: {exc}")
        return 0.0
    hit = len(rec & truth)
    return 2.0 * hit / (len(rec) + len(truth)) if rec or truth else 0.0


def output_digests(out: Path) -> dict[str, str | None]:
    names = [*DATA_FILES, *sorted(p.name for p in out.glob("edges_tau_*.txt"))]
    return {name: data_digest(out / name) for name in names}


def setup(workload: gen.Workload, seed: int, work: Path, tally: Tally) -> tuple[dict, list[float]]:
    """Generate the inputs repeatedly, for SETUP_BUDGET_S; the copies must be byte-identical."""
    times, hashes, inputs = [], [], None
    while len(times) < SETUP_MIN_REPEATS or (
        sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX_REPEATS
    ):
        target = work / f"inputs{len(times)}"
        start = time.perf_counter()
        result = gen.generate(workload, seed, target)
        times.append(time.perf_counter() - start)
        hashes.append(result["sha256"])
        if inputs is None:
            inputs = result
        else:
            shutil.rmtree(target)
    tally.check(all(h == hashes[0] for h in hashes), "set-up is not deterministic")
    return inputs, times


def probe_import(env: dict[str, str], log: Path, repeats: int) -> tuple[float, str]:
    """Median wall time of `repeats` bare `import asrecon.cli` processes, and where
    asrecon came from; the first import also writes the bytecode cache."""
    code = "import asrecon, asrecon.cli; print(asrecon.__file__)"
    where = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=STAGE_TIMEOUT_S, check=True,
    ).stdout.strip()
    times = [run_process([sys.executable, "-c", code], env, log)[0] for _ in range(repeats)]
    return statistics.median(times) if times else 0.0, where


def run_plain(workload, inputs, seconds, work, env, tally) -> dict[str, float]:
    log = work / "stages.log"
    samples: dict[str, list[float]] = {}
    first_digests = None
    f1 = 0.0
    started = time.perf_counter()
    i = 0
    # Start another iteration only if it should end within the time given.
    while i < MIN_ITERATIONS or (time.perf_counter() - started) * (i + 1) / i <= seconds:
        out = work / f"out{i}"
        rss = {}
        for name, args in pipeline(inputs, str(out)):
            wall, rss[name], code = run_process(cli_argv(*args), env, log)
            samples.setdefault(f"{name}_s", []).append(wall)
            tally.check(code == 0, f"iteration {i}: {name} exited {code}")
            if name == "count":
                size = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
                samples.setdefault("artifact_mb", []).append(size / 1e6)
        sim_out = work / f"sim{i}"
        wall, _, code = run_process(cli_argv(*simulate_args(workload, str(sim_out))), env, log)
        tally.check(code == 0, f"iteration {i}: simulate exited {code}")
        shutil.rmtree(sim_out, ignore_errors=True)
        samples.setdefault("simulate_s", []).append(wall)
        samples.setdefault("pipeline_s", []).append(sum(samples[f"{n}_s"][-1] for n in tracing.PIPELINE))
        samples.setdefault("count_rss_mb", []).append(rss["count"])
        samples.setdefault("downstream_rss_mb", []).append(max(v for k, v in rss.items() if k != "count"))

        f1 = check_outputs(out, workload, inputs, tally)
        digests = output_digests(out)
        if first_digests is None:
            first_digests = digests
            tally.check(all(digests.values()), f"missing outputs: {digests}")
        else:
            for name, digest in first_digests.items():
                tally.check(digests.get(name) == digest, f"iteration {i}: {name} differs from iteration 0")
        shutil.rmtree(out, ignore_errors=True)
        i += 1
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    # Peak RSS comes in two modes tens of MB apart from run to run of the same
    # process on the same input; the lowest reading is the program's own need.
    for name in ("count_rss_mb", "downstream_rss_mb"):
        metrics[name] = min(samples[name])
    metrics["recon_f1"] = f1
    metrics["samples"] = samples
    return metrics


def run_traced(workload, inputs, seconds, work, env, tally) -> dict[str, float]:
    stages = [{"name": n, "argv": a} for n, a in pipeline(inputs, "{out}")]
    simulate = {"name": "simulate", "argv": simulate_args(workload, "{out}")}
    spec = work / "trace_spec.json"
    spec.write_text(json.dumps({"work": str(work), "seconds": seconds, "stages": stages,
                                "simulate": simulate}))
    result_file = work / "trace_result.json"
    _, _, code = run_process(
        [sys.executable, str(Path(__file__).with_name("tracing.py")), str(spec), str(result_file)],
        env, work / "trace.log",
    )
    if not tally.check(code == 0, f"traced run exited {code}"):
        return {}
    result = json.loads(result_file.read_text())
    for name, rc in result["warmup_codes"].items():
        tally.check(rc == 0, f"warm-up: {name} returned {rc}")
    passes = result["passes"]
    for p, entry in enumerate(passes):
        for kind, codes in entry["codes"].items():
            for name, rc in codes.items():
                tally.check(rc == 0, f"pass {p}: {kind} {name} returned {rc}")
    counts = [{k: v for k, v in p["metrics"].items() if not k.endswith("_s")} for p in passes]
    tally.check(all(c == counts[0] for c in counts), f"traced counts differ between passes: {counts}")
    metrics = tracing.summarize_passes(passes)
    metrics["ingest.input_mb"] = sum(p.stat().st_size for p in inputs["files"]["paths"]) / 1e6
    metrics["passes"] = len(passes)
    (work / "accounting.json").write_text(
        json.dumps([{"pass": p, **entry["accounting"]} for p, entry in enumerate(passes)], indent=1)
    )
    return metrics


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """The checkout's commit, or None where ROOT is not itself a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description="asrecon benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn a termination request into SystemExit, so the running stage is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "asrecon" / "cli.py").is_file():
        print(f"no asrecon sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    workload = gen.WORKLOADS[args.workload]
    work = WORK / "run"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = stage_env()
    tally = Tally()

    inputs, setup_times = setup(workload, args.seed, work, tally)
    import_s, asrecon_file = probe_import(env, work / "import.log", IMPORT_REPEATS * args.trace)
    if not Path(asrecon_file).resolve().is_relative_to(SRC.resolve()):
        print(f"asrecon imported from {asrecon_file}, not from {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        measured = run_traced(workload, inputs, args.seconds, work, env, tally)
        measured["cli.import_s"] = import_s
        units = {name: per_layer_unit(name) for name in PER_LAYER}
    else:
        measured = run_plain(workload, inputs, args.seconds, work, env, tally)
        measured["setup_s"] = statistics.median(setup_times)
        units = END_TO_END_UNITS
    metrics = {name: {"value": measured[name], "unit": unit}
               for name, unit in units.items() if name in measured}

    record = {
        "workload": args.workload,
        "workload_params": {k: v for k, v in vars(workload).items() if k != "why"},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_times": setup_times,
        "samples": measured.get("samples"),
        "traced_passes": measured.get("passes"),
        "inputs_sha256": inputs["sha256"],
        "expected_nodes": inputs["n_nodes"],
        "environment": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version,
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "blas_threads": BLAS_THREADS,
            "asrecon_file": asrecon_file,
            "git_commit": git_commit(),
            "src_sha256": source_digest(),
            "notes": "file cache not controlled; no machine setting changed",
        },
        "failures": tally.failures,
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    if (work / "accounting.json").is_file():
        shutil.copy(work / "accounting.json", results / f"{args.workload}-seed{args.seed}-accounting.json")
    shutil.rmtree(work, ignore_errors=True)

    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    for failure in tally.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }))
    return 1 if tally.failures else 0


if __name__ == "__main__":
    sys.exit(main())
