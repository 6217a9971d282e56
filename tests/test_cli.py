"""End-to-end pipeline through the command-line interface."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import asrecon
from asrecon.cli import main


def run(*argv: str) -> int:
    return main(list(argv))


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert run(
        "simulate", "--out", str(out), "--nodes", "80", "--collectors", "3",
        "--periods", "3", "--density", "0.07", "--p-miss", "0.05",
        "--p-false-edge", "0.01", "--p-reroute", "0.1", "--seed", "41",
    ) == 0
    assert run("count", "--out", str(out), "--paths", str(out / "paths.txt")) == 0
    assert run("fit", "--out", str(out)) == 0
    return out


def test_simulate_then_count_then_fit(pipeline_dir):
    for name in (
        "paths.txt", "manifest.txt", "registry.txt", "collectors.txt",
        "periods.txt", "classes.txt", "pairs.txt", "model.txt", "class_q.txt",
    ):
        assert (pipeline_dir / name).exists(), name


def test_entropy_stage(pipeline_dir):
    assert run("entropy", "--out", str(pipeline_dir)) == 0
    summary = (pipeline_dir / "entropy_summary.txt").read_text()
    h_norm = float(next(line.split()[1] for line in summary.splitlines() if line.startswith("h_norm")))
    assert 0.0 <= h_norm <= 1.0
    assert (pipeline_dir / "node_entropy.txt").exists()


def test_entropy_with_groups(pipeline_dir):
    registry_lines = [
        line for line in (pipeline_dir / "registry.txt").read_text().splitlines()
        if line and not line.startswith("#")
    ]
    groups = pipeline_dir / "groups.tsv"
    rows = [f"{asn}\t{'odd' if int(asn) % 2 else 'even'}" for asn in registry_lines]
    groups.write_text("\n".join(rows) + "\n")
    assert run(
        "entropy", "--out", str(pipeline_dir), "--groups", str(groups), "--min-group-size", "5"
    ) == 0
    text = (pipeline_dir / "group_entropy.txt").read_text()
    labels = [line.split("\t")[0] for line in text.splitlines() if line and not line.startswith("#")]
    assert set(labels) <= {"odd", "even", "unmapped"}
    assert len(labels) >= 1


def test_ppc_stage(pipeline_dir):
    assert run("ppc", "--out", str(pipeline_dir), "--seed", "5") == 0
    lines = [
        line for line in (pipeline_dir / "ppc_histogram.txt").read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert len(lines) == 64
    counts = [int(line.split()[2]) for line in lines]
    assert sum(counts) > 0


def test_report_stage(pipeline_dir):
    assert run("report", "--out", str(pipeline_dir)) == 0
    text = (pipeline_dir / "report_summary.txt").read_text()
    values = {
        line.split()[0]: float(line.split()[1])
        for line in text.splitlines()
        if line and not line.startswith("#")
    }
    assert values["frac_q_below_0.1"] + values["frac_q_mid"] + values["frac_q_above_0.9"] == pytest.approx(1.0)


def test_threshold_and_eval_stages(pipeline_dir):
    assert run("threshold", "--out", str(pipeline_dir), "--taus", "0.1,0.5,0.9") == 0
    for tau in ("0.1", "0.5", "0.9"):
        assert (pipeline_dir / f"edges_tau_{tau}.txt").exists()
    assert (pipeline_dir / "edges_naive.txt").exists()

    assert run(
        "eval", "--out", str(pipeline_dir),
        "--rec", f"naive={pipeline_dir / 'edges_naive.txt'}",
        "--rec", f"tau05={pipeline_dir / 'edges_tau_0.5.txt'}",
    ) == 0
    rows = [
        line.split("\t")
        for line in (pipeline_dir / "eval_summary.txt").read_text().splitlines()
        if line and not line.startswith("#")
    ]
    header, *data = rows
    assert header == ["label", "log_q", "precision", "recall", "edges_scored", "edges_unmatched"]
    assert {r[0] for r in data} == {"naive", "tau05"}
    for r in data:
        assert float(r[1]) <= 0.0 or np.isfinite(float(r[1]))


def test_ablate_stage(pipeline_dir):
    assert run("ablate", "--out", str(pipeline_dir), "--orderings", "3", "--seed", "2") == 0
    summary = [
        line.split("\t")
        for line in (pipeline_dir / "ablation_summary.txt").read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("prefix")
    ]
    assert len(summary) == 3  # one row per prefix size
    means = [float(r[1]) for r in summary]
    assert means[-1] <= means[0] + 1e-9


def test_fit_rerun_is_byte_identical(pipeline_dir, tmp_path):
    first = (pipeline_dir / "model.txt").read_bytes()
    first_q = (pipeline_dir / "class_q.txt").read_bytes()
    assert run("fit", "--out", str(pipeline_dir)) == 0
    assert (pipeline_dir / "model.txt").read_bytes() == first
    assert (pipeline_dir / "class_q.txt").read_bytes() == first_q


def test_count_rerun_is_byte_identical(pipeline_dir):
    first = {name: (pipeline_dir / name).read_bytes() for name in ("classes.txt", "pairs.txt", "registry.txt")}
    assert run("count", "--out", str(pipeline_dir), "--paths", str(pipeline_dir / "paths.txt")) == 0
    for name, blob in first.items():
        assert (pipeline_dir / name).read_bytes() == blob


def test_stage_order_violation(tmp_path, capsys):
    assert run("fit", "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "missing" in err and "asrecon count" in err


def test_missing_paths_file(tmp_path):
    assert run("count", "--out", str(tmp_path), "--paths", str(tmp_path / "nope.txt")) == 2


def test_unknown_subcommand():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_config_file_defaults(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("nodes=30\ncollectors=2\nperiods=2\ndensity=0.15\nseed=7\n")
    assert run("simulate", "--out", str(tmp_path), "--config", str(config)) == 0
    text = (tmp_path / "manifest.txt").read_text()
    assert "config n_nodes=30" in text
    assert "config seed=7" in text

    # Flags beat config values.
    assert run("simulate", "--out", str(tmp_path), "--config", str(config), "--seed", "8") == 0
    assert "config seed=8" in (tmp_path / "manifest.txt").read_text()


def test_bad_config_line(tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_text("whatisthis\n")
    assert run("simulate", "--out", str(tmp_path), "--config", str(config)) == 2
    assert "key=value" in capsys.readouterr().err


def test_dump_snapshots(tmp_path):
    assert run(
        "simulate", "--out", str(tmp_path), "--nodes", "20", "--collectors", "2",
        "--periods", "2", "--density", "0.2", "--seed", "1",
    ) == 0
    assert run(
        "count", "--out", str(tmp_path), "--paths", str(tmp_path / "paths.txt"),
        "--dump-snapshots",
    ) == 0
    dumps = sorted((tmp_path / "snapshots").glob("snapshot_k*_t*.txt"))
    assert len(dumps) == 4


@pytest.fixture
def run_copy(pipeline_dir, tmp_path):
    out = tmp_path / "run"
    shutil.copytree(pipeline_dir, out)
    return out


def test_import_loads_no_scipy():
    src = Path(asrecon.__file__).resolve().parent.parent
    code = (
        "import sys, asrecon.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
        check=True,
    )
    assert result.stdout.strip() == "[]"


def test_public_names_resolve():
    missing = [name for name in asrecon.__all__ if not hasattr(asrecon, name)]
    assert not missing


def test_class_only_stages_skip_pairs_and_registry(run_copy):
    (run_copy / "pairs.txt").unlink()
    (run_copy / "registry.txt").unlink()
    assert run("fit", "--out", str(run_copy)) == 0
    assert run("report", "--out", str(run_copy)) == 0
    assert run("ablate", "--out", str(run_copy), "--orderings", "1") == 0


@pytest.mark.parametrize(
    "line, message",
    [("4000000000 4000000001 1", "not in the registry"), ("1 2", "columns")],
)
def test_malformed_pairs_exit_2(run_copy, capsys, line, message):
    with open(run_copy / "pairs.txt", "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    assert run("entropy", "--out", str(run_copy)) == 2
    err = capsys.readouterr().err
    assert "pairs.txt" in err and message in err


def test_stale_class_posteriors_exit_2(run_copy, capsys):
    q_path = run_copy / "class_q.txt"
    lines = q_path.read_text().splitlines(keepends=True)
    q_path.write_text("".join(lines[:-1]))  # one class short, indices still 0..n-2
    assert run("report", "--out", str(run_copy)) == 2
    assert "class_q.txt" in capsys.readouterr().err


@pytest.mark.parametrize("stage, column", [("ppc", 0), ("report", 1), ("entropy", 2)])
def test_model_from_another_table_exit_2(run_copy, capsys, stage, column):
    # Column 0 is M, 1 is T, 2 is total_pairs of the `M T total_pairs ...` row.
    model_path = run_copy / "model.txt"
    lines = model_path.read_text().splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    meta = lines[row].split()
    if column == 0:  # a one-collector model: M=1 and a single rate row
        meta[0] = "1"
        lines = lines[: row + 2] + lines[-1:]
    else:
        meta[column] = str(int(meta[column]) + 1)
    lines[row] = " ".join(meta) + "\n"
    model_path.write_text("".join(lines))
    assert run(stage, "--out", str(run_copy)) == 2
    assert "model.txt" in capsys.readouterr().err


def test_registry_with_extra_ases_exit_2(run_copy, capsys):
    with open(run_copy / "registry.txt", "a", encoding="utf-8") as fh:
        fh.write("4000000000\n4000000001\n")
    assert run("entropy", "--out", str(run_copy)) == 2
    assert "registry.txt" in capsys.readouterr().err


@pytest.mark.parametrize("bad, message", [(None, "listed twice"), ("AS7018", "AS number")])
def test_malformed_registry_exit_2(run_copy, capsys, bad, message):
    path = run_copy / "registry.txt"
    lines = path.read_text().splitlines(keepends=True)
    lines.append(lines[-1] if bad is None else bad + "\n")
    path.write_text("".join(lines))
    assert run("threshold", "--out", str(run_copy)) == 2
    err = capsys.readouterr().err
    assert f"registry.txt:{len(lines)}:" in err and message in err


@pytest.mark.parametrize("line", ["tau=0.3", "workers=2"])
def test_unknown_config_key_exit_2(run_copy, capsys, line):
    config = run_copy / "run.conf"
    config.write_text(f"seed=3\n{line}\n")
    argv = ["--out", str(run_copy), "--config", str(config)]
    assert run("threshold", *argv) == 2
    assert f"run.conf:2: '{line.split('=')[0]}'" in capsys.readouterr().err
    # A key that names another stage's option is accepted.
    config.write_text("taus=0.5\nseed=3\n")
    assert run("ppc", *argv) == 0


@pytest.mark.parametrize("stage", ["count", "ablate"])
def test_workers_flag_is_gone(run_copy, stage):
    argv = [stage, "--out", str(run_copy), "--workers", "2"]
    if stage == "count":
        argv += ["--paths", str(run_copy / "paths.txt")]
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2


def test_eval_rec_path_may_contain_equals(run_copy):
    assert run("threshold", "--out", str(run_copy), "--taus", "0.5") == 0
    rec_dir = run_copy / "a=b"
    rec_dir.mkdir()
    shutil.copy(run_copy / "edges_naive.txt", rec_dir / "e.txt")
    argv = ["eval", "--out", str(run_copy)]
    plain = str(run_copy / "edges_tau_0.5.txt")  # no label: the file's stem is the label
    assert run(*argv, "--rec", f"naive={rec_dir / 'e.txt'}", "--rec", plain) == 0
    lines = (run_copy / "eval_summary.txt").read_text().splitlines()
    header, *labels = [line.split("\t")[0] for line in lines if not line.startswith("#")]
    assert labels == ["naive", "edges_tau_0.5"]


def test_eval_repeated_label_exit_2(run_copy, capsys):
    assert run("threshold", "--out", str(run_copy), "--taus", "0.5") == 0
    argv = ["eval", "--out", str(run_copy)]
    rec_a, rec_b = run_copy / "edges_naive.txt", run_copy / "edges_tau_0.5.txt"
    assert run(*argv, "--rec", f"x={rec_a}", "--rec", f"x={rec_b}") == 2
    assert "'x' given twice" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--max-iters", "0", "max_iters"),
        ("--max-iters", "-2", "max_iters"),
        ("--tol", "nan", "tol"),
    ],
)
def test_fit_bad_iteration_options_exit_2(run_copy, capsys, option, value, message):
    assert run("fit", "--out", str(run_copy), option, value) == 2
    assert message in capsys.readouterr().err


def test_ablate_zero_orderings_exit_2(run_copy, capsys):
    assert run("ablate", "--out", str(run_copy), "--orderings", "0") == 2
    assert "n_orderings must be at least 1" in capsys.readouterr().err


def test_eval_header_hashes_each_rec_path(run_copy):
    assert run("threshold", "--out", str(run_copy), "--taus", "0.5") == 0
    recs = []
    for name, source in (("e1", "edges_naive.txt"), ("e2", "edges_tau_0.5.txt")):
        (run_copy / name).mkdir()
        recs.append(run_copy / name / "edges.txt")
        shutil.copy(run_copy / source, recs[-1])
    argv = ["eval", "--out", str(run_copy), "--rec", f"a={recs[0]}", "--rec", f"b={recs[1]}"]
    assert run(*argv) == 0
    lines = (run_copy / "eval_summary.txt").read_text().splitlines()
    inputs = [line for line in lines if line.startswith("# input") and "edges.txt" in line]
    assert len({line.split()[-1] for line in inputs}) == 2
