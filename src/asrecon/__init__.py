"""Probabilistic reconstruction of AS-level topology from noisy path data.

The pipeline: parse collector path files, build per-(collector, period)
snapshot graphs, count positive and negative edge observations, compact them
into observation classes, fit per-collector error rates and an edge prior by
EM, and read off a posterior existence probability for every AS pair. On top
of that sit entropy diagnostics, a posterior predictive check, reconstruction
scoring, and a synthetic data generator for end-to-end validation.
"""

__version__ = "0.1.0"

from .ingest import (
    AsRegistry,
    ParseError,
    PathCorpus,
    PathRecord,
    load_corpus,
    parse_paths_file,
    write_paths_file,
)
from .snapshots import SnapshotGraph, bfs_levels, build_all_snapshots, build_snapshot
from .counting import (
    ClassTable,
    CountingError,
    PairStore,
    compact_classes,
    count_corpus,
    count_observations,
    project_classes,
    total_pair_count,
    unique_rows,
)
from .inference import (
    FittedModel,
    InferenceError,
    ModelParams,
    class_log_likelihoods,
    em_fit,
    log_density,
    posterior_edge_prob,
)
from .analytics import (
    AblationResult,
    ConnectivityStats,
    GroupMap,
    Histogram,
    PpcResult,
    collector_ablation,
    connectivity_stats,
    edge_entropy,
    group_entropy,
    load_group_map,
    node_entropy,
    normalized_entropy,
    posterior_predictive_check,
    posterior_report,
)
from .evaluation import (
    EvaluationError,
    Reconstruction,
    ReconstructionScore,
    load_reconstruction,
    log_q_no_edges,
    make_reconstruction,
    naive_reconstruction,
    score_reconstruction,
    threshold_reconstruction,
    write_reconstruction,
)
from .simulate import Manifest, SimConfig, Simulation, SimulationError, generate, read_manifest, write_simulation

__all__ = [
    "AblationResult",
    "AsRegistry",
    "ClassTable",
    "ConnectivityStats",
    "CountingError",
    "EvaluationError",
    "FittedModel",
    "GroupMap",
    "Histogram",
    "InferenceError",
    "Manifest",
    "ModelParams",
    "PairStore",
    "ParseError",
    "PathCorpus",
    "PathRecord",
    "PpcResult",
    "Reconstruction",
    "ReconstructionScore",
    "SimConfig",
    "Simulation",
    "SimulationError",
    "SnapshotGraph",
    "bfs_levels",
    "build_all_snapshots",
    "build_snapshot",
    "class_log_likelihoods",
    "collector_ablation",
    "compact_classes",
    "connectivity_stats",
    "count_corpus",
    "count_observations",
    "edge_entropy",
    "em_fit",
    "generate",
    "group_entropy",
    "load_corpus",
    "load_group_map",
    "load_reconstruction",
    "log_density",
    "log_q_no_edges",
    "make_reconstruction",
    "naive_reconstruction",
    "node_entropy",
    "normalized_entropy",
    "parse_paths_file",
    "posterior_edge_prob",
    "posterior_predictive_check",
    "posterior_report",
    "project_classes",
    "read_manifest",
    "score_reconstruction",
    "threshold_reconstruction",
    "total_pair_count",
    "unique_rows",
    "write_paths_file",
    "write_reconstruction",
    "write_simulation",
]
