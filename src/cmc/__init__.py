"""Candidate-graph cell segmentation.

Builds a hierarchy of segmentation candidates from a boundary map,
scores candidates and merges with trained random forests, and picks the
globally optimal consistent subset by exact branch-and-bound.
"""

from .costmodel import (
    CostTable,
    best_effort,
    label_instances,
    predict_costs,
    probability_to_cost,
    train_forest,
)
from .crag import (
    Candidate,
    Crag,
    Solution,
    build_crag,
    conflict_cliques,
    objective_value,
    validate_solution,
)
from .errors import CmcError
from .evaluate import detection_score, rand_index, segmentation_metrics, voi
from .features import compute_features, edge_feature_names, node_feature_names
from .hierarchy import build_merge_tree, extract_candidates, seeded_watershed
from .pipeline import PipelineConfig, run_pipeline, train_model
from .solver import extract_segmentation, separate_path_constraints, solve
from .synth import generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "Candidate",
    "CmcError",
    "CostTable",
    "Crag",
    "PipelineConfig",
    "Solution",
    "best_effort",
    "build_crag",
    "build_merge_tree",
    "compute_features",
    "conflict_cliques",
    "detection_score",
    "edge_feature_names",
    "extract_candidates",
    "extract_segmentation",
    "generate_synthetic",
    "label_instances",
    "node_feature_names",
    "objective_value",
    "predict_costs",
    "probability_to_cost",
    "rand_index",
    "run_pipeline",
    "seeded_watershed",
    "segmentation_metrics",
    "separate_path_constraints",
    "solve",
    "train_forest",
    "train_model",
    "validate_solution",
    "voi",
]
