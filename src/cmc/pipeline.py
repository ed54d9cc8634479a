"""End-to-end orchestration: boundary map in, segmentation out.

Single-image flow plus cross-image training.  All randomness comes from
the explicit seed in PipelineConfig; the node forest draws tree seeds
rng_seed .. rng_seed+n_trees-1 and the edge forest continues at
rng_seed+n_trees, so the two never share a per-tree stream.
"""

import contextlib
import json
from dataclasses import asdict, dataclass, fields

from .costmodel import (
    best_effort,
    costs_to_json,
    forest_from_json,
    forest_to_json,
    label_instances,
    predict_costs,
    train_forest,
)
from .crag import crag_to_json, json_member, json_value, solution_to_json
from .errors import CmcError, SingleClass, StageFailure
from .evaluate import segmentation_metrics
from .features import compute_features, features_to_json
from .hierarchy import build_merge_tree, extract_candidates, seeded_watershed
from .pgm import write_labels
from .solver import MODES, extract_segmentation, solve

import numpy as np


@dataclass
class PipelineConfig:
    seed_threshold: float = 0.5
    max_merges: int = 5
    score_threshold: float = None
    n_trees: int = 100
    rng_seed: int = 42
    mode: str = "full"
    ignore_background: bool = True
    time_limit: float = None


def config_to_json(config):
    return asdict(config)


# JSON kind of each config field, and the fields that may be null because
# the library takes None for them (max_merges None means no level cap)
_CONFIG_KINDS = {f.name: f.type for f in fields(PipelineConfig)}
_CONFIG_NULLABLE = {"max_merges", "score_threshold", "time_limit"}


def config_from_json(obj, doc="config.json"):
    """PipelineConfig from its JSON form; malformed input raises CmcError
    naming `doc`.  Fields left out keep their defaults."""
    json_value(doc, obj, dict, "config")
    unknown = set(obj) - set(_CONFIG_KINDS)
    if unknown:
        raise CmcError(f"{doc}: unknown config keys: {sorted(unknown)}")
    values = {}
    for key, value in obj.items():
        if value is not None or key not in _CONFIG_NULLABLE:
            value = json_value(doc, value, _CONFIG_KINDS[key], key)
        values[key] = value
    if values.get("mode", "full") not in MODES:
        raise CmcError(f"{doc}: mode {values['mode']!r} is not one of {MODES}")
    return PipelineConfig(**values)


@contextlib.contextmanager
def _stage(name):
    try:
        yield
    except StageFailure:
        raise
    except (CmcError, OSError) as exc:
        raise StageFailure(name, exc) from exc


def build_graph(boundary, config, superpixels=None):
    """Watershed, merge tree, candidate extraction in one step.

    A precomputed oversegmentation can replace the watershed stage.
    """
    if superpixels is None:
        with _stage("watershed"):
            superpixels = seeded_watershed(boundary, config.seed_threshold)
    with _stage("merge-tree"):
        tree = build_merge_tree(superpixels, boundary)
    with _stage("candidates"):
        return extract_candidates(tree, config.max_merges, config.score_threshold)


def train_from_instances(instances, n_trees, rng_seed):
    """Forests from per-image (crag, node_feats, edge_feats, gt) tuples.

    Supervision comes from the best-effort assignment on each candidate
    graph; samples are pooled across all images.  Graphs without edges
    add no edge samples; with no edge sample at all the edge forest has
    no class to learn, and the train-edges stage raises SingleClass.
    """
    node_x, node_y, edge_x, edge_y = [], [], [], []
    for k, (crag, node_feats, edge_feats, gt) in enumerate(instances):
        with _stage(f"best-effort[{k}]"):
            target = best_effort(crag, gt, mode="full")
        (nx, ny), (ex, ey) = label_instances(crag, target, node_feats, edge_feats)
        node_x.append(nx)
        node_y.append(ny)
        if ex.size:
            edge_x.append(ex)
            edge_y.append(ey)
    with _stage("train-nodes"):
        node_forest = train_forest(
            (np.concatenate(node_x), np.concatenate(node_y)), n_trees, rng_seed
        )
    with _stage("train-edges"):
        if not edge_x:
            raise SingleClass()
        edge_forest = train_forest(
            (np.concatenate(edge_x), np.concatenate(edge_y)),
            n_trees,
            rng_seed + n_trees,
        )
    return {"node_forest": node_forest, "edge_forest": edge_forest}


def train_model(triples, config):
    """Train node and edge forests from (raw, boundary, gt) image triples."""
    instances = []
    for k, (raw, boundary, gt) in enumerate(triples):
        crag = build_graph(boundary, config)
        with _stage(f"features[{k}]"):
            node_feats, edge_feats = compute_features(crag, raw, boundary)
        instances.append((crag, node_feats, edge_feats, gt))
    return train_from_instances(instances, config.n_trees, config.rng_seed)


def model_to_json(model):
    return {
        "node_forest": forest_to_json(model["node_forest"]),
        "edge_forest": forest_to_json(model["edge_forest"]),
    }


def model_from_json(obj):
    """Model from its JSON form; malformed input raises CmcError."""
    return {
        key: forest_from_json(json_member("model.json", obj, key, dict, "model"), key)
        for key in ("node_forest", "edge_forest")
    }


def dump_json(path, obj):
    """Write obj as sorted, 2-space indented JSON plus a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_pipeline(config, boundary, raw, gt=None, model=None, save_dir=None):
    """(solution, label image, metrics or None) for one image.

    With a model, ground truth is only used for metrics; without one,
    ground truth is required and a model is trained on this image
    alone (train_from_instances on this one graph).  save_dir persists
    every intermediate product.
    """
    if model is None and gt is None:
        raise CmcError("need either a trained model or ground truth")
    crag = build_graph(boundary, config)
    with _stage("features"):
        node_feats, edge_feats = compute_features(crag, raw, boundary)
    if model is None:
        model = train_from_instances(
            [(crag, node_feats, edge_feats, gt)], config.n_trees, config.rng_seed
        )
    with _stage("costs"):
        costs = predict_costs(
            model["node_forest"], model["edge_forest"], crag, node_feats, edge_feats
        )
    with _stage("solve"):
        solution = solve(crag, costs, mode=config.mode, time_limit=config.time_limit)
    with _stage("segmentation"):
        segmentation = extract_segmentation(crag, solution)
    metrics = None
    if gt is not None:
        with _stage("metrics"):
            metrics = segmentation_metrics(
                segmentation, gt, ignore_background=config.ignore_background
            )
    if save_dir is not None:
        with _stage("persist"):
            dump_json(f"{save_dir}/crag.json", crag_to_json(crag))
            dump_json(
                f"{save_dir}/features.json",
                features_to_json(node_feats, edge_feats),
            )
            dump_json(f"{save_dir}/costs.json", costs_to_json(costs))
            dump_json(f"{save_dir}/solution.json", solution_to_json(solution))
            write_labels(f"{save_dir}/segmentation.pgm", segmentation)
            if metrics is not None:
                dump_json(f"{save_dir}/metrics.json", metrics)
    return solution, segmentation, metrics
