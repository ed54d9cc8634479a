"""End-to-end orchestration: boundary map in, segmentation out.

Single-image flow plus cross-image training, the JSON forms of the
config and the model, and dump_json, the one writer of every JSON file
the CLI and the pipeline write.  All randomness comes from the explicit
seed in PipelineConfig; the node forest draws tree seeds
rng_seed .. rng_seed+n_trees-1 and the edge forest continues at
rng_seed+n_trees, so the two never share a per-tree stream.
"""

import contextlib
import json
from dataclasses import dataclass, fields

from .costmodel import (
    best_effort,
    costs_to_json,
    forest_from_json,
    forest_to_json,
    label_instances,
    predict_costs,
    train_forest,
)
from .crag import crag_to_json, json_known, json_member, json_value, solution_to_json
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


# JSON kind of each config field, and the fields that may be null because
# the library takes None for them (max_merges None means no level cap)
_CONFIG_KINDS = {f.name: f.type for f in fields(PipelineConfig)}
_CONFIG_NULLABLE = {"max_merges", "score_threshold", "time_limit"}


def config_from_json(obj, doc="config.json"):
    """PipelineConfig from its JSON form; malformed input raises CmcError
    naming `doc`.  Fields left out keep their defaults."""
    json_value(doc, obj, dict, "config")
    json_known(doc, obj, _CONFIG_KINDS, "config")
    values = {}
    for key, value in obj.items():
        if value is not None or key not in _CONFIG_NULLABLE:
            value = json_value(doc, value, _CONFIG_KINDS[key], key)
        values[key] = value
    if values.get("mode", "full") not in MODES:
        raise CmcError(f"{doc}: mode {values['mode']!r} is not one of {MODES}")
    # boundary values are at least 0, so none lies below such a threshold
    if values.get("seed_threshold", 1.0) <= 0:
        raise CmcError(
            f"{doc}: seed_threshold {values['seed_threshold']!r} is not above 0"
        )
    if values.get("time_limit") is not None and values["time_limit"] < 0:
        raise CmcError(f"{doc}: time_limit {values['time_limit']!r} is negative")
    if values.get("max_merges") is not None and values["max_merges"] < 0:
        raise CmcError(f"{doc}: max_merges {values['max_merges']!r} is negative")
    if values.get("n_trees", 1) < 1:
        raise CmcError(f"{doc}: n_trees {values['n_trees']!r} is below 1")
    if values.get("rng_seed", 0) < 0:
        raise CmcError(f"{doc}: rng_seed {values['rng_seed']!r} is negative")
    return PipelineConfig(**values)


@contextlib.contextmanager
def _stage(name):
    try:
        yield
    except StageFailure:
        raise
    except (CmcError, OSError, MemoryError) as exc:
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


_MODEL_KEYS = ("node_forest", "edge_forest")


def model_to_json(model):
    return {key: forest_to_json(model[key]) for key in _MODEL_KEYS}


def model_from_json(obj):
    """Model from its JSON form; malformed input raises CmcError.  The
    object holds the two forests and nothing else, as model_to_json
    writes it."""
    doc = "model.json"
    forests = {key: json_member(doc, obj, key, dict, "model") for key in _MODEL_KEYS}
    json_known(doc, obj, _MODEL_KEYS, "model")
    return {key: forest_from_json(forest, key) for key, forest in forests.items()}


def dump_json(path, obj):
    """Write json.dumps(obj, indent=2, sort_keys=True) + "\n" to path.

    Every JSON file the CLI and the pipeline write goes through here,
    and its bytes are this contract.  The text is built in full before
    the file is opened, so a value json cannot encode (a set, a numpy
    integer, a circular reference) raises as json.dumps does and leaves
    the target untouched; an OS error during the write can still leave
    it truncated.
    """
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


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
