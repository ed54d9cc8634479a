"""Command-line entry points.

Subcommands mirror the stages of the pipeline so intermediates can be
produced, inspected, and fed back individually; `pipeline` chains them
for one image.  Exit code 0 on success, 1 on any error, 2 when the
solver hit its time limit and returned a feasible but possibly
suboptimal assignment.

`solve` and `pipeline` print the objective, whether it is proven
optimal, and `iterations`: 1 plus the number of candidate solutions
that the search turned down because they broke path constraints
(Solution.iterations).
"""

import argparse
import functools
import json
import os
import sys

from .costmodel import best_effort, costs_from_json, costs_to_json, predict_costs
from .crag import crag_from_json, crag_to_json, solution_to_json
from .errors import CmcError
from .evaluate import segmentation_metrics
from .features import compute_features, features_from_json, features_to_json
from .pgm import read_labels, read_probability, write_labels, write_probability
from .pipeline import (
    PipelineConfig,
    build_graph,
    config_from_json,
    dump_json,
    model_from_json,
    model_to_json,
    run_pipeline,
    train_from_instances,
)
from .solver import extract_segmentation, solve
from .synth import generate_synthetic

MODE_NAMES = {"full": "full", "mt": "merge_tree_only", "mc": "leaf_multicut_only"}


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        # ValueError holds JSONDecodeError, UnicodeDecodeError and an int
        # past 4300 digits; RecursionError is nesting too deep to decode
        except (ValueError, RecursionError) as exc:
            raise CmcError(f"{path}: not valid JSON: {exc}") from exc


def _read(path, loader):
    """loader's value of the JSON file at path; a fault names the path."""
    return loader(_load_json(path), path)


def _config(args, path=None):
    """PipelineConfig from the config file at `path`, if any, with each of
    its fields given as a flag laid over it (a --mode short name mapped by
    MODE_NAMES), checked by config_from_json as the file's, then as the
    command line's.  Flags default to None: PipelineConfig holds the
    defaults.  Called before a subcommand opens any input."""
    given = ((k, getattr(args, k, None)) for k in vars(PipelineConfig()))
    flags = {k: MODE_NAMES[v] if k == "mode" else v for k, v in given if v is not None}
    values = vars(_read(path, config_from_json)) if path else {}
    return config_from_json({**values, **flags}, "command line")


def _cmd_build_crag(args):
    config = _config(args)
    boundary = read_probability(args.boundary)
    superpixels = read_labels(args.superpixels) if args.superpixels else None
    crag = build_graph(boundary, config, superpixels=superpixels)
    dump_json(args.out, crag_to_json(crag))
    return 0


def _cmd_features(args):
    crag = _read(args.crag, crag_from_json)
    raw = read_probability(args.raw)
    boundary = read_probability(args.boundary)
    node_feats, edge_feats = compute_features(crag, raw, boundary)
    dump_json(args.out, features_to_json(node_feats, edge_feats))
    return 0


def _cmd_train(args):
    config = _config(args)
    if not (len(args.crag) == len(args.features) == len(args.gt)):
        raise CmcError("--crag, --features and --gt must be given equally often")
    instances = []
    for crag_path, feat_path, gt_path in zip(args.crag, args.features, args.gt):
        crag = _read(crag_path, crag_from_json)
        node_feats, edge_feats = _read(feat_path, features_from_json)
        gt = read_labels(gt_path)
        instances.append((crag, node_feats, edge_feats, gt))
    model = train_from_instances(instances, config.n_trees, config.rng_seed)
    dump_json(args.out, model_to_json(model))
    return 0


def _cmd_costs(args):
    model = _read(args.model, model_from_json)
    crag = _read(args.crag, crag_from_json)
    node_feats, edge_feats = _read(args.features, features_from_json)
    costs = predict_costs(
        model["node_forest"], model["edge_forest"], crag, node_feats, edge_feats
    )
    dump_json(args.out, costs_to_json(costs))
    return 0


def _cmd_solve(args):
    config = _config(args)
    crag = _read(args.crag, crag_from_json)
    costs = _read(args.costs, costs_from_json)
    solution = solve(crag, costs, mode=config.mode, time_limit=config.time_limit)
    dump_json(args.out, solution_to_json(solution))
    if args.seg:
        write_labels(args.seg, extract_segmentation(crag, solution))
    print(
        f"objective {solution.objective!r} optimal {solution.optimal} "
        f"iterations {solution.iterations}"
    )
    return 0 if solution.optimal else 2


def _cmd_eval(args):
    pred = read_labels(args.pred)
    gt = read_labels(args.gt)
    metrics = segmentation_metrics(
        pred, gt, ignore_background=args.ignore_background
    )
    dump_json(args.out, metrics)
    for key in sorted(metrics):
        print(f"{key} {metrics[key]:.6f}")
    return 0


def _cmd_best_effort(args):
    config = _config(args)
    crag = _read(args.crag, crag_from_json)
    gt = read_labels(args.gt)
    solution = best_effort(crag, gt, mode=config.mode)
    dump_json(args.out, solution_to_json(solution))
    return 0


def _cmd_synth(args):
    triples = generate_synthetic(
        args.n_images,
        args.n_cells,
        args.noise_level,
        args.rng_seed,
        chord_fraction=args.chord_fraction,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    for k, (raw, boundary, gt) in enumerate(triples):
        write_probability(os.path.join(args.out_dir, f"raw_{k:03d}.pgm"), raw)
        write_probability(
            os.path.join(args.out_dir, f"boundary_{k:03d}.pgm"), boundary
        )
        write_labels(os.path.join(args.out_dir, f"gt_{k:03d}.pgm"), gt)
    return 0


def _cmd_pipeline(args):
    config = _config(args, args.config)

    boundary = read_probability(args.boundary)
    raw = read_probability(args.raw)
    gt = read_labels(args.gt) if args.gt else None
    model = _read(args.model, model_from_json) if args.model else None
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
    solution, _, metrics = run_pipeline(
        config, boundary, raw, gt=gt, model=model, save_dir=args.out_dir
    )
    print(
        f"objective {solution.objective!r} optimal {solution.optimal} "
        f"iterations {solution.iterations}"
    )
    if metrics is not None:
        for key in sorted(metrics):
            print(f"{key} {metrics[key]:.6f}")
    return 0 if solution.optimal else 2


@functools.cache
def build_parser():
    """The argparse tree of every subcommand, built once per process:
    parse_args leaves the parser as it found it, so main reuses it."""
    parser = argparse.ArgumentParser(
        prog="cmc", description="candidate-graph cell segmentation tools"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-crag", help="watershed + merge tree + candidates")
    p.add_argument("--boundary", required=True)
    p.add_argument("--superpixels", default=None)
    p.add_argument("--seed-threshold", type=float, default=None)
    p.add_argument("--max-merges", type=int, default=None)
    p.add_argument("--score-threshold", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_crag)

    p = sub.add_parser("features", help="node and edge feature vectors")
    p.add_argument("--crag", required=True)
    p.add_argument("--raw", required=True)
    p.add_argument("--boundary", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("train", help="fit selection and merge forests")
    p.add_argument("--crag", action="append", required=True)
    p.add_argument("--features", action="append", required=True)
    p.add_argument("--gt", action="append", required=True)
    p.add_argument("--n-trees", type=int, default=None)
    p.add_argument("--seed", "--rng-seed", dest="rng_seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("costs", help="forest probabilities to costs")
    p.add_argument("--model", required=True)
    p.add_argument("--crag", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_costs)

    p = sub.add_parser("solve", help="optimize selection and merges")
    p.add_argument("--crag", required=True)
    p.add_argument("--costs", required=True)
    p.add_argument("--mode", choices=sorted(MODE_NAMES), default=None)
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seg", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("eval", help="compare a segmentation to ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--ignore-background", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("best-effort", help="ground-truth-optimal assignment")
    p.add_argument("--crag", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--mode", choices=["full", "mt"], default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_best_effort)

    p = sub.add_parser("synth", help="generate synthetic image triples")
    p.add_argument("--n-images", type=int, required=True)
    p.add_argument("--n-cells", type=int, required=True)
    p.add_argument("--noise-level", type=float, default=0.0)
    p.add_argument("--rng-seed", type=int, required=True)
    p.add_argument("--chord-fraction", type=float, default=0.5)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("pipeline", help="boundary map to segmentation")
    p.add_argument("--boundary", required=True)
    p.add_argument("--raw", required=True)
    p.add_argument("--gt", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--seed-threshold", type=float, default=None)
    p.add_argument("--max-merges", type=int, default=None)
    p.add_argument("--score-threshold", type=float, default=None)
    p.add_argument("--n-trees", type=int, default=None)
    p.add_argument("--rng-seed", type=int, default=None)
    p.add_argument("--mode", choices=sorted(MODE_NAMES), default=None)
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--ignore-background", action=argparse.BooleanOptionalAction)
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CmcError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
