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


def _cmd_build_crag(args):
    boundary = read_probability(args.boundary)
    superpixels = read_labels(args.superpixels) if args.superpixels else None
    config = PipelineConfig(
        seed_threshold=args.seed_threshold,
        max_merges=args.max_merges,
        score_threshold=args.score_threshold,
    )
    crag = build_graph(boundary, config, superpixels=superpixels)
    dump_json(args.out, crag_to_json(crag))
    return 0


def _cmd_features(args):
    crag = crag_from_json(_load_json(args.crag), args.crag)
    raw = read_probability(args.raw)
    boundary = read_probability(args.boundary)
    node_feats, edge_feats = compute_features(crag, raw, boundary)
    dump_json(args.out, features_to_json(node_feats, edge_feats))
    return 0


def _cmd_train(args):
    if not (len(args.crag) == len(args.features) == len(args.gt)):
        raise CmcError("--crag, --features and --gt must be given equally often")
    instances = []
    for crag_path, feat_path, gt_path in zip(args.crag, args.features, args.gt):
        crag = crag_from_json(_load_json(crag_path), crag_path)
        node_feats, edge_feats = features_from_json(_load_json(feat_path))
        gt = read_labels(gt_path)
        instances.append((crag, node_feats, edge_feats, gt))
    model = train_from_instances(instances, args.n_trees, args.rng_seed)
    dump_json(args.out, model_to_json(model))
    return 0


def _cmd_costs(args):
    model = model_from_json(_load_json(args.model))
    crag = crag_from_json(_load_json(args.crag), args.crag)
    node_feats, edge_feats = features_from_json(_load_json(args.features))
    costs = predict_costs(
        model["node_forest"], model["edge_forest"], crag, node_feats, edge_feats
    )
    dump_json(args.out, costs_to_json(costs))
    return 0


def _cmd_solve(args):
    crag = crag_from_json(_load_json(args.crag), args.crag)
    costs = costs_from_json(_load_json(args.costs))
    solution = solve(
        crag, costs, mode=MODE_NAMES[args.mode], time_limit=args.time_limit
    )
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
    crag = crag_from_json(_load_json(args.crag), args.crag)
    gt = read_labels(args.gt)
    solution = best_effort(crag, gt, mode=MODE_NAMES[args.mode])
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
    config = (
        config_from_json(_load_json(args.config), args.config)
        if args.config
        else PipelineConfig()
    )
    for field in (
        "seed_threshold",
        "max_merges",
        "score_threshold",
        "n_trees",
        "rng_seed",
        "time_limit",
        "ignore_background",
    ):
        value = getattr(args, field)
        if value is not None:
            setattr(config, field, value)
    if args.mode is not None:
        config.mode = MODE_NAMES[args.mode]

    boundary = read_probability(args.boundary)
    raw = read_probability(args.raw)
    gt = read_labels(args.gt) if args.gt else None
    model = model_from_json(_load_json(args.model)) if args.model else None
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cmc", description="candidate-graph cell segmentation tools"
    )
    defaults = PipelineConfig()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-crag", help="watershed + merge tree + candidates")
    p.add_argument("--boundary", required=True)
    p.add_argument("--superpixels", default=None)
    p.add_argument("--seed-threshold", type=float, default=defaults.seed_threshold)
    p.add_argument("--max-merges", type=int, default=defaults.max_merges)
    p.add_argument("--score-threshold", type=float, default=defaults.score_threshold)
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
    p.add_argument("--n-trees", type=int, default=defaults.n_trees)
    p.add_argument(
        "--seed", "--rng-seed", dest="rng_seed", type=int, default=defaults.rng_seed
    )
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
    p.add_argument("--mode", choices=sorted(MODE_NAMES), default="full")
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
    p.add_argument("--mode", choices=["full", "mt"], default="full")
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
    p.add_argument(
        "--ignore-background", action=argparse.BooleanOptionalAction, default=None
    )
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CmcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
