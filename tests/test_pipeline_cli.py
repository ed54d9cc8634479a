import argparse
import dataclasses
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmc import cli
from cmc.cli import main
from cmc.costmodel import CostTable, costs_to_json, forest_to_json, train_forest
from cmc.crag import (
    Candidate,
    build_crag,
    crag_from_json,
    crag_to_json,
    validate_solution,
)
from cmc.errors import CmcError, SingleClass, StageFailure
from cmc.evaluate import segmentation_metrics
from cmc.features import (
    compute_features,
    edge_feature_names,
    features_from_json,
    features_to_json,
    node_feature_names,
)
from cmc.hierarchy import seeded_watershed
from cmc.pgm import read_labels, write_labels, write_probability
from cmc.pipeline import (
    PipelineConfig,
    build_graph,
    config_from_json,
    dump_json,
    model_from_json,
    model_to_json,
    run_pipeline,
    train_from_instances,
    train_model,
)
from cmc.synth import generate_synthetic

from util import (
    MALFORMED_FOREST,
    frustrated_grid,
    leaf_image,
    malformed_forest,
    old_model_json,
    quad_costs,
    quad_crag,
    quad_gt,
    subtree_heights,
)


def easy_triple(seed=3):
    return generate_synthetic(1, 3, 0.0, seed)[0]


def small_config(**overrides):
    defaults = dict(n_trees=20, rng_seed=7)
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def test_config_json_roundtrip():
    cfg = PipelineConfig(
        seed_threshold=0.4,
        max_merges=3,
        score_threshold=1.5,
        n_trees=10,
        rng_seed=99,
        mode="merge_tree_only",
        ignore_background=False,
        time_limit=2.0,
    )
    assert config_from_json(json.loads(json.dumps(dataclasses.asdict(cfg)))) == cfg
    with pytest.raises(CmcError):
        config_from_json({"seed_threshold": 0.5, "n_neighbors": 3})


def test_build_graph_stages():
    _, boundary, _ = easy_triple()
    cfg = small_config()
    crag = build_graph(boundary, cfg)
    superpixels = seeded_watershed(boundary, cfg.seed_threshold)
    assert len(crag.leaves()) == superpixels.max()
    assert max(subtree_heights(crag).values()) <= cfg.max_merges
    # a precomputed oversegmentation replaces the watershed stage verbatim
    assert build_graph(boundary, cfg, superpixels=superpixels) == crag


def test_build_graph_wraps_stage_errors():
    bad = np.full((8, 8), np.nan)
    with pytest.raises(StageFailure) as info:
        build_graph(bad, small_config())
    assert info.value.stage == "watershed"


def out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 3.10 GiB for an array")


def test_run_pipeline_names_an_allocation_failure(monkeypatch):
    raw, boundary, gt = easy_triple()
    monkeypatch.setattr("cmc.pipeline.compute_features", out_of_memory)
    with pytest.raises(StageFailure) as info:
        run_pipeline(small_config(), boundary, raw, gt=gt)
    assert info.value.stage == "features"
    assert isinstance(info.value.cause, MemoryError)
    assert str(info.value) == "features: Unable to allocate 3.10 GiB for an array"


def test_cli_features_allocation_failure_exits_1(tmp_path, capsys, monkeypatch):
    crag, _, _, _ = edgeless_instance()
    (tmp_path / "crag.json").write_text(json.dumps(crag_to_json(crag)))
    write_probability(str(tmp_path / "image.pgm"), np.zeros((1, 3)))
    monkeypatch.setattr(cli, "compute_features", out_of_memory)
    image = str(tmp_path / "image.pgm")
    rc = main(["features", "--crag", str(tmp_path / "crag.json"), "--raw", image,
               "--boundary", image, "--out", str(tmp_path / "features.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: Unable to allocate") and "Traceback" not in err
    assert not (tmp_path / "features.json").exists()


def test_run_pipeline_self_train_perfect_on_clean_image():
    raw, boundary, gt = easy_triple()
    sol, seg, metrics = run_pipeline(small_config(), boundary, raw, gt=gt)
    assert sol.optimal
    assert metrics["f_score"] == 1.0
    assert metrics["voi"] == 0.0
    assert seg.shape == gt.shape


def test_run_pipeline_needs_model_or_gt():
    raw, boundary, _ = easy_triple()
    with pytest.raises(CmcError):
        run_pipeline(small_config(), boundary, raw)


def test_train_model_and_json_roundtrip():
    triples = generate_synthetic(2, 3, 0.1, 17)
    cfg = small_config()
    model = train_model(triples, cfg)
    back = model_from_json(json.loads(json.dumps(model_to_json(model))))
    raw, boundary, gt = easy_triple(seed=23)
    a = run_pipeline(cfg, boundary, raw, gt=gt, model=model)
    b = run_pipeline(cfg, boundary, raw, gt=gt, model=back)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])


def edgeless_instance():
    """Two leaves that do not touch: both node classes, no edge at all."""
    labels = leaf_image({1: [(0, 0)], 2: [(0, 2)]}, 3, 1)
    crag = build_crag([], [], labels)
    node_feats, edge_feats = compute_features(crag, np.zeros((1, 3)), np.zeros((1, 3)))
    return crag, node_feats, edge_feats, np.array([[1, 0, 0]])


def test_train_without_edges_is_single_class():
    with pytest.raises(StageFailure) as info:
        train_from_instances([edgeless_instance()], 5, 0)
    assert info.value.stage == "train-edges"
    assert isinstance(info.value.cause, SingleClass)


@pytest.mark.parametrize("entry", ["run_pipeline", "train_model"])
def test_library_config_checked_before_any_stage(entry, monkeypatch):
    """A PipelineConfig gets config.json's checks before the watershed
    runs; n_trees 2.0 used to end in a TypeError at train-nodes."""
    raw, boundary, gt = easy_triple()

    def watershed(*args):
        raise AssertionError("the watershed ran")

    monkeypatch.setattr("cmc.pipeline.seeded_watershed", watershed)
    config = PipelineConfig(n_trees=2.0)
    with pytest.raises(CmcError, match="^n_trees is not a valid int: 2.0$"):
        if entry == "run_pipeline":
            run_pipeline(config, boundary, raw, gt=gt)
        else:
            train_model([(raw, boundary, gt)], config)


# the edge forest's seed past int64, named by both parameters
SEED_PAIR = (
    "rng_seed 9223372036854775807 + n_trees 2, the edge forest's seed, is not below 2**63"
)


@pytest.mark.parametrize("entry", ["run_pipeline", "train_model", "train_from_instances"])
def test_library_seed_pair_checked_before_any_stage(entry, monkeypatch):
    """rng_seed + n_trees seeds the edge forest, so it must fit as every
    seed does; the pair used to fail only at train-edges, after the
    watershed, the features, best-effort and the node forest."""
    raw, boundary, gt = easy_triple()

    def stage(*args, **kwargs):
        raise AssertionError("a stage ran")

    monkeypatch.setattr("cmc.pipeline.seeded_watershed", stage)
    monkeypatch.setattr("cmc.pipeline.best_effort", stage)
    config = PipelineConfig(n_trees=2, rng_seed=2**63 - 1)
    with pytest.raises(CmcError) as info:
        if entry == "run_pipeline":
            run_pipeline(config, boundary, raw, gt=gt)
        elif entry == "train_model":
            train_model([(raw, boundary, gt)], config)
        else:
            train_from_instances([edgeless_instance()], 2, 2**63 - 1)
    assert str(info.value) == SEED_PAIR
    # the largest seed whose edge forest seed still fits
    assert config_from_json({"n_trees": 2, "rng_seed": 2**63 - 3}).rng_seed == 2**63 - 3
    with pytest.raises(CmcError, match=r"^config\.json: rng_seed 9223372036854775806 \+"):
        config_from_json({"n_trees": 2, "rng_seed": 2**63 - 2})


def test_numpy_forest_parameters_round_trip(tmp_path):
    """numpy ints for n_trees and rng_seed used to stay in the forest,
    where dump_json cannot write them."""
    raw, boundary, gt = easy_triple()
    config = PipelineConfig(n_trees=np.int64(2), rng_seed=np.int64(3))
    model = train_model([(raw, boundary, gt)], config)
    for forest in model.values():
        assert type(forest.n_trees) is int and type(forest.rng_seed) is int
    assert model["edge_forest"].rng_seed == 5
    dump_json(tmp_path / "model.json", model_to_json(model))
    loaded = model_from_json(json.loads((tmp_path / "model.json").read_text()))
    assert model_to_json(loaded) == model_to_json(model)
    plain = train_model([(raw, boundary, gt)], PipelineConfig(n_trees=2, rng_seed=3))
    assert model_to_json(plain) == model_to_json(model)


def test_cli_train_without_edges_fails_by_name(tmp_path, capsys):
    crag, node_feats, edge_feats, gt = edgeless_instance()
    (tmp_path / "crag.json").write_text(json.dumps(crag_to_json(crag)))
    (tmp_path / "features.json").write_text(
        json.dumps(features_to_json(node_feats, edge_feats))
    )
    write_labels(str(tmp_path / "gt.pgm"), gt)
    out = tmp_path / "model.json"
    code = main(
        [
            "train",
            "--crag", str(tmp_path / "crag.json"),
            "--features", str(tmp_path / "features.json"),
            "--gt", str(tmp_path / "gt.pgm"),
            "--n-trees", "5",
            "--out", str(out),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "train-edges: training samples contain only one class" in err
    assert not out.exists()


def staged_quad_files(tmp_path):
    """crag.json, features.json, model.json, costs.json and gt.pgm of the
    quad graph, each valid, as the staged CLI writes them."""
    crag = quad_crag()
    rng = np.random.default_rng(23)
    raw, boundary = rng.random((4, 4)), rng.random((4, 4))
    node_feats, edge_feats = compute_features(crag, raw, boundary)
    model = train_from_instances([(crag, node_feats, edge_feats, quad_gt())], 3, 0)
    files = {
        "crag.json": crag_to_json(crag),
        "features.json": features_to_json(node_feats, edge_feats),
        "model.json": model_to_json(model),
        "costs.json": costs_to_json(
            CostTable({i: -1.0 for i in crag.ids()}, {e: 1.0 for e in crag.adjacency})
        ),
    }
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    write_labels(str(tmp_path / "gt.pgm"), quad_gt())
    return {name: str(tmp_path / name) for name in [*files, "gt.pgm"]}


# the feature schema, so that a features.json below fails on its own fault
SCHEMA = {"node_schema": node_feature_names(), "edge_schema": edge_feature_names()}


# broken file -> (its content, as JSON or as the text of a str, the
# command reading it, what the error names); each used to end in a
# traceback (KeyError 'trees', KeyError 'edges', OverflowError,
# ValueError on "x", KeyError on the first candidate id, RecursionError
# on deep nesting, ValueError on an int past 4300 digits) or, for the
# empty forest, in NaN costs and exit 0
MALFORMED_STAGE_INPUT = {
    "model without trees": (
        "model.json", {"node_forest": {}}, "costs", "model.json"
    ),
    "features without edges": (
        "features.json", {**SCHEMA, "nodes": {}}, "train",
        "features.json: features has no 'edges'",
    ),
    "model with an empty forest": (
        "model.json",
        {key: {"n_trees": 0, "rng_seed": 0, "n_features": 147, "sizes": [],
               "feature": [], "value": [], "left": [], "right": []}
         for key in ("node_forest", "edge_forest")},
        "costs",
        "model.json: node_forest: n_trees 0 is below 1",
    ),
    "feature beyond float range": (
        "features.json", {**SCHEMA, "nodes": {"1": [10**400] * 147}, "edges": {}},
        "costs",
        "non-finite",
    ),
    "non-numeric cost": (
        "costs.json", {"f": {"1": "x"}, "g": {}}, "solve", "costs.json"
    ),
    "features of no candidate": (
        "features.json", {**SCHEMA, "nodes": {}, "edges": {}}, "costs",
        "node features",
    ),
    "nesting past the decoder": (
        "costs.json", "[" * 100_000, "solve", "costs.json: not valid JSON"
    ),
    "int past 4300 digits": (
        "costs.json", "1" * 5000, "solve", "costs.json: not valid JSON"
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_STAGE_INPUT))
def test_cli_malformed_stage_input_fails_by_name(case, tmp_path, capsys):
    name, content, command, named = MALFORMED_STAGE_INPUT[case]
    files = staged_quad_files(tmp_path)
    out = tmp_path / "out.json"
    argv = {
        "costs": ["--model", files["model.json"], "--crag", files["crag.json"],
                  "--features", files["features.json"]],
        "train": ["--crag", files["crag.json"], "--features", files["features.json"],
                  "--gt", files["gt.pgm"], "--n-trees", "3"],
        "solve": ["--crag", files["crag.json"], "--costs", files["costs.json"]],
    }[command]
    assert main([command, *argv, "--out", str(out)]) == 0
    out.unlink()
    text = content if isinstance(content, str) else json.dumps(content)
    (tmp_path / name).write_text(text)
    assert main([command, *argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(MALFORMED_FOREST))
def test_cli_costs_rejects_malformed_forest(case, tmp_path, capsys):
    files = staged_quad_files(tmp_path)
    argv = ["costs", "--model", files["model.json"], "--crag", files["crag.json"],
            "--features", files["features.json"], "--out", str(tmp_path / "out.json")]
    model = json.loads((tmp_path / "model.json").read_text())
    X = [[0.1] * 5, [0.9] * 5] * 4
    forest = forest_to_json(train_forest((X, [0, 1] * 4), n_trees=2, rng_seed=5))
    model["node_forest"] = malformed_forest(forest, case)
    (tmp_path / "model.json").write_text(json.dumps(model))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "model.json" in err
    assert not (tmp_path / "out.json").exists()


def test_old_node_list_model_rejected(tmp_path, capsys):
    """A model.json of the node-list form that earlier releases wrote is
    rejected by name, in the library and by cmc costs."""
    files = staged_quad_files(tmp_path)
    model = model_from_json(json.loads((tmp_path / "model.json").read_text()))
    old = json.loads(json.dumps(old_model_json(model)))
    with pytest.raises(CmcError, match=r"^model\.json: node_forest holds 'trees'"):
        model_from_json(old)
    (tmp_path / "model.json").write_text(json.dumps(old))
    out = tmp_path / "costs.json"
    out.unlink()
    assert main(["costs", "--model", files["model.json"], "--crag", files["crag.json"],
                 "--features", files["features.json"], "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {files['model.json']}: node_forest holds 'trees'")
    assert not out.exists()


@pytest.mark.parametrize("extra", [["extra"], ["edge_forests", "node"]])
def test_unknown_model_keys_rejected(tmp_path, capsys, extra):
    """A member beside the two forests, a misspelled forest key among
    them, used to load and be dropped on writing; it is rejected by name,
    in the library and by cmc costs, as the forests' own unknown keys
    are."""
    files = staged_quad_files(tmp_path)
    obj = json.loads((tmp_path / "model.json").read_text())
    for key in extra:
        obj[key] = obj["edge_forest"]
    message = f"model has unknown key {sorted(extra)[0]!r}"
    with pytest.raises(CmcError) as info:
        model_from_json(obj)
    assert str(info.value) == f"model.json: {message}"
    (tmp_path / "model.json").write_text(json.dumps(obj))
    out = tmp_path / "costs.json"
    out.unlink()
    assert main(["costs", "--model", files["model.json"], "--crag", files["crag.json"],
                 "--features", files["features.json"], "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {files['model.json']}: {message}\n"
    assert not out.exists()


# a flag and its command, where the flag's only file (the second, for
# train) is a broken copy -> the copy's content and the fault named after
# its path; each but the crag's used to be named by a fixed file name
BROKEN_FILE = {
    "train --features": (
        {**SCHEMA, "nodes": {"1": [0.0]}, "edges": {}},
        "node 1 is not a list of 147 numbers",
    ),
    "train --crag": ({}, "crag has no 'height'"),
    "costs --model": ({"node_forest": {}}, "model has no 'edge_forest'"),
    "solve --costs": ({"f": {"1": "x"}, "g": {}}, "f[1] is not a valid float: 'x'"),
}


@pytest.mark.parametrize("case", list(BROKEN_FILE))
def test_cli_names_a_broken_file_by_its_path(case, tmp_path, capsys):
    command, flag = case.split()
    content, fault = BROKEN_FILE[case]
    files = staged_quad_files(tmp_path)
    name = f"{flag[2:]}.json"
    (tmp_path / "copy").mkdir()
    broken = tmp_path / "copy" / name
    broken.write_text((tmp_path / name).read_text())
    good = {f"--{key}": files[f"{key}.json"] for key in ("crag", "features", "model", "costs")}
    bad = {**good, flag: str(broken)}

    def flags(paths, *names):
        return [item for name in names for item in (name, paths[name])]

    gt = ["--gt", files["gt.pgm"]]
    argv = {
        "train": ["train", *flags(good, "--crag", "--features"), *gt,
                  *flags(bad, "--crag", "--features"), *gt, "--n-trees", "3"],
        "costs": ["costs", *flags(bad, "--model", "--crag", "--features")],
        "solve": ["solve", *flags(bad, "--crag", "--costs")],
    }[command]
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    out.unlink()
    broken.write_text(json.dumps(content))
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {broken}: {fault}\n"
    assert not out.exists()


def test_cli_seed_pair_fails_before_any_input(tmp_path, capsys, monkeypatch):
    """A seed and tree count whose edge forest seed is past int64 fail
    before any input is read, named by the command line or the config
    file; cmc train used to fail only at train-edges."""
    images = write_easy_images(tmp_path)
    missing = str(tmp_path / "missing.json")

    def watershed(*args):
        raise AssertionError("the watershed ran")

    monkeypatch.setattr("cmc.pipeline.seeded_watershed", watershed)
    out = tmp_path / "model.json"
    assert main(["train", "--crag", missing, "--features", missing, "--gt", images["gt"],
                 "--n-trees", "2", "--seed", str(2**63 - 1), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: command line: {SEED_PAIR}\n"
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"n_trees": 2, "rng_seed": 2**63 - 1}))
    out_dir = tmp_path / "run"
    assert main(["pipeline", "--boundary", images["boundary"], "--raw", images["raw"],
                 "--gt", images["gt"], "--config", str(config),
                 "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"error: {config}: {SEED_PAIR}\n"
    assert not out.exists() and not out_dir.exists()


@pytest.mark.parametrize("command", ["solve", "best-effort", "pipeline"])
def test_cli_mode_short_names(command, tmp_path, monkeypatch, capsys):
    """--mode takes the short names of cli.MODE_NAMES and hands on the
    library's names; not given, the mode is PipelineConfig's."""
    files = staged_quad_files(tmp_path)
    images = write_easy_images(tmp_path)
    seen = []

    def recording(*args, mode=None, **kwargs):
        seen.append(args[0].mode if command == "pipeline" else mode)
        raise CmcError("recorded")

    attr = {"solve": "solve", "best-effort": "best_effort", "pipeline": "run_pipeline"}
    monkeypatch.setattr(cli, attr[command], recording)
    argv, names = {
        "solve": (["--crag", files["crag.json"], "--costs", files["costs.json"],
                   "--out", str(tmp_path / "out.json")], ["full", "mc", "mt"]),
        "best-effort": (["--crag", files["crag.json"], "--gt", files["gt.pgm"],
                         "--out", str(tmp_path / "out.json")], ["full", "mt"]),
        "pipeline": (["--boundary", images["boundary"], "--raw", images["raw"],
                      "--gt", images["gt"]], ["full", "mc", "mt"]),
    }[command]
    assert main([command, *argv]) == 1
    for name in names:
        assert main([command, *argv, "--mode", name]) == 1
    capsys.readouterr()
    want = [PipelineConfig().mode] + [cli.MODE_NAMES[name] for name in names]
    assert seen == want


def test_run_parameter_flags_default_to_none():
    """PipelineConfig holds every default: each flag of one of its fields
    reads None when not given.  eval takes no PipelineConfig; its
    --ignore-background is a switch, off unless given."""
    parser = cli.build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    fields = set(vars(PipelineConfig()))
    seen = set()
    for name, sub in commands.choices.items():
        for action in sub._actions:
            if action.dest in fields and name != "eval":
                assert action.default is None, (name, action.dest)
                seen.add(action.dest)
    assert seen == fields


def test_run_pipeline_persists_intermediates(tmp_path):
    raw, boundary, gt = easy_triple()
    cfg = small_config()
    sol, seg, metrics = run_pipeline(
        cfg, boundary, raw, gt=gt, save_dir=str(tmp_path)
    )
    names = {
        "crag.json",
        "features.json",
        "costs.json",
        "solution.json",
        "segmentation.pgm",
        "metrics.json",
    }
    assert names <= {p.name for p in tmp_path.iterdir()}
    crag = crag_from_json(json.loads((tmp_path / "crag.json").read_text()))
    assert crag == build_graph(boundary, cfg)
    assert np.array_equal(read_labels(str(tmp_path / "segmentation.pgm")), seg)
    saved = json.loads((tmp_path / "solution.json").read_text())
    assert saved["objective"] == sol.objective
    assert json.loads((tmp_path / "metrics.json").read_text()) == metrics


# ---------------------------------------------------------------------------
# command-line interface


def test_cli_stage_chain(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(
        [
            "synth",
            "--n-images", "1",
            "--n-cells", "3",
            "--noise-level", "0",
            "--rng-seed", "3",
            "--out-dir", str(data),
        ]
    ) == 0
    boundary = str(data / "boundary_000.pgm")
    raw = str(data / "raw_000.pgm")
    gt = str(data / "gt_000.pgm")
    crag = str(tmp_path / "crag.json")
    feats = str(tmp_path / "features.json")
    model = str(tmp_path / "model.json")
    costs = str(tmp_path / "costs.json")
    solution = str(tmp_path / "solution.json")
    seg = str(tmp_path / "seg.pgm")
    metrics = str(tmp_path / "metrics.json")

    assert main(["build-crag", "--boundary", boundary, "--out", crag]) == 0
    # the labels state the leaves: every entry is an inner candidate
    entries = json.loads(open(crag).read())["candidates"]
    assert entries and all(set(e) == {"id", "children"} and e["children"]
                           for e in entries)
    assert main(
        ["features", "--crag", crag, "--raw", raw, "--boundary", boundary,
         "--out", feats]
    ) == 0
    assert main(
        ["train", "--crag", crag, "--features", feats, "--gt", gt,
         "--n-trees", "10", "--seed", "7", "--out", model]
    ) == 0
    assert main(
        ["costs", "--model", model, "--crag", crag, "--features", feats,
         "--out", costs]
    ) == 0
    assert main(
        ["solve", "--crag", crag, "--costs", costs, "--out", solution,
         "--seg", seg]
    ) == 0
    assert "objective" in capsys.readouterr().out
    assert main(
        ["eval", "--pred", seg, "--gt", gt, "--ignore-background",
         "--out", metrics]
    ) == 0

    scores = json.loads(open(metrics).read())
    # a clean self-trained image segments exactly
    assert scores["f_score"] == 1.0 and scores["voi"] == 0.0
    # the persisted solution is feasible on the persisted graph
    from cmc.crag import Solution

    crag_obj = crag_from_json(json.loads(open(crag).read()))
    sol = json.loads(open(solution).read())
    restored = Solution(
        y={int(k): v for k, v in sol["y"].items()},
        m={tuple(map(int, k.split("-"))): v for k, v in sol["m"].items()},
        objective=sol["objective"],
    )
    assert validate_solution(crag_obj, restored) == []


def test_cli_features_of_large_leaf_ids(tmp_path):
    """Leaf ids count for nothing but their order: a 2x4 graph with
    leaves 1 and 2**40 gives the vectors of the same graph with leaves 1
    and 2, where per-leaf tables sized by the largest id ran out of
    memory."""
    rng = np.random.default_rng(29)
    raw, boundary = str(tmp_path / "raw.pgm"), str(tmp_path / "boundary.pgm")
    write_probability(raw, rng.random((2, 4)))
    write_probability(boundary, rng.random((2, 4)))
    vectors = []
    for big in (2, 2**40):
        labels = np.array([[1, 1, big, big], [1, big, big, big]])
        crag = build_crag([Candidate(big + 1, (1, big))], [(1, big)], labels)
        crag_path, out = tmp_path / f"crag{big}.json", str(tmp_path / f"f{big}.json")
        crag_path.write_text(json.dumps(crag_to_json(crag)))
        assert main(
            ["features", "--crag", str(crag_path), "--raw", raw, "--boundary", boundary,
             "--out", out]
        ) == 0
        with open(out) as f:
            feats = json.load(f)
        rename = {"1": "1", str(big): "2", str(big + 1): "3"}
        nodes = {rename[k]: v for k, v in feats["nodes"].items()}
        assert list(feats["edges"]) == [f"1-{big}"]
        vectors.append((nodes, list(feats["edges"].values())))
    assert vectors[0] == vectors[1]


def test_cli_best_effort(tmp_path):
    data = tmp_path / "data"
    main(["synth", "--n-images", "1", "--n-cells", "2", "--noise-level", "0",
          "--rng-seed", "5", "--out-dir", str(data)])
    crag = str(tmp_path / "crag.json")
    out = str(tmp_path / "be.json")
    main(["build-crag", "--boundary", str(data / "boundary_000.pgm"),
          "--out", crag])
    assert main(
        ["best-effort", "--crag", crag, "--gt", str(data / "gt_000.pgm"),
         "--out", out]
    ) == 0
    sol = json.loads(open(out).read())
    assert sol["objective"] == 0.0 and any(sol["y"].values())


def test_cli_best_effort_and_train_on_an_empty_image(tmp_path, capsys):
    """A valid 2x0 graph and ground truth, which features and solve
    accept: best-effort writes the empty assignment, and train fails by
    name on its training samples, where both used to end in numpy's
    zero-size reduction traceback."""
    crag = tmp_path / "crag.json"
    crag.write_text(json.dumps(
        {"width": 0, "height": 2, "leaf_labels": [], "candidates": [], "adjacency": []}
    ))
    features = tmp_path / "features.json"
    features.write_text(json.dumps(features_to_json({}, {})))
    gt = str(tmp_path / "gt.pgm")
    write_labels(gt, np.zeros((2, 0), dtype=np.int64))
    out = tmp_path / "be.json"
    assert main(["best-effort", "--crag", str(crag), "--gt", gt, "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == {"m": {}, "objective": 0.0, "y": {}}
    model = tmp_path / "model.json"
    code = main(
        ["train", "--crag", str(crag), "--features", str(features), "--gt", gt,
         "--out", str(model)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: train-nodes: training samples contain only one class\n"
    assert not model.exists()


def test_cli_pipeline_deterministic(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--n-images", "1", "--n-cells", "3", "--noise-level", "0.1",
          "--rng-seed", "13", "--out-dir", str(data)])
    args = [
        "pipeline",
        "--boundary", str(data / "boundary_000.pgm"),
        "--raw", str(data / "raw_000.pgm"),
        "--gt", str(data / "gt_000.pgm"),
        "--n-trees", "15",
        "--rng-seed", "21",
    ]
    rc_a = main(args + ["--out-dir", str(tmp_path / "a")])
    rc_b = main(args + ["--out-dir", str(tmp_path / "b")])
    assert rc_a == 0 and rc_b == 0
    capsys.readouterr()
    for name in ("solution.json", "segmentation.pgm", "costs.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


def test_cli_solve_timeout_exit_code(tmp_path, capsys):
    crag, costs = frustrated_grid()
    crag_path = tmp_path / "crag.json"
    costs_path = tmp_path / "costs.json"
    crag_path.write_text(json.dumps(crag_to_json(crag)))
    costs_path.write_text(json.dumps(costs_to_json(costs)))
    rc = main(
        ["solve", "--crag", str(crag_path), "--costs", str(costs_path),
         "--time-limit", "1e-6", "--out", str(tmp_path / "sol.json")]
    )
    assert rc == 2
    assert "optimal False" in capsys.readouterr().out


@pytest.mark.parametrize("limit", ["nan", "inf", "-1"])
def test_cli_bad_time_limit_fails(limit, tmp_path, capsys):
    """A NaN limit used to mean no limit at all."""
    crag = quad_crag()
    crag_path = tmp_path / "crag.json"
    costs_path = tmp_path / "costs.json"
    crag_path.write_text(json.dumps(crag_to_json(crag)))
    costs_path.write_text(json.dumps(costs_to_json(quad_costs(crag))))
    out = tmp_path / "sol.json"
    rc = main(
        ["solve", "--crag", str(crag_path), "--costs", str(costs_path),
         "--time-limit", limit, "--out", str(out)]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()

    images = write_easy_images(tmp_path)
    out_dir = tmp_path / "run"
    rc = main(
        ["pipeline", "--boundary", images["boundary"], "--raw", images["raw"],
         "--gt", images["gt"], "--n-trees", "2", "--time-limit", limit,
         "--out-dir", str(out_dir)]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out_dir / "solution.json").exists()


@pytest.mark.parametrize("height, width", [(2, 3), (0, 0)])
def test_cli_solve_without_candidates(height, width, tmp_path):
    crag_path = tmp_path / "crag.json"
    costs_path = tmp_path / "costs.json"
    leaf_labels = [-1, height * width] if height * width else []
    crag = {"width": width, "height": height, "leaf_labels": leaf_labels,
            "candidates": [], "adjacency": []}
    crag_path.write_text(json.dumps(crag))
    costs_path.write_text(json.dumps({"f": {}, "g": {}}))
    seg = tmp_path / "seg.pgm"
    rc = main(
        ["solve", "--crag", str(crag_path), "--costs", str(costs_path),
         "--out", str(tmp_path / "sol.json"), "--seg", str(seg)]
    )
    assert rc == 0
    assert np.array_equal(read_labels(str(seg)), np.zeros((height, width)))


@pytest.mark.parametrize("size", [b"abc 2", b"-1 -1"])
def test_cli_eval_non_numeric_pgm_header_fails(size, tmp_path, capsys):
    pred = tmp_path / "pred.pgm"
    pred.write_bytes(b"P5\n" + size + b"\n65535\n\x00\x00")
    write_labels(str(tmp_path / "gt.pgm"), np.zeros((2, 2), dtype=np.int64))
    rc = main(
        ["eval", "--pred", str(pred), "--gt", str(tmp_path / "gt.pgm"),
         "--out", str(tmp_path / "m.json")]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_missing_file_reports_error(tmp_path, capsys):
    rc = main(
        ["build-crag", "--boundary", str(tmp_path / "nope.pgm"),
         "--out", str(tmp_path / "crag.json")]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_negative_max_merges_fails(tmp_path, capsys):
    _, boundary, _ = easy_triple()
    write_probability(str(tmp_path / "boundary.pgm"), boundary)
    out = tmp_path / "crag.json"
    rc = main(
        ["build-crag", "--boundary", str(tmp_path / "boundary.pgm"),
         "--max-merges", "-1", "--out", str(out)]
    )
    assert rc == 1
    assert "max_merges" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["build-crag", "pipeline"])
def test_cli_nan_score_threshold_fails(command, tmp_path, capsys):
    """A NaN threshold used to keep every candidate, as no threshold does."""
    images = write_easy_images(tmp_path)
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    argv = {
        "build-crag": ["build-crag", "--boundary", images["boundary"],
                       "--out", str(out_dir / "crag.json")],
        "pipeline": ["pipeline", "--boundary", images["boundary"], "--raw", images["raw"],
                     "--gt", images["gt"], "--n-trees", "2", "--out-dir", str(out_dir)],
    }[command]
    assert main([*argv, "--score-threshold", "0.5"]) == 0
    (out_dir / "crag.json").unlink()
    assert main([*argv, "--score-threshold", "nan"]) == 1
    err = capsys.readouterr().err
    assert err == "error: command line: score_threshold is not a valid float: nan\n"
    assert not (out_dir / "crag.json").exists()


# a flag value that config_from_json rejects -> the error after "command
# line: "; n_trees and rng_seed used to fail only at train-nodes, after
# the watershed, merge tree and features, and time_limit only at solve;
# train and solve used to read every input first, and named no command
# line
BAD_FLAGS = {
    "pipeline --n-trees 0": "n_trees 0 is below 1",
    "pipeline --rng-seed -1": "rng_seed -1 is negative",
    "pipeline --time-limit -1": "time_limit -1.0 is negative",
    "pipeline --time-limit nan": "time_limit is not a valid float: nan",
    "pipeline --seed-threshold 0": "seed_threshold 0.0 is not above 0",
    "pipeline --max-merges -2": "max_merges -2 is negative",
    "build-crag --seed-threshold -1": "seed_threshold -1.0 is not above 0",
    "build-crag --max-merges -1": "max_merges -1 is negative",
    "build-crag --score-threshold inf": "score_threshold is not a valid float: inf",
    "train --n-trees 0": "n_trees 0 is below 1",
    "train --seed -1": "rng_seed -1 is negative",
    "solve --time-limit nan": "time_limit is not a valid float: nan",
    "solve --time-limit -1": "time_limit -1.0 is negative",
}


@pytest.mark.parametrize("case", list(BAD_FLAGS))
def test_cli_bad_flag_fails_before_any_stage(case, tmp_path, capsys, monkeypatch):
    """Flags get the config file's checks: each bad one exits 1 naming the
    command line, before the watershed runs and before any file is
    written, also when a valid config file is given; train and solve,
    given an input that does not exist, fail on the flag before they
    open any input."""
    command, flag, value = case.split()
    images = write_easy_images(tmp_path)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"n_trees": 2}))
    out_dir = tmp_path / "run"
    missing = str(tmp_path / "missing.json")
    out = ["--out", str(tmp_path / "crag.json")]
    argv = {
        "build-crag": ["build-crag", "--boundary", images["boundary"], *out],
        "pipeline": ["pipeline", "--boundary", images["boundary"],
                     "--raw", images["raw"], "--gt", images["gt"],
                     "--config", str(config), "--out-dir", str(out_dir)],
        "train": ["train", "--crag", missing, "--features", missing,
                  "--gt", images["gt"], *out],
        "solve": ["solve", "--crag", missing, "--costs", missing, *out],
    }[command]

    def watershed(*args):
        raise AssertionError("the watershed ran")

    monkeypatch.setattr("cmc.pipeline.seeded_watershed", watershed)
    assert main([*argv, flag, value]) == 1
    err = capsys.readouterr().err
    assert err == f"error: command line: {BAD_FLAGS[case]}\n"
    assert not out_dir.exists() and not (tmp_path / "crag.json").exists()


def test_cli_empty_boundary_map_fails(tmp_path, capsys):
    """A 0x0 boundary map used to end in numpy's zero-size reduction
    ValueError."""
    boundary = tmp_path / "boundary.pgm"
    boundary.write_bytes(b"P5\n0 0\n65535\n")
    out = tmp_path / "crag.json"
    rc = main(["build-crag", "--boundary", str(boundary), "--out", str(out)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["pipeline", "pipeline --config", "train", "synth"])
def test_cli_negative_rng_seed_fails(command, tmp_path, capsys):
    """Each used to end in numpy's "expected non-negative integer"
    ValueError."""
    images = write_easy_images(tmp_path)
    (tmp_path / "staged").mkdir()
    files = staged_quad_files(tmp_path / "staged")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"rng_seed": -1}))
    pipeline = ["pipeline", "--boundary", images["boundary"], "--raw", images["raw"],
                "--gt", images["gt"], "--n-trees", "2"]
    argv = {
        "pipeline": pipeline + ["--rng-seed", "-5"],
        "pipeline --config": pipeline + ["--config", str(config)],
        "train": ["train", "--crag", files["crag.json"],
                  "--features", files["features.json"], "--gt", files["gt.pgm"],
                  "--seed", "-2", "--out", str(tmp_path / "model_out.json")],
        "synth": ["synth", "--n-images", "1", "--n-cells", "2", "--rng-seed", "-1",
                  "--out-dir", str(tmp_path / "data")],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "rng_seed" in err


def test_cli_synth_negative_image_count_fails(tmp_path, capsys):
    """Used to exit 0 and leave an empty --out-dir."""
    out_dir = tmp_path / "data"
    rc = main(["synth", "--n-images", "-1", "--n-cells", "2", "--rng-seed", "1",
               "--out-dir", str(out_dir)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "n_images" in err
    assert not out_dir.exists()


def test_cli_eval_matches_library(tmp_path):
    data = tmp_path / "data"
    main(["synth", "--n-images", "1", "--n-cells", "2", "--noise-level", "0",
          "--rng-seed", "8", "--out-dir", str(data)])
    gt = read_labels(str(data / "gt_000.pgm"))
    out = str(tmp_path / "m.json")
    assert main(
        ["eval", "--pred", str(data / "gt_000.pgm"),
         "--gt", str(data / "gt_000.pgm"), "--out", out]
    ) == 0
    scores = json.loads(open(out).read())
    assert scores == segmentation_metrics(gt, gt)
    assert scores["voi"] == 0.0 and scores["rand"] == 1.0


def write_easy_images(tmp_path):
    raw, boundary, gt = easy_triple()
    paths = {name: str(tmp_path / f"{name}.pgm") for name in ("raw", "boundary", "gt")}
    write_probability(paths["raw"], raw)
    write_probability(paths["boundary"], boundary)
    write_labels(paths["gt"], gt)
    return paths


def test_cli_zero_trees_fails(tmp_path, capsys):
    """No tree would average to NaN costs; both commands that train fail
    before writing anything."""
    images = write_easy_images(tmp_path)
    out_dir = tmp_path / "run"
    rc = main(
        ["pipeline", "--boundary", images["boundary"], "--raw", images["raw"],
         "--gt", images["gt"], "--n-trees", "0", "--out-dir", str(out_dir)]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out_dir / "costs.json").exists()

    files = staged_quad_files(tmp_path)
    out = tmp_path / "zero_trees.json"
    rc = main(
        ["train", "--crag", files["crag.json"], "--features", files["features.json"],
         "--gt", files["gt.pgm"], "--n-trees", "0", "--out", str(out)]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# config file content -> what the error names after the file's path; each
# used to end in a traceback or, for the mode, fail only at the solve stage
MALFORMED_CONFIG = {
    "not an object": ([], "config"),
    "string max_merges": ({"max_merges": "5"}, "max_merges"),
    "string time_limit": ({"time_limit": "x"}, "time_limit"),
    "negative time_limit": ({"time_limit": -3.0}, "time_limit"),
    "null seed_threshold": ({"seed_threshold": None}, "seed_threshold"),
    "unknown mode": ({"mode": "bogus"}, "mode"),
    "number ignore_background": ({"ignore_background": 1}, "ignore_background"),
    "unknown key": ({"n_neighbors": 3}, "n_neighbors"),
    # these three used to fail only at the stage that reads them
    "negative rng_seed": ({"rng_seed": -1}, "rng_seed"),
    "zero n_trees": ({"n_trees": 0}, "n_trees"),
    "negative max_merges": ({"max_merges": -1}, "max_merges"),
    # no boundary value lies below it, so the watershed found no seed
    "zero seed_threshold": ({"seed_threshold": 0}, "seed_threshold"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CONFIG))
def test_cli_malformed_config_fails_by_name(case, tmp_path, capsys):
    content, named = MALFORMED_CONFIG[case]
    images = write_easy_images(tmp_path)
    config = tmp_path / "c.json"
    config.write_text(json.dumps(content))
    out_dir = tmp_path / "run"
    rc = main(
        ["pipeline", "--boundary", images["boundary"], "--raw", images["raw"],
         "--gt", images["gt"], "--n-trees", "2", "--config", str(config),
         "--out-dir", str(out_dir)]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ") and named in err
    assert not out_dir.exists()


def test_cli_config_null_where_the_library_takes_none(tmp_path, capsys):
    images = write_easy_images(tmp_path)
    config = tmp_path / "c.json"
    config.write_text(
        json.dumps({"max_merges": None, "score_threshold": None, "time_limit": None})
    )
    rc = main(
        ["pipeline", "--boundary", images["boundary"], "--raw", images["raw"],
         "--gt", images["gt"], "--n-trees", "2", "--config", str(config)]
    )
    assert rc == 0
    assert "optimal True" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# the JSON writer


def _dumps(obj):
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(2**63, 2**80),
    st.integers(-(2**80), -(2**63) - 1),
    st.floats(),
    st.sampled_from([
        -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308,
    ]),
    st.text(max_size=6),
    # escapes, non-ASCII, a lone surrogate and a character past the BMP
    st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "é", "雪", "\ud800", "😀"]),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=5),
    ),
    max_leaves=40,
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(JSON_VALUES)
@example({"b": [1, [2.5, None], {"c": math.nan}, "x", ()], "a": {}, "é": [[]]})
@example([[-0.0, 5e-324], ({"k": 2**64},), [{"": True}, 1.7976931348623157e308]])
def test_dump_json_writes_json_dumps_bytes(obj):
    """dump_json writes exactly json.dumps(obj, indent=2, sort_keys=True)
    plus a newline, for nested dicts, lists and tuples of any scalars."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.json")
        dump_json(path, obj)
        with open(path, "rb") as fh:
            assert fh.read() == _dumps(obj)


@pytest.mark.parametrize("bad, kind", [
    ({"a": {1, 2}}, TypeError),
    ([1, [2, np.int64(3)]], TypeError),
    ({"x": [np.int64(1)], "y": {"z": []}}, TypeError),
    ({"a": [1], (1, 2): [2]}, TypeError),
    ([[1], {(1, 2): 3}], TypeError),
])
def test_dump_json_rejects_before_opening(bad, kind, tmp_path):
    """A value json.dumps rejects raises the same error class, and the
    target file is neither made nor truncated."""
    with pytest.raises(kind):
        json.dumps(bad, indent=2, sort_keys=True)
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("kept\n")
    for path in (new, old):
        with pytest.raises(kind):
            dump_json(str(path), bad)
    assert not new.exists()
    assert old.read_text() == "kept\n"


def test_dump_json_rejects_circular_values(tmp_path):
    loop = {"a": [1]}
    loop["a"].append(loop)
    with pytest.raises(ValueError, match="Circular reference"):
        dump_json(str(tmp_path / "loop.json"), loop)
    assert not (tmp_path / "loop.json").exists()


def _train_inputs(tmp_path, n_images, rng_seed=11):
    """(crag, features, gt) paths of n_images synthetic images, staged
    through cmc synth, build-crag and features."""
    data = tmp_path / "data"
    assert main(["synth", "--n-images", str(n_images), "--n-cells", "3",
                 "--noise-level", "0.1", "--rng-seed", str(rng_seed),
                 "--out-dir", str(data)]) == 0
    triples = []
    for k in range(n_images):
        boundary = str(data / f"boundary_{k:03d}.pgm")
        crag, feats = str(tmp_path / f"crag{k}.json"), str(tmp_path / f"f{k}.json")
        assert main(["build-crag", "--boundary", boundary, "--out", crag]) == 0
        assert main(["features", "--crag", crag, "--raw", str(data / f"raw_{k:03d}.pgm"),
                     "--boundary", boundary, "--out", feats]) == 0
        triples.append((crag, feats, str(data / f"gt_{k:03d}.pgm")))
    return triples


def test_staged_json_files_are_json_dumps_bytes(tmp_path, capsys):
    """Every JSON file of a cmc pipeline --out-dir run, and a model.json
    from cmc train, holds json.dumps(its content, indent=2,
    sort_keys=True) plus a newline."""
    (crag, feats, gt), = _train_inputs(tmp_path, 1)
    model = tmp_path / "model.json"
    assert main(["train", "--crag", crag, "--features", feats, "--gt", gt,
                 "--n-trees", "4", "--out", str(model)]) == 0
    data = tmp_path / "data"
    out_dir = tmp_path / "run"
    assert main(["pipeline", "--boundary", str(data / "boundary_000.pgm"),
                 "--raw", str(data / "raw_000.pgm"), "--gt", gt,
                 "--model", str(model), "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    files = sorted(out_dir.glob("*.json")) + [model]
    assert {p.name for p in files} == {
        "costs.json", "crag.json", "features.json", "metrics.json",
        "model.json", "solution.json",
    }
    for path in files:
        data = path.read_bytes()
        assert data == _dumps(json.loads(data)), path.name


def test_reused_parser_does_not_accumulate_appends(tmp_path):
    """cmc train with two --crag/--features/--gt triples, then in the same
    process with one, trains on that one alone."""
    triples = _train_inputs(tmp_path, 2)
    both, one = str(tmp_path / "both.json"), str(tmp_path / "one.json")
    for out, chosen in ((both, triples), (one, triples[:1])):
        argv = ["train", "--n-trees", "4", "--seed", "3", "--out", out]
        for crag, feats, gt in chosen:
            argv += ["--crag", crag, "--features", feats, "--gt", gt]
        assert main(argv) == 0
    crag, feats, gt = triples[0]
    with open(crag) as fh:
        crag = crag_from_json(json.load(fh))
    with open(feats) as fh:
        node_feats, edge_feats = features_from_json(json.load(fh))
    model = train_from_instances([(crag, node_feats, edge_feats, read_labels(gt))], 4, 3)
    with open(one, "rb") as fh:
        assert fh.read() == _dumps(model_to_json(model))
    with open(both, "rb") as fh:
        assert fh.read() != _dumps(model_to_json(model))


def test_reused_parser_keeps_flag_defaults(tmp_path, monkeypatch, capsys):
    """cmc pipeline --no-ignore-background, then in the same process the
    same call without the flag, which takes the config default."""
    seen = []

    def recording(config, *args, **kwargs):
        seen.append(config.ignore_background)
        return run_pipeline(config, *args, **kwargs)

    monkeypatch.setattr(cli, "run_pipeline", recording)
    data = tmp_path / "data"
    assert main(["synth", "--n-images", "1", "--n-cells", "3", "--noise-level", "0",
                 "--rng-seed", "5", "--out-dir", str(data)]) == 0
    argv = ["pipeline", "--boundary", str(data / "boundary_000.pgm"),
            "--raw", str(data / "raw_000.pgm"), "--gt", str(data / "gt_000.pgm"),
            "--n-trees", "3"]
    assert main(argv + ["--no-ignore-background"]) == 0
    assert main(argv) == 0
    capsys.readouterr()
    assert seen == [False, PipelineConfig().ignore_background] == [False, True]
