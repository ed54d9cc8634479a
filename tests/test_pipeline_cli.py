import json

import numpy as np
import pytest

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
    features_to_json,
    node_feature_names,
)
from cmc.hierarchy import seeded_watershed
from cmc.pgm import read_labels, write_labels, write_probability
from cmc.pipeline import (
    PipelineConfig,
    build_graph,
    config_from_json,
    config_to_json,
    model_from_json,
    model_to_json,
    run_pipeline,
    train_from_instances,
    train_model,
)
from cmc.synth import generate_synthetic

from util import (
    MALFORMED_FOREST,
    json_with,
    leaf_image,
    pixel_grid_crag,
    quad_costs,
    quad_crag,
    quad_gt,
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
    assert config_from_json(json.loads(json.dumps(config_to_json(cfg)))) == cfg
    with pytest.raises(CmcError):
        config_from_json({"seed_threshold": 0.5, "n_neighbors": 3})


def test_build_graph_stages():
    _, boundary, _ = easy_triple()
    cfg = small_config()
    crag = build_graph(boundary, cfg)
    superpixels = seeded_watershed(boundary, cfg.seed_threshold)
    assert len(crag.leaves()) == superpixels.max()
    assert all(
        crag.candidates[i].level <= cfg.max_merges for i in crag.ids()
    )
    # a precomputed oversegmentation replaces the watershed stage verbatim
    assert build_graph(boundary, cfg, superpixels=superpixels) == crag


def test_build_graph_wraps_stage_errors():
    bad = np.full((8, 8), np.nan)
    with pytest.raises(StageFailure) as info:
        build_graph(bad, small_config())
    assert info.value.stage == "watershed"


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
    crag = build_crag([Candidate(1, 0), Candidate(2, 0)], [], labels)
    node_feats, edge_feats = compute_features(crag, np.zeros((1, 3)), np.zeros((1, 3)))
    return crag, node_feats, edge_feats, np.array([[1, 0, 0]])


def test_train_without_edges_is_single_class():
    with pytest.raises(StageFailure) as info:
        train_from_instances([edgeless_instance()], 5, 0)
    assert info.value.stage == "train-edges"
    assert isinstance(info.value.cause, SingleClass)


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
        {"node_forest": {"n_trees": 0, "rng_seed": 0, "n_features": 147, "trees": []},
         "edge_forest": {"n_trees": 0, "rng_seed": 0, "n_features": 592, "trees": []}},
        "costs",
        "no tree",
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
    model["node_forest"] = json_with(forest, *MALFORMED_FOREST[case])
    (tmp_path / "model.json").write_text(json.dumps(model))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "model.json" in err
    assert not (tmp_path / "out.json").exists()


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
        root = Candidate(big + 1, 1, (1, big))
        crag = build_crag([Candidate(1, 0), Candidate(big, 0), root], [(1, big)], labels)
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
    rng = np.random.default_rng(5)
    crag = pixel_grid_crag(6, 6)
    costs = CostTable(
        f={i: -1.0 for i in crag.ids()},
        g={e: float(rng.choice((-1.0, 1.0))) for e in crag.adjacency},
    )
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
    crag = {"width": width, "height": height, "candidates": [], "adjacency": []}
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
    assert err.startswith("error: ") and "score_threshold must be finite" in err
    assert not (out_dir / "crag.json").exists()


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
