import json
import math

import numpy as np
import pytest

from cmc.costmodel import (
    CostTable,
    best_effort,
    costs_from_json,
    costs_to_json,
    forest_from_json,
    forest_to_json,
    label_instances,
    leaf_gt_labels,
    predict_costs,
    probability_to_cost,
    train_forest,
)
from cmc.errors import (
    CmcError,
    DegenerateInput,
    DimensionMismatch,
    SchemaMismatch,
    SingleClass,
)
from cmc.crag import validate_solution
from cmc.features import compute_features

from util import pixels_of, quad_crag, quad_gt, random_crag, random_gt


def separable_samples(n=20, dim=5, noise=0.0, seed=0):
    """Class 0 sits near 0.1 in every column, class 1 near 0.9."""
    rng = np.random.default_rng(seed)
    y = np.arange(n) % 2
    X = np.where(y[:, None] == 1, 0.9, 0.1) + noise * rng.normal(size=(n, dim))
    return X, y


# ---------------------------------------------------------------------------
# best-effort reference solutions


def test_leaf_gt_labels_plurality_and_ties():
    crag = quad_crag()
    labels = leaf_gt_labels(crag, quad_gt())
    assert labels == {1: 1, 2: 1, 3: 1, 4: 2}
    # 50/50 tie -> smaller label; background participates in the vote
    gt = np.ones((4, 4), dtype=np.int64)
    gt[1, 1] = gt[1, 2] = 2  # leaf 3 is (1,1),(1,2),(2,1),(2,2): two 1s, two 2s
    assert leaf_gt_labels(crag, gt)[3] == 1
    gt[2, 1] = gt[2, 2] = 0
    assert leaf_gt_labels(crag, gt)[3] == 0


def test_best_effort_quad():
    crag = quad_crag()
    sol = best_effort(crag, quad_gt())
    assert {i for i, v in sol.y.items() if v} == {3, 4, 5}
    assert {e for e, v in sol.m.items() if v} == {(3, 5)}
    assert sol.objective == 0.0
    assert validate_solution(crag, sol) == []


def test_best_effort_selects_maximal_candidates():
    """One label for everything non-zero: the root is the single pick."""
    crag = quad_crag()
    gt = np.ones((4, 4), dtype=np.int64)
    sol = best_effort(crag, gt)
    assert {i for i, v in sol.y.items() if v} == {7}
    assert not any(sol.m.values())


def test_best_effort_distinct_leaf_labels():
    crag = quad_crag()
    gt = np.zeros((4, 4), dtype=np.int64)
    for leaf in crag.leaves():
        for (r, c) in pixels_of(crag, leaf):
            gt[r, c] = leaf
    sol = best_effort(crag, gt)
    assert {i for i, v in sol.y.items() if v} == {1, 2, 3, 4}
    assert not any(sol.m.values())


def test_best_effort_all_background():
    crag = quad_crag()
    sol = best_effort(crag, np.zeros((4, 4), dtype=np.int64))
    assert not any(sol.y.values())
    assert not any(sol.m.values())


def test_best_effort_merge_tree_mode_keeps_m_zero():
    crag = quad_crag()
    sol = best_effort(crag, quad_gt(), mode="merge_tree_only")
    assert {i for i, v in sol.y.items() if v} == {3, 4, 5}
    assert not any(sol.m.values())
    assert validate_solution(crag, sol) == []


def test_best_effort_label_permutation_invariant():
    crag = quad_crag()
    gt = quad_gt()
    swapped = np.where(gt == 1, 2, np.where(gt == 2, 1, gt))
    a = best_effort(crag, gt)
    b = best_effort(crag, swapped)
    assert a.y == b.y and a.m == b.m


def test_best_effort_feasible_on_random_instances():
    rng = np.random.default_rng(23)
    for _ in range(30):
        crag = random_crag(rng)
        gt = random_gt(rng, crag)
        for mode in ("full", "merge_tree_only"):
            sol = best_effort(crag, gt, mode=mode)
            assert validate_solution(crag, sol) == []


def test_best_effort_input_checks():
    crag = quad_crag()
    with pytest.raises(DimensionMismatch):
        best_effort(crag, np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(DegenerateInput):
        best_effort(crag, np.full((4, 4), -1))
    with pytest.raises(CmcError):
        best_effort(crag, quad_gt(), mode="nope")


# ---------------------------------------------------------------------------
# training instances


def quad_features():
    crag = quad_crag()
    rng = np.random.default_rng(2)
    return crag, compute_features(crag, rng.random((4, 4)), rng.random((4, 4)))


def test_label_instances_quad():
    crag, (nf, ef) = quad_features()
    sol = best_effort(crag, quad_gt())
    (node_x, node_y), (edge_x, edge_y) = label_instances(crag, sol, nf, ef)
    assert node_x.shape == (7, 147) and edge_x.shape == (11, 592)
    assert node_y.tolist() == [1, 1, 1, 1, 1, 0, 0]
    positives = {e for e, lab in zip(crag.adjacency, edge_y) if lab}
    assert positives == {(1, 2), (1, 3), (2, 3), (3, 5)}
    # rows follow the id / adjacency ordering
    for k, cid in enumerate(crag.ids()):
        assert np.array_equal(node_x[k], nf[cid])
    for k, e in enumerate(crag.adjacency):
        assert np.array_equal(edge_x[k], ef[e])


def test_label_instances_all_background():
    crag, (nf, ef) = quad_features()
    sol = best_effort(crag, np.zeros((4, 4), dtype=np.int64))
    (_, node_y), (_, edge_y) = label_instances(crag, sol, nf, ef)
    assert not node_y.any() and not edge_y.any()


# ---------------------------------------------------------------------------
# forest


def test_forest_separable_data():
    X, y = separable_samples()
    forest = train_forest((X, y), n_trees=8, rng_seed=3)
    proba = forest.predict_proba(X)
    assert np.array_equal((proba > 0.5).astype(int), y)
    assert proba.min() >= 0.0 and proba.max() <= 1.0


def test_forest_stump_extremes():
    forest = train_forest(([[0.1] * 3, [0.9] * 3], [0, 1]), n_trees=5, rng_seed=0)
    assert forest.predict_proba([[0.05, 0.05, 0.05]])[0] == 0.0
    assert forest.predict_proba([[0.95, 0.95, 0.95]])[0] == 1.0


def test_forest_deterministic():
    X, y = separable_samples(n=30, noise=0.3, seed=4)
    a = train_forest((X, y), n_trees=6, rng_seed=9)
    b = train_forest((X, y), n_trees=6, rng_seed=9)
    assert a.trees == b.trees
    probe = np.random.default_rng(1).random((10, 5))
    assert np.array_equal(a.predict_proba(probe), b.predict_proba(probe))


def test_forest_input_checks():
    with pytest.raises(SingleClass):
        train_forest(([[0.1], [0.2]], [1, 1]), n_trees=2, rng_seed=0)
    with pytest.raises(CmcError):
        train_forest(([[0.1], [0.2]], [0, 2]), n_trees=2, rng_seed=0)
    forest = train_forest(([[0.1], [0.9]], [0, 1]), n_trees=2, rng_seed=0)
    with pytest.raises(SchemaMismatch):
        forest.predict_proba([[0.1, 0.2]])


@pytest.mark.parametrize("n_trees", [0, -3])
def test_forest_needs_a_tree(n_trees):
    """A forest without trees would average to NaN probabilities."""
    with pytest.raises(CmcError):
        train_forest(([[0.1], [0.9]], [0, 1]), n_trees=n_trees, rng_seed=0)


def test_forest_json_roundtrip():
    X, y = separable_samples(n=24, noise=0.25, seed=8)
    forest = train_forest((X, y), n_trees=4, rng_seed=5)
    back = forest_from_json(json.loads(json.dumps(forest_to_json(forest))))
    assert back.n_trees == forest.n_trees
    assert back.n_features == forest.n_features
    assert back.trees == forest.trees
    probe = np.random.default_rng(2).random((20, 5))
    assert np.array_equal(forest.predict_proba(probe), back.predict_proba(probe))


DELETE = object()


def _with(obj, path, value):
    """Deep copy of a JSON object with the entry at `path` set (or, for
    value DELETE, removed)."""
    obj = json.loads(json.dumps(obj))
    *head, last = path
    target = obj
    for key in head:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return obj

# (path into a forest's JSON, the value put there)
MALFORMED_FOREST = {
    "no trees": (("trees",), DELETE),
    "trees not a list": (("trees",), {}),
    "empty tree": (("trees", 0), []),
    "no tree at all": (("trees",), []),
    "fewer trees than n_trees": (("n_trees",), 3),
    "string n_features": (("n_features",), "5"),
    "boolean rng_seed": (("rng_seed",), True),
    "node not an object": (("trees", 0, 0), 3),
    "split without threshold": (("trees", 0, 0, "threshold"), DELETE),
    "string threshold": (("trees", 0, 0, "threshold"), "0.5"),
    "feature out of range": (("trees", 0, 0, "feature"), 5),
    "child before parent": (("trees", 0, 0, "left"), 0),
    "child past the end": (("trees", 0, 0, "right"), 10**6),
    "NaN probability": (("trees", 0, -1, "prob"), float("nan")),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FOREST))
def test_malformed_forest_json_rejected(case):
    X, y = separable_samples(n=24, noise=0.25, seed=8)
    obj = forest_to_json(train_forest((X, y), n_trees=2, rng_seed=5))
    assert "feature" in obj["trees"][0][0] and "prob" in obj["trees"][0][-1]
    with pytest.raises(CmcError, match="model.json"):
        forest_from_json(_with(obj, *MALFORMED_FOREST[case]))


# ---------------------------------------------------------------------------
# costs


def test_features_of_another_graph_rejected():
    """A missing or extra candidate or edge in the feature dicts raises
    CmcError (it used to end in a KeyError)."""
    crag, (nf, ef) = quad_features()
    sol = best_effort(crag, quad_gt())
    nodes, edges = label_instances(crag, sol, nf, ef)
    node_forest = train_forest(nodes, n_trees=3, rng_seed=1)
    edge_forest = train_forest(edges, n_trees=3, rng_seed=2)
    missing_node = {i: v for i, v in nf.items() if i != 7}
    missing_edge = {e: v for e, v in ef.items() if e != (1, 2)}
    extra_node = {**nf, 8: nf[7]}
    for bad_nf, bad_ef in ((missing_node, ef), (nf, missing_edge), (extra_node, ef)):
        with pytest.raises(CmcError, match="features do not match"):
            label_instances(crag, sol, bad_nf, bad_ef)
        with pytest.raises(CmcError, match="features do not match"):
            predict_costs(node_forest, edge_forest, crag, bad_nf, bad_ef)


def test_probability_to_cost_anchor_points():
    assert probability_to_cost(0.5) == 0.0
    assert probability_to_cost(math.e / (1 + math.e)) == pytest.approx(-1.0)
    assert probability_to_cost(1 / (1 + math.e)) == pytest.approx(1.0)
    # extremes are clamped to 1e-6 away from certainty
    assert probability_to_cost(1.0) == pytest.approx(-13.8155, abs=1e-3)
    assert probability_to_cost(0.0) == pytest.approx(13.8155, abs=1e-3)
    assert probability_to_cost(1.0) == probability_to_cost(2.0)


def test_probability_to_cost_strictly_decreasing():
    grid = np.linspace(0.0, 1.0, 41)
    costs = [probability_to_cost(p) for p in grid]
    assert all(a > b for a, b in zip(costs, costs[1:]))


def test_predict_costs_structure_and_determinism():
    crag, (nf, ef) = quad_features()
    sol = best_effort(crag, quad_gt())
    nodes, edges = label_instances(crag, sol, nf, ef)
    node_forest = train_forest(nodes, n_trees=10, rng_seed=1)
    edge_forest = train_forest(edges, n_trees=10, rng_seed=2)
    costs = predict_costs(node_forest, edge_forest, crag, nf, ef)
    assert set(costs.f) == set(crag.ids())
    assert set(costs.g) == set(crag.adjacency)
    assert all(math.isfinite(v) for v in costs.f.values())
    assert all(math.isfinite(v) for v in costs.g.values())
    again = predict_costs(node_forest, edge_forest, crag, nf, ef)
    assert costs.f == again.f and costs.g == again.g


def test_costs_json_roundtrip():
    crag = quad_crag()
    rng = np.random.default_rng(6)
    costs = CostTable(
        f={i: float(rng.normal()) for i in crag.ids()},
        g={e: float(rng.normal()) for e in crag.adjacency},
    )
    back = costs_from_json(json.loads(json.dumps(costs_to_json(costs))))
    assert back.f == costs.f and back.g == costs.g


MALFORMED_COSTS = {
    "no g": (("g",), DELETE),
    "f not an object": (("f",), [1.0]),
    "string cost": (("f", "1"), "x"),
    "boolean cost": (("g", "1-2"), False),
    "infinite cost": (("f", "1"), float("inf")),
    "id key not a number": (("f", "one"), 1.0),
    "edge key with one id": (("g", "3"), 1.0),
    "edge key with a non-ASCII digit": (("g", "1-\u0662"), 1.0),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_COSTS))
def test_malformed_costs_json_rejected(case):
    crag = quad_crag()
    obj = costs_to_json(
        CostTable({i: 1.0 for i in crag.ids()}, {e: -1.0 for e in crag.adjacency})
    )
    with pytest.raises(CmcError, match="costs.json"):
        costs_from_json(_with(obj, *MALFORMED_COSTS[case]))
