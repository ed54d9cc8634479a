import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmc import costmodel
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
    InfeasibleSolution,
    SchemaMismatch,
    SingleClass,
)
from cmc.crag import Solution, build_crag, validate_solution
from cmc.evaluate import segmentation_metrics
from cmc.features import compute_features
from cmc.pipeline import PipelineConfig, build_graph, model_to_json, train_model
from cmc.synth import generate_synthetic

from util import (
    DELETE,
    MALFORMED_FOREST,
    json_with,
    leaf_image,
    malformed_forest,
    node_lists,
    old_model_json,
    pixels_of,
    quad_crag,
    quad_gt,
    random_crag,
    random_gt,
    ref_forest_from_json,
    ref_train_forest,
    ref_tree_predict,
    same_outcome,
    zero_solution,
)


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


def synth_crag_and_gt():
    """The 128 px crag and ground truth of one synthetic image."""
    _, boundary, gt = generate_synthetic(1, 3, 0.1, 1003)[0]
    return build_graph(boundary, PipelineConfig()), gt


# ground truth that int64 cannot hold exactly: truncated, turned into
# label -2**63, or wrapped to negative labels by a bare cast
INEXACT_GT = {
    "fractional": lambda gt: gt + 0.5,
    "nan": lambda gt: np.where(gt == 0, np.nan, gt),
    "uint64 from 2**63": lambda gt: gt.astype(np.uint64) + np.uint64(2**63),
}


@pytest.mark.parametrize("case", sorted(INEXACT_GT))
def test_best_effort_rejects_ground_truth_that_metrics_reject(case):
    crag, gt = synth_crag_and_gt()
    bad = INEXACT_GT[case](gt)
    with pytest.raises(DegenerateInput, match="ground-truth labels"):
        best_effort(crag, bad)
    with pytest.raises(DegenerateInput, match="ground-truth labels"):
        segmentation_metrics(gt, bad)


def test_best_effort_same_for_every_integer_and_bool_dtype():
    crag, gt = synth_crag_and_gt()
    want = best_effort(crag, gt)
    for dtype in (np.uint8, np.int32, np.uint64):
        assert best_effort(crag, gt.astype(dtype)) == want
    assert best_effort(crag, gt > 0) == best_effort(crag, (gt > 0).astype(np.int64))


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
    # rows follow the id / adjacency ordering; an edge row is the edge's
    # 4 statistics, then the combinators of its two node vectors
    for k, cid in enumerate(crag.ids()):
        assert np.array_equal(node_x[k], nf[cid])
    for k, (i, j) in enumerate(crag.adjacency):
        assert np.array_equal(edge_x[k, :4], ef[(i, j)])
        assert np.array_equal(edge_x[k, 4::4], np.abs(nf[i] - nf[j]))
        assert np.array_equal(edge_x[k, 7::4], nf[i] + nf[j])


def test_label_instances_all_background():
    crag, (nf, ef) = quad_features()
    sol = best_effort(crag, np.zeros((4, 4), dtype=np.int64))
    (_, node_y), (_, edge_y) = label_instances(crag, sol, nf, ef)
    assert not node_y.any() and not edge_y.any()


def test_label_instances_rejects_infeasible_reference():
    """A merged edge whose end 2 is not selected: a named error, not a
    KeyError from the merged-group lookup."""
    crag, (nf, ef) = quad_features()
    sol = zero_solution(crag)
    sol.y[1] = 1
    sol.m[(1, 2)] = 1
    with pytest.raises(InfeasibleSolution):
        label_instances(crag, sol, nf, ef)


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
    assert forest_to_json(a) == forest_to_json(b)
    probe = np.random.default_rng(1).random((10, 5))
    assert np.array_equal(a.predict_proba(probe), b.predict_proba(probe))


def test_forest_input_checks():
    with pytest.raises(SingleClass):
        train_forest(([[0.1], [0.2]], [1, 1]), n_trees=2, rng_seed=0)
    with pytest.raises(CmcError):
        train_forest(([[0.1], [0.2]], [0, 2]), n_trees=2, rng_seed=0)
    with pytest.raises(CmcError, match="rng_seed"):
        train_forest(([[0.1], [0.9]], [0, 1]), n_trees=2, rng_seed=-1)
    forest = train_forest(([[0.1], [0.9]], [0, 1]), n_trees=2, rng_seed=0)
    with pytest.raises(SchemaMismatch):
        forest.predict_proba([[0.1, 0.2]])


@pytest.mark.parametrize(
    "X, y",
    [
        (np.zeros((5, 4)), [0, 1]),
        (np.zeros(5), [0, 1, 0, 1, 0]),
        (np.zeros((2, 4)), [0, 1, 0]),
        (np.zeros((2, 0)), [0, 1]),
        (np.zeros((2, 4)), [[0, 1], [1, 0]]),
        ([[0.1], [0.2, 0.3]], [0, 1]),
        ([["a"], ["b"]], [0, 1]),
    ],
    ids=["fewer labels than rows", "1-D features", "more labels than rows",
         "no feature column", "2-D labels", "ragged features", "string features"],
)
def test_forest_rejects_samples_of_the_wrong_shape(X, y):
    """Fewer labels than rows used to train on the first rows only; the
    other cases ended in numpy's IndexError or ValueError."""
    with pytest.raises(CmcError, match="sample|matrix"):
        train_forest((X, y), n_trees=2, rng_seed=0)


@pytest.mark.parametrize("rows", [[[0.1], [0.2, 0.3]], [["a"], ["b"]]])
def test_forest_rejects_features_to_score_that_are_no_matrix(rows):
    """Ragged rows and strings used to end in numpy's ValueError."""
    forest = train_forest(([[0.1], [0.9]], [0, 1]), n_trees=2, rng_seed=0)
    with pytest.raises(CmcError, match="matrix"):
        forest.predict_proba(rows)


# equal values of two signs (±0.0), subnormals and the least normal,
# neighbours of 1, whose midpoints can round onto the upper value, and
# large values, whose midpoints overflow
_ODD_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-323, 2.2250738585072014e-308,
               2.225073858507201e-308, 1.0, 1.0000000000000002,
               1.0000000000000004, 0.9999999999999999, 1.5e308,
               1.7976931348623157e308, -1.7976931348623157e308]
_PALETTES = st.one_of(
    st.lists(st.one_of(st.sampled_from(_ODD_FLOATS),
                       st.floats(allow_nan=False, allow_infinity=False)),
             min_size=1, max_size=5),
    # runs of adjacent floats
    st.floats(-1e300, 1e300).map(
        lambda v: [v, np.nextafter(v, np.inf), np.nextafter(np.nextafter(v, np.inf), np.inf)]
    ),
)


@st.composite
def _training_sets(draw):
    """(X, y, n_trees, rng_seed): X is built from a few distinct rows over
    a small palette, so rows repeat and values tie, some columns are
    made constant, and all rows are alike when one distinct row is
    drawn; the minority class is often one sample."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_features = draw(st.one_of(st.integers(1, 8), st.integers(1, 592)))
    n_rows = draw(st.integers(2, 40))
    palette = np.array(draw(_PALETTES))
    n_distinct = draw(st.one_of(st.integers(1, 3), st.integers(1, n_rows)))
    X = rng.choice(palette, size=(n_distinct, n_features))
    X = X[rng.integers(0, n_distinct, size=n_rows)]
    X[:, rng.random(n_features) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = palette[0]
    y = np.zeros(n_rows, dtype=np.int64)
    minority = draw(st.one_of(st.just(1), st.integers(1, n_rows // 2)))
    y[rng.choice(n_rows, size=minority, replace=False)] = 1
    if draw(st.booleans()):
        y = 1 - y
    return X, y, draw(st.integers(1, 3)), draw(st.integers(0, 2**20))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_training_sets())
# midpoints that round onto the upper value, or overflow: thr falls back
# to the lower value
@example((np.array([[1.0000000000000002], [1.0000000000000004]]), np.array([0, 1]), 2, 0))
@example((np.array([[1.5e308, 0.0], [1.7976931348623157e308, 0.0]]), np.array([1, 0]), 2, 0))
def test_trees_equal_the_per_row_grower(case):
    """Growing on distinct rows with draw counts, sorted unstably, gives
    the trees of the per-row grower with its stable sort, node for node."""
    X, y, n_trees, rng_seed = case
    # the per-row grower takes its midpoints in numpy, which warns when
    # one overflows; train_forest's Python floats do not
    with np.errstate(over="ignore"):
        want = ref_train_forest((X, y), n_trees, rng_seed)
    assert node_lists(train_forest((X, y), n_trees, rng_seed)) == want


def test_threshold_falls_back_to_the_lower_value():
    """A cut whose midpoint rounds onto the upper value, or overflows,
    splits at the lower value, so that value still goes left."""
    for lo, hi in ((1.0000000000000002, 1.0000000000000004),
                   (1.5e308, 1.7976931348623157e308)):
        forest = train_forest(([[lo], [hi]], [0, 1]), n_trees=1, rng_seed=0)
        assert node_lists(forest)[0][0]["threshold"] == lo


def _sha256_of_json(obj):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def test_pipeline_256_model_is_pinned():
    """The model of the pipeline-256 benchmark set-up at workload seed 1
    (training images from seed 1002); a change to any split or leaf, or
    to the features it is trained on, moves these digests.  The first is
    of the node-list model.json text that releases before the array form
    wrote, rebuilt by node_lists: the trees are the ones grown then.  The
    second is of the model.json text written now."""
    train = generate_synthetic(2, 12, 1.0, 1002, image_size=256)
    model = train_model(train, PipelineConfig())
    assert _sha256_of_json(old_model_json(model)) == (
        "4fdfbc8ec62ca064ec25dbfec7feff4742b538aaf605f9fae6ba9a041b53ac3d"
    )
    assert _sha256_of_json(model_to_json(model)) == (
        "e3ede83ebcaf26d911cdb4a7f77d96df1b0da47c621a97793fd5d5e9d3815566"
    )


@pytest.mark.parametrize("labels", [[0.4, 1], [0, 1.7], [0, float("nan")]])
def test_forest_rejects_labels_that_are_not_0_or_1(labels):
    """Labels used to be cast first, which trained 0.4 as 0 and 1.7 as 1."""
    with pytest.raises(CmcError, match="labels"):
        train_forest(([[0.1], [0.9]], labels), n_trees=2, rng_seed=0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_forest_rejects_non_finite_training_features(bad):
    X, y = separable_samples(n=8, dim=4)
    X[3, 1] = bad
    with pytest.raises(CmcError, match="finite"):
        train_forest((X, y), n_trees=2, rng_seed=0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_forest_rejects_non_finite_features_to_score(bad):
    forest = train_forest(([[0.1, 0.5], [0.9, 0.5]], [0, 1]), n_trees=2, rng_seed=0)
    with pytest.raises(CmcError, match="finite"):
        forest.predict_proba([[0.5, 0.5], [bad, 0.5]])


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
    assert forest_to_json(back) == forest_to_json(forest)
    probe = np.random.default_rng(2).random((20, 5))
    assert np.array_equal(forest.predict_proba(probe), back.predict_proba(probe))


def test_editing_forest_to_json_leaves_the_forest_alone():
    """forest_to_json returns copies: edits of its lists change neither
    the forest's JSON nor its predictions, and the predictions still
    follow the forest's trees."""
    X, y = separable_samples(n=24, noise=0.25, seed=8)
    forest = train_forest((X, y), n_trees=4, rng_seed=5)
    probe = np.random.default_rng(2).random((20, 5))
    before, want = json.dumps(forest_to_json(forest)), forest.predict_proba(probe)
    obj = forest_to_json(forest)
    assert obj["left"][-1] == len(obj["left"]) - 1
    obj["value"][-1] = 1.0 - obj["value"][-1]
    obj["feature"][0] = 4
    obj["left"].append(0)
    obj["sizes"][0] = 1
    assert json.dumps(forest_to_json(forest)) == before
    assert np.array_equal(forest.predict_proba(probe), want)
    assert np.array_equal(want, ref_predict_proba(forest, probe))


def ref_predict_proba(forest, X):
    """The per-tree reference walk, summed tree by tree in tree order."""
    trees = node_lists(forest)
    acc = np.zeros(len(X))
    for nodes in trees:
        acc += ref_tree_predict(nodes, X)
    return acc / len(trees)


def on_thresholds(forest, rng, n):
    """n rows whose every value is a split threshold of its column, so
    each row meets some split exactly at its threshold."""
    by_column = {}
    for nodes in node_lists(forest):
        for node in nodes:
            if "feature" in node:
                by_column.setdefault(node["feature"], []).append(node["threshold"])
    rows = np.zeros((n, forest.n_features))
    for col, thresholds in by_column.items():
        rows[:, col] = rng.choice(thresholds, size=n)
    return rows


def test_flat_walk_equals_the_per_tree_walk():
    """predict_proba equals the per-tree reference bit for bit: on
    forests trained on many tied values, on rows that sit exactly on
    thresholds, on forests with single-leaf trees, and on 0 and 1 rows."""
    rng = np.random.default_rng(41)
    forests = []
    for k in range(4):
        X = rng.integers(0, 4, size=(60, 6)).astype(np.float64)
        y = (X[:, 0] + X[:, 1] + rng.integers(0, 3, size=60) > 4).astype(np.int64)
        forests.append((train_forest((X, y), n_trees=25, rng_seed=k), X))
    # the first forest between two single-leaf trees
    obj = forest_to_json(forests[0][0])
    last = len(obj["value"]) + 1
    obj["n_trees"] += 2
    obj["sizes"] = [1, *obj["sizes"], 1]
    obj["feature"] = [-1, *obj["feature"], -1]
    obj["value"] = [0.25, *obj["value"], 1.0]
    for key in ("left", "right"):
        obj[key] = [0, *(v + 1 for v in obj[key]), last]
    forests.append((forest_from_json(obj), forests[0][1]))
    leaves = {"n_trees": 3, "rng_seed": 0, "n_features": 6, "sizes": [1, 1, 1],
              "feature": [-1, -1, -1], "value": [0.1, 0.7, 0.3],
              "left": [0, 1, 2], "right": [0, 1, 2]}
    forests.append((forest_from_json(leaves), forests[0][1]))
    for forest, X in forests:
        for probe in (X, on_thresholds(forest, rng, 200), X[:1], X[:0]):
            got = forest.predict_proba(probe)
            assert got.shape == (len(probe),)
            assert np.array_equal(got, ref_predict_proba(forest, probe))


def test_a_row_on_the_threshold_goes_left():
    obj = {"n_trees": 1, "rng_seed": 0, "n_features": 1, "sizes": [3],
           "feature": [0, -1, -1], "value": [0.5, 0.0, 1.0],
           "left": [1, 1, 2], "right": [2, 1, 2]}
    forest = forest_from_json(obj)
    assert forest.predict_proba([[0.5], [np.nextafter(0.5, 1)]]).tolist() == [0.0, 1.0]


@pytest.mark.parametrize("case", sorted(MALFORMED_FOREST))
def test_malformed_forest_json_rejected(case):
    X, y = separable_samples(n=24, noise=0.25, seed=8)
    obj = forest_to_json(train_forest((X, y), n_trees=2, rng_seed=5))
    assert obj["sizes"] == [3, 3] and obj["feature"][4:] == [-1, -1]
    assert obj["left"] == [1, 1, 2, 4, 4, 5] and obj["right"] == [2, 1, 2, 5, 4, 5]
    broken = malformed_forest(obj, case)
    with pytest.raises(CmcError, match="model.json"):
        forest_from_json(broken)
    outcome = same_outcome(
        lambda o: forest_to_json(forest_from_json(o)),
        lambda o: forest_to_json(ref_forest_from_json(o)),
        broken,
    )
    assert isinstance(outcome, CmcError)


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


def test_graph_without_candidates_costs_nothing():
    """A graph with no candidate and no edge: label_instances gives rows
    of the forests' widths and predict_costs an empty CostTable (the
    rows of no key used to have shape (0,), which ended in
    SchemaMismatch)."""
    crag, (nf, ef) = quad_features()
    sol = best_effort(crag, quad_gt())
    nodes, edges = label_instances(crag, sol, nf, ef)
    node_forest = train_forest(nodes, n_trees=3, rng_seed=1)
    edge_forest = train_forest(edges, n_trees=3, rng_seed=2)
    empty = build_crag([], [], np.zeros((2, 0), dtype=np.int64))
    (node_x, node_y), (edge_x, edge_y) = label_instances(
        empty, Solution({}, {}, 0.0), {}, {}
    )
    assert node_x.shape == (0, 147) and edge_x.shape == (0, 592)
    assert node_y.shape == edge_y.shape == (0,)
    costs = predict_costs(node_forest, edge_forest, empty, {}, {})
    assert costs.f == {} and costs.g == {}
    # a candidate but no edge: the edge rows still have 592 columns
    lone = build_crag([], [], leaf_image({1: [(0, 0)]}, 1, 1))
    lone_nf, lone_ef = compute_features(lone, np.zeros((1, 1)), np.zeros((1, 1)))
    assert costmodel._forest_rows(lone, lone_nf, lone_ef)[1].shape == (0, 592)
    assert predict_costs(node_forest, edge_forest, lone, lone_nf, lone_ef).g == {}


def test_edge_vectors_of_another_length_rejected():
    """Edge vectors that are not the 4 statistics, such as the 592-entry
    vectors of older releases, raise CmcError by name."""
    crag, (nf, ef) = quad_features()
    rows = dict(zip(crag.adjacency, costmodel._forest_rows(crag, nf, ef)[1]))
    sol = best_effort(crag, quad_gt())
    with pytest.raises(CmcError, match="edge features are not vectors of 4 numbers"):
        label_instances(crag, sol, nf, rows)


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
        costs_from_json(json_with(obj, *MALFORMED_COSTS[case]))
