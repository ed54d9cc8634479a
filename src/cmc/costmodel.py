"""From ground truth to selection and merge costs.

best_effort builds the feasible assignment closest to a ground-truth
labeling; label_instances turns it into positive/negative training
samples; train_forest grows a deterministic random forest from scratch
(class-balanced bootstrap, Gini splits over sqrt-many random features);
predict_costs maps forest probabilities to negative log-odds costs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .crag import (
    Solution,
    edge_to_str,
    json_edge,
    json_id,
    json_member,
    json_value,
    validate_solution,
)
from .errors import (
    CmcError,
    DegenerateInput,
    DimensionMismatch,
    InfeasibleSolution,
    SchemaMismatch,
    SingleClass,
)

PROB_CLAMP = 1e-6


def leaf_gt_labels(crag, ground_truth):
    """Plurality ground-truth label per leaf; ties go to the smaller label.

    Background (0) takes part in the vote, so majority-background
    leaves map to 0.
    """
    gt = np.asarray(ground_truth)
    leaf_labels = crag.leaf_labels()
    return {
        leaf: int(np.argmax(np.bincount(gt[leaf_labels == leaf])))
        for leaf in crag.leaves()
    }


def best_effort(crag, ground_truth, mode="full"):
    """Feasible assignment matching the ground truth as closely as possible.

    Every candidate whose leaves all carry one non-zero label is
    eligible; per object the maximal eligible candidates are selected
    (one candidate cannot have an eligible parent).  Adjacency edges
    between selected candidates of the same object are merged.  With
    mode "merge_tree_only" the merge indicators stay zero, giving the
    best pure candidate selection.  The objective is reported as 0.0:
    no cost table is involved here.
    """
    gt = np.asarray(ground_truth)
    if gt.shape != (crag.height, crag.width):
        raise DimensionMismatch((crag.height, crag.width), gt.shape)
    if gt.min() < 0:
        raise DegenerateInput("ground-truth labels must be non-negative")
    if mode not in ("full", "merge_tree_only"):
        raise CmcError(f"unsupported best-effort mode {mode!r}")

    leaf_label = leaf_gt_labels(crag, gt.astype(np.int64))
    eligible = {}
    for cid in crag.ids():
        labs = {leaf_label[leaf] for leaf in crag.leaves_under(cid)}
        if len(labs) == 1:
            lab = labs.pop()
            if lab != 0:
                eligible[cid] = lab

    y = {}
    for cid in crag.ids():
        parent = crag.parent(cid)
        y[cid] = int(cid in eligible and (parent is None or parent not in eligible))

    if mode == "merge_tree_only":
        m = {e: 0 for e in crag.adjacency}
    else:
        m = {
            (i, j): int(bool(y[i] and y[j] and eligible[i] == eligible[j]))
            for (i, j) in crag.adjacency
        }
    return Solution(y=y, m=m, objective=0.0)


def _feature_rows(feats, keys, kind):
    """Matrix of feats[k] for k in keys; CmcError unless feats holds
    exactly these keys."""
    if set(feats) != set(keys):
        raise CmcError(f"{kind} features do not match the graph's {kind}s")
    return np.array([feats[k] for k in keys])


def label_instances(crag, solution, node_feats, edge_feats):
    """Training samples relative to a reference solution.

    A candidate is positive iff it lies in the subtree of a selected
    candidate (it is then consistent with a single object).  An edge is
    positive iff both endpoints are positive and their selected
    ancestors belong to one merged group.  Returns ((X, y) for nodes,
    (X, y) for edges), ordered by candidate id / edge key.  An infeasible
    reference solution raises InfeasibleSolution.
    """
    violations = validate_solution(crag, solution)
    if violations:
        raise InfeasibleSolution(violations)
    selected = [i for i in crag.ids() if solution.y[i]]
    owner = {}
    for s in selected:
        stack = [s]
        while stack:
            node = stack.pop()
            owner[node] = s
            stack.extend(crag.candidates[node].children)

    group = solution.merged_groups(selected)
    ids = crag.ids()
    node_x = _feature_rows(node_feats, ids, "node")
    node_y = np.array([int(i in owner) for i in ids])
    edges = list(crag.adjacency)
    if edges:
        edge_x = _feature_rows(edge_feats, edges, "edge")
        edge_y = np.array(
            [
                int(i in owner and j in owner and group[owner[i]] == group[owner[j]])
                for (i, j) in edges
            ],
            dtype=np.int64,
        )
    else:
        edge_x = np.zeros((0, 0))
        edge_y = np.zeros(0, dtype=np.int64)
    return (node_x, node_y), (edge_x, edge_y)


# ---------------------------------------------------------------------------
# random forest


def _best_split(values, labels):
    """Best Gini split over the given feature columns.

    values: (n, k) feature matrix; labels: (n,) in {0, 1}.  Returns
    (column, threshold) minimizing the weighted child impurity, or None
    when every column is constant.
    """
    n = len(labels)
    order = np.argsort(values, axis=0, kind="stable")
    sv = np.take_along_axis(values, order, axis=0)
    sy = labels[order]
    cum_pos = np.cumsum(sy, axis=0).astype(np.float64)
    total_pos = cum_pos[-1]

    nl = np.arange(1, n, dtype=np.float64)[:, None]
    nr = n - nl
    pl = cum_pos[:-1]
    pr = total_pos[None, :] - pl
    score = (nl - (pl**2 + (nl - pl) ** 2) / nl) + (
        nr - (pr**2 + (nr - pr) ** 2) / nr
    )
    score = np.where(sv[1:] > sv[:-1], score, np.inf)

    flat = int(np.argmin(score))
    row, col = np.unravel_index(flat, score.shape)
    if not np.isfinite(score[row, col]):
        return None
    thr = 0.5 * (sv[row, col] + sv[row + 1, col])
    if not (sv[row, col] <= thr < sv[row + 1, col]):
        thr = sv[row, col]
    return int(col), float(thr)


def _grow_tree(X, y, rows, rng, k):
    """One tree on the bootstrap rows; nodes as JSON-ready dicts."""
    nodes = []
    stack = [(0, rows)]
    nodes.append(None)
    while stack:
        slot, idx = stack.pop()
        ys = y[idx]
        pos = int(ys.sum())
        if pos == 0 or pos == len(ys):
            nodes[slot] = {"prob": float(pos / len(ys))}
            continue
        feats = np.sort(rng.choice(X.shape[1], size=k, replace=False))
        best = _best_split(X[np.ix_(idx, feats)], ys)
        if best is None:
            nodes[slot] = {"prob": float(pos / len(ys))}
            continue
        col, thr = best
        feature = int(feats[col])
        mask = X[idx, feature] <= thr
        left, right = len(nodes), len(nodes) + 1
        nodes.extend([None, None])
        nodes[slot] = {
            "feature": feature,
            "threshold": thr,
            "left": left,
            "right": right,
        }
        stack.append((left, idx[mask]))
        stack.append((right, idx[~mask]))
    return nodes


def _tree_predict(nodes, X):
    out = np.empty(len(X))
    stack = [(0, np.arange(len(X)))]
    while stack:
        slot, idx = stack.pop()
        if len(idx) == 0:
            continue
        node = nodes[slot]
        if "prob" in node:
            out[idx] = node["prob"]
            continue
        mask = X[idx, node["feature"]] <= node["threshold"]
        stack.append((node["left"], idx[mask]))
        stack.append((node["right"], idx[~mask]))
    return out


@dataclass
class Forest:
    trees: list
    n_trees: int
    rng_seed: int
    n_features: int

    def predict_proba(self, X):
        """Mean positive-class probability over the trees."""
        X = np.atleast_2d(_finite(X))
        if X.shape[1] != self.n_features:
            raise SchemaMismatch(self.n_features, X.shape[1])
        acc = np.zeros(len(X))
        for nodes in self.trees:
            acc += _tree_predict(nodes, X)
        return acc / len(self.trees)


def _finite(X):
    """Features as float64; CmcError on NaN or infinity, which no split
    threshold orders."""
    X = np.asarray(X, dtype=np.float64)
    if not np.isfinite(X).all():
        raise CmcError("features must be finite")
    return X


def train_forest(samples, n_trees, rng_seed):
    """Grow n_trees deterministic trees on class-balanced bootstraps.

    Each tree resamples both classes, with replacement, to the majority
    class size, then splits on Gini impurity over sqrt(n_features)
    random features per node until pure or unsplittable.  Tree t uses
    rng seed rng_seed + t, so training parallelizes without changing
    the result.
    """
    # predict_proba averages over the trees: none would give NaN costs
    if n_trees < 1:
        raise CmcError(f"n_trees must be >= 1, got {n_trees}")
    X, y = samples
    X = _finite(X)
    # checked before the cast, which would make 0.4 a 0 and 1.7 a 1
    y = np.asarray(y)
    if not np.isin(y, (0, 1)).all():
        raise CmcError("sample labels must be 0 or 1")
    y = y.astype(np.int64)
    idx0 = np.nonzero(y == 0)[0]
    idx1 = np.nonzero(y == 1)[0]
    if len(idx0) == 0 or len(idx1) == 0:
        raise SingleClass()
    per_class = max(len(idx0), len(idx1))
    k = max(1, int(math.sqrt(X.shape[1])))
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng(rng_seed + t)
        rows = np.concatenate(
            [
                rng.choice(idx0, size=per_class, replace=True),
                rng.choice(idx1, size=per_class, replace=True),
            ]
        )
        trees.append(_grow_tree(X, y, rows, rng, k))
    return Forest(trees, n_trees, rng_seed, int(X.shape[1]))


# ---------------------------------------------------------------------------
# costs


@dataclass
class CostTable:
    f: dict  # candidate id -> selection cost
    g: dict  # adjacency edge -> merge cost


def probability_to_cost(p):
    """log((1-p)/p) with p clamped away from {0, 1}; 0 at p = 0.5."""
    p = min(max(p, PROB_CLAMP), 1.0 - PROB_CLAMP)
    return math.log((1.0 - p) / p)


def predict_costs(node_forest, edge_forest, crag, node_feats, edge_feats):
    """CostTable from the two forests: selection costs f, merge costs g."""
    ids = crag.ids()
    probs = node_forest.predict_proba(_feature_rows(node_feats, ids, "node"))
    f = {i: probability_to_cost(p) for i, p in zip(ids, probs)}
    edges = list(crag.adjacency)
    g = {}
    if edges:
        probs = edge_forest.predict_proba(_feature_rows(edge_feats, edges, "edge"))
        g = {e: probability_to_cost(p) for e, p in zip(edges, probs)}
    return CostTable(f, g)


# ---------------------------------------------------------------------------
# JSON serialization


def forest_to_json(forest):
    return {
        "n_trees": forest.n_trees,
        "rng_seed": forest.rng_seed,
        "n_features": forest.n_features,
        "trees": forest.trees,
    }


def _tree_from_json(nodes, n_features, where):
    """A tree's node list, checked so that _tree_predict can walk it: each
    split names a feature below n_features and children after itself."""
    doc = "model.json"
    json_value(doc, nodes, list, where)
    if not nodes:
        raise CmcError(f"{doc}: {where} has no node")
    for slot, node in enumerate(nodes):
        at = f"node {slot} of {where}"
        if isinstance(node, dict) and "prob" in node:
            json_member(doc, node, "prob", float, at)
            continue
        feature = json_member(doc, node, "feature", int, at)
        json_member(doc, node, "threshold", float, at)
        children = [json_member(doc, node, k, int, at) for k in ("left", "right")]
        if not 0 <= feature < n_features:
            raise CmcError(f"{doc}: {at} splits on feature {feature} of {n_features}")
        if not all(slot < child < len(nodes) for child in children):
            raise CmcError(f"{doc}: {at} has children {children} out of order")
    return nodes


def forest_from_json(obj, where="forest"):
    """Forest from its JSON form; malformed input raises CmcError."""
    doc = "model.json"
    n_features = json_member(doc, obj, "n_features", int, where)
    n_trees = json_member(doc, obj, "n_trees", int, where)
    trees = json_member(doc, obj, "trees", list, where)
    # predict_proba averages over the trees: none would give NaN costs
    if not trees:
        raise CmcError(f"{doc}: {where} has no tree")
    if len(trees) != n_trees:
        raise CmcError(f"{doc}: {where} has {len(trees)} trees, not n_trees {n_trees}")
    return Forest(
        trees=[
            _tree_from_json(nodes, n_features, f"tree {t} of {where}")
            for t, nodes in enumerate(trees)
        ],
        n_trees=n_trees,
        rng_seed=json_member(doc, obj, "rng_seed", int, where),
        n_features=n_features,
    )


def costs_to_json(costs):
    return {
        "f": {str(i): float(v) for i, v in sorted(costs.f.items())},
        "g": {edge_to_str(e): float(v) for e, v in sorted(costs.g.items())},
    }


def costs_from_json(obj):
    """CostTable from its JSON form; malformed input raises CmcError."""
    doc = "costs.json"
    f, g = (json_member(doc, obj, key, dict, "costs") for key in ("f", "g"))
    costs = CostTable(
        f={json_id(doc, i): json_value(doc, v, float, f"f[{i}]") for i, v in f.items()},
        g={
            json_edge(doc, k): json_value(doc, v, float, f"g[{k}]")
            for k, v in g.items()
        },
    )
    if len(costs.f) < len(f) or len(costs.g) < len(g):
        raise CmcError(f"{doc}: two keys name the same candidate or edge")
    return costs
