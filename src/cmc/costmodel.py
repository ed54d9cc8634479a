"""From ground truth to selection and merge costs.

best_effort builds the feasible assignment closest to a ground-truth
labeling; label_instances turns it into positive/negative training
samples; train_forest grows a deterministic random forest from scratch
(class-balanced bootstrap, Gini splits over sqrt-many random features);
each tree works on its distinct bootstrap rows weighted by their draw
counts, and cuts are ranked by the key (score, left size, feature), so
it grows the trees that splitting the draws one by one would, and the
order in which the sort leaves equal values cannot change a split;
predict_costs maps forest probabilities to negative log-odds costs.
label_instances and predict_costs read the same rows: the node vectors,
and the edge rows that features.edge_rows forms from them and the
edges' own 4 statistics.
"""

import itertools
import math
import operator
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
from .features import edge_feature_names, edge_rows, node_feature_names

PROB_CLAMP = 1e-6
_NODE_WIDTH = len(node_feature_names())
_EDGE_WIDTH = len(edge_feature_names())


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


def _feature_rows(feats, keys, kind, width):
    """(len(keys), width) matrix of feats[k] for k in keys, also for no
    key; CmcError unless feats holds exactly these keys, each a vector
    of `width` finite numbers."""
    if set(feats) != set(keys):
        raise CmcError(f"{kind} features do not match the graph's {kind}s")
    rows = _finite([feats[k] for k in keys]) if keys else np.zeros((0, width))
    if rows.shape[1:] != (width,):
        raise CmcError(f"{kind} features are not vectors of {width} numbers")
    return rows


def _forest_rows(crag, node_feats, edge_feats):
    """The rows the node forest and the edge forest read, in id and in
    adjacency order: the node vectors, and edge_rows of the node vectors
    and the edges' own vectors.  Features of other keys than the
    graph's, or of other lengths than compute_features', raise CmcError.
    """
    ids = crag.ids()
    node_x = _feature_rows(node_feats, ids, "node", _NODE_WIDTH)
    stats = _feature_rows(edge_feats, crag.adjacency, "edge", _EDGE_WIDTH)
    ends = np.searchsorted(ids, np.reshape(crag.adjacency, (-1, 2)))
    return node_x, edge_rows(node_x, ends, stats)


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
    node_x, edge_x = _forest_rows(crag, node_feats, edge_feats)
    node_y = np.array([int(i in owner) for i in crag.ids()], dtype=np.int64)
    edge_y = np.array(
        [
            int(i in owner and j in owner and group[owner[i]] == group[owner[j]])
            for (i, j) in crag.adjacency
        ],
        dtype=np.int64,
    )
    return (node_x, node_y), (edge_x, edge_y)


# ---------------------------------------------------------------------------
# random forest


def _best_split(values, counts, positives):
    """Best Gini split over the given features of a node's distinct rows.

    values: (k, m) feature-major matrix, one row per candidate feature
    and one column per distinct bootstrap row of the node; counts and
    positives: (m,) float64, how often each row was drawn and how many
    of those draws are positive.  Returns (feature row, threshold, left
    size, left positives) for the split minimizing the weighted child
    impurity, or None when every feature is constant.

    A cut after sorted position i is valid when the next value is
    larger.  Its left child is then every draw whose value is at most
    the i-th, whatever order the sort left equal values in, so an
    unstable sort will do.  Cumulative counts give the children's sizes
    and positive counts: the same integers as over the draws one by
    one, hence the same float scores.  Among the least scores the key
    (left size, feature row) picks the cut, as the first minimum over
    (draw, feature) of the per-draw matrix does.
    """
    order = values.argsort(axis=1)
    sv = values[np.arange(len(values))[:, None], order]
    cum_n = counts[order].cumsum(axis=1)
    cum_pos = positives[order].cumsum(axis=1)
    nl = cum_n[:, :-1]
    nr = cum_n[:, -1:] - nl
    pl = cum_pos[:, :-1]
    pr = cum_pos[:, -1:] - pl
    score = (nl - (pl**2 + (nl - pl) ** 2) / nl) + (
        nr - (pr**2 + (nr - pr) ** 2) / nr
    )
    score = np.where(sv[:, 1:] > sv[:, :-1], score, np.inf)
    best = score.min()
    if best == np.inf:
        return None
    rows, cuts = (score == best).nonzero()
    # nonzero lists by feature row, so argmin keeps the least row on a tie
    at = int(nl[rows, cuts].argmin())
    row, cut = rows[at], cuts[at]
    # Python floats: a midpoint past the largest float is inf, unwarned
    lo, hi = float(sv[row, cut]), float(sv[row, cut + 1])
    thr = 0.5 * (lo + hi)
    if not (lo <= thr < hi):
        thr = lo
    return int(row), thr, int(nl[row, cut]), int(pl[row, cut])


def _grow_tree(XT, y, rows, rng, k):
    """One tree on the bootstrap rows; nodes as JSON-ready dicts.

    XT is the samples' feature-major copy, (n_features, n).  A node
    holds its distinct bootstrap rows and, on the stack, its draw count
    and positive draw count.
    """
    counts = np.bincount(rows, minlength=len(y)).astype(np.float64)
    positives = counts * y
    nodes = [None]
    stack = [(0, np.flatnonzero(counts), len(rows), int(y[rows].sum()))]
    while stack:
        slot, idx, n, pos = stack.pop()
        if pos == 0 or pos == n:
            nodes[slot] = {"prob": float(pos / n)}
            continue
        feats = np.sort(rng.choice(len(XT), size=k, replace=False))
        best = _best_split(XT[feats[:, None], idx], counts[idx], positives[idx])
        if best is None:
            nodes[slot] = {"prob": float(pos / n)}
            continue
        row, thr, n_left, pos_left = best
        feature = int(feats[row])
        mask = XT[feature, idx] <= thr
        left, right = len(nodes), len(nodes) + 1
        nodes.extend([None, None])
        nodes[slot] = {
            "feature": feature,
            "threshold": thr,
            "left": left,
            "right": right,
        }
        stack.append((left, idx[mask], n_left, pos_left))
        stack.append((right, idx[~mask], n - n_left, pos - pos_left))
    return nodes


@dataclass
class Forest:
    """Trees as JSON-ready node lists, and the same nodes as flat arrays.

    Construction copies every tree's nodes into one set of arrays,
    indexed by global node number: split feature, threshold, left and
    right child, and leaf probability.  A leaf's children are itself.
    `trees` stays the JSON form, so forest_to_json writes what was read.
    The arrays do not follow later edits of `trees`; forest_to_json
    returns copies of its nodes, so edits of its result touch neither.
    """

    trees: list
    n_trees: int
    rng_seed: int
    n_features: int

    def __post_init__(self):
        feature, threshold, left, right, prob, roots = [], [], [], [], [], []
        for nodes in self.trees:
            base = len(prob)
            roots.append(base)
            for slot, node in enumerate(nodes, start=base):
                if "prob" in node:
                    feature.append(0)
                    threshold.append(0.0)
                    left.append(slot)
                    right.append(slot)
                    prob.append(node["prob"])
                else:
                    feature.append(node["feature"])
                    threshold.append(node["threshold"])
                    left.append(base + node["left"])
                    right.append(base + node["right"])
                    prob.append(0.0)
        self._feature = np.array(feature, dtype=np.intp)
        self._threshold = np.array(threshold, dtype=np.float64)
        self._left = np.array(left, dtype=np.intp)
        self._right = np.array(right, dtype=np.intp)
        self._prob = np.array(prob, dtype=np.float64)
        self._roots = np.array(roots, dtype=np.intp)

    def predict_proba(self, X):
        """Mean positive-class probability over the trees.

        All (tree, row) pairs descend at once, one level per step, and a
        pair leaves the walk at its leaf; X[row, feature] <= threshold
        goes left.  Every child comes after its parent, so the walk
        ends.  The leaf probabilities are summed tree by tree, in tree
        order, then divided by the tree count.
        """
        X = np.atleast_2d(_finite(X))
        if X.shape[1] != self.n_features:
            raise SchemaMismatch(self.n_features, X.shape[1])
        n = len(X)
        left, right = self._left, self._right
        node = np.repeat(self._roots, n)  # pair t * n + row
        live = np.flatnonzero(left[node] != node)
        while live.size:
            at = node[live]
            below = X[live % n, self._feature[at]] <= self._threshold[at]
            step = np.where(below, left[at], right[at])
            node[live] = step
            live = live[left[step] != step]
        acc = np.zeros(n)
        for leaf_probs in self._prob[node].reshape(len(self._roots), n):
            acc += leaf_probs
        return acc / len(self.trees)


def _finite(X):
    """Features as float64; CmcError on NaN or infinity, which no split
    threshold orders, and on rows of unequal length or non-numbers."""
    try:
        X = np.asarray(X, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise CmcError(f"features must be a matrix of numbers: {exc}") from exc
    if not np.isfinite(X).all():
        raise CmcError("features must be finite")
    return X


def train_forest(samples, n_trees, rng_seed):
    """Grow n_trees deterministic trees on class-balanced bootstraps.

    samples is (X, y): an (n, n_features) matrix with n_features >= 1
    and n labels in {0, 1}; any other shape raises CmcError.  Each tree
    resamples both classes, with replacement, to the majority class
    size, then splits on Gini impurity over sqrt(n_features) random
    features per node until pure or unsplittable.  Tree t uses rng seed
    rng_seed + t, so training parallelizes without changing the result.

    A tree is grown on its distinct bootstrap rows, each weighted by how
    often it was drawn (_grow_tree, _best_split), over one feature-major
    copy of X sorted per node by an unstable argsort.  Sizes and
    positive counts are sums of draw counts, so every score, tie-break
    and threshold is the one that growing on the draws one by one,
    sorted stably, gives: the trees are the same, bit for bit.
    """
    # predict_proba averages over the trees: none would give NaN costs
    if n_trees < 1:
        raise CmcError(f"n_trees must be >= 1, got {n_trees}")
    # numpy seeds only non-negative ints
    if rng_seed < 0:
        raise CmcError(f"rng_seed must be >= 0, got {rng_seed}")
    X, y = samples
    X = _finite(X)
    if X.ndim != 2:
        raise CmcError(f"sample features must be a 2-D matrix, got shape {X.shape}")
    if X.shape[1] == 0:
        raise CmcError("sample features have no column")
    # checked before the cast, which would make 0.4 a 0 and 1.7 a 1
    y = np.asarray(y)
    if y.ndim != 1:
        raise CmcError(f"sample labels must be a 1-D array, got shape {y.shape}")
    if len(y) != len(X):
        raise CmcError(f"{len(y)} sample labels for {len(X)} feature rows")
    if not np.isin(y, (0, 1)).all():
        raise CmcError("sample labels must be 0 or 1")
    y = y.astype(np.int64)
    idx0 = np.nonzero(y == 0)[0]
    idx1 = np.nonzero(y == 1)[0]
    if len(idx0) == 0 or len(idx1) == 0:
        raise SingleClass()
    per_class = max(len(idx0), len(idx1))
    k = max(1, int(math.sqrt(X.shape[1])))
    XT = np.ascontiguousarray(X.T)
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng(rng_seed + t)
        rows = np.concatenate(
            [
                rng.choice(idx0, size=per_class, replace=True),
                rng.choice(idx1, size=per_class, replace=True),
            ]
        )
        trees.append(_grow_tree(XT, y, rows, rng, k))
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
    node_x, edge_x = _forest_rows(crag, node_feats, edge_feats)
    probs = node_forest.predict_proba(node_x)
    f = {i: probability_to_cost(p) for i, p in zip(crag.ids(), probs)}
    probs = edge_forest.predict_proba(edge_x)
    g = {e: probability_to_cost(p) for e, p in zip(crag.adjacency, probs)}
    return CostTable(f, g)


# ---------------------------------------------------------------------------
# JSON serialization


def forest_to_json(forest):
    return {
        "n_trees": forest.n_trees,
        "rng_seed": forest.rng_seed,
        "n_features": forest.n_features,
        "trees": [[dict(node) for node in nodes] for nodes in forest.trees],
    }


_SPLIT_KEYS = ("feature", "threshold", "left", "right")
_split_values = operator.itemgetter(*_SPLIT_KEYS)


def _tree_from_json(nodes, n_features, where):
    """A tree's node list, checked to be one that _grow_tree makes.

    Each node is a leaf, with a prob in [0, 1] and no split key, or a
    split on a feature below n_features.  Each child comes after its
    split, and every node but the root is the child of exactly one
    split, so the walk of Forest.predict_proba reaches a leaf.
    """
    doc = "model.json"
    json_value(doc, nodes, list, where)
    if not nodes:
        raise CmcError(f"{doc}: {where} has no node")
    parents = [0] * len(nodes)
    for slot, node in enumerate(nodes):
        at = f"node {slot} of {where}"
        if isinstance(node, dict) and "prob" in node:
            prob = json_member(doc, node, "prob", float, at)
            if not 0.0 <= prob <= 1.0:
                raise CmcError(f"{doc}: {at} has prob {prob} outside [0, 1]")
            if any(key in node for key in _SPLIT_KEYS):
                raise CmcError(f"{doc}: {at} is both a leaf and a split")
            continue
        feature = json_member(doc, node, "feature", int, at)
        json_member(doc, node, "threshold", float, at)
        children = [json_member(doc, node, k, int, at) for k in ("left", "right")]
        if not 0 <= feature < n_features:
            raise CmcError(f"{doc}: {at} splits on feature {feature} of {n_features}")
        if not all(slot < child < len(nodes) for child in children):
            raise CmcError(f"{doc}: {at} has children {children} out of order")
        for child in children:
            parents[child] += 1
    for slot, count in enumerate(parents[1:], start=1):
        if count != 1:
            raise CmcError(
                f"{doc}: node {slot} of {where} is the child of {count} splits, not 1"
            )
    return nodes


def _trees_as_grown(trees, n_features):
    """Whether every tree in `trees` is shown valid, as _tree_from_json
    would find it, by one type pass over all nodes and a few array
    passes.

    Only the trainer's own form is shown: every node a dict, a leaf a
    float prob in [0, 1] and no other key, a split an int feature, left
    and right and a float threshold.  False means "not shown", and the
    caller checks node by node, which names the fault or accepts a valid
    tree of another form, such as an int prob or an extra key.
    """
    if set(map(type, trees)) != {list} or not all(trees):
        return False
    nodes = list(itertools.chain.from_iterable(trees))
    if set(map(type, nodes)) != {dict}:
        return False
    is_leaf = np.array(["prob" in node for node in nodes], dtype=bool)
    leaves = list(itertools.compress(nodes, is_leaf))
    try:
        splits = list(map(_split_values, itertools.compress(nodes, ~is_leaf)))
    except KeyError:
        return False
    probs = [node["prob"] for node in leaves]
    feature, threshold, left, right = zip(*splits) if splits else ((),) * 4
    if (
        set(map(len, leaves)) != {1}
        or set(map(type, probs + list(threshold))) != {float}
        or not set(map(type, feature + left + right)) <= {int}
    ):
        return False
    try:
        feature = np.array(feature, dtype=np.int64)
        children = np.array([left, right], dtype=np.int64)
    except OverflowError:  # an int beyond int64
        return False
    sizes = np.array(list(map(len, trees)))
    tree = np.repeat(np.arange(len(trees)), sizes)
    starts = np.cumsum(sizes) - sizes
    slot = np.arange(len(nodes)) - starts[tree]
    split_tree = tree[~is_leaf]
    if not ((slot[~is_leaf] < children) & (children < sizes[split_tree])).all():
        return False
    parents = np.bincount((children + starts[split_tree]).ravel(), minlength=len(nodes))
    probs, threshold = np.array(probs), np.array(threshold, dtype=np.float64)
    return bool(
        (parents[slot > 0] == 1).all()
        and ((0.0 <= probs) & (probs <= 1.0)).all()
        and np.isfinite(threshold).all()
        and ((0 <= feature) & (feature < n_features)).all()
    )


def forest_from_json(obj, where="forest"):
    """Forest from its JSON form; malformed input raises CmcError.

    The trees are checked in bulk (_trees_as_grown); only when that
    does not show them valid are they checked node by node
    (_tree_from_json), which names the first fault, tree by tree.
    """
    doc = "model.json"
    n_features = json_member(doc, obj, "n_features", int, where)
    n_trees = json_member(doc, obj, "n_trees", int, where)
    trees = json_member(doc, obj, "trees", list, where)
    # predict_proba averages over the trees: none would give NaN costs
    if not trees:
        raise CmcError(f"{doc}: {where} has no tree")
    if len(trees) != n_trees:
        raise CmcError(f"{doc}: {where} has {len(trees)} trees, not n_trees {n_trees}")
    # train_forest seeds numpy with it, which takes no negative seed
    rng_seed = json_member(doc, obj, "rng_seed", int, where)
    if rng_seed < 0:
        raise CmcError(f"{doc}: {where} has rng_seed {rng_seed} < 0")
    if not _trees_as_grown(trees, n_features):
        for t, nodes in enumerate(trees):
            _tree_from_json(nodes, n_features, f"tree {t} of {where}")
    return Forest(
        trees=list(trees), n_trees=n_trees, rng_seed=rng_seed, n_features=n_features
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
