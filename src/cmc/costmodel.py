"""From ground truth to selection and merge costs.

best_effort builds the feasible assignment closest to a ground-truth
labeling; label_instances turns it into positive/negative training
samples; train_forest grows a deterministic random forest from scratch
(class-balanced bootstrap, Gini splits over sqrt-many random features);
each tree works on its distinct bootstrap rows weighted by their draw
counts, and cuts are ranked by the key (score, left size, feature), so
it grows the trees that splitting the draws one by one would, and the
order in which the sort leaves equal values cannot change a split.  A
forest is one set of arrays (Forest): the grower appends to them,
predict_proba walks them, and model.json holds them as lists, which
forest_from_json checks in array passes.  predict_costs maps forest
probabilities to negative log-odds costs.
label_instances and predict_costs read the same rows: the node vectors,
and the edge rows that features.edge_rows forms from them and the
edges' own 4 statistics.
"""

import math
from dataclasses import dataclass

import numpy as np

from .crag import (
    UNCOVERED,
    Solution,
    edge_to_str,
    json_column,
    json_keyed,
    json_known,
    json_member,
    json_value,
    param_value,
    real_array,
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
from .evaluate import contingency_table, int_labels
from .features import edge_feature_names, edge_rows, node_feature_names

PROB_CLAMP = 1e-6
_NODE_WIDTH = len(node_feature_names())
_EDGE_WIDTH = len(edge_feature_names())


def leaf_gt_labels(crag, ground_truth):
    """Plurality ground-truth label per leaf; ties go to the smaller label.

    Background (0) takes part in the vote, so majority-background
    leaves map to 0.  The votes are the contingency table of the leaf
    ranks (Crag.leaf_ranks) against the ground truth, so no table is
    sized by a leaf id or a label value; a rank names its leaf through
    Crag.leaf_order.
    """
    ranks = crag.leaf_ranks()
    if not ranks.size:
        return {}
    table = contingency_table(ranks, ground_truth)
    # in ascending (label, rank) order, so a larger label wins only with
    # more votes; UNCOVERED holds the pixels no leaf covers
    best = {}
    for (label, rank), votes in table.counts.items():
        if rank != UNCOVERED and votes > best.get(rank, (0, 0))[0]:
            best[rank] = (votes, label)
    return {crag.leaf_order[rank]: label for rank, (_, label) in best.items()}


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
    gt = int_labels(np.asarray(ground_truth), "ground-truth")
    if gt.shape != (crag.height, crag.width):
        raise DimensionMismatch((crag.height, crag.width), gt.shape)
    if gt.size and gt.min() < 0:
        raise DegenerateInput("ground-truth labels must be non-negative")
    if mode not in ("full", "merge_tree_only"):
        raise CmcError(f"unsupported best-effort mode {mode!r}")

    leaf_label = leaf_gt_labels(crag, gt)
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
    owner = {i: s for i in crag.ids() for s in [i] + crag.ancestors(i) if solution.y[s]}

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


def _grow_tree(XT, y, rows, rng, k, nodes):
    """Grow one tree on the bootstrap rows onto `nodes`, the forest's
    (feature, value, left, right) lists, numbering its nodes on from
    theirs; returns its node count.

    XT is the samples' feature-major copy, (n_features, n).  A node
    holds its distinct bootstrap rows and, on the stack, its draw count
    and positive draw count.  Every node is added as a leaf, and a node
    that a cut splits is then made a split.
    """
    feature, value, left, right = nodes
    counts = np.bincount(rows, minlength=len(y)).astype(np.float64)
    positives = counts * y
    root = len(value)
    feature.append(-1)
    value.append(0.0)
    left.append(root)
    right.append(root)
    stack = [(root, np.flatnonzero(counts), len(rows), int(y[rows].sum()))]
    while stack:
        node, idx, n, pos = stack.pop()
        value[node] = float(pos / n)
        if pos == 0 or pos == n:
            continue
        feats = np.sort(rng.choice(len(XT), size=k, replace=False))
        best = _best_split(XT[feats[:, None], idx], counts[idx], positives[idx])
        if best is None:
            continue
        row, thr, n_left, pos_left = best
        feature[node], value[node] = int(feats[row]), thr
        mask = XT[feature[node], idx] <= thr
        children = [len(value), len(value) + 1]
        left[node], right[node] = children
        feature += [-1, -1]
        value += [0.0, 0.0]
        left += children
        right += children
        stack.append((children[0], idx[mask], n_left, pos_left))
        stack.append((children[1], idx[~mask], n - n_left, pos - pos_left))
    return len(value) - root


@dataclass(eq=False)
class Forest:
    """Trees as the arrays that predict_proba walks and model.json holds.

    The trees lie one after the other, `sizes[t]` nodes for tree t, and
    the nodes are numbered across the forest.  Node i is a split on
    `feature[i]`: a row whose value there is at most `value[i]` goes to
    node `left[i]`, any other row to node `right[i]`, both later nodes
    of the same tree.  Or node i is a leaf: `left[i]` and `right[i]` are
    i itself, `feature[i]` is -1 and `value[i]` is its probability.
    sizes, feature, left and right are int64 arrays, value float64.
    """

    n_trees: int
    rng_seed: int
    n_features: int
    sizes: np.ndarray
    feature: np.ndarray
    value: np.ndarray
    left: np.ndarray
    right: np.ndarray

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
        left, right = self.left, self.right
        node = np.repeat(np.cumsum(self.sizes) - self.sizes, n)  # pair t * n + row
        live = np.flatnonzero(left[node] != node)
        while live.size:
            at = node[live]
            below = X[live % n, self.feature[at]] <= self.value[at]
            step = np.where(below, left[at], right[at])
            node[live] = step
            live = live[left[step] != step]
        acc = np.zeros(n)
        for leaf_probs in self.value[node].reshape(len(self.sizes), n):
            acc += leaf_probs
        return acc / len(self.sizes)


def _finite(X):
    """Features as float64; CmcError on NaN or infinity (no split orders them)."""
    X = real_array(X, "feature matrix")
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
    n_trees = param_value("n_trees", n_trees)
    rng_seed = param_value("rng_seed", rng_seed)
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
    nodes, sizes = ([], [], [], []), []
    for t in range(n_trees):
        rng = np.random.default_rng(rng_seed + t)
        rows = np.concatenate(
            [
                rng.choice(idx0, size=per_class, replace=True),
                rng.choice(idx1, size=per_class, replace=True),
            ]
        )
        sizes.append(_grow_tree(XT, y, rows, rng, k, nodes))
    # lists of Python ints and of floats: int64 and float64 arrays
    return Forest(n_trees, rng_seed, int(X.shape[1]), *map(np.array, (sizes, *nodes)))


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


_FOREST_LISTS = ("sizes", "feature", "value", "left", "right")
_FOREST_KEYS = frozenset(("n_trees", "rng_seed", "n_features") + _FOREST_LISTS)


def forest_to_json(forest):
    """The forest as model.json holds it: its arrays as lists."""
    return {
        "n_trees": forest.n_trees,
        "rng_seed": forest.rng_seed,
        "n_features": forest.n_features,
        **{key: getattr(forest, key).tolist() for key in _FOREST_LISTS},
    }


def forest_from_json(obj, doc="model.json", where="forest"):
    """Forest from its JSON form; malformed input raises CmcError naming
    `doc` and `where`, the forest's member in it.

    n_trees and rng_seed follow their rules in crag.PARAMS (param_value),
    and n_trees is the length of sizes.  Every other rule is one array
    pass over all nodes.  The fault named is the first that a check node
    by node, in tree and slot order, meets: its tree t, node s, and the
    first rule the node breaks.  A node's rules read only its own entries
    and the splits before it, so a fault can hide no earlier one.  Only
    the file forest_to_json writes is accepted: ints where ints belong,
    floats as floats, and a leaf in one form.  A forest of an older
    release, as node lists under 'trees', is rejected by name.
    """
    n_features = json_member(doc, obj, "n_features", int, where)
    n_trees, rng_seed = (
        param_value(key, json_member(doc, obj, key, int, where), f"{doc}: {where}")
        for key in ("n_trees", "rng_seed")
    )
    if "trees" in obj:
        raise CmcError(
            f"{doc}: {where} holds 'trees', the node lists of an older release; "
            "train the model again"
        )
    json_known(doc, obj, _FOREST_KEYS, where)
    tree_sizes, *columns = (
        json_member(doc, obj, key, list, where) for key in _FOREST_LISTS
    )
    if len(tree_sizes) != n_trees:
        raise CmcError(
            f"{doc}: {where} has {len(tree_sizes)} trees, not n_trees {n_trees}"
        )
    lengths = [len(column) for column in columns]
    if len(set(lengths)) > 1:
        named = ", ".join(f"{k} {n}" for k, n in zip(_FOREST_LISTS[1:], lengths))
        raise CmcError(f"{doc}: {where} has lists of unequal length: {named}")
    sizes, bad = json_column(tree_sizes, int)
    bad |= sizes < 1
    if bad.any():
        t = int(bad.argmax())
        raise CmcError(
            f"{doc}: tree {t} of {where} has size {tree_sizes[t]!r}, not an int >= 1"
        )
    if sum(tree_sizes) != lengths[0]:
        raise CmcError(
            f"{doc}: {where} has tree sizes adding up to {sum(tree_sizes)}, "
            f"not its {lengths[0]} nodes"
        )
    (feature, f_bad), (value, v_bad), (left, l_bad), (right, r_bad) = (
        json_column(column, kind)
        for column, kind in zip(columns, (int, float, int, int))
    )
    node = np.arange(len(value))
    stop = np.cumsum(sizes)
    end = np.repeat(stop, sizes)
    leaf = left == node
    children = np.stack([left, right])
    in_order = (node < children) & (children < end)
    parents = np.bincount(children[in_order & ~leaf], minlength=len(value))
    # in the order they are tried at a node: the nodes that break each
    # rule, and its message, where f, v, l and r are the node's entries as
    # in the file and c its count of parents among the splits before it
    rules = [
        (f_bad, "has feature {f!r}, not an int"),
        (v_bad, "has value {v!r}, not a float"),
        (l_bad, "has left {l!r}, not an int"),
        (r_bad, "has right {r!r}, not an int"),
        (
            leaf & ((feature != -1) | (right != node)),
            "is a leaf (left is itself) with feature {f} and right {r}, "
            "not -1 and itself",
        ),
        (
            leaf & ~((0.0 <= value) & (value <= 1.0)),
            "is a leaf with prob {v} outside [0, 1]",
        ),
        (
            ~leaf & ((feature < 0) | (feature >= n_features)),
            "splits on feature {f} of {n}",
        ),
        (~leaf & ~np.isfinite(value), "splits at threshold {v}, not a finite number"),
        (
            ~leaf & ~in_order.all(axis=0),
            "has children {l} and {r}, not both after it in its tree",
        ),
        (
            (node != end - np.repeat(sizes, sizes)) & (parents != 1),
            "is the child of {c} splits, not 1",
        ),
    ]
    broken = np.array([nodes for nodes, _ in rules])
    if broken.any():
        at = int(broken.any(axis=0).argmax())
        t = int(np.searchsorted(stop, at, side="right"))
        entries = dict(zip("fvlr", (column[at] for column in columns)))
        _, message = rules[int(broken[:, at].argmax())]
        raise CmcError(
            f"{doc}: tree {t}, node {at - stop[t] + sizes[t]} of {where} "
            + message.format(**entries, c=parents[at], n=n_features)
        )
    return Forest(n_trees, rng_seed, n_features, sizes, feature, value, left, right)


def costs_to_json(costs):
    return {
        "f": {str(i): float(v) for i, v in sorted(costs.f.items())},
        "g": {edge_to_str(e): float(v) for e, v in sorted(costs.g.items())},
    }


def costs_from_json(obj, doc="costs.json"):
    """CostTable from its JSON form; malformed input raises CmcError naming `doc`."""
    f, g = (json_member(doc, obj, key, dict, "costs") for key in ("f", "g"))
    json_known(doc, obj, ("f", "g"), "costs")
    return CostTable(*json_keyed(
        doc, f, g,
        lambda i, v: json_value(doc, v, float, f"f[{i}]"),
        lambda k, v: json_value(doc, v, float, f"g[{k}]"),
    ))
