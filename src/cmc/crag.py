"""Candidate region adjacency graph.

A Crag holds a pool of candidate regions and adjacency edges between
disjoint touching candidates.  The pixels live in one label image,
`Crag.leaf_labels()`, the one statement of the leaves: each pixel holds
the id of the leaf (superpixel) covering it, and each distinct label is
one leaf.  Each inner candidate's children are the one statement of
nesting: they form the subset forest, whose child -> parent map
build_crag derives as `Crag.subset`, and an inner node covers the pixels
of its leaves.  The leaves are numbered once, by their ranks in one
depth-first order (`Crag.leaf_order`), in which each candidate's leaves
are one range (`Crag.leaf_range`).  The module also provides
conflict-clique enumeration, validation of binary assignments against
the overlap / incidence / path constraint families, and JSON
(de)serialization.  crag.json holds the label image itself, run-length
encoded in row-major order as one flat list `leaf_labels` of (leaf id or
UNCOVERED, run length) int pairs, and one entry per inner candidate, its
`id` and `children`.  Helpers shared by every JSON loader live beside
it: the json_value check, its one-pass json_column form for int and
float lists, json_known, which rejects members that no release writes,
and json_keyed for objects keyed by candidate id and by edge.

The graph facts are defined here once each: which pixels touch
(pixel_pairs), which candidates are adjacent and through which leaf
pairs (_lift) and which candidates a merge assignment joins
(Solution.merged_groups).  The adjacency rule: a Crag's adjacency is a
subset of the pairs of disjoint candidates with a 4-neighbour pixel
pair between them, and extract_candidates emits all of them.
"""

import itertools
import math
import re
from collections import deque, namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AdjacencyBetweenOverlapping,
    CmcError,
    DegenerateInput,
    KeyMismatch,
    LeavesDoNotCoverImage,
    NotAdjacent,
    SubsetNotForest,
)


@dataclass(frozen=True)
class Candidate:
    """One region: a superpixel (a leaf, no children) or a merge result.

    Ids are non-negative and below 2**63.  build_crag makes the leaves,
    one per label of the leaf label image, and takes the inner
    candidates.  A leaf's pixels are those where the owning Crag's
    `leaf_labels()` image holds its id; an inner node's pixels are those
    whose label is one of `Crag.leaves_under(id)`.
    """

    id: int
    children: tuple = ()


@dataclass(frozen=True)
class PathConstraint:
    """Σ_{e ∈ path} m_e − m_bypassed ≤ len(path) − 1.

    Forbids connecting two candidates through selected edges while the
    direct edge between them stays unselected.
    """

    path: tuple  # ordered adjacency edges, each a sorted (i, j) pair
    bypassed_edge: tuple


@dataclass(frozen=True)
class Violation:
    """One broken constraint; `family` is overlap / incidence / path."""

    family: str
    ids: tuple
    path: tuple = ()


@dataclass
class Solution:
    """Binary assignment over one Crag: y per candidate, m per edge.

    `optimal` / `iterations` are solver bookkeeping; they do not take
    part in equality and are not serialized.  `optimal` is False when
    the solve stopped at its time limit.  `iterations` is 1 plus the
    number of leaves that the solver's searches, one per independent
    part of the program, turned down because they broke path
    constraints, whose cuts they then added.
    """

    y: dict
    m: dict
    objective: float
    optimal: bool = field(default=True, compare=False)
    iterations: int = field(default=0, compare=False)

    def merged_groups(self, ids):
        """id -> smallest id of its group, for each of `ids`; groups join the
        ends of every merged (m = 1) edge, and both ends must be in `ids`."""
        group = {i: i for i in ids}

        def find(x):
            while group[x] != x:
                group[x] = group[group[x]]
                x = group[x]
            return x

        for (i, j), merged in self.m.items():
            if merged:
                a, b = find(i), find(j)
                group[max(a, b)] = min(a, b)
        return {i: find(i) for i in ids}


def edge_key(i, j):
    """Canonical unordered edge: sorted pair."""
    return (i, j) if i < j else (j, i)


def edge_to_str(edge):
    return f"{edge[0]}-{edge[1]}"


def objective_value(f, g, y, m):
    """Σ y_i f_i + Σ m_e g_e as a float, summed in one canonical order.

    Every reported objective comes from this function, so equal
    assignments always produce bit-equal floats.  The solver ranks
    assignments by exact sums instead, not by these.
    """
    total = 0.0
    for i in sorted(y):
        if y[i]:
            total += f[i]
    for e in sorted(m):
        if m[e]:
            total += g[e]
    return total


UNCOVERED = -1  # leaf_labels() value of pixels no leaf covers; never an id

LeafPairs = namedtuple("LeafPairs", "p q a b start stop")


class Crag:
    """Immutable after construction; build via build_crag().

    `leaf_labels()` is the pixel representation: a read-only int64
    (height, width) image of leaf ids, UNCOVERED where no leaf lies
    (leaves need not cover the image).  Each distinct label is a leaf,
    Candidate(label) in `candidates`.  Children are held in id order.

    The leaves have one numbering: their ranks in `leaf_order`, the leaf
    ids depth-first from the roots.  A candidate's leaves are
    leaf_order[lo:hi], (lo, hi) = `leaf_range(id)`, and `leaf_ranks()`
    is the label image in ranks, UNCOVERED kept.  `leaf_pairs` groups
    the 4-neighbour pixel pairs between leaves: group g holds the pairs
    p[start[g]:stop[g]], q[start[g]:stop[g]] (flat positions) from leaf
    rank a[g] to b[g], in order of the key a * L + b, L leaves.
    `edge_groups` has one entry per (adjacency edge, group) incidence, as
    two arrays (edge, group): the interface of edge k is the pairs of the
    groups of its entries, whichever way each group's pairs point.
    """

    def __init__(self, candidates, subset, order, leaf_labels):
        self.candidates = candidates  # id -> Candidate
        self.subset = subset  # child id -> parent id
        self.height, self.width = leaf_labels.shape
        self._leaf_labels = leaf_labels
        self._leaf_ranks = None
        # the leaves in the depth-first `order`, and each candidate's
        # range (lo, hi) of them: the first child's lo, the last one's hi
        self.leaf_order = tuple(cid for cid in order if not candidates[cid].children)
        self._range = {cid: (t, t + 1) for t, cid in enumerate(self.leaf_order)}
        for cid in reversed(order):
            if kids := candidates[cid].children:
                self._range[cid] = self._range[kids[0]][0], self._range[kids[-1]][1]
        # sorted keys, UNCOVERED then the leaf ids, and the rank of each
        ids = np.array(self.leaf_order, dtype=np.int64)
        by_id = np.argsort(ids)
        self._rank_of = np.r_[UNCOVERED, ids[by_id]], np.r_[UNCOVERED, by_id]
        label_p, label_q, p, q = pixel_pairs(leaf_labels)
        n = len(self.leaf_order)
        key = self._ranked(label_p) * n + self._ranked(label_q)
        by_key = np.argsort(key)
        groups, start, size = np.unique(key[by_key], return_index=True,
                                        return_counts=True)
        a, b = np.divmod(groups, n)
        self.leaf_pairs = LeafPairs(p[by_key], q[by_key], a, b, start, start + size)

    def __eq__(self, other):
        if not isinstance(other, Crag):
            return NotImplemented
        return (
            self.candidates == other.candidates
            and self.adjacency == other.adjacency
            and np.array_equal(self._leaf_labels, other._leaf_labels)
        )

    def __repr__(self):
        return (
            f"Crag({len(self.candidates)} candidates, "
            f"{len(self.adjacency)} edges, {self.width}x{self.height})"
        )

    def ids(self):
        return sorted(self.candidates)

    def leaves(self):
        return sorted(self.leaf_order)

    def roots(self):
        return sorted(i for i in self.candidates if i not in self.subset)

    def parent(self, cid):
        return self.subset.get(cid)

    def ancestors(self, cid):
        """Strict ancestors, bottom-up."""
        above = []
        while (cid := self.subset.get(cid)) is not None:
            above.append(cid)
        return above

    def leaves_under(self, cid):
        """Sorted leaf ids of the subtree rooted at cid (cid itself if leaf)."""
        lo, hi = self._range[cid]
        return tuple(sorted(self.leaf_order[lo:hi]))

    def leaf_range(self, cid):
        """(lo, hi): the ranks of the leaves under cid, leaf_order[lo:hi]."""
        return self._range[cid]

    def leaf_labels(self):
        """Read-only int64 (height, width) image: leaf id per pixel, else UNCOVERED."""
        return self._leaf_labels

    def leaf_ranks(self):
        """Read-only int64 (height, width) image: the rank of the leaf
        per pixel, else UNCOVERED.  Ranked once, on first use."""
        if self._leaf_ranks is None:
            self._leaf_ranks = self._ranked(self._leaf_labels)
            self._leaf_ranks.flags.writeable = False
        return self._leaf_ranks

    def _ranked(self, labels):
        """The rank of each leaf id in the array `labels`, UNCOVERED kept."""
        keys, ranks = self._rank_of
        return ranks[np.searchsorted(keys, labels)]


def pixel_pairs(labels):
    """Every 4-neighbour pixel pair across two different labels, neither UNCOVERED.

    Returns flat arrays (label_p, label_q, p, q): p is the upper or left
    pixel as a flat index, q its neighbour.  Horizontal pairs come
    first, each set in row-major order.
    """
    flat = np.arange(labels.size).reshape(labels.shape)
    parts = []
    for sl_p, sl_q in ((np.s_[:, :-1], np.s_[:, 1:]), (np.s_[:-1, :], np.s_[1:, :])):
        lp, lq = labels[sl_p], labels[sl_q]
        cross = (lp != lq) & (lp != UNCOVERED) & (lq != UNCOVERED)
        parts.append((lp[cross], lq[cross], flat[sl_p][cross], flat[sl_q][cross]))
    return [np.concatenate(arrays) for arrays in zip(*parts)]


def real_array(values, what):
    """`values` as float64; DegenerateInput unless an array (or even nested
    lists) of bools, ints or floats: not ragged, no strings, no complex."""
    try:
        array = np.asarray(values)
    except ValueError as exc:  # ragged rows
        raise DegenerateInput(f"{what} must be an array of real numbers: {exc}") from exc
    if array.dtype.kind not in "biuf":
        raise DegenerateInput(f"{what} must be an array of real numbers, got {array.dtype}")
    return array.astype(np.float64, copy=False)


def sorted_distinct(values):
    """The sorted distinct values of an integer or bool array, flattened.

    Equal to np.unique(values), by one sort and a compare of neighbours,
    which is several times faster than np.unique's hash path on label
    images.  An empty input gives an empty array.
    """
    s = np.sort(values, axis=None)
    keep = np.ones(s.size, dtype=bool)
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


def spans(starts, stops):
    """Concatenated np.arange(starts[k], stops[k]) over all k."""
    lengths = stops - starts
    shift = starts - np.cumsum(lengths) + lengths
    return np.repeat(shift, lengths) + np.arange(lengths.sum())


def _lift(crag):
    """The sorted pairs of disjoint candidates with a 4-neighbour pixel
    pair between them, as arrays of first and second ids, and their
    Crag.edge_groups entries: group (a, b) lies under each pair of an A
    that holds leaf a and not b and a B that holds b and not a (one that
    holds both overlaps the other).
    """
    ids = crag.ids()
    ranges = np.array([crag.leaf_range(i) for i in ids], dtype=np.int64)
    lo, hi = ranges.reshape(-1, 2).T
    pa, pb = crag.leaf_pairs.a[:, None], crag.leaf_pairs.b[:, None]
    holds_a, holds_b = (lo <= pa) & (pa < hi), (lo <= pb) & (pb < hi)
    group_a, big_a = np.nonzero(holds_a & ~holds_b)
    group_b, big_b = np.nonzero(holds_b & ~holds_a)
    # each A of a group with each B of it; nonzero sorts by group
    b_lo, b_hi = (np.searchsorted(group_b, group_a, side=s) for s in ("left", "right"))
    group, big_a = np.repeat(group_a, b_hi - b_lo), np.repeat(big_a, b_hi - b_lo)
    big_b = big_b[spans(b_lo, b_hi)]
    # A and B are id ranks, so the sorted codes are the sorted edges
    ids, n = np.array(ids, dtype=np.int64), len(ids)
    codes, edge = np.unique(
        np.minimum(big_a, big_b) * n + np.maximum(big_a, big_b), return_inverse=True
    )
    return (ids[codes // n], ids[codes % n]), (edge, group)


def build_crag(candidates, adjacency, leaf_labels):
    """Validating constructor for Crag.

    `leaf_labels` is the 2-d integer image of leaf ids (UNCOVERED where
    no leaf lies) and the one statement of the leaves: the Crag has one
    leaf, Candidate(label), per distinct label other than UNCOVERED.  It
    fixes the Crag's height and width, and a read-only int64 copy
    becomes its leaf_labels().  `candidates` are the inner candidates;
    their `children` are the one statement of nesting: the Crag's
    `subset` (child -> parent) is derived from them, and the Crag holds
    each candidate's children in id order.  Checks: every label at least
    UNCOVERED and below 2**63 (LeavesDoNotCoverImage), then each
    candidate in input order: it has children, its id is unique,
    non-negative, below 2**63 and no label (LeavesDoNotCoverImage);
    every child a known id listed once (SubsetNotForest for a second
    listing) and every candidate reachable from a root (SubsetNotForest
    for a cycle), and the adjacency is a subset of the lift (_lift) with
    no edge listed twice, in either order.  The first edge that breaks
    this, in input order, raises CmcError for an unknown id,
    AdjacencyBetweenOverlapping when the two candidates overlap (one is
    an ancestor-or-self of the other), NotAdjacent for any other pair
    outside the lift, and CmcError for a second listing.  An adjacency
    of None stands for all of the lift.
    """
    labels = np.asarray(leaf_labels)
    if labels.ndim != 2 or labels.dtype.kind not in "iu":
        raise CmcError(
            f"leaf label image must be a 2-d integer array, got "
            f"{labels.ndim}-d {labels.dtype}"
        )
    present = sorted_distinct(labels)
    if present.size and present[0] < UNCOVERED:
        raise LeavesDoNotCoverImage(f"label {present[0]} is below {UNCOVERED}")
    if present.size and present[-1] >= 2**63:  # it would wrap in int64
        raise LeavesDoNotCoverImage(f"label {present[-1]} is not below 2**63")
    present = present.astype(np.int64)
    cand_map = {i: Candidate(i) for i in present[present != UNCOVERED].tolist()}
    for cand in candidates:
        if not cand.children:
            raise CmcError(f"candidate {cand.id} has no children; a leaf is a label")
        if cand.id in cand_map:
            if not cand_map[cand.id].children:
                raise LeavesDoNotCoverImage(f"inner candidate {cand.id} is also a label")
            raise CmcError(f"duplicate candidate id {cand.id}")
        if not 0 <= cand.id < 2**63:
            raise CmcError(f"candidate id {cand.id} is outside [0, 2**63)")
        cand_map[cand.id] = cand

    subset = {}
    for cid, cand in cand_map.items():
        for child in cand.children:
            if child not in cand_map:
                raise CmcError(f"candidate {cid} has unknown child {child}")
            if child in subset:
                raise SubsetNotForest([child], "child listed twice")
            subset[child] = cid
        # held in id order, so the depth-first order depends on the nesting alone
        if (kids := tuple(sorted(cand.children))) != cand.children:
            cand_map[cid] = Candidate(cid, kids)
    # with one parent per child, a candidate is on or under a cycle iff no
    # root reaches it; the walk from the roots numbers them depth-first
    order, todo = [], sorted((i for i in cand_map if i not in subset), reverse=True)
    while todo:
        order.append(todo.pop())
        todo.extend(reversed(cand_map[order[-1]].children))
    if len(order) < len(cand_map):
        raise SubsetNotForest(sorted(set(cand_map) - set(order)), "cycle")

    labels = labels.astype(np.int64)
    labels.flags.writeable = False
    crag = Crag(cand_map, subset, order, labels)
    (first, second), (edge, group) = _lift(crag)
    edges = list(zip(first.tolist(), second.tolist()))
    if adjacency is not None:
        index = dict(zip(edges, range(len(edges))))
        keep = set()
        for i, j in adjacency:
            i, j = int(i), int(j)
            k = index.get(edge_key(i, j))
            if k is None:
                if i not in cand_map or j not in cand_map:
                    raise CmcError(f"adjacency edge ({i}, {j}) references unknown id")
                (lo_i, hi_i), (lo_j, hi_j) = crag.leaf_range(i), crag.leaf_range(j)
                if lo_i < hi_j and lo_j < hi_i:  # the leaf ranges meet
                    raise AdjacencyBetweenOverlapping(i, j)
                raise NotAdjacent()
            if k in keep:
                raise CmcError(f"adjacency lists edge {edge_to_str(edges[k])} twice")
            keep.add(k)
        keep = np.array(sorted(keep), dtype=np.int64)
        edges, rows = [edges[k] for k in keep], np.isin(edge, keep)
        edge, group = np.searchsorted(keep, edge[rows]), group[rows]
    crag.adjacency = tuple(edges)
    crag.edge_groups = edge, group
    return crag


def conflict_cliques(crag):
    """One clique per leaf: the leaf plus all its ancestors.

    Returns a sorted list of frozensets.  Ancestors are inner nodes, so
    each clique holds exactly one leaf: no clique contains another, and
    no two are equal.
    """
    cliques = [frozenset([leaf] + crag.ancestors(leaf)) for leaf in crag.leaves()]
    return sorted(cliques, key=sorted)


def _selected_neighbors(m):
    nbrs = {}
    for (i, j), v in m.items():
        if v:
            nbrs.setdefault(i, []).append(j)
            nbrs.setdefault(j, []).append(i)
    for k in nbrs:
        nbrs[k].sort()
    return nbrs


def _shortest_path(nbrs, source, target):
    """BFS over neighbour lists; ordered edge tuple from source to target, or None."""
    if source == target:
        return ()
    prev = {source: None}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for nxt in nbrs.get(node, ()):
            if nxt in prev:
                continue
            prev[nxt] = node
            if nxt == target:
                path = []
                while prev[nxt] is not None:
                    path.append(edge_key(prev[nxt], nxt))
                    nxt = prev[nxt]
                path.reverse()
                return tuple(path)
            queue.append(nxt)
    return None


def path_violations(crag, solution):
    """(edge, shortest merged path between its ends) for each unmerged
    edge, in adjacency order, whose ends share a merged group."""
    group = solution.merged_groups(crag.ids())
    nbrs = _selected_neighbors(solution.m)
    return [
        ((i, j), _shortest_path(nbrs, i, j))
        for i, j in crag.adjacency
        if not solution.m[(i, j)] and group[i] == group[j]
    ]


def validate_solution(crag, solution):
    """All overlap / incidence / path violations of a binary assignment.

    Empty list iff the assignment is feasible.  Path violations are
    found by connectivity: an unselected edge whose endpoints are
    joined through selected edges breaks transitivity.
    """
    y, m = solution.y, solution.m
    if set(y) != set(crag.candidates):
        raise KeyMismatch(
            f"y keys {sorted(set(y) ^ set(crag.candidates))} unmatched"
        )
    if set(m) != set(crag.adjacency):
        raise KeyMismatch(
            f"m keys {sorted(set(m) ^ set(crag.adjacency))} unmatched"
        )
    for mapping in (y, m):
        for k, v in mapping.items():
            if v not in (0, 1):
                raise KeyMismatch(f"non-binary value {v!r} at {k}")

    violations = []
    for clique in conflict_cliques(crag):
        selected = tuple(sorted(i for i in clique if y[i]))
        if len(selected) > 1:
            violations.append(Violation("overlap", selected))
    for (i, j) in crag.adjacency:
        if m[(i, j)] and (not y[i] or not y[j]):
            violations.append(Violation("incidence", (i, j)))
    violations += [Violation("path", e, p) for e, p in path_violations(crag, solution)]
    return violations


# ---------------------------------------------------------------------------
# JSON serialization


def row_runs(labels):
    """The maximal runs of one label within one row of a 2-d label image,
    in row-major order, UNCOVERED runs left out.

    Returns flat arrays (label, row, col_start, col_end); col_end is
    exclusive.
    """
    width = labels.shape[1]
    starts = np.ones(labels.shape, dtype=bool)
    starts[:, 1:] = labels[:, 1:] != labels[:, :-1]
    rows, cols = np.nonzero(starts)
    ends = np.full(len(cols), width)
    same_row = rows[1:] == rows[:-1]
    ends[:-1][same_row] = cols[1:][same_row]
    label = labels[rows, cols]
    keep = label != UNCOVERED
    return label[keep], rows[keep], cols[keep], ends[keep]


def crag_to_json(crag):
    flat = crag.leaf_labels().ravel()
    change = np.ones(flat.size, dtype=bool)  # a run starts where the label changes
    change[1:] = flat[1:] != flat[:-1]
    starts = np.flatnonzero(change)
    lengths = np.diff(starts, append=flat.size)
    inner = [c for c in map(crag.candidates.get, crag.ids()) if c.children]
    return {
        "width": crag.width,
        "height": crag.height,
        "leaf_labels": np.stack((flat[starts], lengths), axis=1).ravel().tolist(),
        "candidates": [{"id": c.id, "children": list(c.children)} for c in inner],
        "adjacency": [list(e) for e in crag.adjacency],
    }


_ID_KEY = re.compile(r"-?[0-9]+")
_EDGE_KEY = re.compile(r"(-?[0-9]+)-(-?[0-9]+)")


def json_value(doc, value, kind, where):
    """value if it is a valid JSON `kind`, else CmcError naming doc and where.

    int: 64-bit, not bool; float: a finite int or float, not bool,
    returned as float; bool, str, list, dict: that type.
    """
    if isinstance(value, bool):
        ok = kind is bool
    elif isinstance(value, int) and kind in (int, float):
        ok = -(2**63) <= value < 2**63
    elif kind is float:
        ok = isinstance(value, float) and math.isfinite(value)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise CmcError(f"{doc}: {where} is not a valid {kind.__name__}: {value!r}")
    return float(value) if kind is float else value


def json_column(values, kind):
    """A JSON list as an int64 (kind int) or float64 array, and the mask
    of its entries that are no `kind`: a bool, an int beyond int64, an
    int where a float belongs, any other value.  Those entries read 0.
    """
    dtype = np.int64 if kind is int else np.float64
    if set(map(type, values)) <= {kind}:
        try:
            return np.array(values, dtype=dtype), np.zeros(len(values), dtype=bool)
        except OverflowError:  # an int beyond int64
            pass
    bad = [type(v) is not kind or (kind is int and not -(2**63) <= v < 2**63)
           for v in values]
    clean = [0 if b else v for v, b in zip(values, bad)]
    return np.array(clean, dtype=dtype), np.array(bad, dtype=bool)


def json_member(doc, obj, key, kind, where):
    """obj[key], checked by json_value; CmcError when obj is no object or lacks key."""
    if not isinstance(obj, dict) or key not in obj:
        raise CmcError(f"{doc}: {where} has no {key!r}")
    return json_value(doc, obj[key], kind, f"{key} of {where}")


def json_known(doc, obj, keys, where):
    """CmcError naming doc, where and the first member of the JSON object
    obj, in sorted order, that is not one of keys."""
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise CmcError(f"{doc}: {where} has unknown key {unknown[0]!r}")


def json_id(doc, key):
    """Candidate id from a JSON object key written by str(id)."""
    if _ID_KEY.fullmatch(key) is None:
        raise CmcError(f"{doc}: key {key!r} is not a candidate id")
    return int(key)


def json_edge(doc, key):
    """Canonical edge from a JSON object key written by edge_to_str."""
    match = _EDGE_KEY.fullmatch(key)
    if match is None:
        raise CmcError(f"{doc}: key {key!r} is not an edge 'i-j'")
    return edge_key(int(match[1]), int(match[2]))


def json_keyed(doc, by_id, by_edge, id_value, edge_value):
    """Two JSON objects, one keyed by str(id) and one by edge_to_str, as
    dicts keyed by candidate id and by canonical edge.  Each value goes
    through id_value(key, value) or edge_value(key, value), with the key
    as in the file; two keys that name the same candidate or edge raise
    CmcError once every key and value has been read."""
    ids = {json_id(doc, k): id_value(k, v) for k, v in by_id.items()}
    edges = {json_edge(doc, k): edge_value(k, v) for k, v in by_edge.items()}
    if len(ids) < len(by_id) or len(edges) < len(by_edge):
        raise CmcError(f"{doc}: two keys name the same candidate or edge")
    return ids, edges


def _named(doc, exc):
    """exc with its message prefixed by doc, its class and fields kept."""
    exc.args = (f"{doc}: {exc}",)
    return exc


def crag_from_json(obj, doc="crag.json"):
    """Crag from its JSON form; malformed input raises CmcError naming `doc`.

    `leaf_labels` is checked for an even length, then every entry in one
    int pass (json_column), then for run lengths of at least 1 that sum
    to height * width, and expanded into the label image, whose labels
    build_crag makes the leaves.  An image numpy cannot hold raises
    CmcError, "too large".  `candidates` lists the inner candidates,
    each as its `id` and `children`.  An entry of an older release, one
    that holds 'level' (or a leaf's pixels under 'runs' or 'pixels') or
    has no 'children', is rejected by name, as is any other unknown
    member.  The adjacency is checked for pairs, then every end in one
    int pass (json_column).
    """
    height, width = (json_member(doc, obj, k, int, "crag") for k in ("height", "width"))
    keys = ("width", "height", "leaf_labels", "candidates", "adjacency")
    json_known(doc, obj, keys, "crag")
    if height < 0 or width < 0:
        raise CmcError(f"{doc}: negative image size {height}x{width}")
    too_large = CmcError(f"{doc}: image size {height}x{width} too large")
    if height * width >= 2**63:  # no int64 flat index reaches every pixel
        raise too_large
    candidates = []
    for entry in json_member(doc, obj, "candidates", list, "crag"):
        cid = json_member(doc, entry, "id", int, "candidate")
        where = f"candidate {cid}"
        old = [k for k in ("runs", "pixels", "level") if k in entry]
        if old or "children" not in entry:
            what = f"holds {old[0]!r}" if old else "has no 'children'"
            raise CmcError(
                f"{doc}: {where} {what}, the form of an older release; "
                "run build-crag again"
            )
        json_known(doc, entry, ("id", "children"), where)
        kids = json_member(doc, entry, "children", list, where)
        kids = tuple(json_value(doc, k, int, f"child of {where}") for k in kids)
        candidates.append(Candidate(cid, kids))
    runs = json_member(doc, obj, "leaf_labels", list, "crag")
    if len(runs) % 2:
        raise CmcError(f"{doc}: leaf_labels has odd length {len(runs)}")
    values, bad = json_column(runs, int)
    if bad.any():
        at = int(bad.argmax())
        json_value(doc, runs[at], int, f"leaf_labels[{at}]")
    labels, lengths = values.reshape(-1, 2).T
    if (lengths < 1).any():
        at = 2 * int((lengths < 1).argmax()) + 1
        raise CmcError(f"{doc}: run length leaf_labels[{at}] is {runs[at]}, below 1")
    covered = sum(runs[1::2])
    if covered != height * width:
        raise CmcError(
            f"{doc}: leaf_labels covers {covered} pixels, not {height}x{width}"
        )
    try:
        labels = np.repeat(labels, lengths).reshape(height, width)
    except (ValueError, MemoryError) as exc:  # numpy refuses or fails to allocate
        raise too_large from exc
    pairs = json_member(doc, obj, "adjacency", list, "crag")
    if not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise CmcError(f"{doc}: an entry of adjacency is not a pair")
    ends = list(itertools.chain.from_iterable(pairs))
    bad = json_column(ends, int)[1]
    if bad.any():
        json_value(doc, ends[int(bad.argmax())], int, "adjacency")
    adjacency = list(zip(ends[::2], ends[1::2]))
    try:
        return build_crag(candidates, adjacency, labels)
    except CmcError as exc:
        raise _named(doc, exc)


def solution_to_json(solution):
    return {
        "y": {str(i): int(v) for i, v in sorted(solution.y.items())},
        "m": {edge_to_str(e): int(v) for e, v in sorted(solution.m.items())},
        "objective": solution.objective,
    }


def solution_from_json(obj):
    """Solution from its JSON form; malformed input raises CmcError."""
    doc = "solution.json"
    y, m = (json_member(doc, obj, key, dict, "solution") for key in ("y", "m"))
    json_known(doc, obj, ("y", "m", "objective"), "solution")
    y, m = json_keyed(
        doc, y, m,
        lambda i, v: json_value(doc, v, int, f"y[{i}]"),
        lambda k, v: json_value(doc, v, int, f"m[{k}]"),
    )
    return Solution(y, m, json_member(doc, obj, "objective", float, "solution"))
