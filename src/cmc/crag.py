"""Candidate region adjacency graph.

A Crag holds a pool of candidate regions and adjacency edges between
disjoint touching candidates.  Each candidate's children are the one
statement of nesting: they form the subset forest, whose child -> parent
map build_crag derives as `Crag.subset`.  The pixels live in one label
image, `Crag.leaf_labels()`: each pixel holds the id of the leaf
(superpixel) covering it, and an inner node covers the pixels of its
leaves.  The module also provides conflict-clique enumeration,
validation of binary assignments against the overlap / incidence / path
constraint families, and JSON (de)serialization, which run-length
encodes each leaf: a crag.json entry has `pixels` (a leaf) or `children`
(a union), never both.

The graph facts are defined here once each: which pixels touch
(pixel_pairs), which candidates are adjacent (candidate_adjacency) and
which candidates a merge assignment joins (Solution.merged_groups).  The
adjacency rule: a Crag's adjacency is a subset of the pairs of disjoint
candidates with a 4-neighbour pixel pair between them, and
extract_candidates emits all of them.
"""

import math
import re
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AdjacencyBetweenOverlapping,
    CmcError,
    KeyMismatch,
    LeavesDoNotCoverImage,
    NotAdjacent,
    OverlappingLeaves,
    SubsetNotForest,
)


@dataclass(frozen=True)
class Candidate:
    """One region: a superpixel (a leaf, no children) or a merge result.

    Ids are non-negative.  A leaf's pixels are those where the owning
    Crag's `leaf_labels()` image holds its id; an inner node's pixels are
    those whose label is one of `Crag.leaves_under(id)`.
    """

    id: int
    level: int
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
    number of leaves that the solver's one search turned down because
    they broke path constraints, whose cuts it then added.
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
    assignments always produce bit-equal floats.  The solver and
    brute_force rank assignments by exact sums instead, not by these.
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


class Crag:
    """Immutable after construction; build via build_crag().

    `leaf_labels()` is the pixel representation: a read-only int64
    (height, width) image of leaf ids, UNCOVERED where no leaf lies
    (leaves need not cover the image).
    """

    def __init__(self, candidates, adjacency, subset, leaf_labels):
        self.candidates = dict(candidates)  # id -> Candidate
        self.adjacency = tuple(sorted(adjacency))
        self.subset = dict(subset)  # child id -> parent id
        self.height, self.width = leaf_labels.shape
        self._leaves_under = {}
        self._leaf_labels = leaf_labels

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
        return sorted(i for i, c in self.candidates.items() if not c.children)

    def roots(self):
        return sorted(i for i in self.candidates if i not in self.subset)

    def parent(self, cid):
        return self.subset.get(cid)

    def ancestors(self, cid):
        """Strict ancestors, bottom-up."""
        return _chain(self.subset, cid)[1:]

    def leaves_under(self, cid):
        """Sorted leaf ids of the subtree rooted at cid (cid itself if leaf)."""
        if cid not in self._leaves_under:
            found = []
            stack = [cid]
            while stack:
                node = stack.pop()
                kids = self.candidates[node].children
                if kids:
                    stack.extend(kids)
                else:
                    found.append(node)
            self._leaves_under[cid] = tuple(sorted(found))
        return self._leaves_under[cid]

    def leaf_labels(self):
        """Read-only int64 (height, width) image: leaf id per pixel, else UNCOVERED."""
        return self._leaf_labels


def _chain(subset, cid):
    """cid and its ancestors in the child -> parent map `subset`, bottom-up."""
    chain = [cid]
    while chain[-1] in subset:
        chain.append(subset[chain[-1]])
    return chain


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


def candidate_adjacency(subset, leaf_labels):
    """Sorted pairs of disjoint candidates with a 4-neighbour pixel pair between them.

    Each touching leaf pair (a, b) lifts to the ancestors-or-self A of a
    and B of b in the forest `subset` (child -> parent); A and B overlap
    iff A or B is an ancestor of both leaves.
    """
    label_p, label_q, _, _ = pixel_pairs(leaf_labels)
    pairs = set(zip(label_p.tolist(), label_q.tolist()))
    chains = {leaf: _chain(subset, leaf) for pair in pairs for leaf in pair}
    return {
        edge_key(big_a, big_b)
        for a, b in pairs
        for big_a in chains[a]
        if big_a not in chains[b]
        for big_b in chains[b]
        if big_b not in chains[a]
    }


def build_crag(candidates, adjacency, leaf_labels):
    """Validating constructor for Crag.

    The candidates' `children` are the one statement of nesting: the
    Crag's `subset` (child -> parent) is derived from them.
    `leaf_labels` is the 2-d integer image of leaf ids (UNCOVERED where
    no leaf lies); it fixes the Crag's height and width, and a read-only
    int64 copy becomes its leaf_labels().  Checks: unique non-negative
    ids, every child a known id listed once (SubsetNotForest for a
    second listing) and every candidate reachable from a root
    (SubsetNotForest for a cycle), every label is a leaf id or UNCOVERED
    and every leaf has a pixel, and the adjacency is a subset of
    candidate_adjacency.  The first edge outside it, in input order,
    raises CmcError for an unknown id, AdjacencyBetweenOverlapping when
    one end is an ancestor-or-self of the other (leaves are non-empty
    and disjoint, so that is overlap), and NotAdjacent otherwise.
    An adjacency of None stands for all of candidate_adjacency, which
    is then lifted once and needs no check.
    """
    labels = np.asarray(leaf_labels)
    if labels.ndim != 2 or labels.dtype.kind not in "iu":
        raise CmcError(
            f"leaf label image must be a 2-d integer array, got "
            f"{labels.ndim}-d {labels.dtype}"
        )
    cand_map = {}
    for cand in candidates:
        if cand.id in cand_map:
            raise CmcError(f"duplicate candidate id {cand.id}")
        if cand.id < 0:
            raise CmcError(f"candidate id {cand.id} is negative")
        if cand.level < 0:
            raise CmcError(f"candidate {cand.id} has negative level")
        cand_map[cand.id] = cand

    subset = {}
    for cid, cand in cand_map.items():
        for child in cand.children:
            if child not in cand_map:
                raise CmcError(f"candidate {cid} has unknown child {child}")
            if child in subset:
                raise SubsetNotForest([child], "child listed twice")
            subset[child] = cid
    # with one parent per child, a candidate is on or under a cycle iff no
    # root reaches it; `reached` grows while it is walked
    reached = [i for i in cand_map if i not in subset]
    for node in reached:
        reached.extend(cand_map[node].children)
    if len(reached) < len(cand_map):
        raise SubsetNotForest(sorted(set(cand_map) - set(reached)), "cycle")

    leaf_ids = {i for i, c in cand_map.items() if not c.children}
    present = set(sorted_distinct(labels).tolist()) - {UNCOVERED}
    if present - leaf_ids:
        raise LeavesDoNotCoverImage(f"label {min(present - leaf_ids)} is not a leaf id")
    if leaf_ids - present:
        raise LeavesDoNotCoverImage(
            f"leaf candidate {min(leaf_ids - present)} has no pixels"
        )
    labels = labels.astype(np.int64)
    labels.flags.writeable = False
    allowed = candidate_adjacency(subset, labels)
    if adjacency is None:
        return Crag(cand_map, allowed, subset, labels)

    edges = set()
    for i, j in adjacency:
        i, j = int(i), int(j)
        edge = edge_key(i, j)
        if edge not in allowed:
            if i not in cand_map or j not in cand_map:
                raise CmcError(f"adjacency edge ({i}, {j}) references unknown id")
            if i in _chain(subset, j) or j in _chain(subset, i):
                raise AdjacencyBetweenOverlapping(i, j)
            raise NotAdjacent()
        edges.add(edge)

    return Crag(cand_map, edges, subset, labels)


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


def _leaf_runs(labels):
    """leaf id -> its row_runs, as crag.json entries."""
    runs = {}
    for leaf, row, start, end in zip(*(a.tolist() for a in row_runs(labels))):
        run = {"row": row, "col_start": start, "col_end": end}
        runs.setdefault(leaf, []).append(run)
    return runs


def crag_to_json(crag):
    runs = _leaf_runs(crag.leaf_labels())
    cands = []
    for cid in crag.ids():
        cand = crag.candidates[cid]
        entry = {"id": cid, "level": cand.level}
        if cand.children:
            entry["children"] = sorted(cand.children)
        else:
            entry["pixels"] = runs[cid]
        cands.append(entry)
    return {
        "width": crag.width,
        "height": crag.height,
        "candidates": cands,
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


def json_member(doc, obj, key, kind, where):
    """obj[key], checked by json_value; CmcError when obj is no object or lacks key."""
    if not isinstance(obj, dict) or key not in obj:
        raise CmcError(f"{doc}: {where} has no {key!r}")
    return json_value(doc, obj[key], kind, f"{key} of {where}")


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


def _named(doc, exc):
    """exc with its message prefixed by doc, its class and fields kept."""
    exc.args = (f"{doc}: {exc}",)
    return exc


def crag_from_json(obj, doc="crag.json"):
    """Crag from its JSON form; malformed input raises CmcError naming `doc`.

    Leaf runs are painted straight into the label image: a run outside
    the image raises LeavesDoNotCoverImage, a run over pixels already
    painted raises OverlappingLeaves naming their owner and the new leaf.
    """
    height, width = (json_member(doc, obj, k, int, "crag") for k in ("height", "width"))
    if height < 0 or width < 0:
        raise CmcError(f"{doc}: negative image size {height}x{width}")
    try:
        labels = np.full((height, width), UNCOVERED, dtype=np.int64)
    except ValueError as exc:  # numpy refuses the shape before allocating
        raise CmcError(f"{doc}: image size {height}x{width} too large") from exc
    candidates = []
    for entry in json_member(doc, obj, "candidates", list, "crag"):
        cid = json_member(doc, entry, "id", int, "candidate")
        where = f"candidate {cid}"
        level = json_member(doc, entry, "level", int, where)
        if "children" in entry:
            if "pixels" in entry:
                raise CmcError(f"{doc}: {where} has both children and pixels")
            kids = json_member(doc, entry, "children", list, where)
            kids = tuple(json_value(doc, k, int, f"child of {where}") for k in kids)
            candidates.append(Candidate(cid, level, kids))
            continue
        for run in json_member(doc, entry, "pixels", list, where):
            row, start, end = (
                json_member(doc, run, k, int, f"run of {where}")
                for k in ("row", "col_start", "col_end")
            )
            if start >= end:
                raise CmcError(f"{doc}: empty run {start}:{end} of {where}")
            if not (0 <= row < height and 0 <= start and end <= width):
                raise _named(doc, LeavesDoNotCoverImage(
                    f"run ({row}, {start}:{end}) of leaf {cid} outside {height}x{width}"
                ))
            segment = labels[row, start:end]
            taken = segment != UNCOVERED
            if taken.any():
                raise _named(doc, OverlappingLeaves(int(segment[taken.argmax()]), cid))
            segment[:] = cid
        candidates.append(Candidate(cid, level))
    pairs = json_member(doc, obj, "adjacency", list, "crag")
    if not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise CmcError(f"{doc}: an entry of adjacency is not a pair")
    adjacency = [tuple(json_value(doc, v, int, "adjacency") for v in p) for p in pairs]
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
    solution = Solution(
        y={json_id(doc, i): json_value(doc, v, int, f"y[{i}]") for i, v in y.items()},
        m={json_edge(doc, k): json_value(doc, v, int, f"m[{k}]") for k, v in m.items()},
        objective=json_member(doc, obj, "objective", float, "solution"),
    )
    if len(solution.y) < len(y) or len(solution.m) < len(m):
        raise CmcError(f"{doc}: two keys name the same candidate or edge")
    return solution
