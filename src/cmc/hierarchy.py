"""From boundary map to candidate pool.

seeded_watershed turns a boundary probability map into superpixels,
build_merge_tree greedily merges the adjacent pair with the smallest
score (smaller region size times median interface intensity), and
extract_candidates cuts the tree down to the candidates within a merge
budget and wires up the candidate region adjacency graph.  The merge
tree keeps each interface as one sorted float64 array and reads its
median off the two central entries, with np.median's arithmetic.

The watershed is Meyer's priority flood (Meyer, "Topographic distance
and watershed lines", Signal Processing 1994) with a FIFO tie order.
Every seed lies below the threshold and every other pixel at or above
it, so all seeds pop before any claimed pixel: their pops and claims
are one array pass, not heap operations.  A pixel with no unclaimed
neighbour would claim nothing when popped, so it is never pushed.  Only
the rest of the flood runs as a heap loop, with the same pops in the
same order.
"""

import heapq
from array import array
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .crag import (
    Candidate,
    build_crag,
    param_value,
    pixel_pairs,
    real_array,
    sorted_distinct,
)
from .errors import CmcError, DegenerateInput, DimensionMismatch, NoSeeds
from .evaluate import int_labels


def _check_boundary(boundary):
    boundary = real_array(boundary, "boundary map")
    if boundary.ndim != 2:
        raise DegenerateInput(f"boundary map must be 2-d, got shape {boundary.shape}")
    if boundary.size == 0:
        raise DegenerateInput(f"boundary map is empty, shape {boundary.shape}")
    if not np.all((boundary >= 0.0) & (boundary <= 1.0)):  # NaN fails too
        raise DegenerateInput("boundary values non-finite or outside [0, 1]")
    return boundary


def seeded_watershed(boundary, seed_threshold):
    """Flood superpixels from low-boundary seeds.

    Seeds are 4-connected components of {boundary < seed_threshold}.
    Remaining pixels are claimed in priority order of their boundary
    value; ties fall back to insertion order (FIFO), so the result is
    deterministic.  Labels are 1..K with no background.

    The flood pops pixels by (value, push index), where the push index
    counts pushes: seeds first in row-major order, then each pixel as
    it is claimed.  A popped pixel claims its unclaimed neighbours, up,
    down, left, right, and pushes them.  Most of it skips the heap:

    - Seeds first.  Every seed is below the threshold and every other
      pixel at or above it, so all seeds pop first, in the order of one
      stable argsort of their values in push order (-0.0 and 0.0 tie).
      Their claims are one array pass over the popped seeds' neighbours
      in pop and direction order: each unclaimed pixel goes to its
      first occurrence and takes the next push index.
    - No unclaimed neighbour, no push.  Such a pixel would claim nothing
      when popped, and claims are never undone, so leaving it off the
      heap changes no other pop.  Seeds whose neighbours are all seeds,
      and the pixels that the seeds' pass closes in, are never pushed;
      each still uses up its push index.

    The heap loop runs the rest, pushing every pixel it claims.  It
    holds one integer per pushed pixel, rank * (h*w) + push index, with
    rank over the distinct values of the non-seeds (np.unique, so -0.0
    and 0.0 share a rank): keys are distinct and sort like (value, push
    index), the FIFO tie order of a heap of (value, counter) tuples.
    """
    seed_threshold = param_value("seed_threshold", seed_threshold)
    boundary = _check_boundary(boundary)
    seeds, n_seeds = ndimage.label(boundary < seed_threshold)
    if n_seeds == 0:
        raise NoSeeds(seed_threshold)
    h, w = seeds.shape
    n = h * w
    # flat images padded by one pixel, so neighbours need no bounds test;
    # the padding carries label -1 and is never claimed
    stride = w + 2
    moves = np.array([-stride, stride, -1, 1])
    padded = np.full((h + 2, stride), -1, dtype=np.int64)
    padded[1:-1, 1:-1] = seeds
    labels = padded.reshape(-1)
    seeded = padded != 0
    interior = (
        seeded[1:-1, 1:-1]
        & seeded[:-2, 1:-1]
        & seeded[2:, 1:-1]
        & seeded[1:-1, :-2]
        & seeded[1:-1, 2:]
    )

    # the seeds' pops: those with a non-seed neighbour, by (value, push
    # index); each unclaimed neighbour goes to its first claimer
    flat = np.flatnonzero(seeds)
    at = flat + stride + 1 + 2 * (flat // w)
    front = np.flatnonzero(~interior.ravel()[flat])
    popped = at[front[np.argsort(boundary.ravel()[flat[front]], kind="stable")]]
    near = (popped[:, None] + moves).ravel()
    free = np.flatnonzero(labels[near] == 0)
    _, first = np.unique(near[free], return_index=True)
    claim = free[np.sort(first)]
    claimed = near[claim]
    labels[claimed] = labels[popped[claim // 4]]

    nonseed = ~seeded[1:-1, 1:-1]
    _, rank = np.unique(boundary[nonseed], return_inverse=True)
    key_base = np.zeros((h + 2, stride), dtype=np.int64)
    key_base[1:-1, 1:-1][nonseed] = rank * n
    base = key_base.reshape(-1)
    # claimed pixel k has push index len(flat) + k; only those with an
    # unclaimed neighbour go on the heap
    still_open = np.flatnonzero((labels[claimed[:, None] + moves] == 0).any(axis=1))
    heap = (base[claimed[still_open]] + (len(flat) + still_open)).tolist()
    heapq.heapify(heap)

    # the flood reads and writes the images through memoryviews and grows
    # `order` as an int64 array, so it makes no Python int per pixel;
    # order[k] is the padded flat index of the pixel with push index k
    order = array("q", np.concatenate((at, claimed)).tobytes())
    labels, base = memoryview(labels), memoryview(base)
    heappush, heappop = heapq.heappush, heapq.heappop
    while heap:
        p = order[heappop(heap) % n]
        lab = labels[p]
        for q in (p - stride, p + stride, p - 1, p + 1):
            if labels[q] == 0:
                labels[q] = lab
                heappush(heap, base[q] + len(order))
                order.append(q)
    return padded[1:-1, 1:-1].copy()


@dataclass(frozen=True)
class MergeEvent:
    child_a: int
    child_b: int
    new_id: int
    score: float


@dataclass(eq=False)
class MergeTree:
    """Initial superpixels plus the ordered merge events that built the tree."""

    superpixels: np.ndarray
    events: list = field(default_factory=list)


def build_merge_tree(superpixels, boundary):
    """Greedy agglomeration: always merge the lowest-score adjacent pair.

    A pair's score is min(|a|, |b|) times the median of max(boundary[p],
    boundary[q]) over its 4-neighbor pixel pairs (p in a, q in b); the
    median of an even count is the mean of the two central values.
    Scores of edges incident to the freshly merged region are
    recomputed (sizes change and interfaces concatenate); ties pick the
    smallest (min_id, max_id) pair.  New ids continue above the largest
    existing label.  Returns K-1 events for K superpixels; labels must
    be non-negative integers or bools (evaluate.int_labels: floats,
    strings and uint64 above the int64 maximum raise DegenerateInput),
    and the tree keeps them as int64.

    The live regions are the keys of one map, region -> {neighbour:
    interface}, and each interface is one sorted float64 array.  The
    pixel pairs are sorted once by (min label, max label, value) and
    split where the label pair changes.  When two regions merge, a
    neighbour of both gets their two arrays concatenated and sorted; a
    neighbour of one keeps its array.  Each pair of live regions has one
    heap entry, pushed when the younger of the two was made, and its
    score changes only when one side merges, which retires the pair: an
    entry is current iff both its regions are alive.

    The median of a sorted v of n values is
    (0.0 + v[(n-1)//2] + v[n//2]) / 2, equal to np.median bit for bit:
    for even n, np.median sums the two central values from 0.0 and
    halves; for odd n both indices name one x in [0, 1], and
    (x + x) / 2 == x exactly.  Adding to 0.0 turns -0.0 into 0.0, as
    np.median does, so the order a sort gives equal zeros of either sign
    does not matter.
    """
    superpixels = int_labels(np.asarray(superpixels), "superpixel")
    boundary = _check_boundary(boundary)
    if superpixels.shape != boundary.shape:
        raise DimensionMismatch(boundary.shape, superpixels.shape)

    ids, counts = np.unique(superpixels, return_counts=True)
    if len(ids) and ids[0] < 0:
        raise CmcError(f"superpixel label {ids[0]} is negative")
    sizes = dict(zip(ids.tolist(), counts.tolist()))

    # interface values sorted by (min label, max label, value), one run
    # per adjacent label pair
    label_p, label_q, p, q = pixel_pairs(superpixels)
    flat = boundary.ravel()
    vals = np.maximum(flat[p], flat[q])
    lo, hi = np.minimum(label_p, label_q), np.maximum(label_p, label_q)
    order = np.lexsort((vals, hi, lo))
    lo, hi, vals = lo[order], hi[order], vals[order]
    new_pair = np.ones(len(vals), dtype=bool)
    new_pair[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    first = np.flatnonzero(new_pair)

    def score(a, b, v):
        median = (0.0 + float(v[(len(v) - 1) // 2]) + float(v[len(v) // 2])) / 2
        return min(sizes[a], sizes[b]) * median

    adj = {i: {} for i in sizes}
    heap = []
    for a, b, v in zip(lo[first].tolist(), hi[first].tolist(), np.split(vals, first[1:])):
        adj[a][b] = adj[b][a] = v
        heap.append((score(a, b, v), a, b))
    heapq.heapify(heap)

    next_id = int(ids.max()) + 1
    events = []
    while len(adj) > 1:
        if not heap:
            raise DegenerateInput("superpixel adjacency graph is disconnected")
        s, a, b = heapq.heappop(heap)
        if a not in adj or b not in adj:
            continue
        new = next_id
        next_id += 1
        events.append(MergeEvent(a, b, new, s))
        sizes[new] = sizes[a] + sizes[b]
        near_a, near_b = adj.pop(a), adj.pop(b)
        del near_a[b], near_b[a]
        merged = adj[new] = {}
        for n in near_a.keys() | near_b.keys():
            va, vb = near_a.get(n), near_b.get(n)
            if va is None or vb is None:
                v = vb if va is None else va
            else:
                v = np.concatenate((va, vb))
                v.sort()
            near_n = adj[n]
            near_n.pop(a, None)
            near_n.pop(b, None)
            near_n[new] = merged[n] = v
            heapq.heappush(heap, (score(n, new, v), n, new))
    return MergeTree(superpixels, events)


def extract_candidates(tree, max_merges, score_threshold=None):
    """Cut the merge-tree down to a Crag.

    A node's level is 0 for superpixels and 1 + max(child levels) for a
    merge result; nodes with level > max_merges are dropped (max_merges
    None means no level cap).  With a score_threshold, merge results
    whose creation score is >= the threshold are dropped too; surviving
    nodes then re-attach to their nearest surviving ancestor, which
    keeps every inner node the exact disjoint union of its children.
    Adjacency edges join every disjoint touching pair across all levels:
    the adjacency None asks build_crag for all of its lift.  The
    superpixel array becomes the Crag's leaf label image and so states
    the leaves: every superpixel stays a candidate, and build_crag gets
    only the surviving merge results, each with its children.  The
    levels serve the cap alone; the Crag keeps none.
    """
    max_merges = param_value("max_merges", max_merges)
    score_threshold = param_value("score_threshold", score_threshold)
    sp = np.asarray(tree.superpixels)
    level = {int(i): 0 for i in sorted_distinct(sp)}
    parent = {}
    score_of = {}
    for ev in tree.events:
        level[ev.new_id] = 1 + max(level[ev.child_a], level[ev.child_b])
        parent[ev.child_a] = ev.new_id
        parent[ev.child_b] = ev.new_id
        score_of[ev.new_id] = ev.score

    def included(node):
        if max_merges is not None and level[node] > max_merges:
            return False
        if (
            score_threshold is not None
            and node in score_of
            and score_of[node] >= score_threshold
        ):
            return False
        return True

    inc = {n for n in level if included(n)}

    # re-attach surviving nodes to their nearest surviving ancestor
    children = {n: [] for n in inc}
    for n in sorted(inc):
        p = parent.get(n)
        while p is not None and p not in inc:
            p = parent.get(p)
        if p is not None:
            children[p].append(n)

    cands = [Candidate(n, tuple(kids)) for n, kids in sorted(children.items()) if kids]
    return build_crag(cands, None, sp)
