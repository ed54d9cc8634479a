"""From boundary map to candidate pool.

seeded_watershed turns a boundary probability map into superpixels,
build_merge_tree greedily merges the adjacent pair with the smallest
score (smaller region size times median interface intensity), and
extract_candidates cuts the tree down to the candidates within a merge
budget and wires up the candidate region adjacency graph.  The merge
tree keeps each interface as one sorted float64 array and reads its
median off the two central entries, with np.median's arithmetic.
"""

import heapq
import math
from array import array
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .crag import Candidate, build_crag, pixel_pairs, real_array, sorted_distinct
from .errors import CmcError, DegenerateInput, DimensionMismatch, NoSeeds


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

    The queue holds one integer per pushed pixel, rank * (h*w) + push
    index, where rank orders the distinct boundary values of the
    pushable pixels (np.unique, so -0.0 and 0.0 share a rank) and the
    push index counts pushes: seeds first in row-major order, then each
    pixel as it is claimed.  Keys are distinct and sort like (value,
    push index), so pixels pop in the same FIFO tie order as a heap of
    (value, counter) tuples.  A seed whose in-image neighbours are all
    seeds would claim nothing when popped, so it is never pushed; it
    still uses up its push index.  Only the other pixels are pushable:
    the seeds that touch a non-seed, and the non-seeds, each pushed
    when claimed.  Ranks over that subset order its values as ranks over
    the whole image would, so the pop order is the same; on the usual
    maps most pixels are interior seeds, and the rank skips them.
    Neighbours are visited up, down, left, right.
    """
    boundary = _check_boundary(boundary)
    seeds, n_seeds = ndimage.label(boundary < seed_threshold)
    if n_seeds == 0:
        raise NoSeeds(seed_threshold)
    h, w = seeds.shape
    n = h * w
    # flat images padded by one pixel, so neighbours need no bounds test;
    # the padding carries label -1 and is never claimed
    stride = w + 2
    padded = np.full((h + 2, stride), -1, dtype=np.int64)
    padded[1:-1, 1:-1] = seeds
    seeded = padded != 0
    interior = (
        seeded[1:-1, 1:-1]
        & seeded[:-2, 1:-1]
        & seeded[2:, 1:-1]
        & seeded[1:-1, :-2]
        & seeded[1:-1, 2:]
    )
    pushable = ~interior
    _, rank = np.unique(boundary[pushable], return_inverse=True)
    key_base = np.zeros((h + 2, stride), dtype=np.int64)
    key_base[1:-1, 1:-1][pushable] = rank * n

    # the flood reads and writes the images through memoryviews and grows
    # `order` as an int64 array, so it makes no Python int per pixel
    labels = memoryview(padded.reshape(-1))
    base = memoryview(key_base.reshape(-1))
    # order[k] is the padded flat index of the pixel with push index k
    flat = np.flatnonzero(seeds)
    order = array("q", (flat + stride + 1 + 2 * (flat // w)).tobytes())
    pushed = np.flatnonzero(pushable.ravel()[flat]).tolist()
    heap = [base[order[k]] + k for k in pushed]
    heapq.heapify(heap)
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
    be non-negative.

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
    superpixels = np.asarray(superpixels)
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
    the leaves: every superpixel stays a candidate, max_merges must be
    >= 0, and build_crag gets only the surviving merge results, each
    with its children.  The levels serve the cap alone; the Crag keeps
    none.
    """
    if max_merges is not None and max_merges < 0:
        raise CmcError(f"max_merges must be >= 0 or None, got {max_merges}")
    if score_threshold is not None and not math.isfinite(score_threshold):
        raise CmcError(f"score_threshold must be finite or None, got {score_threshold}")
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
