"""Shared test helpers: a small hand-built CRAG, random instances, two
enumeration oracles that cross-check the solver (brute_force over
selections and connected partitions, and a literal scan of every 0/1
assignment), the integer program as explicit rows with unit
propagation over them, and plain per-pixel references for the
array-based watershed, CRAG checks and crag.json's run-length list,
encoded and decoded pixel by pixel, a node-by-node model.json forest
loader, a full-canvas reference for the windowed synthetic image
drawer, a per-tree walk of a forest's node lists, the per-row forest
grower, the merge tree over Python lists and np.median, the 592-entry
edge vectors as compute_features once assembled them, the candidate
adjacency and each edge's leaf-pair groups as the library once formed
them, through ancestor chains and dense lookup tables, and the greedy
matching of the detection score.

Tests build CRAGs from `{leaf id: (row, col) pixels}` dicts painted into
a label image by `leaf_image`, whose labels are the leaves, and the inner
candidates beside it (`inner` lists a Crag's), and read a candidate's
pixel set back from `Crag.leaf_labels()` with `pixels_of`.

The random generator keeps instances inside brute_force's budget
(candidates + edges <= BRUTE_FORCE_LIMIT) so every instance can be
checked against it.  brute_force shares no cost code with the solver:
it checks the costs and forms their exact sums itself.  Costs are drawn as
exact binary fractions k/1024 so objective comparisons need no
tolerance.
"""

import heapq
import itertools
import json
import math
from fractions import Fraction

import numpy as np
from scipy import ndimage

from cmc import synth
from cmc.costmodel import CostTable, Forest
from cmc.errors import (
    AdjacencyBetweenOverlapping,
    CmcError,
    LeavesDoNotCoverImage,
    NotAdjacent,
    PlacementFailure,
)
from cmc.crag import (
    UNCOVERED,
    Candidate,
    Crag,
    Solution,
    _named,
    build_crag,
    conflict_cliques,
    crag_to_json,
    edge_key,
    json_known,
    json_member,
    json_value,
    objective_value,
    pixel_pairs,
    row_runs,
    validate_solution,
)
from cmc.hierarchy import MergeEvent
from cmc.solver import MODES

# pass/fail lines collected by the acceptance tests; conftest prints them
# in the terminal summary
ACCEPTANCE_LINES = []


def report(ok, text):
    line = ("PASS " if ok else "FAIL ") + text
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# pixel sets and label images


def leaf_image(pixels, width, height):
    """int64 (height, width) leaf label image painted from a {leaf id:
    (row, col) pairs} dict; UNCOVERED where no leaf lies."""
    labels = np.full((height, width), UNCOVERED, dtype=np.int64)
    for leaf, pix in pixels.items():
        for r, c in pix:
            labels[r, c] = leaf
    return labels


def pixels_of(crag, cid):
    """(row, col) set of a candidate, read from crag.leaf_labels()."""
    rows, cols = np.nonzero(np.isin(crag.leaf_labels(), crag.leaves_under(cid)))
    return frozenset(zip(rows.tolist(), cols.tolist()))


def pixel_owners(crag):
    """{(row, col): leaf id} over the pixels that a leaf of crag covers."""
    return {p: leaf for leaf in crag.leaves() for p in pixels_of(crag, leaf)}


def inner(crag):
    """crag's inner candidates in id order: what build_crag takes beside
    the leaf label image."""
    return [c for c in map(crag.candidates.get, crag.ids()) if c.children]


def subtree_heights(crag):
    """{id: height of its subtree}: 0 for a leaf, else 1 + the largest of
    its children's, by a walk down from the roots."""
    height, todo = {}, list(crag.roots())
    while todo:
        kids = crag.candidates[todo[-1]].children
        if all(k in height for k in kids):
            height[todo.pop()] = max((height[k] + 1 for k in kids), default=0)
        else:
            todo.extend(k for k in kids if k not in height)
    return height


# ---------------------------------------------------------------------------
# hand-built fixture: 4x4 image, four leaves, two inner merges, one root


def quad_crag():
    """Four leaves tiling a 4x4 image; 5 = 1|2, 6 = 3|4, 7 = 5|6.

    Adjacency holds every disjoint touching pair (11 edges), including
    cross-level edges such as (3, 5).
    """
    rows = ["1122", "1332", "1334", "4444"]
    pix = {k: set() for k in (1, 2, 3, 4)}
    for r, line in enumerate(rows):
        for c, ch in enumerate(line):
            pix[int(ch)].add((r, c))
    candidates = [
        Candidate(5, children=(1, 2)),
        Candidate(6, children=(3, 4)),
        Candidate(7, children=(5, 6)),
    ]
    adjacency = [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        (3, 5), (4, 5), (1, 6), (2, 6), (5, 6),
    ]
    return build_crag(candidates, adjacency, leaf_image(pix, 4, 4))


def quad_gt():
    """Two objects: leaves 1+2+3 carry label 1, leaf 4 carries label 2."""
    gt = np.ones((4, 4), dtype=np.int64)
    for (r, c) in [(2, 3), (3, 0), (3, 1), (3, 2), (3, 3)]:
        gt[r, c] = 2
    return gt


def quad_costs(crag):
    """Costs whose optimum selects {3, 4, 5} and merges (3, 5): objective -4."""
    f = {i: 1.0 for i in crag.ids()}
    for i in (3, 4, 5):
        f[i] = -1.0
    g = {e: 1.0 for e in crag.adjacency}
    g[(3, 5)] = -1.0
    return CostTable(f, g)


def pixel_grid_crag(h, w):
    """One single-pixel leaf per cell, no merges; adjacency = grid graph."""
    def cid(r, c):
        return r * w + c + 1

    pixels = {cid(r, c): [(r, c)] for r in range(h) for c in range(w)}
    adjacency = []
    for r in range(h):
        for c in range(w):
            if c + 1 < w:
                adjacency.append((cid(r, c), cid(r, c + 1)))
            if r + 1 < h:
                adjacency.append((cid(r, c), cid(r + 1, c)))
    return build_crag([], adjacency, leaf_image(pixels, w, h))


def frustrated_grid():
    """A multicut that takes long to prove: a 6x6 pixel grid with f = -1
    everywhere, g = -1 on about 60% of its edges and g = +1 on the rest.
    The attractive edges join 33 of the 36 pixels into one part, which
    takes the solver about 300,000 ticks to prove, so a solve of it
    cannot finish in a microsecond, nor before its clock first reads
    the time."""
    rng = np.random.default_rng(5)
    crag = pixel_grid_crag(6, 6)
    g = {e: float(rng.choice((-1.0, 1.0), p=(0.6, 0.4))) for e in crag.adjacency}
    return crag, CostTable({i: -1.0 for i in crag.ids()}, g)


def zero_solution(crag):
    return Solution(
        y={i: 0 for i in crag.ids()},
        m={e: 0 for e in crag.adjacency},
        objective=0.0,
    )


# ---------------------------------------------------------------------------
# random instances


def _neighbors4(p):
    r, c = p
    return ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))


# the most variables (candidates + edges) that brute_force enumerates
BRUTE_FORCE_LIMIT = 26


def random_crag(rng, budget=BRUTE_FORCE_LIMIT):
    """Random CRAG: 2-5 leaves grown on a small grid, merge depth <= 3.

    Leaves are connected regions from multi-source random growth; a
    random number of root pairs merge (bottom-up, subtree height capped
    at 3);
    adjacency is a random subset of the valid disjoint touching pairs,
    trimmed so that candidates + edges <= budget.
    """
    h = int(rng.integers(2, 5))
    w = int(rng.integers(2, 5))
    cells = [(r, c) for r in range(h) for c in range(w)]
    n_leaves = min(int(rng.integers(2, 6)), len(cells))

    owner = _grow_leaves(rng, cells, n_leaves)
    pixels = {lab: set() for lab in range(1, n_leaves + 1)}
    for p, lab in owner.items():
        pixels[lab].add(p)

    height = {lab: 0 for lab in range(1, n_leaves + 1)}
    roots = {lab: frozenset(pixels[lab]) for lab in range(1, n_leaves + 1)}
    children = {}
    next_id = n_leaves + 1
    for _ in range(int(rng.integers(0, n_leaves))):
        pairs = [
            (a, b)
            for a, b in itertools.combinations(sorted(roots), 2)
            if max(height[a], height[b]) + 1 <= 3
            and ref_regions_touch(roots[a], roots[b])
        ]
        if not pairs:
            break
        a, b = pairs[int(rng.integers(len(pairs)))]
        height[next_id] = max(height[a], height[b]) + 1
        children[next_id] = (a, b)
        roots[next_id] = roots.pop(a) | roots.pop(b)
        next_id += 1

    candidates = [Candidate(cid, kids) for cid, kids in children.items()]
    labels = leaf_image(pixels, w, h)
    crag0 = build_crag(candidates, [], labels)
    valid = []
    for i, j in itertools.combinations(crag0.ids(), 2):
        pa, pb = pixels_of(crag0, i), pixels_of(crag0, j)
        if pa.isdisjoint(pb) and ref_regions_touch(pa, pb):
            valid.append((i, j))
    rng.shuffle(valid)
    keep = min(len(valid), budget - len(crag0.candidates))
    if keep and rng.random() < 0.3:
        keep = int(rng.integers(0, keep + 1))
    return build_crag(candidates, valid[:keep], labels)


def _grow_leaves(rng, cells, n_leaves):
    """Multi-source random growth: pixel -> leaf label 1..n_leaves."""
    seed_idx = rng.choice(len(cells), size=n_leaves, replace=False)
    owner = {cells[k]: lab for lab, k in enumerate(seed_idx, start=1)}
    remaining = [p for p in cells if p not in owner]
    while remaining:
        grow = [
            (p, owner[q])
            for p in remaining
            for q in _neighbors4(p)
            if q in owner
        ]
        p, lab = grow[int(rng.integers(len(grow)))]
        owner[p] = lab
        remaining.remove(p)
    return owner


def random_sparse_crag(rng):
    """Random CRAG for pixel-level checks, not for the solver oracle.

    Leaves are grown on a 3-9 px grid, then about a fifth of the pixels
    are left uncovered, so leaves become non-convex and may fall apart.
    Random root pairs merge whether or not they touch (multi-component
    candidates, unbounded depth), and the adjacency holds every
    disjoint touching pair.
    """
    h, w = (int(v) for v in rng.integers(3, 10, size=2))
    cells = [(r, c) for r in range(h) for c in range(w)]
    owner = _grow_leaves(rng, cells, int(rng.integers(2, 8)))
    pixels = {}
    for p, lab in sorted(owner.items()):
        if rng.random() >= 0.2 or not pixels:
            pixels.setdefault(lab, set()).add(p)
    candidates, roots = [], sorted(pixels)
    next_id = max(roots) + 1
    for _ in range(int(rng.integers(0, len(roots)))):
        a, b = (roots.pop(int(rng.integers(len(roots)))) for _ in range(2))
        candidates.append(Candidate(next_id, children=tuple(sorted((a, b)))))
        roots.append(next_id)
        next_id += 1
    labels = leaf_image(pixels, w, h)
    crag0 = build_crag(candidates, [], labels)
    region = {i: pixels_of(crag0, i) for i in crag0.ids()}
    adjacency = [
        (i, j)
        for i, j in itertools.combinations(crag0.ids(), 2)
        if region[i].isdisjoint(region[j]) and ref_regions_touch(region[i], region[j])
    ]
    return build_crag(candidates, adjacency, labels)


def ref_regions_touch(pa, pb):
    """Whether any 4-neighbor pixel pair crosses between the two sets."""
    for p in pa:
        for q in _neighbors4(p):
            if q in pb:
                return True
    return False


def brute_merge_score(region_a, region_b, boundary):
    """Merge score from scratch: min(|a|, |b|) times the median of
    max(boundary[p], boundary[q]) over every 4-neighbor pair p in a,
    q in b.  Raises NotAdjacent when no such pair exists."""
    a, b = set(region_a), set(region_b)
    vals = [
        max(float(boundary[p]), float(boundary[q]))
        for p in a
        for q in _neighbors4(p)
        if q in b
    ]
    if not vals:
        raise NotAdjacent()
    return min(len(a), len(b)) * float(np.median(vals))


# ---------------------------------------------------------------------------
# per-pixel references for the array-based front end


def ref_seeded_watershed(boundary, seed_threshold):
    """Heap flood over (value, counter, row, col) tuples.

    Seeds are pushed in row-major order, claimed pixels as they are
    claimed; ties pop in push order.  Neighbours: up, down, left, right.
    Assumes a valid boundary map with at least one seed.
    """
    boundary = np.asarray(boundary, dtype=np.float64)
    seeds, _ = ndimage.label(boundary < seed_threshold)
    labels = seeds.astype(np.int64)
    h, w = labels.shape
    counter = itertools.count()
    heap = []
    rs, cs = np.nonzero(labels)
    for r, c in zip(rs.tolist(), cs.tolist()):
        heapq.heappush(heap, (boundary[r, c], next(counter), r, c))
    while heap:
        _, _, r, c = heapq.heappop(heap)
        lab = labels[r, c]
        for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= nr < h and 0 <= nc < w and labels[nr, nc] == 0:
                labels[nr, nc] = lab
                heapq.heappush(heap, (boundary[nr, nc], next(counter), nr, nc))
    return labels


def ref_make_image(rng, n_cells, noise_level, size, chord_fraction):
    """Synthetic image triple drawn over the whole canvas.

    Every placement attempt's ellipse, and each placed cell's distance
    transform, ring, stamp, blocked mask and chord band, covers all
    size x size pixels.  Draws from `rng` in the order `synth._make_image`
    does, so the two must agree byte for byte.
    """
    rows, cols = np.mgrid[0:size, 0:size].astype(np.float64)
    gt = np.zeros((size, size), dtype=np.int64)
    raw = np.full((size, size), synth.BACKGROUND_RAW)
    boundary = np.zeros((size, size))
    blocked = np.zeros((size, size), dtype=bool)
    clear_lo, clear_hi = synth.BORDER_CLEAR, size - synth.BORDER_CLEAR

    placed = []  # (mask, ring, cy, cx)
    for label in range(1, n_cells + 1):
        for _ in range(synth.MAX_ATTEMPTS_PER_CELL):
            cy = rng.uniform(clear_lo, clear_hi)
            cx = rng.uniform(clear_lo, clear_hi)
            a = rng.uniform(synth.AXIS_LOW, synth.AXIS_HIGH)
            b = rng.uniform(synth.AXIS_LOW, synth.AXIS_HIGH)
            theta = rng.uniform(0.0, np.pi)
            intensity = rng.uniform(synth.CELL_RAW_LOW, synth.CELL_RAW_HIGH)
            dy = rows - cy
            dx = cols - cx
            xr = dx * np.cos(theta) + dy * np.sin(theta)
            yr = -dx * np.sin(theta) + dy * np.cos(theta)
            mask = (xr / a) ** 2 + (yr / b) ** 2 <= 1.0
            clear = mask.copy()
            clear[clear_lo:clear_hi, clear_lo:clear_hi] = False
            if clear.any() or (mask & blocked).any():
                continue
            dist = ndimage.distance_transform_edt(~mask)
            ring = (dist > 0) & (dist <= synth.RING_WIDTH)
            gt[mask] = label
            raw[mask] = intensity
            boundary = np.maximum(boundary, np.where(ring, synth.RIDGE_VALUE, 0.0))
            blocked |= dist <= synth.GAP
            placed.append((mask, ring, cy, cx))
            break
        else:
            raise PlacementFailure(len(placed), n_cells)

    n_chord = int(round(chord_fraction * n_cells))
    chorded = sorted(rng.choice(n_cells, size=n_chord, replace=False)) if n_chord else []
    for idx in chorded:
        mask, ring, cy, cx = placed[idx]
        phi = rng.uniform(0.0, np.pi)
        offset = (cols - cx) * (-np.sin(phi)) + (rows - cy) * np.cos(phi)
        band = (np.abs(offset) <= synth.CHORD_HALF_WIDTH) & (mask | ring)
        boundary = np.maximum(boundary, np.where(band, synth.CHORD_VALUE, 0.0))

    boundary = ndimage.gaussian_filter(boundary, synth.BLUR_SIGMA)
    if noise_level > 0.0:
        sigma = synth.NOISE_SCALE * noise_level
        raw = raw + rng.normal(0.0, 1.0, raw.shape) * sigma
        boundary = boundary + rng.normal(0.0, 1.0, boundary.shape) * sigma
    raw = np.clip(raw, 0.0, 1.0)
    boundary = np.clip(boundary, 0.0, 1.0)
    return raw, boundary, gt


def ref_check_leaves_and_edges(owner, candidates, adjacency, width, height):
    """build_crag's label, child and edge checks, done on pixel sets.

    `owner` maps each covered (row, col) pixel to its label, and
    `candidates` are the inner candidates.  Pixels in row-major order: a
    label below UNCOVERED, or one that is an inner candidate's id,
    raises LeavesDoNotCoverImage; each label is a leaf.  Then, inner
    candidates in the given order, a child that is neither a leaf nor an
    inner candidate raises CmcError.  Each edge, in the given order: an
    unknown id raises CmcError, a self-loop or a shared pixel between
    the two candidates' pixel unions raises AdjacencyBetweenOverlapping,
    no 4-neighbor pair between them raises NotAdjacent.  Assumes the
    candidates' own checks and the forest checks pass.  Returns the leaf
    label image.
    """
    cand_map = {c.id: c for c in candidates}
    pixels = {}
    for (r, c), label in sorted(owner.items()):
        if label < UNCOVERED or label in cand_map:
            raise LeavesDoNotCoverImage(f"pixel ({r}, {c}) holds {label}, no leaf id")
        pixels.setdefault(label, set()).add((r, c))
    for cand in candidates:
        for child in cand.children:
            if child not in pixels and child not in cand_map:
                raise CmcError(f"candidate {cand.id} has unknown child {child}")

    def region(cid):
        if cid in pixels:
            return frozenset(pixels[cid])
        return frozenset().union(*(region(k) for k in cand_map[cid].children))

    for i, j in adjacency:
        if not {i, j} <= pixels.keys() | cand_map.keys():
            raise CmcError(f"adjacency edge ({i}, {j}) references unknown id")
        if i == j:
            raise AdjacencyBetweenOverlapping(i, j)
        pa, pb = region(i), region(j)
        if not pa.isdisjoint(pb):
            raise AdjacencyBetweenOverlapping(i, j)
        if not ref_regions_touch(pa, pb):
            raise NotAdjacent()
    labels = np.full((height, width), UNCOVERED, dtype=np.int64)
    for (r, c), label in owner.items():
        labels[r, c] = label
    return labels


def ref_crag_json(owner, candidates, adjacency, width, height):
    """crag.json object whose leaf_labels is encoded pixel by pixel in
    row-major order from `owner`, a {(row, col): label} dict of the
    covered pixels, and whose candidates are the inner `candidates`."""
    leaf_labels = []
    for r in range(height):
        for c in range(width):
            label = owner.get((r, c), UNCOVERED)
            if leaf_labels and leaf_labels[-2] == label:
                leaf_labels[-1] += 1
            else:
                leaf_labels += [label, 1]
    entries = [
        {"id": cand.id, "children": sorted(cand.children)}
        for cand in sorted(candidates, key=lambda c: c.id)
    ]
    return {
        "width": width,
        "height": height,
        "leaf_labels": leaf_labels,
        "candidates": entries,
        "adjacency": [list(e) for e in adjacency],
    }


def ref_crag_from_json(obj, doc="crag.json"):
    """crag_from_json checking each (label, run length) pair of
    leaf_labels on its own, in file order, and laying its pixels out one
    by one."""
    height, width = (json_member(doc, obj, k, int, "crag") for k in ("height", "width"))
    keys = ("width", "height", "leaf_labels", "candidates", "adjacency")
    json_known(doc, obj, keys, "crag")
    if height < 0 or width < 0:
        raise CmcError(f"{doc}: negative image size {height}x{width}")
    if height * width >= 2**63:
        raise CmcError(f"{doc}: image size {height}x{width} too large")
    candidates = []
    for entry in json_member(doc, obj, "candidates", list, "crag"):
        cid = json_member(doc, entry, "id", int, "candidate")
        where = f"candidate {cid}"
        for old in ("runs", "pixels", "level"):
            if old in entry:
                raise CmcError(
                    f"{doc}: {where} holds {old!r}, the form of an older "
                    "release; run build-crag again"
                )
        if "children" not in entry:
            raise CmcError(
                f"{doc}: {where} has no 'children', the form of an older "
                "release; run build-crag again"
            )
        json_known(doc, entry, ("id", "children"), where)
        kids = json_member(doc, entry, "children", list, where)
        kids = tuple(json_value(doc, k, int, f"child of {where}") for k in kids)
        candidates.append(Candidate(cid, kids))
    runs = json_member(doc, obj, "leaf_labels", list, "crag")
    if len(runs) % 2:
        raise CmcError(f"{doc}: leaf_labels has odd length {len(runs)}")
    pixels, covered = [], 0
    for at in range(0, len(runs), 2):
        label = json_value(doc, runs[at], int, f"leaf_labels[{at}]")
        length = json_value(doc, runs[at + 1], int, f"leaf_labels[{at + 1}]")
        if length < 1:
            raise CmcError(
                f"{doc}: run length leaf_labels[{at + 1}] is {length}, below 1"
            )
        covered += length
        if covered <= height * width:
            for _ in range(length):
                pixels.append(label)
    if covered != height * width:
        raise CmcError(
            f"{doc}: leaf_labels covers {covered} pixels, not {height}x{width}"
        )
    try:
        labels = np.array(pixels, dtype=np.int64).reshape(height, width)
    except ValueError as exc:
        raise CmcError(f"{doc}: image size {height}x{width} too large") from exc
    pairs = json_member(doc, obj, "adjacency", list, "crag")
    if not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise CmcError(f"{doc}: an entry of adjacency is not a pair")
    adjacency = [tuple(json_value(doc, v, int, "adjacency") for v in p) for p in pairs]
    try:
        return build_crag(candidates, adjacency, labels)
    except CmcError as exc:
        raise _named(doc, exc)


def node_lists(forest):
    """The trees of a Forest as the node lists that model.json held
    before its array form: per tree, a leaf {"prob": p} or a split
    {"feature", "threshold", "left", "right"}, its children numbered
    within the tree."""
    trees, start = [], 0
    for size in forest.sizes.tolist():
        nodes = []
        for i in range(start, start + size):
            if forest.left[i] == i:
                nodes.append({"prob": float(forest.value[i])})
            else:
                nodes.append({
                    "feature": int(forest.feature[i]),
                    "threshold": float(forest.value[i]),
                    "left": int(forest.left[i]) - start,
                    "right": int(forest.right[i]) - start,
                })
        trees.append(nodes)
        start += size
    return trees


def old_model_json(model):
    """A model as the node-list model.json that releases before the
    array form wrote."""
    return {
        key: {
            "n_trees": forest.n_trees,
            "rng_seed": forest.rng_seed,
            "n_features": forest.n_features,
            "trees": node_lists(forest),
        }
        for key, forest in model.items()
    }


def old_crag_json(crag):
    """crag as the crag.json that releases before leaf_labels wrote: an
    entry per candidate with its subtree height as 'level', each leaf's
    pixels under 'runs', flat (row, col_start, col_end) triples."""
    obj = crag_to_json(crag)
    del obj["leaf_labels"]
    runs = {}
    for leaf, *run in zip(*(a.tolist() for a in row_runs(crag.leaf_labels()))):
        runs.setdefault(leaf, []).extend(run)
    level = subtree_heights(crag)
    obj["candidates"] = []
    for cid in crag.ids():
        kids = list(crag.candidates[cid].children)
        entry = {"children": kids} if kids else {"runs": runs[cid]}
        obj["candidates"].append({"id": cid, "level": level[cid], **entry})
    return obj


def _ref_is_int(value):
    return type(value) is int and -(2**63) <= value < 2**63


def ref_forest_from_json(obj, where="forest"):
    """forest_from_json checking the lists entry by entry: the sizes in
    tree order, then every node in tree and slot order, each node's
    entries with Python scalars and its parents counted over the splits
    before it."""
    doc = "model.json"
    n_features = json_member(doc, obj, "n_features", int, where)
    n_trees = json_member(doc, obj, "n_trees", int, where)
    if n_trees < 1:
        raise CmcError(f"{doc}: {where}: n_trees {n_trees} is below 1")
    rng_seed = json_member(doc, obj, "rng_seed", int, where)
    if rng_seed < 0:
        raise CmcError(f"{doc}: {where}: rng_seed {rng_seed} is negative")
    if "trees" in obj:
        raise CmcError(
            f"{doc}: {where} holds 'trees', the node lists of an older release; "
            "train the model again"
        )
    keys = ("n_trees", "rng_seed", "n_features", "sizes", "feature", "value", "left", "right")
    for key in sorted(obj):
        if key not in keys:
            raise CmcError(f"{doc}: {where} has unknown key {key!r}")
    sizes, feature, value, left, right = (
        json_member(doc, obj, key, list, where) for key in keys[3:]
    )
    if len(sizes) != n_trees:
        raise CmcError(f"{doc}: {where} has {len(sizes)} trees, not n_trees {n_trees}")
    if not len(feature) == len(value) == len(left) == len(right):
        raise CmcError(
            f"{doc}: {where} has lists of unequal length: feature {len(feature)}, "
            f"value {len(value)}, left {len(left)}, right {len(right)}"
        )
    for t, size in enumerate(sizes):
        if not (_ref_is_int(size) and size >= 1):
            raise CmcError(f"{doc}: tree {t} of {where} has size {size!r}, not an int >= 1")
    if sum(sizes) != len(feature):
        raise CmcError(
            f"{doc}: {where} has tree sizes adding up to {sum(sizes)}, "
            f"not its {len(feature)} nodes"
        )
    parents = [0] * len(feature)
    start = 0
    for t, size in enumerate(sizes):
        for i in range(start, start + size):
            at = f"{doc}: tree {t}, node {i - start} of {where}"
            f, v, l, r = feature[i], value[i], left[i], right[i]
            if not _ref_is_int(f):
                raise CmcError(f"{at} has feature {f!r}, not an int")
            if type(v) is not float:
                raise CmcError(f"{at} has value {v!r}, not a float")
            if not _ref_is_int(l):
                raise CmcError(f"{at} has left {l!r}, not an int")
            if not _ref_is_int(r):
                raise CmcError(f"{at} has right {r!r}, not an int")
            if l == i:
                if f != -1 or r != i:
                    raise CmcError(
                        f"{at} is a leaf (left is itself) with feature {f} and right {r},"
                        " not -1 and itself"
                    )
                if not 0.0 <= v <= 1.0:
                    raise CmcError(f"{at} is a leaf with prob {v} outside [0, 1]")
            else:
                if not 0 <= f < n_features:
                    raise CmcError(f"{at} splits on feature {f} of {n_features}")
                if not math.isfinite(v):
                    raise CmcError(f"{at} splits at threshold {v}, not a finite number")
                if not (i < l < start + size and i < r < start + size):
                    raise CmcError(
                        f"{at} has children {l} and {r}, not both after it in its tree"
                    )
            if i > start and parents[i] != 1:
                raise CmcError(f"{at} is the child of {parents[i]} splits, not 1")
            if l != i:
                parents[l] += 1
                parents[r] += 1
        start += size
    return Forest(
        n_trees, rng_seed, n_features, *map(np.array, (sizes, feature, value, left, right))
    )


def same_outcome(load, reference, obj):
    """Assert that load(obj) and reference(obj) raise the same CmcError
    class with the same message, or return equal values, Crags also with
    equal leaf_labels(); returns the reference's outcome, a value or an
    error."""
    try:
        want = reference(obj)
    except CmcError as exc:
        want = exc
    try:
        got = load(obj)
    except CmcError as exc:
        assert isinstance(want, CmcError), f"raised {exc!r}, reference loads"
        assert (type(exc), str(exc)) == (type(want), str(want))
        return want
    assert not isinstance(want, CmcError), f"loads, reference raised {want!r}"
    assert got == want
    if isinstance(want, Crag):
        labels = got.leaf_labels()
        assert labels.dtype == np.int64 and not labels.flags.writeable
        assert np.array_equal(labels, want.leaf_labels())
    return want


def random_costs(rng, crag):
    """Uniform [-1, 1] costs stored as exact binary fractions k/1024."""
    f = {i: int(rng.integers(-1024, 1025)) / 1024.0 for i in crag.ids()}
    g = {e: int(rng.integers(-1024, 1025)) / 1024.0 for e in crag.adjacency}
    return CostTable(f, g)


def random_gt(rng, crag, n_labels=3):
    """Random label image (0 = background) matching the crag's canvas."""
    return rng.integers(0, n_labels + 1, size=(crag.height, crag.width))


# ---------------------------------------------------------------------------
# literal enumeration oracle (quadratic-slow; tiny instances only)


def enumerate_minimum(crag, costs, mode="full"):
    """Try every 0/1 assignment, keep the feasible ones, take the minimum.

    Assignments rank by (exact cost sum, (y bits, m bits)): the sum is
    taken in Fractions, so no rounding orders two of them, and ties
    break to the lexicographically smallest bit vector.
    """
    ids = crag.ids()
    edges = list(crag.adjacency)
    exact = [Fraction(costs.f[i]) for i in ids] + [Fraction(costs.g[e]) for e in edges]
    leaves = set(crag.leaves())
    non_leaves = [i for i in ids if i not in leaves]
    best = None
    for bits in itertools.product((0, 1), repeat=len(ids) + len(edges)):
        y = dict(zip(ids, bits))
        m = dict(zip(edges, bits[len(ids):]))
        if mode == "merge_tree_only" and any(m.values()):
            continue
        if mode == "leaf_multicut_only" and any(y[i] for i in non_leaves):
            continue
        if validate_solution(crag, Solution(y=y, m=m, objective=0.0)):
            continue
        key = (sum(c for c, bit in zip(exact, bits) if bit), bits)
        if best is None or key < best[0]:
            best = (key, y, m)
    _, y, m = best
    return Solution(y=y, m=m, objective=objective_value(costs.f, costs.g, y, m))


# ---------------------------------------------------------------------------
# enumeration oracle over selections and connected partitions


def _connected_subsets(anchor, allowed, adj):
    """All subsets containing `anchor`, within `allowed`, connected in adj."""
    results = []

    def grow(current, frontier, banned):
        if not frontier:
            results.append(frozenset(current))
            return
        v = frontier[0]
        rest = frontier[1:]
        grow(current, rest, banned | {v})
        extra = sorted(
            (adj[v] & allowed) - current - banned - set(rest) - {v}
        )
        grow(current | {v}, rest + extra, banned)

    start_frontier = sorted(adj[anchor] & allowed)
    grow({anchor}, start_frontier, set())
    return results


def _connected_partitions(vertices, edges):
    """All partitions of `vertices` whose parts are connected under `edges`."""
    adj = {v: set() for v in vertices}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)

    def rec(remaining):
        if not remaining:
            yield []
            return
        anchor = remaining[0]
        allowed = set(remaining[1:])
        for part in _connected_subsets(anchor, allowed, adj):
            rest = tuple(v for v in remaining if v not in part)
            for tail in rec(rest):
                yield [part] + tail

    yield from rec(tuple(sorted(vertices)))


def _scaled_costs(costs, ids, edges):
    """The costs in variable order (ids, then edges) as ints: each cost's
    Fraction times the largest denominator among them.  Every finite
    float's denominator is a power of two, so that one is a multiple of
    all the others, and sums and comparisons of the ints are those of
    the real costs.  A cost that is no finite number raises CmcError
    naming its key."""
    for table in (costs.f, costs.g):
        for key, cost in table.items():
            try:
                finite = math.isfinite(cost)
            except (TypeError, OverflowError):  # no number, or an int past float
                finite = False
            if not finite:
                raise CmcError(f"cost of {key} is not a finite number")
    exact = [Fraction(float(costs.f[i])) for i in ids]
    exact += [Fraction(float(costs.g[e])) for e in edges]
    scale = max((c.denominator for c in exact), default=1)
    return [int(c * scale) for c in exact]


def brute_force(crag, costs, mode="full"):
    """Exhaustive minimum over all feasible assignments, for instances of
    at most BRUTE_FORCE_LIMIT variables.

    Selection vectors are enumerated directly (pruned by the conflict
    cliques); for each one, the feasible merge assignments are exactly
    the partitions of the selected subgraph into connected parts, with
    every within-part edge merged.  The answer is the lexicographically
    smallest (y, m) bit vector among those of least exact cost sum
    (_scaled_costs).  An unknown mode or a cost that is no finite number
    raises CmcError, and a larger instance ValueError.
    """
    if mode not in MODES:
        raise CmcError(f"unknown mode {mode!r}")
    ids = crag.ids()
    edges = list(crag.adjacency)
    exact = _scaled_costs(costs, ids, edges)
    n = len(ids) + len(edges)
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"instance with {n} variables exceeds enumeration budget {BRUTE_FORCE_LIMIT}"
        )

    cliques = [sorted(c) for c in conflict_cliques(crag) if len(c) > 1]
    leaves = set(crag.leaves())
    best = None  # (exact cost, bits, y, m)
    for bits_y in itertools.product((0, 1), repeat=len(ids)):
        y = dict(zip(ids, bits_y))
        if mode == "leaf_multicut_only" and any(
            y[i] for i in ids if i not in leaves
        ):
            continue
        if any(sum(y[i] for i in cl) > 1 for cl in cliques):
            continue
        selected = [i for i in ids if y[i]]
        live = [e for e in edges if y[e[0]] and y[e[1]]]
        live_set = set(live)
        if mode == "merge_tree_only":
            partitions = [[frozenset([v]) for v in selected]]
        else:
            partitions = _connected_partitions(selected, live)
        for parts in partitions:
            part_of = {}
            for k, part in enumerate(parts):
                for v in part:
                    part_of[v] = k
            m = {
                e: int(e in live_set and part_of[e[0]] == part_of[e[1]])
                for e in edges
            }
            bits = bits_y + tuple(m[e] for e in edges)
            cost = sum(c for c, bit in zip(exact, bits) if bit)
            if best is None or (cost, bits) < (best[0], best[1]):
                best = (cost, bits, dict(y), m)
    _, _, y, m = best
    return Solution(y=y, m=m, objective=objective_value(costs.f, costs.g, y, m))


def ref_lexed(crag, costs, var_y, var_m):
    """The lexed cost of each variable of var_y and var_m (numbered 0..n-1
    in that order), in Fractions: the cost times the largest denominator
    among the variables' costs, times 2**n, plus 2**(n - 1 - v)."""
    exact = [Fraction(costs.f[i]) for i in var_y]
    exact += [Fraction(costs.g[e]) for e in var_m]
    scale = max((c.denominator for c in exact), default=1)
    n = len(exact)
    return [
        scale * c * 2**n + Fraction(2) ** (n - 1 - v) for v, c in enumerate(exact)
    ]


def ref_parts(crag, costs, var_y, var_m):
    """The parts of the program over var_y and var_m that the solver's
    rule and split leave (cmc.solver), from their definitions: each
    part's variables in increasing order, the parts in the order of
    their first variable.

    The rule fixes a selection while its lexed cost (ref_lexed) plus
    the lexed costs of the negative merges at it whose other end is not
    fixed is > 0, in sweeps over all selections until one fixes nothing.
    Two selections that are not fixed share a part when one candidate
    is an ancestor of the other or a negative merge joins them; a merge
    whose ends are not fixed and share a part belongs to it."""
    lexed = ref_lexed(crag, costs, var_y, var_m)
    fixed = set()
    changed = True
    while changed:
        changed = False
        for i, v in var_y.items():
            if i in fixed:
                continue
            total = lexed[v] + sum(
                lexed[m]
                for e, m in var_m.items()
                if i in e and lexed[m] < 0 and e[0 if e[1] == i else 1] not in fixed
            )
            if total > 0:
                fixed.add(i)
                changed = True
    live = [i for i in var_y if i not in fixed]
    links = [e for e, m in var_m.items() if lexed[m] < 0]
    links += [(i, a) for i in live for a in crag.ancestors(i)]
    part_of = {i: {i} for i in live}
    for i, j in links:
        if i in part_of and j in part_of and part_of[i] is not part_of[j]:
            joined = part_of[i] | part_of[j]
            for k in joined:
                part_of[k] = joined
    parts = []
    for i in live:
        members = part_of[i]
        if min(members) == i:
            variables = [var_y[k] for k in members]
            variables += [m for e, m in var_m.items() if set(e) <= members]
            parts.append(sorted(variables))
    return sorted(parts)


# ---------------------------------------------------------------------------
# the integer program as explicit rows, and unit propagation over them


def explicit_rows(crag, var_y, var_m, cuts):
    """(coefficients, bound) <=-rows over the variables of var_y and
    var_m, every other y and m being 0: sum of y <= 1 per conflict
    clique, 2 m_e - y_i - y_j <= 0 per edge, and per path cut the merges
    along the path less the bypassed edge's at most the path's length
    less one.  A row that the zeros leave with no variable, or that they
    make hold whatever the rest, is left out."""
    rows = []
    for clique in conflict_cliques(crag):
        present = [i for i in sorted(clique) if i in var_y]
        if len(present) > 1:
            rows.append(({var_y[i]: 1 for i in present}, 1))
    for e in var_m:
        rows.append(({var_m[e]: 2, var_y[e[0]]: -1, var_y[e[1]]: -1}, 0))
    for cut in cuts:
        cmap = {var_m[e]: 1 for e in cut.path}
        cmap[var_m[cut.bypassed_edge]] = -1
        rows.append((cmap, len(cut.path) - 1))
    return rows


def ref_slack(row, values):
    """The row's bound less the least left-hand side over the completions
    of `values` (None for a free variable)."""
    cmap, bound = row
    least = sum(
        a * values[v] if values[v] is not None else min(a, 0)
        for v, a in cmap.items()
    )
    return bound - least


def ref_unit_propagation(rows, n, literals):
    """Values of the n variables after unit propagation of the rows from
    the (variable, value) literals, None for a free one; None instead of
    the list when two literals disagree or a row cannot hold.  Sweeps
    every row until a sweep sets nothing."""
    values = [None] * n
    for v, val in literals:
        if values[v] is not None and values[v] != val:
            return None
        values[v] = val
    changed = True
    while changed:
        changed = False
        for row in rows:
            slack = ref_slack(row, values)
            if slack < 0:
                return None
            for v, a in row[0].items():
                if values[v] is None and abs(a) > slack:
                    values[v] = int(a < 0)
                    changed = True
                    slack = ref_slack(row, values)
    return values


def ref_tree_predict(nodes, X):
    """One tree's leaf probability per row of X, by a stack walk of its
    JSON node list; X[row, feature] <= threshold goes left."""
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


def _ref_best_split(values, labels):
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


def _ref_grow_tree(X, y, rows, rng, k):
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
        best = _ref_best_split(X[np.ix_(idx, feats)], ys)
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


def ref_train_forest(samples, n_trees, rng_seed):
    """The trees train_forest grows, by the per-row grower: every node
    holds its bootstrap rows expanded, one entry per draw, and sorts
    them by a stable argsort.  Takes valid samples only."""
    X, y = samples
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y).astype(np.int64)
    idx0 = np.nonzero(y == 0)[0]
    idx1 = np.nonzero(y == 1)[0]
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
        trees.append(_ref_grow_tree(X, y, rows, rng, k))
    return trees


def ref_build_merge_tree(superpixels, boundary):
    """Merge events of hierarchy.build_merge_tree, from Python lists of
    interface values and np.median.  Assumes a valid, connected label
    image with non-negative labels and a boundary map of its shape."""
    superpixels = np.asarray(superpixels)
    boundary = np.asarray(boundary, dtype=np.float64)
    ids, counts = np.unique(superpixels, return_counts=True)
    sizes = {int(i): int(c) for i, c in zip(ids, counts)}

    iface = {}
    label_p, label_q, p, q = pixel_pairs(superpixels)
    flat = boundary.ravel()
    vals = np.maximum(flat[p], flat[q])
    for a, b, v in zip(label_p.tolist(), label_q.tolist(), vals.tolist()):
        iface.setdefault(edge_key(a, b), []).append(v)

    nbrs = {int(i): set() for i in ids}
    for a, b in iface:
        nbrs[a].add(b)
        nbrs[b].add(a)

    edge_score = {
        e: min(sizes[e[0]], sizes[e[1]]) * float(np.median(v))
        for e, v in iface.items()
    }
    heap = [(s, e[0], e[1]) for e, s in edge_score.items()]
    heapq.heapify(heap)

    alive = {int(i) for i in ids}
    next_id = int(ids.max()) + 1
    events = []
    while len(alive) > 1:
        s, a, b = heapq.heappop(heap)
        if a not in alive or b not in alive or edge_score.get((a, b)) != s:
            continue
        new = next_id
        next_id += 1
        events.append(MergeEvent(a, b, new, s))
        alive.discard(a)
        alive.discard(b)
        sizes[new] = sizes[a] + sizes[b]
        iface.pop((a, b), None)
        edge_score.pop((a, b), None)
        merged_nbrs = (nbrs.pop(a) | nbrs.pop(b)) - {a, b}
        for n in merged_nbrs:
            vals = iface.pop(edge_key(a, n), []) + iface.pop(edge_key(b, n), [])
            edge_score.pop(edge_key(a, n), None)
            edge_score.pop(edge_key(b, n), None)
            key = edge_key(new, n)
            iface[key] = vals
            sc = min(sizes[new], sizes[n]) * float(np.median(vals))
            edge_score[key] = sc
            heapq.heappush(heap, (sc, key[0], key[1]))
            nbrs[n].discard(a)
            nbrs[n].discard(b)
            nbrs[n].add(new)
        nbrs[new] = merged_nbrs
        alive.add(new)
    return events


def ref_chain(subset, cid):
    """cid and its ancestors in the child -> parent map `subset`, bottom-up."""
    chain = [cid]
    while chain[-1] in subset:
        chain.append(subset[chain[-1]])
    return chain


def ref_candidate_adjacency(subset, leaf_labels):
    """Every pair of disjoint candidates with a 4-neighbour pixel pair
    between them, lifted leaf pair by leaf pair through the ancestor
    chains (ref_chain): a and b's ancestors-or-self overlap iff one of
    them holds both leaves."""
    label_p, label_q, _, _ = pixel_pairs(leaf_labels)
    pairs = set(zip(label_p.tolist(), label_q.tolist()))
    chains = {leaf: ref_chain(subset, leaf) for pair in pairs for leaf in pair}
    above = {leaf: set(chain) for leaf, chain in chains.items()}
    return {
        edge_key(big_a, big_b)
        for a, b in pairs
        for big_a in chains[a]
        if big_a not in above[b]
        for big_b in chains[b]
        if big_b not in above[a]
    }


def ref_leaves_under(crag, cid):
    """The leaf ids under cid, by a walk down the children."""
    found, todo = set(), [cid]
    while todo:
        kids = crag.candidates[todo[-1]].children
        if kids:
            todo.pop()
            todo.extend(kids)
        else:
            found.add(todo.pop())
    return found


def ref_edge_groups(crag):
    """The (edge, group) incidences of crag.adjacency over the groups of
    crag.leaf_pairs, by dense (edges x leaves) lookup tables: the pairs,
    as np.nonzero gives them, whose group's p pixels lie in one of the
    edge's candidates and its q pixels in the other."""
    number = {leaf: k for k, leaf in enumerate(crag.leaf_order)}
    luts = {}
    for cid in crag.ids():
        luts[cid] = np.zeros(len(number), dtype=bool)
        luts[cid][[number[leaf] for leaf in ref_leaves_under(crag, cid)]] = True
    lut_i, lut_j = (
        np.array([luts[e[k]] for e in crag.adjacency], dtype=bool).reshape(-1, len(number))
        for k in (0, 1)
    )
    a, b = crag.leaf_pairs.a, crag.leaf_pairs.b
    return np.nonzero((lut_i[:, a] & lut_j[:, b]) | (lut_j[:, a] & lut_i[:, b]))


def check_lift(crag):
    """Assert that crag's leaf-pair groups hold every 4-neighbour pixel
    pair between leaves once, grouped by directed leaf pair in key
    order; that its adjacency lies in ref_candidate_adjacency and that
    adjacency None gives all of it; and that its edge_groups entries are
    the ref_edge_groups incidences, each once."""
    pairs, ranks = crag.leaf_pairs, crag.leaf_ranks()
    n = len(crag.leaf_order)
    group = np.repeat(np.arange(len(pairs.a)), pairs.stop - pairs.start)
    assert (ranks.ravel()[pairs.p] == pairs.a[group]).all()
    assert (ranks.ravel()[pairs.q] == pairs.b[group]).all()
    assert (np.diff(pairs.a * n + pairs.b) > 0).all()
    assert (pairs.start[1:] == pairs.stop[:-1]).all()
    assert len(pairs.p) == len(pixel_pairs(crag.leaf_labels())[0])
    full = ref_candidate_adjacency(crag.subset, crag.leaf_labels())
    assert set(crag.adjacency) <= full
    assert build_crag(inner(crag), None, crag.leaf_labels()).adjacency == tuple(sorted(full))
    assert len(crag.edge_groups) == 2
    rows = list(zip(*(x.tolist() for x in crag.edge_groups)))
    want = set(zip(*(x.tolist() for x in ref_edge_groups(crag))))
    assert len(rows) == len(set(rows)) and set(rows) == want


def strip_crag(n):
    """1 x n strip of one-pixel leaves 1..n, merged left to right: leaf
    k joins the union of leaves 1..k-1, so the last union sits n - 1
    levels above leaf 1.  Its adjacency is all of the lift."""
    cands = [Candidate(n + k - 1, (1 if k == 2 else n + k - 2, k)) for k in range(2, n + 1)]
    return build_crag(cands, None, np.arange(1, n + 1).reshape(1, n))


def ref_interface_values(crag, boundary):
    """Each adjacency edge's interface values, one array per edge in
    order: max(boundary[p], boundary[q]) over the 4-neighbour pixel pairs
    (pixel_pairs) with one pixel in each of its candidates, by a dense
    (candidates x leaves) lookup table of the leaves under each one."""
    label_p, label_q, p, q = pixel_pairs(crag.leaf_labels())
    leaves = {leaf: k for k, leaf in enumerate(crag.leaves())}
    lut = np.zeros((len(crag.candidates), len(leaves)), dtype=bool)
    row = {cid: k for k, cid in enumerate(crag.ids())}
    for cid in crag.ids():
        lut[row[cid], [leaves[leaf] for leaf in ref_leaves_under(crag, cid)]] = True
    at_p = np.array([leaves[x] for x in label_p.tolist()], dtype=np.int64)
    at_q = np.array([leaves[x] for x in label_q.tolist()], dtype=np.int64)
    value = np.maximum(boundary.ravel()[p], boundary.ravel()[q])
    out = []
    for i, j in crag.adjacency:
        in_i, in_j = lut[row[i]], lut[row[j]]
        out.append(value[(in_i[at_p] & in_j[at_q]) | (in_j[at_p] & in_i[at_q])])
    return out


def ref_moments(values, equal):
    """sum, mean, population variance/skewness, excess kurtosis, over the
    values in their own order: the per-pixel reference the combined
    moments of features._part_sums and _combined must match.

    var, skew and kurt are exactly 0 when all values are equal, which
    the caller says in `equal`.  The deviations are recentred on their
    own mean, which is the rounding error of `mean`: left in, it would
    shift skew and kurt by about eps * mean / std, far beyond rounding
    when the values nearly agree.
    """
    n = len(values)
    total = float(values.sum())
    mean = total / n
    if equal:
        return total, mean, 0.0, 0.0, 0.0
    d = values - mean
    d -= d.sum() / n
    d2 = d * d
    m2 = float(d2.sum()) / n
    if m2 == 0.0:  # the squared deviations underflow
        return total, mean, 0.0, 0.0, 0.0
    d *= d2  # cubed deviations
    d2 *= d2  # fourth powers
    skew = float(d.sum()) / n / m2**1.5
    kurt = float(d2.sum()) / n / (m2 * m2) - 3.0
    return total, mean, m2, skew, kurt


def ref_edge_block(crag, boundary, node_feats):
    """The (edges, 592) block of edge vectors, one per adjacency edge in
    order, as compute_features assembled it when each edge carried the
    combinators of its two node vectors: contact area, interface mean,
    variance and skew (ref_moments of ref_interface_values), then |u-v|,
    min, max and u+v per node feature.
    """
    adjacency = crag.adjacency
    u = np.array([node_feats[i] for i, _ in adjacency])
    v = np.array([node_feats[j] for _, j in adjacency])
    out = np.empty((len(adjacency), 4 + 4 * u.shape[1]))
    for row, values in zip(out, ref_interface_values(crag, boundary)):
        _, mean, var, skew, _ = ref_moments(values, values.min() == values.max())
        row[:4] = float(len(values)), mean, var, skew
    out[:, 4::4] = np.abs(u - v)
    out[:, 5::4] = np.minimum(u, v)
    out[:, 6::4] = np.maximum(u, v)
    out[:, 7::4] = u + v
    return out


def ref_detection_score(t):
    """(precision, recall, f_score) of a ContingencyTable by greedy
    matching, as evaluate once scored it: the object pairs of IoU > 0.5,
    by decreasing IoU, each matched unless one of its objects already
    is.  Label 0 is background on both sides."""
    n_gt = sum(1 for l in t.gt_marginals if l != 0)
    n_pred = sum(1 for l in t.pred_marginals if l != 0)
    candidates = []
    for (gl, pl), inter in t.counts.items():
        if gl == 0 or pl == 0:
            continue
        union = t.gt_marginals[gl] + t.pred_marginals[pl] - inter
        iou = inter / union
        if iou > 0.5:
            candidates.append((-iou, gl, pl))
    candidates.sort()
    matched_gt = set()
    matched_pred = set()
    for _, gl, pl in candidates:
        if gl in matched_gt or pl in matched_pred:
            continue
        matched_gt.add(gl)
        matched_pred.add(pl)
    tp = len(matched_gt)
    if n_pred:
        precision = tp / n_pred
    else:
        precision = 1.0 if n_gt == 0 else 0.0
    if n_gt:
        recall = tp / n_gt
    else:
        recall = 1.0 if n_pred == 0 else 0.0
    if precision + recall > 0:
        f_score = 2 * precision * recall / (precision + recall)
    else:
        f_score = 0.0
    return precision, recall, f_score


DELETE = object()


def json_with(obj, path, value):
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


def _hand_forest(feature, value, left, right):
    """Edits that replace a forest's trees with one tree of these lists."""
    lists = {"feature": feature, "value": value, "left": left, "right": right}
    return [(("n_trees",), 1), (("sizes",), [len(feature)])] + [
        ((key,), column) for key, column in lists.items()
    ]


# case -> its edits, each (path into a forest's JSON, the value put
# there).  The forest has 5 features and two trees of 3 nodes: node 0
# splits into the leaves 1 and 2, node 3 into the leaves 4 and 5.  Cases
# named for the node-list form edit the column of what they broke.
MALFORMED_FOREST = {
    "no trees": [(("sizes",), DELETE)],
    "trees not a list": [(("sizes",), {})],
    "empty tree": _hand_forest([], [], [], []),
    "no tree at all": [(("sizes",), [])],
    "zero n_trees": [(("n_trees",), 0)],
    "fewer trees than n_trees": [(("n_trees",), 3)],
    "more trees than n_trees": [(("n_trees",), 1)],
    "string n_features": [(("n_features",), "5")],
    "boolean rng_seed": [(("rng_seed",), True)],
    "negative rng_seed": [(("rng_seed",), -1)],
    "node not an object": [(("left", 0), {})],
    "split without threshold": [(("value",), DELETE)],
    "string threshold": [(("value", 0), "0.5")],
    "infinite threshold": [(("value", 0), float("inf"))],
    "feature out of range": [(("feature", 0), 5)],
    "child before parent": [(("left", 3), 2)],
    "child past the end": [(("right", 0), 10**6)],
    "child outside its tree": [(("right", 0), 3)],
    "child named twice by one split": [(("right", 0), 1)],
    "child of two splits": _hand_forest(
        [0, 1, -1, -1], [0.5, 0.5, 0.0, 1.0], [1, 2, 2, 3], [2, 3, 2, 3]
    ),
    "node no split names": _hand_forest(
        [0, -1, -1, -1], [0.5, 0.0, 1.0, 1.0], [1, 1, 2, 3], [2, 1, 2, 3]
    ),
    "leaf with a feature": [(("feature", -1), 0)],
    "leaf with another right": [(("right", -1), 4)],
    "NaN probability": [(("value", -1), float("nan"))],
    "probability above 1": [(("value", -1), 1.5)],
    "negative probability": [(("value", -1), -3.0)],
    "int probability": [(("value", -1), 1)],
    "unequal list lengths": [(("left", -1), DELETE)],
    "sizes that do not add up": [(("sizes", 1), 4)],
    "sizes that fall short": [(("sizes", 1), 2)],
    "tree of size 0": [(("sizes", 0), 0)],
    "bool in an int list": [(("feature", 0), True)],
    "int beyond int64": [(("left", 0), 2**63)],
    "list not a list": [(("left",), 3)],
    "unknown key": [(("extra",), 0)],
    # the rule tried first at a node is the one named
    "split with two faults": [(("feature", 0), "x"), (("value", 0), "y")],
    "leaf with two faults": [(("feature", -1), 0), (("value", -1), 1.5)],
}


def malformed_forest(obj, case):
    """A forest's JSON with the edits of MALFORMED_FOREST[case]."""
    for path, value in MALFORMED_FOREST[case]:
        obj = json_with(obj, path, value)
    return obj
