"""Shared test helpers: a small hand-built CRAG, random instances, a
literal enumeration oracle used to cross-check the solver, the integer
program as explicit rows with unit propagation over them, and plain
per-pixel references for the array-based watershed, CRAG checks and
crag.json run-length encoding, a full-canvas reference for the
windowed synthetic image drawer, a per-tree walk of a forest's node
lists, and the merge tree over Python lists and np.median.

Tests build CRAGs from `{leaf id: (row, col) pixels}` dicts painted into
a label image by `leaf_image`, and read a candidate's pixel set back from
`Crag.leaf_labels()` with `pixels_of`.

The random generator keeps instances inside the brute-force budget
(candidates + edges <= 26) so every instance can be checked against the
exhaustive oracle.  Costs are drawn as exact binary fractions k/1024 so
objective comparisons need no tolerance.
"""

import heapq
import itertools
import json
from fractions import Fraction

import numpy as np
from scipy import ndimage

from cmc import synth
from cmc.costmodel import CostTable
from cmc.errors import (
    AdjacencyBetweenOverlapping,
    CmcError,
    LeavesDoNotCoverImage,
    NotAdjacent,
    OverlappingLeaves,
    PlacementFailure,
)
from cmc.crag import (
    UNCOVERED,
    Candidate,
    Solution,
    build_crag,
    conflict_cliques,
    edge_key,
    objective_value,
    pixel_pairs,
    validate_solution,
)
from cmc.hierarchy import MergeEvent

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
    candidates = [Candidate(k, 0) for k in (1, 2, 3, 4)]
    candidates += [
        Candidate(5, 1, children=(1, 2)),
        Candidate(6, 1, children=(3, 4)),
        Candidate(7, 2, children=(5, 6)),
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
    candidates = [Candidate(k, 0) for k in pixels]
    adjacency = []
    for r in range(h):
        for c in range(w):
            if c + 1 < w:
                adjacency.append((cid(r, c), cid(r, c + 1)))
            if r + 1 < h:
                adjacency.append((cid(r, c), cid(r + 1, c)))
    return build_crag(candidates, adjacency, leaf_image(pixels, w, h))


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


def random_crag(rng, budget=26):
    """Random CRAG: 2-5 leaves grown on a small grid, merge depth <= 3.

    Leaves are connected regions from multi-source random growth; a
    random number of root pairs merge (bottom-up, level capped at 3);
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

    candidates = [Candidate(lab, 0) for lab in range(1, n_leaves + 1)]
    level = {lab: 0 for lab in range(1, n_leaves + 1)}
    roots = {lab: frozenset(pixels[lab]) for lab in range(1, n_leaves + 1)}
    children = {}
    next_id = n_leaves + 1
    for _ in range(int(rng.integers(0, n_leaves))):
        pairs = [
            (a, b)
            for a, b in itertools.combinations(sorted(roots), 2)
            if max(level[a], level[b]) + 1 <= 3
            and ref_regions_touch(roots[a], roots[b])
        ]
        if not pairs:
            break
        a, b = pairs[int(rng.integers(len(pairs)))]
        level[next_id] = max(level[a], level[b]) + 1
        children[next_id] = (a, b)
        roots[next_id] = roots.pop(a) | roots.pop(b)
        next_id += 1

    for cid, kids in children.items():
        candidates.append(Candidate(cid, level[cid], children=kids))

    labels = leaf_image(pixels, w, h)
    crag0 = build_crag(candidates, [], labels)
    valid = []
    for i, j in itertools.combinations(crag0.ids(), 2):
        pa, pb = pixels_of(crag0, i), pixels_of(crag0, j)
        if pa.isdisjoint(pb) and ref_regions_touch(pa, pb):
            valid.append((i, j))
    rng.shuffle(valid)
    keep = min(len(valid), budget - len(candidates))
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
    candidates = [Candidate(lab, 0) for lab in sorted(pixels)]
    roots = sorted(pixels)
    level = dict.fromkeys(roots, 0)
    next_id = max(roots) + 1
    for _ in range(int(rng.integers(0, len(roots)))):
        a, b = (roots.pop(int(rng.integers(len(roots)))) for _ in range(2))
        level[next_id] = 1 + max(level[a], level[b])
        candidates.append(
            Candidate(next_id, level[next_id], children=tuple(sorted((a, b))))
        )
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


def ref_check_leaves_and_edges(pixels, candidates, adjacency, width, height):
    """crag_from_json's leaf and build_crag's edge checks, done on pixel sets.

    `pixels` maps each leaf id to its (row, col) pairs.  Leaves in
    sorted id order, pixels one at a time: a pixel outside the image
    raises LeavesDoNotCoverImage, a pixel already owned raises
    OverlappingLeaves.  Each edge, in the given order: an unknown id
    raises CmcError, a self-loop or a shared pixel between the two
    candidates' pixel unions raises AdjacencyBetweenOverlapping, no
    4-neighbor pair between them raises NotAdjacent.  Assumes the id and
    children checks pass.  Returns the leaf label image.
    """
    cand_map = {c.id: c for c in candidates}

    def region(cid):
        cand = cand_map[cid]
        if not cand.children:
            return frozenset(pixels[cid])
        return frozenset().union(*(region(k) for k in cand.children))

    owner = {}
    for cid in sorted(i for i, c in cand_map.items() if not c.children):
        for (r, c) in pixels[cid]:
            if not (0 <= r < height and 0 <= c < width):
                raise LeavesDoNotCoverImage(f"pixel ({r}, {c}) of leaf {cid}")
            if (r, c) in owner:
                raise OverlappingLeaves(owner[(r, c)], cid)
            owner[(r, c)] = cid
    for i, j in adjacency:
        if i not in cand_map or j not in cand_map:
            raise CmcError(f"adjacency edge ({i}, {j}) references unknown id")
        if i == j:
            raise AdjacencyBetweenOverlapping(i, j)
        pa, pb = region(i), region(j)
        if not pa.isdisjoint(pb):
            raise AdjacencyBetweenOverlapping(i, j)
        if not ref_regions_touch(pa, pb):
            raise NotAdjacent()
    labels = np.full((height, width), UNCOVERED, dtype=np.int64)
    for (r, c), cid in owner.items():
        labels[r, c] = cid
    return labels


def ref_encode_pixels(pixels):
    """Run-length encode a pixel set row by row; col_end is exclusive."""
    rows = {}
    for (r, c) in pixels:
        rows.setdefault(r, []).append(c)
    runs = []
    for r in sorted(rows):
        cols = sorted(rows[r])
        start = prev = cols[0]
        for c in cols[1:]:
            if c == prev + 1:
                prev = c
                continue
            runs.append({"row": r, "col_start": start, "col_end": prev + 1})
            start = prev = c
        runs.append({"row": r, "col_start": start, "col_end": prev + 1})
    return runs


def ref_decode_pixels(runs):
    pixels = set()
    for run in runs:
        r = run["row"]
        for c in range(run["col_start"], run["col_end"]):
            pixels.add((r, c))
    return frozenset(pixels)


def ref_crag_json(pixels, candidates, adjacency, width, height):
    """crag.json object with each leaf's pixels encoded by ref_encode_pixels."""
    entries = []
    for cand in sorted(candidates, key=lambda c: c.id):
        entry = {"id": cand.id, "level": cand.level}
        if cand.children:
            entry["children"] = sorted(cand.children)
        else:
            entry["pixels"] = ref_encode_pixels(pixels[cand.id])
        entries.append(entry)
    return {
        "width": width,
        "height": height,
        "candidates": entries,
        "adjacency": [list(e) for e in adjacency],
    }


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


# (path into a forest's JSON, the value put there); the forest has 5
# features, and tree 0 splits at its root into nodes 1 and 2 and ends
# in a leaf
MALFORMED_FOREST = {
    "no trees": (("trees",), DELETE),
    "trees not a list": (("trees",), {}),
    "empty tree": (("trees", 0), []),
    "no tree at all": (("trees",), []),
    "fewer trees than n_trees": (("n_trees",), 3),
    "string n_features": (("n_features",), "5"),
    "boolean rng_seed": (("rng_seed",), True),
    "negative rng_seed": (("rng_seed",), -1),
    "node not an object": (("trees", 0, 0), 3),
    "split without threshold": (("trees", 0, 0, "threshold"), DELETE),
    "string threshold": (("trees", 0, 0, "threshold"), "0.5"),
    "feature out of range": (("trees", 0, 0, "feature"), 5),
    "child before parent": (("trees", 0, 0, "left"), 0),
    "child past the end": (("trees", 0, 0, "right"), 10**6),
    "child named twice by one split": (("trees", 0, 0, "right"), 1),
    "child of two splits": (("trees", 0), [
        {"feature": 0, "threshold": 0.5, "left": 1, "right": 2},
        {"feature": 1, "threshold": 0.5, "left": 2, "right": 3},
        {"prob": 0.0},
        {"prob": 1.0},
    ]),
    "node no split names": (("trees", 0), [
        {"feature": 0, "threshold": 0.5, "left": 1, "right": 2},
        {"prob": 0.0},
        {"prob": 1.0},
        {"prob": 1.0},
    ]),
    "leaf with a feature": (("trees", 0, -1, "feature"), 0),
    "NaN probability": (("trees", 0, -1, "prob"), float("nan")),
    "probability above 1": (("trees", 0, -1, "prob"), 1.5),
    "negative probability": (("trees", 0, -1, "prob"), -3.0),
}
