"""Shared test helpers: a small hand-built CRAG, random instances, a
literal enumeration oracle used to cross-check the solver, the previous
release's two-pass solver as a reference for its tie-break, and plain
per-pixel references for the array-based watershed, CRAG checks and
crag.json run-length encoding.

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

import numpy as np
from scipy import ndimage

from cmc.costmodel import CostTable
from cmc.errors import (
    AdjacencyBetweenOverlapping,
    CmcError,
    LeavesDoNotCoverImage,
    NotAdjacent,
    OverlappingLeaves,
)
from cmc.crag import (
    UNCOVERED,
    Candidate,
    Solution,
    build_crag,
    objective_value,
    validate_solution,
)
from cmc.solver import _build_rows, _forest, _State, separate_path_constraints

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
    subset = [(1, 5), (2, 5), (3, 6), (4, 6), (5, 7), (6, 7)]
    adjacency = [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        (3, 5), (4, 5), (1, 6), (2, 6), (5, 6),
    ]
    return build_crag(candidates, adjacency, subset, leaf_image(pix, 4, 4))


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
    return build_crag(candidates, adjacency, [], leaf_image(pixels, w, h))


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
    subset = []
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
        subset += [(a, next_id), (b, next_id)]
        next_id += 1

    for cid, kids in children.items():
        candidates.append(Candidate(cid, level[cid], children=kids))

    labels = leaf_image(pixels, w, h)
    crag0 = build_crag(candidates, [], subset, labels)
    valid = []
    for i, j in itertools.combinations(crag0.ids(), 2):
        pa, pb = pixels_of(crag0, i), pixels_of(crag0, j)
        if pa.isdisjoint(pb) and ref_regions_touch(pa, pb):
            valid.append((i, j))
    rng.shuffle(valid)
    keep = min(len(valid), budget - len(candidates))
    if keep and rng.random() < 0.3:
        keep = int(rng.integers(0, keep + 1))
    return build_crag(candidates, valid[:keep], subset, labels)


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
    subset = []
    next_id = max(roots) + 1
    for _ in range(int(rng.integers(0, len(roots)))):
        a, b = (roots.pop(int(rng.integers(len(roots)))) for _ in range(2))
        level[next_id] = 1 + max(level[a], level[b])
        candidates.append(
            Candidate(next_id, level[next_id], children=tuple(sorted((a, b))))
        )
        subset += [(a, next_id), (b, next_id)]
        roots.append(next_id)
        next_id += 1
    labels = leaf_image(pixels, w, h)
    crag0 = build_crag(candidates, [], subset, labels)
    region = {i: pixels_of(crag0, i) for i in crag0.ids()}
    adjacency = [
        (i, j)
        for i, j in itertools.combinations(crag0.ids(), 2)
        if region[i].isdisjoint(region[j]) and ref_regions_touch(region[i], region[j])
    ]
    return build_crag(candidates, adjacency, subset, labels)


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


def ref_check_leaves_and_edges(pixels, candidates, adjacency, width, height):
    """crag_from_json's leaf and build_crag's edge checks, done on pixel sets.

    `pixels` maps each leaf id to its (row, col) pairs.  Leaves in
    sorted id order, pixels one at a time: a pixel outside the image
    raises LeavesDoNotCoverImage, a pixel already owned raises
    OverlappingLeaves.  Each edge, in the given order: an unknown id
    raises CmcError, a self-loop or a shared pixel between the two
    candidates' pixel unions raises AdjacencyBetweenOverlapping, no
    4-neighbor pair between them raises NotAdjacent.  Assumes the id and
    subset checks pass.  Returns the leaf label image.
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


def ref_crag_json(pixels, candidates, adjacency, subset, width, height):
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
        "subset": sorted([c, p] for c, p in subset),
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

    Ties break on the (y bits, m bits) vector, matching the solver's
    lexicographic convention.
    """
    ids = crag.ids()
    edges = list(crag.adjacency)
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
        key = (objective_value(costs.f, costs.g, y, m), bits)
        if best is None or key < best[0]:
            best = (key, y, m)
    (obj, _), y, m = best
    return Solution(y=y, m=m, objective=obj)


# ---------------------------------------------------------------------------
# the previous release's two-pass solver: an optimizing branch-and-bound,
# then a second, index-ordered one that picks the lex-smallest optimum


def _ref_dfs(state, order, lex, ub):
    """DFS branch-and-bound; lex tries 0 first and returns the first
    leaf within ub, otherwise ub tightens at every improving leaf."""
    n = state.n
    best_obj, best_assign = None, None
    frames = []
    pos = 0
    at = {v: k for k, v in enumerate(order)}
    gapless = 1 + max((at[entry[0]] for entry in state.forest), default=-1)

    def over_budget(fpos):
        if state.bound > ub if lex else state.bound >= ub:
            return True
        if fpos + 1 >= gapless:
            return False
        return state.bound + state.forest_gap() > ub + state.tol

    def advance():
        nonlocal pos
        while frames:
            v, vals, mark, saved_bound, fpos = frames[-1]
            state.undo_to(mark, saved_bound)
            if vals:
                val = vals.pop(0)
                if state.propagate(v, val) and not over_budget(fpos):
                    pos = fpos
                    return True
                state.undo_to(mark, saved_bound)
            else:
                frames.pop()
        return False

    if over_budget(-1):
        return None, None
    while True:
        while pos < n and state.value[order[pos]] is not None:
            pos += 1
        if pos == n:
            best_obj, best_assign = state.bound, list(state.value)
            if lex:
                return best_obj, best_assign
            ub = best_obj
            if not advance():
                return best_obj, best_assign
            continue
        v = order[pos]
        vals = [1, 0] if (not lex and state.costs[v] < 0.0) else [0, 1]
        frames.append((v, vals, len(state.trail), state.bound, pos))
        if not advance():
            return best_obj, best_assign


def ref_two_pass(cvec, rows, fixed, forest):
    """(z*, x*, lex-min of S or None): the optimizing pass's objective
    (0.0 when nothing beats the empty assignment) and assignment, then
    the first leaf of an index-ordered pass within z*."""
    n = len(cvec)
    order = sorted(range(n), key=lambda v: (-abs(cvec[v]), v))
    obj, assign = _ref_dfs(_State(cvec, rows, fixed, forest), order, False, 0.0)
    if obj is None:
        obj, assign = 0.0, [0] * n
    _, lex = _ref_dfs(_State(cvec, rows, fixed, forest), list(range(n)), True, obj)
    return obj, assign, lex


def ref_lex_sum(cvec, rows, fixed, forest, x):
    """x's objective summed from a fresh state in index order, with
    propagation: the sum the index-ordered pass compares with z*."""
    state = _State(cvec, rows, fixed, forest)
    for v in range(state.n):
        if state.value[v] is None:
            assert state.propagate(v, x[v])
    return state.bound


def ref_solve(crag, costs, mode="full"):
    """solve() of the previous release, without a time limit."""
    ids = crag.ids()
    edges = list(crag.adjacency)
    var_y = {i: k for k, i in enumerate(ids)}
    var_m = {e: len(ids) + k for k, e in enumerate(edges)}
    cvec = [float(costs.f[i]) for i in ids] + [float(costs.g[e]) for e in edges]
    fixed = {}
    if mode == "merge_tree_only":
        fixed = {var_m[e]: 0 for e in edges}
    elif mode == "leaf_multicut_only":
        leaves = set(crag.leaves())
        fixed = {var_y[i]: 0 for i in ids if i not in leaves}
    forest = _forest(crag, var_y, var_m)
    pool = []
    iterations = 0
    while True:
        iterations += 1
        rows = _build_rows(crag, var_y, var_m, pool)
        _, assign, lex = ref_two_pass(cvec, rows, fixed, forest)
        if lex is not None:
            assign = lex
        y = {i: assign[v] for i, v in var_y.items()}
        m = {e: assign[v] for e, v in var_m.items()}
        sol = Solution(y=y, m=m, objective=objective_value(costs.f, costs.g, y, m))
        violations = separate_path_constraints(crag, sol)
        if not violations:
            sol.iterations = iterations
            return sol
        pool.extend(violations)
