"""Exact minimization of the joint selection/clustering program.

The outer loop solves the inner integer program (overlap, incidence,
and pooled path rows), separates violated path constraints on its
optimum, and re-solves until none remain.

Costs are summed exactly: solve turns them into ints on one common
power-of-two scale (_exact_costs), so every bound, leaf objective and
comparison below is exact and independent of the order of summation.
The inner program is solved by depth-first branch-and-bound with
constraint propagation (_dfs).  Its bound is the partial objective plus
every negative cost still open, less what the merge forest rules out
(_State.forest_gap).

Each round returns the lexicographically smallest (y, m) bit vector
among the feasible assignments whose exact cost sum is minimal.

- The optimizing pass tries variables in order of decreasing |cost|,
  each at its cost-reducing value first.  It keeps the first leaf of
  each strictly smaller sum as (z*, x*), and notes whether any other
  leaf sums to z*.  When none does, x* is the answer.
- Otherwise a walk fixes the variables in index order, from x* as the
  incumbent.  Where the incumbent has 0, the variable is fixed to 0.
  Where it has 1, a search with the variable at 0 looks for a leaf
  summing to z*, in cost order; one found becomes the incumbent.  Then
  the variable is fixed to the incumbent's value.

brute_force provides an independent oracle for small instances.
"""

import itertools
import math
import time

import numpy as np

from .crag import (
    PathConstraint,
    Solution,
    conflict_cliques,
    objective_value,
    path_violations,
    validate_solution,
)
from .errors import CmcError, InfeasibleSolution, KeyMismatch, TooLarge

MODES = ("full", "merge_tree_only", "leaf_multicut_only")
BRUTE_FORCE_LIMIT = 26


class _Timeout(Exception):
    """The deadline passed; `assign` is the assignment to fall back on."""

    def __init__(self, assign=None):
        self.assign = assign


class _Clock:
    """One solve's deadline, read once every 1024 ticks.

    A search ticks once when it starts and once per node.  Every search
    of the solve shares the one counter, so a round of many short
    searches reads the clock as often as one long search.
    """

    def __init__(self, time_limit):
        self.deadline = None
        if time_limit is not None:
            self.deadline = time.monotonic() + time_limit
        self.ticks = 0

    def tick(self):
        self.ticks += 1
        if (
            self.deadline is not None
            and (self.ticks & 1023) == 0
            and time.monotonic() > self.deadline
        ):
            raise _Timeout()


class _State:
    """Assignment trail over binary variables with <=-row propagation.

    Rows carry integer coefficients and bounds, and costs are ints
    (_exact_costs), so slack and bound bookkeeping is exact.  The
    objective bound (partial objective plus sum of negative costs of
    unassigned variables) is saved and restored at decision points.
    `forest` (from _forest) lets forest_gap tighten that bound.  `order`
    is the branching order of every search (_dfs).
    """

    def __init__(self, costs, rows, fixed, forest):
        self.costs = costs
        self.n = len(costs)
        # per row its (variable, coefficient) terms; per variable its
        # (row, slack used at 0, slack used at 1)
        self.terms = [tuple(cmap.items()) for cmap, _ in rows]
        self.var_rows = [[] for _ in range(self.n)]
        for ridx, (cmap, _) in enumerate(rows):
            for v, a in cmap.items():
                self.var_rows[v].append((ridx, max(-a, 0), max(a, 0)))
        self.value = [None] * self.n
        self.slack = [
            bound - sum(a for a in cmap.values() if a < 0) for cmap, bound in rows
        ]
        self.bound = sum(c for c in costs if c < 0)
        self.trail = []
        queue = []
        for v, val in sorted(fixed.items()):
            if not self._set(v, val, queue):
                raise CmcError("mode restriction is infeasible")
        if not self._drain(queue):
            raise CmcError("mode restriction is infeasible")
        self.forest, self.forest_roots = self._free_forest(forest)
        # the branching order: decreasing |cost|, then index.  Once the
        # variable at order[gapless - 1] is set, every selection in the
        # forest is set and forest_gap is 0.
        self.order = sorted(range(self.n), key=lambda v: (-abs(costs[v]), v))
        at = {v: k for k, v in enumerate(self.order)}
        self.gapless = 1 + max((at[entry[0]] for entry in self.forest), default=-1)

    def _set(self, v, val, queue):
        if self.value[v] is not None:
            return self.value[v] == val
        self.value[v] = val
        self.trail.append(v)
        c = self.costs[v]
        self.bound += max(c, 0) if val else max(-c, 0)
        for r, used0, used1 in self.var_rows[v]:
            delta = used1 if val else used0
            if delta:
                self.slack[r] -= delta
                if self.slack[r] < 0:
                    return False
                queue.append(r)
        return True

    def _force_row(self, r, queue):
        for u, a in self.terms[r]:
            if self.value[u] is not None:
                continue
            s = self.slack[r]
            if a > s:
                if not self._set(u, 0, queue):
                    return False
            elif -a > s:
                if not self._set(u, 1, queue):
                    return False
        return True

    def _drain(self, queue):
        while queue:
            if not self._force_row(queue.pop(), queue):
                return False
        return True

    def propagate(self, v, val):
        queue = []
        return self._set(v, val, queue) and self._drain(queue)

    def _free_forest(self, forest):
        """`forest` cut down to its free selections and free rewards.

        An entry whose selection is already fixed hands its place in its
        parent to its children's entries, which is what forest_gap would
        do with it at every node; merges that are fixed or cost nothing
        to take are dropped, as they never change the gap.
        """
        entries, roots = forest
        value, costs = self.value, self.costs
        kept, stands_for = [], []
        for y, children, merges in entries:
            below = tuple(k for c in children for k in stands_for[c])
            if value[y] is None:
                rewards = tuple(
                    v for v in merges if value[v] is None and costs[v] < 0
                )
                kept.append((y, below, rewards))
                stands_for.append((len(kept) - 1,))
            else:
                stands_for.append(below)
        roots = [k for r in roots for k in stands_for[r]]
        # a childless root adds nothing: with c_y < 0 it takes as much as
        # it gains, and with c_y >= 0 and no rewards it takes nothing
        idle = {
            k
            for k in roots
            if not kept[k][1] and (costs[kept[k][0]] < 0 or not kept[k][2])
        }
        entries, index = [], {}
        for k, (y, below, rewards) in enumerate(kept):
            if k not in idle:
                index[k] = len(entries)
                entries.append((y, tuple(index[b] for b in below), rewards))
        return tuple(entries), tuple(index[k] for k in roots if k not in idle)

    def forest_gap(self):
        """How far `bound` lies below a bound that respects the forest.

        `bound` counts every negative cost of an unassigned variable as
        taken.  But at most one selection per root-to-leaf path of the
        merge forest holds, and a merge needs the candidate that owns its
        edge selected, so the free selections can gain at most the best
        antichain of max(0, -(c_y + their owned negative merge costs)).
        The gap is what `bound` takes beyond that antichain; it is >= 0.
        """
        value, costs = self.value, self.costs
        best = []
        taken = 0
        for y, below, rewards in self.forest:
            kids = 0
            for k in below:
                kids += best[k]
            if value[y] is None:
                c = costs[y]
                gain = -c if c < 0 else 0
                for v in rewards:
                    if value[v] is None:
                        c += costs[v]
                        gain -= costs[v]
                taken += gain
                best.append(-c if -c > kids else kids)
            else:
                best.append(kids)
        for k in self.forest_roots:
            taken -= best[k]
        return taken

    def undo_to(self, mark, saved_bound):
        while len(self.trail) > mark:
            v = self.trail.pop()
            val = self.value[v]
            self.value[v] = None
            for r, used0, used1 in self.var_rows[v]:
                delta = used1 if val else used0
                if delta:
                    self.slack[r] += delta
        self.bound = saved_bound


def _dfs(state, limit, clock, leaf):
    """Iterative DFS branch-and-bound below the state as given.

    Branches in state.order, on each variable's cost-reducing value
    first, and cuts a subtree when its bound, or its bound plus forest
    gap, exceeds `limit`, which leaves no leaf within limit.  Calls
    leaf() at every leaf reached, with the state at that leaf; leaf
    returns the limit to go on with, or None to stop there.  The state
    is left at that leaf, or as given once the search is done.
    clock.tick() raises _Timeout when the deadline has passed.
    """
    n, order, gapless = state.n, state.order, state.gapless
    tick = clock.tick if clock is not None else lambda: None
    frames = []
    pos = 0

    def over_budget(fpos):
        if state.bound > limit:
            return True
        if fpos + 1 >= gapless:
            return False
        return state.bound + state.forest_gap() > limit

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

    tick()
    if over_budget(-1):
        return
    while True:
        tick()
        while pos < n and state.value[order[pos]] is not None:
            pos += 1
        if pos == n:
            limit = leaf()
            if limit is None or not advance():
                return
            continue
        v = order[pos]
        vals = [1, 0] if state.costs[v] < 0 else [0, 1]
        frames.append((v, vals, len(state.trail), state.bound, pos))
        if not advance():
            return


def _first_leaf(state, z, clock):
    """The first leaf of cost <= z below `state` in cost order, or None.

    `state` is left as given.
    """
    found = None

    def stop():
        nonlocal found
        found = list(state.value)

    mark, saved_bound = len(state.trail), state.bound
    _dfs(state, z, clock, stop)
    state.undo_to(mark, saved_bound)
    return found


def _check_costs(crag, costs, ids, edges):
    if set(costs.f) != set(ids):
        raise KeyMismatch("f keys do not match the candidates")
    if set(costs.g) != set(edges):
        raise KeyMismatch("g keys do not match the adjacency edges")
    # NaN makes every bound comparison false, so no optimum would be meaningful
    for table in (costs.f, costs.g):
        for key, cost in table.items():
            if not math.isfinite(cost):
                raise CmcError(f"cost {cost!r} of {key} is not finite")


def _exact_costs(costs, ids, edges):
    """The costs in variable order (ids, then edges) as ints.

    A finite float is p / 2**k for ints p and k >= 0, so scaling every
    cost by the largest 2**k among them is exact: sums and comparisons
    of the ints are those of the real costs, in any order.
    """
    values = [float(costs.f[i]) for i in ids] + [float(costs.g[e]) for e in edges]
    ratios = [v.as_integer_ratio() for v in values]
    scale = max((q for _, q in ratios), default=1)
    return [p * (scale // q) for p, q in ratios]


def _build_rows(crag, var_y, var_m, pool):
    rows = []
    for clique in conflict_cliques(crag):
        if len(clique) > 1:
            rows.append(({var_y[i]: 1 for i in sorted(clique)}, 1))
    for e in crag.adjacency:
        rows.append(({var_m[e]: 2, var_y[e[0]]: -1, var_y[e[1]]: -1}, 0))
    for pc in pool:
        cmap = {var_m[e]: 1 for e in pc.path}
        cmap[var_m[pc.bypassed_edge]] = -1
        rows.append((cmap, len(pc.path) - 1))
    return rows


def _solve_ilp(costs, rows, fixed, forest, clock):
    """The lex-smallest feasible assignment of least cost (module docstring).

    `costs` are ints (_exact_costs).  Raises _Timeout carrying the
    optimizing pass's best assignment so far (None before the first)
    when the clock runs out.
    """
    n = len(costs)
    state = _State(costs, rows, fixed, forest)
    # The optimizing pass keeps the first leaf of each strictly smaller
    # cost, as a pass cutting at bound >= ub would, and `near`, the
    # smallest cost of any other leaf.  Until some other leaf ties ub, it
    # cuts only above ub, so it cannot miss a tie of the incumbent; once
    # one does, it cuts at bound >= ub.  near starts at the empty
    # assignment's 0, so an optimum of 0 always walks.
    ub, best, near = 0, None, 0

    def improve():
        nonlocal ub, best, near
        if state.bound < ub:
            near = min(near, ub)
            ub, best = state.bound, list(state.value)
        else:
            near = min(near, state.bound)
        return ub - 1 if near == ub else ub

    try:
        _dfs(state, -1, clock, improve)
        x = best if best is not None else [0] * n
        if near > ub:
            return x
        # walk; the finished pass left `state` at the root
        for v in range(n):
            if state.value[v] is not None:
                continue
            if x[v]:
                mark, saved_bound = len(state.trail), state.bound
                if state.propagate(v, 0):
                    x = _first_leaf(state, ub, clock) or x
                state.undo_to(mark, saved_bound)
            state.propagate(v, x[v])
        return x
    except _Timeout:
        raise _Timeout(best) from None


def separate_path_constraints(crag, solution):
    """One shortest violated path per unselected-but-connected edge."""
    return [
        PathConstraint(path=path, bypassed_edge=e)
        for e, path in path_violations(crag, solution)
    ]


def _assignment_to_solution(crag, costs, assign, var_y, var_m):
    y = {i: assign[v] for i, v in var_y.items()}
    m = {e: assign[v] for e, v in var_m.items()}
    return Solution(y=y, m=m, objective=objective_value(costs.f, costs.g, y, m))


def solve(crag, costs, mode="full", time_limit=None):
    """Global optimum of the selection/clustering objective.

    Cutting-plane outer loop: solve with the pooled path constraints,
    separate violations on the optimum, add them, re-solve; done when
    none remain.  merge_tree_only pins every merge indicator to 0;
    leaf_multicut_only pins selection to 0 for non-leaves (leaf
    selection stays free).  time_limit is None (no limit) or a finite
    number of seconds >= 0; anything else raises CmcError.  On timeout
    the best feasible assignment found (possibly all-zero) is returned
    with optimal=False.
    """
    if mode not in MODES:
        raise CmcError(f"unknown mode {mode!r}")
    if time_limit is not None:
        try:
            limit = float(time_limit)
        except (TypeError, ValueError):
            limit = math.nan
        # a NaN deadline would never pass
        if not 0.0 <= limit < math.inf:
            raise CmcError(
                f"time limit must be a finite number >= 0, got {time_limit!r}"
            )
        time_limit = limit
    ids = crag.ids()
    edges = list(crag.adjacency)
    _check_costs(crag, costs, ids, edges)
    var_y = {i: k for k, i in enumerate(ids)}
    var_m = {e: len(ids) + k for k, e in enumerate(edges)}
    cvec = _exact_costs(costs, ids, edges)

    fixed = {}
    if mode == "merge_tree_only":
        fixed = {var_m[e]: 0 for e in edges}
    elif mode == "leaf_multicut_only":
        leaves = set(crag.leaves())
        fixed = {var_y[i]: 0 for i in ids if i not in leaves}

    forest = _forest(crag, var_y, var_m)
    clock = _Clock(time_limit)
    pool = []
    iterations = 0
    while True:
        iterations += 1
        rows = _build_rows(crag, var_y, var_m, pool)
        try:
            assign = _solve_ilp(cvec, rows, fixed, forest, clock)
        except _Timeout as exc:
            sol = _timeout_fallback(crag, costs, exc.assign, var_y, var_m)
            sol.iterations = iterations
            return sol
        sol = _assignment_to_solution(crag, costs, assign, var_y, var_m)
        violations = separate_path_constraints(crag, sol)
        if not violations:
            sol.iterations = iterations
            return sol
        pool.extend(violations)


def _forest(crag, var_y, var_m):
    """The merge forest for _State.forest_gap: (entries, roots).

    entries lists (y, child entries, owned merges) in post-order, where
    y is a candidate's selection variable and an edge's merge variable
    is owned by its first candidate; roots indexes the root entries.
    """
    owned = {i: [] for i in var_y}
    for e, v in var_m.items():
        owned[e[0]].append(v)
    entries, index = [], {}
    roots = crag.roots()
    stack = [(r, False) for r in reversed(roots)]
    while stack:
        cid, children_done = stack.pop()
        children = crag.candidates[cid].children
        if not children_done:
            stack.append((cid, True))
            stack.extend((c, False) for c in reversed(children))
            continue
        index[cid] = len(entries)
        entries.append(
            (var_y[cid], tuple(index[c] for c in children), tuple(owned[cid]))
        )
    return tuple(entries), tuple(index[r] for r in roots)


def _timeout_fallback(crag, costs, assign, var_y, var_m):
    """The round's incumbent if it is feasible, else the empty assignment.

    An incumbent costs less than the empty assignment's 0 (exactly).
    """
    sol = None
    if assign is not None:
        sol = _assignment_to_solution(crag, costs, assign, var_y, var_m)
        if validate_solution(crag, sol):
            sol = None
    if sol is None:
        sol = Solution(
            y={i: 0 for i in var_y},
            m={e: 0 for e in var_m},
            objective=0.0,
        )
    sol.optimal = False
    return sol


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


def brute_force(crag, costs, mode="full"):
    """Oracle: exhaustive minimum over all feasible assignments.

    Selection vectors are enumerated directly (pruned by the conflict
    cliques); for each one, the feasible merge assignments are exactly
    the partitions of the selected subgraph into connected parts, with
    every within-part edge merged.  The answer is the lexicographically
    smallest (y, m) bit vector among those of least exact cost sum.
    """
    if mode not in MODES:
        raise CmcError(f"unknown mode {mode!r}")
    ids = crag.ids()
    edges = list(crag.adjacency)
    _check_costs(crag, costs, ids, edges)
    n = len(ids) + len(edges)
    if n > BRUTE_FORCE_LIMIT:
        raise TooLarge(n, BRUTE_FORCE_LIMIT)

    exact = _exact_costs(costs, ids, edges)
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


def extract_segmentation(crag, solution):
    """Label image of the solution's connected selected groups.

    Components of (selected candidates, merged edges) get labels 1..C,
    ordered by their smallest pixel in row-major order; everything else
    is 0.
    """
    violations = validate_solution(crag, solution)
    if violations:
        raise InfeasibleSolution(violations)
    group = solution.merged_groups([i for i in crag.ids() if solution.y[i]])

    # component root + 1 per leaf id; the extra last slot (indexed by
    # UNCOVERED) and unselected leaves stay 0
    leaf_labels = crag.leaf_labels()
    root_of_leaf = np.zeros(max(crag.leaves(), default=-1) + 2, dtype=np.int64)
    for i, root in group.items():
        root_of_leaf[list(crag.leaves_under(i))] = root + 1
    roots = root_of_leaf[leaf_labels].ravel()
    # number components by their first pixel in row-major order
    found, first = np.unique(roots, return_index=True)
    found, first = found[found > 0], first[found > 0]
    relabel = np.zeros(int(found.max(initial=0)) + 1, dtype=np.int64)
    relabel[found[np.argsort(first)]] = np.arange(1, len(found) + 1)
    return relabel[roots].reshape(leaf_labels.shape)
