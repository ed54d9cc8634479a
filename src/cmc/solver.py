"""Exact minimization of the joint selection/clustering program.

The path constraints are too many to state, so they are separated
lazily inside one search (branch-and-cut, _dfs): every leaf the search
reaches is checked for violated paths.  A leaf without any becomes the
incumbent; a leaf with some adds their clauses to the search state
where it stands, is turned down, and the search backtracks until the
new clauses can hold again.

Costs are summed exactly: solve turns them into ints on one common
power-of-two scale (_exact_costs), so every bound, leaf objective and
comparison below is exact and independent of the order of summation.
The program is solved by depth-first branch-and-bound with unit
propagation (_dfs).  Its bound is the partial objective plus every
negative cost still open.  The search branches first on the variables
whose decision weighs most: by decreasing |cost| times one plus the
number of variables that setting it to 1 forces (_State), so a
selection that deselects a large subtree, or a merge that selects both
its ends, is decided early and the plain bound tightens fast.

The overlap and incidence constraints only ever force one literal from
another, so they propagate as implication lists (_implications) with no
slack to keep.  Each separated path cut is a clause (_path_rows), one of
whose literals must hold; the clauses are the only rows with slack.

Each mode is searched over its own variables (_build): full over every
selection and merge, merge_tree_only over the selections alone, and
leaf_multicut_only over the leaf selections and the merges of edges
between two leaves.  Every other y and m is 0 in the mode, so no
variable is pinned, and n below is the mode's variable count.

The solve returns the lexicographically smallest (y, m) bit vector
among the feasible assignments whose exact cost sum is minimal, which is
the one feasible assignment of least lexed sum, the sum over its n
variables of x_v * (c_v * 2**n + 2**(n - 1 - v)) (_lexed, _dfs).
The mode's variables keep their order in (y, m), and the rest are 0 in
every assignment of the mode, so the lex order over the mode's variables
is that of the full (y, m) vector.  Every incumbent is feasible, and
clauses only ever cut off infeasible assignments, so the search is exact
over the whole program.

Before searching, the solve reduces the program and splits it (_split).
The rule: y_i is fixed to 0 while lexed f_i plus the lexed g of every
attractive merge at i whose other end is not fixed is > 0.  Any
assignment with y_i = 1 stays feasible with y_i and every merge at i
set to 0 (no path row gains a merged path), and that lowers its lexed
sum by at least this sum, so no optimum selects i.  (This is the
simplest persistency criterion for multicut-like programs: Lange,
Andres & Swoboda, CVPR 2019.)  The rest falls into
parts: a candidate is linked to its nearest ancestor that is not fixed,
which it overlaps, and the ends of every attractive merge are linked.
A merge of g >= 0 between two parts is 0 in every optimum, since
unmerging it keeps every merged group connected within its part and
lowers the lexed sum.  So the lexed sum is a sum over parts, each
part's rows hold its variables alone, and the answer is each part's
own answer, 0 elsewhere.  One search runs per part (_part_state, _dfs)
over the part's variables in their global order, with the lexed costs
of the whole mode.  All parts share one _Clock, and a part that stops
at it ends the solve: no later part is searched.  A solution's
iterations is 1 plus the leaves that all the parts' searches turned
down for the path cuts they break.
"""

import math
import time

import numpy as np

from .crag import (  # MODES stays importable from here, as cmc.solver.MODES
    MODES,
    PathConstraint,
    Solution,
    objective_value,
    param_value,
    path_violations,
    validate_solution,
)
from .errors import CmcError, InfeasibleSolution, KeyMismatch


class _Clock:
    """One solve's deadline, read once every 1024 ticks.

    Each part's search ticks once when it starts and once per node, and
    stops at the first tick that returns True; the solve then searches
    no later part.
    """

    def __init__(self, time_limit):
        self.deadline = None
        if time_limit is not None:
            self.deadline = time.monotonic() + time_limit
        self.ticks = 0

    def tick(self):
        """Count a tick; True once the deadline has passed."""
        self.ticks += 1
        return (
            self.deadline is not None
            and (self.ticks & 1023) == 0
            and time.monotonic() > self.deadline
        )


class _State:
    """Assignment trail over binary variables with unit propagation.

    The overlap and incidence constraints propagate as implications
    (_implications): implied[val][v] is (value, variables), every one of
    the variables forced to value once v is set to val.  The path cuts
    are clauses (_path_rows), tuples of literals (v, val) one of which
    must hold, and are the only rows.  A clause's slack is its count of
    literals not yet false, less one: setting v to val charges 1 to
    every clause with the literal (v, 1 - val), undo_to refunds the same
    clauses, and at slack 0 the one literal left that is not false must
    hold.  Costs are ints (the lexed costs of solve), so all bookkeeping
    is exact.

    The objective bound (partial objective plus sum of negative costs of
    unassigned variables) is saved and restored at decision points.
    `order` is the branching order of the search (_dfs): decreasing
    |cost| * (1 + the count of variables that v = 1 forces), ties by
    variable number.  The search appends the clauses it separates
    wherever it stands (add_rows).
    """

    def __init__(self, costs, implied):
        self.costs = costs
        self.n = len(costs)
        self.implied = implied
        # per clause its literals and its slack; per value and variable
        # the clauses that setting the variable to the value charges
        self.clauses = []
        self.slack = []
        self.charges = ([[] for _ in costs], [[] for _ in costs])
        self.value = [None] * self.n
        self.bound = sum(c for c in costs if c < 0)
        # what setting a variable to 0 or to 1 adds to the bound
        self.raise_by = (
            [-c if c < 0 else 0 for c in costs],
            [c if c > 0 else 0 for c in costs],
        )
        self.trail = []
        weight = [-abs(c) * (1 + len(implied[1][v][1])) for v, c in enumerate(costs)]
        self.order = sorted(range(self.n), key=weight.__getitem__)

    def add_rows(self, clauses):
        """Append clauses where the state stands.

        Each new clause is charged for the literals already false, so
        its slack may be negative, and undo_to refunds it like any other
        clause.  Nothing is propagated: a clause that breaks or forces
        is met when the search sets its variables again (_dfs).
        """
        value, charges = self.value, self.charges
        for r, clause in enumerate(clauses, len(self.slack)):
            slack = -1
            for v, val in clause:
                charges[1 - val][v].append(r)
                if value[v] != 1 - val:
                    slack += 1
            self.clauses.append(clause)
            self.slack.append(slack)

    def _set(self, v, val, queue):
        """v := val on a free v: charge its clauses, queue it for _drain.

        Every clause of v is charged, so undo_to refunds exactly what was
        charged.  Returns False when a clause's slack falls below 0.
        """
        self.value[v] = val
        self.trail.append(v)
        self.bound += self.raise_by[val][v]
        queue.append(v)
        ok = True
        slack = self.slack
        for r in self.charges[val][v]:
            slack[r] -= 1
            if slack[r] < 0:
                ok = False
        return ok

    def _drain(self, queue):
        """Unit propagation from the queued variables; False on a conflict."""
        value, implied, charges = self.value, self.implied, self.charges
        trail, raise_by, slack = self.trail, self.raise_by, self.slack
        while queue:
            v = queue.pop()
            val = value[v]
            to, targets = implied[val][v]
            for u in targets:
                have = value[u]
                if have is None:
                    if charges[to][u]:
                        if not self._set(u, to, queue):
                            return False
                    else:  # _set without clauses to charge or to force
                        value[u] = to
                        trail.append(u)
                        self.bound += raise_by[to][u]
                        if implied[to][u][1]:
                            queue.append(u)
                elif have != to:
                    return False
            for r in charges[val][v]:
                if slack[r] == 0:
                    # the one literal that is not false must hold
                    for u, to in self.clauses[r]:
                        if value[u] is None:
                            if not self._set(u, to, queue):
                                return False
                            break
        return True

    def propagate(self, v, val):
        """Set the free v to val and all it forces; False on a conflict."""
        queue = []
        return self._set(v, val, queue) and self._drain(queue)

    def undo_to(self, mark, saved_bound):
        value, slack, charges = self.value, self.slack, self.charges
        trail = self.trail
        for v in trail[mark:]:
            for r in charges[value[v]][v]:
                slack[r] += 1
            value[v] = None
        del trail[mark:]
        self.bound = saved_bound


def _dfs(state, clock, cuts):
    """The lex-smallest feasible assignment of least cost (module
    docstring), by iterative DFS branch-and-bound below the state.

    `state` holds the lexed costs (_lexed).  The search branches in
    state.order (_State), on each variable's cost-reducing value first,
    and cuts a subtree when its bound exceeds the limit: one below the
    incumbent's lexed sum, and -1 before the first, whose place the
    empty assignment of sum 0 holds.  At every leaf it
    reaches, cuts(state.value) returns the clauses that the leaf breaks
    (_path_rows).  With none the leaf becomes the incumbent.  Otherwise
    the clauses join the state (_State.add_rows), the leaf is turned
    down, and the search backtracks past every frame whose undo still
    leaves one of them below 0 slack, since no completion of such a
    frame holds.

    Returns (assignment, optimal): the last incumbent, or the empty
    assignment, and True once the search is done, which leaves the
    state as given plus the clauses; the incumbent so far and False at
    the first clock.tick() that reports the deadline passed, which
    leaves the state where the search stood.
    """
    n, order = state.n, state.order
    slack = state.slack
    best = [0] * n
    limit = -1
    frames = []
    pos = 0
    # the clauses the last leaf added, until every one of them holds again
    broken = ()

    def advance():
        nonlocal pos, broken
        while frames:
            v, vals, mark, saved_bound, fpos = frames[-1]
            state.undo_to(mark, saved_bound)
            if broken:
                if any(slack[r] < 0 for r in broken):
                    frames.pop()
                    continue
                broken = ()
            if vals:
                val = vals.pop(0)
                if state.propagate(v, val) and state.bound <= limit:
                    pos = fpos
                    return True
                state.undo_to(mark, saved_bound)
            else:
                frames.pop()
        return False

    if clock.tick():
        return best, False
    if state.bound > limit:
        return best, True
    while True:
        if clock.tick():
            return best, False
        while pos < n and state.value[order[pos]] is not None:
            pos += 1
        if pos == n:
            clauses = cuts(state.value)
            if clauses:
                broken = range(len(slack), len(slack) + len(clauses))
                state.add_rows(clauses)
            else:
                best = list(state.value)
                limit = state.bound - 1
            if not advance():
                return best, True
            continue
        v = order[pos]
        vals = [1, 0] if state.costs[v] < 0 else [0, 1]
        frames.append((v, vals, len(state.trail), state.bound, pos))
        if not advance():
            return best, True


def _check_costs(costs, ids, edges):
    if set(costs.f) != set(ids):
        raise KeyMismatch("f keys do not match the candidates")
    if set(costs.g) != set(edges):
        raise KeyMismatch("g keys do not match the adjacency edges")
    # _exact_costs needs finite floats: NaN and infinities have no ratio
    for table in (costs.f, costs.g):
        for key, cost in table.items():
            try:
                finite = math.isfinite(cost)
            except (TypeError, OverflowError):  # no number, or an int past float
                finite = False
            if not finite:
                # repr of an int past 4300 digits would raise
                shown = repr(cost) if isinstance(cost, float) else type(cost).__name__
                raise CmcError(f"cost of {key} is not a finite number: {shown}")


def _exact_costs(costs, ids, edges):
    """The costs in variable order (ids, then edges) as ints.

    A finite float is p / 2**k for ints p and k >= 0, so scaling every
    cost by the largest 2**k among them is exact: sums and comparisons
    of the ints are those of the real costs, in any order.
    """
    values = [float(costs.f[i]) for i in ids] + [float(costs.g[e]) for e in edges]
    ratios = [v.as_integer_ratio() for v in values]
    # every q is a power of two, so p * (scale // q) is a shift
    top = max((q.bit_length() for _, q in ratios), default=1)
    return [p << (top - q.bit_length()) for p, q in ratios]


def _implications(crag, tops, var_y, var_m):
    """The overlap and incidence constraints as implied literals.

    implied[val][v] is (value, variables): v = val forces each of the
    variables to value.  y_a = 1 forces 0 on every candidate that
    overlaps a, that is every ancestor and descendant of a, with which
    it shares a conflict clique (sum of y <= 1 over the clique); y_i = 0
    forces 0 on the merge of every edge at i, and m_e = 1 forces 1 on
    both its ends (2 m_e <= y_i + y_j).  These are all the literals that
    the rows force, so y_i = 1 and m_e = 0 force nothing.  Candidates
    without a variable are 0 and left out.  The walk covers the
    subtrees of `tops`, which hold every candidate of var_y.
    """
    n = len(var_y) + len(var_m)
    mates = {v: [] for v in var_y.values()}
    # (candidate, the variables of its ancestors)
    stack = [(r, ()) for r in tops]
    while stack:
        cid, above = stack.pop()
        v = var_y.get(cid)
        if v is not None:
            for u in above:
                mates[u].append(v)
                mates[v].append(u)
            above += (v,)
        stack.extend((c, above) for c in crag.candidates[cid].children)
    merges_at = {v: [] for v in var_y.values()}
    implied = ([(0, ())] * n, [(0, ())] * n)
    for (i, j), m in var_m.items():
        merges_at[var_y[i]].append(m)
        merges_at[var_y[j]].append(m)
        implied[1][m] = (1, (var_y[i], var_y[j]))
    for v, others in mates.items():
        implied[1][v] = (0, tuple(sorted(others)))
        implied[0][v] = (0, tuple(merges_at[v]))
    return implied


def _build(crag, costs, mode):
    """The mode's variables and their exact costs.

    Returns (var_y, var_m, exact).  var_y numbers the mode's selections
    and var_m, after them, its merges, each in the order of crag.ids()
    and crag.adjacency: every selection and merge in full, every
    selection in merge_tree_only, and in leaf_multicut_only the leaf
    selections and the merges of edges between two leaves.  exact holds
    their costs as ints on one scale (_exact_costs), by variable.
    """
    ids, edges = crag.ids(), list(crag.adjacency)
    if mode == "merge_tree_only":
        edges = []
    elif mode == "leaf_multicut_only":
        leaves = set(crag.leaves())
        ids = [i for i in ids if i in leaves]
        edges = [e for e in edges if e[0] in leaves and e[1] in leaves]
    var_y = {i: k for k, i in enumerate(ids)}
    var_m = {e: len(ids) + k for k, e in enumerate(edges)}
    return var_y, var_m, _exact_costs(costs, ids, edges)


def _split(crag, var_y, var_m, exact):
    """The parts of the mode's program that the rule leaves (module
    docstring), each as (tops, ids, edges).

    The rule runs to its fixpoint on the exact costs of the whole mode.
    A lexed sum is (its cost sum << n) plus its tie weights, which sum
    to more than 0 and less than 2**n (_lexed), so it is > 0 exactly
    when its cost sum is >= 0, and a lexed merge cost is < 0 exactly
    when the merge's cost is.  ids and edges are a part's candidates
    and merges, in the order of var_y and var_m; tops lists, in
    depth-first order from the roots, those of its candidates that have
    no ancestor in it, and every other one lies below one of them.
    Parts come in the order of their first candidate.  Every other
    variable, a fixed selection or a merge at a fixed candidate or
    between two parts, is 0 in the answer.  Each part's search then
    branches in the order of _State.
    """
    n_y = len(var_y)
    # per selection: its cost plus that of every attractive merge at it
    # whose other end is not fixed, and its links, first (other end,
    # cost) per attractive merge
    total = exact[:n_y]
    links = [[] for _ in range(n_y)]
    for (i, j), m in var_m.items():
        c = exact[m]
        if c < 0:
            a, b = var_y[i], var_y[j]
            total[a] += c
            total[b] += c
            links[a].append((b, c))
            links[b].append((a, c))
    fixed = [False] * n_y
    todo = [v for v in range(n_y) if total[v] >= 0]
    while todo:
        v = todo.pop()
        if not fixed[v]:
            fixed[v] = True
            for u, c in links[v]:
                if not fixed[u]:
                    total[u] -= c
                    if total[u] >= 0:
                        todo.append(u)

    # link each candidate to its nearest ancestor that is not fixed,
    # from the roots down: (candidate, that ancestor's selection or None)
    tops = []
    stack = [(r, None) for r in reversed(crag.roots())]
    while stack:
        cid, above = stack.pop()
        v = var_y.get(cid)
        if v is not None and not fixed[v]:
            if above is None:
                tops.append(cid)
            else:
                links[v].append((above, 0))
                links[above].append((v, 0))
            above = v
        stack.extend((c, above) for c in reversed(crag.candidates[cid].children))
    # the parts: the linked components of the selections not fixed
    part_of = [None] * n_y
    parts = []
    for v in range(n_y):
        if not fixed[v] and part_of[v] is None:
            part_of[v] = len(parts)
            queue = [v]
            for x in queue:
                for u, _ in links[x]:
                    if not fixed[u] and part_of[u] is None:
                        part_of[u] = len(parts)
                        queue.append(u)
            parts.append(([], [], []))
    for i, v in var_y.items():
        if part_of[v] is not None:
            parts[part_of[v]][1].append(i)
    for cid in tops:
        parts[part_of[var_y[cid]]][0].append(cid)
    for e in var_m:
        k = part_of[var_y[e[0]]]
        if k is not None and k == part_of[var_y[e[1]]]:
            parts[k][2].append(e)
    return parts


def _part_state(crag, var_y, var_m, exact, part):
    """The search state of one part (tops, ids, edges), at its root.

    Returns (state, part_y, part_m): part_y numbers the part's
    selections and part_m, after them, its merges, in their order in
    the mode.  The state holds their lexed costs under the tie weights
    of the whole mode (_lexed) and their implications (_implications),
    from the subtrees of the part's tops.
    """
    tops, ids, edges = part
    part_y = {i: k for k, i in enumerate(ids)}
    part_m = {e: len(ids) + k for k, e in enumerate(edges)}
    variables = [var_y[i] for i in ids] + [var_m[e] for e in edges]
    costs = _lexed(exact, variables)
    return _State(costs, _implications(crag, tops, part_y, part_m)), part_y, part_m


def _path_rows(cuts, var_m):
    """Each path cut as a clause: a merge along the path is 0, or the
    bypassed edge's is 1."""
    return [
        tuple((var_m[e], 0) for e in pc.path) + ((var_m[pc.bypassed_edge], 1),)
        for pc in cuts
    ]


def _lexed(exact, variables):
    """The exact int costs of `variables`, of the n in `exact`, with the
    lex tie-break folded in (module docstring): the weights
    2**(n - 1 - v) sum to less than one unit of c << n, so they only
    break ties, and a smaller weight sum is a lex-smaller x."""
    n = len(exact)
    return [(exact[v] << n) + (1 << (n - 1 - v)) for v in variables]


def _joins_an_unmerged_edge(value, ends):
    """Whether the merged edges of a complete assignment join the ends of
    an unmerged edge, which breaks a path cut.

    The merge variables are the last len(ends) of `value`, and ends
    holds the selection variables at the ends of each.  The groups are
    kept in a union-find over the selection variables.
    """
    first = len(value) - len(ends)
    merged = value[first:]
    group = list(range(first))

    def find(x):
        while group[x] != x:
            group[x] = group[group[x]]
            x = group[x]
        return x

    for (a, b), x in zip(ends, merged):
        if x:
            group[find(a)] = find(b)
    return any(not x and find(a) == find(b) for (a, b), x in zip(ends, merged))


def separate_path_constraints(crag, solution):
    """One shortest violated path per unselected-but-connected edge."""
    return [
        PathConstraint(path=path, bypassed_edge=e)
        for e, path in path_violations(crag, solution)
    ]


def solve(crag, costs, mode="full", time_limit=None):
    """Global optimum of the selection/clustering objective.

    The mode's program (_build) is reduced and split into parts
    (_split, module docstring), and each part gets one branch-and-cut
    search over its own variables (_part_state, _dfs), with path cuts
    separated at its leaves.  Every y and m outside the mode, fixed by
    the rule or between two parts is 0 in the answer without being a
    pinned variable.  Those are 0 in every optimum, each part keeps the
    (y, m) order of its variables and the lexed costs of the whole mode,
    so each part's lex-smallest optimum, put together, is the one over
    the full (y, m).  A graph of one part with nothing fixed is searched
    as one program.

    mode and time_limit (None: no limit) are checked by their rules in
    crag.PARAMS (param_value).  All parts share one clock.  Once a
    part's search stops at the time limit, it keeps its incumbent, the
    best feasible assignment it found (or its empty assignment), no
    later part is searched and keeps 0, and the answer comes back with
    optimal=False; an answer then that fails validate_solution raises
    InfeasibleSolution.  The solution's iterations is 1 plus the number
    of leaves that the parts' searches turned down for the path cuts
    they break.
    """
    mode = param_value("mode", mode)
    time_limit = param_value("time_limit", time_limit)
    _check_costs(costs, crag.ids(), list(crag.adjacency))
    var_y, var_m, exact = _build(crag, costs, mode)
    clock = _Clock(time_limit)
    y = dict.fromkeys(crag.ids(), 0)
    m = dict.fromkeys(crag.adjacency, 0)
    optimal, turned_down = True, 0
    for part in _split(crag, var_y, var_m, exact):
        state, part_y, part_m = _part_state(crag, var_y, var_m, exact, part)
        ends = [(part_y[i], part_y[j]) for i, j in part_m]

        def cuts(value):
            nonlocal turned_down
            if not _joins_an_unmerged_edge(value, ends):
                return []
            turned_down += 1
            # the leaf with 0 for every candidate and edge outside the
            # part; separation reads the ids and m alone, so no objective
            leaf = Solution(
                y={i: value[part_y[i]] if i in part_y else 0 for i in crag.ids()},
                m={e: value[part_m[e]] if e in part_m else 0 for e in crag.adjacency},
                objective=0.0,
            )
            return _path_rows(separate_path_constraints(crag, leaf), part_m)

        assign, optimal = _dfs(state, clock, cuts)
        y.update((i, assign[k]) for i, k in part_y.items())
        m.update((e, assign[k]) for e, k in part_m.items())
        if not optimal:
            break
    sol = Solution(y=y, m=m, objective=objective_value(costs.f, costs.g, y, m))
    sol.optimal, sol.iterations = optimal, 1 + turned_down
    if not optimal:
        # each incumbent passed the same path check at its leaf; a stop
        # must not hand on an assignment that fails the full check
        violations = validate_solution(crag, sol)
        if violations:
            raise InfeasibleSolution(violations)
    return sol


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

    # per leaf rank (Crag.leaf_ranks) its group's number from 1, or 0 if
    # unselected; the last slot, which UNCOVERED (-1) indexes, stays 0
    numbers = {}
    group_of_rank = np.zeros(len(crag.leaf_order) + 1, dtype=np.int64)
    for i, root in group.items():
        lo, hi = crag.leaf_range(i)
        group_of_rank[lo:hi] = numbers.setdefault(root, len(numbers) + 1)
    ranks = crag.leaf_ranks()
    groups = group_of_rank[ranks].ravel()
    # number components by their first pixel in row-major order
    found, first = np.unique(groups, return_index=True)
    found, first = found[found > 0], first[found > 0]
    relabel = np.zeros(len(numbers) + 1, dtype=np.int64)
    relabel[found[np.argsort(first)]] = np.arange(1, len(found) + 1)
    return relabel[groups].reshape(ranks.shape)
