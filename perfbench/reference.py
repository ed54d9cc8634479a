"""Independent reference optimum for one (crag, costs, mode) instance.

Solves the same integer program as cmc.solver with HiGHS through
scipy.optimize.milp at zero relative gap: overlap rows from
crag.conflict_cliques, incidence rows m_e <= y_i and m_e <= y_j, and path
rows separated lazily with solver.separate_path_constraints until the
optimum violates none.  Used only to check the program's answers.
"""

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from cmc.crag import Solution, conflict_cliques, objective_value
from cmc.solver import separate_path_constraints


class ReferenceFailed(Exception):
    pass


def reference_optimum(crag, costs, mode):
    """Optimal Solution of the instance, found by HiGHS."""
    ids = crag.ids()
    edges = list(crag.adjacency)
    var = {i: k for k, i in enumerate(ids)}
    var.update({e: len(ids) + k for k, e in enumerate(edges)})
    n = len(var)
    cost = np.array([costs.f[i] for i in ids] + [costs.g[e] for e in edges])

    rows, limits = [], []

    def add_row(coefficients, limit):
        row = np.zeros(n)
        for key, a in coefficients:
            row[var[key]] += a
        rows.append(row)
        limits.append(limit)

    for clique in conflict_cliques(crag):
        if len(clique) > 1:
            add_row([(i, 1.0) for i in clique], 1.0)
    for e in edges:
        add_row([(e, 1.0), (e[0], -1.0)], 0.0)
        add_row([(e, 1.0), (e[1], -1.0)], 0.0)

    upper = np.ones(n)
    if mode == "merge_tree_only":
        upper[len(ids):] = 0.0
    elif mode == "leaf_multicut_only":
        leaves = set(crag.leaves())
        for i in ids:
            if i not in leaves:
                upper[var[i]] = 0.0

    while True:
        result = milp(
            cost,
            constraints=(LinearConstraint(np.array(rows), -np.inf, limits)
                         if rows else None),
            integrality=np.ones(n),
            bounds=Bounds(np.zeros(n), upper),
            options={"mip_rel_gap": 0.0, "disp": False},
        )
        if result.status != 0:
            raise ReferenceFailed(result.message)
        x = np.rint(result.x).astype(int).tolist()
        y = {i: x[var[i]] for i in ids}
        m = {e: x[var[e]] for e in edges}
        solution = Solution(y=y, m=m,
                            objective=objective_value(costs.f, costs.g, y, m))
        cuts = separate_path_constraints(crag, solution)
        if not cuts:
            return solution
        for cut in cuts:
            add_row([(e, 1.0) for e in cut.path] + [(cut.bypassed_edge, -1.0)],
                    float(len(cut.path) - 1))
