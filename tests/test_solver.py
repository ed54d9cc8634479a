import itertools

import numpy as np
import pytest

from cmc.costmodel import CostTable
from cmc.crag import (
    Candidate,
    Solution,
    build_crag,
    validate_solution,
)
from cmc.errors import CmcError, InfeasibleSolution, KeyMismatch, TooLarge
from cmc.solver import (
    _build_rows,
    _forest,
    _solve_ilp,
    _State,
    brute_force,
    extract_segmentation,
    separate_path_constraints,
    solve,
)

from util import (
    enumerate_minimum,
    leaf_image,
    pixel_grid_crag,
    quad_costs,
    quad_crag,
    quad_gt,
    random_costs,
    random_crag,
    random_sparse_crag,
)

MODES = ("full", "merge_tree_only", "leaf_multicut_only")


def triangle_crag():
    """Three mutually adjacent regions on a 2x2 canvas."""
    cands = [Candidate(1, 0), Candidate(2, 0), Candidate(3, 0)]
    labels = leaf_image({1: {(0, 0)}, 2: {(0, 1)}, 3: {(1, 0), (1, 1)}}, 2, 2)
    return build_crag(cands, [(1, 2), (1, 3), (2, 3)], [], labels)


def test_solve_quad():
    crag = quad_crag()
    sol = solve(crag, quad_costs(crag))
    assert {i for i, v in sol.y.items() if v} == {3, 4, 5}
    assert {e for e, v in sol.m.items() if v} == {(3, 5)}
    assert sol.objective == -4.0
    assert sol.optimal and sol.iterations >= 1
    assert validate_solution(crag, sol) == []


def test_solve_matches_brute_force_on_quad():
    crag = quad_crag()
    costs = quad_costs(crag)
    assert solve(crag, costs) == brute_force(crag, costs)


def test_all_positive_costs_select_nothing():
    crag = quad_crag()
    costs = CostTable(
        f={i: 1.0 for i in crag.ids()}, g={e: 1.0 for e in crag.adjacency}
    )
    sol = solve(crag, costs)
    assert not any(sol.y.values()) and not any(sol.m.values())
    assert sol.objective == 0.0


def test_all_zero_costs_tie_break_to_empty():
    crag = quad_crag()
    costs = CostTable(
        f={i: 0.0 for i in crag.ids()}, g={e: 0.0 for e in crag.adjacency}
    )
    sol = solve(crag, costs)
    assert not any(sol.y.values()) and not any(sol.m.values())


def test_single_candidate():
    crag = build_crag([Candidate(1, 0)], [], [], leaf_image({1: {(0, 0)}}, 1, 1))
    sol = solve(crag, CostTable(f={1: -1.0}, g={}))
    assert sol.y == {1: 1} and sol.objective == -1.0


def test_mode_fixing():
    crag = quad_crag()
    costs = quad_costs(crag)
    mt = solve(crag, costs, mode="merge_tree_only")
    assert not any(mt.m.values())
    assert mt.objective == -3.0
    mc = solve(crag, costs, mode="leaf_multicut_only")
    leaves = set(crag.leaves())
    assert not any(v for i, v in mc.y.items() if i not in leaves)
    assert mc.objective == -2.0


def test_mode_nesting_strict_on_quad():
    crag = quad_crag()
    costs = quad_costs(crag)
    full = solve(crag, costs).objective
    mt = solve(crag, costs, mode="merge_tree_only").objective
    mc = solve(crag, costs, mode="leaf_multicut_only").objective
    assert full < mt < mc


def test_solve_matches_exhaustive_enumeration():
    """Independent oracle: literal scan of every 0/1 assignment."""
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 25:
        crag = random_crag(rng, budget=14)
        if len(crag.ids()) + len(crag.adjacency) > 14:
            continue
        checked += 1
        costs = random_costs(rng, crag)
        for mode in MODES:
            expect = enumerate_minimum(crag, costs, mode)
            assert brute_force(crag, costs, mode) == expect
            assert solve(crag, costs, mode=mode) == expect


def test_solve_matches_brute_force_random():
    rng = np.random.default_rng(123)
    for _ in range(30):
        crag = random_crag(rng)
        costs = random_costs(rng, crag)
        for mode in MODES:
            got = solve(crag, costs, mode=mode)
            assert got == brute_force(crag, costs, mode)
            assert validate_solution(crag, got) == []
            assert got.optimal


def test_mode_nesting_random():
    rng = np.random.default_rng(321)
    for _ in range(20):
        crag = random_crag(rng)
        costs = random_costs(rng, crag)
        full = solve(crag, costs).objective
        mt = solve(crag, costs, mode="merge_tree_only").objective
        mc = solve(crag, costs, mode="leaf_multicut_only").objective
        assert full <= mt and full <= mc
        assert full <= 0.0  # empty assignment is always feasible


def _program(crag, costs):
    ids, edges = crag.ids(), list(crag.adjacency)
    var_y = {i: k for k, i in enumerate(ids)}
    var_m = {e: len(ids) + k for k, e in enumerate(edges)}
    cvec = [costs.f[i] for i in ids] + [costs.g[e] for e in edges]
    return var_y, var_m, cvec


def test_forest_gap_on_quad():
    """bound takes every negative cost; the forest allows 5 + 6 at best."""
    crag = quad_crag()
    f = {1: -1.0, 2: -1.0, 3: -1.0, 4: -1.0, 5: -3.0, 6: -1.0, 7: -2.0}
    costs = CostTable(f, {e: 1.0 for e in crag.adjacency})
    var_y, var_m, cvec = _program(crag, costs)
    rows = _build_rows(crag, var_y, var_m, [])
    state = _State(cvec, rows, {}, _forest(crag, var_y, var_m))
    assert state.bound == -10.0
    assert state.forest_gap() == 5.0
    assert state.bound + state.forest_gap() == solve(crag, costs).objective
    # with 5 selected, only 3 and 4 remain free among the selections
    assert state.propagate(var_y[5], 1)
    assert state.bound + state.forest_gap() == -5.0


def test_forest_gap_bounds_every_completion():
    """bound + forest_gap never exceeds the cost of any assignment that
    satisfies the rows and agrees with the variables set so far."""
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 15:
        crag = random_crag(rng, budget=14)
        var_y, var_m, cvec = _program(crag, random_costs(rng, crag))
        n = len(cvec)
        if n > 14:
            continue
        checked += 1
        rows = _build_rows(crag, var_y, var_m, [])
        matrix = np.zeros((len(rows), n))
        for r, (cmap, _) in enumerate(rows):
            for v, a in cmap.items():
                matrix[r, v] = a
        bounds = np.array([b for _, b in rows], dtype=float)
        bits = np.array(list(itertools.product((0, 1), repeat=n)))
        feasible = (bits @ matrix.T <= bounds).all(axis=1)
        values = bits @ np.array(cvec)
        non_leaves = [i for i in crag.ids() if i not in set(crag.leaves())]
        for fixed in (
            {},
            {v: 0 for v in var_m.values()},
            {var_y[i]: 0 for i in non_leaves},
        ):
            for _ in range(4):
                state = _State(cvec, rows, fixed, _forest(crag, var_y, var_m))
                for v in rng.permutation(n).tolist():
                    agree = feasible.copy()
                    for u, val in enumerate(state.value):
                        if val is not None:
                            agree &= bits[:, u] == val
                    gap = state.forest_gap()
                    assert gap >= 0.0
                    assert state.bound + gap <= values[agree].min() + 1e-12
                    if state.value[v] is None and not state.propagate(
                        v, int(rng.integers(2))
                    ):
                        break


def test_separation_on_triangle():
    crag = triangle_crag()
    y = {1: 1, 2: 1, 3: 1}
    m = {(1, 2): 1, (1, 3): 0, (2, 3): 1}
    cons = separate_path_constraints(crag, Solution(y=y, m=m, objective=0.0))
    assert len(cons) == 1
    assert cons[0].bypassed_edge == (1, 3)
    assert set(cons[0].path) == {(1, 2), (2, 3)}
    # closing the triangle removes the violation
    m[(1, 3)] = 1
    assert separate_path_constraints(crag, Solution(y=y, m=m, objective=0.0)) == []


def test_separation_on_four_cycle():
    crag = pixel_grid_crag(2, 2)
    y = {i: 1 for i in crag.ids()}
    m = {e: 0 for e in crag.adjacency}
    for e in ((1, 2), (1, 3), (2, 4)):
        m[e] = 1
    cons = separate_path_constraints(crag, Solution(y=y, m=m, objective=0.0))
    assert len(cons) == 1
    assert cons[0].bypassed_edge == (3, 4)
    assert len(cons[0].path) == 3


def test_cutting_plane_iterations_monotone():
    """Replay the outer loop by hand on a frustrated triangle."""
    crag = triangle_crag()
    costs = CostTable(
        f={1: -1.0, 2: -1.0, 3: -1.0},
        g={(1, 2): -1.0, (1, 3): 1.0, (2, 3): -1.0},
    )
    ids = crag.ids()
    edges = list(crag.adjacency)
    var_y = {i: k for k, i in enumerate(ids)}
    var_m = {e: len(ids) + k for k, e in enumerate(edges)}
    cvec = [costs.f[i] for i in ids] + [costs.g[e] for e in edges]

    pool = []
    optima = []
    for _ in range(10):
        rows = _build_rows(crag, var_y, var_m, pool)
        assign = _solve_ilp(cvec, rows, {}, _forest(crag, var_y, var_m), None)
        y = {i: assign[v] for i, v in var_y.items()}
        m = {e: assign[v] for e, v in var_m.items()}
        optima.append(sum(c * x for c, x in zip(cvec, assign)))
        cons = separate_path_constraints(crag, Solution(y=y, m=m, objective=0.0))
        if not cons:
            break
        pool.extend(cons)
    assert optima == [-5.0, -4.0]
    assert all(a <= b for a, b in zip(optima, optima[1:]))

    sol = solve(crag, costs)
    assert sol.objective == -4.0
    assert sol.iterations == 2
    assert {e for e, v in sol.m.items() if v} == {(2, 3)}
    assert sol == brute_force(crag, costs)


def test_brute_force_size_guard():
    crag = pixel_grid_crag(3, 4)  # 12 nodes + 17 edges
    costs = CostTable(
        f={i: 0.0 for i in crag.ids()}, g={e: 0.0 for e in crag.adjacency}
    )
    with pytest.raises(TooLarge):
        brute_force(crag, costs)


def test_cost_key_mismatch():
    crag = quad_crag()
    costs = quad_costs(crag)
    missing = CostTable(f=dict(costs.f), g=dict(costs.g))
    missing.f.pop(3)
    with pytest.raises(KeyMismatch):
        solve(crag, missing)
    extra = CostTable(f=dict(costs.f), g=dict(costs.g))
    extra.g[(1, 5)] = 0.0
    with pytest.raises(KeyMismatch):
        solve(crag, extra)
    with pytest.raises(CmcError):
        solve(crag, costs, mode="bogus")
    with pytest.raises(CmcError):
        brute_force(crag, costs, mode="bogus")


def test_extract_segmentation_quad():
    crag = quad_crag()
    sol = solve(crag, quad_costs(crag))
    assert np.array_equal(extract_segmentation(crag, sol), quad_gt())


def test_extract_segmentation_empty_and_merged():
    crag = triangle_crag()
    zero = Solution(
        y={i: 0 for i in crag.ids()},
        m={e: 0 for e in crag.adjacency},
        objective=0.0,
    )
    assert not extract_segmentation(crag, zero).any()
    sol = Solution(
        y={1: 1, 2: 1, 3: 1},
        m={(1, 2): 0, (1, 3): 0, (2, 3): 1},
        objective=0.0,
    )
    seg = extract_segmentation(crag, sol)
    # labels ordered by smallest member pixel: {1} first, then {2, 3}
    assert np.array_equal(seg, np.array([[1, 2], [2, 2]]))


def test_extract_segmentation_rejects_infeasible():
    crag = quad_crag()
    bad = Solution(
        y={i: int(i in (1, 5)) for i in crag.ids()},
        m={e: 0 for e in crag.adjacency},
        objective=0.0,
    )
    with pytest.raises(InfeasibleSolution):
        extract_segmentation(crag, bad)


def test_timeout_returns_feasible_incumbent():
    """A 96-variable clustering instance cannot finish in a microsecond."""
    rng = np.random.default_rng(5)
    crag = pixel_grid_crag(6, 6)
    costs = CostTable(
        f={i: -1.0 for i in crag.ids()},
        g={e: float(rng.choice((-1.0, 1.0))) for e in crag.adjacency},
    )
    sol = solve(crag, costs, time_limit=1e-6)
    assert sol.optimal is False
    assert sol.iterations >= 1
    assert validate_solution(crag, sol) == []
    assert sol.objective <= 0.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_cost_rejected(bad):
    crag = quad_crag()
    for table in ("f", "g"):
        costs = quad_costs(crag)
        key = next(iter(getattr(costs, table)))
        getattr(costs, table)[key] = bad
        with pytest.raises(CmcError):
            solve(crag, costs)
        with pytest.raises(CmcError):
            brute_force(crag, costs)


def test_separation_equals_validate_path_violations():
    """separate_path_constraints and validate_solution's path family name
    the same edges with the same paths, on random assignments."""
    rng = np.random.default_rng(61)
    crags = [random_crag(rng) for _ in range(40)]
    crags += [random_sparse_crag(rng) for _ in range(40)]
    crags += [pixel_grid_crag(4, 4)]
    found = 0
    for crag in crags:
        for density in (0.3, 0.6, 0.9):
            y = {i: int(rng.random() < 0.5) for i in crag.ids()}
            m = {e: int(rng.random() < density) for e in crag.adjacency}
            sol = Solution(y=y, m=m, objective=0.0)
            cuts = separate_path_constraints(crag, sol)
            violations = validate_solution(crag, sol)
            paths = [(v.ids, v.path) for v in violations if v.family == "path"]
            assert [(c.bypassed_edge, c.path) for c in cuts] == paths
            for cut in cuts:
                assert not m[cut.bypassed_edge] and all(m[e] for e in cut.path)
            found += len(cuts)
    assert found > 50
