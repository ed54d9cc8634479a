import hashlib
import itertools
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmc import solver
from cmc.costmodel import CostTable, probability_to_cost
from cmc.crag import (
    Candidate,
    Solution,
    build_crag,
    validate_solution,
)
from cmc.errors import CmcError, InfeasibleSolution, KeyMismatch, TooLarge
from cmc.pipeline import PipelineConfig, build_graph
from cmc.solver import (
    _build_rows,
    _exact_costs,
    _forest,
    _solve_ilp,
    _State,
    brute_force,
    extract_segmentation,
    separate_path_constraints,
    solve,
)
from cmc.synth import generate_synthetic

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
# subnormal, tiny, unit and huge: one instance's costs may span 2**1114
WIDE_COSTS = (5e-324, 2.0**-60, 1.0, 2.0**40)


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
    cvec = _exact_costs(costs, ids, edges)

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


def test_extract_segmentation_of_a_crag_without_candidates():
    crag = build_crag([], [], [], np.full((2, 3), -1))
    sol = solve(crag, CostTable(f={}, g={}))
    seg = extract_segmentation(crag, sol)
    assert seg.dtype == np.int64
    assert np.array_equal(seg, np.zeros((2, 3)))


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


# ---------------------------------------------------------------------------
# the lex tie-break


def _tie_costs(draw, n, family, rng):
    """n costs of one family; each family makes exact or near ties."""
    if family == "pairs":
        # probability_to_cost(p) and probability_to_cost(1 - p) cancel
        # to within rounding, as forest costs of complementary votes do
        half = (n + 1) // 2
        ps = draw(st.lists(st.integers(1, 1023), min_size=half, max_size=half))
        values = []
        for p in ps:
            values += [probability_to_cost(p / 1024), probability_to_cost(1 - p / 1024)]
        values = values[:n]
        rng.shuffle(values)
        return values
    element = {
        "unit": st.sampled_from((-1.0, 0.0, 1.0)),
        "k/1024": st.integers(-1024, 1024).map(lambda k: k / 1024),
        "zero": st.one_of(st.just(0.0), st.integers(-4, 4).map(lambda k: k / 4)),
        "wide": st.sampled_from(WIDE_COSTS + tuple(-c for c in WIDE_COSTS)),
    }[family]
    return draw(st.lists(element, min_size=n, max_size=n))


@st.composite
def _crag_and_tie_costs(draw, families):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    crag = random_crag(rng)
    ids, edges = crag.ids(), list(crag.adjacency)
    family = draw(st.sampled_from(families))
    values = _tie_costs(draw, len(ids) + len(edges), family, rng)
    f = dict(zip(ids, values))
    g = dict(zip(edges, values[len(ids):]))
    return crag, CostTable(f, g)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_crag_and_tie_costs(("unit", "k/1024", "zero")))
def test_solve_equals_brute_force_with_exact_ties(case):
    """Exact ties (unit, k/1024 and zero costs): solve and brute_force
    both compare exact sums, so they pick the same assignment."""
    crag, costs = case
    for mode in MODES:
        got = solve(crag, costs, mode=mode)
        assert got == brute_force(crag, costs, mode)
        assert got.optimal and validate_solution(crag, got) == []


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_crag_and_tie_costs(("pairs",)))
def test_solve_equals_brute_force_on_rounding_ties(case):
    """Pairs of costs that cancel only to within rounding, as forest
    costs of complementary votes do: their float sums depend on the
    order of summation, their exact sums do not, so solve and
    brute_force pick the same assignment."""
    crag, costs = case
    for mode in MODES:
        got = solve(crag, costs, mode=mode)
        assert got == brute_force(crag, costs, mode)
        assert got.optimal and validate_solution(crag, got) == []


def test_near_tie_picked_by_summation_order():
    """Two assignments whose costs differ only by rounding: their float
    sums depend on the order of summation, their exact sums do not."""
    cands = [Candidate(i, 0) for i in (1, 2, 3)]
    cands += [Candidate(4, 1, (1, 2)), Candidate(5, 2, (3, 4))]
    labels = np.array([[2, 2], [3, 1], [3, 1]])
    crag = build_crag(
        cands,
        [(1, 2), (1, 3), (2, 3), (3, 4)],
        [(1, 4), (2, 4), (3, 5), (4, 5)],
        labels,
    )
    costs = CostTable(
        f={
            1: -0.3773897162529933,
            2: 0.37738971625299317,
            3: -0.11732693518528325,
            4: -1.1752541877613583,
            5: 1.68738639316549,
        },
        g={
            (1, 2): -1.6873863931654902,
            (1, 3): -0.01738233232199627,
            (2, 3): 0.017382332321996184,
            (3, 4): 2.8888609815485777,
        },
    )
    assert solve(crag, costs) == brute_force(crag, costs)


def test_costs_over_a_wide_exponent_range():
    """Subnormal, tiny, unit and huge costs in one instance: their common
    scale is 2**1074 and the scaled costs reach 2**1114, and the solver
    still sums exactly, agreeing with brute_force and, where small
    enough, with the Fraction enumeration."""
    rng = np.random.default_rng(1074)
    for _ in range(40):
        crag = random_crag(rng)
        ids, edges = crag.ids(), list(crag.adjacency)
        n = len(ids) + len(edges)
        values = (rng.choice(WIDE_COSTS, size=n) * rng.choice((-1.0, 1.0), size=n))
        values = values.tolist()
        costs = CostTable(dict(zip(ids, values)), dict(zip(edges, values[len(ids):])))
        for mode in MODES:
            start = time.monotonic()
            got = solve(crag, costs, mode=mode)
            assert time.monotonic() - start < 5.0
            assert got.optimal and got == brute_force(crag, costs, mode)
            if n <= 10:
                assert got == enumerate_minimum(crag, costs, mode)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_crag_and_tie_costs(("unit", "k/1024", "pairs", "wide")))
def test_bound_is_the_exact_sum_at_every_leaf(case):
    """At every leaf that a search of the solve reaches, state.bound is
    an int: the costs' common scale times the exact sum of the selected
    costs, recomputed here in Fractions."""
    crag, costs = case
    ids, edges = crag.ids(), list(crag.adjacency)
    exact = [Fraction(costs.f[i]) for i in ids] + [Fraction(costs.g[e]) for e in edges]
    scale = max(c.denominator for c in exact)
    dfs = solver._dfs

    def spy(state, limit, clock, leaf):
        def checked():
            assert type(state.bound) is int and type(state.forest_gap()) is int
            assert state.bound == scale * sum(c for c, x in zip(exact, state.value) if x)
            return leaf()

        return dfs(state, limit, clock, checked)

    with mock.patch.object(solver, "_dfs", spy):
        for mode in MODES:
            solve(crag, costs, mode=mode)


def test_solve_equals_two_pass_reference_on_larger_instances():
    """Beyond the brute-force budget, on tie-heavy and continuous costs:
    grids, and merge trees of synthetic images with up to 47 variables.
    The digest pins (y, m, iterations) of all 441 solves as the previous
    release's two-pass solver gave them; no cost family here has ties to
    within rounding only, so exact sums keep every answer."""
    rng = np.random.default_rng(2024)
    crags = [random_sparse_crag(rng) for _ in range(40)]
    crags += [pixel_grid_crag(3, 4), pixel_grid_crag(4, 4), pixel_grid_crag(4, 5)]
    config = PipelineConfig(seed_threshold=0.3, max_merges=3)
    for seed in range(500, 506):
        _, boundary, _ = generate_synthetic(1, 3, 1.0, seed, image_size=96)[0]
        crags.append(build_graph(boundary, config))
    digest = hashlib.sha256()
    for crag in crags:
        ids, edges = crag.ids(), list(crag.adjacency)
        n = len(ids) + len(edges)
        for values in (
            rng.integers(-1, 2, size=n).astype(float).tolist(),
            (rng.integers(-8, 9, size=n) / 8).tolist(),
            rng.normal(size=n).tolist(),
        ):
            costs = CostTable(dict(zip(ids, values)), dict(zip(edges, values[len(ids):])))
            for mode in MODES:
                got = solve(crag, costs, mode=mode)
                assert got.optimal
                answer = (sorted(got.y.items()), sorted(got.m.items()), got.iterations)
                digest.update(repr(answer).encode())
    assert digest.hexdigest() == (
        "c2b6953c010b341ab7637248d217b6dfaf8bddfc5163b89572121c679a0bf5ab"
    )


def _unique_optimum():
    crag = quad_crag()
    return crag, quad_costs(crag)


def _tie_walk():
    """y1 alone and the root 3 alone both cost -1; x* takes y1."""
    cands = [Candidate(1, 0), Candidate(2, 0), Candidate(3, 1, (1, 2))]
    labels = np.array([[1, 1, 1, 1], [1, 1, 2, 2]])
    crag = build_crag(cands, [(1, 2)], [(1, 3), (2, 3)], labels)
    return crag, CostTable({1: -1.0, 2: 1.0, 3: -1.0}, {(1, 2): 1.0})


TIE_BRANCHES = {
    "unique optimum": _unique_optimum,
    "tie walk": _tie_walk,
}


def _optima(cvec, rows):
    """Every assignment that satisfies `rows` and has the least exact
    cost sum, lex-smallest first."""
    n = len(cvec)
    bits = np.array(list(itertools.product((0, 1), repeat=n)))
    matrix = np.zeros((len(rows), n))
    for r, (cmap, _) in enumerate(rows):
        for v, a in cmap.items():
            matrix[r, v] = a
    feasible = bits[(bits @ matrix.T <= np.array([b for _, b in rows])).all(axis=1)]
    exact = [Fraction(c) for c in cvec]
    sums = [sum(c for c, x in zip(exact, row) if x) for row in feasible.tolist()]
    z = min(sums)
    return [row for row, total in zip(feasible.tolist(), sums) if total == z]


@pytest.mark.parametrize("branch", sorted(TIE_BRANCHES))
def test_tie_break_branch(branch, monkeypatch):
    """Each instance takes the named branch in its first round: exact
    enumeration finds one optimum or several, and the walk searches
    only when there are several.  The round returns the lex-smallest
    optimum, and the solve is brute_force's."""
    crag, costs = TIE_BRANCHES[branch]()
    ids, edges = crag.ids(), list(crag.adjacency)
    var_y, var_m, cvec = _program(crag, costs)
    rows = _build_rows(crag, var_y, var_m, [])
    optima = _optima(cvec, rows)
    searches = []
    first_leaf = solver._first_leaf

    def spy(state, z, clock):
        searches.append(z)
        return first_leaf(state, z, clock)

    monkeypatch.setattr(solver, "_first_leaf", spy)
    got = _solve_ilp(
        _exact_costs(costs, ids, edges), rows, {}, _forest(crag, var_y, var_m), None
    )
    taken = {
        "unique optimum": len(optima) == 1 and not searches,
        "tie walk": len(optima) > 1 and bool(searches),
    }
    assert [b for b, holds in taken.items() if holds] == [branch]
    assert got == optima[0]
    assert solve(crag, costs) == brute_force(crag, costs)


def _x_star_rounded_above_z_tied():
    cands = [Candidate(i, 0) for i in range(1, 6)] + [Candidate(6, 1, (3, 5))]
    labels = np.array([[3, 1], [5, 2], [4, 4]])
    crag = build_crag(
        cands,
        [(1, 2), (1, 3), (1, 6), (2, 4), (2, 5), (2, 6), (3, 5), (4, 5), (4, 6)],
        [(3, 6), (5, 6)],
        labels,
    )
    f = {1: 0.5, 2: 0.2, 3: 0.3, 4: -0.2, 5: -0.8, 6: 0.1}
    g = {
        (1, 2): -0.5, (1, 3): -0.1, (1, 6): 0.5, (2, 4): 0.5, (2, 5): 0.5,
        (2, 6): -0.9, (3, 5): -0.8, (4, 5): 0.6, (4, 6): -0.8,
    }
    return crag, CostTable(f, g)


def _x_star_rounded_above_z_alone():
    cands = [Candidate(1, 0), Candidate(2, 0), Candidate(3, 0)]
    cands.append(Candidate(4, 1, (2, 3)))
    labels = np.array([[2, 2, 2], [1, 2, 2], [1, 3, 2], [1, 1, 2]])
    crag = build_crag(
        cands, [(1, 2), (1, 3), (1, 4), (2, 3)], [(2, 4), (3, 4)], labels
    )
    f = {1: 0.5, 2: -0.6, 3: -0.8, 4: -0.9}
    g = {(1, 2): -0.2, (1, 3): -0.2, (1, 4): -0.9, (2, 3): 0.0}
    return crag, CostTable(f, g)


FLOAT_SUM_CASES = {
    "with another tie": _x_star_rounded_above_z_tied,
    "without another tie": _x_star_rounded_above_z_alone,
}


@pytest.mark.parametrize("case", sorted(FLOAT_SUM_CASES))
def test_solve_equals_brute_force_where_float_sums_disagree(case):
    """Instances on which the optimizing pass's x*, summed in float in
    index order, came out above its own z*, so a tie-break on such sums
    passed over x*: once with another tied assignment to take instead,
    once with none.  Under exact sums they are plain instances."""
    crag, costs = FLOAT_SUM_CASES[case]()
    for mode in MODES:
        got = solve(crag, costs, mode=mode)
        assert got.optimal and got == brute_force(crag, costs, mode)


def test_solver_hard_large_graph_is_solved_to_optimality():
    """The large graph of perfbench's solver-hard workload (instance seed
    1): its full-mode solve used to spend 35 s in the second, lex-ordered
    branch-and-bound and time out to the empty segmentation."""
    _, boundary, _ = generate_synthetic(1, 12, 1.0, 2007000, image_size=256)[0]
    crag = build_graph(boundary, PipelineConfig(seed_threshold=0.3, max_merges=5))
    ids, edges = crag.ids(), list(crag.adjacency)
    assert (len(ids), len(edges)) == (31, 137)
    rng = np.random.default_rng((2007, 0))
    costs = CostTable(
        dict(zip(ids, rng.normal(size=len(ids)).tolist())),
        dict(zip(edges, rng.normal(size=len(edges)).tolist())),
    )
    start = time.monotonic()
    sol = solve(crag, costs, time_limit=30.0)
    assert time.monotonic() - start < 10.0
    assert sol.optimal
    assert abs(sol.objective - -16.065749871275965) <= 1e-9
    assert validate_solution(crag, sol) == []


def test_timeout_during_the_tie_walk(monkeypatch):
    """A multicut with tied merge costs, so its solve walks for ties.
    The spy on the walk's search expires the solve's clock at the first
    walk search and makes the next tick read it, so the deadline passes
    inside a walk search on any host.  The walk's searches share the
    solve's clock, so the answer comes back at once."""
    rng = np.random.default_rng(76)
    crag = pixel_grid_crag(7, 8)
    costs = CostTable(
        f={i: -1.0 for i in crag.ids()},
        g={e: float(rng.choice((-1.0, 0.0, 1.0))) for e in crag.adjacency},
    )
    expired_at, expired_in_walk = [], []
    first_leaf = solver._first_leaf

    def spy(state, z, clock):
        if not expired_at:
            clock.deadline = time.monotonic() - 1.0
            clock.ticks |= 1023  # the next tick reads the clock
            expired_at.append(time.monotonic())
        try:
            return first_leaf(state, z, clock)
        except solver._Timeout:
            expired_in_walk.append(True)
            raise

    monkeypatch.setattr(solver, "_first_leaf", spy)
    sol = solve(crag, costs, time_limit=60.0)
    assert expired_in_walk
    assert time.monotonic() - expired_at[0] < 0.5
    assert sol.optimal is False
    assert validate_solution(crag, sol) == []
    assert sol.objective <= 0.0


@pytest.mark.parametrize("limit", [float("nan"), float("inf"), -1.0, "soon"])
def test_bad_time_limit_rejected(limit):
    """A NaN deadline used to be no deadline: monotonic() > nan is false."""
    crag = quad_crag()
    with pytest.raises(CmcError):
        solve(crag, quad_costs(crag), time_limit=limit)


def test_zero_time_limit_still_returns_a_feasible_answer():
    crag = quad_crag()
    sol = solve(crag, quad_costs(crag), time_limit=0)
    assert validate_solution(crag, sol) == []
