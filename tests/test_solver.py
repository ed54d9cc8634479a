import hashlib
import itertools
import math
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmc import solver
from cmc.costmodel import CostTable, predict_costs, probability_to_cost
from cmc.crag import (
    Candidate,
    Solution,
    build_crag,
    validate_solution,
)
from cmc.errors import CmcError, InfeasibleSolution, KeyMismatch
from cmc.features import compute_features
from cmc.pipeline import PipelineConfig, build_graph, train_model
from cmc.solver import (
    _build,
    _Clock,
    _dfs,
    _exact_costs,
    _part_state,
    _path_rows,
    _State,
    extract_segmentation,
    separate_path_constraints,
    solve,
)
from cmc.synth import generate_synthetic

from util import (
    BRUTE_FORCE_LIMIT,
    brute_force,
    enumerate_minimum,
    explicit_rows,
    frustrated_grid,
    inner,
    leaf_image,
    pixel_grid_crag,
    quad_costs,
    quad_crag,
    quad_gt,
    random_costs,
    random_crag,
    random_sparse_crag,
    ref_lexed,
    ref_parts,
    ref_slack,
    ref_unit_propagation,
)

MODES = ("full", "merge_tree_only", "leaf_multicut_only")
# subnormal, tiny, unit and huge: one instance's costs may span 2**1114
WIDE_COSTS = (5e-324, 2.0**-60, 1.0, 2.0**40)


def triangle_crag():
    """Three mutually adjacent regions on a 2x2 canvas."""
    labels = leaf_image({1: {(0, 0)}, 2: {(0, 1)}, 3: {(1, 0), (1, 1)}}, 2, 2)
    return build_crag([], [(1, 2), (1, 3), (2, 3)], labels)


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
    crag = build_crag([], [], leaf_image({1: {(0, 0)}}, 1, 1))
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


def _variables(crag, mode="full"):
    """The mode's variable indices as solve numbers them (_build): its
    selections, then its merges."""
    zero = CostTable({i: 0.0 for i in crag.ids()}, {e: 0.0 for e in crag.adjacency})
    var_y, var_m, _ = _build(crag, zero, mode)
    return var_y, var_m


def _program(crag, costs):
    """solve's variables in full mode and their costs in variable order."""
    var_y, var_m = _variables(crag)
    cvec = [costs.f[i] for i in var_y] + [costs.g[e] for e in var_m]
    return var_y, var_m, cvec


def _whole(crag, costs, mode="full"):
    """The mode's variables and the search state of its whole program:
    the state of one part (_part_state) that holds every variable, as
    solve builds it for a graph of one part with nothing fixed."""
    var_y, var_m, exact = _build(crag, costs, mode)
    whole = (crag.roots(), list(var_y), list(var_m))
    state, _, _ = _part_state(crag, var_y, var_m, exact, whole)
    return var_y, var_m, state


def _state(crag, costs, mode="full", cuts=()):
    """The search state over the mode's whole program (_whole), with the
    clauses of `cuts` added at its root."""
    _, var_m, state = _whole(crag, costs, mode)
    state.add_rows(_path_rows(cuts, var_m))
    return state


def _cut_rows(crag, var_y, var_m, cuts):
    """The path cuts as the <=-rows of explicit_rows: the independent
    model that each clause's slack is compared against."""
    rows = explicit_rows(crag, var_y, var_m, cuts)
    return rows[len(rows) - len(cuts):]


def _int_costs(rng, crag, low, high):
    """A CostTable of whole costs drawn from [low, high)."""
    ids, edges = crag.ids(), list(crag.adjacency)
    values = rng.integers(low, high, size=len(ids) + len(edges)).astype(float).tolist()
    return CostTable(dict(zip(ids, values)), dict(zip(edges, values[len(ids):])))


def _random_cuts(rng, crag, var_y, var_m, density):
    """The path cuts of a random assignment to the given variables, 0
    elsewhere: each y is 1 with probability 0.8, each m with `density`."""
    y = {i: int(i in var_y and rng.random() < 0.8) for i in crag.ids()}
    m = {e: int(e in var_m and rng.random() < density) for e in crag.adjacency}
    return separate_path_constraints(crag, Solution(y=y, m=m, objective=0.0))


@pytest.mark.parametrize("mode", MODES)
def test_each_mode_is_built_over_its_own_variables(mode):
    """full has every selection and merge, merge_tree_only every
    selection and no merge, leaf_multicut_only the leaf selections and
    the merges of edges between two leaves: numbered 0..n-1 in the order
    of (y, m), and the state has exactly that many variables."""
    rng = np.random.default_rng(17)
    crags = [quad_crag(), pixel_grid_crag(3, 3)]
    crags += [random_crag(rng) for _ in range(20)]
    for crag in crags:
        leaves = set(crag.leaves())
        ids = [i for i in crag.ids() if mode != "leaf_multicut_only" or i in leaves]
        edges = [
            e
            for e in crag.adjacency
            if mode == "full" or (mode == "leaf_multicut_only" and set(e) <= leaves)
        ]
        var_y, var_m, state = _whole(crag, random_costs(rng, crag), mode)
        assert list(var_y) == ids and list(var_m) == edges
        assert [*var_y.values(), *var_m.values()] == list(range(state.n))
        assert state.n == len(state.costs) == len(ids) + len(edges)


def _without_a_kind_of_variable():
    """Graphs on which some mode has no variable of one kind: leaves with
    no edge between them (no merge in leaf_multicut_only), a graph
    without edges, and a one-candidate graph."""
    quad = quad_crag()
    cands = inner(quad)
    leaves = set(quad.leaves())
    cross = [e for e in quad.adjacency if not set(e) <= leaves]
    yield build_crag(cands, cross, quad.leaf_labels())
    yield build_crag(cands, [], quad.leaf_labels())
    yield build_crag([], [], leaf_image({1: {(0, 0)}}, 1, 1))


def test_solve_equals_brute_force_without_a_kind_of_variable():
    rng = np.random.default_rng(8)
    for crag in _without_a_kind_of_variable():
        for _ in range(20):
            costs = random_costs(rng, crag)
            for mode in MODES:
                got = solve(crag, costs, mode=mode)
                assert got.optimal and got == brute_force(crag, costs, mode)


def test_bound_bounds_every_completion():
    """The bound the search prunes by never exceeds the lexed cost of any
    assignment that satisfies the rows of the mode's program and agrees
    with the variables set so far, at every node of random propagations."""
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 60:
        crag = random_crag(rng, budget=14)
        costs = random_costs(rng, crag)
        if len(crag.ids()) + len(crag.adjacency) > 14:
            continue
        checked += 1
        for mode in MODES:
            var_y, var_m, root = _whole(crag, costs, mode)
            n = root.n
            rows = explicit_rows(crag, var_y, var_m, [])
            matrix = np.zeros((len(rows), n))
            for r, (cmap, _) in enumerate(rows):
                for v, a in cmap.items():
                    matrix[r, v] = a
            bounds = np.array([b for _, b in rows], dtype=float)
            bits = np.array(list(itertools.product((0, 1), repeat=n)))
            feasible = (bits @ matrix.T <= bounds).all(axis=1)
            # k/1024 costs: the lexed ints stay far below 2**63
            values = bits @ np.array(root.costs)
            for _ in range(4):
                state = _state(crag, costs, mode)
                for v in rng.permutation(n).tolist():
                    agree = feasible.copy()
                    for u, val in enumerate(state.value):
                        if val is not None:
                            agree &= bits[:, u] == val
                    assert state.bound <= values[agree].min()
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


def _no_cuts(value):
    """A leaf check that finds every leaf feasible: the search then
    solves the program of the clauses already in its state."""
    return []


def _assignment_cuts(crag, value, mode="full"):
    """The path cuts that a complete assignment to the mode's variables
    breaks, with every other y and m 0."""
    var_y, var_m = _variables(crag, mode)
    y = {i: value[var_y[i]] if i in var_y else 0 for i in crag.ids()}
    m = {e: value[var_m[e]] if e in var_m else 0 for e in crag.adjacency}
    return separate_path_constraints(crag, Solution(y=y, m=m, objective=0.0))


def _round_loop(crag, costs, mode="full"):
    """The answer of each round of a plain cutting-plane loop: a search
    on a fresh state over the path cuts pooled so far, then the cuts
    that its answer breaks join the pool, until it breaks none."""
    pool, answers = [], []
    while True:
        state = _state(crag, costs, mode, pool)
        answers.append(_dfs(state, _Clock(None), _no_cuts)[0])
        cuts = _assignment_cuts(crag, answers[-1], mode)
        if not cuts:
            return answers
        pool += cuts


def test_cutting_plane_iterations_monotone():
    """A frustrated triangle: the round loop's optima rise as cuts join
    the pool, and the one search turns down the first round's optimum at
    its leaf and returns the last round's."""
    crag = triangle_crag()
    costs = CostTable(
        f={1: -1.0, 2: -1.0, 3: -1.0},
        g={(1, 2): -1.0, (1, 3): 1.0, (2, 3): -1.0},
    )
    cvec = _exact_costs(costs, crag.ids(), list(crag.adjacency))
    answers = _round_loop(crag, costs)
    optima = [sum(c * x for c, x in zip(cvec, assign)) for assign in answers]
    assert optima == [-5.0, -4.0]
    assert all(a <= b for a, b in zip(optima, optima[1:]))

    sol = solve(crag, costs)
    assert sol.objective == -4.0
    assert sol.iterations == 2  # one leaf turned down
    assert {e for e, v in sol.m.items() if v} == {(2, 3)}
    assert sol == brute_force(crag, costs)


def test_brute_force_size_guard():
    crag = pixel_grid_crag(3, 4)  # 12 nodes + 17 edges
    costs = CostTable(
        f={i: 0.0 for i in crag.ids()}, g={e: 0.0 for e in crag.adjacency}
    )
    with pytest.raises(ValueError) as info:
        brute_force(crag, costs)
    assert str(info.value) == (
        f"instance with 29 variables exceeds enumeration budget {BRUTE_FORCE_LIMIT}"
    )


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
    crag = build_crag([], [], np.full((2, 3), -1))
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
    """A 96-variable clustering instance whose one large part cannot be
    proved in a microsecond (frustrated_grid).  With g = +-1 drawn
    evenly, the rule and the split leave parts of at most 17 pixels,
    which prove in 184 ticks, before the clock first reads the time."""
    crag, costs = frustrated_grid()
    sol = solve(crag, costs, time_limit=1e-6)
    assert sol.optimal is False
    assert sol.iterations >= 1
    assert validate_solution(crag, sol) == []
    assert sol.objective <= 0.0


@pytest.mark.parametrize(
    "bad",
    [float("nan"), float("inf"), 10**400, 10**5000, "x", None],
    ids=["nan", "inf", "10**400", "10**5000", "str", "None"],
)
def test_non_finite_cost_rejected(bad):
    """An int past the float range, a string and None used to escape as
    OverflowError or TypeError from math.isfinite."""
    crag = quad_crag()
    for table in ("f", "g"):
        costs = quad_costs(crag)
        key = next(iter(getattr(costs, table)))
        getattr(costs, table)[key] = bad
        for oracle in (solve, brute_force):
            with pytest.raises(CmcError) as info:
                oracle(crag, costs)
            assert f"cost of {key} is not a finite number" in str(info.value)


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
def _crag_and_tie_costs(draw, families, budget=26):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    crag = random_crag(rng, budget)
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
    cands = [Candidate(4, (1, 2)), Candidate(5, (3, 4))]
    labels = np.array([[2, 2], [3, 1], [3, 1]])
    crag = build_crag(
        cands,
        [(1, 2), (1, 3), (2, 3), (3, 4)],
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
    """solve searches each part of ref_parts in turn, and at every leaf
    that a part's search reaches, state.n is the part's variable count
    and state.bound is an int: the part's lexed sum of the selected
    variables under the weights of the whole mode, that is the common
    scale of the mode's costs times their exact sum times 2**n plus
    2**(n - 1 - v) per selected variable v of the mode, where n is the
    mode's variable count, recomputed here in Fractions."""
    crag, costs = case
    dfs = solver._dfs

    for mode in MODES:
        var_y, var_m = _variables(crag, mode)
        lexed = ref_lexed(crag, costs, var_y, var_m)
        parts = ref_parts(crag, costs, var_y, var_m)
        searched = []

        def spy(state, clock, cuts):
            part = parts[len(searched)]
            searched.append(part)

            def checked(value):
                assert state.n == len(part)
                assert type(state.bound) is int
                chosen = [v for v, x in zip(part, value) if x]
                assert state.bound == sum(lexed[v] for v in chosen)
                return cuts(value)

            return dfs(state, clock, checked)

        with mock.patch.object(solver, "_dfs", spy):
            solve(crag, costs, mode=mode)
        assert searched == parts


def _split_variables(crag, costs, mode):
    """_split's parts as each part's variables in the mode's numbering."""
    var_y, var_m, exact = _build(crag, costs, mode)
    return [
        [var_y[i] for i in ids] + [var_m[e] for e in edges]
        for _, ids, edges in solver._split(crag, var_y, var_m, exact)
    ]


def _zero_rule_sum(crag, costs, i):
    """costs with f_i set so that its lexed rule sum, with no candidate
    fixed yet, is exactly 0 in cost units in full mode: the tie bits
    alone make it > 0."""
    f = dict(costs.f)
    f[i] = -sum(min(0.0, costs.g[e]) for e in crag.adjacency if i in e)
    return CostTable(f, dict(costs.g))


@st.composite
def _tie_bit_cases(draw):
    crag, costs = draw(_crag_and_tie_costs(("unit", "k/1024", "zero")))
    i = draw(st.sampled_from(crag.ids()))
    return crag, _zero_rule_sum(crag, costs, i), i


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_tie_bit_cases())
def test_rule_fixed_by_the_tie_bit_alone_equals_brute_force(case):
    """A candidate whose f cancels its attractive merges exactly: its
    rule sum is 0 in cost units, so only the tie-break bit fixes it.
    Deselecting it, with its merges, keeps the cost and gives a
    lex-smaller (y, m), so brute_force selects it in no mode, and the
    split parts are those of ref_parts."""
    crag, costs, i = case
    var_y, var_m, exact = _build(crag, costs, "full")
    assert all(i not in ids for _, ids, _ in solver._split(crag, var_y, var_m, exact))
    for mode in MODES:
        var_y, var_m = _variables(crag, mode)
        want = ref_parts(crag, costs, var_y, var_m)
        assert _split_variables(crag, costs, mode) == want
        got = solve(crag, costs, mode=mode)
        assert got.optimal and got == brute_force(crag, costs, mode)
        assert got.y[i] == 0


def test_split_equals_brute_force():
    """Random graphs with unit costs, k/1024 costs, and costs that are 0
    or else quarters, one candidate's rule sum made exactly 0 in cost
    units: _split's parts are ref_parts,
    and solve is brute_force's answer in every mode.  The instances fall
    into several parts, fix candidates, and cross parts with g = 0
    edges, which no optimum merges."""
    rng = np.random.default_rng(3232)
    seen = {"several parts": 0, "fixed": 0, "zero edge between parts": 0}
    for k in range(240):
        crag = random_crag(rng)
        ids, edges = crag.ids(), list(crag.adjacency)
        n = len(ids) + len(edges)
        values = [
            rng.integers(-1, 2, size=n),
            rng.integers(-1024, 1025, size=n) / 1024,
            np.where(rng.random(n) < 0.5, 0, rng.integers(-4, 5, size=n) / 4),
        ][k % 3].astype(float).tolist()
        costs = CostTable(dict(zip(ids, values)), dict(zip(edges, values[len(ids):])))
        costs = _zero_rule_sum(crag, costs, ids[int(rng.integers(len(ids)))])
        for mode in MODES:
            var_y, var_m = _variables(crag, mode)
            parts = ref_parts(crag, costs, var_y, var_m)
            assert _split_variables(crag, costs, mode) == parts
            got = solve(crag, costs, mode=mode)
            assert got.optimal and got == brute_force(crag, costs, mode)
            part_of = {v: p for p, part in enumerate(parts) for v in part}
            seen["several parts"] += len(parts) > 1
            seen["fixed"] += any(v not in part_of for v in var_y.values())
            seen["zero edge between parts"] += any(
                costs.g[e] == 0
                and var_y[e[0]] in part_of
                and var_y[e[1]] in part_of
                and part_of[var_y[e[0]]] != part_of[var_y[e[1]]]
                for e in var_m
            )
    assert min(seen.values()) >= 25, seen


def test_solve_equals_two_pass_reference_on_larger_instances():
    """Beyond the brute-force budget, on tie-heavy and continuous costs:
    grids, and merge trees of synthetic images with up to 47 variables.
    The digest pins (y, m) of all 441 solves as the previous release's
    two-pass solver gave them, and as the cutting-plane loop that
    restarted the search each round gave them; no cost family here has
    ties to within rounding only, so exact sums keep every answer.  The
    searches of the parts turn down 86 leaves in all (iterations less
    one per solve) under the branching order by |cost| times one plus
    the forced count, with the plain bound.  Under the order by |cost|
    alone with the merge-forest bound they turned down 82, as the one
    search over each whole program did, where the round loop ran 514
    rounds."""
    digest = hashlib.sha256()
    iterations = 0
    for crag, costs in _larger_instances():
        for mode in MODES:
            got = solve(crag, costs, mode=mode)
            assert got.optimal
            answer = (sorted(got.y.items()), sorted(got.m.items()))
            digest.update(repr(answer).encode())
            iterations += got.iterations
    assert digest.hexdigest() == (
        "8e73fefd2e333c45cceae9185adc932bbeaa7d0c02ee91c1d49729f6055e055b"
    )
    assert iterations == 527


def _larger_instances():
    """The 147 (crag, costs) pairs of the digest test above."""
    rng = np.random.default_rng(2024)
    crags = [random_sparse_crag(rng) for _ in range(40)]
    crags += [pixel_grid_crag(3, 4), pixel_grid_crag(4, 4), pixel_grid_crag(4, 5)]
    config = PipelineConfig(seed_threshold=0.3, max_merges=3)
    for seed in range(500, 506):
        _, boundary, _ = generate_synthetic(1, 3, 1.0, seed, image_size=96)[0]
        crags.append(build_graph(boundary, config))
    for crag in crags:
        ids, edges = crag.ids(), list(crag.adjacency)
        n = len(ids) + len(edges)
        for values in (
            rng.integers(-1, 2, size=n).astype(float).tolist(),
            (rng.integers(-8, 9, size=n) / 8).tolist(),
            rng.normal(size=n).tolist(),
        ):
            yield crag, CostTable(dict(zip(ids, values)), dict(zip(edges, values[len(ids):])))


def test_search_tree_is_pinned(monkeypatch):
    """The digest test's 441 solves visit 4387 clock ticks in all, one
    search per part with path cuts at its leaves, branching by |cost|
    times one plus the count of variables that setting it to 1 forces,
    and pruning by the plain bound.  The rule fixes a selection in 377
    of them, and they fall into 777 parts; 35 are one part with nothing
    fixed.  Branching by |cost| alone, with the merge-forest bound
    (dropped since: it no longer saved time under the new order, though
    it pruned more of these small trees), they visited 3785.  One
    search over each whole program, with
    a tick at each part's start fewer but with its nodes over the fixed
    selections and across parts, visited 5295.  They visited 5766 while
    the merge forest charged each attractive merge to its edge's first
    end rather than to the end of larger selection cost.  The
    cutting-plane loop that restarted the search each round visited
    7403, on the same tree per round whether constraints were kept as
    slack rows or as implication lists."""
    clocks = []

    class Clock(solver._Clock):
        def __init__(self, time_limit):
            super().__init__(time_limit)
            clocks.append(self)

    monkeypatch.setattr(solver, "_Clock", Clock)
    for crag, costs in _larger_instances():
        for mode in MODES:
            solve(crag, costs, mode=mode)
    assert len(clocks) == 441
    assert sum(clock.ticks for clock in clocks) == 4387


# ---------------------------------------------------------------------------
# propagation


def test_failed_set_charges_and_refunds_the_same_rows():
    """A set that breaks one clause still charges the variable's later
    clauses, so undo_to, which refunds all of them, restores every
    slack: that of the matching <=-row each time."""
    clauses = [((0, 0), (1, 0)), ((0, 0), (2, 0))]
    rows = [({0: 1, 1: 1}, 1), ({0: 1, 2: 1}, 1)]
    no_implications = ([(0, ())] * 3, [(0, ())] * 3)
    state = _State([-1, -1, -1], no_implications)
    state.add_rows(clauses)
    mark, bound = len(state.trail), state.bound
    queue = []
    assert state._set(1, 1, queue)
    assert not state._set(0, 1, queue)
    assert state.slack == [ref_slack(row, state.value) for row in rows] == [-1, 0]
    state.undo_to(mark, bound)
    assert state.value == [None] * 3
    assert state.slack == [ref_slack(row, state.value) for row in rows] == [1, 1]
    assert state.bound == bound


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(MODES))
def test_propagation_reaches_the_fixpoint_of_the_explicit_rows(seed, mode):
    """Overlap and incidence as implication lists, and the path cuts as
    clauses, propagate to what unit propagation over the explicit
    rows reaches: the same conflict verdict, the same values and the
    same path-row slack after each literal of a random partial
    assignment, and undo_to returns to the root."""
    rng = np.random.default_rng(seed)
    crag = random_crag(rng) if seed % 2 else random_sparse_crag(rng)
    var_y, var_m = _variables(crag, mode)
    n = len(var_y) + len(var_m)
    cuts = []
    for density in (0.5, 0.8, 1.0):
        cuts += _random_cuts(rng, crag, var_y, var_m, density)
    rows = explicit_rows(crag, var_y, var_m, cuts)
    path_rows = rows[len(rows) - len(cuts):]
    state = _state(crag, _int_costs(rng, crag, -4, 5), mode, cuts)
    literals = []
    assert state.value == ref_unit_propagation(rows, n, literals)
    root = (list(state.value), list(state.slack), state.bound, len(state.trail))
    assert state.slack == [ref_slack(row, state.value) for row in path_rows]
    for v in rng.permutation(n).tolist()[: int(rng.integers(1, n + 1))]:
        val = int(rng.integers(2))
        literals.append((v, val))
        expect = ref_unit_propagation(rows, n, literals)
        if state.value[v] is None:
            holds = state.propagate(v, val)
        else:
            holds = state.value[v] == val
        assert holds == (expect is not None)
        if not holds:
            break
        assert state.value == expect
        assert state.slack == [ref_slack(row, expect) for row in path_rows]
        assert state.bound == sum(
            c for c, x in zip(state.costs, expect) if x == 1 or (x is None and c < 0)
        )
    state.undo_to(root[3], root[2])
    assert (state.value, state.slack, state.bound, len(state.trail)) == root


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(MODES))
def test_rows_added_deep_in_the_search_are_refunded_by_every_undo(seed, mode):
    """Clauses appended at a random deep node, as the search appends the
    cuts of a leaf it turns down, are charged for the values set there:
    every clause's slack equals ref_slack of its path row at that node
    and after each undo_to on the way back, and the root state comes
    back unchanged."""
    rng = np.random.default_rng(seed)
    crag = random_crag(rng) if seed % 2 else random_sparse_crag(rng)
    var_y, var_m = _variables(crag, mode)
    n = len(var_y) + len(var_m)
    cuts = _random_cuts(rng, crag, var_y, var_m, 0.8)
    clauses = _path_rows(cuts, var_m)
    rows = _cut_rows(crag, var_y, var_m, cuts)
    state = _state(crag, _int_costs(rng, crag, -4, 5), mode)
    state.add_rows(clauses[: len(clauses) // 2])
    root = (list(state.value), list(state.slack), state.bound, len(state.trail))
    marks = []
    for v in rng.permutation(n).tolist():
        if state.value[v] is None:
            marks.append((len(state.trail), state.bound))
            if not state.propagate(v, int(rng.integers(2))):
                break
    state.add_rows(clauses[len(clauses) // 2 :])
    assert state.slack == [ref_slack(row, state.value) for row in rows]
    for mark, bound in reversed(marks):
        state.undo_to(mark, bound)
        assert state.slack == [ref_slack(row, state.value) for row in rows]
    assert (state.value, state.slack[: len(root[1])], state.bound, len(state.trail)) == root


@pytest.mark.parametrize("mode", MODES)
def test_state_carried_across_rounds_equals_a_fresh_one(mode):
    """One state carried through the one search, which adds the clauses
    of every leaf it turns down, gives the answer that the round loop
    gets from a fresh state per round (_round_loop).  The search leaves
    the state at its root, with each clause's slack that of its path
    row at the root values."""
    rng = np.random.default_rng(15)
    crags = [pixel_grid_crag(3, 3), pixel_grid_crag(3, 4)]
    crags += [random_crag(rng) for _ in range(30)]
    rounds = turned_down = 0
    for crag in crags:
        var_y, var_m = _variables(crag, mode)
        costs = _int_costs(rng, crag, -4, 3)
        answers = _round_loop(crag, costs, mode)
        rounds += len(answers)
        state = _state(crag, costs, mode)
        root = (list(state.value), state.bound, len(state.trail))
        separated = []

        def cuts(value):
            new = _assignment_cuts(crag, value, mode)
            separated.extend(new)
            return _path_rows(new, var_m)

        assert _dfs(state, _Clock(None), cuts) == (answers[-1], True)
        assert (state.value, state.bound, len(state.trail)) == root
        rows = _cut_rows(crag, var_y, var_m, separated)
        assert state.slack == [ref_slack(row, state.value) for row in rows]
        turned_down += len(state.clauses) > 0
    assert (rounds > len(crags) and turned_down > 0) or mode == "merge_tree_only"


def _unique_optimum():
    crag = quad_crag()
    return crag, quad_costs(crag)


def _tied_optima():
    """y1 alone and the root 3 alone both cost -1; y1 is lex-smaller."""
    cands = [Candidate(3, (1, 2))]
    labels = np.array([[1, 1, 1, 1], [1, 1, 2, 2]])
    crag = build_crag(cands, [(1, 2)], labels)
    return crag, CostTable({1: -1.0, 2: 1.0, 3: -1.0}, {(1, 2): 1.0})


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


def _first_round(crag, costs):
    """The single search over the lexed costs with no path rows, as the
    round loop's first round ran it, and the least-cost assignments
    that exact enumeration finds for that program."""
    var_y, var_m, cvec = _program(crag, costs)
    got, _ = _dfs(_state(crag, costs), _Clock(None), _no_cuts)
    return got, _optima(cvec, explicit_rows(crag, var_y, var_m, []))


TIE_BRANCHES = {
    "unique optimum": _unique_optimum,
    "tie walk": _tied_optima,
}


@pytest.mark.parametrize("branch", sorted(TIE_BRANCHES))
def test_tie_break_branch(branch):
    """Exact enumeration finds one optimum on the "unique optimum"
    instance and several tied ones on the "tie walk" instance; on both
    the first round's single search returns the lex-smallest optimum,
    and the solve is brute_force's."""
    crag, costs = TIE_BRANCHES[branch]()
    got, optima = _first_round(crag, costs)
    taken = {"unique optimum": len(optima) == 1, "tie walk": len(optima) > 1}
    assert [b for b, holds in taken.items() if holds] == [branch]
    assert got == optima[0]
    assert solve(crag, costs) == brute_force(crag, costs)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_crag_and_tie_costs(("unit", "k/1024", "zero", "pairs"), budget=14))
def test_first_round_is_the_lex_smallest_optimum(case):
    """The first round's single search over the lexed costs returns the
    lex-smallest of the least-cost assignments that exact enumeration
    finds, whether there is one optimum or many, and the solve is
    brute_force's."""
    crag, costs = case
    got, optima = _first_round(crag, costs)
    assert got == optima[0]
    assert solve(crag, costs) == brute_force(crag, costs)


def _x_star_rounded_above_z_tied():
    cands = [Candidate(6, (3, 5))]
    labels = np.array([[3, 1], [5, 2], [4, 4]])
    crag = build_crag(
        cands,
        [(1, 2), (1, 3), (1, 6), (2, 4), (2, 5), (2, 6), (3, 5), (4, 5), (4, 6)],
        labels,
    )
    f = {1: 0.5, 2: 0.2, 3: 0.3, 4: -0.2, 5: -0.8, 6: 0.1}
    g = {
        (1, 2): -0.5, (1, 3): -0.1, (1, 6): 0.5, (2, 4): 0.5, (2, 5): 0.5,
        (2, 6): -0.9, (3, 5): -0.8, (4, 5): 0.6, (4, 6): -0.8,
    }
    return crag, CostTable(f, g)


def _x_star_rounded_above_z_alone():
    cands = [Candidate(4, (2, 3))]
    labels = np.array([[2, 2, 2], [1, 2, 2], [1, 3, 2], [1, 1, 2]])
    crag = build_crag(
        cands, [(1, 2), (1, 3), (1, 4), (2, 3)], labels
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
    """Instances on which a float-summing solver's optimum x*, summed in
    index order, came out above its own z*, so a tie-break on such sums
    passed over x*: once with another tied assignment to take instead,
    once with none.  Under exact sums they are plain instances."""
    crag, costs = FLOAT_SUM_CASES[case]()
    for mode in MODES:
        got = solve(crag, costs, mode=mode)
        assert got.optimal and got == brute_force(crag, costs, mode)


def test_each_turned_down_leaf_calls_the_module_separation(monkeypatch):
    """solve separates through the module attribute
    separate_path_constraints, once per leaf it turns down: iterations
    less one calls per solve, each returning a cut.  perfbench counts
    solver.path_cuts on that attribute, so a separation inlined into
    solve would read 0 there."""
    separate = solver.separate_path_constraints
    found = []

    def spy(crag, sol):
        cuts = separate(crag, sol)
        found.append(len(cuts))
        return cuts

    monkeypatch.setattr(solver, "separate_path_constraints", spy)
    rng = np.random.default_rng(41)
    turned_down = 0
    for k in range(40):
        crag = random_crag(rng) if k % 2 else random_sparse_crag(rng)
        costs = random_costs(rng, crag)
        for mode in MODES:
            found.clear()
            sol = solve(crag, costs, mode=mode)
            assert len(found) == sol.iterations - 1
            assert all(found)
            turned_down += len(found)
    assert turned_down > 0


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


def _tied_multicut():
    """A 7x8 pixel grid with f = -1 and g drawn from {-1, 0, 1}, so
    many merge costs tie.  It falls into 23 parts."""
    rng = np.random.default_rng(76)
    crag = pixel_grid_crag(7, 8)
    g = [float(rng.choice((-1.0, 0.0, 1.0))) for _ in crag.adjacency]
    return crag, CostTable({i: -1.0 for i in crag.ids()}, dict(zip(crag.adjacency, g)))


def test_timeout_at_the_first_incumbent(monkeypatch):
    """A multicut with tied merge costs (_tied_multicut).  The spy on the
    search's leaf check expires the solve's clock at the first leaf,
    which may become the first incumbent, and makes the next tick read
    it, so the deadline passes inside a part's search on any host, and
    the answer comes back at once."""
    crag, costs = _tied_multicut()
    expired_at, expired_in_search = [], []
    dfs = solver._dfs

    def spy(state, clock, cuts):
        def expire(value):
            if not expired_at:
                clock.deadline = time.monotonic() - 1.0
                clock.ticks |= 1023  # the next tick reads the clock
                expired_at.append(time.monotonic())
            return cuts(value)

        assign, optimal = dfs(state, clock, expire)
        if optimal is False:
            expired_in_search.append(True)
        return assign, optimal

    monkeypatch.setattr(solver, "_dfs", spy)
    sol = solve(crag, costs, time_limit=60.0)
    assert expired_in_search
    assert time.monotonic() - expired_at[0] < 0.5
    assert sol.optimal is False
    assert validate_solution(crag, sol) == []
    assert sol.objective <= 0.0


def _solve_within(crag, costs, mode, budget):
    """solve stopped at the clock tick after the first `budget`, as a
    deadline would stop it but on any host, and the ticks it used."""
    clocks = []

    class Clock(solver._Clock):
        def __init__(self, time_limit):
            super().__init__(time_limit)
            clocks.append(self)

        def tick(self):
            self.ticks += 1
            return self.ticks > budget

    with mock.patch.object(solver, "_Clock", Clock):
        sol = solve(crag, costs, mode=mode)
    return sol, clocks[0].ticks


def test_timeout_keeps_the_best_feasible_incumbent():
    """A multicut like the one of the test above, with half its merges
    attractive, stopped after 1000 ticks, returns the feasible incumbent
    it holds.  Its third of ten parts, of 34 pixels, is where the stop
    falls, and no tick is spent after it.  The cutting-plane loop that
    restarted the search each round returned the empty segmentation on
    the multicut above at 1000, 5000 and 20000 ticks: its round's
    incumbent broke path rows not yet in the pool, so the stop dropped
    it.  The split proves that one in 172 ticks."""
    rng = np.random.default_rng(76)
    crag = pixel_grid_crag(7, 8)
    p = (0.5, 0.25, 0.25)
    g = [float(rng.choice((-1.0, 0.0, 1.0), p=p)) for _ in crag.adjacency]
    costs = CostTable({i: -1.0 for i in crag.ids()}, dict(zip(crag.adjacency, g)))
    sol, ticks = _solve_within(crag, costs, "full", 1000)
    assert ticks == 1001
    assert sol.optimal is False
    assert validate_solution(crag, sol) == []
    assert sol.objective < 0.0


def test_a_stop_ends_the_solve(monkeypatch):
    """_Clock reads the time once every 1024 ticks, so a part searched
    after another part stopped would run on until the next read.  A
    clock that reports the deadline at one tick alone stops the solve of
    a graph of 23 parts at each tick in turn: no tick is spent after
    the stop, no part after the one that stopped is searched, each of
    them keeps 0, and the answer is feasible."""
    crag, costs = _tied_multicut()
    var_y, var_m, exact = _build(crag, costs, "full")
    parts = solver._split(crag, var_y, var_m, exact)
    assert len(parts) == 23
    dfs, searched = solver._dfs, []

    def spy(state, clock, cuts):
        searched.append(state.n)
        return dfs(state, clock, cuts)

    monkeypatch.setattr(solver, "_dfs", spy)
    whole, full = _solve_within(crag, costs, "full", math.inf)
    assert whole.optimal and len(searched) == 23
    stopped_in = set()
    for budget in range(1, full + 1):
        clocks = []

        class Clock(solver._Clock):
            def __init__(self, time_limit):
                super().__init__(time_limit)
                clocks.append(self)

            def tick(self):
                self.ticks += 1
                return self.ticks == budget

        searched.clear()
        with mock.patch.object(solver, "_Clock", Clock):
            sol = solve(crag, costs)
        assert clocks[0].ticks == budget and sol.optimal is False
        assert validate_solution(crag, sol) == []
        for _, ids, edges in parts[len(searched):]:
            assert not any(sol.y[i] for i in ids) and not any(sol.m[e] for e in edges)
        stopped_in.add(len(searched))
    assert stopped_in == set(range(1, 24))


@pytest.fixture(scope="module")
def over_segmented():
    """The over-segmenting setting of ROADMAP's full-mode sweep (256 px,
    12 cells, noise 1.0, seed threshold 0.15, at most 5 merges) and its
    model, trained on two images of seed 1."""
    config = PipelineConfig(seed_threshold=0.15, max_merges=5)
    return config, train_model(generate_synthetic(2, 12, 1.0, 1, image_size=256), config)


@pytest.mark.parametrize(
    "seed, image, ticks, objective",
    [
        (3, 0, 4821, -65.493229474499),
        (4, 2, 847, -63.145980638554),
        (4, 7, 17049, -59.142616796777),
    ],
)
def test_over_segmented_images_prove(over_segmented, seed, image, ticks, objective):
    """The sweep's three chorded images that full mode failed to prove
    in 5 s while the merge forest charged each attractive merge to its
    edge's first end.  With each merge charged to its costlier end, one
    search over the whole program proved them in `ticks` ticks, and
    each gets twice that; reduced and split into parts, they prove in
    138, 104 and 139 (106, 78 and 105 with the merge-forest bound and
    the order by |cost| alone).  Each objective is HiGHS's optimum
    (perfbench/reference.py)."""
    config, model = over_segmented
    raw, boundary, _ = generate_synthetic(
        image + 1, 12, 1.0, seed, image_size=256, chord_fraction=0.5
    )[image]
    crag = build_graph(boundary, config)
    node_feats, edge_feats = compute_features(crag, raw, boundary)
    costs = predict_costs(
        model["node_forest"], model["edge_forest"], crag, node_feats, edge_feats
    )
    sol, _ = _solve_within(crag, costs, "full", 2 * ticks)
    assert sol.optimal
    assert abs(sol.objective - objective) <= 1e-9
    assert validate_solution(crag, sol) == []


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_every_stop_returns_a_feasible_answer(seed):
    """Stopped after any number of ticks short of those its searches
    need, solve returns a feasible answer of objective <= 0 in every
    mode, having spent no tick after the stop; given all of them,
    brute_force's answer.  A program that the rule fixes whole needs no
    tick."""
    rng = np.random.default_rng(seed)
    while True:
        crag = random_crag(rng) if seed % 2 else random_sparse_crag(rng)
        if len(crag.ids()) + len(crag.adjacency) <= BRUTE_FORCE_LIMIT:
            break
    costs = random_costs(rng, crag)
    for mode in MODES:
        sol, full = _solve_within(crag, costs, mode, math.inf)
        assert sol.optimal and sol == brute_force(crag, costs, mode)
        for budget in range(full):
            sol, ticks = _solve_within(crag, costs, mode, budget)
            assert validate_solution(crag, sol) == []
            assert sol.objective <= 0.0
            assert sol.optimal is False and ticks == budget + 1


@pytest.mark.parametrize(
    "limit",
    [
        float("nan"), float("inf"), -1.0, "soon",
        pytest.param("5", id="str"), pytest.param(b"5", id="bytes"), True,
        pytest.param(10**400, id="int-past-float"),
    ],
)
def test_bad_time_limit_rejected(limit):
    """A NaN deadline used to be no deadline: monotonic() > nan is false.
    "5", b"5" and True used to pass as numbers through float(), and an
    int past float ended in its OverflowError."""
    crag = quad_crag()
    with pytest.raises(CmcError):
        solve(crag, quad_costs(crag), time_limit=limit)


def test_zero_time_limit_still_returns_a_feasible_answer():
    crag = quad_crag()
    sol = solve(crag, quad_costs(crag), time_limit=0)
    assert validate_solution(crag, sol) == []
