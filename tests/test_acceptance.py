"""Acceptance gate: one test (and one PASS/FAIL line) per shipping criterion.

The random-instance suite is shared across the solver criteria; every
tolerance is written into the assertion itself.
"""

import time

import numpy as np
import pytest

from cmc.cli import main
from cmc.costmodel import best_effort
from cmc.crag import Solution, validate_solution
from cmc.evaluate import rand_index, voi
from cmc.pipeline import PipelineConfig, build_graph, run_pipeline, train_model
from cmc.solver import extract_segmentation, separate_path_constraints, solve
from cmc.synth import generate_synthetic

from util import (
    brute_force,
    quad_costs,
    quad_crag,
    random_costs,
    random_crag,
    random_gt,
    report,
)

SUITE_SIZE = 200
MODES = {"full": "full", "mt": "merge_tree_only", "mc": "leaf_multicut_only"}


@pytest.fixture(scope="module")
def suite():
    rng = np.random.default_rng(0)
    instances = []
    for _ in range(SUITE_SIZE):
        crag = random_crag(rng)
        instances.append((crag, random_costs(rng, crag), random_gt(rng, crag)))
    return instances


@pytest.fixture(scope="module")
def solved(suite):
    t0 = time.monotonic()
    solutions = {name: [] for name in MODES}
    oracle = {name: [] for name in MODES}
    for crag, costs, _ in suite:
        for name, mode in MODES.items():
            solutions[name].append(solve(crag, costs, mode=mode))
            oracle[name].append(brute_force(crag, costs, mode=mode))
    elapsed = time.monotonic() - t0
    return solutions, oracle, elapsed


def test_criterion_1_oracle_equivalence(suite, solved):
    solutions, oracle, elapsed = solved
    checked = equal = 0
    for name in MODES:
        for got, want in zip(solutions[name], oracle[name]):
            checked += 1
            equal += got.objective == want.objective
    report(
        equal == checked == 3 * SUITE_SIZE and elapsed < 60.0,
        f"criterion 1 (oracle equivalence): {equal}/{checked} exact objective "
        f"matches over {SUITE_SIZE} random instances x 3 modes in "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_constraint_feasibility(suite, solved):
    solutions, _, _ = solved
    bad = 0
    for name in MODES:
        for (crag, _, _), sol in zip(suite, solutions[name]):
            bad += bool(validate_solution(crag, sol))
    for crag, _, gt in suite:
        for mode in ("full", "merge_tree_only"):
            bad += bool(validate_solution(crag, best_effort(crag, gt, mode=mode)))

    crag = quad_crag()
    y = {i: 0 for i in crag.ids()}
    m = {e: 0 for e in crag.adjacency}
    y[1] = y[2] = y[3] = y[5] = 1
    m[(1, 2)] = m[(1, 3)] = 1
    families = {
        v.family
        for v in validate_solution(crag, Solution(y=y, m=m, objective=0.0))
    }
    rejected = {"overlap", "path"} <= families
    report(
        bad == 0 and rejected,
        f"criterion 2 (constraint feasibility): {bad} infeasible outputs across "
        f"{5 * SUITE_SIZE} solver/best-effort assignments; invalid hand-built "
        f"assignment rejected with {sorted(families)}",
    )


def test_criterion_3_mode_nesting(solved):
    solutions, _, _ = solved
    violations = sum(
        not (f.objective <= mt.objective and f.objective <= mc.objective)
        for f, mt, mc in zip(
            solutions["full"], solutions["mt"], solutions["mc"]
        )
    )
    # constructed instance: the object spans the two non-sibling
    # candidates 3 and 5, reachable only by selecting and merging both
    crag = quad_crag()
    costs = quad_costs(crag)
    full = solve(crag, costs).objective
    mt = solve(crag, costs, mode="merge_tree_only").objective
    mc = solve(crag, costs, mode="leaf_multicut_only").objective
    report(
        violations == 0 and full < mt and full < mc,
        f"criterion 3 (mode nesting): full <= min(mt, mc) on "
        f"{SUITE_SIZE}/{SUITE_SIZE} random instances; constructed instance "
        f"strict ({full} < {mt} and {full} < {mc})",
    )


def test_criterion_4_expressiveness():
    cfg = PipelineConfig()
    triples = generate_synthetic(20, 3, 0.0, 101, chord_fraction=1.0)
    wins = worse = 0
    for raw, boundary, gt in triples:
        crag = build_graph(boundary, cfg)
        seg_full = extract_segmentation(crag, best_effort(crag, gt, mode="full"))
        seg_mt = extract_segmentation(
            crag, best_effort(crag, gt, mode="merge_tree_only")
        )
        v_full = voi(seg_full, gt, ignore_background=True)[2]
        v_mt = voi(seg_mt, gt, ignore_background=True)[2]
        wins += v_full < v_mt
        worse += v_full > v_mt
    report(
        worse == 0 and wins >= 5,
        f"criterion 4 (expressiveness): best-effort VOI never worse than the "
        f"merge-tree restriction on 20 straddling images, strictly better on "
        f"{wins} (>= 5 required)",
    )


def test_criterion_5_cutting_plane_termination(suite, solved):
    solutions, _, _ = solved
    remaining = 0
    max_iter = 0
    for name in MODES:
        for (crag, _, _), sol in zip(suite, solutions[name]):
            remaining += len(separate_path_constraints(crag, sol))
            max_iter = max(max_iter, sol.iterations)
    report(
        remaining == 0 and max_iter <= 20,
        f"criterion 5 (cutting-plane termination): 0 remaining violated path "
        f"constraints ({remaining} found); max iterations {max_iter} <= 20",
    )


def test_criterion_6_metric_correctness():
    rng = np.random.default_rng(1)
    identity_ok = True
    for _ in range(50):
        x = rng.integers(0, 4, size=(8, 8))
        identity_ok &= voi(x, x) == (0.0, 0.0, 0.0)
        identity_ok &= rand_index(x, x) == 1.0
    gt = np.array([[1, 1, 1, 1]])
    pred = np.array([[1, 1, 2, 2]])
    hand_ok = voi(pred, gt) == (1.0, 0.0, 1.0) and rand_index(pred, gt) == 1 / 3
    swap_ok = True
    for _ in range(50):
        a = rng.integers(0, 4, size=(8, 8))
        b = rng.integers(0, 4, size=(8, 8))
        sa, ma, _ = voi(a, b)
        sb, mb, _ = voi(b, a)
        swap_ok &= sa == mb and ma == sb
    report(
        identity_ok and hand_ok and swap_ok,
        "criterion 6 (metric correctness): 50 identities (0,0,0)/1.0, "
        "4-pixel case (split 1.0 bit, rand 1/3), 50 exact split/merge swaps",
    )


def test_criterion_7_end_to_end_benchmark():
    t0 = time.monotonic()
    cfg = PipelineConfig()
    model = train_model(generate_synthetic(10, 3, 0.1, 1), cfg)
    f_scores = []
    vois = []
    for raw, boundary, gt in generate_synthetic(10, 3, 0.1, 2):
        _, _, metrics = run_pipeline(cfg, boundary, raw, gt=gt, model=model)
        f_scores.append(metrics["f_score"])
        vois.append(metrics["voi"])
    elapsed = time.monotonic() - t0
    mean_f = float(np.mean(f_scores))
    mean_voi = float(np.mean(vois))
    report(
        mean_f >= 0.9 and mean_voi <= 0.5 and elapsed < 300.0,
        f"criterion 7 (end-to-end benchmark): train seed 1 / eval seed 2, "
        f"noise 0.1: mean F {mean_f:.3f} >= 0.9, mean VOI {mean_voi:.3f} <= "
        f"0.5 bits, {elapsed:.0f}s < 300s",
    )


def test_criterion_8_determinism(tmp_path):
    data = tmp_path / "data"
    main(["synth", "--n-images", "1", "--n-cells", "3", "--noise-level", "0.1",
          "--rng-seed", "31", "--out-dir", str(data)])
    args = [
        "pipeline",
        "--boundary", str(data / "boundary_000.pgm"),
        "--raw", str(data / "raw_000.pgm"),
        "--gt", str(data / "gt_000.pgm"),
        "--n-trees", "25",
        "--rng-seed", "42",
    ]
    rc_a = main(args + ["--out-dir", str(tmp_path / "a")])
    rc_b = main(args + ["--out-dir", str(tmp_path / "b")])
    identical = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("solution.json", "segmentation.pgm")
    )
    report(
        rc_a == 0 and rc_b == 0 and identical,
        "criterion 8 (determinism): two pipeline runs with identical config "
        "produced bit-identical solution.json and segmentation.pgm",
    )
