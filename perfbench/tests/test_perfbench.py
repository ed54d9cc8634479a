"""Smoke runs of every workload at tiny size, and tests that each check fires.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import os
from pathlib import Path

import pytest

import harness
from cmc.crag import objective_value, solution_from_json, solution_to_json
from cmc.solver import MODES, solve
from reference import reference_optimum
from workloads import WORKLOADS, Pipeline, SolverHard, StagedCli

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

TINY = {
    "pipeline-256": dict(size=96, cells=2, n_train=1, n_eval=2),
    "solver-hard": dict(small=(96, 2, 1, 99, 2), large=(128, 3, 1, 99, 1)),
    "staged-cli": dict(size=96, cells=2, n_train=1, n_eval=2),
}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def result_of(line):
    return json.loads(line)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_untraced_and_traced(name, tmp_path):
    workload = tiny(name)
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = harness.run(workload, seed=3, seconds=0.05, trace=trace,
                             workdir=str(tmp_path))
        assert result["failed"] == 0, result["failures"]
        line = result_of(harness.result_line(
            result, [m["name"] for m in SPEC[kind]]))
        assert line["correct"] and line["attempted"] >= 1
        assert result["digest"]["keys"] >= 1
    assert result["metrics"]["solver.optimal_frac"][0] == 1.0


def test_same_seed_same_outputs(tmp_path):
    workload = tiny("solver-hard")
    digests = [harness.run(workload, 4, 0.05, 0, str(tmp_path))["digest"]
               for _ in range(2)]
    assert digests[0] == digests[1]


def test_reference_agrees_with_solver():
    workload = tiny("solver-hard")
    state = workload.setup(5, None)
    for crag, costs in state["graphs"]:
        for mode in MODES:
            expected = solve(crag, costs, mode).objective
            assert reference_optimum(crag, costs, mode).objective == pytest.approx(
                expected, abs=1e-9)


def merge_unselected(solution):
    """Set m = 1 on an edge with an unselected end: an infeasible assignment."""
    edge = next(e for e in sorted(solution.m)
                if not (solution.y[e[0]] and solution.y[e[1]]))
    solution.m[edge] = 1


class FlippedMerge(SolverHard):
    def run_op(self, state, key):
        solution = super().run_op(state, key)
        merge_unselected(solution)
        costs = state["graphs"][int(key.split("/")[0][5:])][1]
        solution.objective = objective_value(costs.f, costs.g, solution.y,
                                             solution.m)
        return solution


class FlippedMergePipeline(Pipeline):
    def run_op(self, state, key):
        solution, segmentation, metrics = super().run_op(state, key)
        merge_unselected(solution)
        return solution, segmentation, metrics


class FlippedMergeCli(StagedCli):
    def run_op(self, state, key):
        codes, out = super().run_op(state, key)
        path = Path(out) / "solution.json"
        solution = solution_from_json(json.loads(path.read_text()))
        merge_unselected(solution)
        path.write_text(json.dumps(solution_to_json(solution)))
        return codes, out


class WrongObjective(SolverHard):
    def run_op(self, state, key):
        solution = super().run_op(state, key)
        solution.objective -= 1.0
        return solution


class TimedOut(SolverHard):
    def run_op(self, state, key):
        solution = super().run_op(state, key)
        solution.optimal = False
        return solution


class MissingModel(StagedCli):
    def setup(self, seed, workdir):
        state = super().setup(seed, workdir)
        os.remove(f"{state['root']}/model.json")
        return state


@pytest.mark.parametrize("cls, reason", [
    (FlippedMerge, "infeasible"),
    (FlippedMergePipeline, "infeasible"),
    (FlippedMergeCli, "infeasible"),
    (WrongObjective, "not the assignment's"),
    (MissingModel, "nonzero exit codes"),
])
def test_each_check_fails_the_op(cls, reason, tmp_path):
    workload = cls(**dataclasses.asdict(tiny(cls.__mro__[1]().name)))
    result = harness.run(workload, seed=3, seconds=0.05, trace=0,
                         workdir=str(tmp_path))
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"], result["failures"]
    assert all(reason in failure for _, failure in result["failures"]), \
        result["failures"]
    assert not result_of(harness.result_line(result, []))["correct"]


def test_time_out_is_reported_not_failed(tmp_path):
    workload = TimedOut(**dataclasses.asdict(tiny("solver-hard")))
    result = harness.run(workload, seed=3, seconds=0.05, trace=0,
                         workdir=str(tmp_path))
    assert result["failed"] == 0, result["failures"]
    assert result["metrics"]["timeout_frac"][0] == 1.0
    assert result["digest"]["keys"] == 0
