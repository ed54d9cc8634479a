"""Spans and counts recorded from outside the program.

The Tracer replaces public functions at the module attributes the
program calls them through (``cmc.pipeline.compute_features``,
``cmc.cli.solve``, ...) with wrappers that record one span per call:
name, start, end, parent span and op id.  Spans stay in memory until the
run ends.  A layer's self time is its span's duration minus the
durations of its direct child spans; the program is single-threaded, so
children never overlap.
"""

import functools
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import cmc.cli
import cmc.crag
import cmc.hierarchy
import cmc.pgm
import cmc.pipeline
import cmc.solver

SETUP = "setup"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, or -1 at top level
    op: object  # op index, or SETUP


def _features_count(args, result):
    node_feats, edge_feats = result
    return {"features.values": sum(len(v) for v in node_feats.values())
            + sum(len(v) for v in edge_feats.values())}


def _superpixel_count(args, result):
    return {"hierarchy.superpixels": int(result.max())}


def _crag_count(args, result):
    return {"crag.candidates": len(result.candidates),
            "crag.edges": len(result.adjacency)}


def _solve_count(args, result):
    return {"solver.solves": 1,
            "solver.optimal_solves": int(result.optimal),
            "solver.timeouts": int(not result.optimal),
            "solver.iterations": result.iterations}


def _path_cut_count(args, result):
    return {"solver.path_cuts": len(result)}


def _pgm_count(args, result):
    return {"pgm.bytes": os.path.getsize(args[0])}


def _cli_name(args):
    return f"cli.{args[0][0]}"


def _cli_count(args, result):
    return {"cli.json_bytes": sum(
        os.path.getsize(a) for a in args[0]
        if a.endswith(".json") and os.path.exists(a))}


# (span name or function of the call's args, count function or None,
#  module attributes the program calls the function through)
PATCHES = (
    ("hierarchy.seeded_watershed", _superpixel_count,
     [(cmc.pipeline, "seeded_watershed")]),
    ("hierarchy.build_merge_tree", None, [(cmc.pipeline, "build_merge_tree")]),
    ("hierarchy.extract_candidates", None,
     [(cmc.pipeline, "extract_candidates")]),
    ("crag.build_crag", _crag_count,
     [(cmc.hierarchy, "build_crag"), (cmc.crag, "build_crag")]),
    ("crag.crag_from_json", None, [(cmc.cli, "crag_from_json")]),
    ("crag.crag_to_json", None, [(cmc.cli, "crag_to_json")]),
    ("crag.validate_solution", None, [(cmc.solver, "validate_solution")]),
    ("features.compute_features", _features_count,
     [(cmc.pipeline, "compute_features"), (cmc.cli, "compute_features")]),
    ("features.features_to_json", None, [(cmc.cli, "features_to_json")]),
    ("features.features_from_json", None, [(cmc.cli, "features_from_json")]),
    ("costmodel.best_effort", None, [(cmc.pipeline, "best_effort")]),
    ("costmodel.train_forest", None, [(cmc.pipeline, "train_forest")]),
    ("costmodel.predict_costs", None,
     [(cmc.pipeline, "predict_costs"), (cmc.cli, "predict_costs")]),
    ("solver.solve", _solve_count,
     [(cmc.solver, "solve"), (cmc.pipeline, "solve"), (cmc.cli, "solve")]),
    ("solver.separate_path_constraints", _path_cut_count,
     [(cmc.solver, "separate_path_constraints")]),
    ("solver.extract_segmentation", None,
     [(cmc.pipeline, "extract_segmentation"),
      (cmc.cli, "extract_segmentation")]),
    ("evaluate.segmentation_metrics", None,
     [(cmc.pipeline, "segmentation_metrics"),
      (cmc.cli, "segmentation_metrics")]),
    ("pgm.read", _pgm_count, [(cmc.pgm, "read_pgm")]),
    ("pgm.write", _pgm_count, [(cmc.pgm, "write_pgm")]),
    (_cli_name, _cli_count, [(cmc.cli, "main")]),
    ("pipeline.run_pipeline", None, [(cmc.pipeline, "run_pipeline")]),
)


def _scope(span):
    return SETUP if span.op == SETUP else "op"


class Tracer:
    """Records spans and counts while installed (use as a context manager)."""

    def __init__(self):
        self.spans = []
        self.counts = {"op": Counter(), SETUP: Counter()}
        self.op = SETUP
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name(args) if callable(name) else name, 0.0, 0.0,
                        parent, self.op)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                self.counts[_scope(span)].update(count(args, result))
            return result

        return traced

    def __enter__(self):
        for name, count, targets in PATCHES:
            for module, attr in targets:
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, count))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        return False

    def self_times(self):
        """{"op" or SETUP: {span name: summed self seconds}}."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out = {"op": defaultdict(float), SETUP: defaultdict(float)}
        for span, children in zip(self.spans, child_time):
            out[_scope(span)][span.name] += span.end - span.start - children
        return out

    def total_times(self):
        """{"op" or SETUP: {span name: summed span seconds}}."""
        out = {"op": defaultdict(float), SETUP: defaultdict(float)}
        for span in self.spans:
            out[_scope(span)][span.name] += span.end - span.start
        return out

    def to_json(self):
        return {
            "spans": [[s.name, s.start, s.end, s.parent, s.op]
                      for s in self.spans],
            "counts": {scope: dict(c) for scope, c in self.counts.items()},
        }
