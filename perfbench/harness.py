"""Closed-loop runner: set-up, timed ops, checks, metrics, run record.

One caller runs one op at a time.  Untraced runs repeat the set-up and
report its median as setup_s, then time ops until the run length is
used up.  Traced runs set up once under the Tracer, run the loop once
untraced and once traced on the same inputs, and report per-layer
numbers plus the tracing overhead (traced minus untraced time of the
same ops).  Failures are counted, never raised.

Times are CPU seconds scaled to a reference host speed (see clock.py),
except for ops whose solve stopped at its time limit: those last the
limit on any host, so their wall time is used as it is.
"""

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import time
from dataclasses import asdict, dataclass

import numpy as np
import scipy

from clock import (REFERENCE_KERNEL_S, Scaled, kernel_time,
                   speed_factors)
from spans import PATCHES, SETUP, Tracer
from workloads import Check, derived_seeds

SETUP_REPEATS = 3

# per-layer self times, in seconds per op (per set-up for layers that only
# work during set-up)
SELF_TIMED = tuple(name for name, _, _ in PATCHES if isinstance(name, str))
CLI_COMMANDS = ("build-crag", "features", "costs", "solve", "eval", "train")
COUNTS = ("features.values", "hierarchy.superpixels", "crag.candidates",
          "crag.edges", "solver.iterations", "solver.path_cuts",
          "solver.timeouts", "pgm.bytes", "cli.json_bytes")


@dataclass
class Op:
    key: str
    wall: float
    cpu: float
    output: object
    error: str = None
    factor: float = None  # host speed scale factor, see clock.py


def timed_loop(workload, state, seconds, tracer=None):
    """Whole passes over the keys, in order, until `seconds` have passed.

    Stopping only between passes keeps the mix of ops the same whatever
    the speed, so medians over ops of very different cost stay comparable.
    """
    keys = workload.keys(state)
    ops, kernel = [], [kernel_time()]
    start = time.perf_counter()
    while len(ops) % len(keys) or time.perf_counter() - start < seconds:
        key = keys[len(ops) % len(keys)]
        if tracer is not None:
            tracer.op = len(ops)
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            output, error = workload.run_op(state, key), None
        except Exception as exc:  # a failed op is counted, the run goes on
            output, error = None, f"{type(exc).__name__}: {exc}"
        ops.append(Op(key, time.perf_counter() - wall,
                      time.process_time() - cpu, output, error))
        kernel.append(kernel_time())
    for op, factor in zip(ops, speed_factors(kernel)):
        op.factor = factor
    return ops


def check_ops(workload, state, ops):
    """One Check per op; repeated keys must give byte-identical outputs."""
    checks, first = [], {}
    for op in ops:
        if op.error is not None:
            checks.append(Check(failure=op.error))
            continue
        try:
            check = workload.check(state, op.key, op.output)
        except Exception as exc:  # an output the checks cannot read fails
            check = Check(failure=f"check raised {type(exc).__name__}: {exc}")
        if check.failure is None and check.digest_bytes:
            seen = first.setdefault(op.key, check.digest_bytes)
            if seen != check.digest_bytes:
                check.failure = "output differs from an earlier run of the op"
        checks.append(check)
    return checks


def _mean(values):
    values = [v for v in values if v is not None]
    return statistics.fmean(values) if values else None


def latencies(ops, checks):
    """Each op's time: scaled CPU time, or wall time if its solve timed out."""
    return [op.wall if check.timed_out else op.cpu * op.factor
            for op, check in zip(ops, checks)]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(ops, checks, setup_times, rss_mb):
    """{name: (value, unit)} of every end-to-end measure this run has."""
    times = latencies(ops, checks)
    failed = sum(c.failure is not None for c in checks)
    out = {
        "setup_s": (statistics.median(setup_times), "s"),
        "latency_s.p50": (statistics.median(times), "s"),
        "throughput_ops_s": (len(ops) / sum(times), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "failed_frac": (failed / len(ops), "ratio"),
    }
    if len(times) >= 100:
        p90 = statistics.quantiles(times, n=10)[-1]
        if sum(t > p90 for t in times) >= 10:
            out["latency_s.p90"] = (p90, "s")
    distinct = {}
    for op, check in zip(ops, checks):
        distinct.setdefault(op.key, check)
    quality = {
        "f_score": (_mean(c.f_score for c in distinct.values()), "ratio"),
        "voi_bits": (_mean(c.voi for c in distinct.values()), "bits"),
        "objective_gap": (_mean(c.objective_gap for c in checks), "ratio"),
        "timeout_frac": (_mean(float(c.timed_out) for c in checks), "ratio"),
    }
    out.update({k: v for k, v in quality.items() if v[0] is not None})
    return out


def per_layer(tracer, traced, untraced):
    """{name: (value, unit)} from the traced loop and the traced set-up.

    traced and untraced are (ops, checks) of the two loops.  Span times
    are wall seconds, scaled by the traced loop's median speed factor.
    """
    n_ops = len(traced[0])
    factor = statistics.median(op.factor for op in traced[0])

    def per_unit(table, name):
        if name in table["op"]:
            return table["op"][name] / n_ops
        return table[SETUP].get(name, 0)  # one traced set-up

    selfs, totals = tracer.self_times(), tracer.total_times()
    out = {f"{n}.self_s": (per_unit(selfs, n) * factor, "s")
           for n in SELF_TIMED}
    out.update({f"cli.{c}.s": (per_unit(totals, f"cli.{c}") * factor, "s")
                for c in CLI_COMMANDS})
    out.update({n: (per_unit(tracer.counts, n), "count") for n in COUNTS})
    solves = tracer.counts["op"]["solver.solves"]
    out["solver.optimal_frac"] = (
        tracer.counts["op"]["solver.optimal_solves"] / solves if solves
        else 0.0, "ratio")
    out["tracing_overhead_s"] = (tracing_overhead(traced, untraced), "s")
    return out


def tracing_overhead(traced, untraced):
    """Median over traced ops of (its time - the same key's untraced time).

    Pairing ops by key keeps differences between inputs out of it.
    """
    by_key = {}
    for op, t in zip(untraced[0], latencies(*untraced)):
        by_key.setdefault(op.key, []).append(t)
    return statistics.median(
        t - statistics.median(by_key[op.key])
        for op, t in zip(traced[0], latencies(*traced)))


def self_time_shares(tracer, traced_ops):
    """Each span name's self time as a share of all traced op wall time."""
    op_time = sum(op.wall for op in traced_ops)
    return dict(sorted(((name, t / op_time)
                        for name, t in tracer.self_times()["op"].items()),
                       key=lambda kv: -kv[1]))


def digest(ops, checks):
    """sha256 over the outputs of the first run of every key, in op order."""
    h, seen = hashlib.sha256(), set()
    for op, check in zip(ops, checks):
        if op.key not in seen and check.digest_bytes:
            seen.add(op.key)
            h.update(op.key.encode() + b"\0" + check.digest_bytes)
    return {"sha256": h.hexdigest(), "keys": len(seen)}


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def run_info(workload, seed, seconds, trace, pinned):
    return {
        "workload": workload.name,
        "why": workload.why,
        "parameters": asdict(workload),
        "seed": seed,
        **derived_seeds(seed),
        "seconds": seconds,
        "trace": trace,
        "loop": "closed, one caller, one process",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "thread_pinning": pinned,
        "time": (f"CPU seconds scaled to a host where the clock.py kernel "
                 f"takes {REFERENCE_KERNEL_S * 1e3:g} ms; timed-out ops: "
                 f"wall seconds"),
    }


def run(workload, seed, seconds, trace, workdir):
    """Everything one invocation measures, as a JSON-ready dict."""
    if trace:
        tracer = Tracer()
        with Scaled() as span, tracer:
            state = workload.setup(seed, workdir)
        setup_times = [span.seconds]
        untraced = timed_loop(workload, state, seconds)
        with tracer:
            traced = timed_loop(workload, state, seconds, tracer)
        ops = untraced + traced
        checks = check_ops(workload, state, ops)
        metrics = per_layer(tracer, (traced, checks[len(untraced):]),
                            (untraced, checks[:len(untraced)]))
        extra = {"self_time_shares": self_time_shares(tracer, traced),
                 "trace": tracer.to_json()}
    else:
        setup_times, state = [], None
        for _ in range(SETUP_REPEATS):
            state = None  # the previous set-up's state is not kept alive
            gc.collect()
            with Scaled() as span:
                state = workload.setup(seed, workdir)
            setup_times.append(span.seconds)
        ops = timed_loop(workload, state, seconds)
        rss_mb = peak_rss_mb()  # before the checks do work of their own
        checks = check_ops(workload, state, ops)
        metrics = end_to_end(ops, checks, setup_times, rss_mb)
        extra = {}
    failures = [(op.key, c.failure) for op, c in zip(ops, checks)
                if c.failure is not None]
    return {
        "metrics": metrics,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:20],
        "setup_times_s": setup_times,
        "ops": [[op.key, op.wall, op.cpu, op.factor, t]
                for op, t in zip(ops, latencies(ops, checks))],
        "digest": digest(ops, checks),
        **extra,
    }


def result_line(result, names):
    """The last stdout line: the named metrics with correct/attempted/failed."""
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        raise KeyError(f"run did not measure {missing}")
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n][0],
                        "unit": result["metrics"][n][1]} for n in names},
    })


def print_report(result):
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value!r} {unit}")
    for name, share in list(result.get("self_time_shares", {}).items())[:8]:
        print(f"share {name} {share:.3f}")
    print(f"ops {result['attempted']} failed {result['failed']} "
          f"digest {result['digest']['sha256'][:16]} over "
          f"{result['digest']['keys']} keys")
    for key, failure in result["failures"]:
        print(f"failed {key}: {failure}")
