"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pipeline-256 --seed 1 --seconds 10 --trace 0

Run from the repository root.  Prints one line per measure (name, value,
unit), then, as the last line, a JSON object with correct, attempted,
failed and the metrics BENCHMARK.json lists: end_to_end with --trace 0,
per_layer with --trace 1.  The full run record (run information, every
measure, op latencies, failures, output digest, spans) is written to
perfbench/results/.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pipeline-256", "solver-hard", "staged-cli")
# one thread per library in this process; set before numpy is imported
PINNED = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cmc" / "__init__.py").is_file():
        print(f"error: no cmc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(PINNED)
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    from workloads import WORKLOADS as BY_NAME

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=results)
    workload = BY_NAME[args.workload]
    try:
        result = harness.run(workload, args.seed, args.seconds, args.trace,
                             workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"run": harness.run_info(workload, args.seed, args.seconds,
                                      args.trace, PINNED), **result}
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    harness.print_report(result)
    print(f"record {path.relative_to(ROOT)}")
    print(harness.result_line(result, names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
