"""Benchmark for besselkit: one workload per run, one JSON line of results.

Usage, from the root of a checkout that has ``src/besselkit``::

    python3 perfbench/run.py --workload fuzz-small --seed 1 --seconds 20 --trace 0

``--seconds`` fixes the number of rounds of the same work; it is never a
time box.  With ``--trace 0`` the last line of standard output
holds the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics from spans recorded around each call (see ``probes.py``), and the
spans are written to ``.perfbench_out/trace-<workload>-<seed>.jsonl``.
Diagnostics go to standard error.  Exits 1 when the package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="besselkit benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "besselkit", "__init__.py")):
        print(f"error: no besselkit package under {src}; run from the repository root", file=sys.stderr)
        return 1
    sys.path.insert(0, src)
    import besselkit

    if not os.path.abspath(besselkit.__file__).startswith(src + os.sep):
        print(f"error: imported besselkit from {besselkit.__file__}, not from {src}", file=sys.stderr)
        return 1
    import phases
    import probes
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    out_dir = os.path.join(root, ".perfbench_out")
    run = phases.Run(WORKLOADS[args.workload], args.seed, args.seconds, Tracer(bool(args.trace)), root, out_dir)
    try:
        if args.trace:
            metrics = probes.per_layer(run)
            run.tracer.write(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl"))
        else:
            metrics = phases.end_to_end(run)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
