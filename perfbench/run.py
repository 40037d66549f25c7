#!/usr/bin/env python3
"""End-to-end benchmark of the frqme CLI, with an optional per-layer trace.

Usage, from the repository root:

    python3 perfbench/run.py --workload pulse_fine_grid --seed 1 --seconds 36 --trace 0

Each operation is one in-process ``frqme.cli.main(argv)`` call (config
parse, compute, artifact write) on inputs generated from ``--seed``.  Ops
run back to back for ``--seconds``.  Every op's exit code, stdout and
artifacts are checked.  ``frqme`` is imported from this checkout's
``src/``, never from an installed copy.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` the first half of the time runs untraced and the second
half traced, and the last line reports the per-layer metrics; the spans
are saved under ``.perfbench_run/``.  The lines before it carry the
environment record and diagnostics such as ``host_ref_s``.

BLAS is pinned to one thread on both sides of any comparison: OpenBLAS
otherwise starts nproc threads even for the tiny matrices used here.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

BLAS_THREADS = 1
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    if not (SRC / "frqme" / "cli.py").is_file():
        print(f"error: no frqme sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)

    import frqme
    if Path(frqme.__file__).resolve().parent != SRC / "frqme":
        print(f"error: frqme imported from {frqme.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    import tracing
    from workloads import WORKLOADS

    workdir = RUN_DIR / f"work_{args.workload}_{args.seed}_{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        print(json.dumps({"env": harness.environment(args.seed)}), flush=True)
        setup_times = harness.measure_setup()
        workload = WORKLOADS[args.workload](args.seed, workdir)
        host_ref = harness.host_reference_kernel()
        warm = harness.run_ops(workload, 0.0, host_ref)
        if not args.trace:
            records = harness.run_ops(workload, args.seconds, host_ref, first=1)
            metrics = harness.end_to_end(records, setup_times)
            traced_ok = True
        else:
            untraced = harness.run_ops(workload, args.seconds / 2, host_ref, first=1)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = harness.run_ops(workload, args.seconds / 2, host_ref, tracer,
                                         first=1 + len(untraced))
            finally:
                tracer.uninstall()
            tracer.save(RUN_DIR / f"spans_{args.workload}_seed{args.seed}.npz")
            records = untraced + traced
            metrics = harness.per_layer(untraced, traced, tracer)
            # Exactly one cli.main span per op shows the wrappers intercepted;
            # ops of one workload must make identical calls.
            main_calls = tracer.keys.index(("cli", "main"))
            traced_ok = (traced[0].calls[main_calls] == 1
                         and all(r.calls == traced[0].calls for r in traced))
        times = [r.seconds for r in records]
        print(json.dumps({"diagnostics": {
            "ops": len(records),
            "tail_percentile": harness.TAIL_PERCENTILE,
            "samples_beyond_tail": sum(t > harness.tail(times) for t in times),
            "setup_launches_s": setup_times,
            "host_ref_s": statistics.median(r.host_ref_s for r in records),
        }}), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(not r.ok for r in records)
    correct = failed == 0 and warm[0].ok and traced_ok
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
