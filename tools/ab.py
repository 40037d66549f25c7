#!/usr/bin/env python3
"""Compare the end-to-end perfbench metrics of one workload between a revision and this tree.

Usage, from anywhere inside the repository:

    python3 tools/ab.py REV --workload W --pairs N

REV (any git revision) is extracted as ``tools/battery.py`` does, with
``git archive``.  Pair i (i = 1, ..., N) runs

    perfbench/run.py --workload W --seed i --seconds S --trace 0

once from REV and once from this checkout, each in a fresh process, with
S the ``run_seconds`` of this tree's BENCHMARK.json.  Odd pairs run REV
first and even pairs this tree first, so neither side always meets the
host in the same state.

For each end-to-end metric of BENCHMARK.json the report gives each side's
median [Q1, Q3], the relative change of the median, and one verdict
against the metric's ``bound`` and ``better``, the first that holds of:
"worse" when this tree's median is worse than REV's by more than the
bound; "better" when this tree wins at least nine tenths of the pairs
(ties count for neither side) and its median beats REV's by more than
REV's interquartile range; "unresolved" when either side's interquartile
range is wider than the bound times its median; "within bound".  Only
pairs whose two runs both completed are compared.  The failed-op count of
each side follows.  Each run's metrics are printed as it ends.

Exit status: 1 when a run exits non-zero or reports itself not correct, or
when a metric is "worse"; otherwise 0.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from battery import ROOT, _extract  # noqa: E402


def summary(metric: dict, rev: list, tree: list) -> tuple:
    """(line to print, verdict) for one end-to-end metric's values on each side.

    ``metric`` is a BENCHMARK.json ``end_to_end`` entry; ``rev`` and ``tree``
    hold one value per run, ``rev[i]`` and ``tree[i]`` the two runs of pair i.
    """
    (r1, rm, r3), (t1, tm, t3) = (np.percentile(v, [25, 50, 75]) for v in (rev, tree))
    change = tm / rm - 1.0
    bound = metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0  # positive: this tree is worse
    wins = sum(sign * (t - r) < 0 for r, t in zip(rev, tree))
    if sign * change > bound:
        verdict = "worse"
    elif 10 * wins >= 9 * len(tree) and sign * (rm - tm) > r3 - r1:
        verdict = "better"
    elif r3 - r1 > bound * rm or t3 - t1 > bound * tm:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return (f"{metric['name']}: {rm:.4g} [{r1:.4g}, {r3:.4g}] -> {tm:.4g} [{t1:.4g}, {t3:.4g}]"
            f" {change:+.1%}, bound {bound:.0%}: {verdict}"), verdict


def _run(tree: Path, workload: str, seed: int, seconds: float):
    """The last stdout line of one perfbench run, parsed; None when the process fails."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"run failed with exit {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare this tree with")
    parser.add_argument("--workload", required=True, help="a BENCHMARK.json workload")
    parser.add_argument("--pairs", required=True, type=int, help="runs per side")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(prefix="frqme-ab-") as tmp:
        trees = {args.rev: _extract(args.rev, Path(tmp) / "rev"), "tree": ROOT}
        reports = {side: [] for side in trees}
        for seed in range(1, args.pairs + 1):
            for side in (trees if seed % 2 else reversed(trees)):
                report = _run(trees[side], args.workload, seed, bench["run_seconds"])
                reports[side].append(report)
                if report is not None:
                    print(f"pair {seed}, {side}: " + ", ".join(
                        f"{name} {m['value']:.4g}" for name, m in report["metrics"].items()),
                          flush=True)
    passed = all(r is not None and r["correct"] for runs in reports.values() for r in runs)
    done = {side: [r for r in runs if r is not None] for side, runs in reports.items()}
    pairs = [pair for pair in zip(*reports.values()) if None not in pair]
    if pairs:
        print(f"{args.workload}, {args.pairs} pairs, {args.rev} -> tree:")
        for metric in bench["end_to_end"]:
            line, verdict = summary(metric, *([r["metrics"][metric["name"]]["value"] for r in runs]
                                              for runs in zip(*pairs)))
            print(f"  {line}")
            passed &= verdict != "worse"
    print("  failed ops: " + ", ".join(f"{side} {sum(r['failed'] for r in runs)}"
                                       for side, runs in done.items()))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
