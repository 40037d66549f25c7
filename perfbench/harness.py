"""Timing loop, set-up timing, metric aggregation and the environment record.

Import this module only after the BLAS thread variables are pinned and
``src/`` is first on ``sys.path`` (``run.py`` does both), so that numpy
starts with the pinned thread count and ``frqme`` comes from the working
tree being measured.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import gc
import hashlib
import io
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from frqme import cli

import tracing

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Fixed tail percentile.  At the op rates of the three workloads a
# run_seconds-long run leaves at least ten samples above it; a fixed value
# keeps op_tail_s comparable between commits whose op counts differ.
TAIL_PERCENTILE = 75
SETUP_LAUNCHES = 11
SETUP_COMMAND = [sys.executable, "-I", "-c",
                 "import sys; sys.path.insert(0, 'src'); import frqme.cli"]
HOST_REF_DIM = 256

clock = time.perf_counter


@dataclasses.dataclass
class OpRecord:
    seconds: float
    ok: bool
    bytes_written: int
    host_ref_s: float
    calls: list = None
    self_s: list = None
    expm_n3: int = 0


def host_reference_kernel():
    """Return a timer of one fixed 256x256 complex matmul, a host-drift diagnostic."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((HOST_REF_DIM, HOST_REF_DIM)) * (1 + 1j)

    def run() -> float:
        start = clock()
        a @ a
        return clock() - start
    return run


def run_op(workload, index: int):
    """One timed ``cli.main`` call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    start = clock()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(workload.argvs[index]))
        except Exception:
            traceback.print_exc()
            rc = None
    elapsed = clock() - start
    if rc != 0:
        sys.stderr.write(f"op {workload.argvs[index]} exited {rc}: {err.getvalue()}")
    try:
        ok, written = workload.check(index, rc, out.getvalue())
    except (KeyError, TypeError, ValueError, OSError) as exc:
        sys.stderr.write(f"op {workload.argvs[index]}: unreadable output: {exc!r}\n")
        ok, written = False, 0
    return elapsed, ok, written


def run_ops(workload, seconds: float, host_ref, tracer=None, first: int = 0) -> list:
    """Run ops back to back (closed loop, one client) for ``seconds``.

    At least one op runs.  Garbage is collected and the host reference
    kernel timed between ops, outside the op's timing.
    """
    records = []
    deadline = clock() + seconds
    i = first
    while True:
        index = i % len(workload.argvs)
        ref = host_ref()
        gc.collect()
        if tracer is not None:
            tracer.op_id = i
            calls0, self0, n3_0 = tracer.snapshot()
        elapsed, ok, written = run_op(workload, index)
        record = OpRecord(elapsed, ok, written, ref)
        if tracer is not None:
            calls1, self1, n3_1 = tracer.snapshot()
            record.calls = [b - a for a, b in zip(calls0, calls1)]
            record.self_s = [b - a for a, b in zip(self0, self1)]
            record.expm_n3 = n3_1 - n3_0
        records.append(record)
        i += 1
        if clock() >= deadline:
            return records


def tail(times: list) -> float:
    """Nearest-rank TAIL_PERCENTILE of the op times."""
    ordered = sorted(times)
    rank = max(1, math.ceil(TAIL_PERCENTILE / 100.0 * len(ordered)))
    return ordered[rank - 1]


def measure_setup() -> list:
    """Wall time of fresh interpreters that import frqme.cli from src/.

    The first launch only warms the bytecode cache and is dropped.  No
    timeout: with one, ``Popen.wait`` polls with sleeps of up to 50 ms,
    which quantizes the measured time.
    """
    times = []
    for _ in range(SETUP_LAUNCHES + 1):
        start = clock()
        subprocess.run(SETUP_COMMAND, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(clock() - start)
    return times[1:]


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(records: list, setup_times: list) -> dict:
    times = [r.seconds for r in records]
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail(times), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(untraced: list, traced: list, tracer) -> dict:
    metrics = {}
    for j, (module, function) in enumerate(tracer.keys):
        prefix = tracing.metric_prefix(module, function)
        metrics[f"{prefix}.calls"] = (statistics.median_low(r.calls[j] for r in traced), "count")
        metrics[f"{prefix}.self_s"] = (statistics.median(r.self_s[j] for r in traced), "s")
    metrics["kernels.expm.n3_sum"] = (statistics.median_low(r.expm_n3 for r in traced), "count")
    metrics["cli.bytes_written"] = (
        statistics.median_low(r.bytes_written for r in untraced + traced), "bytes")
    base = statistics.median(r.seconds for r in untraced)
    metrics["trace.overhead_frac"] = (
        statistics.median(r.seconds for r in traced) / base - 1.0, "ratio")
    metrics["host_ref_s"] = (
        statistics.median(r.host_ref_s for r in untraced + traced), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, when it has one."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "frqme").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_pinned": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads_reported": _blas_threads(),
        "git_revision": _git_revision(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }
