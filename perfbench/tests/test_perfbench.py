"""Self-tests of the benchmark: seeded inputs and traced call counts.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import math

import numpy as np
import pytest

import harness
import tracing
import workloads


def _generated(name, seed, workdir):
    workdir.mkdir()
    w = workloads.WORKLOADS[name](seed, workdir)
    argvs = [[a.replace(str(workdir), "<dir>") for a in argv] for argv in w.argvs]
    files = {p.name: p.read_bytes() for p in sorted(workdir.glob("*.json"))}
    return argvs, files


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed(name, tmp_path):
    first = _generated(name, 7, tmp_path / "a")
    assert first == _generated(name, 7, tmp_path / "b")
    if name != "verify_suite":
        assert first != _generated(name, 8, tmp_path / "c")


def test_dense_inputs_are_valid_and_past_the_horizon():
    rng = np.random.default_rng(3)
    h = workloads.dense_drive(rng)
    rho = workloads.dense_state(rng)
    assert np.array_equal(h, h.conj().T)
    levels = np.linalg.eigvalsh(h)
    lattice = workloads.DENSE_LATTICE
    nearest = np.abs(levels[:, None] - lattice[None, :]).min(axis=1)
    assert nearest.max() < 1e-12
    assert len(np.unique(np.round(levels, 9))) == lattice.size
    assert np.array_equal(rho, rho.conj().T)
    assert abs(np.trace(rho) - 1.0) < 1e-14
    assert np.linalg.eigvalsh(rho).min() > -1e-14
    gap = float(np.diff(lattice).min())
    coherence_left = math.exp(-workloads.DENSE_TAU_C * gap * gap * workloads.dense_t_max())
    assert coherence_left < workloads.DENSE_EPS


def _traced_op(name, seed, workdir):
    workdir.mkdir()
    w = workloads.WORKLOADS[name](seed, workdir)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        (record,) = harness.run_ops(w, 0.0, harness.host_reference_kernel(), tracer)
    finally:
        tracer.uninstall()
    assert record.ok
    return tracer, record


def test_traced_calls_repeat_and_cover_every_target(tmp_path):
    covered = set()
    for name in sorted(workloads.WORKLOADS):
        tracer, first = _traced_op(name, 1, tmp_path / f"{name}1")
        _, second = _traced_op(name, 2, tmp_path / f"{name}2")
        assert first.calls == second.calls, name
        assert first.calls[tracer.keys.index(("cli", "main"))] == 1
        covered |= {key for key, n in zip(tracer.keys, first.calls) if n > 0}
        assert len(tracer.span_id) == sum(first.calls)
    assert covered == set(tracer.keys)


def test_uninstall_restores_every_binding():
    from frqme import cli, operators, scenarios

    before = (operators.purity, scenarios.purity, cli.main)
    tracer = tracing.Tracer()
    tracer.install()
    assert scenarios.purity is not before[1]
    assert scenarios.purity is operators.purity
    tracer.uninstall()
    assert (operators.purity, scenarios.purity, cli.main) == before


def test_metric_names_match_benchmark_json():
    import json
    from pathlib import Path

    spec = json.loads((Path(harness.ROOT) / "BENCHMARK.json").read_text())
    tracer = tracing.Tracer()
    n = len(tracer.keys)
    records = [harness.OpRecord(0.5, True, 10, 0.01, [1] * n, [0.1] * n, 8)]
    e2e = harness.end_to_end(records, [0.2])
    layers = harness.per_layer(records, records, tracer)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: v["unit"] for k, v in e2e.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: v["unit"] for k, v in layers.items()}
