"""Tests of the benchmark itself.  Run with ``python3 -m pytest bench -q``.

The seed-sweep test runs every generated op once per workload and seed,
about a minute per seed on a 2-CPU machine.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import spans
import workloads

MODS = run.import_sectorflow()
SEEDS = (1, 2, 3)
# the only ops allowed to fail on the seed code: the known defects
KNOWN_FAILING = {
    "certify-sweep": {"verify-probe-thm2_a3-n512-csv", "verify-probe-thm2_a3-n512-npy"},
    "solve-ladder": {"probe-thm2_a1-n384"},
    "mixed-batch": set(),
}


def _benchmark_json() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_generated_op_passes_except_known_defects(tmp_path, workload, seed):
    prep = run.prepare(MODS, workload, seed, tmp_path)
    batch_ini = "batch.ini" if prep.workload.batch else None
    results = run.run_round(MODS, prep, prep.workload.ops, batch_ini=batch_ini)
    results += run.run_round(MODS, prep, prep.workload.probes)
    failing = {r.name for r in results if not r.passed}
    assert failing == KNOWN_FAILING[workload], [r for r in results if not r.passed]


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.build(workload, 7, tmp_path)
        b = workloads.build(workload, 7, tmp_path)
        c = workloads.build(workload, 8, tmp_path)
        assert [op.ini() for op in a.ops] == [op.ini() for op in b.ops]
        assert [op.ini() for op in a.ops] != [op.ini() for op in c.ops]


def _small_rounds(tmp_path):
    """Cheap ops of every pipeline kind, as (prepared workload, ops) pairs."""
    certify = run.prepare(MODS, "certify-sweep", 4, tmp_path / "certify")
    mixed = run.prepare(MODS, "mixed-batch", 4, tmp_path / "mixed")
    keep = {"thm1i-n64", "thm1ii-n64", "thm2_a1-n64", "slide-n500", "atlas-n256"}
    return [
        (certify, certify.workload.warmup),
        (mixed, [op for op in mixed.workload.ops if op.name in keep]),
    ]


def _run_small(rounds, tracer=None):
    results = []
    for prep, ops in rounds:
        results += run.run_round(MODS, prep, ops, tracer)
    return results


def test_wrappers_change_no_output_and_restore_originals(tmp_path):
    rounds = _small_rounds(tmp_path)
    originals = {(m, a): getattr(MODS[m], a) for m, a, _ in spans.TARGETS}
    plain = _run_small(rounds)
    tracer = spans.Tracer()
    saved = tracer.install(MODS)
    try:
        traced = _run_small(rounds, tracer)
    finally:
        spans.restore(saved)
    assert all(r.passed for r in plain + traced)
    assert [r.digest for r in plain] == [r.digest for r in traced]
    assert {(m, a): getattr(MODS[m], a) for m, a, _ in spans.TARGETS} == originals
    assert tracer.counts["elliptic.splu.calls"] > 0
    assert tracer.counts["fields.field_from_csv.calls"] == 1


def test_wrapped_functions_return_identical_values():
    tracer = spans.Tracer()
    ode = MODS["angular_ode"]
    wrapped = tracer.wrap("angular_ode.integrate_alpha1", ode.integrate_alpha1)
    args = (1.0, -1.0, 0.3, (0.0, 1.0), ode.OdeConfig(step=1e-2))
    a, b = ode.integrate_alpha1(*args), wrapped(*args)
    assert np.array_equal(a.profile.f_vals, b.profile.f_vals) and a.blew_up == b.blew_up
    assert tracer.counts["angular_ode.rk4_steps"] == 100

    import scipy.sparse as sp

    A = sp.random(60, 60, density=0.1, random_state=0, format="csc") + 4 * sp.identity(60, format="csc")
    lu = tracer.wrap("elliptic.splu", MODS["elliptic"].splu)(A.tocsc())
    ref = MODS["elliptic"].splu(A.tocsc())
    rhs = np.arange(60.0)
    assert np.array_equal(lu.solve(rhs), ref.solve(rhs))
    assert tracer.counts["elliptic.splu.fill_nnz"] == ref.L.nnz + ref.U.nnz

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("demo", boom)()
    assert tracer.spans[-1].name == "demo" and tracer.counts["demo.calls"] == 1


def test_exact_counts_repeat(tmp_path):
    rounds = _small_rounds(tmp_path)
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        saved = tracer.install(MODS)
        try:
            _run_small(rounds, tracer)
        finally:
            spans.restore(saved)
        counts.append({k: tracer.counts[k] for k in run.EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["elliptic.newton_iters"] > 0 and counts[0]["fields.write_field.bytes"] > 0


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    t = tracer.layer_times()
    assert t["outer.busy_s"] >= t["inner.busy_s"] > 0
    assert t["outer.self_s"] == pytest.approx(t["outer.busy_s"] - t["inner.busy_s"])


def test_metric_names_match_benchmark_json():
    bench = _benchmark_json()
    op = run.OpResult("x", 1.0, 1.0, True)
    e2e = run.end_to_end([[op, op]], [0.5])
    assert set(e2e) == {m["name"] for m in bench["end_to_end"]}
    assert run.E2E_UNITS == {m["name"]: m["unit"] for m in bench["end_to_end"]}
    tracer = spans.Tracer()
    layer, _, _ = run.per_layer([tracer], [[op]], [op], tracer, [])
    assert {k: u for k, (_, u) in layer.items()} == {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_program(tmp_path):
    """In a checkout holding only the benchmark, the bench exits nonzero
    and prints no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
