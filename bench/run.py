#!/usr/bin/env python3
"""sectorflow benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload certify-sweep --seed 1 --seconds 20 --trace 0

Builds the workload's seeded scenario configs (see ``workloads.py``), then
runs their ops one after another in this process, repeating the round of
ops until ``--seconds`` have passed (whole rounds only, so every run holds
the same mix of ops).  Every op goes through the output gate: it must
return exit code 0, raise nothing, and write a report holding every check
name its tag emits on the seed code.  The SHA-256 of each op's output tree
must repeat from round to round.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` traced rounds run for ``--seconds``, then one untraced round
for the tracing overhead, and the line holds the per-layer metrics instead.  Traces, timings and digests go
to ``.bench_runs/`` at the repository root, never under an op's output
directory.  The exit code is 0 only when every op passed its gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_SAMPLES = 5

# Per-layer metrics handed to the benchmark contract.  A layer's busy time
# appears here only when every workload calls that layer; the trace summary
# (``layers`` in result.json) holds busy and self time for every wrapped
# function, including the elliptic and angular_ode layers that some
# workloads bypass on purpose.
LAYER_TIMES = (
    "fields.write_field.busy_s",
    "fields.sample_stream.busy_s",
    "fields.sample_velocity.busy_s",
    "fields.laplacian_polar.busy_s",
    "rigidity.recover_g.busy_s",
    "rigidity.homogeneity_fit.busy_s",
    "rigidity.boundary_report.busy_s",
    "rigidity.jacobian_check.busy_s",
    "exact.construct_exact.busy_s",
    "exact.euler_residual_closed_form.busy_s",
    "scenarios.run_scenario.self_s",
)
# Exact work counts: for one seed they must repeat in every round and run.
EXACT_COUNTS = (
    "elliptic.splu.calls",
    "elliptic.splu.fill_nnz",
    "elliptic.newton_iters",
    "elliptic.no_convergence",
    "angular_ode.integrate_alpha1.calls",
    "angular_ode.rk4_steps",
    "angular_ode.blowups",
    "fields.write_field.bytes",
    "fields.field_from_csv.bytes",
    "scenarios.report_bytes",
    "domain.build_grid.calls",
)


def import_sectorflow() -> dict:
    """Import sectorflow from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import sectorflow
        from sectorflow import angular_ode, elliptic, exact, fields, rigidity, scenarios
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import sectorflow from {SRC}: {exc}")
    if Path(sectorflow.__file__).resolve().parent != SRC / "sectorflow":
        raise SystemExit(f"bench: imported sectorflow from {sectorflow.__file__}, not {SRC}")
    return {"scenarios": scenarios, "exact": exact, "fields": fields,
            "rigidity": rigidity, "elliptic": elliptic, "angular_ode": angular_ode}


# ----------------------------------------------------------------------
# set-up: import, config generation, parsing


@dataclass
class Prepared:
    workload: workloads.Workload
    inputs: Path
    op_root: Path
    scenarios: dict = field(default_factory=dict)  # op name -> parsed Scenario


def prepare(mods, workload: str, seed: int, run_dir: Path) -> Prepared:
    """Write every op's INI under ``run_dir/inputs`` and parse it back."""
    op_root = run_dir / "ops"
    wl = workloads.build(workload, seed, op_root)
    inputs = run_dir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    prep = Prepared(wl, inputs, op_root)
    for op in wl.ops + wl.warmup + wl.probes:
        path = inputs / f"{op.name}.ini"
        path.write_text(op.ini())
        prep.scenarios[op.name] = mods["scenarios"].parse_config(path)
    if wl.batch:
        (inputs / "batch.ini").write_text(
            workloads.batch_ini(f"{op.name}.ini" for op in wl.ops))
        (inputs / "warmup.ini").write_text(
            workloads.batch_ini(f"{op.name}.ini" for op in wl.warmup))
    return prep


def setup_sample(workload: str, seed: int, run_dir: Path) -> float:
    """Seconds to import sectorflow, generate the configs and parse them."""
    t0 = time.perf_counter()
    mods = import_sectorflow()
    prepare(mods, workload, seed, run_dir)
    return time.perf_counter() - t0


def setup_in_children(workload: str, seed: int, run_dir: Path, count: int) -> list:
    """Repeat the set-up in fresh interpreters, one at a time."""
    samples = []
    for k in range(count):
        where = run_dir / f"setup-{k}"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-sample", str(where)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up sample failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
        shutil.rmtree(where, ignore_errors=True)
    return samples


# ----------------------------------------------------------------------
# ops and the output gate


@dataclass
class OpResult:
    name: str
    wall: float
    cpu: float
    passed: bool
    reason: str = ""
    digest: str = ""


def tree_digest(path: Path) -> str:
    """SHA-256 over the relative paths and bytes of every file under path."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0")
        h.update(f.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def gate(op: workloads.Op, out_dir: Path, code, error: str | None) -> tuple[bool, str, str]:
    """(passed, reason, digest of the output tree) for one finished op."""
    digest = tree_digest(out_dir) if out_dir.exists() else ""
    if error is not None:
        return False, error, digest
    if code != 0:
        return False, f"exit code {code}", digest
    report = json.loads((out_dir / "report.json").read_text())
    names = {c["name"] for c in report.get("checks", [])}
    missing = sorted(set(op.required) - names)
    if missing:
        return False, f"report lacks checks {missing}", digest
    return True, "", digest


def run_op(mods, prep: Prepared, op: workloads.Op) -> OpResult:
    out_dir = prep.op_root / op.name
    shutil.rmtree(out_dir, ignore_errors=True)
    scn = prep.scenarios[op.name]
    code, error = None, None
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        code, _ = mods["scenarios"].run_scenario(scn, out_dir)
    except Exception as exc:  # an uncaught exception fails the op, not the bench
        error = f"uncaught {type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return OpResult(op.name, wall, cpu, *gate(op, out_dir, code, error))


def run_batch(mods, prep: Prepared, ops: list, ini: str, tracer=None) -> list:
    """One ``run_batch`` call over ``ops``; each scenario in it is one op."""
    scen = mods["scenarios"]
    out_dir = prep.op_root / "batch"
    shutil.rmtree(out_dir, ignore_errors=True)
    times = {}
    inner = scen.run_scenario

    def timed(scn, out):
        if tracer is not None:
            tracer.op = scn.name
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            return inner(scn, out)
        finally:
            times[scn.name] = (time.perf_counter() - t0, time.process_time() - c0)

    scen.run_scenario = timed
    codes, error = {}, None
    try:
        _, summary = scen.run_batch(prep.inputs / ini, out_dir)
        codes = {s["name"]: s["exit_code"] for s in summary["scenarios"]}
    except Exception as exc:  # aborts the batch: the running op failed
        error = f"uncaught {type(exc).__name__}: {exc}"
    finally:
        scen.run_scenario = inner
    results = []
    for op in ops:
        wall, cpu = times.get(op.name, (0.0, 0.0))
        if op.name in codes:
            verdict = gate(op, out_dir / op.name, codes[op.name], None)
        else:
            verdict = (False, error if op.name in times else "not run", "")
        results.append(OpResult(op.name, wall, cpu, *verdict))
    return results


def run_round(mods, prep: Prepared, ops: list, tracer=None, batch_ini: str | None = None) -> list:
    """Run ``ops`` one by one, or as one ``run_batch`` over ``batch_ini``."""
    if batch_ini is not None:
        results = run_batch(mods, prep, ops, batch_ini, tracer)
    else:
        results = []
        for op in ops:
            if tracer is not None:
                tracer.op = op.name
            results.append(run_op(mods, prep, op))
    shutil.rmtree(prep.op_root, ignore_errors=True)
    return results


# ----------------------------------------------------------------------
# environment and metrics


def environment() -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            deps = mod.show_config(mode="dicts")["Build Dependencies"]
            return f'{deps["blas"]["name"]} {deps["blas"].get("version", "")}'.strip()
        except Exception:  # show_config layout differs between releases
            return "unknown"

    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
    }


def end_to_end(rounds: list, setup_samples: list) -> dict:
    ops = [r for rnd in rounds for r in rnd]
    passed = sum(r.passed for r in ops)
    op_wall = sum(r.wall for r in ops)
    walls = [r.wall for r in ops]
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": passed / op_wall,
        "op_s.p50": statistics.median(walls),
        "cpu_s": sum(r.cpu for r in ops) / len(rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_s.p50": "s", "cpu_s": "s",
             "peak_rss_mb": "MB"}


def per_layer(tracers: list, traced_rounds: list, untraced_round: list,
              setup_tracer, probes: list) -> tuple[dict, dict, list]:
    """(contract metrics, full layer table, count mismatches)."""
    problems = []
    counts = [{k: t.counts[k] for k in EXACT_COUNTS} for t in tracers]
    for later in counts[1:]:
        for k in EXACT_COUNTS:
            if later[k] != counts[0][k]:
                problems.append(f"count {k} differs between rounds: {counts[0][k]} vs {later[k]}")
    first = tracers[0]
    calls = first.counts["angular_ode.integrate_alpha1.calls"]
    distinct = first.counts["angular_ode.integrate_alpha1.distinct"]
    table: dict = {}
    for t in tracers:
        for k, v in t.layer_times().items():
            table[k] = table.get(k, 0.0) + v / len(tracers)
    traced_wall = statistics.median(sum(r.wall for r in rnd) for rnd in traced_rounds)
    untraced_wall = sum(r.wall for r in untraced_round)
    metrics = {k: (table.get(k, 0.0), "s") for k in LAYER_TIMES}
    metrics["scenarios.parse_config.busy_s"] = (
        setup_tracer.layer_times().get("scenarios.parse_config.busy_s", 0.0), "s")
    metrics.update({k: (counts[0][k], "count") for k in EXACT_COUNTS})
    metrics["angular_ode.useful_ratio"] = (distinct / calls if calls else 1.0, "ratio")
    metrics["trace.overhead"] = (traced_wall / untraced_wall, "ratio")
    metrics["known_defects.failing"] = (sum(not p.passed for p in probes), "count")
    return metrics, table, problems


# ----------------------------------------------------------------------


def code_hash() -> str:
    h = hashlib.sha256()
    for f in sorted(list((SRC / "sectorflow").glob("*.py")) + list(BENCH.glob("*.py"))):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def check_counts_across_runs(workload: str, seed: int, counts: dict) -> list:
    """Compare exact counts with an earlier run of this seed on this code."""
    path = RUNS / "counts" / f"{workload}-seed{seed}-{code_hash()}.json"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, sort_keys=True))
        return []
    earlier = json.loads(path.read_text())
    return [f"count {k} differs from an earlier run of this seed: {earlier.get(k)} vs {v}"
            for k, v in counts.items() if earlier.get(k) != v]


def digest_problems(rounds: list) -> list:
    seen, problems = {}, []
    for rnd in rounds:
        for r in rnd:
            if r.passed and seen.setdefault(r.name, r.digest) != r.digest:
                problems.append(f"output of {r.name} differs between rounds")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-sample", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_sample is not None:
        print(setup_sample(args.workload, args.seed, args.setup_sample))
        return 0

    load_at_start = os.getloadavg()
    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    t0 = time.perf_counter()
    mods = import_sectorflow()
    setup_tracer = spans.Tracer() if args.trace else None
    saved = setup_tracer.install(mods) if setup_tracer else []
    try:
        prep = prepare(mods, args.workload, args.seed, run_dir)
    finally:
        spans.restore(saved)
    setup_samples = [time.perf_counter() - t0]
    setup_samples += setup_in_children(args.workload, args.seed, run_dir, SETUP_SAMPLES - 1)
    env = dict(environment(), load_at_start=load_at_start)
    wl = prep.workload

    round_ini, warmup_ini = ("batch.ini", "warmup.ini") if wl.batch else (None, None)
    run_round(mods, prep, wl.warmup, batch_ini=warmup_ini)
    rounds, tracers, problems = [], [], []
    start = time.perf_counter()
    while True:
        tracer = spans.Tracer() if args.trace else None
        saved = tracer.install(mods) if tracer else []
        try:
            rounds.append(run_round(mods, prep, wl.ops, tracer, round_ini))
        finally:
            spans.restore(saved)
        if tracer:
            tracers.append(tracer)
        if time.perf_counter() - start >= args.seconds:
            break
    # after the traced rounds, so that any first-round cost lands on them
    untraced = run_round(mods, prep, wl.ops, batch_ini=round_ini) if args.trace else None

    ops = [r for rnd in rounds for r in rnd]
    failures = [f"{r.name}: {r.reason}" for r in ops if not r.passed]
    outputs = hashlib.sha256("".join(f"{r.name} {r.digest}\n" for r in rounds[0]).encode())
    problems += digest_problems(rounds + ([untraced] if untraced else []))
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "rounds": len(rounds),
              "outputs_sha256": outputs.hexdigest(),
              "ops": [[vars(r) for r in rnd] for rnd in rounds]}
    if args.trace:
        probes = run_round(mods, prep, wl.probes)
        metrics, table, count_problems = per_layer(
            tracers, rounds, untraced, setup_tracer, probes)
        problems += count_problems
        problems += check_counts_across_runs(
            args.workload, args.seed, {k: metrics[k][0] for k in EXACT_COUNTS})
        result.update(layers=table, untraced_ops=[vars(r) for r in untraced],
                      probes=[vars(p) for p in probes])
        with open(run_dir / "trace.jsonl", "w") as fh:
            setup_tracer.write(fh, "setup")
            for k, t in enumerate(tracers):
                t.write(fh, f"round{k}")
    else:
        metrics = {k: (v, E2E_UNITS[k]) for k, v in end_to_end(rounds, setup_samples).items()}
        walls = sorted(r.wall for r in ops)
        result["op_s.p90"] = {"value": walls[int(0.9 * (len(walls) - 1))], "samples": len(walls)}
    result["setup_samples"] = setup_samples
    result["failures"], result["problems"] = failures, problems
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (run_dir / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(prep.op_root, ignore_errors=True)

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"{args.workload} seed {args.seed}: {len(rounds)} round(s), {len(ops)} ops, "
          f"{len(failures)} failed (fail_ratio {len(failures) / len(ops):.4f}), "
          f"outputs sha256 {outputs.hexdigest()[:16]}")
    if not args.trace:
        p90 = result["op_s.p90"]
        print(f"  op_s.p90 = {p90['value']:.6g} s (from {p90['samples']} ops; not a contract "
              f"metric, since not every workload has the >= 100 ops a p90 needs)")
    for k, (v, u) in metrics.items():
        print(f"  {k} = {v if isinstance(v, int) else f'{v:.6g}'} {u}")
    for line in failures + problems:
        print(f"bench: {line}", file=sys.stderr)
    correct = not failures and not problems
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failures),
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
