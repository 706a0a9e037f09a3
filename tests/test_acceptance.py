"""End-to-end acceptance checks, one test per certified capability.

Each test prints a single pass/fail line (visible with ``pytest -s`` or
in the captured output of a failure) and asserts the pinned tolerances.
"""

import math
import time
from pathlib import Path

import numpy as np

from sectorflow import (
    Alpha1Frame,
    ExpForm,
    FamilyKind,
    GeneralFrame,
    OdeConfig,
    PowerForm,
    RawFrame,
    ScalarField,
    Thm1Relation,
    Thm2Relation,
    VectorField,
    ZeroG,
    boundary_report,
    construct_exact,
    default_initial_guess,
    euler_residual_closed_form,
    g_functional_check,
    general_frame_operator,
    integrate_alpha1,
    integrate_general,
    jacobian_check,
    laplace_operator,
    laplacian_polar,
    periodic_shooting,
    profile_residual,
    recover_g,
    s_variance,
    sample_stream,
    sample_velocity,
    sliding_check,
    solve_semilinear,
    w_equation_residual,
)
from sectorflow.domain import LogPolarGrid
from sectorflow.scenarios import run_batch

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

FAMILIES = [
    (FamilyKind.RADIAL_ALPHA1, {"p": -0.5, "sign": 1.0}),
    (FamilyKind.TAN, {"v": 1.0, "p": 0.0, "C": 0.0}),
    (FamilyKind.RATIONAL, {"v": 1.0, "C": 1.0}),
    (FamilyKind.TANH, {"v": 1.0, "p": -1.0, "C": 1.0}),
    (FamilyKind.COS_POWER, {"alpha": 2.0, "C1": 1.0, "C2": 0.0}),
    (FamilyKind.SIN, {"alpha": 2.0, "p": -0.5, "C": math.pi / 2}),
    (FamilyKind.PURE_ROTATION, {"alpha": 2.0, "c": 3.0}),
]

THETA0 = 1.0


def _verdict(label: str, ok: bool, detail: str = ""):
    tail = f"  ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {label}{tail}")
    assert ok, f"{label}{tail}"


def _grid256():
    return LogPolarGrid(0.0, math.log(2), 256, 256, THETA0)


def test_criterion_01_exact_family_residuals():
    worst_euler = worst_analytic = worst_discrete = worst_time = 0.0
    grid = _grid256()
    t_nodes = np.linspace(0.0, THETA0, 1001)
    for kind, params in FAMILIES:
        t0 = time.perf_counter()
        sol = construct_exact(kind, params, THETA0)
        res = max(euler_residual_closed_form(sol, grid))
        r1, r2 = sol.closed_form_residual(t_nodes)
        prof = sol.profile(THETA0, n=1000)
        d1, d2 = profile_residual(prof)
        scale = 1.0 + float(np.max(np.abs(prof.f_vals)) + np.max(np.abs(prof.v_vals))) ** 2
        elapsed = time.perf_counter() - t0
        worst_euler = max(worst_euler, res)
        worst_analytic = max(worst_analytic, max(r1, r2) / scale)
        worst_discrete = max(worst_discrete, max(d1, d2) / scale)
        worst_time = max(worst_time, elapsed)
    h2 = (THETA0 / 1000) ** 2
    ok = (
        worst_euler <= 1e-9
        and worst_analytic <= 1e-10
        and worst_discrete <= 1e3 * h2
        and worst_time <= 5.0
    )
    _verdict(
        "criterion 1: exact-family residuals",
        ok,
        f"euler={worst_euler:.2e} analytic={worst_analytic:.2e} "
        f"discrete={worst_discrete:.2e} time={worst_time:.2f}s",
    )


def test_criterion_02_ode_oracles_and_order():
    res = integrate_alpha1(1.0, 0.0, 0.0, (0.0, 0.5))
    tan_err = abs(res.profile.f_vals[-1] - math.tan(0.5))
    res_g = integrate_general(2.0, 0.0, 1.0, 0.0, (0.0, 1.0))
    sec_err = abs(res_g.profile.v_vals[-1] - 1.0 / math.cos(1.0))
    errs = []
    for step in (4e-3, 2e-3, 1e-3):
        r = integrate_alpha1(1.0, 0.0, 0.0, (0.0, 1.2), OdeConfig(step=step))
        errs.append(abs(r.profile.f_vals[-1] - math.tan(1.2)))
    order = min(math.log2(errs[i] / errs[i + 1]) for i in range(2))
    ok = tan_err <= 1e-8 and sec_err <= 1e-7 and order >= 3.5
    _verdict(
        "criterion 2: angular-ODE oracle equivalence",
        ok,
        f"tan={tan_err:.2e} sec={sec_err:.2e} order={order:.2f}",
    )


def test_criterion_03_swirl_free_rigidity_demo():
    t0 = time.perf_counter()
    B, theta0 = 1.0, math.pi / 2
    h = lambda th: B * th / theta0
    errs, svars = [], []
    for n in (32, 64, 128):
        grid = LogPolarGrid(0.0, math.log(2), n, n, theta0)
        init = default_initial_guess(grid, h, amplitude=0.1, seed=0)
        psi, rep = solve_semilinear(
            grid, laplace_operator(), ZeroG(), RawFrame(), h, init=init,
        )
        assert rep.converged
        _, TH = grid.mesh()
        errs.append(float(np.max(np.abs(psi.vals - B * TH / theta0))))
        svars.append(s_variance(psi))
    h64 = (theta0 / 64) ** 2
    bound_ok = max(svars) <= 1e-6 and errs[1] <= 5 * h64
    # the linear target lies in the discrete kernel, so the errors sit at
    # rounding level; treat an order study below that floor as passed
    if max(errs) < 1e-10:
        order_ok, order = True, float("inf")
    else:
        order = min(math.log2(errs[i] / errs[i + 1]) for i in range(2))
        order_ok = order >= 1.9
    elapsed = time.perf_counter() - t0
    ok = bound_ok and order_ok and elapsed <= 30.0
    _verdict(
        "criterion 3: swirl-free rigidity demo",
        ok,
        f"errs={[f'{e:.1e}' for e in errs]} s_var={max(svars):.1e} "
        f"time={elapsed:.1f}s",
    )


def test_criterion_04_exponential_pipeline():
    c = 1.0
    grid = _grid256()
    sol = construct_exact(FamilyKind.TAN, {"v": c, "p": 0.0, "C": 0.0}, THETA0)
    psi = sample_stream(sol, grid)
    rec = recover_g(psi, laplacian_polar(psi))
    fit = rec.fit or {}
    func = g_functional_check(rec, Thm1Relation(c))
    slope_ok = fit.get("form") == "exp" and abs(fit.get("slope", 0) + 2.0) <= 0.02
    r2_ok = fit.get("r_squared", 0.0) >= 0.999

    sgrid = LogPolarGrid(0.0, math.log(2), 64, 64, THETA0)
    h = lambda th: np.log(np.cos(th))
    init = default_initial_guess(sgrid, h, amplitude=0.1, seed=0)
    Psi, rep = solve_semilinear(
        sgrid, laplace_operator(), ExpForm(-1.0, c), Alpha1Frame(c), h, init=init,
    )
    sv = s_variance(Psi)
    ok = slope_ok and r2_ok and func <= 1e-3 and rep.converged and sv <= 1e-6
    _verdict(
        "criterion 4: exponential-nonlinearity pipeline",
        ok,
        f"slope={fit.get('slope', float('nan')):.4f} r2={fit.get('r_squared', 0):.6f} "
        f"func={func:.1e} s_var={sv:.1e}",
    )


def test_criterion_05_power_pipeline():
    alpha = 2.0
    grid = LogPolarGrid(0.0, 1.0, 256, 256, THETA0)
    sol = construct_exact(
        FamilyKind.COS_POWER, {"alpha": alpha, "C1": 1.0, "C2": 0.0}, THETA0
    )
    psi = sample_stream(sol, grid)
    rec = recover_g(psi, laplacian_polar(psi))
    fit = rec.fit or {}
    func = g_functional_check(rec, Thm2Relation(alpha))
    q_ok = fit.get("form") == "power" and abs(fit.get("q", 0) - 3.0) <= 0.05
    coef_ok = abs(abs(fit.get("coefficient", 0.0)) - 2.0) <= 0.04

    sgrid = LogPolarGrid(0.0, math.log(2), 64, 64, THETA0)
    h = lambda th: -1.0 / np.cos(th)
    init = default_initial_guess(sgrid, h, amplitude=0.1, seed=0)
    Psi, rep = solve_semilinear(
        sgrid, general_frame_operator(alpha), PowerForm(-2.0, 3.0),
        GeneralFrame(alpha), h, init=init,
    )
    sv = s_variance(Psi)
    ok = q_ok and coef_ok and func <= 1e-3 and rep.converged and sv <= 1e-6
    _verdict(
        "criterion 5: power-nonlinearity pipeline",
        ok,
        f"q={fit.get('q', float('nan')):.4f} coef={fit.get('coefficient', float('nan')):.4f} "
        f"func={func:.1e} s_var={sv:.1e}",
    )


def test_criterion_06_jacobian_identity():
    grid = _grid256()
    worst = 0.0
    for kind, params in FAMILIES:
        sol = construct_exact(kind, params, THETA0)
        psi = sample_stream(sol, grid)
        worst = max(worst, jacobian_check(laplacian_polar(psi), psi))
    S, TH = grid.mesh()
    control = jacobian_check(
        ScalarField(grid, TH.copy()), ScalarField(grid, S.copy())
    )
    ok = worst <= 1e-4 and control >= 0.5
    _verdict(
        "criterion 6: Jacobian functional-dependence identity",
        ok,
        f"worst={worst:.2e} control={control:.2f}",
    )


def test_criterion_07_sliding_positivity():
    grid = LogPolarGrid(0.0, 1.0, 500, 500, 1.0)
    _, TH = grid.mesh()
    Psi = ScalarField(grid, 1.0 / np.cos(TH))
    samples = [
        ((0.0, 1.0), 0.05), ((0.0, 1.0), 0.1), ((0.0, 1.0), 0.2),
        ((0.0, 1.0), 0.4), ((0.5, 1.0), 0.1), ((0.5, 1.0), 0.3),
        ((1.0, 1.0), 0.05), ((1.0, 1.0), 0.2), ((1.0, 0.5), 0.2),
        ((0.2, 2.0), 0.15),
    ]
    mins = []
    for xi, tau in samples:
        out = sliding_check(Psi, xi, [tau])
        mins.append(out["min_w"])
    positive = all(m > 0.0 for m in mins)
    # the infimum is approached only as the angular shift tau*xi2 -> 0
    decreasing = all(
        sliding_check(Psi, (0.0, 1.0), [t])["min_w"]
        < sliding_check(Psi, (0.0, 1.0), [2 * t])["min_w"]
        for t in (0.05, 0.1, 0.2)
    )
    spot = sliding_check(Psi, (0.0, 1.0), [0.1])["min_w"]
    spot_err = abs(spot - (1.0 / math.cos(0.1) - 1.0))
    ok = positive and decreasing and spot_err <= 1e-6
    _verdict(
        "criterion 7: sliding positivity",
        ok,
        f"min={min(mins):.2e} spot_err={spot_err:.1e}",
    )


def test_criterion_08_periodic_classification():
    report = periodic_shooting(1.0, -1.0, np.linspace(-2.0, 2.0, 41))
    periodic = [m for m in report["members"] if m["is_periodic"]]
    f0s = sorted(m["f0"] for m in periodic)
    exact_two = f0s == [-1.0, 1.0]
    defects_ok = all(m["defect"] < 1e-9 and m["is_constant"] for m in periodic)
    others_ok = all(
        ("blowup_theta" in m) or m["defect"] > 1e-3
        for m in report["members"]
        if not m["is_periodic"]
    )
    resids = []
    for step in (2e-3, 1e-3):
        r = integrate_alpha1(1.0, -1.0, 0.5, (0.0, 2 * math.pi), OdeConfig(step=step))
        resids.append(w_equation_residual(r.profile, 1.0))
    scaling_ok = resids[1] <= 100 * 1e-3**2 and resids[0] / resids[1] > 3.0
    ok = exact_two and defects_ok and others_ok and scaling_ok
    _verdict(
        "criterion 8: periodic-profile classification",
        ok,
        f"periodic={f0s} w_resid={resids[1]:.1e} ratio={resids[0] / resids[1]:.2f}",
    )


def test_criterion_09_boundary_hypothesis_ledger():
    grid = _grid256()
    worst_const = worst_mass = worst_flux = 0.0
    for kind, params in FAMILIES:
        sol = construct_exact(kind, params, THETA0)
        u, _ = sample_velocity(sol, grid)
        rep = boundary_report(u, sol.alpha, r0=1.0)
        zero = np.zeros(1)
        end = np.array([THETA0])
        expected = {
            "c1": float(sol.v(zero)[0]),
            "c2": float(sol.v(end)[0]),
            "c3": float(sol.f_prime(zero)[0]),
            "c4": float(sol.f_prime(end)[0]),
        }
        worst_const = max(
            worst_const,
            abs(rep.c1_hat - expected["c1"]),
            abs(rep.c2_hat - expected["c2"]),
            abs(rep.c3_hat - expected["c3"]),
            abs(rep.c4_hat - expected["c4"]),
            abs(rep.A_hat - expected["c3"]),
        )
        worst_mass = max(worst_mass, rep.mass_identity_defect)
        worst_flux = max(worst_flux, rep.flux_consistency_defect)
        assert not rep.inconsistent_hypotheses
    h2 = grid.h_theta**2
    # full-angle, alpha != 1, nowhere-vanishing radial part: inconsistent
    fgrid = LogPolarGrid(0.0, math.log(2), 64, 64, 2 * math.pi)
    S, _ = fgrid.mesh()
    flagged = boundary_report(
        VectorField(fgrid, np.exp(-2 * S), np.exp(-2 * S)), 2.0
    ).inconsistent_hypotheses
    ok = (
        worst_const <= 1e-6
        and worst_mass <= 100 * h2
        and worst_flux <= 100 * h2
        and flagged
    )
    _verdict(
        "criterion 9: boundary hypothesis ledger",
        ok,
        f"const={worst_const:.1e} mass={worst_mass:.1e} "
        f"flux={worst_flux:.1e} flag={flagged}",
    )


def test_criterion_10_batch_determinism(tmp_path):
    digests = []
    for run in ("a", "b"):
        out = tmp_path / run
        code, _ = run_batch(CONFIGS / "batch.ini", out)
        assert code == 0
        files = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        digests.append({str(f): (out / f).read_bytes() for f in files})
    same_names = sorted(digests[0]) == sorted(digests[1])
    same_bytes = same_names and all(
        digests[0][k] == digests[1][k] for k in digests[0]
    )
    ok = bool(digests[0]) and same_bytes
    _verdict(
        "criterion 10: batch determinism",
        ok,
        f"files={len(digests[0])} byte_identical={same_bytes}",
    )
