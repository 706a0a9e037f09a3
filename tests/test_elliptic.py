import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from sectorflow import (
    Alpha1Frame,
    ExpForm,
    FamilyKind,
    GeneralFrame,
    PowerForm,
    RawFrame,
    ZeroG,
    construct_exact,
    default_initial_guess,
    general_frame_operator,
    laplace_operator,
    solve_semilinear,
)
from sectorflow import elliptic
from sectorflow.domain import LogPolarGrid
from sectorflow.elliptic import EllipticOperator
from sectorflow.errors import ParameterDomain
from sectorflow.rigidity import s_variance
from sectorflow.scenarios import _exp_case, _power_case, parse_config, run_scenario

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _grid(n=64, theta0=math.pi / 2):
    return LogPolarGrid(0.0, math.log(2), n, n, theta0)


class TestOperators:
    def test_laplace_coefficients(self):
        op = laplace_operator()
        assert (op.a11, op.a22, op.b1, op.c0) == (1.0, 1.0, 0.0, 0.0)

    def test_general_frame_coefficients(self):
        op = general_frame_operator(2.0)
        assert op.b1 == -2.0
        assert op.c0 == 1.0

    def test_ellipticity_enforced(self):
        for a11, a22 in [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -1.0)]:
            with pytest.raises(ParameterDomain):
                EllipticOperator(a11, a22)


class TestGSpecs:
    def test_thm1i_zero(self):
        z = np.linspace(-1, 1, 11)
        assert not ZeroG().g(z).any() and not ZeroG().g_prime(z).any()
        assert ZeroG().g(z).shape == z.shape

    def test_thm1ii_exp_form(self):
        # tangent stream with v = c = 1 and edge constant c3 = A = 1
        sol = construct_exact(FamilyKind.TAN, {"v": 1.0, "p": 0.0, "C": 0.0}, 1.0)
        _, _, g, _, frame = _exp_case(sol, {}, {"c3_hat": 1.0})
        assert isinstance(g, ExpForm) and frame == Alpha1Frame(1.0)
        z = np.linspace(-1, 1, 11)
        np.testing.assert_allclose(g.g(z), -np.exp(-2.0 * z), rtol=1e-12)

    def test_thm2_power_form(self):
        # alpha=2 secant stream: C1 = h(0) = -1, c3 = f'(0) = 1 gives
        # g(z) = -2|z|^3, i.e. 2 z^3 on the z < 0 branch the stream occupies
        sol = construct_exact(FamilyKind.COS_POWER, {"alpha": 2.0, "C1": 1.0, "C2": 0.0}, 1.0)
        _, _, g, _, frame = _power_case(sol, {}, {"c3_hat": 1.0})
        assert isinstance(g, PowerForm) and frame == GeneralFrame(2.0)
        assert g.q == pytest.approx(3.0)
        z = np.linspace(-2.0, -0.1, 21)
        np.testing.assert_allclose(g.g(z), 2.0 * z**3, rtol=1e-12)

    def test_power_form_subcritical_rejected(self):
        with pytest.raises(ParameterDomain):
            PowerForm(1.0, 0.5)


class TestLinearSolves:
    def test_periodic_swirl_free_demo(self):
        grid = _grid()
        B, theta0 = 1.0, grid.theta0
        h = lambda th: B * th / theta0
        init = default_initial_guess(grid, h, amplitude=0.1, seed=3)
        psi, rep = solve_semilinear(
            grid,
            laplace_operator(),
            ZeroG(),
            RawFrame(),
            h,
            init=init,
        )
        _, TH = grid.mesh()
        assert rep.converged
        assert s_variance(psi) <= 1e-6
        assert np.max(np.abs(psi.vals - B * TH / theta0)) <= 5 * grid.h_theta**2


class TestSemilinearSolves:
    def test_exp_nonlinearity_recovers_profile(self):
        grid = _grid(48, 1.0)
        c = 1.0
        h = lambda th: np.log(np.cos(th))
        init = default_initial_guess(grid, h, amplitude=0.1, seed=0)
        Psi, rep = solve_semilinear(
            grid,
            laplace_operator(),
            ExpForm(-1.0, c),
            Alpha1Frame(c),
            h,
            init=init,
        )
        _, TH = grid.mesh()
        assert rep.converged
        assert s_variance(Psi) <= 1e-6
        assert np.max(np.abs(Psi.vals - np.log(np.cos(TH)))) < 5e-3

    def test_power_nonlinearity_recovers_profile(self):
        grid = _grid(48, 1.0)
        alpha = 2.0
        h = lambda th: -1.0 / np.cos(th)
        init = default_initial_guess(grid, h, amplitude=0.1, seed=1)
        Psi, rep = solve_semilinear(
            grid,
            general_frame_operator(alpha),
            PowerForm(-2.0, 3.0),
            GeneralFrame(alpha),
            h,
            init=init,
        )
        _, TH = grid.mesh()
        assert rep.converged
        assert s_variance(Psi) <= 1e-6
        assert np.max(np.abs(Psi.vals - h(TH))) < 5e-3

    def test_seeded_perturbation_deterministic(self):
        grid = _grid(16)
        h = lambda th: np.sin(th)
        a = default_initial_guess(grid, h, amplitude=0.2, seed=7)
        b = default_initial_guess(grid, h, amplitude=0.2, seed=7)
        c = default_initial_guess(grid, h, amplitude=0.2, seed=8)
        np.testing.assert_array_equal(a.vals, b.vals)
        assert np.max(np.abs(a.vals - c.vals)) > 0

    def test_report_json_fields(self, tmp_path):
        scn = parse_config(CONFIGS / "thm1i.ini")
        scn.grid.update(n_s="16", n_theta="16")
        assert run_scenario(scn, tmp_path)[0] == 0
        rep = json.loads((tmp_path / "report.json").read_text())["solve_report"]
        assert {"iterations", "final_residual", "s_variance", "converged",
                "residual_history"} <= set(rep)
        assert rep["converged"] is True and len(rep["residual_history"]) == rep["iterations"] + 1


class TestFullStencil:
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_linear_solve_takes_one_newton_step(self, n):
        # every term of the stencil is present, and a11 != a22, so one
        # Newton step solves the linear problem only if the Jacobian is the
        # residual's exact linearisation
        op = EllipticOperator(1.0, 0.8, b1=0.5, c0=0.2)
        grid = _grid(n, 1.0)
        h = lambda th: np.sin(2.0 * th) + th
        init = default_initial_guess(grid, h, amplitude=0.5, seed=n)
        _, rep = solve_semilinear(grid, op, ZeroG(), RawFrame(), h, init=init)
        assert rep.converged
        assert rep.iterations == 1


# the three (operator, g, frame, trace) combinations the pipelines solve,
# on theta0 = 1 with the traces of their exact families
PIPELINE_SOLVES = {
    "thm1i": (laplace_operator(), ZeroG(), RawFrame(), lambda th: th),
    "thm1ii": (laplace_operator(), ExpForm(-1.0, 1.0), Alpha1Frame(1.0),
               lambda th: np.log(np.cos(th))),
    "thm2": (general_frame_operator(2.0), PowerForm(-2.0, 3.0), GeneralFrame(2.0),
             lambda th: -1.0 / np.cos(th)),
}


def _periodic_solve(case, n_s, n_theta=None, op=None):
    default_op, g, frame, h = PIPELINE_SOLVES[case]
    grid = LogPolarGrid(0.0, math.log(2), n_s, n_theta or n_s, 1.0)
    init = default_initial_guess(grid, h, amplitude=0.1, seed=n_s)
    return solve_semilinear(grid, op or default_op, g, frame, h, init=init)


def _gmres_never_converges(monkeypatch):
    monkeypatch.setattr(elliptic, "gmres", lambda A, b, **kw: (np.zeros_like(b), 1))


class TestKrylovStep:
    @pytest.mark.parametrize("n", [16, 32, 64, 128])
    @pytest.mark.parametrize("case", list(PIPELINE_SOLVES))
    def test_agrees_with_splu(self, case, n, monkeypatch):
        # every Krylov step meets the forcing against splu's exact step, and
        # the Newton solution matches an all-splu solve; the step itself can
        # differ from splu's by more, since the forcing bounds the residual
        steps = []
        krylov_step = elliptic._krylov_step

        def recording(jac, rhs, symbol):
            step, its = krylov_step(jac, rhs, symbol)
            steps.append((jac.copy(), rhs.copy(), step))
            return step, its

        monkeypatch.setattr(elliptic, "_krylov_step", recording)
        psi, rep = _periodic_solve(case, n)
        assert rep.linear_method == ["fft-dst-gmres"] * rep.iterations
        # the mean-diagonal shift keeps Thm2 steps at <= 7 iterations; a
        # mis-signed shift takes 10
        assert max(rep.krylov_iterations) <= 8
        assert len(steps) == rep.iterations
        for jac, rhs, step in steps:
            exact = splu(jac).solve(rhs)
            assert (np.linalg.norm(jac @ (step - exact))
                    <= elliptic.KRYLOV_RTOL * np.linalg.norm(rhs))
            if case == "thm1i":
                assert np.max(np.abs(step - exact)) <= 1e-12 * np.max(np.abs(exact))

        monkeypatch.undo()
        _gmres_never_converges(monkeypatch)
        ref, _ = _periodic_solve(case, n)
        assert np.max(np.abs(psi.vals - ref.vals)) <= 1e-12 * np.max(np.abs(ref.vals))

    @pytest.mark.parametrize("n_s, n_theta", [(16, 16), (33, 20), (64, 64)])
    @pytest.mark.parametrize("op", [
        laplace_operator(),
        general_frame_operator(2.0),
        EllipticOperator(1.3, 0.8, b1=0.5, c0=-0.2),
    ], ids=["laplace", "general-frame", "skewed"])
    def test_linear_solve_takes_one_krylov_iteration(self, op, n_s, n_theta):
        # with g = 0 the preconditioner is the Jacobian's exact inverse, so a
        # mis-signed or mis-scaled symbol term costs extra iterations
        _, rep = _periodic_solve("thm1i", n_s, n_theta, op)
        assert rep.converged
        assert rep.linear_method == ["fft-dst-gmres"] * rep.iterations
        assert rep.krylov_iterations == [1] * rep.iterations

    def test_unconverged_gmres_falls_back_to_splu(self, monkeypatch):
        _gmres_never_converges(monkeypatch)
        _, rep = _periodic_solve("thm1ii", 32)
        assert rep.converged
        assert rep.linear_method == ["splu"] * rep.iterations
        assert rep.krylov_iterations == [0] * rep.iterations

    def test_repeat_solves_bitwise_equal(self):
        a, rep_a = _periodic_solve("thm2", 64)
        b, rep_b = _periodic_solve("thm2", 64)
        np.testing.assert_array_equal(a.vals, b.vals)
        assert asdict(rep_a) == asdict(rep_b)


class TestGridLadder:
    @pytest.mark.parametrize("n", [192, 256])
    @pytest.mark.parametrize("config", ["thm1i.ini", "thm1ii.ini"])
    def test_shipped_config_passes(self, config, n, tmp_path):
        scn = parse_config(CONFIGS / config)
        scn.grid.update(n_s=str(n), n_theta=str(n))
        code, report = run_scenario(scn, tmp_path)
        assert code == 0, report
        rep = report["solve_report"]
        assert rep["linear_method"] == ["fft-dst-gmres"] * rep["iterations"]

    def test_shipped_thm2_a1_takes_the_krylov_path(self, tmp_path):
        code, report = run_scenario(parse_config(CONFIGS / "thm2_a1.ini"), tmp_path)
        assert code == 0, report
        rep = report["solve_report"]
        assert rep["linear_method"] == ["fft-dst-gmres"] * rep["iterations"]
