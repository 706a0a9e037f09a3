import math

import numpy as np
import pytest

from sectorflow import (
    Alpha1Frame,
    DirichletBoth,
    ExpForm,
    GeneralFrame,
    PeriodicInS,
    PowerForm,
    RawFrame,
    ZeroG,
    default_initial_guess,
    general_frame_operator,
    laplace_operator,
    make_g_spec,
    solve_semilinear,
)
from sectorflow import NeumannLeft, NeumannRight
from sectorflow.domain import LogPolarGrid
from sectorflow.elliptic import EllipticOperator, Tabulated
from sectorflow.errors import InconsistentScenario, ParameterDomain
from sectorflow.rigidity import s_variance


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
        with pytest.raises(ParameterDomain):
            EllipticOperator(1.0, 2.0, 1.0, 0.0, 0.0, 0.0)


class TestGSpecs:
    def test_thm1i_zero(self):
        assert isinstance(make_g_spec("Thm1i", {"c": 0.0}), ZeroG)

    def test_thm1i_rejects_swirl(self):
        with pytest.raises(InconsistentScenario):
            make_g_spec("Thm1i", {"c": 1.0})

    def test_thm1ii_exp_form(self):
        g = make_g_spec("Thm1ii", {"c": 1.0, "A": 1.0})
        assert isinstance(g, ExpForm)
        z = np.linspace(-1, 1, 11)
        np.testing.assert_allclose(g.g(z), -np.exp(-2.0 * z), rtol=1e-12)

    def test_thm2_power_form(self):
        # alpha=2 secant stream: C1 = h(0) = -1, c3 = f'(0) = 1 gives
        # g(z) = -2|z|^3, i.e. 2 z^3 on the z < 0 branch the stream occupies
        g = make_g_spec("Thm2", {"alpha": 2.0, "C1": -1.0, "c3": 1.0})
        assert isinstance(g, PowerForm)
        assert g.q == pytest.approx(3.0)
        z = np.linspace(-2.0, -0.1, 21)
        np.testing.assert_allclose(g.g(z), 2.0 * z**3, rtol=1e-12)

    def test_unknown_case_rejected(self):
        with pytest.raises(InconsistentScenario):
            make_g_spec("Thm9", {})

    def test_power_form_subcritical_needs_range(self):
        with pytest.raises(ParameterDomain):
            PowerForm(1.0, 1.0, 0.5, None)

    def test_tabulated_interpolates(self):
        z = np.linspace(-1, 1, 101)
        g = Tabulated(z, z**2)
        assert g.g(np.array([0.5]))[0] == pytest.approx(0.25, abs=1e-3)


class TestLinearSolves:
    def test_dirichlet_harmonic_identity(self):
        grid = _grid()
        h = lambda th: th
        psi, rep = solve_semilinear(
            grid,
            laplace_operator(),
            None,
            ZeroG(),
            RawFrame(),
            h,
            DirichletBoth(),
        )
        _, TH = grid.mesh()
        assert rep.converged
        assert np.max(np.abs(psi.vals - TH)) < 1e-10

    def test_periodic_swirl_free_demo(self):
        grid = _grid()
        B, theta0 = 1.0, grid.theta0
        h = lambda th: B * th / theta0
        init = default_initial_guess(grid, h, amplitude=0.1, seed=3)
        psi, rep = solve_semilinear(
            grid,
            laplace_operator(),
            None,
            ZeroG(),
            RawFrame(),
            h,
            PeriodicInS(grid.s_max - grid.s_min),
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
            None,
            ExpForm(-1.0, c),
            Alpha1Frame(c),
            h,
            PeriodicInS(grid.s_max - grid.s_min),
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
            None,
            PowerForm(-2.0, -2.0, 3.0, None),
            GeneralFrame(alpha),
            h,
            PeriodicInS(grid.s_max - grid.s_min),
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

    def test_report_json_fields(self):
        grid = _grid(16)
        h = lambda th: th
        _, rep = solve_semilinear(
            grid, laplace_operator(), None, ZeroG(), RawFrame(), h, DirichletBoth()
        )
        payload = rep.to_json()
        for key in ("iterations", "final_residual", "s_variance", "converged"):
            assert key in payload


class TestNeumannSides:
    @pytest.mark.parametrize("side", [NeumannLeft(), NeumannRight()], ids=repr)
    def test_second_order_against_harmonic_solution(self, side):
        # sin(k theta) cosh(k (s - s0)) / cosh(k L) is harmonic, has zero
        # s-derivative on the Neumann edge s0 and equals sin(k theta) on the
        # Dirichlet edge a distance L away
        theta0, L = 1.0, math.log(2)
        k = math.pi / theta0
        s0 = 0.0 if isinstance(side, NeumannLeft) else L
        errors = []
        for n in (16, 32, 64):
            grid = LogPolarGrid(0.0, L, n, n, theta0)
            psi, rep = solve_semilinear(
                grid, laplace_operator(), None, ZeroG(), RawFrame(),
                lambda th: np.sin(k * th), side,
            )
            S, TH = grid.mesh()
            exact = np.sin(k * TH) * np.cosh(k * (S - s0)) / np.cosh(k * L)
            assert rep.converged
            errors.append(float(np.max(np.abs(psi.vals - exact))))
        assert errors[0] / errors[1] >= 3.8
        assert errors[1] / errors[2] >= 3.8
        assert errors[2] < 1e-4


class TestFullStencil:
    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("side", [DirichletBoth(), PeriodicInS(math.log(2))], ids=repr)
    def test_linear_solve_takes_one_newton_step(self, side, n):
        # every term of the stencil is present, so one Newton step solves
        # the linear problem only if the Jacobian is the residual's exact
        # linearisation
        op = EllipticOperator(1.0, 0.3, 0.8, b1=0.5, b2=-0.4, c0=0.2)
        grid = _grid(n, 1.0)
        h = lambda th: np.sin(2.0 * th) + th
        init = default_initial_guess(grid, h, amplitude=0.5, seed=n)
        _, rep = solve_semilinear(grid, op, None, ZeroG(), RawFrame(), h, side, init=init)
        assert rep.converged
        assert rep.iterations == 1
