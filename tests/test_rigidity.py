import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sectorflow import (
    FamilyKind,
    ScalarField,
    Thm1Relation,
    Thm2Relation,
    VectorField,
    boundary_report,
    construct_exact,
    g_functional_check,
    homogeneity_fit,
    jacobian_check,
    laplacian_polar,
    recover_g,
    s_variance,
    sample_stream,
    sample_velocity,
    sliding_check,
)
from sectorflow.domain import LogPolarGrid
from sectorflow.errors import EdgeNotOnGrid, EmptyOverlap, ParameterDomain


def _grid(n=64, theta0=1.0, s_max=math.log(2)):
    return LogPolarGrid(0.0, s_max, n, n, theta0)


_POLYFIT_GRID = LogPolarGrid(-0.5, 1.5, 96, 80, 1.0)


def _polyfit_homogeneity(u):
    """(alpha_hat, deviation, rays fitted) of homogeneity_fit, by one np.polyfit per ray."""
    M = u.magnitude()
    rays = np.where(np.min(M, axis=0) > 1e-13 * np.max(M))[0]
    s = u.grid.s_nodes
    coefs = [np.polyfit(s, np.log(M[:, j]), 1) for j in rays]
    alpha_hat = -float(np.mean([c[0] for c in coefs]))
    resid = max(float(np.max(np.abs(np.log(M[:, j]) - np.polyval(c, s))))
                for j, c in zip(rays, coefs))
    W = np.exp(alpha_hat * s)[:, None] * u.ur_vals[:, rays]
    cross = float(np.max(W.max(axis=0) - W.min(axis=0))) / float(np.max(M))
    return alpha_hat, resid + cross, rays.size


class TestHomogeneityFit:
    def test_pure_rotation_exact(self):
        sol = construct_exact(FamilyKind.PURE_ROTATION, {"alpha": 2.0, "c": 3.0}, 1.0)
        u, _ = sample_velocity(sol, _grid())
        fit = homogeneity_fit(u)
        assert fit["alpha_hat"] == pytest.approx(2.0, abs=1e-10)
        assert fit["deviation"] < 1e-10

    def test_tan_family_alpha_one(self):
        sol = construct_exact(FamilyKind.TAN, {"v": 1.0, "p": 0.0, "C": 0.0}, 1.0)
        u, _ = sample_velocity(sol, _grid())
        fit = homogeneity_fit(u)
        assert fit["alpha_hat"] == pytest.approx(1.0, abs=1e-10)

    def test_mixture_detected(self):
        grid = _grid(s_max=3.0)
        S, _ = grid.mesh()
        ur = np.exp(-S) + 0.1 * np.exp(-2 * S)
        fit = homogeneity_fit(VectorField(grid, ur, np.zeros(grid.shape)))
        assert fit["deviation"] > 0.01

    @pytest.mark.parametrize("kind, params", [
        (FamilyKind.SIN, {"alpha": 2.0, "p": -0.5, "C": 0.7}),
        (FamilyKind.COS_POWER, {"alpha": 0.37, "C1": 1.3, "C2": 0.1}),
    ], ids=["sin", "cos_power"])
    def test_matches_a_polyfit_per_ray(self, kind, params):
        u, _ = sample_velocity(construct_exact(kind, params, 1.0), _POLYFIT_GRID)
        fit = homogeneity_fit(u)
        alpha_hat, deviation, _ = _polyfit_homogeneity(u)
        assert fit["alpha_hat"] == pytest.approx(alpha_hat, rel=0, abs=1e-13)
        assert fit["deviation"] == pytest.approx(deviation, rel=0, abs=1e-13)

    def test_matches_a_polyfit_per_ray_with_a_skipped_ray(self):
        """The theta = 0 ray vanishes and is skipped; the degree varies by ray."""
        S, TH = _POLYFIT_GRID.mesh()
        noise = 1.0 + 0.01 * np.random.default_rng(3).standard_normal(S.shape)
        u = VectorField(_POLYFIT_GRID, np.sin(TH) * np.exp(-(2.0 + TH) * S) * noise,
                        0.2 * np.sin(TH) * np.exp(-1.5 * S))
        fit = homogeneity_fit(u)
        alpha_hat, deviation, n_rays = _polyfit_homogeneity(u)
        assert n_rays == _POLYFIT_GRID.n_theta
        assert fit["alpha_hat"] == pytest.approx(alpha_hat, rel=0, abs=1e-13)
        assert fit["deviation"] == pytest.approx(deviation, rel=0, abs=1e-13)


class TestRecoverG:
    def test_tan_stream_exp_fit(self):
        grid = LogPolarGrid(0.0, math.log(2), 256, 256, 1.0)
        S, TH = grid.mesh()
        psi = ScalarField(grid, S + np.log(np.cos(TH)))
        rec = recover_g(psi, laplacian_polar(psi))
        assert rec.fit is not None and rec.fit["form"] == "exp"
        assert rec.fit["slope"] == pytest.approx(-2.0, abs=0.02)
        assert rec.fit["r_squared"] >= 0.999

    def test_cos_power_stream_power_fit(self):
        grid = LogPolarGrid(0.0, 1.0, 256, 256, 1.0)
        S, TH = grid.mesh()
        psi = ScalarField(grid, -np.exp(-S) / np.cos(TH))
        rec = recover_g(psi, laplacian_polar(psi))
        assert rec.fit is not None and rec.fit["form"] == "power"
        assert rec.fit["q"] == pytest.approx(3.0, abs=0.05)
        assert abs(rec.fit["coefficient"]) == pytest.approx(2.0, rel=0.02)

    def test_unrelated_fields_no_fit(self):
        grid = _grid()
        S, TH = grid.mesh()
        psi = ScalarField(grid, S)
        fake_lap = ScalarField(grid, np.sin(5 * TH))
        rec = recover_g(psi, fake_lap)
        assert rec.single_valued_defect > 0.5
        assert rec.fit is None


class TestFunctionalEquation:
    def test_exp_identity(self):
        class G:
            def g(self, z):
                return -np.exp(-2.0 * np.asarray(z))

        assert g_functional_check(G(), Thm1Relation(1.0)) < 1e-12

    def test_power_identity(self):
        class G:
            def g(self, z):
                return 2.0 * np.asarray(z) ** 3

        assert g_functional_check(G(), Thm2Relation(2.0)) < 1e-12

    def test_wrong_form_detected(self):
        class G:
            def g(self, z):
                return np.asarray(z, dtype=float)

        assert g_functional_check(G(), Thm2Relation(2.0)) > 0.5


class TestJacobian:
    def test_exact_field_dependent(self):
        grid = LogPolarGrid(0.0, math.log(2), 256, 256, 1.0)
        sol = construct_exact(FamilyKind.TAN, {"v": 1.0, "p": 0.0, "C": 0.0}, 1.0)
        psi = sample_stream(sol, grid)
        assert jacobian_check(laplacian_polar(psi), psi) <= 1e-4

    def test_independent_fields(self):
        grid = _grid()
        S, TH = grid.mesh()
        psi = ScalarField(grid, S.copy())
        fake = ScalarField(grid, TH.copy())
        assert jacobian_check(fake, psi) > 0.9

    def test_pointwise_function_dependent(self):
        grid = _grid()
        S, TH = grid.mesh()
        psi = ScalarField(grid, np.sin(S) + np.cos(TH))
        # linear dependence survives the differencing exactly; a smooth
        # nonlinear one is dependent up to the O(h^2) chain-rule error
        linear = ScalarField(grid, 2.0 * psi.vals - 1.0)
        assert jacobian_check(linear, psi) < 1e-12
        squared = ScalarField(grid, psi.vals**2)
        assert jacobian_check(squared, psi) < 1e-2


class TestSliding:
    def test_linear_profile_shift(self):
        grid = _grid()
        _, TH = grid.mesh()
        out = sliding_check(ScalarField(grid, TH.copy()), (1.0, 1.0), [0.1])
        assert out["min_w"] == pytest.approx(0.1, abs=1e-12)

    def test_sec_profile_positive(self):
        grid = LogPolarGrid(0.0, 1.0, 500, 500, 1.0)
        _, TH = grid.mesh()
        Psi = ScalarField(grid, 1.0 / np.cos(TH))
        taus = np.linspace(0.05, 0.5, 10)
        out = sliding_check(Psi, (0.0, 1.0), taus)
        assert out["min_w"] > 0.0
        spot = sliding_check(Psi, (0.0, 1.0), [0.1])
        assert spot["min_w"] == pytest.approx(1.0 / math.cos(0.1) - 1.0, abs=1e-6)

    def test_non_monotone_reports_negative(self):
        grid = LogPolarGrid(0.0, 1.0, 64, 64, 1.0)
        _, TH = grid.mesh()
        Psi = ScalarField(grid, np.sin(2 * math.pi * TH))
        out = sliding_check(Psi, (0.0, 1.0), [0.3])
        assert out["min_w"] < 0.0

    def test_empty_overlap(self):
        grid = _grid(theta0=0.5)
        _, TH = grid.mesh()
        with pytest.raises(EmptyOverlap):
            sliding_check(ScalarField(grid, TH.copy()), (0.0, 1.0), [0.6])

    def test_no_translations_rejected(self):
        grid = _grid()
        _, TH = grid.mesh()
        with pytest.raises(ParameterDomain):
            sliding_check(ScalarField(grid, TH.copy()), (1.0, 1.0), [])

    @pytest.mark.parametrize("xi, tau", [((-1.0, 1.0), 0.1), ((1.0, -1.0), 0.1),
                                         ((1.0, 0.0), 0.1), ((1.0, 1.0), -0.1),
                                         ((0.0, 1.0), -0.1), ((-1.0, 1.0), 0.0)],
                             ids=["xi1-negative", "xi2-negative", "xi2-zero", "tau-negative",
                                  "tau-negative-theta-only", "xi1-negative-at-tau-0"])
    def test_shift_leaving_the_rectangle_raises(self, xi, tau):
        """A shift out of the rectangle raises instead of extrapolating."""
        grid = _grid()
        _, TH = grid.mesh()
        with pytest.raises(ParameterDomain):
            sliding_check(ScalarField(grid, TH.copy()), xi, [tau])

    def test_zero_translation_gives_zero(self):
        grid = _grid()
        _, TH = grid.mesh()
        out = sliding_check(ScalarField(grid, np.cos(3 * TH)), (0.3, 0.7), [0.0])
        assert out["min_w"] == 0.0

    def test_shift_onto_an_edge_just_past_the_last_node(self):
        """At n = 49, theta0 = 1 lies an ulp past the last theta-node; a
        node-aligned shift caps there and reads the edge value."""
        grid = LogPolarGrid(0.0, 1.0, 49, 49, 1.0)
        assert grid.theta_nodes[-1] < grid.theta0
        _, TH = grid.mesh()
        out = sliding_check(ScalarField(grid, TH.copy()), (0.0, 1.0), [37 / 49])
        assert out["min_w"] == pytest.approx(37 / 49, abs=1e-12)


def _interpolator_sliding(Psi, xi, taus):
    """The per-tau entries of sliding_check, through scipy's interpolator."""
    from scipy.interpolate import RegularGridInterpolator

    g = Psi.grid
    interp = RegularGridInterpolator(
        (g.s_nodes, g.theta_nodes), Psi.vals, method="linear", bounds_error=True
    )
    per_tau = []
    for tau in taus:
        ds, dt = tau * xi[0], tau * xi[1]
        si = g.s_nodes[g.s_nodes + ds <= g.s_max + 1e-12]
        tj = g.theta_nodes[g.theta_nodes + dt <= g.theta0 + 1e-12]
        S, T = np.meshgrid(si, tj, indexing="ij")
        pts = np.stack([np.minimum(S + ds, g.s_max), np.minimum(T + dt, g.theta0)], axis=-1)
        w = interp(pts) - Psi.vals[: len(si), : len(tj)]
        k = np.unravel_index(np.argmin(w), w.shape)
        per_tau.append({"tau": tau, "min_w": float(w[k]),
                        "location": {"s": float(si[k[0]]), "theta": float(tj[k[1]])}})
    return per_tau


class TestSlidingOracle:
    """sliding_check equals scipy's bilinear RegularGridInterpolator bit for bit."""

    TAUS = [0.0, 0.02, 0.05, 0.1, 0.1234567, 0.3, 0.45]

    @pytest.mark.parametrize("n", [16, 33, 100, 256])
    @pytest.mark.parametrize("xi", [(1.0, 1.0), (0.3, 0.7), (0.0, 0.25), (2.0, 0.1)], ids=str)
    def test_random_field(self, n, xi):
        grid = LogPolarGrid(-0.4, 1.1, n, n + 5, 1.3)
        vals = np.random.default_rng(n).standard_normal(grid.shape)
        Psi = ScalarField(grid, vals)
        assert sliding_check(Psi, xi, self.TAUS)["per_tau"] == _interpolator_sliding(
            Psi, xi, self.TAUS)

    @pytest.mark.parametrize("xi", [(1.0, 1.0), (0.0, 1.0)], ids=str)
    def test_node_aligned_sec_spot(self, xi):
        grid = LogPolarGrid(0.0, math.log(2), 500, 500, 1.0)
        _, TH = grid.mesh()
        Psi = ScalarField(grid, 1.0 / np.cos(TH))
        taus = [0.02, 0.1, 0.45]
        out = sliding_check(Psi, xi, taus)
        assert out["per_tau"] == _interpolator_sliding(Psi, xi, taus)
        assert out["per_tau"][1]["min_w"] == pytest.approx(1.0 / math.cos(0.1) - 1.0, abs=1e-15)


class TestSVariance:
    def test_profile_only(self):
        grid = _grid()
        _, TH = grid.mesh()
        assert s_variance(ScalarField(grid, np.sin(TH))) == 0.0

    def test_linear_drift(self):
        grid = _grid()
        S, TH = grid.mesh()
        Psi = ScalarField(grid, np.sin(TH) + 1e-3 * S)
        expected = 1e-3 * (grid.s_max - grid.s_min)
        assert s_variance(Psi) == pytest.approx(expected, rel=1e-10)


class TestBoundaryReport:
    def test_tan_family_constants(self):
        sol = construct_exact(FamilyKind.TAN, {"v": 1.0, "p": 0.0, "C": 0.0}, 1.0)
        u, _ = sample_velocity(sol, _grid(256))
        rep = boundary_report(u, 1.0)
        assert rep.c1_hat == pytest.approx(1.0, abs=1e-8)
        assert rep.c2_hat == pytest.approx(1.0, abs=1e-8)
        assert rep.c3_hat == pytest.approx(1.0, abs=1e-8)
        assert rep.A_hat == pytest.approx(1.0, abs=1e-8)
        assert max(rep.c1_residual, rep.c2_residual) < 1e-8

    def test_pure_rotation_margin(self):
        sol = construct_exact(FamilyKind.PURE_ROTATION, {"alpha": 2.0, "c": 3.0}, 1.0)
        u, _ = sample_velocity(sol, _grid(128))
        rep = boundary_report(u, 2.0)
        assert rep.c1_hat == pytest.approx(3.0, abs=1e-10)
        assert rep.c3_hat == pytest.approx(0.0, abs=1e-10)
        assert rep.rotation_margin == pytest.approx(1.0, abs=1e-10)

    def test_sin_family_flux(self):
        theta0 = math.pi / 3
        sol = construct_exact(
            FamilyKind.SIN, {"alpha": 2.0, "p": -0.5, "C": math.pi / 2}, theta0
        )
        grid = LogPolarGrid(0.0, math.log(2), 256, 256, theta0)
        u, _ = sample_velocity(sol, grid)
        rep = boundary_report(u, 2.0, r0=1.0)
        assert rep.c1_hat == pytest.approx(1.0, abs=1e-6)
        assert rep.c2_hat == pytest.approx(0.5, abs=1e-6)
        assert rep.flux_predicted == pytest.approx(-0.5, abs=1e-6)
        assert rep.mass_identity_defect < 1e-6
        assert rep.flux_consistency_defect < 1e-6

    def test_missing_row_rejected(self):
        sol = construct_exact(FamilyKind.TAN, {"v": 1.0, "p": 0.0, "C": 0.0}, 1.0)
        u, _ = sample_velocity(sol, _grid())
        with pytest.raises(EdgeNotOnGrid):
            boundary_report(u, 1.0, r0=1.3)

    def test_inconsistent_hypotheses_flagged(self):
        # alpha != 1, full angle, radial part bounded away from zero
        grid = LogPolarGrid(0.0, math.log(2), 64, 64, 2 * math.pi)
        S, _ = grid.mesh()
        u = VectorField(grid, np.exp(-2 * S), np.exp(-2 * S))
        rep = boundary_report(u, 2.0)
        assert rep.inconsistent_hypotheses

    def test_vanishing_radial_part_not_flagged(self):
        grid = LogPolarGrid(0.0, math.log(2), 64, 64, 2 * math.pi)
        S, TH = grid.mesh()
        u = VectorField(grid, np.exp(-2 * S) * np.sin(TH), np.exp(-2 * S))
        rep = boundary_report(u, 2.0)
        assert not rep.inconsistent_hypotheses


@settings(max_examples=15, deadline=None)
@given(alpha=st.floats(0.5, 3.0), c=st.floats(0.3, 4.0))
def test_homogeneity_property(alpha, c):
    """Any r^-alpha power-law field is recovered with the right degree."""
    grid = LogPolarGrid(0.0, 1.0, 32, 32, 1.0)
    S, TH = grid.mesh()
    amp = np.exp(-alpha * S)
    u = VectorField(grid, c * amp * (2 + np.sin(TH)), amp * (2 + np.cos(TH)))
    fit = homogeneity_fit(u)
    assert fit["alpha_hat"] == pytest.approx(alpha, abs=1e-8)
    assert fit["deviation"] < 1e-8
