import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sectorflow import (
    FamilyKind,
    construct_exact,
    euler_residual_closed_form,
    profile_residual,
    sample_stream,
    sample_velocity,
)
from sectorflow.domain import LogPolarGrid
from sectorflow.errors import OutOfValidity, ParameterDomain, SingularityInRange
from sectorflow.exact import AngularProfile

ATLAS = [
    (FamilyKind.RADIAL_ALPHA1, {"p": -0.5, "sign": 1.0}, 1.0),
    (FamilyKind.TAN, {"v": 1.0, "p": 0.0, "C": 0.0}, 1.0),
    (FamilyKind.RATIONAL, {"v": 1.0, "C": 1.0}, 1.0),
    (FamilyKind.TANH, {"v": 1.0, "p": -1.0, "C": 1.0}, 1.0),
    (FamilyKind.COS_POWER, {"alpha": 2.0, "C1": 1.0, "C2": 0.0}, 1.0),
    (FamilyKind.SIN, {"alpha": 2.0, "p": -0.5, "C": math.pi / 2}, 1.0),
    (FamilyKind.PURE_ROTATION, {"alpha": 2.0, "c": 3.0}, 1.0),
]

#: ATLAS plus members whose alpha is no power of 2, so -alpha * x rounds
MESH_ORACLE = ATLAS + [
    (FamilyKind.COS_POWER, {"alpha": 0.37, "C1": 1.3, "C2": 0.1}, 1.0),
    (FamilyKind.SIN, {"alpha": -0.4, "p": -0.7, "C": 0.3}, 2.0),
    (FamilyKind.PURE_ROTATION, {"alpha": 1.7, "c": 3.0}, 1.0),
]
MESH_IDS = [k.value for k, _, _ in ATLAS] + ["cos_power-alpha-0.37", "sin-alpha--0.4",
                                             "pure_rotation-alpha-1.7"]


class TestConstruction:
    def test_radial_profile_forced(self):
        sol = construct_exact(FamilyKind.RADIAL_ALPHA1, {"p": -0.5, "sign": 1.0}, 1.0)
        t = np.linspace(0, 1, 11)
        np.testing.assert_allclose(sol.f(t), 1.0)
        np.testing.assert_allclose(sol.v(t), 0.0)

    def test_tan_value(self):
        sol = construct_exact(
            FamilyKind.TAN, {"v": 1.0, "p": 0.0, "C": 0.0}, math.pi / 4
        )
        assert sol.f(np.array([math.pi / 4]))[0] == pytest.approx(1.0, abs=1e-14)

    def test_sin_profile(self):
        sol = construct_exact(
            FamilyKind.SIN, {"alpha": 2.0, "p": -0.5, "C": math.pi / 2}, math.pi / 2
        )
        t = np.linspace(0, math.pi / 2, 33)
        np.testing.assert_allclose(sol.v(t), np.cos(t), atol=1e-14)
        np.testing.assert_allclose(sol.f(t), -np.sin(t), atol=1e-14)
        r1, r2 = sol.closed_form_residual(t)
        assert max(r1, r2) < 1e-13

    def test_tan_pole_rejected(self):
        with pytest.raises(SingularityInRange) as exc:
            construct_exact(FamilyKind.TAN, {"v": 1.0, "p": 0.0, "C": 0.0}, 2.0)
        assert exc.value.theta == pytest.approx(math.pi / 2)

    def test_tanh_pole_rejected(self):
        # negative quotient constant puts a pole at ln(-1/C)/m
        with pytest.raises(SingularityInRange):
            construct_exact(FamilyKind.TANH, {"v": 1.0, "p": -1.0, "C": -0.5}, 1.0)

    def test_parameter_domain_violations(self):
        with pytest.raises(ParameterDomain):
            construct_exact(FamilyKind.RADIAL_ALPHA1, {"p": 0.5, "sign": 1.0}, 1.0)
        with pytest.raises(ParameterDomain):
            construct_exact(FamilyKind.TAN, {"v": 1.0, "p": -0.5, "C": 0.0}, 1.0)
        with pytest.raises(ParameterDomain):
            construct_exact(FamilyKind.TANH, {"v": 1.0, "p": 0.5, "C": 1.0}, 1.0)
        with pytest.raises(ParameterDomain):
            construct_exact(FamilyKind.TANH, {"v": 1.0, "p": -1.0, "C": 0.0}, 1.0)
        with pytest.raises(ParameterDomain):
            construct_exact(FamilyKind.COS_POWER, {"alpha": 1.0, "C1": 1, "C2": 0}, 1.0)
        with pytest.raises(ParameterDomain):
            construct_exact(FamilyKind.SIN, {"alpha": 2.0, "p": 0.5, "C": 0.0}, 1.0)
        with pytest.raises(ParameterDomain):
            construct_exact(FamilyKind.PURE_ROTATION, {"alpha": 0.5, "c": 1.0}, 1.0)

    def test_out_of_validity_evaluation(self):
        sol = construct_exact(FamilyKind.TAN, {"v": 1.0, "p": 0.0, "C": 0.0}, 1.0)
        with pytest.raises(OutOfValidity):
            sol.velocity_pressure(1.0, np.array([2.0]))


class TestEvaluation:
    def test_radial_point_values(self):
        sol = construct_exact(FamilyKind.RADIAL_ALPHA1, {"p": -0.5, "sign": 1.0}, 1.0)
        ur, ut, P = sol.velocity_pressure(2.0, 0.3)
        assert ur == pytest.approx(0.5)
        assert ut == pytest.approx(0.0)
        assert P == pytest.approx(-1.0 / 8.0)

    def test_pure_rotation_point_values(self):
        sol = construct_exact(FamilyKind.PURE_ROTATION, {"alpha": 2.0, "c": 3.0}, 1.0)
        ur, ut, P = sol.velocity_pressure(1.0, 0.0)
        assert ut == pytest.approx(3.0)
        assert ur == pytest.approx(0.0)
        assert P == pytest.approx(-9.0 / 4.0)

    def test_tan_point_values(self):
        sol = construct_exact(FamilyKind.TAN, {"v": 1.0, "p": 0.0, "C": 0.0}, 1.0)
        ur, ut, _ = sol.velocity_pressure(math.e, math.pi / 4)
        assert ut == pytest.approx(math.exp(-1.0))
        assert ur == pytest.approx(math.exp(-1.0))

    def test_rational_zero_branch(self):
        sol = construct_exact(FamilyKind.RATIONAL, {"v": 1.0, "C": None}, 1.0)
        t = np.linspace(0, 1, 9)
        np.testing.assert_allclose(sol.f(t), 0.0)

    def test_tanh_constant_branch(self):
        sol = construct_exact(
            FamilyKind.TANH, {"v": 1.0, "p": -1.0, "C": math.inf}, 1.0
        )
        k = math.sqrt(1.0)
        t = np.linspace(0, 1, 9)
        np.testing.assert_allclose(sol.f(t), -k)


class TestProfileResidual:
    def test_cos_power_discrete_residual(self):
        sol = construct_exact(
            FamilyKind.COS_POWER, {"alpha": 2.0, "C1": 1.0, "C2": 0.0}, 1.0
        )
        prof = sol.profile(1.0, n=1000)
        r1, r2 = profile_residual(prof)
        # second-order differencing: bounded by h^2 * max|third derivative|
        h = 1.0 / 1000
        assert r1 <= 1e3 * h**2 and r2 <= 1e3 * h**2

    def test_cos_power_residual_second_order(self):
        sol = construct_exact(
            FamilyKind.COS_POWER, {"alpha": 2.0, "C1": 1.0, "C2": 0.0}, 1.0
        )
        coarse = max(profile_residual(sol.profile(1.0, n=500)))
        fine = max(profile_residual(sol.profile(1.0, n=1000)))
        assert coarse / fine == pytest.approx(4.0, rel=0.2)

    def test_constant_profile_exact(self):
        nodes = np.linspace(0, 1, 101)
        c = 2.0
        prof = AngularProfile(
            3.0, -(c**2) / 6.0, nodes, np.full_like(nodes, c), np.zeros_like(nodes)
        )
        r1, r2 = profile_residual(prof)
        assert r1 == 0.0 and r2 == 0.0

    def test_corrupted_profile_detected(self):
        sol = construct_exact(FamilyKind.TAN, {"v": 1.0, "p": 0.0, "C": 0.0}, 1.0)
        prof = sol.profile(1.0, n=200)
        f = prof.f_vals.copy()
        f[100] += 0.1
        bad = AngularProfile(prof.alpha, prof.p, prof.theta_nodes, prof.v_vals, f)
        r1, _ = profile_residual(bad)
        assert r1 >= 0.01

    @pytest.mark.parametrize("kind,params,theta0", ATLAS, ids=[k.value for k, _, _ in ATLAS])
    def test_closed_form_residual_all_families(self, kind, params, theta0):
        sol = construct_exact(kind, params, theta0)
        t = np.linspace(0, theta0, 501)
        r1, r2 = sol.closed_form_residual(t)
        assert max(r1, r2) < 1e-10


class TestEulerResidual:
    @pytest.mark.parametrize("kind,params,theta0", ATLAS, ids=[k.value for k, _, _ in ATLAS])
    def test_analytic_euler_residual(self, kind, params, theta0):
        sol = construct_exact(kind, params, theta0)
        grid = LogPolarGrid(0.0, math.log(2), 128, 128, theta0)
        mom_r, mom_t, div = euler_residual_closed_form(sol, grid)
        assert max(mom_r, mom_t, div) < 1e-9

    @pytest.mark.parametrize("kind,params,theta0", MESH_ORACLE, ids=MESH_IDS)
    def test_equals_the_full_mesh_evaluation(self, kind, params, theta0):
        sol = construct_exact(kind, params, theta0)
        grid = LogPolarGrid(-1.3, 0.7, 77, 64, theta0)
        assert euler_residual_closed_form(sol, grid) == _euler_on_mesh(sol, grid)

    def test_stream_consistency(self):
        # numerical theta-derivative of psi reproduces -r*u_r
        sol = construct_exact(FamilyKind.TANH, {"v": 1.0, "p": -1.0, "C": 1.0}, 1.0)
        t = np.linspace(0.1, 0.9, 401)
        r = 1.7
        psi = sol.stream(r, t)
        dpsi = np.gradient(psi, t, edge_order=2)
        ur, _, _ = sol.velocity_pressure(r, t)
        np.testing.assert_allclose(-dpsi / r, ur, atol=5e-6)


def _euler_on_mesh(sol, grid):
    """euler_residual_closed_form with every factor evaluated on the full mesh."""
    S, TH = grid.mesh()
    a = sol.alpha
    r = np.exp(S)
    f, v = sol.f(TH), sol.v(TH)
    fp, vp = sol.f_prime(TH), sol.v_prime(TH)
    ra = r**-a
    ur, ut = f * ra, v * ra
    t1 = ur * (-a * f * ra / r)
    t2 = (ut / r) * (fp * ra)
    t3 = -(ut**2) / r
    t4 = -2.0 * a * sol.p * r ** (-2 * a - 1)
    scale_r = np.max(np.abs(t1) + np.abs(t2) + np.abs(t3) + np.abs(t4)) + 1e-300
    s1 = ur * (-a * v * ra / r)
    s2 = (ut / r) * (vp * ra)
    s3 = ut * ur / r
    scale_t = np.max(np.abs(s1) + np.abs(s2) + np.abs(s3)) + 1e-300
    d1 = (1.0 - a) * f * ra
    d2 = vp * ra
    scale_d = np.max(np.abs(d1) + np.abs(d2) + np.abs(ur) + np.abs(ut)) + 1e-300
    return (
        float(np.max(np.abs(t1 + t2 + t3 + t4)) / scale_r),
        float(np.max(np.abs(s1 + s2 + s3)) / scale_t),
        float(np.max(np.abs(d1 + d2)) / scale_d),
    )


class TestSampling:
    @pytest.mark.parametrize("kind,params,theta0", MESH_ORACLE, ids=MESH_IDS)
    def test_equals_the_full_mesh_evaluation(self, kind, params, theta0):
        sol = construct_exact(kind, params, theta0)
        grid = LogPolarGrid(-1.3, 0.7, 77, 64, theta0)
        S, TH = grid.mesh()
        psi = sample_stream(sol, grid)
        u, P = sample_velocity(sol, grid)
        np.testing.assert_array_equal(psi.vals, sol.stream(np.exp(S), TH))
        for got, want in zip((u.ur_vals, u.utheta_vals, P.vals),
                             sol.velocity_pressure(np.exp(S), TH)):
            np.testing.assert_array_equal(got, want)
        for a in (psi.vals, u.ur_vals, u.utheta_vals, P.vals):
            assert a.shape == grid.shape and a.flags.c_contiguous and a.flags.writeable


class TestCsvExport:
    def test_round_trip_values(self):
        sol = construct_exact(FamilyKind.SIN, {"alpha": 2.0, "p": -0.5, "C": 0.7}, 1.0)
        prof = sol.profile(1.0, n=50)
        text = sol.profile(1.0, n=50).to_csv(kind=sol.kind.value, params=sol.params)
        lines = [ln for ln in text.strip().splitlines() if ln]
        assert lines[1].split(",")[0] == "theta"
        body = np.array(
            [[float(x) for x in ln.split(",")] for ln in lines[2:]]
        )
        np.testing.assert_array_equal(body[:, 0], prof.theta_nodes)
        np.testing.assert_array_equal(body[:, 1], prof.v_vals)


@settings(max_examples=30, deadline=None)
@given(
    v=st.floats(0.2, 3.0),
    p=st.floats(-0.4, 2.0).filter(lambda p: p > -0.02 or p < -0.08),
    theta0=st.floats(0.05, 0.3),
)
def test_tan_family_residual_property(v, p, theta0):
    """Closed-form residuals vanish across the admissible tan branch."""
    if v * v + 2 * p <= 1e-3:
        return
    try:
        sol = construct_exact(FamilyKind.TAN, {"v": v, "p": p, "C": 0.1}, theta0)
    except SingularityInRange:
        return
    t = np.linspace(0, theta0, 101)
    r1, r2 = sol.closed_form_residual(t)
    scale = 1.0 + float(np.max(np.abs(sol.f(t)))) ** 2
    assert max(r1, r2) < 1e-9 * scale


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(1.1, 4.0), p=st.floats(-3.0, -0.1), C=st.floats(0, 6.0))
def test_sin_family_residual_property(alpha, p, C):
    sol = construct_exact(FamilyKind.SIN, {"alpha": alpha, "p": p, "C": C}, 1.0)
    t = np.linspace(0, 1, 101)
    r1, r2 = sol.closed_form_residual(t)
    assert max(r1, r2) < 1e-10 * max(1.0, abs(p))
