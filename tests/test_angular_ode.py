import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sectorflow import (
    FamilyKind,
    OdeConfig,
    construct_exact,
    integrate_alpha1,
    integrate_general,
    mass_identity_defect,
    periodic_shooting,
    shoot_alpha1,
    w_equation_residual,
)
from sectorflow.angular_ode import MAX_F, classify_periodic
from sectorflow.errors import ParameterDomain, SingularSwirl, ZeroSwirl
from sectorflow.scenarios import parse_config, run_scenario


class TestAlpha1Integration:
    def test_tan_oracle(self):
        res = integrate_alpha1(1.0, 0.0, 0.0, (0.0, 0.5))
        assert res.completed
        assert res.profile.f_vals[-1] == pytest.approx(math.tan(0.5), abs=1e-8)

    def test_constant_branch(self):
        res = integrate_alpha1(1.0, -0.5, 0.0, (0.0, 1.0))
        np.testing.assert_allclose(res.profile.f_vals, 0.0, atol=1e-14)

    def test_blowup_pole_estimate(self):
        res = integrate_alpha1(1.0, 0.0, 0.0, (0.0, 2.0))
        assert res.blew_up
        assert not res.completed
        assert res.blowup_theta == pytest.approx(math.pi / 2, abs=1e-3)

    def test_zero_swirl_rejected(self):
        with pytest.raises(ZeroSwirl):
            integrate_alpha1(0.0, -0.5, 0.0, (0.0, 1.0))

    def test_landing_step_hits_endpoint(self):
        res = integrate_alpha1(1.0, 0.0, 0.0, (0.0, 0.3), OdeConfig(step=7e-3))
        assert res.profile.theta_nodes[-1] == pytest.approx(0.3, abs=1e-14)


class TestGeneralIntegration:
    def test_sec_oracle(self):
        res = integrate_general(2.0, 0.0, 1.0, 0.0, (0.0, 1.0))
        assert res.completed
        assert res.profile.v_vals[-1] == pytest.approx(1.0 / math.cos(1.0), abs=1e-7)

    def test_sin_family_oracle(self):
        C = math.pi / 3
        res = integrate_general(2.0, -0.5, math.sin(C), -math.cos(C), (0.0, 0.5))
        t = res.profile.theta_nodes
        np.testing.assert_allclose(res.profile.v_vals, np.sin(C - t), atol=1e-10)

    def test_singular_swirl_rejected(self):
        with pytest.raises(SingularSwirl):
            integrate_general(3.0, -0.5, 0.0, 1.0, (0.0, 1.0))

    def test_swirl_floor_flagged(self):
        # sin family swirl crosses zero at theta = C
        C = 0.4
        res = integrate_general(2.0, -0.5, math.sin(C), -math.cos(C), (0.0, 1.0))
        assert res.hit_swirl_floor
        assert res.floor_theta == pytest.approx(C, abs=1e-2)


class TestConvergenceOrder:
    def test_rk4_order(self):
        errs = []
        for step in (4e-3, 2e-3, 1e-3):
            res = integrate_alpha1(1.0, 0.0, 0.0, (0.0, 1.2), OdeConfig(step=step))
            errs.append(abs(res.profile.f_vals[-1] - math.tan(1.2)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.5


class TestShooting:
    def test_lambda_one_classification(self):
        report = periodic_shooting(1.0, -1.0, np.linspace(-2, 2, 41))
        assert report["lambda"] == pytest.approx(1.0)
        assert report["n_periodic"] == 2
        assert report["all_periodic_constant"]
        periodic_f0 = sorted(
            m["f0"] for m in report["members"] if m["is_periodic"]
        )
        assert periodic_f0 == [-1.0, 1.0]
        for m in report["members"]:
            if m["is_periodic"]:
                assert m["f_squared_defect"] < 1e-12
            else:
                assert m.get("defect", math.inf) > 1e-3 or "blowup_theta" in m

    def test_positive_const_never_periodic(self):
        report = periodic_shooting(1.0, 0.0, np.linspace(-2, 2, 9))
        assert report["n_periodic"] == 0
        for m in report["members"]:
            assert "blowup_theta" in m

    def test_zero_swirl_rejected(self):
        with pytest.raises(ZeroSwirl):
            periodic_shooting(0.0, -1.0, [0.0])

    def test_empty_sweep_rejected(self):
        shots = shoot_alpha1(1.0, 0.5, np.array([]), (0.0, 2.0 * math.pi), OdeConfig())
        with pytest.raises(ParameterDomain):
            classify_periodic(1.0, 0.5, shots)


class TestDerivedChecks:
    def test_w_equation_residual_small(self):
        res = integrate_alpha1(1.0, -1.0, 0.5, (0.0, 2 * math.pi))
        assert w_equation_residual(res.profile, 1.0) < 1e-4

    def test_mass_identity_exact_family(self):
        sol = construct_exact(
            FamilyKind.SIN, {"alpha": 2.0, "p": -0.5, "C": math.pi / 2}, 1.0
        )
        assert mass_identity_defect(sol.profile(1.0, n=2000)) < 1e-6


@settings(max_examples=25, deadline=None)
@given(
    c=st.floats(0.5, 2.0),
    p=st.floats(-2.0, -0.3),
)
def test_constant_branch_property(c, p):
    """f0 = sqrt(-(c^2+2p)) stays constant whenever c^2 + 2p < 0."""
    if c * c + 2 * p >= -1e-3:
        return
    d = math.sqrt(-(c * c + 2 * p))
    res = integrate_alpha1(c, p, d, (0.0, 1.0), OdeConfig(step=5e-3))
    np.testing.assert_allclose(res.profile.f_vals, d, rtol=1e-9)


@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(1.2, 3.0), c1=st.floats(0.5, 2.0))
def test_general_matches_cos_power(alpha, c1):
    sol = construct_exact(
        FamilyKind.COS_POWER, {"alpha": alpha, "C1": c1, "C2": 0.0}, 0.6
    )
    res = integrate_general(
        alpha, 0.0, float(sol.v(np.array([0.0]))[0]), 0.0, (0.0, 0.6),
        OdeConfig(step=2e-3),
    )
    t = res.profile.theta_nodes
    np.testing.assert_allclose(res.profile.v_vals, sol.v(t), atol=1e-7 * c1)


# ----------------------------------------------------------------------
# Reference: the per-member scalar RK4 loop and result tails that the
# batched march replaced.  The march must reproduce them bit for bit.


def _scalar_rk4_path(rhs, y0, t0, t1, step, stop=None):
    """(t_nodes, accepted rows, rejected state or None, theta of the last
    accepted node); a member cut at the first step keeps y0 as its second
    node.  With ``stop=None`` nothing is rejected: the march runs to t1."""
    n = max(1, round((t1 - t0) / step))
    h = (t1 - t0) / n
    ts = [t0]
    ys = [np.asarray(y0, dtype=float)]
    y = ys[0]
    for i in range(n):
        t = t0 + i * h
        with np.errstate(all="ignore"):  # a rejected state may overflow
            k1 = rhs(t, y)
            k2 = rhs(t + h / 2, y + h / 2 * k1)
            k3 = rhs(t + h / 2, y + h / 2 * k2)
            k4 = rhs(t + h, y + h * k3)
            y_next = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if stop is not None and (not np.all(np.isfinite(y_next)) or stop(y_next)):
            cut_theta = ts[-1]
            if i == 0:
                ts.append(t0 + h)
                ys.append(y)
            return np.array(ts), np.vstack(ys), y_next, cut_theta
        ts.append(t0 + (i + 1) * h)
        ys.append(y_next)
        y = y_next
    return np.array(ts), np.vstack(ys), None, None


def _scalar_pole(ts, f):
    if len(ts) >= 2 and f[-1] != 0.0 and f[-2] != 0.0:
        g_prev, g_last = 1.0 / f[-2], 1.0 / f[-1]
        if g_prev == g_last:
            return ts[-1]
        return ts[-1] - g_last * (ts[-1] - ts[-2]) / (g_last - g_prev)
    return None


def _alpha1_rhs(c, p):
    const = c * c + 2.0 * p
    return lambda t, y: np.array([(y[0] * y[0] + const) / c])


def _general_rhs(alpha, p):
    def rhs(t, y):
        v, f = y
        return np.array([(alpha - 1.0) * f, (alpha * f * f + v * v + 2.0 * alpha * p) / v])
    return rhs


def _scalar_alpha1(c, p, f0, span, cfg):
    ts, ys, rejected, _ = _scalar_rk4_path(
        _alpha1_rhs(c, p), [f0], float(span[0]),
        float(span[1]), cfg.step, lambda y: abs(y[0]) > MAX_F,
    )
    f = ys[:, 0]
    stopped = rejected is not None
    return ts, np.full_like(ts, c), f, (stopped, _scalar_pole(ts, f) if stopped else None,
                                        False, None)


def _scalar_general(alpha, p, v0, f0, span, cfg):
    v_floor = 1e-8 * max(abs(v0), 1.0)
    ts, ys, rejected, cut_theta = _scalar_rk4_path(
        _general_rhs(alpha, p), [v0, f0], float(span[0]), float(span[1]), cfg.step,
        lambda y: abs(y[0]) < v_floor or abs(y[1]) > MAX_F,
    )
    # the stop reason is read off the rejected state: a swirl-floor hit if
    # its |v| is below the floor, a blow-up otherwise
    floor = rejected is not None and abs(rejected[0]) < v_floor
    blew = rejected is not None and not floor
    flags = (blew, _scalar_pole(ts, ys[:, 1]) if blew else None,
             floor, float(cut_theta) if floor else None)
    return ts, ys[:, 0], ys[:, 1], flags


def _assert_bitwise(res, ref):
    ts, v, f, (blew, pole, floor, floor_theta) = ref
    assert np.array_equal(res.profile.theta_nodes, ts)
    assert np.array_equal(res.profile.v_vals, v)
    assert np.array_equal(res.profile.f_vals, f)
    assert (res.blew_up, res.hit_swirl_floor) == (blew, floor)
    assert res.blowup_theta == pole and res.floor_theta == floor_theta


#: c = 1, p = -1: early (20) and late (1.01) blow-ups, transients that
#: settle onto -1 (-3, -0.5, 0, 0.5) and the periodic constants +-1
MIXED_GRID = [-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.01, 1.5, 3.0, 20.0]


class TestMarchMatchesScalarOracle:
    @pytest.mark.parametrize(
        "c, p, grid",
        [
            (1.0, -1.0, MIXED_GRID),
            (1.0, 0.5, np.linspace(-2.0, 2.0, 9)),  # c^2 + 2p > 0: every member blows up
            (-1.5, 0.1, [-1.0, 0.0, 2.0]),  # c < 0: f falls to -inf
        ],
    )
    def test_shoot(self, c, p, grid):
        cfg = OdeConfig(step=5e-3)
        results = shoot_alpha1(c, p, grid, (0.0, 2 * math.pi), cfg)
        assert len(results) == len(grid)
        assert any(r.blew_up for r in results)
        for f0, res in zip(grid, results):
            _assert_bitwise(res, _scalar_alpha1(c, p, float(f0), (0.0, 2 * math.pi), cfg))

    def test_mixed_shoot_reaches_every_outcome(self):
        results = shoot_alpha1(1.0, -1.0, MIXED_GRID, (0.0, 2 * math.pi), OdeConfig(step=5e-3))
        poles = [r.blowup_theta for r in results if r.blew_up]
        assert min(poles) < 0.1 and max(poles) > 2.0
        periodic = periodic_shooting(1.0, -1.0, MIXED_GRID, OdeConfig(step=5e-3))
        assert sorted(m["f0"] for m in periodic["members"] if m["is_periodic"]) == [-1.0, 1.0]

    @pytest.mark.parametrize(
        "args",
        [
            (1.0, 0.0, 0.0, (0.0, 2.0)),
            (1.0, -1.0, 0.5, (0.0, 2 * math.pi)),
            (2.0, 1.0, -0.3, (0.25, 1.7)),
        ],
    )
    def test_single_alpha1(self, args):
        cfg = OdeConfig(step=2e-3)
        _assert_bitwise(integrate_alpha1(*args, cfg), _scalar_alpha1(*args, cfg))

    @pytest.mark.parametrize(
        "args",
        [
            (2.0, 0.0, 1.0, 0.0, (0.0, 1.0)),  # sec branch, completes
            (2.0, -0.5, math.sin(0.4), -math.cos(0.4), (0.0, 1.0)),  # swirl floor
            (2.0, 0.0, 1.0, 0.0, (0.0, 2.0)),  # sec blows up at pi/2
            (1.5, 0.2, -0.7, 0.3, (0.0, 3.0)),  # blows up with v < 0
        ],
    )
    def test_general(self, args):
        cfg = OdeConfig(step=1e-3)
        _assert_bitwise(integrate_general(*args, cfg), _scalar_general(*args, cfg))


@pytest.mark.parametrize("grid", [[2.5e8], [-2.0, 1e9]])
def test_member_starting_above_max_f_blows_up_at_first_step(grid):
    """A member whose f(0) already exceeds MAX_F stops at its first step:
    it is a blow-up whose profile holds f(0) over that step, and the other
    members integrate as they would alone."""
    span = (0.0, 2 * math.pi)
    results = shoot_alpha1(1.0, -1.0, grid, span)
    big = results[-1]
    assert big.blew_up
    assert big.blowup_theta == big.profile.theta_nodes[1] == pytest.approx(1e-3, rel=1e-3)
    assert list(big.profile.f_vals) == [grid[-1]] * 2
    for f0, res in zip(grid, results):
        _assert_bitwise(res, _scalar_alpha1(1.0, -1.0, f0, span, OdeConfig()))


def _end_state(rhs, y0, span, step):
    """Where a member lands when it is marched to the end of ``span``
    without being cut, as the march does before it cuts."""
    return _scalar_rk4_path(rhs, y0, *span, step)[1][-1]


class TestMarchPastTheCut:
    """Every member is marched to the end before it is cut, so a cut member
    may overflow to +-inf or NaN afterwards.  Its result must still be the
    oracle's bit for bit, and no overflow warning may escape (the test
    configuration turns RuntimeWarning into an error)."""

    @pytest.mark.parametrize(
        "c, p, grid, lands_on",
        [
            (1.0, -1.0, [2.5e8, 20.0, 1.01], np.inf),  # above MAX_F at y0, early, late
            (-1.5, 0.1, [-1.0, 0.0, 2.0], -np.inf),  # c < 0: f falls to -inf
            # -inf + inf at the first stage: NaN at the first step, cut at step 0
            (1.0, -1.0, [-np.inf], np.nan),
        ],
    )
    def test_shoot_overflows_after_the_cut(self, c, p, grid, lands_on):
        span, cfg = (0.0, 2 * math.pi), OdeConfig(step=5e-3)
        results = shoot_alpha1(c, p, grid, span, cfg)
        for f0, res in zip(grid, results):
            end = _end_state(_alpha1_rhs(c, p), [f0], span, cfg.step)[0]
            assert np.array_equal(end, lands_on, equal_nan=True)
            assert res.blew_up
            _assert_bitwise(res, _scalar_alpha1(c, p, f0, span, cfg))

    @pytest.mark.parametrize(
        "args",
        [
            (2.0, -0.5, math.sin(0.4), -math.cos(0.4), (0.0, 3.0)),  # through the swirl floor
            (1.5, 0.2, -0.7, 0.3, (0.0, 3.0)),  # v < 0 blow-up: -inf, then inf / -inf
        ],
    )
    def test_general_marched_to_nan_past_the_cut(self, args):
        alpha, p, v0, f0, span = args
        cfg = OdeConfig(step=1e-3)
        assert np.isnan(_end_state(_general_rhs(alpha, p), [v0, f0], span, cfg.step)).all()
        _assert_bitwise(integrate_general(*args, cfg), _scalar_general(*args, cfg))

    def test_shoot_swirl_is_exactly_c(self):
        grid = [-2.0, 0.5, 1.0, 20.0]
        for res in shoot_alpha1(3, -5, grid, (0.0, 1.0)):
            v = res.profile.v_vals
            assert v.dtype == np.float64 and v.shape == res.profile.theta_nodes.shape
            assert np.all(v == 3.0)


def test_cor1_with_a_member_above_max_f_runs(tmp_path):
    cfg = tmp_path / "cor1.ini"
    cfg.write_text("[scenario]\nname = cor1\ntag = Cor1\n[ode]\nc = 1\np = -1\n"
                   "f0_min = -2\nf0_max = 1e9\nf0_count = 5\n")
    code, report = run_scenario(parse_config(cfg), tmp_path / "out")
    assert code in (0, 1) and "error" not in report
    members = report["shooting"]["members"]
    blown = [m["f0"] for m in members if "blowup_theta" in m]
    assert blown == list(np.linspace(-2.0, 1e9, 5)[1:])


def test_sec_blowup_flagged_as_blowup():
    """A general-alpha pole is a blow-up with a pole estimate, not a
    swirl-floor hit: v = sec(theta) grows, it never nears 0."""
    res = integrate_general(2.0, 0.0, 1.0, 0.0, (0.0, 2.0))
    assert res.blew_up and not res.hit_swirl_floor
    assert res.blowup_theta == pytest.approx(math.pi / 2, abs=1e-3)


def test_cor1_integrates_each_member_once(tmp_path, monkeypatch):
    from sectorflow import angular_ode
    from sectorflow.scenarios import parse_config, run_scenario

    marched = []
    march = angular_ode._march

    def counting(*args):
        results = march(*args)
        marched.append(len(results))
        return results

    monkeypatch.setattr(angular_ode, "_march", counting)
    cfg = tmp_path / "cor1.ini"
    cfg.write_text("[scenario]\nname = cor1\ntag = Cor1\n[ode]\nc = 1\np = -1\n"
                   "f0_min = -2\nf0_max = 2\nf0_count = 9\nstep = 1e-2\n")
    code, report = run_scenario(parse_config(cfg), tmp_path / "out")
    assert code == 0
    assert "w_equation_residual" in [c["name"] for c in report["checks"]]
    assert marched == [9]
