import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sectorflow import (
    FamilyKind,
    OdeConfig,
    construct_exact,
    integrate_alpha1,
    integrate_general,
    periodic_shooting,
    shoot_alpha1,
    w_equation_residual,
)
from sectorflow.angular_ode import MAX_F, OdeResult, _pole_estimate, classify_periodic
from sectorflow.errors import ParameterDomain, SingularSwirl, ZeroSwirl
from sectorflow.exact import AngularProfile
from sectorflow.scenarios import parse_config, run_scenario


class TestAlpha1Integration:
    def test_tan_oracle(self):
        res = integrate_alpha1(1.0, 0.0, 0.0, (0.0, 0.5))
        assert not (res.blew_up or res.hit_swirl_floor)
        assert res.profile.f_vals[-1] == pytest.approx(math.tan(0.5), abs=1e-8)

    def test_constant_branch(self):
        res = integrate_alpha1(1.0, -0.5, 0.0, (0.0, 1.0))
        np.testing.assert_allclose(res.profile.f_vals, 0.0, atol=1e-14)

    def test_blowup_pole_estimate(self):
        res = integrate_alpha1(1.0, 0.0, 0.0, (0.0, 2.0))
        assert res.blew_up
        assert not res.hit_swirl_floor
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
        assert not (res.blew_up or res.hit_swirl_floor)
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
    """A cut member is marched on until every member is cut or the span
    ends, so it may overflow to +-inf or NaN after its cut.  Its result must still be the
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


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("ode", [{"f0_count": "40"}, {"f0_count": "42"},
                                 {"c": "1", "p": "-0.5"}])
def test_cor1_counts_the_periodic_members_of_its_own_f0_grid(ode, tmp_path):
    """n_periodic expects the grid's f0 with f0^2 = -(c^2 + 2p): with 40 or
    42 members on [-2, 2] no f0 is +-1, so none is periodic; at c^2 + 2p = 0
    the f0 = 0 member is the constant f = 0, the one periodic member."""
    code, report = run_scenario(parse_config(CONFIGS / "cor1.ini", {"ode": ode}), tmp_path)
    assert code == 0, [c for c in report["checks"] if not c["passed"]]
    expected = 1 if "p" in ode else 0
    assert report["shooting"]["n_periodic"] == expected
    assert type(report["checks"][0]["value"]) is int


def test_cor1_shoot_that_misses_the_constant_members_fails_n_periodic(tmp_path, monkeypatch):
    """A control: a march of c f' = f^2 + c^2 + 2p' with p' = p + 0.01 has
    no constant member at f0 = +-1, which the shipped grid holds."""
    from sectorflow import angular_ode

    shoot = angular_ode.shoot_alpha1
    monkeypatch.setattr(angular_ode, "shoot_alpha1",
                        lambda c, p, *args: shoot(c, p + 0.01, *args))
    code, report = run_scenario(parse_config(CONFIGS / "cor1.ini"), tmp_path)
    assert code == 1 and report["shooting"]["n_periodic"] == 0
    assert next(c for c in report["checks"] if c["name"] == "n_periodic")["value"] == 2


def _full_march(profile, rhs, y0, theta_span, cfg, lo=0.0, hi=MAX_F):
    """_march with every member marched to the end of the span before any is cut."""
    t0, t1 = float(theta_span[0]), float(theta_span[1])
    n = max(1, round((t1 - t0) / cfg.step))
    h = (t1 - t0) / n
    path = np.empty((n + 1, *np.shape(y0)))
    path[0] = y0
    with np.errstate(all="ignore"):
        for i in range(n):
            y = path[i]
            k1 = rhs(y)
            k2 = rhs(y + h / 2 * k1)
            k3 = rhs(y + h / 2 * k2)
            k4 = rhs(y + h * k3)
            np.add(y, (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4), out=path[i + 1])
    a = np.abs(path[1:])
    bad = ~((lo <= a) & (a <= hi)).all(axis=2)
    cut = np.where(bad.any(axis=0), bad.argmax(axis=0), n)
    floor = (cut < n) & (a[np.minimum(cut, n - 1), np.arange(len(cut))] < lo).any(axis=1)
    path[1, cut == 0] = path[0, cut == 0]
    nodes = t0 + np.arange(n + 1) * h
    results = []
    for m, k in enumerate(cut.tolist()):
        prof = profile(nodes[:max(k, 1) + 1], path[:max(k, 1) + 1, m])
        if k == n:
            results.append(OdeResult(prof))
        elif floor[m]:
            results.append(OdeResult(prof, hit_swirl_floor=True, floor_theta=float(nodes[k])))
        else:
            results.append(OdeResult(prof, blew_up=True,
                                     blowup_theta=_pole_estimate(prof.theta_nodes, prof.f_vals)))
    return results


def _bits(res):
    prof = res.profile
    return ([np.ascontiguousarray(a).tobytes()
             for a in (prof.theta_nodes, prof.v_vals, prof.f_vals)],
            res.blew_up, res.blowup_theta, res.hit_swirl_floor, res.floor_theta)


@pytest.mark.parametrize("integrate, args, cut, early", [
    # c^2 + 2p > 0: every member blows up, the last near theta = 1.8 of 2 pi
    (shoot_alpha1, (1.0, 0.5, np.linspace(-2.0, 2.0, 41), (0.0, 2 * math.pi)), "all", True),
    (shoot_alpha1, (1.0, -1.0, MIXED_GRID, (0.0, 2 * math.pi)), "some", False),
    (shoot_alpha1, (1.0, -1.0, [-3.0, -1.0, 0.0, 0.5, 1.0], (0.0, 2 * math.pi)), "none", False),
    # every member blows up between theta = 0.83 and 0.97, after the last look at step 768
    (shoot_alpha1, (1.0, 0.5, [0.3, 0.45, 0.6], (0.0, 1.0)), "all", False),
    (integrate_general, (2.0, -0.5, math.sin(0.4), -math.cos(0.4), (0.0, 3.0)), "all", True),
    (integrate_general, (2.0, 0.0, 1.0, 0.0, (0.0, 2.0)), "all", True),
], ids=["shoot-all-cut", "shoot-some-cut", "shoot-none-cut", "shoot-last-look",
        "general-floor", "general-blowup"])
def test_march_stops_once_every_member_is_cut(monkeypatch, integrate, args, cut, early):
    """The march looks every 256 steps and stops once every member is cut:
    each result equals the full march's bit for bit, and only a shoot whose
    every member is cut takes fewer steps."""
    got, want, calls = _march_and_full_march(monkeypatch, integrate, args)
    assert [_bits(r) for r in got] == [_bits(r) for r in want]
    assert {"all": all, "some": any, "none": lambda c: not any(c)}[cut](
        [r.blew_up or r.hit_swirl_floor for r in got])
    n = round((args[-1][1] - args[-1][0]) / OdeConfig().step)
    assert (calls // 4 < n) == early and calls % 4 == 0


def _march_and_full_march(monkeypatch, integrate, args):
    """``integrate(*args)`` through the march and through _full_march, each as
    a list of results, and the right-hand-side calls the march made (four a
    step)."""
    from sectorflow import angular_ode

    steps, march = [], angular_ode._march

    def counting(profile, rhs, *rest, **kw):
        def counted(y):
            steps.append(1)
            return rhs(y)
        return march(profile, counted, *rest, **kw)

    monkeypatch.setattr(angular_ode, "_march", counting)
    got = integrate(*args)
    monkeypatch.setattr(angular_ode, "_march", _full_march)
    want = integrate(*args)
    got, want = (got, want) if isinstance(got, list) else ([got], [want])
    return got, want, len(steps)


def _ramp(y0, span, hi):
    """Members y' = 1 from ``y0`` at step 2^-10, where every sum is exact, cut
    above ``hi``."""
    from sectorflow import angular_ode

    return angular_ode._march(lambda t, y: AngularProfile(1.0, 0.0, t, np.ones(len(t)), y[:, 0]),
                              np.ones_like, np.array(y0)[:, None], span,
                              OdeConfig(step=2.0**-10), hi=hi)


def _nodes_kept(results):
    return [len(r.profile.theta_nodes) - 1 for r in results]


@pytest.mark.parametrize("integrate, args, steps, shows", [
    # 200 steps: the one look is at the last step, and finds the early blow-up
    (shoot_alpha1, (1.0, -1.0, MIXED_GRID, (0.0, 0.2)), 200,
     lambda rs: _nodes_kept(rs)[-1] == 50 and not any(r.blew_up for r in rs[:-1])),
    (shoot_alpha1, (1.0, 0.5, [20.0, 50.0], (0.0, 0.2)), 200,
     lambda rs: _nodes_kept(rs) == [50, 20]),
    # 512 steps: the last look is a full window, and no tail is left
    (shoot_alpha1, (1.0, -1.0, MIXED_GRID, (0.0, 0.512)), 512,
     lambda rs: _nodes_kept(rs)[-2:] == [347, 50] and sum(r.blew_up for r in rs) == 2),
    (shoot_alpha1, (1.0, 0.5, [0.3, 0.45, 0.6], (0.0, 1.024)), 1024,
     lambda rs: _nodes_kept(rs) == [963, 893, 827]),
    # the first member's first state outside is row 257, the first of the
    # second window; the second's is row 256, the last of the first
    (_ramp, ([0.0, 2.0**-10], (0.0, 600 * 2.0**-10), 256.5 * 2.0**-10), 512,
     lambda rs: _nodes_kept(rs) == [256, 255] and all(r.blew_up for r in rs)),
    # every member is out at the first step: y0 is kept as the second node
    (shoot_alpha1, (1.0, -1.0, [2.5e8, -np.inf], (0.0, 2 * math.pi)), 256,
     lambda rs: [list(r.profile.f_vals) for r in rs] == [[2.5e8] * 2, [-np.inf] * 2]),
    # the swirl floor at row 400, after the last full window: the tail look's
    (integrate_general, (2.0, -0.5, math.sin(0.4), -math.cos(0.4), (0.0, 0.45)), 450,
     lambda rs: rs[0].hit_swirl_floor and rs[0].floor_theta == 0.399),
], ids=["under-256-some-cut", "under-256-all-cut", "multiple-of-256", "multiple-of-256-all-cut",
        "window-first-row", "cut-at-first-step", "general-floor-in-the-tail"])
def test_window_edges_match_the_full_march(monkeypatch, integrate, args, steps, shows):
    """The looks' bookkeeping at its edges: each result equals the full
    march's bit for bit, and the march takes the RK4 steps up to the look
    that cuts its last member, or every step."""
    got, want, calls = _march_and_full_march(monkeypatch, integrate, args)
    assert [_bits(r) for r in got] == [_bits(r) for r in want]
    assert calls == 4 * steps
    assert shows(got)
