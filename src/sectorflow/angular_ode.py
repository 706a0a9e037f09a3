"""Fixed-step RK4 integration of the angular-profile ODE system.

For homogeneity degree alpha = 1 the angular velocity is a constant c and
the radial profile f solves the Riccati equation c f' = f^2 + c^2 + 2p.
For alpha != 1 the pair (v, f) solves v' = (alpha - 1) f,
f' = (alpha f^2 + v^2 + 2 alpha p) / v, which is singular at v = 0.
Every integration is one vectorised RK4 march over an array of members
(a shoot over many f(0), or a batch of one), each marched to the end and
cut afterwards: tan-type branches blow up in finite angle and are cut with
a flag and a pole estimate, swirl that reaches the v = 0 floor with a flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import cumulative_trapezoid
from .errors import ParameterDomain, SingularSwirl, ZeroSwirl
from .exact import AngularProfile


#: a member whose |f| exceeds this has blown up
MAX_F = 1e8


@dataclass(frozen=True)
class OdeConfig:
    """Fixed-step classical RK4 settings: the step, in (0, 0.1]."""

    step: float = 1e-3

    def __post_init__(self):
        if not (0.0 < self.step <= 1e-1):
            raise ValueError(f"step must lie in (0, 0.1], got {self.step}")


@dataclass(frozen=True)
class OdeResult:
    """Integration output: (partial) profile plus termination flags."""

    profile: AngularProfile
    blew_up: bool = False
    blowup_theta: float | None = None
    hit_swirl_floor: bool = False
    floor_theta: float | None = None

    @property
    def completed(self) -> bool:
        return not (self.blew_up or self.hit_swirl_floor)


def _pole_estimate(ts, f):
    """Zero of 1/f extrapolated linearly from the last two nodes (1/f
    vanishes linearly at a pole); None where f is 0 at either node."""
    if f[-1] == 0.0 or f[-2] == 0.0:
        return None
    g_prev, g_last = 1.0 / f[-2], 1.0 / f[-1]
    if g_prev == g_last:
        return ts[-1]
    return ts[-1] - g_last * (ts[-1] - ts[-2]) / (g_last - g_prev)


def _march(profile, rhs, y0, theta_span, cfg, lo=0.0, hi=MAX_F) -> list[OdeResult]:
    """March RK4 over every member (row of ``y0``) to theta_span[1], whose
    node the rounded step count lands on.  Members are independent, so each
    is cut after the march at its first state with an |entry| outside
    [lo, hi] (NaN fails both): below ``lo`` is a swirl-floor hit, else a
    blow-up; one cut at the first step keeps y0 as its second node.
    ``profile(nodes, rows)`` builds a member's AngularProfile."""
    t0, t1 = float(theta_span[0]), float(theta_span[1])
    if not t1 > t0:
        raise ValueError("theta_span must be increasing")
    n = max(1, round((t1 - t0) / cfg.step))
    h = (t1 - t0) / n
    path = np.empty((n + 1, *np.shape(y0)))
    path[0] = y0
    with np.errstate(all="ignore"):  # a member past its cut may overflow
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
            pole = _pole_estimate(prof.theta_nodes, prof.f_vals)
            results.append(OdeResult(prof, blew_up=True, blowup_theta=pole))
    return results


def shoot_alpha1(
    c: float, p: float, f0_grid, theta_span: tuple[float, float], cfg: OdeConfig = OdeConfig()
) -> list[OdeResult]:
    """Integrate the Riccati profile c f' = f^2 + c^2 + 2p from every f(0)
    in ``f0_grid`` in one march, each member once; one result per f(0).
    The march carries f alone: the swirl v = c is constant.

    Raises ZeroSwirl for c = 0 (the equation degenerates to algebra).  A
    member that blows up carries its partial profile and a pole estimate.
    """
    if c == 0.0:
        raise ZeroSwirl("alpha=1 profile equation needs c != 0")
    const = c * c + 2.0 * p
    f0 = np.asarray(f0_grid, dtype=float)[:, None]
    return _march(lambda t, f: AngularProfile(1.0, p, t, np.full(len(t), float(c)), f[:, 0]),
                  lambda f: (f * f + const) / c, f0, theta_span, cfg)


def integrate_alpha1(
    c: float, p: float, f0: float, theta_span: tuple[float, float], cfg: OdeConfig = OdeConfig()
) -> OdeResult:
    """Integrate c f' = f^2 + c^2 + 2p from f(0) = f0: a shoot of one."""
    return shoot_alpha1(c, p, [f0], theta_span, cfg)[0]


def integrate_general(
    alpha: float,
    p: float,
    v0: float,
    f0: float,
    theta_span: tuple[float, float],
    cfg: OdeConfig = OdeConfig(),
) -> OdeResult:
    """Integrate v' = (alpha - 1) f, f' = (alpha f^2 + v^2 + 2 alpha p) / v.

    The system is singular where v = 0; the march halts with a flag when
    |v| drops below the structural floor 1e-8 * max(|v0|, 1), and with a
    pole estimate when f blows up.
    """
    v_floor = 1e-8 * max(abs(v0), 1.0)
    if abs(v0) < v_floor or v0 == 0.0:
        raise SingularSwirl("initial swirl v0 is below the v=0 floor", theta=0.0)

    def rhs(y):
        v, f = y.T
        return np.column_stack([(alpha - 1.0) * f,
                                (alpha * f * f + v * v + 2.0 * alpha * p) / v])

    # the largest float bounds |v|, so an infinite swirl is a blow-up
    return _march(lambda t, y: AngularProfile(alpha, p, t, *y.T), rhs, [[v0, f0]], theta_span,
                  cfg, lo=(v_floor, 0.0), hi=(np.finfo(float).max, MAX_F))[0]


PERIODIC_TOL = 1e-9


def classify_periodic(c: float, p: float, results) -> dict:
    """Classify alpha=1 profiles shot over [0, 2*pi] (:func:`shoot_alpha1`)
    from the results alone, with no further integration.

    Members with periodicity defect |f(2*pi) - f(0)| below 1e-9 are marked
    periodic.  Every periodic member is additionally checked to be constant
    with f^2 = -(c^2 + 2p), the only shape a sign-definite periodic profile
    can take.  No results at all raise ParameterDomain.
    """
    const = c * c + 2.0 * p
    members = []
    for res in results:
        f_vals = res.profile.f_vals
        f0 = float(f_vals[0])
        entry = {"f0": f0, "f_range": [float(np.min(f_vals)), float(np.max(f_vals))]}
        if res.blew_up:
            entry["blowup_theta"] = res.blowup_theta
            entry["is_periodic"] = False
        else:
            entry["defect"] = defect = abs(float(f_vals[-1]) - f0)
            entry["is_periodic"] = defect < PERIODIC_TOL
            if entry["is_periodic"]:
                entry["is_constant"] = float(np.max(f_vals) - np.min(f_vals)) < PERIODIC_TOL
                entry["f_squared_defect"] = abs(f0 * f0 + const)
        members.append(entry)
    if not members:
        raise ParameterDomain("periodic classification needs at least one shot profile")
    periodic = [m for m in members if m["is_periodic"]]
    return {
        "c": c,
        "p": p,
        "lambda": -const / (c * c),
        "n_periodic": len(periodic),
        "all_periodic_constant": all(m.get("is_constant", False) for m in periodic),
        "members": members,
    }


def periodic_shooting(
    c: float,
    p: float,
    f0_grid,
    cfg: OdeConfig = OdeConfig(),
) -> dict:
    """Shoot every f0 in ``f0_grid`` over [0, 2*pi] in one march, each member
    once, and classify the periodic members (:func:`classify_periodic`)."""
    return classify_periodic(c, p, shoot_alpha1(c, p, f0_grid, (0.0, 2.0 * math.pi), cfg))


def w_equation_residual(prof: AngularProfile, c: float) -> float:
    """Max residual of w'' = lambda w with w = exp(-int f / c).

    lambda = -(c^2 + 2p) / c^2; the integral uses the trapezoid rule and
    w'' the central second difference, so the residual is O(step^2) for
    exact profiles.
    """
    if c == 0.0:
        raise ZeroSwirl("w-substitution requires c != 0")
    lam = -(c * c + 2.0 * prof.p) / (c * c)
    h = prof.h_theta
    w = np.exp(-cumulative_trapezoid(prof.f_vals, h) / c)
    wpp = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / (h * h)
    return float(np.max(np.abs(wpp - lam * w[1:-1])))


def mass_identity_defect(prof: AngularProfile) -> float:
    """Max defect of v(theta) - v(0) = (alpha - 1) * int_0^theta f."""
    integral = cumulative_trapezoid(prof.f_vals, prof.h_theta)
    return float(
        np.max(np.abs((prof.v_vals - prof.v_vals[0]) - (prof.alpha - 1.0) * integral))
    )
