"""Fixed-step RK4 integration of the angular-profile ODE system.

For homogeneity degree alpha = 1 the angular velocity is a constant c and
the radial profile f solves the Riccati equation c f' = f^2 + c^2 + 2p.
For alpha != 1 the pair (v, f) solves v' = (alpha - 1) f,
f' = (alpha f^2 + v^2 + 2 alpha p) / v, which is singular at v = 0.
Tan-type branches blow up in finite angle; integration halts with a flag
and a pole estimate instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import cumulative_trapezoid
from .errors import SingularSwirl, ZeroSwirl
from .exact import AngularProfile


@dataclass(frozen=True)
class OdeConfig:
    """Fixed-step classical RK4 settings."""

    step: float = 1e-3
    max_f: float = 1e8

    def __post_init__(self):
        if not (0.0 < self.step <= 1e-1):
            raise ValueError(f"step must lie in (0, 0.1], got {self.step}")
        if self.max_f <= 0:
            raise ValueError("max_f must be positive")


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


def _pole_estimate(t_prev, f_prev, t_last, f_last):
    """Linear extrapolation of 1/f to zero (1/f vanishes linearly at a pole)."""
    g_prev, g_last = 1.0 / f_prev, 1.0 / f_last
    if g_prev == g_last:
        return t_last
    return t_last - g_last * (t_last - t_prev) / (g_last - g_prev)


def _rk4_path(rhs, y0, t0, t1, step, stop):
    """March RK4 with a landing step; ``stop(y)`` truncates the path.

    Returns (t_nodes, y_rows, stopped) where y_rows stacks the accepted
    states; the step count is rounded so the final node hits t1 exactly.
    """
    n = max(1, round((t1 - t0) / step))
    h = (t1 - t0) / n
    ts = [t0]
    ys = [np.asarray(y0, dtype=float)]
    y = ys[0]
    for i in range(n):
        t = t0 + i * h
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h / 2 * k1)
        k3 = rhs(t + h / 2, y + h / 2 * k2)
        k4 = rhs(t + h, y + h * k3)
        y_next = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(y_next)) or stop(y_next):
            return np.array(ts), np.vstack(ys), True
        ts.append(t0 + (i + 1) * h)
        ys.append(y_next)
        y = y_next
    return np.array(ts), np.vstack(ys), False


def integrate_alpha1(
    c: float,
    p: float,
    f0: float,
    theta_span: tuple[float, float],
    cfg: OdeConfig = OdeConfig(),
) -> OdeResult:
    """Integrate the Riccati profile c f' = f^2 + c^2 + 2p from f(0) = f0.

    Raises ZeroSwirl for c = 0 (the equation degenerates to algebra).  On
    finite-angle blow-up the result carries the partial profile and a
    pole estimate from inverse-linear extrapolation of 1/f.
    """
    if c == 0.0:
        raise ZeroSwirl("alpha=1 profile equation needs c != 0")
    t0, t1 = float(theta_span[0]), float(theta_span[1])
    if not t1 > t0:
        raise ValueError("theta_span must be increasing")
    const = c * c + 2.0 * p

    def rhs(t, y):
        return np.array([(y[0] * y[0] + const) / c])

    ts, ys, stopped = _rk4_path(
        rhs, [f0], t0, t1, cfg.step, lambda y: abs(y[0]) > cfg.max_f
    )
    f_vals = ys[:, 0]
    prof = AngularProfile(1.0, p, ts, np.full_like(ts, c), f_vals)
    if stopped:
        pole = None
        if len(ts) >= 2 and f_vals[-1] != 0.0 and f_vals[-2] != 0.0:
            pole = _pole_estimate(ts[-2], f_vals[-2], ts[-1], f_vals[-1])
        return OdeResult(prof, blew_up=True, blowup_theta=pole)
    return OdeResult(prof)


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
    |v| drops below the structural floor 1e-8 * max(|v0|, 1).
    """
    v_floor = 1e-8 * max(abs(v0), 1.0)
    if abs(v0) < v_floor or v0 == 0.0:
        raise SingularSwirl("initial swirl v0 is below the v=0 floor", theta=0.0)
    t0, t1 = float(theta_span[0]), float(theta_span[1])
    if not t1 > t0:
        raise ValueError("theta_span must be increasing")

    def rhs(t, y):
        v, f = y
        return np.array(
            [(alpha - 1.0) * f, (alpha * f * f + v * v + 2.0 * alpha * p) / v]
        )

    def stop(y):
        return abs(y[0]) < v_floor or abs(y[1]) > cfg.max_f

    ts, ys, stopped = _rk4_path(rhs, [v0, f0], t0, t1, cfg.step, stop)
    prof = AngularProfile(alpha, p, ts, ys[:, 0], ys[:, 1])
    if stopped:
        if abs(ys[-1, 1]) <= cfg.max_f:
            return OdeResult(prof, hit_swirl_floor=True, floor_theta=float(ts[-1]))
        pole = None
        if len(ts) >= 2 and ys[-1, 1] != 0.0 and ys[-2, 1] != 0.0:
            pole = _pole_estimate(ts[-2], ys[-2, 1], ts[-1], ys[-1, 1])
        return OdeResult(prof, blew_up=True, blowup_theta=pole)
    return OdeResult(prof)


PERIODIC_TOL = 1e-9


def periodic_shooting(
    c: float,
    p: float,
    f0_grid,
    cfg: OdeConfig = OdeConfig(),
) -> dict:
    """Classify 2*pi-periodic alpha=1 profiles by shooting from f0_grid.

    Each initial value is integrated over [0, 2*pi]; members with
    periodicity defect |f(2*pi) - f(0)| below 1e-9 are marked periodic.
    Every periodic member is additionally checked to be constant with
    f^2 = -(c^2 + 2p), the only shape a sign-definite periodic profile
    can take.
    """
    if c == 0.0:
        raise ZeroSwirl("shooting requires c != 0")
    const = c * c + 2.0 * p
    members = []
    for f0 in f0_grid:
        f0 = float(f0)
        res = integrate_alpha1(c, p, f0, (0.0, 2.0 * math.pi), cfg)
        f_vals = res.profile.f_vals
        entry = {
            "f0": f0,
            "f_range": [float(np.min(f_vals)), float(np.max(f_vals))],
        }
        if res.blew_up:
            entry["blowup_theta"] = res.blowup_theta
            entry["is_periodic"] = False
        else:
            defect = abs(float(f_vals[-1]) - f0)
            entry["defect"] = defect
            entry["is_periodic"] = defect < PERIODIC_TOL
            if entry["is_periodic"]:
                entry["is_constant"] = (
                    float(np.max(f_vals) - np.min(f_vals)) < PERIODIC_TOL
                )
                entry["f_squared_defect"] = abs(f0 * f0 + const)
        members.append(entry)
    periodic = [m for m in members if m["is_periodic"]]
    return {
        "c": c,
        "p": p,
        "lambda": -const / (c * c),
        "n_periodic": len(periodic),
        "all_periodic_constant": all(m.get("is_constant", False) for m in periodic),
        "members": members,
    }


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
