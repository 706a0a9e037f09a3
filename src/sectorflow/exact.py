"""Closed-form homogeneous solution families on sector domains.

Every family satisfies the angular-profile system

    (1 - alpha) f + v' = 0,
    v f' = alpha f^2 + v^2 + 2 alpha p,

with constant pressure coefficient p, and therefore solves the stationary
Euler equations with u = (v(theta) e_theta + f(theta) e_r) / r^alpha and
P = p / r^(2 alpha).  Shift constants (C, C2) are caller-supplied; the
constructor reports poles instead of auto-selecting shifts.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .domain import LogPolarGrid, repr_csv
from .errors import OutOfValidity, ParameterDomain, SingularityInRange

#: a pole this close (radians) to the requested interval counts as inside
POLE_MARGIN = 1e-6


class FamilyKind(enum.Enum):
    RADIAL_ALPHA1 = "radial_alpha1"
    TAN = "tan"
    RATIONAL = "rational"
    TANH = "tanh"
    COS_POWER = "cos_power"
    SIN = "sin"
    PURE_ROTATION = "pure_rotation"


@dataclass(frozen=True)
class AngularProfile:
    """Tabulated (v, f) profile on a uniform theta grid."""

    alpha: float
    p: float
    theta_nodes: np.ndarray
    v_vals: np.ndarray
    f_vals: np.ndarray

    def __post_init__(self):
        if len(self.v_vals) != len(self.theta_nodes) or len(self.f_vals) != len(
            self.theta_nodes
        ):
            raise ValueError("profile arrays must be congruent")
        if len(self.theta_nodes) < 2:
            raise ValueError("profile needs at least 2 nodes")

    @property
    def h_theta(self) -> float:
        return float(self.theta_nodes[1] - self.theta_nodes[0])

    def to_csv(self, kind: str, params: dict) -> str:
        meta = ["# alpha", repr(self.alpha), "p", repr(self.p), "kind", kind,
                "params", repr(params)]
        return repr_csv([meta, ["theta", "v", "f"]],
                        self.theta_nodes, self.v_vals, self.f_vals)


def profile_residual(prof: AngularProfile) -> tuple[float, float]:
    """Max-norm discrete residuals of the two profile equations.

    res1 uses f' by central differences in v f' - alpha f^2 - v^2
    - 2 alpha p; res2 differences v' in (1 - alpha) f + v'.  Both are
    O(h_theta^2) for smooth exact profiles.
    """
    if len(prof.theta_nodes) < 9:
        raise ValueError("need at least 9 nodes for the residual stencils")
    h = prof.h_theta
    fp = np.gradient(prof.f_vals, h, edge_order=2)
    vp = np.gradient(prof.v_vals, h, edge_order=2)
    res1 = np.max(
        np.abs(
            prof.v_vals * fp
            - prof.alpha * prof.f_vals**2
            - prof.v_vals**2
            - 2.0 * prof.alpha * prof.p
        )
    )
    res2 = np.max(np.abs((1.0 - prof.alpha) * prof.f_vals + vp))
    return float(res1), float(res2)


@dataclass(frozen=True)
class HomogeneousSolution:
    """One constructed family member with closed-form evaluators.

    ``validity`` is the maximal open theta-interval (between adjacent
    poles) on which the profile is finite; it always contains the
    requested [0, theta0].  ``params`` holds every parameter the builder
    read, defaults included.
    """

    kind: FamilyKind
    alpha: float
    p: float
    params: dict
    validity: tuple[float, float]
    v: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    f: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    v_prime: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    f_prime: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    # h(theta) with h' = -f (alpha = 1) or h = v / (1 - alpha) (alpha != 1)
    stream_h: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def _check(self, theta):
        lo, hi = self.validity
        t = np.asarray(theta, dtype=float)
        if np.any(t < lo) or np.any(t > hi):
            raise OutOfValidity(f"theta outside validity interval ({lo}, {hi})")
        return t

    def velocity_pressure(self, r, theta):
        """(u_r, u_theta, P) at the given points; r must be positive."""
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0):
            raise OutOfValidity("r must be positive")
        t = self._check(theta)
        scale = r ** (-self.alpha)
        return self.f(t) * scale, self.v(t) * scale, self.p * r ** (-2 * self.alpha)

    def stream(self, r, theta):
        """Stream function psi with u = (psi_r, -psi_theta / r)."""
        r = np.asarray(r, dtype=float)
        t = self._check(theta)
        if self.alpha == 1.0:
            c = float(self.v(np.zeros(1))[0]) if np.ndim(t) else float(self.v(t))
            return c * np.log(r) + self.stream_h(t)
        return self.stream_h(t) * r ** (1.0 - self.alpha)

    def profile(self, theta0: float, n: int = 1000) -> AngularProfile:
        nodes = np.linspace(0.0, theta0, n + 1)
        self._check(nodes)
        return AngularProfile(self.alpha, self.p, nodes, self.v(nodes), self.f(nodes))

    def closed_form_residual(self, theta) -> tuple[float, float]:
        """Profile-equation residuals with analytic derivatives (no grid)."""
        t = self._check(theta)
        r1 = np.max(
            np.abs(
                self.v(t) * self.f_prime(t)
                - self.alpha * self.f(t) ** 2
                - self.v(t) ** 2
                - 2.0 * self.alpha * self.p
            )
        )
        r2 = np.max(np.abs((1.0 - self.alpha) * self.f(t) + self.v_prime(t)))
        return float(r1), float(r2)


def _validity_from_poles(poles: list[float], theta0: float) -> tuple[float, float]:
    """Widest pole-free open interval containing [0, theta0].

    Raises SingularityInRange if any pole lands within POLE_MARGIN of the
    requested interval.
    """
    lo, hi = -math.inf, math.inf
    for pole in poles:
        if -POLE_MARGIN <= pole <= theta0 + POLE_MARGIN:
            raise SingularityInRange(
                f"profile pole at theta={pole:.6g} inside [0, {theta0:.6g}]",
                theta=pole,
            )
        if pole < 0:
            lo = max(lo, pole)
        else:
            hi = min(hi, pole)
    return lo, hi


def _tan_poles(k_over_v: float, shift: float, theta0: float) -> list[float]:
    """Solutions of k_over_v * theta + shift = pi/2 + n*pi near [0, theta0]."""
    if k_over_v == 0.0:
        return []
    lo_arg = shift if k_over_v > 0 else k_over_v * theta0 + shift
    hi_arg = k_over_v * theta0 + shift if k_over_v > 0 else shift
    n_lo = math.floor((lo_arg - math.pi / 2) / math.pi) - 1
    n_hi = math.ceil((hi_arg - math.pi / 2) / math.pi) + 1
    return [
        (math.pi / 2 + n * math.pi - shift) / k_over_v for n in range(n_lo, n_hi + 1)
    ]


def construct_exact(
    kind: FamilyKind, params: dict, theta0: float
) -> HomogeneousSolution:
    """Build one explicit family member valid on [0, theta0].

    Raises ParameterDomain when the branch constraints are violated and
    SingularityInRange when every profile pole check fails.
    """
    if theta0 <= 0:
        raise ParameterDomain("theta0 must be positive")
    builder = _BUILDERS[kind]
    return builder(dict(params), float(theta0))


def _zero(t):
    """Profile that is identically 0."""
    return np.zeros_like(np.asarray(t, dtype=float))


def _const(value: float):
    """Profile that is identically ``value``."""
    return lambda t: np.full_like(np.asarray(t, dtype=float), value)


def _build_radial_alpha1(params, theta0):
    p = float(params["p"])
    sign = float(params.get("sign", 1.0))
    if p > 0:
        raise ParameterDomain("radial branch needs p <= 0 (f^2 = -2p)")
    if sign not in (-1.0, 1.0):
        raise ParameterDomain("sign must be +1 or -1")
    f0 = sign * math.sqrt(-2.0 * p)
    return HomogeneousSolution(
        FamilyKind.RADIAL_ALPHA1, 1.0, p, {"p": p, "sign": sign},
        (-math.inf, math.inf),
        v=_zero,
        f=_const(f0),
        v_prime=_zero,
        f_prime=_zero,
        stream_h=lambda t: -f0 * np.asarray(t, dtype=float),
    )


def _build_tan(params, theta0):
    v0 = float(params["v"])
    p = float(params["p"])
    C = float(params.get("C", 0.0))
    if v0 == 0.0:
        raise ParameterDomain("tan branch needs v != 0")
    disc = v0 * v0 + 2.0 * p
    if disc <= 0.0:
        raise ParameterDomain("tan branch needs v^2 + 2p > 0")
    k = math.sqrt(disc)
    kv = k / v0
    validity = _validity_from_poles(_tan_poles(kv, C, theta0), theta0)

    def f(t):
        return k * np.tan(kv * np.asarray(t, dtype=float) + C)

    def f_prime(t):
        return (k * kv) / np.cos(kv * np.asarray(t, dtype=float) + C) ** 2

    def stream_h(t):
        u = kv * np.asarray(t, dtype=float) + C
        return v0 * (np.log(np.cos(u)) - math.log(math.cos(C)))

    return HomogeneousSolution(
        FamilyKind.TAN, 1.0, p, {"v": v0, "p": p, "C": C}, validity,
        v=_const(v0),
        f=f,
        v_prime=_zero,
        f_prime=f_prime,
        stream_h=stream_h,
    )


def _build_rational(params, theta0):
    v0 = float(params["v"])
    if v0 == 0.0:
        raise ParameterDomain("rational branch needs v != 0")
    p = -0.5 * v0 * v0
    C = params.get("C", None)
    if C is None:
        # f == 0 constant branch
        return HomogeneousSolution(
            FamilyKind.RATIONAL, 1.0, p, {"v": v0, "C": None},
            (-math.inf, math.inf),
            v=_const(v0),
            f=_zero,
            v_prime=_zero,
            f_prime=_zero,
            stream_h=_zero,
        )
    C = float(C)
    validity = _validity_from_poles([-C], theta0)

    def f(t):
        return -v0 / (np.asarray(t, dtype=float) + C)

    return HomogeneousSolution(
        FamilyKind.RATIONAL, 1.0, p, {"v": v0, "C": C}, validity,
        v=_const(v0),
        f=f,
        v_prime=_zero,
        f_prime=lambda t: v0 / (np.asarray(t, dtype=float) + C) ** 2,
        stream_h=lambda t: v0
        * (np.log(np.abs(np.asarray(t, dtype=float) + C)) - math.log(abs(C))),
    )


def _build_tanh(params, theta0):
    v0 = float(params["v"])
    p = float(params["p"])
    C = float(params["C"])
    if v0 == 0.0:
        raise ParameterDomain("exponential-quotient branch needs v != 0")
    disc = v0 * v0 + 2.0 * p
    if disc >= 0.0:
        raise ParameterDomain("exponential-quotient branch needs v^2 + 2p < 0")
    if C == 0.0:
        raise ParameterDomain("C must be nonzero (C -> +-inf gives the constant branch)")
    k = math.sqrt(-disc)
    m = 2.0 * k / v0
    if math.isinf(C):
        # constant branch f == -k, the C -> +-inf limit of the quotient
        return HomogeneousSolution(
            FamilyKind.TANH, 1.0, p, {"v": v0, "p": p, "C": C},
            (-math.inf, math.inf),
            v=_const(v0),
            f=_const(-k),
            v_prime=_zero,
            f_prime=_zero,
            stream_h=lambda t: k * np.asarray(t, dtype=float),
        )
    poles = []
    if C < 0.0:
        poles.append(math.log(-1.0 / C) / m)
    validity = _validity_from_poles(poles, theta0)

    def quotient(t):
        return 1.0 + C * np.exp(m * np.asarray(t, dtype=float))

    def f(t):
        return 2.0 * k / quotient(t) - k

    def f_prime(t):
        e = C * np.exp(m * np.asarray(t, dtype=float))
        return -2.0 * k * m * e / (1.0 + e) ** 2

    def stream_h(t):
        t = np.asarray(t, dtype=float)
        return -k * t + v0 * (np.log(np.abs(quotient(t))) - math.log(abs(1.0 + C)))

    return HomogeneousSolution(
        FamilyKind.TANH, 1.0, p, {"v": v0, "p": p, "C": C}, validity,
        v=_const(v0),
        f=f,
        v_prime=_zero,
        f_prime=f_prime,
        stream_h=stream_h,
    )


def _build_cos_power(params, theta0):
    alpha = float(params["alpha"])
    if alpha == 1.0:
        raise ParameterDomain("cos-power branch needs alpha != 1")
    C1 = float(params["C1"])
    C2 = float(params.get("C2", 0.0))
    validity = _validity_from_poles(_tan_poles(1.0, C2, theta0), theta0)
    # non-integer exponents need cos > 0 on the whole working interval
    mid = math.cos(C2 + theta0 / 2.0)
    if mid <= 0.0:
        raise ParameterDomain("cos(theta + C2) must be positive on [0, theta0]")

    def v(t):
        return C1 * np.cos(np.asarray(t, dtype=float) + C2) ** (1.0 - alpha)

    def f(t):
        u = np.asarray(t, dtype=float) + C2
        return C1 * np.cos(u) ** (-alpha) * np.sin(u)

    def f_prime(t):
        u = np.asarray(t, dtype=float) + C2
        return C1 * (
            alpha * np.cos(u) ** (-alpha - 1.0) * np.sin(u) ** 2
            + np.cos(u) ** (1.0 - alpha)
        )

    return HomogeneousSolution(
        FamilyKind.COS_POWER, alpha, 0.0,
        {"alpha": alpha, "C1": C1, "C2": C2}, validity,
        v=v,
        f=f,
        v_prime=lambda t: (alpha - 1.0) * f(t),
        f_prime=f_prime,
        stream_h=lambda t: v(t) / (1.0 - alpha),
    )


def _build_sin(params, theta0):
    alpha = float(params["alpha"])
    p = float(params["p"])
    C = float(params.get("C", 0.0))
    if alpha == 1.0:
        raise ParameterDomain("sin branch needs alpha != 1")
    if p >= 0.0:
        raise ParameterDomain("sin branch needs p < 0")
    k = math.sqrt(-2.0 * p)
    m = 1.0 - alpha

    def v(t):
        return k * np.sin(m * np.asarray(t, dtype=float) + C)

    def f(t):
        return -k * np.cos(m * np.asarray(t, dtype=float) + C)

    return HomogeneousSolution(
        FamilyKind.SIN, alpha, p, {"alpha": alpha, "p": p, "C": C},
        (-math.inf, math.inf),
        v=v,
        f=f,
        v_prime=lambda t: k * m * np.cos(m * np.asarray(t, dtype=float) + C),
        f_prime=lambda t: k * m * np.sin(m * np.asarray(t, dtype=float) + C),
        stream_h=lambda t: v(t) / (1.0 - alpha),
    )


def _build_pure_rotation(params, theta0):
    alpha = float(params["alpha"])
    c = float(params["c"])
    if alpha < 1.0:
        raise ParameterDomain("pure rotation branch needs alpha >= 1")
    if c == 0.0:
        raise ParameterDomain("pure rotation needs c != 0")
    p = -c * c / (2.0 * alpha)
    stream_h = _zero if alpha == 1.0 else _const(c / (1.0 - alpha))
    return HomogeneousSolution(
        FamilyKind.PURE_ROTATION, alpha, p, {"alpha": alpha, "c": c},
        (-math.inf, math.inf),
        v=_const(c),
        f=_zero,
        v_prime=_zero,
        f_prime=_zero,
        stream_h=stream_h,
    )


_BUILDERS = {
    FamilyKind.RADIAL_ALPHA1: _build_radial_alpha1,
    FamilyKind.TAN: _build_tan,
    FamilyKind.RATIONAL: _build_rational,
    FamilyKind.TANH: _build_tanh,
    FamilyKind.COS_POWER: _build_cos_power,
    FamilyKind.SIN: _build_sin,
    FamilyKind.PURE_ROTATION: _build_pure_rotation,
}


def euler_residual_closed_form(
    sol: HomogeneousSolution, grid: LogPolarGrid
) -> tuple[float, float, float]:
    """Relative max-norm residuals of the full polar Euler system.

    The momentum and continuity equations are assembled term by term at
    the grid nodes using the analytic derivatives of the closed forms, so
    the only error is floating-point cancellation.  Each residual is
    normalized by the largest term magnitude entering it.
    """
    a = sol.alpha
    r, TH = grid.r_nodes[:, None], grid.theta_nodes[None, :]  # broadcast to the mesh
    f, v = sol.f(TH), sol.v(TH)
    fp, vp = sol.f_prime(TH), sol.v_prime(TH)
    ra = r**-a
    ur, ut = f * ra, v * ra

    # radial momentum: u_r dr(u_r) + (u_t / r) dth(u_r) - u_t^2 / r + dr(P)
    t1 = ur * (-a * f * ra / r)
    t2 = (ut / r) * (fp * ra)
    t3 = -(ut**2) / r
    t4 = -2.0 * a * sol.p * r ** (-2 * a - 1)
    mom_r = t1 + t2 + t3 + t4
    scale_r = np.max(np.abs(t1) + np.abs(t2) + np.abs(t3) + np.abs(t4)) + 1e-300

    # angular momentum: u_r dr(u_t) + (u_t / r) dth(u_t) + u_t u_r / r
    s1 = ur * (-a * v * ra / r)
    s2 = (ut / r) * (vp * ra)
    s3 = ut * ur / r
    mom_t = s1 + s2 + s3
    scale_t = np.max(np.abs(s1) + np.abs(s2) + np.abs(s3)) + 1e-300

    # continuity scaled by r: dr(r u_r) + dth(u_t)
    d1 = (1.0 - a) * f * ra
    d2 = vp * ra
    div = d1 + d2
    scale_d = np.max(np.abs(d1) + np.abs(d2) + np.abs(ur) + np.abs(ut)) + 1e-300

    return (
        float(np.max(np.abs(mom_r)) / scale_r),
        float(np.max(np.abs(mom_t)) / scale_t),
        float(np.max(np.abs(div)) / scale_d),
    )
