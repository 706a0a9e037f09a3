"""Damped-Newton solver for semilinear problems L Psi = F(s) g(arg) on
log-polar rectangles, periodic in s.

The working frame :class:`Frame` is the whole problem statement.  It fixes
the constant-coefficient operator L = d_ss + d_thth + b1 d_s + c0, the
forcing profile F and the nonlinearity's argument (Psi + c s) e^{(1-alpha)s};
:func:`_frame_problem` is the one place that maps a frame to them.
Dirichlet data Psi = h(theta) is imposed on the theta-edges, and the two
s-edges are identified, so the grid spans one period in s.  Newton carries
only the unknowns, s-rows 0 .. n_s - 1 by theta-columns 1 .. n_t - 1; one
ghost fill in :func:`solve_semilinear` is where periodicity and the edges live.

The discrete operator is written once, as the term table of
:func:`_stencil_terms`, and evaluated by :func:`_apply_stencil`; the Newton
residual and the Jacobian's action both call it, so no matrix is assembled.
The table's order is the residual's floating-point evaluation order, and it
is fixed: converged residuals sit near the roundoff floor, so another order
changes which solves meet their tolerance.

Each Newton step solves J delta = -R by GMRES on the Jacobian's action (the
stencil on delta minus the nonlinearity's derivative times delta; the
Jacobian-free Newton-Krylov pattern of Knoll & Keyes, J. Comput. Phys. 193,
2004), right-preconditioned by the exact inverse of the stencil's constant
part shifted by the mean nonlinear diagonal.  An rfft in s times a DST-I in
theta diagonalises that part, and its eigenvalues come from the same term
table (:func:`_periodic_symbol`).  Both transforms are ``numpy.fft``; the
DST-I is the rfft of the odd extension (:func:`_dst1`; Press et al.,
Numerical Recipes, 3rd ed., section 12.4), so no SciPy module is imported.
GMRES aims at ||J delta + R||_2 <= KRYLOV_RTOL ||R||_2; a step that misses
it within the iteration cap is still taken, recorded as not converged, and
the damped line search rejects it if the residual does not decrease.  GMRES
(:func:`_gmres`) sums in a fixed order, not in BLAS, so the bits do not
depend on thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np

from .domain import LogPolarGrid
from .errors import NoConvergence, ParameterDomain
from .fields import ScalarField
from .rigidity import s_variance

#: Newton damping floor: step fraction never drops below 2**-10
DAMPING_FLOOR = 2.0**-10

#: inexact-Newton forcing of a Krylov step, ||J delta + R||_2 <= KRYLOV_RTOL ||R||_2;
#: 1e-13 sits below the roundoff floor of the 1/h^2-scaled Jacobian, and
#: GMRES misses it on the late Newton steps
KRYLOV_RTOL = 1e-10
#: GMRES restart length and restart cycles; a step not solved within them
#: is GMRES's last iterate, recorded in SolveReport.krylov_converged
KRYLOV_RESTART, KRYLOV_CYCLES = 30, 2


# --------------------------------------------------------------------------
# working frame


@dataclass(frozen=True)
class Frame:
    """Working frame Psi = psi(e^s, theta) e^{(alpha-1)s} - c s: L = d_ss +
    d_thth + 2(1-alpha) d_s + (1-alpha)^2, conjugate to the polar Laplacian,
    and F = e^{(1+alpha)s}.  The c s term is the alpha = 1 stream's c ln r
    part, so c != 0 needs alpha = 1."""

    alpha: float
    c: float = 0.0

    def __post_init__(self):
        if self.c != 0.0 and self.alpha != 1.0:
            raise ParameterDomain(f"a frame with c = {self.c} needs alpha = 1, "
                                  f"got alpha = {self.alpha}")


def from_working(s: np.ndarray, Psi: np.ndarray, frame: Frame) -> np.ndarray:
    """Stream values psi = (Psi + c s) e^{(1-alpha)s} from working-frame
    values Psi at log-radii ``s`` (``s`` broadcasts against ``Psi``).  This
    is the nonlinearity's argument in the solver."""
    return (Psi + frame.c * s) * np.exp((1.0 - frame.alpha) * s)


def _frame_problem(frame: Frame, s: np.ndarray):
    """(b1, c0, F, d arg / d Psi) of the frame's problem at log-radii ``s``:
    L = d_ss + d_thth + b1 d_s + c0, and arg is :func:`from_working`."""
    a = frame.alpha
    return 2.0 * (1.0 - a), (1.0 - a) ** 2, np.exp((1.0 + a) * s), np.exp((1.0 - a) * s)


# --------------------------------------------------------------------------
# nonlinearity specifications


@dataclass(frozen=True)
class ZeroG:
    """g identically zero (linear problem)."""

    def g(self, z):
        return np.zeros_like(np.asarray(z, dtype=float))

    def g_prime(self, z):
        return np.zeros_like(np.asarray(z, dtype=float))


@dataclass(frozen=True)
class ExpForm:
    """g(z) = K * exp(-2 z / c)."""

    K: float
    c: float

    def __post_init__(self):
        if self.c == 0.0:
            raise ParameterDomain("ExpForm needs c != 0")

    def g(self, z):
        return self.K * np.exp(-2.0 * np.asarray(z, dtype=float) / self.c)

    def g_prime(self, z):
        return (-2.0 / self.c) * self.g(z)


@dataclass(frozen=True)
class PowerForm:
    """g(z) = C |z|^q with q >= 1, the Thm2 power law; for q > 1 the
    derivative at z = 0 is the analytic limit 0."""

    C: float
    q: float

    def __post_init__(self):
        if self.q < 1.0:
            raise ParameterDomain(f"PowerForm needs q >= 1, got q = {self.q}")

    def g(self, z):
        z = np.asarray(z, dtype=float)
        return self.C * np.abs(z) ** self.q

    def g_prime(self, z):
        z = np.asarray(z, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            d = self.C * self.q * np.abs(z) ** (self.q - 1.0) * np.sign(z)
        if self.q > 1.0:
            d = np.where(z == 0.0, 0.0, d)
        return d


GSpec = ZeroG | ExpForm | PowerForm


@dataclass
class SolveReport:
    """Newton outcome.  ``krylov_converged`` and ``krylov_iterations`` hold
    one entry per Newton step; a False step is GMRES's iterate at the cap,
    whose true residual missed KRYLOV_RTOL."""

    iterations: int
    final_residual: float
    s_variance: float
    converged: bool
    residual_history: list = field(default_factory=list)
    krylov_converged: list = field(default_factory=list)
    krylov_iterations: list = field(default_factory=list)


def default_initial_guess(
    grid: LogPolarGrid,
    boundary_h,
    amplitude: float = 0.0,
    seed: int = 0,
) -> ScalarField:
    """h(theta) replicated over s plus a seeded interior perturbation.

    The perturbation vanishes on the boundary so Dirichlet data stays
    exact; a nonzero amplitude gives the rigidity demos a genuinely
    s-dependent start.
    """
    th = grid.theta_nodes
    vals = np.tile(np.asarray(boundary_h(th), dtype=float), (grid.n_s + 1, 1))
    if amplitude != 0.0:
        rng = np.random.default_rng(seed)
        bump = rng.standard_normal(grid.shape)
        win_s = np.sin(
            np.pi * (grid.s_nodes - grid.s_min) / (grid.s_max - grid.s_min)
        )[:, None]
        win_t = np.sin(np.pi * th / grid.theta0)[None, :]
        vals = vals + amplitude * bump * win_s * win_t
    return ScalarField(grid, vals)


def _stencil_terms(b1: float, c0: float, h_s: float, h_theta: float):
    """d_ss + d_thth + b1 d_s + c0 as (coefficient, denominator, taps)
    terms, in evaluation order.  A tap (di, dj, w) weights Psi at the node
    di s-rows and dj theta-columns away.  A term is coefficient * (sum of
    w * Psi[tap]) / denominator, and the b1 term is left out when b1 is
    zero."""
    terms = [
        (1.0, h_s**2, [(1, 0, 1.0), (0, 0, -2.0), (-1, 0, 1.0)]),
        (1.0, h_theta**2, [(0, 1, 1.0), (0, 0, -2.0), (0, -1, 1.0)]),
    ]
    if b1 != 0.0:
        terms.append((b1, 2.0 * h_s, [(1, 0, 1.0), (-1, 0, -1.0)]))
    terms.append((c0, 1.0, [(0, 0, 1.0)]))
    return terms


def _apply_stencil(terms, Q: np.ndarray) -> np.ndarray:
    """The stencil at the interior nodes of ``Q``, whose first and last rows
    are ghost copies of the s-rows before the first and after the last
    interior row, and whose first and last columns are the theta-edges."""
    n, m = Q.shape[0] - 2, Q.shape[1] - 2
    return reduce(add, (
        coef * reduce(add, (w * Q[1 + di:1 + di + n, 1 + dj:1 + dj + m] for di, dj, w in taps))
        / denom
        for coef, denom, taps in terms
    ))


def _periodic_symbol(terms, n_s: int, n_t: int) -> np.ndarray:
    """Eigenvalues of the stencil's constant part, periodic in s and
    Dirichlet in theta, on the modes of rfft (k, over s) times DST-I (m,
    over theta): a tap (di, dj, w) contributes
    w e^{2 pi i k di / n_s} cos(pi m dj / n_t), a cosine because every dj
    tap has a -dj twin."""
    k = np.arange(n_s // 2 + 1)[:, None]
    m = np.arange(1, n_t)[None, :]

    def tap(di, dj, w):
        kd = k * di % n_s
        return w * np.exp(2j * np.pi * kd / n_s) * np.cos(np.pi * m * dj / n_t)

    return reduce(add, (coef * reduce(add, (tap(*t) for t in taps)) / denom
                        for coef, denom, taps in terms))


def _norm(a: np.ndarray) -> float:
    """2-norm as a fixed-order numpy reduction, not a threaded BLAS dot."""
    return float(np.sqrt(np.sum(a * a)))


def _dst1(v: np.ndarray, ext: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I of ``v`` (rows, n) along axis 1: the imaginary part
    of the rfft of the odd extension [0, v, 0, -reversed v], which is
    written into ``ext``, a zeroed (rows, 2(n + 1)) buffer whose columns 0
    and n + 1 stay zero.  Bit-equal to scipy.fft.dst(v, type=1,
    norm="ortho", axis=1), but only with the scale applied in this order."""
    n = v.shape[1]
    ext[:, 1:n + 1] = v
    np.negative(v[:, ::-1], out=ext[:, n + 2:])
    return np.fft.rfft(ext, axis=1).imag[:, 1:n + 1] * (-np.sqrt(2.0 / (n + 1)) / 2.0)


def _gmres(matvec, b: np.ndarray, precond):
    """Restarted GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986)
    for matvec(x) = b from x = 0, right-preconditioned (x = precond(u)), with
    modified Gram-Schmidt, Givens rotations and only elementwise numpy passes.
    KRYLOV_CYCLES cycles of up to KRYLOV_RESTART iterations aim at KRYLOV_RTOL.
    Returns (x, Arnoldi iterations, ||b - matvec(x)||_2 <= KRYLOV_RTOL ||b||_2)."""
    rnorm = _norm(b)
    x, u, r, its, target = np.zeros_like(b), np.zeros_like(b), b, 0, KRYLOV_RTOL * rnorm
    for _ in range(KRYLOV_CYCLES):
        if rnorm <= target:
            break
        V, R, rot, g = [r / rnorm], [], [], [rnorm]
        for j in range(KRYLOV_RESTART):
            w, h = matvec(precond(V[j])), []
            its += 1
            for v in V:
                h.append(float(np.sum(v * w)))
                w = w - h[-1] * v
            h.append(_norm(w))
            for k, (c, sn) in enumerate(rot):
                h[k], h[k + 1] = c * h[k] + sn * h[k + 1], c * h[k + 1] - sn * h[k]
            d = np.hypot(h[j], h[j + 1])
            rot.append((h[j] / d, h[j + 1] / d) if d else (1.0, 0.0))
            R.append(h[:j] + [d])
            g[j:] = [rot[j][0] * g[j], -rot[j][1] * g[j]]
            # an exact breakdown, h[j + 1] = 0, zeroes g[j + 1] and stops here
            if abs(g[j + 1]) <= target:
                break
            V.append(w / h[j + 1])
        y = [0.0] * len(R)
        for k in reversed(range(len(R))):  # back substitution
            rest = g[k] - sum(R[i][k] * y[i] for i in range(k + 1, len(R)))
            y[k] = rest / R[k][k] if R[k][k] else 0.0
        for yk, v in zip(y, V):
            u = u + yk * v
        x = precond(u)
        r = b - matvec(x)
        rnorm = _norm(r)
    return x, its, rnorm <= target


def _krylov_step(jvp, rhs: np.ndarray, symbol: np.ndarray):
    """:func:`_gmres` on the Jacobian action ``jvp`` (step array to array,
    in the shape of ``rhs``), right-preconditioned by the exact inverse of
    the separable operator with eigenvalues ``symbol``
    (:func:`_periodic_symbol` shifted by the mean nonlinear diagonal)."""

    ext = np.zeros((rhs.shape[0], 2 * (rhs.shape[1] + 1)))

    def precond(v):
        V = np.fft.rfft(_dst1(v, ext), axis=0)
        return _dst1(np.fft.irfft(V / symbol, n=rhs.shape[0], axis=0), ext)

    return _gmres(jvp, rhs, precond)


def __getattr__(name):
    # bench/spans.py TARGETS still wraps elliptic.splu, which no solve calls;
    # SciPy is imported only when it is read.  ROADMAP item 1 deletes this.
    if name == "splu":
        from scipy.sparse.linalg import splu
        return splu
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def solve_semilinear(
    grid: LogPolarGrid,
    gspec: GSpec,
    frame: Frame,
    boundary_h,
    init: ScalarField | None = None,
    tol: float = 1e-10,
    max_iter: int = 50,
) -> tuple[ScalarField, SolveReport]:
    """Damped Newton on the 5-point (+ centered first-order in s)
    discretization of L Psi = F(s) g(arg(s, Psi)), periodic in s.

    The frame fixes L = d_ss + d_thth + 2(1-alpha) d_s + (1-alpha)^2,
    F = e^{(1+alpha)s} and arg = (Psi + c s) e^{(1-alpha)s}; in Frame(1.0, c)
    these are d_ss + d_thth, e^{2s} and Psi + c s.  ``boundary_h`` is a
    callable of theta giving the Dirichlet trace Psi = h(theta).

    Newton iterates U = Psi[:n_s, 1:n_t] (``init``'s edges and row n_s are
    not read).  The residual and the Jacobian action fill an (n_s + 2,
    n_t + 1) buffer with U or the step, ghost rows U[-1] before and U[0]
    after, and theta-edges h or 0; the field is the filled rows 1 .. n_s + 1.
    Newton steps are halved until the residual decreases, down to the 2^-10
    floor; exhaustion, or a non-finite residual or g' before a step, raises
    NoConvergence with the best iterate attached.
    """
    n_s, n_t = grid.n_s, grid.n_theta
    s_col = grid.s_nodes[:n_s, None]
    h_vals = np.asarray(boundary_h(grid.theta_nodes), dtype=float)
    b1, c0, F_col, darg = _frame_problem(frame, s_col)
    terms = _stencil_terms(b1, c0, grid.h_s, grid.h_theta)
    symbol = _periodic_symbol(terms, n_s, n_t)

    U = (init if init is not None else default_initial_guess(grid, boundary_h)).vals[:n_s, 1:n_t]
    Q = np.zeros((n_s + 2, n_t + 1))  # the action's buffer: theta-edges 0

    def fill(buf, d):
        # d into buf's interior, and its ghost rows, which make it periodic in s
        buf[1:-1, 1:-1] = d
        buf[0, 1:-1], buf[-1, 1:-1] = d[-1], d[0]
        return buf

    def with_h(d):
        # theta-edges h; fresh per call, since a kept buffer would sit idle through GMRES
        return fill(np.tile(h_vals, (n_s + 2, 1)), d)

    def residual(d):
        lap = _apply_stencil(terms, with_h(d))
        with np.errstate(over="ignore", invalid="ignore"):
            return lap - F_col * gspec.g(from_working(s_col, d, frame))

    def psi_field(d):
        return ScalarField(grid, with_h(d)[1:])

    def no_convergence(message):
        best = psi_field(U)
        return NoConvergence(message, field=best, report=SolveReport(
            iters, res_norm, s_variance(best), False, history, krylov_ok, krylov_its))

    history, krylov_ok, krylov_its = [], [], []
    R = residual(U)
    res_norm = float(np.max(np.abs(R)))
    history.append(res_norm)
    iters = 0
    while res_norm > tol and iters < max_iter:
        with np.errstate(over="ignore", invalid="ignore"):
            gp = gspec.g_prime(from_working(s_col, U, frame))
            nonlinear = F_col * gp * darg
        if not (np.isfinite(R).all() and np.isfinite(nonlinear).all()):
            raise no_convergence("non-finite residual or g' before a Newton step")

        def jvp(d):
            return _apply_stencil(terms, fill(Q, d)) - nonlinear * d

        delta, its, ok = _krylov_step(jvp, -R, symbol - np.mean(nonlinear))
        krylov_its.append(its)
        krylov_ok.append(ok)
        lam = 1.0
        while True:
            trial = U + lam * delta
            R_trial = residual(trial)
            trial_norm = float(np.max(np.abs(R_trial)))
            if trial_norm < res_norm or trial_norm <= tol:
                U, R, res_norm = trial, R_trial, trial_norm
                break
            lam *= 0.5
            if lam < DAMPING_FLOOR:
                raise no_convergence("damping floor reached without residual decrease")
        iters += 1
        history.append(res_norm)

    if not res_norm <= tol:
        raise no_convergence(f"residual {res_norm:.3e} above tolerance after {iters} iterations")
    out = psi_field(U)
    return out, SolveReport(iters, res_norm, s_variance(out), True, history,
                            krylov_ok, krylov_its)
