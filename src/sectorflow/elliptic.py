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

The discrete operator is the term table of :func:`.fields._stencil_terms`
(the polar Laplacian's, with the frame's b1 and c0), evaluated in place for
the Newton residual and the Jacobian's action; no matrix is assembled.  The
table's order is the residual's floating-point evaluation order, and it is
fixed: converged residuals sit near the roundoff floor, so another order
changes which solves meet their tolerance.

Each Newton step solves J delta = -R by GMRES (:func:`_krylov_step`) on the
Jacobian's action, the Jacobian-free Newton-Krylov pattern of Knoll & Keyes,
J. Comput. Phys. 193, 2004.  It is right-preconditioned by the exact inverse
of L - diag(Nbar(theta)), Nbar the s-mean of the nonlinearity's derivative:
an rfft in s, then one Thomas sweep over the theta-columns for the
tridiagonal system of every mode at once (:func:`_preconditioner`).  At an
s-free state the derivative depends on theta alone for both laws the
pipelines solve, so there this is the exact Jacobian.  GMRES aims at
||J delta + R||_2 <= KRYLOV_RTOL ||R||_2 in one Arnoldi cycle; a step that
misses it within KRYLOV_MAX_ITER iterations is still taken, recorded as not
converged, and the damped line search rejects it if the residual does not
decrease.  GMRES sums in a fixed order, not in BLAS, so the bits do not
depend on thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np

from .domain import LogPolarGrid
from .errors import NoConvergence, ParameterDomain
from .fields import ScalarField, _apply_stencil, _stencil_terms
from .rigidity import s_variance

#: Newton damping floor: step fraction never drops below 2**-10
DAMPING_FLOOR = 2.0**-10

#: inexact-Newton forcing of a Krylov step, ||J delta + R||_2 <= KRYLOV_RTOL ||R||_2;
#: 1e-13 sits below the roundoff floor of the 1/h^2-scaled Jacobian, and
#: GMRES misses it on the late Newton steps
KRYLOV_RTOL = 1e-10
#: GMRES iteration cap, and so the most Krylov vectors held; a step not
#: solved within it is GMRES's last iterate, recorded in SolveReport.krylov_converged
KRYLOV_MAX_ITER = 30


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

    g_prime = g


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


def default_initial_guess(grid: LogPolarGrid, boundary_h, amplitude: float = 0.0,
                          seed: int = 0) -> ScalarField:
    """h(theta) replicated over s plus a seeded interior perturbation.

    The perturbation vanishes on the boundary so Dirichlet data stays
    exact; a nonzero amplitude gives the rigidity demos a genuinely
    s-dependent start.  Before the windows it is ``amplitude`` times noise
    of unit variance, uniform on [-sqrt 3, sqrt 3): node k (row-major) takes
    the top 53 bits of splitmix64's k-th output for ``seed`` (Steele, Lea &
    Flood, OOPSLA 2014) in wrapping uint64 arithmetic, so no generator loads.
    """
    th = grid.theta_nodes
    h = np.asarray(boundary_h(th), dtype=float)
    if amplitude == 0.0:
        return ScalarField(grid, np.tile(h, (grid.n_s + 1, 1)))
    z = np.arange(1, 1 + np.prod(grid.shape), dtype=np.uint64) * 0x9E3779B97F4A7C15 + seed
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> shift
        z *= mult
    z ^= z >> 31
    z >>= 11
    vals = z.reshape(grid.shape).astype(float)
    del z  # before the broadcast passes below, which add numpy's 64 kB buffers
    vals -= 2.0**52
    vals *= amplitude * np.sqrt(3.0) / 2.0**52 * np.sin(
        np.pi * (grid.s_nodes - grid.s_min) / (grid.s_max - grid.s_min))[:, None]
    vals *= np.sin(np.pi * th / grid.theta0)
    vals += h
    return ScalarField(grid, vals)


def _preconditioner(terms, n_s: int, shift: np.ndarray):
    """The inverse of the stencil minus diag(``shift``), one entry per
    interior theta-column, periodic in s and Dirichlet in theta.  On rfft
    mode k a tap (di, dj, w) couples theta-column j to j + dj with weight
    w e^{2 pi i k di / n_s}, so each mode is tridiagonal in theta: the dj = 0
    taps minus ``shift`` on the diagonal, the dj = -1 and +1 taps off it.
    Thomas elimination, without pivoting, is factored here for every mode at
    once; a zero or non-finite pivot raises NoConvergence."""
    k = np.arange(n_s // 2 + 1)

    def band(dj):
        return reduce(add, (coef * sum(w * np.exp(2j * np.pi * (k * di % n_s) / n_s)
                                       for di, tap_dj, w in taps if tap_dj == dj) / denom
                            for coef, denom, taps in terms))

    diag, lower, upper = band(0), band(-1), band(1)
    inv = diag - shift[:, None]  # the pivots, then their inverses, by (column, mode)
    rows, lu = list(inv), lower * upper
    with np.errstate(all="ignore"):
        np.reciprocal(rows[0], out=rows[0])
        for prev, row in zip(rows, rows[1:]):
            np.reciprocal(np.subtract(row, lu * prev, out=row), out=row)
    if not (np.isfinite(inv).all() and inv.all()):
        raise NoConvergence("zero or non-finite pivot in the preconditioner's Thomas sweep")

    def solve(v):
        X, t = np.fft.rfft(v, axis=0), np.empty(k.size, complex)
        cols = list(X.T)  # views: the sweeps update X in place
        cols[0] *= rows[0]
        for prev, col, iv in zip(cols, cols[1:], rows[1:]):
            col -= np.multiply(lower, prev, out=t)
            col *= iv
        for nxt, col, iv in zip(cols[::-1], cols[-2::-1], rows[-2::-1]):
            col -= np.multiply(np.multiply(upper, iv, out=t), nxt, out=t)
        return np.fft.irfft(X, n=n_s, axis=0)

    return solve


def _norm(a: np.ndarray) -> float:
    """2-norm as a fixed-order numpy reduction, not a threaded BLAS dot."""
    return float(np.sqrt(np.sum(a * a)))


def _krylov_step(matvec, b: np.ndarray, precond):
    """GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986) for
    matvec(x) = b from x = 0, right-preconditioned (x = precond(u)), with
    modified Gram-Schmidt, Givens rotations and only elementwise numpy passes:
    one Arnoldi cycle of at most KRYLOV_MAX_ITER iterations aims at KRYLOV_RTOL.
    Returns (x, Arnoldi iterations, ||b - matvec(x)||_2 <= KRYLOV_RTOL ||b||_2)."""
    rnorm = _norm(b)
    if not rnorm:
        return np.zeros_like(b), 0, True
    target = KRYLOV_RTOL * rnorm
    V, R, rot, g = [b / rnorm], [], [], [rnorm]
    for j in range(KRYLOV_MAX_ITER):
        w, h = matvec(precond(V[j])), []
        for v in V:
            h.append(float(np.sum(v * w)))
            w -= h[-1] * v
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
        w /= h[j + 1]
        V.append(w)
    y = [0.0] * len(R)
    for k in reversed(range(len(R))):  # back substitution
        rest = g[k] - sum(R[i][k] * y[i] for i in range(k + 1, len(R)))
        y[k] = rest / R[k][k] if R[k][k] else 0.0
    u = np.zeros_like(b)
    for yk, v in zip(y, V):
        u += yk * v
    del V, v, w  # not held through x and its residual
    x = precond(u)
    return x, len(R), _norm(b - matvec(x)) <= target


def __getattr__(name):
    # bench/spans.py TARGETS still wraps elliptic.splu, which no solve calls;
    # SciPy is imported only when it is read.  ROADMAP item 1 deletes this.
    if name == "splu":
        from scipy.sparse.linalg import splu
        return splu
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def solve_semilinear(grid: LogPolarGrid, gspec: GSpec, frame: Frame, boundary_h,
                     init: ScalarField | None = None, tol: float = 1e-10,
                     max_iter: int = 50) -> tuple[ScalarField, SolveReport]:
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
    NoConvergence with the best iterate attached (a preconditioner pivot that
    is zero or not finite raises it bare).
    """
    n_s, n_t = grid.n_s, grid.n_theta
    s_col = grid.s_nodes[:n_s, None]
    h_vals = np.asarray(boundary_h(grid.theta_nodes), dtype=float)
    b1, c0, F_col, darg = _frame_problem(frame, s_col)
    terms = _stencil_terms(b1, c0, grid.h_s, grid.h_theta)

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
            return np.subtract(lap, F_col * gspec.g(from_working(s_col, d, frame)), out=lap)

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
            nonlinear = F_col * gspec.g_prime(from_working(s_col, U, frame)) * darg
        if not (np.isfinite(R).all() and np.isfinite(nonlinear).all()):
            raise no_convergence("non-finite residual or g' before a Newton step")
        precond = _preconditioner(terms, n_s, np.mean(nonlinear, axis=0))

        def jvp(d):
            out = _apply_stencil(terms, fill(Q, d))
            return np.subtract(out, nonlinear * d, out=out)

        # R is negated in place: the step's right-hand side, not read after it
        delta, its, ok = _krylov_step(jvp, np.negative(R, out=R), precond)
        del R, nonlinear, precond, jvp  # the line search holds no Krylov state
        krylov_its.append(its)
        krylov_ok.append(ok)
        lam = 1.0
        while True:
            trial = U + lam * delta
            R = residual(trial)  # the trial's residual, the next step's once accepted
            trial_norm = float(np.max(np.abs(R)))
            if trial_norm < res_norm or trial_norm <= tol:
                U, res_norm = trial, trial_norm
                break
            lam *= 0.5
            if lam < DAMPING_FLOOR:
                raise no_convergence("damping floor reached without residual decrease")
        del delta  # not held through the next step's GMRES
        iters += 1
        history.append(res_norm)

    if not res_norm <= tol:
        raise no_convergence(f"residual {res_norm:.3e} above tolerance after {iters} iterations")
    out = psi_field(U)
    return out, SolveReport(iters, res_norm, s_variance(out), True, history,
                            krylov_ok, krylov_its)
