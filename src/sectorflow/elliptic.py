"""Damped-Newton solver for semilinear problems L Psi = F(s) g(arg) on
log-polar rectangles, periodic in s.

The operator L = a11 d_ss + a22 d_thth + b1 d_s + c0 has constant
coefficients.  The working frame fixes the nonlinearity argument (Psi + c s,
e^{(1-alpha)s} Psi, or Psi itself) and the canonical forcing profile F.
Dirichlet data Psi = h(theta) is imposed on the theta-edges, and the two
s-edges are identified, so the grid spans one period in s.

The discrete operator is written once, as the term table of
:func:`_stencil_terms`; the Newton residual and the Jacobian both come from
it.  The table's order is the residual's floating-point evaluation order,
and it is fixed: converged residuals sit near the roundoff floor, so another
order changes which solves meet their tolerance.

Each Newton step solves J delta = -R by GMRES on the assembled Jacobian,
right-preconditioned by the exact inverse of its constant part shifted by
the mean nonlinear diagonal.  An rfft in s times a DST-I in theta
diagonalises that part, and its eigenvalues come from the same term table
(:func:`_periodic_symbol`).  The step stops at ||J delta + R||_2 <=
KRYLOV_RTOL ||R||_2; a step that misses it within the iteration cap falls
back to a sparse LU factorisation (``splu``) of the Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np
from scipy.fft import dst, irfft, rfft
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import LinearOperator, gmres, splu

from .domain import LogPolarGrid
from .errors import NoConvergence, ParameterDomain, SingularJacobian
from .fields import Alpha1Frame, FrameTag, GeneralFrame, ScalarField, from_working
from .rigidity import s_variance

#: Newton damping floor: step fraction never drops below 2**-10
DAMPING_FLOOR = 2.0**-10

#: inexact-Newton forcing of a Krylov step, ||J delta + R||_2 <= KRYLOV_RTOL ||R||_2;
#: 1e-13 sits below the roundoff floor of the 1/h^2-scaled Jacobian, and
#: GMRES misses it on the late Newton steps
KRYLOV_RTOL = 1e-10
#: GMRES restart length and restart cycles; a step not solved within them
#: falls back to the sparse LU
KRYLOV_RESTART, KRYLOV_CYCLES = 30, 2


@dataclass(frozen=True)
class EllipticOperator:
    """Constant-coefficient operator a11 d_ss + a22 d_thth + b1 d_s + c0."""

    a11: float
    a22: float
    b1: float = 0.0
    c0: float = 0.0

    def __post_init__(self):
        if not (self.a11 > 0 and self.a22 > 0):
            raise ParameterDomain("operator must be uniformly elliptic: a11 > 0 and a22 > 0")


def laplace_operator() -> EllipticOperator:
    return EllipticOperator(1.0, 1.0)


def general_frame_operator(alpha: float) -> EllipticOperator:
    """d_ss + d_thth + 2(1-alpha) d_s + (1-alpha)^2, conjugate to the
    polar Laplacian under Psi = psi e^{s(alpha-1)}."""
    return EllipticOperator(
        1.0, 1.0, b1=2.0 * (1.0 - alpha), c0=(1.0 - alpha) ** 2
    )


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
    """Newton outcome.  ``linear_method`` ("fft-dst-gmres" or "splu") and
    ``krylov_iterations`` hold one entry per Newton step; a step with GMRES
    iterations but "splu" missed the Krylov cap and fell back to the LU."""

    iterations: int
    final_residual: float
    s_variance: float
    converged: bool
    residual_history: list = field(default_factory=list)
    linear_method: list = field(default_factory=list)
    krylov_iterations: list = field(default_factory=list)


def _frame_pieces(frame: FrameTag, s_nodes: np.ndarray):
    """(canonical F, d arg / d Psi) for the frame; arg is :func:`from_working`."""
    if isinstance(frame, GeneralFrame):
        a = frame.alpha
        return np.exp((1.0 + a) * s_nodes), lambda s: np.exp((1.0 - a) * s)
    F = np.exp(2.0 * s_nodes) if isinstance(frame, Alpha1Frame) else np.ones_like(s_nodes)
    return F, lambda s: np.ones_like(s)


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


def _stencil_terms(op: EllipticOperator, h_s: float, h_theta: float, U, im, ip):
    """The discrete operator as (coefficient, denominator, taps) terms, in
    evaluation order.  A tap (rows, dj, w) weights Psi at the s-rows ``rows``
    and the theta-columns shifted by ``dj``; centre taps have rows U, dj 0.
    A term is coefficient * (sum of w * Psi[tap]) / denominator, and the
    b1 term is left out when b1 is zero."""
    terms = [
        (op.a11, h_s**2, [(ip, 0, 1.0), (U, 0, -2.0), (im, 0, 1.0)]),
        (op.a22, h_theta**2, [(U, 1, 1.0), (U, 0, -2.0), (U, -1, 1.0)]),
    ]
    if op.b1 != 0.0:
        terms.append((op.b1, 2.0 * h_s, [(ip, 0, 1.0), (im, 0, -1.0)]))
    terms.append((op.c0, 1.0, [(U, 0, 1.0)]))
    return terms


def _periodic_symbol(terms, n_s: int, n_t: int) -> np.ndarray:
    """Eigenvalues of the stencil's constant part, periodic in s and
    Dirichlet in theta, on the modes of rfft (k, over s) times DST-I (m,
    over theta): a tap whose rows are the s-rows shifted by d (rows[0] = d
    mod n_s) and whose columns are shifted by dj contributes
    w e^{2 pi i k d / n_s} cos(pi m dj / n_t), a cosine because every dj
    tap has a -dj twin."""
    k = np.arange(n_s // 2 + 1)[:, None]
    m = np.arange(1, n_t)[None, :]

    def tap(rows, dj, w):
        kd = k * rows[0] % n_s
        return w * np.exp(2j * np.pi * kd / n_s) * np.cos(np.pi * m * dj / n_t)

    return reduce(add, (coef * reduce(add, (tap(*t) for t in taps)) / denom
                        for coef, denom, taps in terms))


def _krylov_step(jac, rhs: np.ndarray, symbol: np.ndarray):
    """GMRES on ``jac`` right-preconditioned by the exact inverse of the
    separable operator with eigenvalues ``symbol`` (:func:`_periodic_symbol`
    shifted by the mean nonlinear diagonal).  Returns (step, iterations);
    the step is None when GMRES misses KRYLOV_RTOL within its cap."""
    shape = (jac.shape[0] // symbol.shape[1], symbol.shape[1])

    def precond(v):
        V = rfft(dst(v.reshape(shape), type=1, norm="ortho", axis=1), axis=0)
        return dst(irfft(V / symbol, n=shape[0], axis=0), type=1, norm="ortho", axis=1).ravel()

    its = []
    y, info = gmres(
        LinearOperator(jac.shape, matvec=lambda v: jac @ precond(v), dtype=float),
        rhs, rtol=KRYLOV_RTOL, atol=0.0, restart=KRYLOV_RESTART, maxiter=KRYLOV_CYCLES,
        callback=its.append, callback_type="pr_norm",
    )
    return (precond(y) if info == 0 else None), len(its)


def solve_semilinear(
    grid: LogPolarGrid,
    op: EllipticOperator,
    gspec: GSpec,
    frame: FrameTag,
    boundary_h,
    init: ScalarField | None = None,
    tol: float = 1e-10,
    max_iter: int = 50,
) -> tuple[ScalarField, SolveReport]:
    """Damped Newton on the 5-point (+ centered first-order in s)
    discretization of L Psi = F(s) g(arg(s, Psi)), periodic in s.

    The frame fixes F and arg: F = e^{2s} and arg = Psi + c s in the
    alpha = 1 frame, F = e^{(1+alpha)s} and arg = Psi e^{(1-alpha)s} in the
    general frame, F = 1 and arg = Psi in the raw frame.  ``boundary_h``
    is a callable of theta giving the Dirichlet trace Psi = h(theta).
    Newton steps are halved until the residual decreases, down to the
    2^-10 floor; exhaustion raises NoConvergence with the best iterate
    attached.
    """
    n_s, n_t = grid.n_s, grid.n_theta
    hs, ht = grid.h_s, grid.h_theta
    s = grid.s_nodes
    th = grid.theta_nodes
    h_vals = np.asarray(boundary_h(th), dtype=float)

    F_vals, darg_fn = _frame_pieces(frame, s)

    Psi = (init if init is not None else default_initial_guess(grid, boundary_h)).vals.copy()
    # impose the Dirichlet trace exactly and identify the s-edges
    Psi[:, 0] = h_vals[0]
    Psi[:, -1] = h_vals[-1]
    Psi[-1, :] = Psi[0, :]

    # the unknowns are s-rows 0 .. n_s - 1; row n_s repeats row 0
    U = np.arange(n_s)
    im, ip = (U - 1) % n_s, (U + 1) % n_s
    J = np.arange(1, n_t)
    s_col = s[U][:, None]
    F_col = F_vals[U][:, None]
    nU, nJ = len(U), len(J)
    terms = _stencil_terms(op, hs, ht, U, im, ip)

    def residual(P):
        lap = reduce(add, (
            coef * reduce(add, (w * P[np.ix_(tap_rows, J + dj)] for tap_rows, dj, w in taps))
            / denom
            for coef, denom, taps in terms
        ))
        return lap - F_col * gspec.g(from_working(s_col, P[np.ix_(U, J)], frame))

    # the Jacobian is assembled once, with every tap but the centre ones as
    # a constant entry; each step writes the centre taps' sum minus the
    # nonlinearity's derivative into the diagonal slots
    kk = np.arange(nU * nJ).reshape(nU, nJ)
    rows, cols, data = [kk.ravel()], [kk.ravel()], [np.zeros(nU * nJ)]
    is_centre = lambda tap_rows, dj: tap_rows is U and dj == 0
    center = reduce(add, (coef * w / denom for coef, denom, taps in terms
                          for tap_rows, dj, w in taps if is_centre(tap_rows, dj)))
    for coef, denom, taps in terms:
        for tap_rows, dj, w in taps:
            if is_centre(tap_rows, dj):
                continue
            value = coef * w / denom
            jj = J + dj
            ok = (jj >= 1) & (jj <= n_t - 1)
            rows.append(kk[:, ok].ravel())
            cols.append((tap_rows[:, None] * nJ + jj[ok] - 1).ravel())
            data.append(np.full(len(rows[-1]), value))
    jac = coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nU * nJ, nU * nJ),
    ).tocsc()

    symbol = _periodic_symbol(terms, n_s, n_t)

    history, methods, krylov_its = [], [], []
    R = residual(Psi)
    res_norm = float(np.max(np.abs(R)))
    history.append(res_norm)
    iters = 0
    while res_norm > tol and iters < max_iter:
        gp = gspec.g_prime(from_working(s_col, Psi[np.ix_(U, J)], frame))
        nonlinear = F_col * gp * darg_fn(s_col)
        jac.setdiag((center - nonlinear).ravel())
        rhs = -R.ravel()
        delta, its = _krylov_step(jac, rhs, symbol - np.mean(nonlinear))
        methods.append("splu" if delta is None else "fft-dst-gmres")
        krylov_its.append(its)
        if delta is None:
            try:
                delta = splu(jac).solve(rhs)
            except RuntimeError as exc:
                raise SingularJacobian(f"Newton linearization is singular: {exc}")
        delta = delta.reshape(nU, nJ)
        if not np.all(np.isfinite(delta)):
            raise SingularJacobian("Newton step is not finite")
        lam = 1.0
        while True:
            trial = Psi.copy()
            trial[np.ix_(U, J)] += lam * delta
            trial[-1, :] = trial[0, :]
            R_trial = residual(trial)
            trial_norm = float(np.max(np.abs(R_trial)))
            if trial_norm < res_norm or trial_norm <= tol:
                Psi, R, res_norm = trial, R_trial, trial_norm
                break
            lam *= 0.5
            if lam < DAMPING_FLOOR:
                best = ScalarField(grid, Psi)
                raise NoConvergence(
                    "damping floor reached without residual decrease",
                    field=best,
                    report=SolveReport(iters, res_norm, s_variance(best), False,
                                       history, methods, krylov_its),
                )
        iters += 1
        history.append(res_norm)

    converged = res_norm <= tol
    out = ScalarField(grid, Psi)
    report = SolveReport(iters, res_norm, s_variance(out), converged, history,
                         methods, krylov_its)
    if not converged:
        raise NoConvergence(
            f"residual {res_norm:.3e} above tolerance after {iters} iterations",
            field=out,
            report=report,
        )
    return out, report
