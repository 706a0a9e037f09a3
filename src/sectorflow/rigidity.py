"""A posteriori certification of homogeneity and stream-function structure.

Given grid fields (from the exact families, the elliptic solver, or an
external source) these checks detect power-law homogeneity, recover the
scalar relation between a stream function and its Laplacian, test the
functional equations that relation must satisfy, and fit the boundary
constants that the rigidity hypotheses prescribe.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

_RANK_WARNING = getattr(getattr(np, "exceptions", np), "RankWarning", UserWarning)

from .domain import repr_csv
from .errors import (
    DegenerateField,
    EdgeNotOnGrid,
    EmptyOverlap,
    InsufficientOverlap,
    ParameterDomain,
)
from .fields import ScalarField, VectorField

TWO_PI = 2.0 * math.pi


# --------------------------------------------------------------------------
# homogeneity detection


def homogeneity_fit(u: VectorField) -> dict:
    """Least-squares homogeneity degree from ln|u| along constant-theta rays.

    Rays where |u| dips to 1e-13 times the global maximum are
    skipped (the log fit needs |u| bounded away from 0; a power law only
    vanishes where its angular amplitude does).  The deviation combines
    the worst per-ray log-linear fit residual with the cross-ray spread
    of r^alpha_hat * u_r (which must be a function of theta alone for a
    homogeneous field).
    """
    g = u.grid
    M = u.magnitude()
    peak = float(np.max(M))
    if peak == 0.0 or not np.isfinite(peak):
        raise DegenerateField("velocity magnitude vanishes everywhere")
    rays = np.where(np.min(M, axis=0) > 1e-13 * peak)[0]
    if rays.size == 0:
        raise DegenerateField("no ray stays bounded away from zero")
    s = g.s_nodes
    # one least-squares line per ray, all rays at once: slope = sum d*Yc / sum d^2
    d = (s - np.mean(s))[:, None]
    Yc = np.log(M[:, rays])
    Yc -= np.mean(Yc, axis=0)
    slopes = np.sum(d * Yc, axis=0) / np.sum(d * d)
    fit_resid = float(np.max(np.abs(Yc - slopes * d)))
    alpha_hat = -float(np.mean(slopes))
    W = np.exp(alpha_hat * s)[:, None] * u.ur_vals[:, rays]
    cross = float(np.max(W.max(axis=0) - W.min(axis=0))) / peak
    return {"alpha_hat": alpha_hat, "deviation": fit_resid + cross}


# --------------------------------------------------------------------------
# g-recovery


@dataclass(frozen=True)
class GRecovery:
    """Binned scatter of (stream value, Laplacian value) with optional fit.

    single_valued_defect is the worst residual of a local quadratic fit
    inside any equal-width z-bin: near zero when the Laplacian is a
    function of the stream value, order the data spread when it is not.
    """

    z_samples: np.ndarray
    g_samples: np.ndarray
    single_valued_defect: float
    fits: dict
    fit: dict | None

    def g(self, z):
        return np.interp(np.asarray(z, dtype=float), self.z_samples, self.g_samples)

    def to_csv(self) -> str:
        return repr_csv([["z", "g"]], self.z_samples, self.g_samples)


def _log_regression(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """(slope, intercept, r_squared) of y against x."""
    coef = np.polyfit(x, y, 1)
    pred = np.polyval(coef, x)
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2)) + 1e-300
    return float(coef[0]), float(coef[1]), 1.0 - ss_res / ss_tot


def recover_g(psi: ScalarField, lap: ScalarField) -> GRecovery:
    """Recover the scalar relation Laplacian = g(stream) from field data.

    Interior samples are sorted by psi and split into 200 equal-width psi
    bins; bin means give the tabulated curve.  The single-valuedness
    defect is the worst residual of a local quadratic fit inside any bin
    (quadratic so that curvature of a genuine g does not register as
    spread).  If the defect is at most 0.05 times the Laplacian scale,
    both an exponential form (ln|g| linear in z) and a power form (ln|g|
    linear in ln|z|) are regressed and the better r-squared is reported.
    """
    mask = np.isfinite(lap.vals) & np.isfinite(psi.vals)
    z = psi.vals[mask].ravel()
    gv = lap.vals[mask].ravel()
    if z.size < 100:
        raise ValueError("need at least 100 interior samples")
    order = np.argsort(z, kind="stable")
    z, gv = z[order], gv[order]
    edges = np.linspace(z[0], z[-1], 200 + 1)
    splits = np.searchsorted(z, edges[1:-1])
    defect = 0.0
    z_means, g_means = [], []
    for zb, gb in zip(np.split(z, splits), np.split(gv, splits)):
        if zb.size == 0:
            continue
        z_means.append(float(np.mean(zb)))
        g_means.append(float(np.mean(gb)))
        if zb.size >= 3 and zb[-1] > zb[0]:
            zc = (zb - zb[0]) / (zb[-1] - zb[0])  # conditioning of the fit
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", _RANK_WARNING)
                coef = np.polyfit(zc, gb, min(2, zb.size - 2))
            defect = max(defect, float(np.max(np.abs(gb - np.polyval(coef, zc)))))
        elif zb.size >= 2 and zb[-1] == zb[0]:
            # repeated stream value: any spread is pure multivaluedness
            defect = max(defect, float(np.max(gb) - np.min(gb)))
    z_means = np.asarray(z_means)
    g_means = np.asarray(g_means)
    # enforce strict ordering for interpolation
    keep = np.concatenate([[True], np.diff(z_means) > 0])
    z_means, g_means = z_means[keep], g_means[keep]

    scale = float(np.max(np.abs(gv))) + 1e-300
    fits = {}
    floor = 1e-12 * scale
    nz = np.abs(g_means) > floor
    if np.count_nonzero(nz) >= 10 and (np.all(g_means[nz] > 0) or np.all(g_means[nz] < 0)):
        sign = 1.0 if g_means[nz][0] > 0 else -1.0
        slope, icpt, r2 = _log_regression(z_means[nz], np.log(np.abs(g_means[nz])))
        fits["exp"] = {
            "slope": slope,
            "coefficient": sign * math.exp(icpt),
            "r_squared": r2,
        }
        znz = nz & (np.abs(z_means) > 1e-12 * (np.max(np.abs(z_means)) + 1e-300))
        if np.count_nonzero(znz) >= 10 and (
            np.all(z_means[znz] > 0) or np.all(z_means[znz] < 0)
        ):
            q, icpt, r2 = _log_regression(
                np.log(np.abs(z_means[znz])), np.log(np.abs(g_means[znz]))
            )
            fits["power"] = {
                "q": q,
                "coefficient": sign * math.exp(icpt),
                "r_squared": r2,
            }
    best = None
    if defect <= 0.05 * scale and fits:
        name = max(fits, key=lambda k: fits[k]["r_squared"])
        best = dict(fits[name], form=name)
    return GRecovery(z_means, g_means, defect, fits, best)


# --------------------------------------------------------------------------
# functional equations for g


@dataclass(frozen=True)
class Thm1Relation:
    """g(z) = 4 g(z + c ln 2)."""

    c: float


@dataclass(frozen=True)
class Thm2Relation:
    """g(z) = 2^{1+alpha} g(2^{1-alpha} z)."""

    alpha: float


def g_functional_check(rec, relation) -> float:
    """Max defect of the scaling functional equation at 1000 overlap points.

    ``rec`` may be a GRecovery (tabulated g, linear interpolation) or any
    object with a vectorized ``g`` method.  Raises InsufficientOverlap
    when the recovered range does not cover both sides of the argument
    map.
    """
    if isinstance(rec, GRecovery):
        lo, hi = float(rec.z_samples[0]), float(rec.z_samples[-1])
    else:
        lo, hi = -1.0, 1.0
    if isinstance(relation, Thm1Relation):
        shift = relation.c * math.log(2.0)
        a = max(lo, lo - shift)
        b = min(hi, hi - shift)
        if b <= a:
            raise InsufficientOverlap(
                "recovered z-range does not cover both g(z) and g(z + c ln 2)"
            )
        z = np.linspace(a, b, 1000)
        return float(np.max(np.abs(rec.g(z) - 4.0 * rec.g(z + shift))))
    if isinstance(relation, Thm2Relation):
        lam = 2.0 ** (1.0 - relation.alpha)
        cands = np.linspace(lo, hi, 1000)
        ok = (cands * lam >= lo) & (cands * lam <= hi)
        if np.count_nonzero(ok) < 2:
            raise InsufficientOverlap(
                "recovered z-range does not cover both g(z) and g(2^{1-alpha} z)"
            )
        z = cands[ok]
        return float(
            np.max(np.abs(rec.g(z) - 2.0 ** (1.0 + relation.alpha) * rec.g(lam * z)))
        )
    raise TypeError(f"unknown relation {relation!r}")


# --------------------------------------------------------------------------
# structural checks


def jacobian_check(lap: ScalarField, psi: ScalarField) -> float:
    """Normalized determinant of the (Laplacian, stream) Jacobian.

    Central differences on the interior of the interior (the Laplacian is
    defined away from edges); the determinant at each node is divided by
    the product of the two gradient magnitudes plus 1e-12 times the
    product of their maxima, so perfect functional dependence gives ~0
    and independent fields give ~1.  A Laplacian that is numerically
    constant relative to the stream scale (harmonic stream plus rounding)
    depends on it trivially and returns 0.
    """
    g = psi.grid
    hs, ht = g.h_s, g.h_theta
    P, L = psi.vals, lap.vals
    Lf = L[np.isfinite(L)]
    psi_scale = float(np.max(np.abs(P[np.isfinite(P)]))) + 1e-300
    # a Laplacian below the truncation-error scale of the stream is
    # indistinguishable from a constant: dependence holds trivially
    trunc = 50.0 * (hs**2 + ht**2) * psi_scale
    if Lf.size and float(np.max(Lf) - np.min(Lf)) < max(trunc, 1e-8 * psi_scale):
        return 0.0

    def grads(a):
        ds = (a[2:, 1:-1] - a[:-2, 1:-1]) / (2.0 * hs)
        dt = (a[1:-1, 2:] - a[1:-1, :-2]) / (2.0 * ht)
        return ds, dt

    Ps, Pt = grads(P)
    Ls, Lt = grads(L)
    mask = np.isfinite(Ls) & np.isfinite(Lt)
    det = Ls * Pt - Lt * Ps
    gradP, gradL = np.hypot(Ps, Pt), np.hypot(Ls, Lt)
    scaleP = np.max(gradP[np.isfinite(Ps)]) if np.any(np.isfinite(Ps)) else 0.0
    scaleL = np.max(gradL[mask]) if np.any(mask) else 0.0
    floor = 1e-12 * (scaleP * scaleL + 1e-300)
    vals = np.abs(det[mask]) / ((gradL * gradP)[mask] + floor)
    return float(np.max(vals)) if vals.size else 0.0


def sliding_check(Psi: ScalarField, xi: tuple[float, float], tau_list) -> dict:
    """Minimum of w^tau = Psi(. + tau xi) - Psi over the overlap rectangle.

    The shifted field is the bilinear interpolant of the grid nodes.  A
    shift must point into the rectangle, xi1 >= 0, xi2 > 0 and tau >= 0
    (tau = 0 gives w = 0); ParameterDomain is raised otherwise and for an
    empty ``tau_list``.  The overlap shrinks with tau, and EmptyOverlap is
    raised when the theta-shift reaches the opening angle (or the s-shift
    the s-extent)."""
    g = Psi.grid
    xi1, xi2 = float(xi[0]), float(xi[1])
    taus = [float(tau) for tau in tau_list]
    if not (taus and xi1 >= 0.0 and xi2 > 0.0 and all(tau >= 0.0 for tau in taus)):
        raise ParameterDomain(f"the sliding check needs at least one tau, each tau >= 0, "
                              f"xi1 >= 0 and xi2 > 0; got xi = ({xi1!r}, {xi2!r}), tau {taus!r}")
    per_tau = []
    for tau in taus:
        ds, dt = tau * xi1, tau * xi2
        if dt >= g.theta0 - 1e-15 or ds >= (g.s_max - g.s_min) - 1e-15:
            raise EmptyOverlap(f"shift ({ds:.3g}, {dt:.3g}) leaves no overlap with the rectangle")
        si = g.s_nodes[g.s_nodes + ds <= g.s_max + 1e-12]
        tj = g.theta_nodes[g.theta_nodes + dt <= g.theta0 + 1e-12]
        i, y0 = _cells(g.s_nodes, np.minimum(si + ds, g.s_max))
        j, y1 = _cells(g.theta_nodes, np.minimum(tj + dt, g.theta0))
        lo, hi, y0 = Psi.vals[_run(i)], Psi.vals[_run(i + 1)], y0[:, None]
        j0, j1 = _run(j), _run(j + 1)
        # corner order and products of scipy's evaluate_linear_2d
        shifted = (lo[:, j0] * (1 - y0) * (1 - y1) + lo[:, j1] * (1 - y0) * y1
                   + hi[:, j0] * y0 * (1 - y1) + hi[:, j1] * y0 * y1)
        w = shifted - Psi.vals[: len(si), : len(tj)]
        k = np.unravel_index(np.argmin(w), w.shape)
        per_tau.append({"tau": tau, "min_w": float(w[k]),
                        "location": {"s": float(si[k[0]]), "theta": float(tj[k[1]])}})
    best = min(per_tau, key=lambda entry: entry["min_w"])
    return {"min_w": best["min_w"], "location": best["location"],
            "tau": best["tau"], "per_tau": per_tau}


def _cells(nodes: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell index and offset in cells of ``x`` >= nodes[0], by scipy's find_indices."""
    i = np.minimum(np.searchsorted(nodes, x, side="right") - 1, nodes.size - 2)
    return i, (x - nodes[i]) / (nodes[i + 1] - nodes[i])


def _run(i: np.ndarray) -> slice | np.ndarray:
    """Consecutive indices as a slice, so indexing takes a view, not a copy."""
    return slice(i[0], i[-1] + 1) if np.all(np.diff(i) == 1) else i


def s_variance(Psi: ScalarField) -> float:
    """Max over theta-rows of (max - min over s); 0 iff s-independent."""
    return float(np.max(Psi.vals.max(axis=0) - Psi.vals.min(axis=0)))


# --------------------------------------------------------------------------
# boundary hypothesis report

#: corner-adjacent nodes excluded from edge fits (one-sided stencil pollution)
EDGE_TRIM = 2


@dataclass
class BoundaryReport:
    """Fitted boundary constants with residuals and hypothesis margins."""

    alpha: float
    c1_hat: float
    c1_residual: float
    c2_hat: float
    c2_residual: float
    c3_hat: float
    c3_residual: float
    c4_hat: float
    c4_residual: float
    A_hat: float
    radial_ratio_defect: float | None
    r0: float
    flux_value: float
    flux_predicted: float | None
    mass_identity_defect: float
    rotation_margin: float | None
    flux_consistency_defect: float
    inconsistent_hypotheses: bool


#: sixth-order one-sided first-derivative weights at the boundary node
_EDGE_WEIGHTS = np.array([-147.0, 360.0, -450.0, 400.0, -225.0, 72.0, -10.0]) / 60.0


def _edge_theta_derivative(V: np.ndarray, h: float, at_start: bool) -> np.ndarray:
    """Sixth-order one-sided d/dtheta at the first or last theta-node."""
    if at_start:
        return V[:, 0:7] @ _EDGE_WEIGHTS / h
    return V[:, -7:] @ -_EDGE_WEIGHTS[::-1] / h


def _fit_constant(vals: np.ndarray) -> tuple[float, float]:
    trimmed = vals[EDGE_TRIM:-EDGE_TRIM] if len(vals) > 2 * EDGE_TRIM else vals
    c = float(np.mean(trimmed))
    return c, float(np.max(np.abs(trimmed - c)))


def boundary_report(
    u: VectorField, alpha: float, r0: float | None = None
) -> BoundaryReport:
    """Fit the edge constants of the homogeneity hypotheses.

    c1, c2 come from r^alpha u_theta on the theta-edges; c3, c4 from the
    sixth-order one-sided theta-derivative of r^alpha u_r there.  The
    flux integral runs along the grid row nearest r0 (default: the row
    closest to r = 1); the mass identity c2 - c1 = (alpha - 1) * int f is
    evaluated with the trapezoid rule on that row, which is also the
    equality case of the sector flux formula.
    """
    g = u.grid
    ra = np.exp(alpha * g.s_nodes)[:, None]
    W = ra * u.utheta_vals
    V = ra * u.ur_vals
    c1_hat, c1_res = _fit_constant(W[:, 0])
    c2_hat, c2_res = _fit_constant(W[:, -1])
    c3_vals = _edge_theta_derivative(V, g.h_theta, at_start=True)
    c4_vals = _edge_theta_derivative(V, g.h_theta, at_start=False)
    c3_hat, c3_res = _fit_constant(c3_vals)
    c4_hat, c4_res = _fit_constant(c4_vals)

    # radial ratio u|_{r=1} = 2^alpha u|_{r=2}, when both rows exist
    radial_ratio = None
    idx1 = _nearest_row(g, 1.0)
    idx2 = _nearest_row(g, 2.0)
    if idx1 is not None and idx2 is not None:
        d_ur = u.ur_vals[idx1, :] - 2.0**alpha * u.ur_vals[idx2, :]
        d_ut = u.utheta_vals[idx1, :] - 2.0**alpha * u.utheta_vals[idx2, :]
        radial_ratio = float(max(np.max(np.abs(d_ur)), np.max(np.abs(d_ut))))

    if r0 is None:
        i0 = int(np.argmin(np.abs(g.r_nodes - 1.0)))
    else:
        i0 = _nearest_row(g, r0)
        if i0 is None:
            raise EdgeNotOnGrid(f"no grid row at r = {r0}")
    r0_used = float(g.r_nodes[i0])
    flux = float(np.trapezoid(u.ur_vals[i0, :], dx=g.h_theta))
    int_f = r0_used**alpha * flux
    mass_defect = abs((c2_hat - c1_hat) - (alpha - 1.0) * int_f)
    if alpha != 1.0:
        flux_pred = (c1_hat - c2_hat) / (1.0 - alpha) * r0_used**-alpha
        flux_defect = abs(flux - flux_pred)
    else:
        flux_pred = None
        flux_defect = abs(c2_hat - c1_hat)

    margin = None
    if c1_hat != 0.0:
        margin = c3_hat / c1_hat - (1.0 - alpha)

    f_edge_min = float(np.min(np.abs(V[i0, :])))
    f_scale = float(np.max(np.abs(V))) + 1e-300
    inconsistent = (
        math.isclose(g.theta0, TWO_PI, rel_tol=1e-12)
        and alpha != 1.0
        and f_edge_min > 1e-9 * f_scale
    )
    return BoundaryReport(
        alpha=float(alpha),
        c1_hat=c1_hat,
        c1_residual=c1_res,
        c2_hat=c2_hat,
        c2_residual=c2_res,
        c3_hat=c3_hat,
        c3_residual=c3_res,
        c4_hat=c4_hat,
        c4_residual=c4_res,
        A_hat=c3_hat,
        radial_ratio_defect=radial_ratio,
        r0=r0_used,
        flux_value=flux,
        flux_predicted=flux_pred,
        mass_identity_defect=mass_defect,
        rotation_margin=margin,
        flux_consistency_defect=flux_defect,
        inconsistent_hypotheses=inconsistent,
    )


def _nearest_row(g, r: float) -> int | None:
    s_target = math.log(r)
    i = int(round((s_target - g.s_min) / g.h_s))
    if 0 <= i <= g.n_s and abs(g.s_nodes[i] - s_target) < 1e-9:
        return i
    return None
