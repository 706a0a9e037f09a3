"""A posteriori certification of homogeneity and stream-function structure.

Given grid fields (from the exact families, the elliptic solver, or an
external source) these checks detect power-law homogeneity, recover the
scalar relation between a stream function and its Laplacian, test the
functional equations that relation must satisfy, and fit the boundary
constants that the rigidity hypotheses prescribe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import TWO_PI, repr_csv
from .errors import DegenerateField, EmptyOverlap, InsufficientOverlap, ParameterDomain
from .fields import BLOCK_ROWS, ScalarField, VectorField, row_blocks


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
    g, ur, s = u.grid, u.ur_vals, u.grid.s_nodes
    d = (s - np.mean(s))[:, None]
    # one least-squares line per ray, BLOCK_ROWS rays at a time, each fitted before
    # the peak tells whether |u| dips too low on it (|u| = 0 gives NaN, no warning)
    per_ray = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for b in row_blocks(g.n_theta + 1):
            # column-major, as the order of each ray's sums over s needs
            Yc = np.hypot(ur[:, b], u.utheta_vals[:, b], order="F")
            tops, floors = np.max(Yc, axis=0), np.min(Yc, axis=0)
            np.log(Yc, out=Yc)
            Yc -= np.mean(Yc, axis=0)
            T = np.multiply(d, Yc)
            slopes = np.sum(T, axis=0) / np.sum(d * d)  # sum d*Yc / sum d^2
            np.subtract(Yc, np.multiply(slopes, d, out=T), out=T)
            per_ray.append((tops, floors, slopes, np.max(np.abs(T, out=T), axis=0)))
    tops, floors, slopes, resids = np.concatenate(per_ray, axis=1)
    peak = float(np.max(tops))
    if peak == 0.0 or not np.isfinite(peak):
        raise DegenerateField("velocity magnitude vanishes everywhere")
    rays = floors > 1e-13 * peak
    if not rays.any():
        raise DegenerateField("no ray stays bounded away from zero")
    alpha_hat = -float(np.mean(slopes[rays]))
    ra = np.exp(alpha_hat * s)[:, None]
    spans = np.concatenate([np.ptp(ra * ur[:, b], axis=0) for b in row_blocks(g.n_theta + 1)])
    cross = float(np.max(spans[rays])) / peak
    return {"alpha_hat": alpha_hat, "deviation": float(np.max(resids[rays])) + cross}


# --------------------------------------------------------------------------
# g-recovery


@dataclass(frozen=True)
class GRecovery:
    """Binned scatter of (stream value, Laplacian value) with optional fit.

    single_valued_defect is the worst residual of a local quadratic fit
    inside any equal-width z-bin: near zero when the Laplacian is a
    function of the stream value, order the data spread when it is not.
    scale is max |Laplacian| over the samples plus 1e-300, the scale of the defect.
    """

    z_samples: np.ndarray
    g_samples: np.ndarray
    single_valued_defect: float
    fits: dict
    fit: dict | None
    scale: float

    def g(self, z):
        return np.interp(np.asarray(z, dtype=float), self.z_samples, self.g_samples)

    def to_csv(self) -> str:
        return repr_csv([["z", "g"]], self.z_samples, self.g_samples)


def _log_regression(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """(slope, intercept, r_squared) of y against x: the closed-form
    least-squares line on the centred samples dx, dy, without LAPACK."""
    xm, ym = np.mean(x), np.mean(y)
    dx, dy = x - xm, y - ym
    slope = float(np.sum(dx * dy) / np.sum(dx * dx))
    r2 = 1.0 - float(np.sum((dy - slope * dx) ** 2)) / (float(np.sum(dy * dy)) + 1e-300)
    return slope, float(ym - slope * xm), r2


def _bin_defect(z: np.ndarray, gv: np.ndarray, splits: np.ndarray) -> float:
    """The single-valuedness defect of gv in the bins ``splits`` cuts the sorted z into.

    A bin of at least 3 samples over a z-range gives its largest residual
    after np.polyfit's fit of degree min(2, size - 2) in zc, z scaled to
    [0, 1]: gv less its projections onto 1, u1 = zc - mean zc and u1^2, made
    orthogonal by Gram-Schmidt with per-bin np.add.reduceat sums.  A u1^2
    direction left at roundoff (two distinct z) is dropped, leaving polyfit's
    minimum-norm residual.  A bin of equal z gives its spread max - min.
    """
    bounds = np.concatenate([[0], splits, [z.size]])
    bounds = bounds[np.diff(bounds, prepend=-1) > 0]  # the nonempty bins
    # a pass takes the whole bins that start in one of 16 equal stretches of the samples
    cuts = np.searchsorted(bounds, np.linspace(0, z.size, 17))
    cuts = cuts[np.diff(cuts, prepend=-1) > 0]
    defect = 0.0
    # 0/0 in bins of equal z and in dropped directions, neither of them selected
    with np.errstate(divide="ignore", invalid="ignore"):
        for b in (bounds[lo:hi + 1] for lo, hi in zip(cuts[:-1], cuts[1:])):
            zb, gb, starts, sizes = z[b[0]:b[-1]], gv[b[0]:b[-1]], b[:-1] - b[0], np.diff(b)
            total, each = lambda x: np.add.reduceat(x, starts), lambda x: np.repeat(x, sizes)
            first, last = zb[starts], zb[starts + sizes - 1]
            zc = (zb - each(first)) / each(last - first)
            u1 = zc - each(total(zc) / sizes)
            n1 = total(u1 * u1)
            r = gb - each(total(gb) / sizes)
            r -= each(total(r * u1) / n1) * u1
            u2 = np.multiply(u1, u1, out=zc)
            u2 -= each(total(u2) / sizes)
            roundoff = (4 * sizes * np.finfo(float).eps) ** 2 * total(u2 * u2)
            u2 -= each(total(u2 * u1) / n1) * u1
            n2 = total(u2 * u2)
            r -= each(np.where((sizes >= 4) & (n2 > roundoff), total(r * u2) / n2, 0.0)) * u2
            fitted = np.where(sizes >= 3, np.maximum.reduceat(np.abs(r, out=r), starts), 0.0)
            spread = np.maximum.reduceat(gb, starts) - np.minimum.reduceat(gb, starts)
            defect = max(defect, float(np.max(np.where(last > first, fitted, spread))))
    return defect


def recover_g(psi: ScalarField, lap: ScalarField) -> GRecovery:
    """Recover the scalar relation Laplacian = g(stream) from field data.

    Interior samples are sorted by psi and split into 200 equal-width psi
    bins; bin means give the tabulated curve.  The single-valuedness
    defect is the worst residual of a local quadratic fit inside any bin
    (quadratic so that curvature of a genuine g does not register as
    spread; a repeated stream value gives its spread), taken as one
    least-squares projection over the whole bins in each sixteenth of the
    samples (:func:`_bin_defect`), so its scratch is a few sixteenths of the
    samples.  If the defect is at most 0.05 times the Laplacian scale, both
    an exponential form (ln|g| linear in z) and a power form (ln|g| linear
    in ln|z|) are regressed and the better r-squared is reported.
    """
    mask = np.isfinite(lap.vals) & np.isfinite(psi.vals)
    z, gv = psi.vals[mask], lap.vals[mask]
    if z.size < 100:
        raise ValueError("need at least 100 interior samples")
    order = np.argsort(z, kind="stable")
    z = z[order]  # one sorted copy at a time, never two beside the unsorted pair
    gv = gv[order]
    edges = np.linspace(z[0], z[-1], 200 + 1)
    splits = np.searchsorted(z, edges[1:-1])
    means = np.array([(np.mean(zb), np.mean(gb)) for zb, gb in
                      zip(np.split(z, splits), np.split(gv, splits)) if zb.size])
    defect = _bin_defect(z, gv, splits)
    # enforce strict ordering for interpolation
    keep = np.concatenate([[True], np.diff(means[:, 0]) > 0])
    z_means, g_means = means[keep].T.copy()

    scale = float(np.max(np.abs(gv))) + 1e-300
    fits = {}
    nz = np.abs(g_means) > 1e-12 * scale
    if np.count_nonzero(nz) >= 10 and (np.all(g_means[nz] > 0) or np.all(g_means[nz] < 0)):
        sign = 1.0 if g_means[nz][0] > 0 else -1.0
        slope, icpt, r2 = _log_regression(z_means[nz], np.log(np.abs(g_means[nz])))
        fits["exp"] = {"slope": slope, "coefficient": sign * math.exp(icpt), "r_squared": r2}
        znz = nz & (np.abs(z_means) > 1e-12 * (np.max(np.abs(z_means)) + 1e-300))
        if np.count_nonzero(znz) >= 10 and (np.all(z_means[znz] > 0) or np.all(z_means[znz] < 0)):
            q, icpt, r2 = _log_regression(np.log(np.abs(z_means[znz])),
                                          np.log(np.abs(g_means[znz])))
            fits["power"] = {"q": q, "coefficient": sign * math.exp(icpt), "r_squared": r2}
    best = None
    if defect <= 0.05 * scale and fits:
        name = max(fits, key=lambda k: fits[k]["r_squared"])
        best = dict(fits[name], form=name)
    return GRecovery(z_means, g_means, defect, fits, best, scale)


# --------------------------------------------------------------------------
# functional equations for g


def g_functional_check(rec, alpha: float, c: float = 0.0) -> float:
    """Max defect of g(z) = 2^{1+alpha} g(2^{1-alpha} z + c ln 2), the law
    that the r -> 2r symmetry of the working frame Frame(alpha, c) gives g,
    at 1000 points spanning the overlap where z and its image both lie in
    the recovered range.

    ``rec`` may be a GRecovery (tabulated g, linear interpolation) or any
    object with a vectorized ``g`` method, taken on [-1, 1].  Raises
    InsufficientOverlap when the overlap is empty.
    """
    if isinstance(rec, GRecovery):
        lo, hi = float(rec.z_samples[0]), float(rec.z_samples[-1])
    else:
        lo, hi = -1.0, 1.0
    mu, nu = 2.0 ** (1.0 - alpha), c * math.log(2.0)
    a, b = max(lo, (lo - nu) / mu), min(hi, (hi - nu) / mu)
    if b <= a:
        raise InsufficientOverlap(
            "recovered z-range does not cover both g(z) and g(2^{1-alpha} z + c ln 2)"
        )
    z = np.linspace(a, b, 1000)
    return float(np.max(np.abs(rec.g(z) - 2.0 ** (1.0 + alpha) * rec.g(mu * z + nu))))


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
    # per row block, over its finite nodes: max |P|, max L and min L
    ends = np.array([(np.max(np.abs(P[b]), where=np.isfinite(P[b]), initial=-np.inf),
                      np.max(L[b], where=np.isfinite(L[b]), initial=-np.inf),
                      np.min(L[b], where=np.isfinite(L[b]), initial=np.inf))
                     for b in row_blocks(g.n_s + 1)])
    if np.max(ends[:, 0]) == -np.inf:
        raise ValueError("the stream has no finite value")
    psi_scale = float(np.max(ends[:, 0])) + 1e-300
    # a Laplacian below the truncation-error scale of the stream is
    # indistinguishable from a constant: dependence holds trivially
    trunc = 50.0 * (hs**2 + ht**2) * psi_scale
    spread = np.max(ends[:, 1]) - np.min(ends[:, 2])  # -inf if no node of L is finite
    if spread > -np.inf and float(spread) < max(trunc, 1e-8 * psi_scale):
        return 0.0

    def grads(a, b):
        ds = np.subtract(a[2:, 1:-1][b], a[:-2, 1:-1][b])
        dt = np.subtract(a[1:-1, 2:][b], a[1:-1, :-2][b])
        return np.divide(ds, 2.0 * hs, out=ds), np.divide(dt, 2.0 * ht, out=dt)

    def gradients():
        """Ps, Pt, Ls, Lt and where L's are finite, a row block of interior nodes at a time."""
        for b in row_blocks(g.n_s - 1):
            (Ps, Pt), (Ls, Lt) = grads(P, b), grads(L, b)
            yield Ps, Pt, Ls, Lt, np.isfinite(Ls) & np.isfinite(Lt)

    # pass 1 takes the gradient-norm maxima, pass 2 the determinant ratio:
    # six arrays of one block at most, the four gradients and two products
    scaleP, scaleL = np.max([(np.max(np.hypot(Ps, Pt), where=np.isfinite(Ps), initial=0.0),
                              np.max(np.hypot(Ls, Lt), where=mask, initial=0.0))
                             for Ps, Pt, Ls, Lt, mask in gradients()], axis=0)
    floor = 1e-12 * (scaleP * scaleL + 1e-300)
    ratios = []
    for Ps, Pt, Ls, Lt, mask in gradients():
        det, tmp = np.multiply(Ls, Pt), np.multiply(Lt, Ps)
        det -= tmp
        gradP, gradL = np.hypot(Ps, Pt, out=tmp), np.hypot(Ls, Lt, out=Ps)
        denom = np.add(np.multiply(gradL, gradP, out=Pt), floor, out=Pt)
        vals = np.divide(np.abs(det, out=det), denom, out=det, where=mask)
        ratios.append(np.max(vals, where=mask, initial=0.0))
    return float(np.max(ratios))


def sliding_check(Psi: ScalarField, xi: tuple[float, float], tau_list) -> dict:
    """Minimum of w^tau = Psi(. + tau xi) - Psi over the overlap rectangle.

    The shifted field is the bilinear interpolant of the grid nodes.  A
    shift must point into the rectangle, xi1 >= 0, xi2 > 0 and tau >= 0
    (tau = 0 gives w = 0); ParameterDomain is raised otherwise and for an
    empty ``tau_list``.  The overlap shrinks with tau, and EmptyOverlap is
    raised when the theta-shift reaches the opening angle (or the s-shift
    the s-extent).  w is formed BLOCK_ROWS rows at a time in two reused
    buffers, so the working set does not grow with the number of s-rows."""
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
        j0, j1, z1, m = _run(j), _run(j + 1), 1 - y1, len(tj)
        base, picks = Psi.vals[: len(si), :m], []
        w, t = np.empty((2, min(BLOCK_ROWS, len(si)), m))
        for rows in row_blocks(len(si)):
            lo, hi = Psi.vals[_run(i[rows])], Psi.vals[_run(i[rows] + 1)]
            a, b, wr, tr = 1 - y0[rows, None], y0[rows, None], w[: len(lo)], t[: len(lo)]
            # corner order and products of scipy's evaluate_linear_2d
            np.multiply(np.multiply(lo[:, j0], a, out=wr), z1, out=wr)
            wr += np.multiply(np.multiply(lo[:, j1], a, out=tr), y1, out=tr)
            wr += np.multiply(np.multiply(hi[:, j0], b, out=tr), z1, out=tr)
            wr += np.multiply(np.multiply(hi[:, j1], b, out=tr), y1, out=tr)
            wr -= base[rows]
            k = int(np.argmin(wr))
            picks.append((float(wr.flat[k]), rows.start * m + k))
        # np.argmin's pick over the whole overlap: the first NaN, else the first least value
        min_w, k = next((pick for pick in picks if math.isnan(pick[0])), min(picks))
        k = divmod(k, m)
        per_tau.append({"tau": tau, "min_w": min_w,
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
    radial_ratio_defect: float | None
    r0: float
    flux_value: float
    mass_identity_defect: float
    rotation_margin: float | None
    inconsistent_hypotheses: bool


#: sixth-order one-sided first-derivative weights at the boundary node
_EDGE_WEIGHTS = np.array([-147.0, 360.0, -450.0, 400.0, -225.0, 72.0, -10.0]) / 60.0


def _fit_constant(vals: np.ndarray) -> tuple[float, float]:
    trimmed = vals[EDGE_TRIM:-EDGE_TRIM] if len(vals) > 2 * EDGE_TRIM else vals
    c = float(np.mean(trimmed))
    return c, float(np.max(np.abs(trimmed - c)))


def boundary_report(u: VectorField, alpha: float) -> BoundaryReport:
    """Fit the edge constants of the homogeneity hypotheses.

    c1, c2 come from r^alpha u_theta on the theta-edges; c3, c4 from the
    sixth-order one-sided theta-derivative of r^alpha u_r there.  The
    flux integral runs along the grid row r0 closest to r = 1; the mass
    identity c2 - c1 = (alpha - 1) * int f is evaluated with the
    trapezoid rule on that row, which is also the equality case of the
    sector flux formula.
    """
    g, ur, ut = u.grid, u.ur_vals, u.utheta_vals
    ra = np.exp(alpha * g.s_nodes)[:, None]
    # r^alpha u_theta (W) and r^alpha u_r (V) only where they are read
    c1_hat, c1_res = _fit_constant(ra[:, 0] * ut[:, 0])
    c2_hat, c2_res = _fit_constant(ra[:, 0] * ut[:, -1])
    c3_hat, c3_res = _fit_constant(ra * ur[:, :7] @ _EDGE_WEIGHTS / g.h_theta)
    c4_hat, c4_res = _fit_constant(ra * ur[:, -7:] @ -_EDGE_WEIGHTS[::-1] / g.h_theta)

    # radial ratio u|_{r=1} = 2^alpha u|_{r=2}, when both rows exist
    radial_ratio = None
    idx1 = _nearest_row(g, 1.0)
    idx2 = _nearest_row(g, 2.0)
    if idx1 is not None and idx2 is not None:
        d_ur = u.ur_vals[idx1, :] - 2.0**alpha * u.ur_vals[idx2, :]
        d_ut = u.utheta_vals[idx1, :] - 2.0**alpha * u.utheta_vals[idx2, :]
        radial_ratio = float(max(np.max(np.abs(d_ur)), np.max(np.abs(d_ut))))

    i0 = int(np.argmin(np.abs(g.r_nodes - 1.0)))
    r0 = float(g.r_nodes[i0])
    flux = float(np.trapezoid(u.ur_vals[i0, :], dx=g.h_theta))
    mass_defect = abs((c2_hat - c1_hat) - (alpha - 1.0) * (r0**alpha * flux))

    margin = None
    if c1_hat != 0.0:
        margin = c3_hat / c1_hat - (1.0 - alpha)

    f_edge_min = float(np.min(np.abs(ra[i0] * ur[i0, :])))
    f_scale = float(np.max([np.max(np.abs(ra[b] * ur[b])) for b in row_blocks(g.n_s + 1)])) + 1e-300
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
        radial_ratio_defect=radial_ratio,
        r0=r0,
        flux_value=flux,
        mass_identity_defect=mass_defect,
        rotation_margin=margin,
        inconsistent_hypotheses=inconsistent,
    )


def _nearest_row(g, r: float) -> int | None:
    s_target = math.log(r)
    i = int(round((s_target - g.s_min) / g.h_s))
    if 0 <= i <= g.n_s and abs(g.s_nodes[i] - s_target) < 1e-9:
        return i
    return None
