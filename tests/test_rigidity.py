import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sectorflow import (
    FamilyKind,
    ScalarField,
    VectorField,
    boundary_report,
    construct_exact,
    g_functional_check,
    homogeneity_fit,
    jacobian_check,
    laplacian_polar,
    recover_g,
    s_variance,
    sample_stream,
    sample_velocity,
    sliding_check,
)
from sectorflow.domain import LogPolarGrid
from sectorflow.errors import EmptyOverlap, InsufficientOverlap, ParameterDomain
from sectorflow.rigidity import _log_regression


def _grid(n=64, theta0=1.0, s_max=math.log(2)):
    return LogPolarGrid(0.0, s_max, n, n, theta0)


_POLYFIT_GRID = LogPolarGrid(-0.5, 1.5, 96, 80, 1.0)


def _polyfit_homogeneity(u):
    """(alpha_hat, deviation, rays fitted) of homogeneity_fit, by one np.polyfit per ray."""
    M = u.magnitude()
    rays = np.where(np.min(M, axis=0) > 1e-13 * np.max(M))[0]
    s = u.grid.s_nodes
    coefs = [np.polyfit(s, np.log(M[:, j]), 1) for j in rays]
    alpha_hat = -float(np.mean([c[0] for c in coefs]))
    resid = max(float(np.max(np.abs(np.log(M[:, j]) - np.polyval(c, s))))
                for j, c in zip(rays, coefs))
    W = np.exp(alpha_hat * s)[:, None] * u.ur_vals[:, rays]
    cross = float(np.max(W.max(axis=0) - W.min(axis=0))) / float(np.max(M))
    return alpha_hat, resid + cross, rays.size


def _polyfit_defect(psi, lap):
    """(z_samples, g_samples, fits, defect) of recover_g, by one np.polyfit per bin."""
    mask = np.isfinite(lap.vals) & np.isfinite(psi.vals)
    order = np.argsort(psi.vals[mask], kind="stable")
    z, g = psi.vals[mask][order], lap.vals[mask][order]
    splits = np.searchsorted(z, np.linspace(z[0], z[-1], 201)[1:-1])
    zm, gm, defect = [], [], 0.0
    for zb, gb in zip(np.split(z, splits), np.split(g, splits)):
        if zb.size:
            zm.append(np.mean(zb))
            gm.append(np.mean(gb))
        if zb.size >= 3 and zb[-1] > zb[0]:
            zc = (zb - zb[0]) / (zb[-1] - zb[0])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", np.exceptions.RankWarning)
                coef = np.polyfit(zc, gb, min(2, zb.size - 2))
            defect = max(defect, float(np.max(np.abs(gb - np.polyval(coef, zc)))))
        elif zb.size >= 2 and zb[-1] == zb[0]:
            defect = max(defect, float(np.max(gb) - np.min(gb)))
    keep = np.concatenate([[True], np.diff(zm) > 0])
    zm, gm = np.array(zm)[keep], np.array(gm)[keep]

    def line(x, y):  # slope, coefficient and r^2 of ln|g| against x
        coef = np.polyfit(x, np.log(np.abs(y)), 1)
        resid = np.sum((np.log(np.abs(y)) - np.polyval(coef, x)) ** 2)
        spread = np.sum((np.log(np.abs(y)) - np.mean(np.log(np.abs(y)))) ** 2) + 1e-300
        return float(coef[0]), np.sign(y[0]) * math.exp(coef[1]), 1.0 - float(resid) / float(spread)

    fits = {}
    nz = np.abs(gm) > 1e-12 * (float(np.max(np.abs(g))) + 1e-300)
    if np.count_nonzero(nz) >= 10 and (np.all(gm[nz] > 0) or np.all(gm[nz] < 0)):
        fits["exp"] = dict(zip(("slope", "coefficient", "r_squared"), line(zm[nz], gm[nz])))
        znz = nz & (np.abs(zm) > 1e-12 * (np.max(np.abs(zm)) + 1e-300))
        if np.count_nonzero(znz) >= 10 and (np.all(zm[znz] > 0) or np.all(zm[znz] < 0)):
            fits["power"] = dict(zip(("q", "coefficient", "r_squared"),
                                     line(np.log(np.abs(zm[znz])), gm[znz])))
    return zm, gm, fits, defect


#: recover_g's closed-form line and np.polyfit solve the same least-squares
#: problem, both backward stably, on n <= 200 bin means.  The slope then agrees
#: to about n eps |slope| / r (r^2 the fit's r-squared, >= 0.08 in these
#: tests), the intercept, and so the coefficient's relative value, to |mean x|
#: times that plus eps |mean y| (|slope mean x| <= 0.6 here), and r-squared to
#: about n eps: 200 eps / 0.28 = 1.6e-13, so 1e-12 of max(1, |value|) holds them all
_FIT_TOL = 1e-12

#: the bins [k, k + 1) of _synthetic_bins that hold its chosen sample sets
_SPECIAL_BINS = {"one": 0, "empty": 1, "two_distinct": 2, "two_equal": 3, "three": 4,
                 "three_on_two_z": 5, "six_on_two_z": 6, "five_equal": 7, "twenty": 8}


def _synthetic_bins(loud):
    """A stream on 0 <= z <= 200, one unit per bin, whose bins hold the sample
    sets of _SPECIAL_BINS, then 1 to 5 random z with the first repeated, cut
    at 255 samples (the bins after it stay empty), and z = 200.  The Laplacian
    is 2 + z/100 plus noise of size 0.01, so both fits are taken, and of size
    1 in bin ``loud``."""
    rng = np.random.default_rng(11)
    z = [0.0, 2.1, 2.5, 3.3, 3.3, 4.1, 4.4, 4.9, 5.2, 5.2, 5.7, *[6.1] * 3, *[6.8] * 3,
         *[7.25] * 5, *(8.0 + rng.random(20))]
    for k in range(9, 70):
        zb = k + rng.random(rng.integers(1, 6))
        z += [*zb, *zb[:1]]
    z = np.array(z[:255] + [200.0])
    grid = LogPolarGrid(0.0, 1.0, 15, 15, 1.0)
    at = rng.permutation(z.size).reshape(grid.shape)  # grid order is not z order
    gv = 2.0 + z / 100.0 + np.where(np.floor(z) == loud, 1.0, 0.01) * rng.standard_normal(z.size)
    return ScalarField(grid, z[at]), ScalarField(grid, gv[at])


class TestHomogeneityFit:
    def test_pure_rotation_exact(self):
        sol = construct_exact(FamilyKind.PURE_ROTATION, {"alpha": 2.0, "c": 3.0}, 1.0)
        u = sample_velocity(sol, _grid())
        fit = homogeneity_fit(u)
        assert fit["alpha_hat"] == pytest.approx(2.0, abs=1e-10)
        assert fit["deviation"] < 1e-10

    def test_tan_family_alpha_one(self):
        sol = construct_exact(FamilyKind.TAN, {"v": 1.0, "p": 0.0, "C": 0.0}, 1.0)
        u = sample_velocity(sol, _grid())
        fit = homogeneity_fit(u)
        assert fit["alpha_hat"] == pytest.approx(1.0, abs=1e-10)

    def test_mixture_detected(self):
        grid = _grid(s_max=3.0)
        S, _ = grid.mesh()
        ur = np.exp(-S) + 0.1 * np.exp(-2 * S)
        fit = homogeneity_fit(VectorField(grid, ur, np.zeros(grid.shape)))
        assert fit["deviation"] > 0.01

    @pytest.mark.parametrize("kind, params", [
        (FamilyKind.SIN, {"alpha": 2.0, "p": -0.5, "C": 0.7}),
        (FamilyKind.COS_POWER, {"alpha": 0.37, "C1": 1.3, "C2": 0.1}),
    ], ids=["sin", "cos_power"])
    def test_matches_a_polyfit_per_ray(self, kind, params):
        u = sample_velocity(construct_exact(kind, params, 1.0), _POLYFIT_GRID)
        fit = homogeneity_fit(u)
        alpha_hat, deviation, _ = _polyfit_homogeneity(u)
        assert fit["alpha_hat"] == pytest.approx(alpha_hat, rel=0, abs=1e-13)
        assert fit["deviation"] == pytest.approx(deviation, rel=0, abs=1e-13)

    def test_matches_a_polyfit_per_ray_with_a_skipped_ray(self):
        """The theta = 0 ray vanishes and is skipped; the degree varies by ray."""
        S, TH = _POLYFIT_GRID.mesh()
        noise = 1.0 + 0.01 * np.random.default_rng(3).standard_normal(S.shape)
        u = VectorField(_POLYFIT_GRID, np.sin(TH) * np.exp(-(2.0 + TH) * S) * noise,
                        0.2 * np.sin(TH) * np.exp(-1.5 * S))
        fit = homogeneity_fit(u)
        alpha_hat, deviation, n_rays = _polyfit_homogeneity(u)
        assert n_rays == _POLYFIT_GRID.n_theta
        assert fit["alpha_hat"] == pytest.approx(alpha_hat, rel=0, abs=1e-13)
        assert fit["deviation"] == pytest.approx(deviation, rel=0, abs=1e-13)


class TestRecoverG:
    def test_tan_stream_exp_fit(self):
        grid = LogPolarGrid(0.0, math.log(2), 256, 256, 1.0)
        S, TH = grid.mesh()
        psi = ScalarField(grid, S + np.log(np.cos(TH)))
        rec = recover_g(psi, laplacian_polar(psi))
        assert rec.fit is not None and rec.fit["form"] == "exp"
        assert rec.fit["slope"] == pytest.approx(-2.0, abs=0.02)
        assert rec.fit["r_squared"] >= 0.999

    def test_cos_power_stream_power_fit(self):
        grid = LogPolarGrid(0.0, 1.0, 256, 256, 1.0)
        S, TH = grid.mesh()
        psi = ScalarField(grid, -np.exp(-S) / np.cos(TH))
        rec = recover_g(psi, laplacian_polar(psi))
        assert rec.fit is not None and rec.fit["form"] == "power"
        assert rec.fit["q"] == pytest.approx(3.0, abs=0.05)
        assert abs(rec.fit["coefficient"]) == pytest.approx(2.0, rel=0.02)

    @pytest.mark.parametrize("kind, params", [
        (FamilyKind.TAN, {"v": 1.0, "p": 0.0, "C": 0.0}),
        (FamilyKind.COS_POWER, {"alpha": 3.0, "C1": 1.0, "C2": -0.2}),
        (FamilyKind.SIN, {"alpha": 0.5, "p": -1.0, "C": 0.3}),
    ], ids=["tan", "cos_power", "sin"])
    def test_matches_a_polyfit_per_bin(self, kind, params):
        psi = sample_stream(construct_exact(kind, params, 1.0), _grid(256))
        self._check_against_polyfit(psi, laplacian_polar(psi))

    @pytest.mark.parametrize("loud", sorted(_SPECIAL_BINS, key=_SPECIAL_BINS.get))
    def test_matches_a_polyfit_per_bin_on_sparse_and_repeated_bins(self, loud):
        """Each bin of a chosen sample set in turn gets noise 100 times the
        rest: it sets the defect unless it has fewer than 2 samples or 2 distinct z."""
        psi, lap = _synthetic_bins(_SPECIAL_BINS[loud])
        z = np.sort(psi.vals.ravel())
        counts = np.diff(np.searchsorted(z, np.arange(201.0)))[list(_SPECIAL_BINS.values())]
        assert counts.tolist() == [1, 0, 2, 2, 3, 3, 6, 5, 20]
        rec = self._check_against_polyfit(psi, lap)
        assert set(rec.fits) == {"exp", "power"}
        quiet = loud in ("one", "empty", "two_distinct")
        assert (rec.single_valued_defect < 0.1) == quiet

    @staticmethod
    def _check_against_polyfit(psi, lap):
        rec = recover_g(psi, lap)
        z, g, fits, defect = _polyfit_defect(psi, lap)
        assert np.array_equal(rec.z_samples, z) and np.array_equal(rec.g_samples, g)
        assert rec.fits.keys() == fits.keys()
        for form, fit in fits.items():
            assert rec.fits[form].keys() == fit.keys()
            for key, value in fit.items():
                assert rec.fits[form][key] == pytest.approx(value, rel=_FIT_TOL, abs=_FIT_TOL), \
                    (form, key)
        allowance = 64 * np.finfo(float).eps * float(np.nanmax(np.abs(lap.vals)))
        assert rec.single_valued_defect == pytest.approx(defect, rel=1e-8, abs=allowance)
        return rec

    @pytest.mark.parametrize("lo", [2.0, -1000.5], ids=["x_in_2_3", "x_near_minus_1e3"])
    def test_log_regression_matches_polyfit_on_offset_abscissae(self, lo):
        """50 noisy points on a line over x in [lo, lo + 1).  np.polyfit solves
        with x's column scaled to unit norm beside the ones column; at an offset
        the two are near parallel, and kappa = max|x| / std x (10 and 3.3e3
        here) scales its error to about kappa n eps.  The centred line has no
        such factor: its slope is the exact one, in rational arithmetic, to n eps."""
        rng = np.random.default_rng(5)
        x = lo + np.sort(rng.random(50))
        y = 0.7 - 1.3 * x + 0.05 * rng.standard_normal(50)
        slope, icpt, r2 = _log_regression(x, y)
        coef = np.polyfit(x, y, 1)
        pred = np.polyval(coef, x)
        r2_ref = 1.0 - np.sum((y - pred) ** 2) / np.sum((y - np.mean(y)) ** 2)
        tol = float(np.max(np.abs(x)) / np.std(x)) * x.size * np.finfo(float).eps
        assert slope == pytest.approx(coef[0], rel=tol, abs=0)
        assert np.max(np.abs(slope * x + icpt - pred)) <= tol * np.max(np.abs(y))
        assert r2 == pytest.approx(r2_ref, rel=0, abs=tol)
        X, Y = [Fraction(v) for v in x], [Fraction(v) for v in y]
        xm, ym = sum(X) / len(X), sum(Y) / len(Y)
        exact = sum((a - xm) * (b - ym) for a, b in zip(X, Y)) / sum((a - xm) ** 2 for a in X)
        assert slope == pytest.approx(float(exact), rel=x.size * np.finfo(float).eps, abs=0)

    def test_unrelated_fields_no_fit(self):
        grid = _grid()
        S, TH = grid.mesh()
        psi = ScalarField(grid, S)
        fake_lap = ScalarField(grid, np.sin(5 * TH))
        rec = recover_g(psi, fake_lap)
        assert rec.single_valued_defect > 0.5
        assert rec.fit is None


class TestFunctionalEquation:
    def test_exp_identity(self):
        class G:
            def g(self, z):
                return -np.exp(-2.0 * np.asarray(z))

        assert g_functional_check(G(), 1.0, 1.0) < 1e-12

    def test_power_identity(self):
        class G:
            def g(self, z):
                return 2.0 * np.asarray(z) ** 3

        assert g_functional_check(G(), 2.0) < 1e-12

    def test_wrong_form_detected(self):
        class G:
            def g(self, z):
                return np.asarray(z, dtype=float)

        assert g_functional_check(G(), 2.0) > 0.5

    # (family, params, alpha, c): the alpha = 1 families carry c = v, the
    # cos_power streams are (-alpha)-homogeneous with no log term
    LAW_CASES = [
        (FamilyKind.TAN, {"v": 1.0, "p": 0.0, "C": 0.0}, 1.0, 1.0),
        (FamilyKind.TANH, {"v": 1.0, "p": -1.0, "C": 1.0}, 1.0, 1.0),
        (FamilyKind.RATIONAL, {"v": 1.0, "C": 1.0}, 1.0, 1.0),
        *((FamilyKind.COS_POWER, {"alpha": a, "C1": 1.0, "C2": 0.0}, a, 0.0)
          for a in (1.5, 2.0, 3.0)),
    ]

    @pytest.mark.parametrize("kind, params, alpha, c", LAW_CASES,
                             ids=lambda v: v.value if isinstance(v, FamilyKind) else None)
    def test_scaling_law_of_closed_form_streams(self, kind, params, alpha, c):
        # g recovered from 256^2 closed-form samples obeys the law of its
        # own frame to 1e-3 of the Laplacian scale (1.1e-4 measured); the
        # law of a wrong frame, c * 1.5 or alpha + 0.5, misses by more
        # than 0.1 of it (0.29 measured) or has no overlap to test on
        grid = _grid(256)
        psi = sample_stream(construct_exact(kind, params, 1.0), grid)
        lap = laplacian_polar(psi)
        rec = recover_g(psi, lap)
        scale = float(np.nanmax(np.abs(lap.vals)))
        assert g_functional_check(rec, alpha, c) <= 1e-3 * scale
        wrong = (alpha, 1.5 * c) if c else (alpha + 0.5, c)
        try:
            assert g_functional_check(rec, *wrong) > 0.1 * scale
        except InsufficientOverlap:
            pass


class TestJacobian:
    def test_exact_field_dependent(self):
        grid = LogPolarGrid(0.0, math.log(2), 256, 256, 1.0)
        sol = construct_exact(FamilyKind.TAN, {"v": 1.0, "p": 0.0, "C": 0.0}, 1.0)
        psi = sample_stream(sol, grid)
        assert jacobian_check(laplacian_polar(psi), psi) <= 1e-4

    def test_independent_fields(self):
        grid = _grid()
        S, TH = grid.mesh()
        psi = ScalarField(grid, S.copy())
        fake = ScalarField(grid, TH.copy())
        assert jacobian_check(fake, psi) > 0.9

    def test_pointwise_function_dependent(self):
        grid = _grid()
        S, TH = grid.mesh()
        psi = ScalarField(grid, np.sin(S) + np.cos(TH))
        # linear dependence survives the differencing exactly; a smooth
        # nonlinear one is dependent up to the O(h^2) chain-rule error
        linear = ScalarField(grid, 2.0 * psi.vals - 1.0)
        assert jacobian_check(linear, psi) < 1e-12
        squared = ScalarField(grid, psi.vals**2)
        assert jacobian_check(squared, psi) < 1e-2


class TestSliding:
    def test_linear_profile_shift(self):
        grid = _grid()
        _, TH = grid.mesh()
        out = sliding_check(ScalarField(grid, TH.copy()), (1.0, 1.0), [0.1])
        assert out["min_w"] == pytest.approx(0.1, abs=1e-12)

    def test_sec_profile_positive(self):
        grid = LogPolarGrid(0.0, 1.0, 500, 500, 1.0)
        _, TH = grid.mesh()
        Psi = ScalarField(grid, 1.0 / np.cos(TH))
        taus = np.linspace(0.05, 0.5, 10)
        out = sliding_check(Psi, (0.0, 1.0), taus)
        assert out["min_w"] > 0.0
        spot = sliding_check(Psi, (0.0, 1.0), [0.1])
        assert spot["min_w"] == pytest.approx(1.0 / math.cos(0.1) - 1.0, abs=1e-6)

    def test_non_monotone_reports_negative(self):
        grid = LogPolarGrid(0.0, 1.0, 64, 64, 1.0)
        _, TH = grid.mesh()
        Psi = ScalarField(grid, np.sin(2 * math.pi * TH))
        out = sliding_check(Psi, (0.0, 1.0), [0.3])
        assert out["min_w"] < 0.0

    def test_empty_overlap(self):
        grid = _grid(theta0=0.5)
        _, TH = grid.mesh()
        with pytest.raises(EmptyOverlap):
            sliding_check(ScalarField(grid, TH.copy()), (0.0, 1.0), [0.6])

    def test_no_translations_rejected(self):
        grid = _grid()
        _, TH = grid.mesh()
        with pytest.raises(ParameterDomain):
            sliding_check(ScalarField(grid, TH.copy()), (1.0, 1.0), [])

    @pytest.mark.parametrize("xi, tau", [((-1.0, 1.0), 0.1), ((1.0, -1.0), 0.1),
                                         ((1.0, 0.0), 0.1), ((1.0, 1.0), -0.1),
                                         ((0.0, 1.0), -0.1), ((-1.0, 1.0), 0.0)],
                             ids=["xi1-negative", "xi2-negative", "xi2-zero", "tau-negative",
                                  "tau-negative-theta-only", "xi1-negative-at-tau-0"])
    def test_shift_leaving_the_rectangle_raises(self, xi, tau):
        """A shift out of the rectangle raises instead of extrapolating."""
        grid = _grid()
        _, TH = grid.mesh()
        with pytest.raises(ParameterDomain):
            sliding_check(ScalarField(grid, TH.copy()), xi, [tau])

    def test_zero_translation_gives_zero(self):
        grid = _grid()
        _, TH = grid.mesh()
        out = sliding_check(ScalarField(grid, np.cos(3 * TH)), (0.3, 0.7), [0.0])
        assert out["min_w"] == 0.0

    def test_shift_onto_an_edge_just_past_the_last_node(self):
        """At n = 49, theta0 = 1 lies an ulp past the last theta-node; a
        node-aligned shift caps there and reads the edge value."""
        grid = LogPolarGrid(0.0, 1.0, 49, 49, 1.0)
        assert grid.theta_nodes[-1] < grid.theta0
        _, TH = grid.mesh()
        out = sliding_check(ScalarField(grid, TH.copy()), (0.0, 1.0), [37 / 49])
        assert out["min_w"] == pytest.approx(37 / 49, abs=1e-12)


def _interpolator_sliding(Psi, xi, taus):
    """The per-tau entries of sliding_check, through scipy's interpolator."""
    from scipy.interpolate import RegularGridInterpolator

    g = Psi.grid
    interp = RegularGridInterpolator(
        (g.s_nodes, g.theta_nodes), Psi.vals, method="linear", bounds_error=True
    )
    per_tau = []
    for tau in taus:
        ds, dt = tau * xi[0], tau * xi[1]
        si = g.s_nodes[g.s_nodes + ds <= g.s_max + 1e-12]
        tj = g.theta_nodes[g.theta_nodes + dt <= g.theta0 + 1e-12]
        S, T = np.meshgrid(si, tj, indexing="ij")
        pts = np.stack([np.minimum(S + ds, g.s_max), np.minimum(T + dt, g.theta0)], axis=-1)
        w = interp(pts) - Psi.vals[: len(si), : len(tj)]
        k = np.unravel_index(np.argmin(w), w.shape)
        per_tau.append({"tau": tau, "min_w": float(w[k]),
                        "location": {"s": float(si[k[0]]), "theta": float(tj[k[1]])}})
    return per_tau


class TestSlidingOracle:
    """sliding_check equals scipy's bilinear RegularGridInterpolator bit for bit."""

    TAUS = [0.0, 0.02, 0.05, 0.1, 0.1234567, 0.3, 0.45]

    @pytest.mark.parametrize("n", [16, 33, 100, 256])
    @pytest.mark.parametrize("xi", [(1.0, 1.0), (0.3, 0.7), (0.0, 0.25), (2.0, 0.1)], ids=str)
    def test_random_field(self, n, xi):
        grid = LogPolarGrid(-0.4, 1.1, n, n + 5, 1.3)
        vals = np.random.default_rng(n).standard_normal(grid.shape)
        Psi = ScalarField(grid, vals)
        assert sliding_check(Psi, xi, self.TAUS)["per_tau"] == _interpolator_sliding(
            Psi, xi, self.TAUS)

    @pytest.mark.parametrize("xi", [(1.0, 1.0), (0.0, 1.0)], ids=str)
    def test_node_aligned_sec_spot(self, xi):
        grid = LogPolarGrid(0.0, math.log(2), 500, 500, 1.0)
        _, TH = grid.mesh()
        Psi = ScalarField(grid, 1.0 / np.cos(TH))
        taus = [0.02, 0.1, 0.45]
        out = sliding_check(Psi, xi, taus)
        assert out["per_tau"] == _interpolator_sliding(Psi, xi, taus)
        assert out["per_tau"][1]["min_w"] == pytest.approx(1.0 / math.cos(0.1) - 1.0, abs=1e-15)


class TestSVariance:
    def test_profile_only(self):
        grid = _grid()
        _, TH = grid.mesh()
        assert s_variance(ScalarField(grid, np.sin(TH))) == 0.0

    def test_linear_drift(self):
        grid = _grid()
        S, TH = grid.mesh()
        Psi = ScalarField(grid, np.sin(TH) + 1e-3 * S)
        expected = 1e-3 * (grid.s_max - grid.s_min)
        assert s_variance(Psi) == pytest.approx(expected, rel=1e-10)


class TestBoundaryReport:
    def test_tan_family_constants(self):
        sol = construct_exact(FamilyKind.TAN, {"v": 1.0, "p": 0.0, "C": 0.0}, 1.0)
        u = sample_velocity(sol, _grid(256))
        rep = boundary_report(u, 1.0)
        assert rep.c1_hat == pytest.approx(1.0, abs=1e-8)
        assert rep.c2_hat == pytest.approx(1.0, abs=1e-8)
        assert rep.c3_hat == pytest.approx(1.0, abs=1e-8)
        assert max(rep.c1_residual, rep.c2_residual) < 1e-8

    def test_pure_rotation_margin(self):
        sol = construct_exact(FamilyKind.PURE_ROTATION, {"alpha": 2.0, "c": 3.0}, 1.0)
        u = sample_velocity(sol, _grid(128))
        rep = boundary_report(u, 2.0)
        assert rep.c1_hat == pytest.approx(3.0, abs=1e-10)
        assert rep.c3_hat == pytest.approx(0.0, abs=1e-10)
        assert rep.rotation_margin == pytest.approx(1.0, abs=1e-10)

    def test_sin_family_flux(self):
        theta0 = math.pi / 3
        sol = construct_exact(
            FamilyKind.SIN, {"alpha": 2.0, "p": -0.5, "C": math.pi / 2}, theta0
        )
        grid = LogPolarGrid(0.0, math.log(2), 256, 256, theta0)
        u = sample_velocity(sol, grid)
        rep = boundary_report(u, 2.0)
        assert rep.c1_hat == pytest.approx(1.0, abs=1e-6)
        assert rep.c2_hat == pytest.approx(0.5, abs=1e-6)
        assert rep.flux_value == pytest.approx(-0.5, abs=1e-6)
        assert rep.mass_identity_defect < 1e-6

    @pytest.mark.parametrize("kind, params", [
        (FamilyKind.COS_POWER, {"alpha": 3.0, "C1": 1.0, "C2": -0.2}),
        (FamilyKind.SIN, {"alpha": 0.5, "p": -1.0, "C": 0.3}),
    ], ids=["thm2_a3", "thm2_a4"])
    def test_mass_identity_at_alpha_off_powers_of_2(self, kind, params):
        sol = construct_exact(kind, params, 1.0)
        grid = _grid(256)
        rep = boundary_report(sample_velocity(sol, grid), sol.alpha)
        # the mass_identity bound of scenarios._certify_exact
        h2 = grid.h_theta**2
        assert rep.mass_identity_defect <= 100.0 * h2 * max(1.0, abs(rep.c1_hat) + abs(rep.c2_hat))
        # int f by 64-point Gauss-Legendre, not the report's trapezoid row
        x, w = np.polynomial.legendre.leggauss(64)
        int_f = 0.5 * float(np.sum(w * sol.f(0.5 * (x + 1.0))))
        assert rep.flux_value == pytest.approx(rep.r0 ** -sol.alpha * int_f, rel=0, abs=h2)

    @pytest.mark.parametrize("kind, params, alpha", [
        (FamilyKind.TAN, {"v": 1.0, "p": 0.0, "C": 0.0}, 1.0),
        (FamilyKind.COS_POWER, {"alpha": 2.0, "C1": 1.0, "C2": 0.0}, 2.0),
    ], ids=["tan", "cos_power"])
    def test_radial_ratio_defect(self, kind, params, alpha):
        # u(1, theta) = 2^alpha u(2, theta) holds node for node on the
        # annulus 1 < r < 2; a factor 1 + 0.1 s breaks it; with b = 3 the
        # grid has no r = 2 row
        sol = construct_exact(kind, params, 1.0)
        u = sample_velocity(sol, _grid())
        assert boundary_report(u, alpha).radial_ratio_defect == 0.0
        S, _ = u.grid.mesh()
        w = 1.0 + 0.1 * S
        bent = VectorField(u.grid, u.ur_vals * w, u.utheta_vals * w)
        assert boundary_report(bent, alpha).radial_ratio_defect > 0.05
        u3 = sample_velocity(sol, _grid(s_max=math.log(3)))
        assert boundary_report(u3, alpha).radial_ratio_defect is None

    def test_inconsistent_hypotheses_flagged(self):
        # alpha != 1, full angle, radial part bounded away from zero
        grid = LogPolarGrid(0.0, math.log(2), 64, 64, 2 * math.pi)
        S, _ = grid.mesh()
        u = VectorField(grid, np.exp(-2 * S), np.exp(-2 * S))
        rep = boundary_report(u, 2.0)
        assert rep.inconsistent_hypotheses

    def test_vanishing_radial_part_not_flagged(self):
        grid = LogPolarGrid(0.0, math.log(2), 64, 64, 2 * math.pi)
        S, TH = grid.mesh()
        u = VectorField(grid, np.exp(-2 * S) * np.sin(TH), np.exp(-2 * S))
        rep = boundary_report(u, 2.0)
        assert not rep.inconsistent_hypotheses


@settings(max_examples=15, deadline=None)
@given(alpha=st.floats(0.5, 3.0), c=st.floats(0.3, 4.0))
def test_homogeneity_property(alpha, c):
    """Any r^-alpha power-law field is recovered with the right degree."""
    grid = LogPolarGrid(0.0, 1.0, 32, 32, 1.0)
    S, TH = grid.mesh()
    amp = np.exp(-alpha * S)
    u = VectorField(grid, c * amp * (2 + np.sin(TH)), amp * (2 + np.cos(TH)))
    fit = homogeneity_fit(u)
    assert fit["alpha_hat"] == pytest.approx(alpha, abs=1e-8)
    assert fit["deviation"] < 1e-8
