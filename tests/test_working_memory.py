"""The certification, field-I/O and Newton-Krylov kernels in a bounded
working set.

Each certification kernel is compared with ``==`` against its whole-array
form, copied below as the oracle: the bounded forms run the same
floating-point operations in the same order, so every output bit agrees.
The memory guards take tracemalloc's peak above the call's entry (numpy
reports its allocations to tracemalloc); each bound is derived in its test."""

import math
import tracemalloc

import numpy as np
import pytest

from sectorflow import (
    ExpForm,
    FamilyKind,
    Frame,
    ScalarField,
    VectorField,
    construct_exact,
    default_initial_guess,
    homogeneity_fit,
    jacobian_check,
    laplacian_polar,
    sample_stream,
    sample_velocity,
    sliding_check,
    solve_semilinear,
)
from sectorflow.domain import LogPolarGrid
from sectorflow.fields import field_to_csv, read_field, write_field
from sectorflow.rigidity import _SLIDE_ROWS, _cells


# --------------------------------------------------------------------------
# the whole-array forms, kept as the oracles


def _laplacian_oracle(psi):
    g = psi.grid
    out = np.full(g.shape, np.nan)
    v = psi.vals
    core = (v[2:, 1:-1] - 2.0 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / g.h_s**2 + (
        v[1:-1, 2:] - 2.0 * v[1:-1, 1:-1] + v[1:-1, :-2]
    ) / g.h_theta**2
    out[1:-1, 1:-1] = np.exp(-2.0 * g.s_nodes[1:-1])[:, None] * core
    return out


def _jacobian_oracle(lap, psi):
    g = psi.grid
    hs, ht = g.h_s, g.h_theta
    P, L = psi.vals, lap.vals
    Lf = L[np.isfinite(L)]
    psi_scale = float(np.max(np.abs(P[np.isfinite(P)]))) + 1e-300
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


def _homogeneity_oracle(u):
    g = u.grid
    M = u.magnitude()
    peak = float(np.max(M))
    rays = np.where(np.min(M, axis=0) > 1e-13 * peak)[0]
    s = g.s_nodes
    d = (s - np.mean(s))[:, None]
    Yc = np.log(M[:, rays])
    Yc -= np.mean(Yc, axis=0)
    slopes = np.sum(d * Yc, axis=0) / np.sum(d * d)
    fit_resid = float(np.max(np.abs(Yc - slopes * d)))
    alpha_hat = -float(np.mean(slopes))
    W = np.exp(alpha_hat * s)[:, None] * u.ur_vals[:, rays]
    cross = float(np.max(W.max(axis=0) - W.min(axis=0))) / peak
    return {"alpha_hat": alpha_hat, "deviation": fit_resid + cross}


def _sliding_oracle(Psi, xi, taus):
    """The per-tau entries, with the whole overlap's w in one array."""
    g = Psi.grid
    per_tau = []
    for tau in taus:
        ds, dt = tau * xi[0], tau * xi[1]
        si = g.s_nodes[g.s_nodes + ds <= g.s_max + 1e-12]
        tj = g.theta_nodes[g.theta_nodes + dt <= g.theta0 + 1e-12]
        i, y0 = _cells(g.s_nodes, np.minimum(si + ds, g.s_max))
        j, y1 = _cells(g.theta_nodes, np.minimum(tj + dt, g.theta0))
        lo, hi, y0 = Psi.vals[i], Psi.vals[i + 1], y0[:, None]
        shifted = (lo[:, j] * (1 - y0) * (1 - y1) + lo[:, j + 1] * (1 - y0) * y1
                   + hi[:, j] * y0 * (1 - y1) + hi[:, j + 1] * y0 * y1)
        w = shifted - Psi.vals[: len(si), : len(tj)]
        k = np.unravel_index(np.argmin(w), w.shape)
        per_tau.append({"tau": tau, "min_w": float(w[k]),
                        "location": {"s": float(si[k[0]]), "theta": float(tj[k[1]])}})
    return per_tau


def _same(a, b):
    """Equal, NaN included, with the sign of a zero."""
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


# --------------------------------------------------------------------------
# exact equality


_SIZES = [48, 97, 257]
_FAMILIES = [(FamilyKind.TAN, {"v": 1.0, "p": 0.0, "C": 0.0}),
             (FamilyKind.COS_POWER, {"alpha": 3.0, "C1": 1.0, "C2": -0.2}),
             (FamilyKind.SIN, {"alpha": 0.5, "p": -1.0, "C": 0.3})]


def _family_grid(n):
    return LogPolarGrid(0.0, math.log(2.0), n, n, 1.0)


@pytest.mark.parametrize("n", _SIZES)
@pytest.mark.parametrize("kind, params", _FAMILIES, ids=lambda v: getattr(v, "value", ""))
def test_gradient_kernels_equal_their_whole_array_forms(n, kind, params):
    grid = _family_grid(n)
    sol = construct_exact(kind, params, 1.0)
    psi = sample_stream(sol, grid)
    lap = laplacian_polar(psi)  # NaN on the edge nodes
    assert _same(lap.vals, _laplacian_oracle(psi))
    assert _same(jacobian_check(lap, psi), _jacobian_oracle(lap, psi))
    u = sample_velocity(sol, grid)
    assert homogeneity_fit(u) == _homogeneity_oracle(u)


@pytest.mark.parametrize("n", _SIZES)
def test_gradient_kernels_equal_their_whole_array_forms_on_random_fields(n):
    """Random data keeps the Jacobian off its constant-Laplacian exit and
    puts negative zeros and every sign into the sums."""
    grid = LogPolarGrid(-0.3, 0.9, n, n + 3, 1.3)
    rng = np.random.default_rng(n)
    psi = ScalarField(grid, rng.standard_normal(grid.shape))
    psi.vals[1, 1] = -0.0
    lap = laplacian_polar(psi)
    assert _same(lap.vals, _laplacian_oracle(psi))
    other = ScalarField(grid, rng.standard_normal(grid.shape))
    assert _same(jacobian_check(other, psi), _jacobian_oracle(other, psi))
    assert jacobian_check(other, psi) > 0.5
    u = VectorField(grid, 1.5 + rng.random(grid.shape), rng.standard_normal(grid.shape))
    assert homogeneity_fit(u) == _homogeneity_oracle(u)


def test_jacobian_with_no_finite_gradient_is_zero():
    """A stream finite only on its edges has no finite gradient: the
    all-masked determinant still returns 0.0, as the whole-array form does."""
    grid = _family_grid(48)
    vals = np.full(grid.shape, np.nan)
    vals[0], vals[-1], vals[:, 0], vals[:, -1] = 1.0, 2.0, 3.0, 4.0
    psi = ScalarField(grid, vals)
    lap = laplacian_polar(psi)
    assert not np.isfinite(lap.vals).any()
    assert jacobian_check(lap, psi) == _jacobian_oracle(lap, psi) == 0.0


def test_jacobian_with_a_nan_in_the_stream_stays_nan():
    grid = _family_grid(97)
    psi = sample_stream(construct_exact(*_FAMILIES[0], 1.0), grid)
    lap = laplacian_polar(psi)
    psi.vals[40, 50] = np.nan
    assert math.isnan(jacobian_check(lap, psi))
    assert math.isnan(_jacobian_oracle(lap, psi))


# the overlap of each tau below: 201 - 10 = 191 s-rows at n_s = 200, xi1 = 1
_SLIDE_GRID = LogPolarGrid(0.0, 1.0, 200, 120, 1.0)
_SLIDE_TAUS = [0.05, 0.0123, 0.3]


def test_sliding_overlap_spans_three_blocks_with_a_ragged_last():
    rows = np.sum(_SLIDE_GRID.s_nodes + 0.05 <= _SLIDE_GRID.s_max + 1e-12)
    assert rows > 2 * _SLIDE_ROWS and rows % _SLIDE_ROWS != 0


@pytest.mark.parametrize("xi", [(1.0, 1.0), (0.37, 0.61), (0.0, 0.5)], ids=str)
def test_sliding_equals_its_whole_array_form(xi):
    Psi = ScalarField(_SLIDE_GRID, np.random.default_rng(3).standard_normal(_SLIDE_GRID.shape))
    assert sliding_check(Psi, xi, _SLIDE_TAUS)["per_tau"] == _sliding_oracle(
        Psi, xi, _SLIDE_TAUS)


def test_sliding_tie_in_every_row_takes_the_first_row():
    """An s-independent field shifted in theta alone gives the same w, bit
    for bit, in each of the 201 rows (four blocks): np.argmin's first
    occurrence, the first row, is the location."""
    _, TH = _SLIDE_GRID.mesh()
    Psi = ScalarField(_SLIDE_GRID, np.cos(3.0 * TH))
    per_tau = sliding_check(Psi, (0.0, 1.0), _SLIDE_TAUS)["per_tau"]
    assert per_tau == _sliding_oracle(Psi, (0.0, 1.0), _SLIDE_TAUS)
    assert all(entry["location"]["s"] == 0.0 for entry in per_tau)


@pytest.mark.parametrize("rows", [(150,), (150, 20), (20, 150)], ids=str)
def test_sliding_first_nan_wins(rows):
    """A NaN beats every finite w, the first one in row-major order wins,
    and a NaN in a later block is still found."""
    vals = np.random.default_rng(4).standard_normal(_SLIDE_GRID.shape)
    for row in rows:
        vals[row, 30] = np.nan
    Psi = ScalarField(_SLIDE_GRID, vals)
    out = sliding_check(Psi, (1.0, 1.0), [0.05])["per_tau"][0]
    oracle = _sliding_oracle(Psi, (1.0, 1.0), [0.05])[0]
    assert math.isnan(out["min_w"]) and math.isnan(oracle["min_w"])
    assert out["location"] == oracle["location"]


def test_csv_export_streams_the_same_text(tmp_path):
    """511^2 nodes: the largest field written as CSV (512^2 and up go to .npy)."""
    grid = LogPolarGrid(-0.3, 1.7, 510, 510, 2.0)
    field = ScalarField(grid, np.random.default_rng(5).standard_normal(grid.shape))
    assert field_to_csv(field) == write_field(field, tmp_path / "f.csv").read_text()


# --------------------------------------------------------------------------
# memory guards


def _peak_above_entry(fn, *args):
    """Bytes tracemalloc sees allocated at the peak of ``fn(*args)`` above entry."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


def test_sliding_check_holds_less_than_one_grid():
    """Two buffers of _SLIDE_ROWS x 1025 floats (1 MB) and the per-tau node
    vectors, where the whole-array form held w, its product terms and the
    row gathers: 36 MB at 1025^2, over four grids."""
    n = 1024
    grid = LogPolarGrid(0.0, math.log(2.0), n, n, 1.0)
    Psi = ScalarField(grid, np.tile(1.0 / np.cos(grid.theta_nodes), (n + 1, 1)))
    taus = [0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]
    assert _peak_above_entry(sliding_check, Psi, (1.0, 1.0), taus) <= Psi.vals.nbytes


def test_jacobian_check_holds_at_most_seven_grids():
    """Four gradients, the determinant and one product buffer (six interior
    arrays), plus three boolean masks at an eighth of a grid each; the
    whole-array form reached 22 MB, over ten grids, at 513^2."""
    grid = _family_grid(512)
    psi = sample_stream(construct_exact(*_FAMILIES[0], 1.0), grid)
    lap = laplacian_polar(psi)
    assert _peak_above_entry(jacobian_check, lap, psi) <= 7 * psi.vals.nbytes


def test_write_field_holds_one_row(tmp_path):
    """The CSV rows go to the file one s-row (385 lines, about 20 kB) at a
    time, through the file's buffer; the whole text was 16 MB at 385^2."""
    grid = _family_grid(384)
    psi = sample_stream(construct_exact(*_FAMILIES[0], 1.0), grid)
    assert _peak_above_entry(write_field, psi, tmp_path / "f.csv") <= 1 << 20


def test_read_field_holds_at_most_two_and_a_half_file_sizes(tmp_path):
    """Decoding holds the file's bytes and its ASCII text (2x the size);
    after that the text (1x), loadtxt's rows (24 bytes a line of about 48
    characters, 0.5x) and a few per-row vectors (8 bytes a line each) stay
    under 2.5x.  An io.StringIO copy stores 4 bytes a character."""
    grid = _family_grid(256)
    path = write_field(sample_stream(construct_exact(*_FAMILIES[2], 1.0), grid),
                       tmp_path / "f.csv")
    assert _peak_above_entry(read_field, path, grid) <= 2.5 * path.stat().st_size


def test_newton_krylov_solve_holds_at_most_thirteen_grids():
    """Thm1ii's solve, from the shipped config's start, at 257^2.  Through
    GMRES it holds the residual, the nonlinear diagonal, the action's
    ghost-filled buffer and the preconditioner's inverse pivots (half the
    modes, complex: one grid), 4 grids; u and at most three Krylov vectors
    (three iterations a step), 4; the preconditioned vector under the action,
    1; and the stencil's output and two scratch buffers, 3.  That is 12
    grids and a few rows; the FFT x DST-I preconditioner, with a temporary
    per stencil tap, held about 25 grids."""
    n = 256
    grid = LogPolarGrid(0.0, math.log(2.0), n, n, 1.0)
    h = lambda th: np.log(np.cos(th))
    init = default_initial_guess(grid, h, amplitude=0.05, seed=0)
    peak = _peak_above_entry(solve_semilinear, grid, ExpForm(-1.0, 1.0), Frame(1.0, 1.0), h, init)
    assert peak <= 13 * init.vals.nbytes
