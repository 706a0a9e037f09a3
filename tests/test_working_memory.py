"""The certification, field-I/O and Newton-Krylov kernels in a bounded
working set.

Each certification kernel is compared with ``==`` against its whole-array
form, copied below as the oracle: the bounded forms run the same
floating-point operations in the same order, so every output bit agrees.
The memory guards take tracemalloc's peak above the call's entry (numpy
reports its allocations to tracemalloc); each bound is derived in its test."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sectorflow import (
    ExpForm,
    FamilyKind,
    Frame,
    ScalarField,
    VectorField,
    boundary_report,
    construct_exact,
    default_initial_guess,
    homogeneity_fit,
    jacobian_check,
    laplacian_polar,
    recover_g,
    s_variance,
    sample_stream,
    sample_velocity,
    shoot_alpha1,
    sliding_check,
    solve_semilinear,
)
from sectorflow.domain import TWO_PI, LogPolarGrid
from sectorflow.errors import DegenerateField
from sectorflow.fields import BLOCK_ROWS, field_to_csv, read_field, write_field
from sectorflow.rigidity import _EDGE_WEIGHTS, _cells, _fit_constant
from sectorflow.scenarios import _SLIDE_PROFILES, _certify_exact, parse_config, run_scenario

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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


def _boundary_oracle(u, alpha):
    """The fields of boundary_report that W = r^alpha u_theta and V = r^alpha u_r
    give, with W and V formed on every node."""
    g = u.grid
    ra = np.exp(alpha * g.s_nodes)[:, None]
    W, V = ra * u.utheta_vals, ra * u.ur_vals
    fits = [_fit_constant(W[:, 0]), _fit_constant(W[:, -1]),
            _fit_constant(V[:, 0:7] @ _EDGE_WEIGHTS / g.h_theta),
            _fit_constant(V[:, -7:] @ -_EDGE_WEIGHTS[::-1] / g.h_theta)]
    out = {f"c{k}_{part}": value for k, fit in enumerate(fits, 1)
           for part, value in zip(("hat", "residual"), fit)}
    i0 = int(np.argmin(np.abs(g.r_nodes - 1.0)))
    out["inconsistent_hypotheses"] = (
        math.isclose(g.theta0, TWO_PI, rel_tol=1e-12) and alpha != 1.0
        and float(np.min(np.abs(V[i0, :]))) > 1e-9 * (float(np.max(np.abs(V))) + 1e-300))
    return out


def _boundary_pair(u, alpha):
    """Those fields of boundary_report and of the oracle, as reprs (equal reprs,
    equal bits)."""
    oracle, rep = _boundary_oracle(u, alpha), boundary_report(u, alpha)
    return ({key: repr(getattr(rep, key)) for key in oracle},
            {key: repr(value) for key, value in oracle.items()})


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


_SIZES = [48, 97, 257, 513]
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


@pytest.mark.parametrize("n", _SIZES)
@pytest.mark.parametrize("kind, params", _FAMILIES, ids=lambda v: getattr(v, "value", ""))
def test_boundary_report_equals_its_whole_array_form(n, kind, params):
    sol = construct_exact(kind, params, 1.0)
    got, want = _boundary_pair(sample_velocity(sol, _family_grid(n)), sol.alpha)
    assert got == want


def _full_circle_field(n):
    """A random field on the full circle whose r^0.7 u_r stays off zero on the
    row nearest r = 1, so that boundary_report flags the hypotheses inconsistent."""
    grid = LogPolarGrid(-0.3, 0.9, n, n + 3, TWO_PI)
    rng = np.random.default_rng(n)
    return VectorField(grid, 1.0 + rng.random(grid.shape), rng.standard_normal(grid.shape))


@pytest.mark.parametrize("n", _SIZES)
def test_boundary_report_equals_its_whole_array_form_on_random_fields(n):
    got, want = _boundary_pair(_full_circle_field(n), 0.7)
    assert got == want and got["inconsistent_hypotheses"] == "True"


@pytest.mark.parametrize("n", [97, 257])
def test_a_nan_in_a_later_block_of_u_gives_what_the_whole_array_forms_give(n):
    """A NaN in u_r past the first row block, off the edge columns: max |V| is
    NaN, so the inconsistency flag drops to False as in the whole-array form
    (a Python max() over the blocks would drop the NaN instead); homogeneity_fit
    sees a NaN peak and raises, as the whole-array form did."""
    u = _full_circle_field(n)
    u.ur_vals[BLOCK_ROWS + 5, n // 2] = np.nan
    got, want = _boundary_pair(u, 0.7)
    assert got == want and got["inconsistent_hypotheses"] == "False"
    assert got["c3_hat"] != "nan"
    with pytest.raises(DegenerateField, match="vanishes everywhere"):
        homogeneity_fit(u)


def test_jacobian_with_a_nan_in_a_later_block_stays_nan():
    grid = _family_grid(257)
    psi = sample_stream(construct_exact(*_FAMILIES[0], 1.0), grid)
    lap = laplacian_polar(psi)
    psi.vals[3 * BLOCK_ROWS + 7, 50] = np.nan
    assert math.isnan(jacobian_check(lap, psi))
    assert math.isnan(_jacobian_oracle(lap, psi))


def test_homogeneity_drops_rays_in_the_middle_of_a_block():
    """201 rays (three full blocks and one ray): a ray through a zero of |u|
    and one that dips to 1e-15 of the peak, both inside the second block, are
    fitted with the rest and then dropped, as the whole-array form skips them."""
    grid = LogPolarGrid(0.0, 1.0, 150, 200, 1.0)
    rng = np.random.default_rng(7)
    u = VectorField(grid, 1.0 + rng.random(grid.shape), rng.standard_normal(grid.shape))
    assert (grid.n_theta + 1) % BLOCK_ROWS != 0
    u.ur_vals[:, 70] = u.utheta_vals[:, 70] = 0.0
    u.ur_vals[40, 90], u.utheta_vals[40, 90] = 1e-15, 0.0
    M = u.magnitude()
    assert np.flatnonzero(np.min(M, axis=0) <= 1e-13 * np.max(M)).tolist() == [70, 90]
    with np.errstate(divide="raise", invalid="raise"):  # the fit gives no warning
        assert homogeneity_fit(u) == _homogeneity_oracle(u)


# the overlap of each tau below: 201 - 10 = 191 s-rows at n_s = 200, xi1 = 1
_SLIDE_GRID = LogPolarGrid(0.0, 1.0, 200, 120, 1.0)
_SLIDE_TAUS = [0.05, 0.0123, 0.3]


def test_sliding_overlap_spans_three_blocks_with_a_ragged_last():
    rows = np.sum(_SLIDE_GRID.s_nodes + 0.05 <= _SLIDE_GRID.s_max + 1e-12)
    assert rows > 2 * BLOCK_ROWS and rows % BLOCK_ROWS != 0


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


@pytest.mark.parametrize("profile", sorted(_SLIDE_PROFILES))
def test_sliding_on_the_broadcast_row_equals_the_tiled_field(profile):
    """Slide's field is one theta-profile broadcast to every s-row, a read-only
    view; the check gives what it gives on the tiled copy."""
    row = _SLIDE_PROFILES[profile](_SLIDE_GRID.theta_nodes)
    view = np.broadcast_to(row, _SLIDE_GRID.shape)
    assert not view.flags.writeable
    taus = _SLIDE_TAUS + [0.45]
    assert sliding_check(ScalarField(_SLIDE_GRID, view), (1.0, 1.0), taus) == sliding_check(
        ScalarField(_SLIDE_GRID, np.tile(row, (_SLIDE_GRID.n_s + 1, 1))), (1.0, 1.0), taus)


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)


def test_certification_kernels_never_write_their_inputs():
    """Every certification kernel and the sliding check run on inputs marked
    read-only: a write into an input view, an easy slip in a blocked kernel
    that works in place, raises ValueError."""
    grid = _family_grid(257)
    sol = construct_exact(*_FAMILIES[1], 1.0)
    u, psi = sample_velocity(sol, grid), sample_stream(sol, grid)
    _read_only(u.ur_vals, u.utheta_vals, psi.vals)
    lap = laplacian_polar(psi)
    _read_only(lap.vals)
    homogeneity_fit(u)
    boundary_report(u, sol.alpha)
    assert jacobian_check(lap, psi) > 0.0  # past the constant-Laplacian exit
    recover_g(psi, lap)
    s_variance(psi)
    sliding_check(psi, (1.0, 1.0), [0.05, 0.2])


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
    """Two buffers of BLOCK_ROWS x 1025 floats (1 MB) and the per-tau node
    vectors, where the whole-array form held w, its product terms and the
    row gathers: 36 MB at 1025^2, over four grids."""
    n = 1024
    grid = LogPolarGrid(0.0, math.log(2.0), n, n, 1.0)
    Psi = ScalarField(grid, np.tile(1.0 / np.cos(grid.theta_nodes), (n + 1, 1)))
    taus = [0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]
    assert _peak_above_entry(sliding_check, Psi, (1.0, 1.0), taus) <= Psi.vals.nbytes


def test_jacobian_check_holds_at_most_two_grids():
    """At 513^2 a row block is 64 x 511 floats, 1/8 of a grid.  Pass 2 holds
    four gradients, the determinant and one product buffer (six blocks), the
    mask of finite L-gradients (a bool block, 1/64 grid), and, while the next
    block's gradients form, the last block's four gradients and mask: about
    1.3 grids, under 2.  Pass 1 holds less.  The interior-sized form held six
    interior arrays and three masks, 6.3 grids; the whole-array form, over ten."""
    grid = _family_grid(512)
    psi = sample_stream(construct_exact(*_FAMILIES[0], 1.0), grid)
    lap = laplacian_polar(psi)
    assert _peak_above_entry(jacobian_check, lap, psi) <= 2 * psi.vals.nbytes


def _velocity_513():
    sol = construct_exact(*_FAMILIES[1], 1.0)
    return sol, sample_velocity(sol, _family_grid(512))


def test_homogeneity_fit_holds_at_most_one_grid():
    """A block of 64 rays is 513 x 64 floats, 1/8 of a 513^2 grid: |u| (then
    ln|u|) and T, two blocks, and the last block's two while the next |u|
    forms, plus four per-ray vectors per block; the cross pass holds
    r^alpha_hat u_r of one block.  That is under half a grid (0.44 measured).
    The whole-array form held |u|, its copy on the kept rays and T: 3 grids."""
    sol, u = _velocity_513()
    assert _peak_above_entry(homogeneity_fit, u) <= u.ur_vals.nbytes


@pytest.mark.parametrize("n", [256, 384])
def test_recover_g_peaks_at_its_sort(n):
    """The peak is the sort: the mask (1 byte a node), the masked stream and
    Laplacian, the stable argsort's int64 order and one sorted copy, formed
    while the unsorted one it replaces lives, four arrays of the (n - 1)^2
    interior samples, 4.09 grids at 257^2 and 385^2 (both sorted copies
    formed beside the unsorted pair made five, 5.05 and 5.07 grids).  After it, the
    sorted pair and the order (3 interior arrays) stay while the bin fits
    run in blocks of whole bins, a sixteenth of the samples and a bin each:
    a few such arrays, 0.4 grids at 257^2, under the sort's peak; fits over
    all samples at once peak at 7.1 grids.  The bins' views and means are
    under 64 kB."""
    grid = _family_grid(n)
    psi = sample_stream(construct_exact(*_FAMILIES[0], 1.0), grid)
    lap = laplacian_polar(psi)
    recover_g(psi, lap)  # a first call may import numpy submodules, which tracemalloc counts
    bound = 4 * 8 * (n - 1) ** 2 + (n + 1) ** 2 + (64 << 10)
    assert _peak_above_entry(recover_g, psi, lap) <= bound


def test_boundary_report_holds_at_most_half_a_grid():
    """r^alpha u_r and its absolute value on one row block, 2 x 1/8 of a 513^2
    grid, and the 513 x 7 edge products; W and V on every node were 2 grids
    and their absolute value a third."""
    sol, u = _velocity_513()
    assert _peak_above_entry(boundary_report, u, sol.alpha) <= 0.5 * u.ur_vals.nbytes


def test_laplacian_polar_holds_its_output_and_half_a_grid():
    """The output grid, the stencil's one scratch buffer on one row block,
    64 x 511 floats, 1/8 of a 513^2 grid, and numpy's ufunc buffers for the
    strided operands, 64 kB each: 1.22 grids measured.  The whole-array form
    held one interior array beside the output, over 2 grids."""
    grid = _family_grid(512)
    psi = sample_stream(construct_exact(*_FAMILIES[0], 1.0), grid)
    assert _peak_above_entry(laplacian_polar, psi) <= 1.5 * psi.vals.nbytes


@pytest.mark.parametrize("n", [512, 1024])
def test_certify_exact_holds_at_most_four_grids(n):
    """The velocity (two grids) is released after homogeneity_fit and
    boundary_report, under 1/4 grid each above it; then the stream and its
    Laplacian (two grids, both returned) stay, and jacobian_check adds at
    most 2 grids at 513^2 and less at 1025^2 (its blocks are fewer rows of
    the grid).  The parent held u through the Jacobian: 10 grids."""
    grid = _family_grid(n)
    sol = construct_exact(*_FAMILIES[1], 1.0)
    nbytes = 8 * (n + 1) ** 2
    assert _peak_above_entry(_certify_exact, sol, grid) <= 4 * nbytes


def test_slide_run_holds_less_than_half_a_grid(tmp_path):
    """Slide at n = 1024: the field is one theta-row broadcast to 1025 rows
    (8 kB), and sliding_check's two buffers of 64 x 1025 floats with a row
    gather take 1/8 to 1/4 of a 1025^2 grid; np.tile copied the row into a
    whole grid (1.2 grids at the peak)."""
    scn = parse_config(CONFIGS / "slide.ini", {"slide": {"n": "1024"}})
    peak = _peak_above_entry(run_scenario, scn, tmp_path / "out")
    assert peak < 0.5 * 8 * 1025**2


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


def test_initial_guess_holds_two_grids():
    """Thm1ii's perturbed start at 385^2, on a first call.  The counter hash
    runs in place on one uint64 grid beside one temporary for each
    xor-shift, 2 grids; the noise is converted to floats beside the
    counters, 2 grids, then windowed and offset by h in place once the
    counters are released, with the two windows and h a row each and
    numpy's 64 kB buffer for the broadcast operands: 2.00 grids measured
    (2.06 when the counters were held through those passes).  Drawing from
    numpy.random's generator beside the tiled h and the windowed products
    held 4.06 grids, and 4.70 on a first call, which loaded numpy.random."""
    n = 384
    grid = LogPolarGrid(0.0, math.log(2.0), n, n, 1.0)
    h = lambda th: np.log(np.cos(th))
    peak = _peak_above_entry(default_initial_guess, grid, h, 0.05, 0)
    assert peak <= 2 * 8 * (n + 1) ** 2 + (64 << 10)


def test_newton_krylov_solve_holds_at_most_eleven_grids():
    """Thm1ii's solve, from the shipped config's start, at 257^2.  Into each
    Newton step it holds the residual, the nonlinear diagonal, the action's
    ghost-filled buffer and the preconditioner's inverse pivots (half the
    modes, complex: one grid), 4 grids.  Through GMRES it adds at most three
    Krylov vectors (three iterations a step; two once the iterate is its own
    grid), 3, the preconditioned vector under the action, 1, and the
    stencil's output and one scratch buffer, 2: 10 grids and a few rows, the
    peak (10.37 measured).  The residual, the diagonal and the preconditioner
    are released once GMRES returns, so the line search holds the action's
    buffer, 1, the iterate, the step and the trial, 3, the stencil's output
    and g's argument, 2, and two temporaries inside g, 2: 8 grids and a few
    rows (8.19 measured).  Holding those three through the line search made
    it the peak, 11.2 grids; a second stencil scratch buffer and GMRES's zero
    sum held through the Arnoldi cycle made 12.3 grids; the FFT x DST-I
    preconditioner, with a temporary per stencil tap, held about 25 grids."""
    n = 256
    grid = LogPolarGrid(0.0, math.log(2.0), n, n, 1.0)
    h = lambda th: np.log(np.cos(th))
    init = default_initial_guess(grid, h, amplitude=0.05, seed=0)
    peak = _peak_above_entry(solve_semilinear, grid, ExpForm(-1.0, 1.0), Frame(1.0, 1.0), h, init)
    assert peak <= 11 * init.vals.nbytes


@pytest.mark.parametrize("c, p", [(1.0, -1.0), (1.0, 0.5)], ids=["bound", "blow-up"])
def test_cor1_shoot_holds_one_path(c, p):
    """Cor1's shoot: 41 members at step 1e-3 over [0, 2 pi], 6284 x 41 floats
    of path (2 MB).  The march holds the path and, at each look, 256 of its
    rows; each member's profile is a view into the path, with a read-only
    view of c as its swirl; the theta nodes are 1/41 path.  On either side of
    c^2 + 2p = 0 (some members stay bounded; every member blows up and the
    march stops early) that peaked at 1.10 and 1.12 paths and held 1.04
    after return.  An |path| copy with its mask for a cut search after the
    march and a column of c per member peaked at 2.95 and 1.54 paths and held
    1.83 and 1.21."""
    grid = np.linspace(-2.0, 2.0, 41)
    span = (0.0, 2 * math.pi)
    path = 8 * (round(span[1] / 1e-3) + 1) * len(grid)
    shoot_alpha1(c, p, grid, span)  # a first call may import numpy submodules
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        results = shoot_alpha1(c, p, grid, span)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert any(r.blew_up for r in results) and (c * c + 2 * p > 0) == all(
        r.blew_up for r in results)
    assert peak - entry <= 1.25 * path and held - entry <= 1.1 * path
