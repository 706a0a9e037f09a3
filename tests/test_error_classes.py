"""Each numerical error class is raised by a public input and carries what
its handler needs."""

import json
import math
import warnings

import numpy as np
import pytest

from sectorflow import (
    ExpForm,
    Frame,
    GRecovery,
    ScalarField,
    VectorField,
    default_initial_guess,
    g_functional_check,
    homogeneity_fit,
    solve_semilinear,
)
from sectorflow.cli import main
from sectorflow.domain import LogPolarGrid
from sectorflow.fields import write_field
from sectorflow import elliptic
from sectorflow.errors import (
    DegenerateField,
    InsufficientOverlap,
    NoConvergence,
)


def _grid(n=16):
    return LogPolarGrid(0.0, math.log(2), n, n, 1.0)


def test_no_convergence_carries_best_iterate_and_report():
    grid = _grid()
    with pytest.raises(NoConvergence) as info:
        solve_semilinear(grid, ExpForm(1.0, 1.0), Frame(1.0), lambda th: th,
                         tol=0.0, max_iter=1)
    rep = info.value.report
    assert rep.iterations == 1 and not rep.converged
    assert len(rep.residual_history) == 2 and rep.final_residual > 0.0
    assert isinstance(info.value.field, ScalarField)
    assert info.value.field.grid == grid
    assert np.all(np.isfinite(info.value.field.vals))


def test_non_finite_step_is_rejected_by_the_line_search(monkeypatch):
    # no step is checked for finiteness: a NaN step never lowers the
    # residual, so damping runs to its floor and the start is kept
    monkeypatch.setattr(elliptic, "_krylov_step",
                        lambda jvp, rhs, precond: (np.full_like(rhs, np.nan), 1, False))
    grid, h = _grid(), lambda th: th
    with pytest.raises(NoConvergence) as info:
        solve_semilinear(grid, ExpForm(1.0, 1.0), Frame(1.0), h)
    rep = info.value.report
    assert rep.iterations == 0 and rep.krylov_converged == [False]
    np.testing.assert_array_equal(info.value.field.vals, default_initial_guess(grid, h).vals)


def test_non_finite_g_prime_fails_before_any_krylov_step():
    # g' = -200 g overflows to -inf at the start; the solve stops there
    # instead of running GMRES to its cap on inf and NaN arithmetic
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergence, match="non-finite") as info:
            solve_semilinear(_grid(), ExpForm(1e307, 0.01), Frame(1.0), np.zeros_like)
    rep = info.value.report
    assert rep.iterations == 0 and rep.krylov_iterations == []


@pytest.mark.parametrize("zero_row", [None, 5])
def test_degenerate_field(zero_row):
    grid = _grid()
    ur = np.zeros(grid.shape) if zero_row is None else np.ones(grid.shape)
    if zero_row is not None:
        ur[zero_row] = 0.0  # every ray touches 0
    with pytest.raises(DegenerateField):
        homogeneity_fit(VectorField(grid, ur, np.zeros(grid.shape)))


@pytest.mark.parametrize(
    "z, frame",
    [
        (np.linspace(0.0, 0.5, 11), Frame(1.0, 1.0)),  # width < ln 2 shift
        (np.linspace(0.5, 1.0, 11), Frame(3.0)),  # z/4 falls off the table
    ],
)
def test_insufficient_overlap(z, frame):
    rec = GRecovery(z, -np.exp(-2.0 * z), 0.0, {}, None, 1.0)
    with pytest.raises(InsufficientOverlap):
        g_functional_check(rec, frame.alpha, frame.c)


def test_pipeline_value_error_is_pipeline_failure(tmp_path):
    # an 8 x 8 field has 49 interior nodes, too few for g-recovery's bins
    grid = _grid(8)
    write_field(ScalarField(grid, np.tile(grid.theta_nodes, (9, 1))), tmp_path / "psi.csv")
    cfg = tmp_path / "verify.ini"
    cfg.write_text("[scenario]\nname = verify\ntag = Verify\n[grid]\nn_s = 8\nn_theta = 8\n"
                   f"[verify]\npsi_csv = {tmp_path / 'psi.csv'}\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["error"].startswith("PipelineFailure:")
    assert "need at least 100 interior samples" in report["error"]
    assert report["passed"] is False
