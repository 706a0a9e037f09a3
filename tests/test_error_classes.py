"""Each numerical error class is raised by a public input and carries what
its handler needs."""

import json
import math

import numpy as np
import pytest

from sectorflow import (
    ExpForm,
    GRecovery,
    PowerForm,
    RawFrame,
    ScalarField,
    Thm1Relation,
    Thm2Relation,
    VectorField,
    g_functional_check,
    homogeneity_fit,
    laplace_operator,
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
    SingularJacobian,
)


def _grid(n=16):
    return LogPolarGrid(0.0, math.log(2), n, n, 1.0)


def test_no_convergence_carries_best_iterate_and_report():
    grid = _grid()
    with pytest.raises(NoConvergence) as info:
        solve_semilinear(grid, laplace_operator(), ExpForm(1.0, 1.0), RawFrame(),
                         lambda th: th, tol=0.0, max_iter=1)
    rep = info.value.report
    assert rep.iterations == 1 and not rep.converged
    assert len(rep.residual_history) == 2 and rep.final_residual > 0.0
    assert isinstance(info.value.field, ScalarField)
    assert info.value.field.grid == grid
    assert np.all(np.isfinite(info.value.field.vals))


def test_singular_jacobian_when_g_prime_cancels_the_diagonal(monkeypatch):
    # on h = 1, g' of C|z| is C, the 5-point centre coefficient, so the
    # Jacobian's diagonal is zero; with h_s = h_theta the neighbour
    # couplings left on the 8 x 7 periodic unknowns have an exactly zero
    # eigenvalue, and the LU fallback (GMRES forced to miss its cap) meets
    # a zero pivot
    grid = LogPolarGrid(0.0, math.log(2), 8, 8, math.log(2))
    centre = -2.0 / grid.h_s**2 - 2.0 / grid.h_theta**2
    monkeypatch.setattr(elliptic, "gmres", lambda A, b, **kw: (np.zeros_like(b), 1))
    with pytest.raises(SingularJacobian):
        solve_semilinear(grid, laplace_operator(), PowerForm(centre, 1.0), RawFrame(),
                         lambda th: np.ones_like(th))


@pytest.mark.parametrize("zero_row", [None, 5])
def test_degenerate_field(zero_row):
    grid = _grid()
    ur = np.zeros(grid.shape) if zero_row is None else np.ones(grid.shape)
    if zero_row is not None:
        ur[zero_row] = 0.0  # every ray touches 0
    with pytest.raises(DegenerateField):
        homogeneity_fit(VectorField(grid, ur, np.zeros(grid.shape)))


@pytest.mark.parametrize(
    "z, relation",
    [
        (np.linspace(0.0, 0.5, 11), Thm1Relation(1.0)),  # width < ln 2 shift
        (np.linspace(0.5, 1.0, 11), Thm2Relation(3.0)),  # z/4 falls off the table
    ],
)
def test_insufficient_overlap(z, relation):
    rec = GRecovery(z, -np.exp(-2.0 * z), 0.0, {}, None)
    with pytest.raises(InsufficientOverlap):
        g_functional_check(rec, relation)


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
