"""Each numerical error class is raised by a public input and carries what
its handler needs."""

import json
import math

import numpy as np
import pytest

from sectorflow import (
    DirichletBoth,
    ExpForm,
    GRecovery,
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
from sectorflow.elliptic import Tabulated
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
                         lambda th: th, DirichletBoth(), tol=0.0, max_iter=1)
    rep = info.value.report
    assert rep.iterations == 1 and not rep.converged
    assert len(rep.residual_history) == 2 and rep.final_residual > 0.0
    assert isinstance(info.value.field, ScalarField)
    assert info.value.field.grid == grid
    assert np.all(np.isfinite(info.value.field.vals))


def test_singular_jacobian_when_g_prime_cancels_the_diagonal():
    # g' equal to the 5-point centre coefficient zeroes the Jacobian's
    # diagonal; the neighbour couplings left on 7 x 7 interior nodes have
    # an exactly zero eigenvalue, so the LU meets a zero pivot
    grid = _grid(8)
    centre = -2.0 / grid.h_s**2 - 2.0 / grid.h_theta**2
    g = Tabulated(np.array([0.0, 1.0]), np.array([0.0, centre]))
    with pytest.raises(SingularJacobian):
        solve_semilinear(grid, laplace_operator(), g, RawFrame(),
                         lambda th: np.ones_like(th), DirichletBoth())


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
    cfg = tmp_path / "cor1.ini"
    cfg.write_text("[scenario]\nname = cor1\ntag = Cor1\n[ode]\nc = 1\nstep = 0.5\n")
    out = tmp_path / "out"
    assert main(["ode", "--config", str(cfg), "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["error"].startswith("PipelineFailure:")
    assert "step must lie in (0, 0.1]" in report["error"]
    assert report["passed"] is False
