"""Sliding comparison and boundary-constant ledger for exact fields.

The sliding method translates a working-frame profile against itself:
w^tau = Psi(. + tau xi) - Psi must stay nonnegative for a monotone
profile, approaching zero only as the angular shift vanishes.  The
boundary report fits the edge constants (c1, c2, c3, c4) of the
homogeneity hypotheses and checks the mass identity
c2 - c1 = (alpha - 1) * int f.
"""

import math

import numpy as np

from sectorflow import (
    FamilyKind,
    ScalarField,
    VectorField,
    boundary_report,
    construct_exact,
    sample_velocity,
    sliding_check,
)
from sectorflow.domain import LogPolarGrid

# monotone secant profile: min w^tau = sec(tau) - 1 > 0, attained at theta = 0
grid = LogPolarGrid(0.0, 1.0, 500, 500, 1.0)
_, TH = grid.mesh()
Psi = ScalarField(grid, 1.0 / np.cos(TH))
print("sliding the secant profile (xi = e_theta):")
out = sliding_check(Psi, (0.0, 1.0), [0.05, 0.1, 0.2, 0.4])
for entry in out["per_tau"]:
    tau = entry["tau"]
    print(f"  tau = {tau:.2f}  min w = {entry['min_w']:.6f}"
          f"  (exact sec(tau) - 1 = {1 / math.cos(tau) - 1:.6f})")

# boundary constants of the tangent family: c1 = c2 = 1, c3 = sec^2(0) = 1
sol = construct_exact(FamilyKind.TAN, {"v": 1.0, "p": 0.0, "C": 0.0}, 1.0)
u = sample_velocity(sol, LogPolarGrid(0.0, math.log(2), 256, 256, 1.0))
rep = boundary_report(u, 1.0)
print("\ntangent-family boundary report:")
print(f"  c1 = {rep.c1_hat:.8f} (res {rep.c1_residual:.1e})"
      f"  c2 = {rep.c2_hat:.8f}")
print(f"  c3 = {rep.c3_hat:.8f}  c4 = {rep.c4_hat:.8f}")
print(f"  mass identity defect = {rep.mass_identity_defect:.2e}")
print(f"  inconsistent hypotheses flagged: {rep.inconsistent_hypotheses}")

# full-angle field with nowhere-vanishing radial part and alpha != 1:
# the hypotheses cannot hold together, and the report says so
fgrid = LogPolarGrid(0.0, math.log(2), 64, 64, 2 * math.pi)
S, _ = fgrid.mesh()
bad = VectorField(fgrid, np.exp(-2 * S), np.exp(-2 * S))
print(f"\nfull-angle alpha=2 field with |u_r| > 0 everywhere: "
      f"flagged = {boundary_report(bad, 2.0).inconsistent_hypotheses}")
