"""Recover the vorticity-stream nonlinearity g from sampled fields.

A steady flow whose radial part never vanishes satisfies the pointwise
identity Delta psi = g(psi).  Binning the (psi, Delta psi) scatter of an
exact field recovers g; its shape (exponential for alpha = 1, power law
otherwise) and the scaling law g(z) = 2^{1+alpha} g(2^{1-alpha} z + c ln 2)
of its working frame Frame(alpha, c) are then verified.
"""

import math

import numpy as np

from sectorflow import (
    FamilyKind,
    construct_exact,
    g_functional_check,
    jacobian_check,
    laplacian_polar,
    recover_g,
    sample_stream,
)
from sectorflow.domain import LogPolarGrid

# tangent family (alpha = 1): psi = s + ln cos(theta), Delta psi = -e^{-2 psi}
grid = LogPolarGrid(0.0, math.log(2), 256, 256, 1.0)
sol = construct_exact(FamilyKind.TAN, {"v": 1.0, "p": 0.0, "C": 0.0}, 1.0)
psi = sample_stream(sol, grid)
lap = laplacian_polar(psi)
rec = recover_g(psi, lap)
print("tangent family (alpha = 1):")
print(f"  fitted form: {rec.fit['form']}  slope = {rec.fit['slope']:.5f}"
      f"  (exact -2)  r^2 = {rec.fit['r_squared']:.8f}")
print(f"  functional equation g(z) = 4 g(z + ln 2): "
      f"defect {g_functional_check(rec, 1.0, 1.0):.2e}")
print(f"  Jacobian dependence check: {jacobian_check(lap, psi):.2e}")

# power family (alpha = 2): psi = -sec(theta) / r, Delta psi = 2 psi^3
grid = LogPolarGrid(0.0, 1.0, 256, 256, 1.0)
sol = construct_exact(FamilyKind.COS_POWER, {"alpha": 2.0, "C1": 1.0, "C2": 0.0}, 1.0)
psi = sample_stream(sol, grid)
lap = laplacian_polar(psi)
rec = recover_g(psi, lap)
print("\npower family (alpha = 2):")
print(f"  fitted form: {rec.fit['form']}  q = {rec.fit['q']:.5f}  (exact 3)"
      f"  coefficient = {rec.fit['coefficient']:.5f}")
print(f"  functional equation g(z) = 8 g(z / 2): "
      f"defect {g_functional_check(rec, 2.0):.2e}")
print(f"  Jacobian dependence check: {jacobian_check(lap, psi):.2e}")
