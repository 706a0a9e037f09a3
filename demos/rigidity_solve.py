"""Rigidity demo: perturbed-start semilinear solves flatten in s.

In the working frames the stream function of a homogeneous flow solves
L Psi = F(s) g(arg(s, Psi)) with boundary trace Psi = h(theta) and
periodicity in s = ln r.  Starting Newton from h(theta) plus a seeded
interior perturbation, the converged iterate loses all s-dependence:
the numerical counterpart of the uniqueness statements.
"""

import math

import numpy as np

from sectorflow import (
    Alpha1Frame,
    ExpForm,
    GeneralFrame,
    PowerForm,
    RawFrame,
    ZeroG,
    default_initial_guess,
    general_frame_operator,
    laplace_operator,
    s_variance,
    solve_semilinear,
)
from sectorflow.domain import LogPolarGrid


def run(name, grid, op, gspec, frame, h):
    init = default_initial_guess(grid, h, amplitude=0.1, seed=0)
    start_var = s_variance(init)
    Psi, rep = solve_semilinear(grid, op, gspec, frame, h, init=init)
    print(f"{name:<22} iters={rep.iterations}  residual={rep.final_residual:.1e}"
          f"  s-variance {start_var:.2e} -> {s_variance(Psi):.2e}")
    return Psi


# swirl-free case: g = 0, solution is the linear profile B theta / theta0
theta0 = math.pi / 2
grid = LogPolarGrid(0.0, math.log(2), 64, 64, theta0)
psi = run("swirl-free (g = 0)", grid, laplace_operator(), ZeroG(), RawFrame(),
          lambda th: th / theta0)
_, TH = grid.mesh()
print(f"  max |Psi - theta/theta0| = {np.max(np.abs(psi.vals - TH / theta0)):.2e}")

# exponential nonlinearity: log-cosine profile of the tangent family
grid = LogPolarGrid(0.0, math.log(2), 64, 64, 1.0)
run("exponential g", grid, laplace_operator(), ExpForm(-1.0, 1.0),
    Alpha1Frame(1.0), lambda th: np.log(np.cos(th)))

# cubic nonlinearity: negative-secant profile of the power family
run("cubic g", grid, general_frame_operator(2.0),
    PowerForm(-2.0, 3.0), GeneralFrame(2.0),
    lambda th: -1.0 / np.cos(th))
