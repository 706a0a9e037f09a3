"""Homogeneous solutions of the 2D stationary Euler equations on sectors.

Construction of the explicit (-alpha)-homogeneous families, angular-profile
ODE integration, semilinear elliptic solves in the log-polar working
frames, and a posteriori rigidity certification.
"""

from .domain import (
    DEFAULT_CLIP_HALFWIDTH,
    LogPolarGrid,
    SectorDomain,
    build_grid,
    make_sector,
)
from .exact import (
    AngularProfile,
    FamilyKind,
    HomogeneousSolution,
    construct_exact,
    euler_residual_closed_form,
    profile_residual,
)
from .angular_ode import (
    OdeConfig,
    OdeResult,
    integrate_alpha1,
    integrate_general,
    periodic_shooting,
    shoot_alpha1,
    w_equation_residual,
)
from .fields import (
    ScalarField,
    VectorField,
    field_to_csv,
    laplacian_polar,
    sample_stream,
    sample_velocity,
)
from .elliptic import (
    ExpForm,
    Frame,
    PowerForm,
    SolveReport,
    ZeroG,
    default_initial_guess,
    solve_semilinear,
)
from .rigidity import (
    BoundaryReport,
    GRecovery,
    boundary_report,
    g_functional_check,
    homogeneity_fit,
    jacobian_check,
    recover_g,
    s_variance,
    sliding_check,
)
from . import errors

__version__ = "0.1.0"
