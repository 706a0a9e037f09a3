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
    mass_identity_defect,
    periodic_shooting,
    shoot_alpha1,
    w_equation_residual,
)
from .fields import (
    Alpha1Frame,
    GeneralFrame,
    RawFrame,
    ScalarField,
    VectorField,
    euler_residual,
    field_to_csv,
    laplacian_polar,
    sample_stream,
    sample_velocity,
    velocity_from_stream,
)
from .elliptic import (
    EllipticOperator,
    ExpForm,
    PowerForm,
    SolveReport,
    ZeroG,
    default_initial_guess,
    general_frame_operator,
    laplace_operator,
    solve_semilinear,
)
from .rigidity import (
    BoundaryReport,
    GRecovery,
    Thm1Relation,
    Thm2Relation,
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
