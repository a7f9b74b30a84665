"""Robust leader/follower control toolkit for 2D incompressible Stokes flow.

The package computes the follower/disturbance saddle point of the robust
tracking game, synthesizes a minimal-norm leader control steering the coupled
optimality system to (near-)zero at the final time, and provides numeric
diagnostics for the singular weight families behind the observability
machinery.
"""

from .errors import (
    BlowupError,
    CflError,
    ConfigurationError,
    ConvergenceError,
    GeometryError,
    NumericalError,
    PoleError,
)
from .grid import (
    GridSpec,
    Region,
    ScalarField,
    SmoothCutoff,
    Trajectory,
    VelocityField,
    divergence,
    gradient,
    inner,
    inner_space_time,
    norm,
    project_div_free,
)
from .stokes import (
    Coupling,
    ForcingAssembly,
    SolverOptions,
    adjoint_coupling,
    convection,
    solve_backward_adjoint,
    solve_coupled_linear,
    solve_coupled_nonlinear,
    solve_forward,
    solve_forward_terminal,
)
from .saddle import (
    RobustParams,
    SaddleProblem,
    estimate_gamma_threshold,
    robust_cost,
    robust_cost_grad,
    saddle_ascent_descent,
    saddle_from_coupled,
    verify_saddle,
)
from .leader import (
    LeaderResult,
    PenaltyConfig,
    control_to_terminal,
    penalized_gradient,
    solve_null_control_cg,
    solve_null_control_nonlinear,
)
from .carleman import (
    CarlemanParams,
    WeightFamily,
    alpha_ratio,
    check_laplacian_weight_bound,
    check_weight_domination,
    observability_ratio,
    weighted_norm_components,
)
from .harness import (
    ExperimentConfig,
    RunRecord,
    parse_config,
    run_experiment,
    rng_stream,
)

__version__ = "0.1.0"
