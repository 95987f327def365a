"""Numerical toolkit for parabolic obstacle problems in divergence form.

Solves the Cauchy obstacle problem by penalization and by an exact active-set
complementarity solve, simulates the associated diffusion and reflected
BSDE, and machine-checks the representation identities tying the two halves
together.
"""

from .errors import (
    CflViolation,
    EvaluatorFailure,
    InnerDivergence,
    LcpStall,
    MissingDerivative,
    MonotonicityViolation,
    NoContraction,
    ParobsError,
    RegressionSingular,
    ScenarioError,
)
from .grid import (
    DensityTable,
    DiscreteOperator,
    SpaceTimeGrid,
    TransitionKernel,
    assemble_operator,
    interp_space_time,
    solve_density,
    transition_kernel,
)
from .problem import (
    Coefficients,
    Driver,
    HypothesisReport,
    ObstacleData,
    ObstacleProblemSpec,
    Weight,
    lipschitz_probe,
    validate_hypotheses,
)
from .scenarios import Scenario, build_family, load_scenario
from .solver import (
    ObstacleSolution,
    PenalizedSolution,
    PicardTrace,
    as_obstacle_solution,
    contraction_gamma,
    obstacle_stability,
    penalization_study,
    picard_outer,
    solve_penalized,
    solve_psor,
)
from .stochastic import (
    LsmcEstimate,
    PathEnsemble,
    RbsdeEstimate,
    moment_ratio_probe,
    optimal_stopping_value,
    penalization_convergence_mc,
    rbsde_chain_dp,
    rbsde_penalized_mc,
    rbsde_reflected_mc,
    simulate_paths,
)
from .verify import (
    CheckReport,
    VerifyContext,
    check_ac_measure,
    check_interval_measure,
    check_measure_identity,
    check_minimality,
    check_representation_u,
    check_representation_z,
    check_skorokhod,
    check_weighted_bounds,
)

__version__ = "0.1.0"
