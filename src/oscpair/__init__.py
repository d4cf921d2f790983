"""Exact propagators for two coupled, driven time-dependent oscillators."""

from .coefficients import (
    Coefficient,
    Constant,
    Exponential,
    Polynomial,
    Power,
    Sinusoidal,
    Spline,
    coefficient_from_dict,
    coefficient_to_dict,
)
from .comparison import ComparisonReport, discrepancy_significant, run_comparison
from .decoupling import (
    CanonicalTransform,
    DecoupledSystem,
    channel_quantities,
    decoupled_at_angle,
    normalize_angle,
    solve_angle,
)
from .ermakov import ErmakovSolution, SolveStats, solve_ermakov
from .errors import (
    CausticError,
    DomainError,
    GridMismatch,
    InadmissibleSystem,
    NonConvergentGaussian,
    NonPositiveRho,
    SchemaError,
    SolverFailure,
)
from .gaussian import GaussianState2D, fidelity as gaussian_fidelity, overlap
from .oracle import (
    Grid2D,
    GridState,
    energy_expectation,
    evolve,
    fidelity,
    from_gaussian,
    step,
    suggest_extent,
)
from .propagator import (
    Kernel,
    build_kernel,
    build_kernels,
    evolve_gaussian,
    propagate_gaussian,
    schrodinger_residual,
    solve_channels,
)
from .scenario import (
    Scenario,
    load_scenario,
    load_shipped,
    parse_scenario,
    shipped_scenarios,
)
from .system import (
    PhasePoint,
    SystemSpec,
    TransformedPhasePoint,
    effective_frequency_sq,
    hamiltonian,
    kinetic_energy,
    potential,
)

__version__ = "0.1.0"
