"""Dissipative strain-gradient plasticity of a sheared strip, in 1D.

A laboratory for the renormalized scalar model: incremental energetic
evolution of the plastic shear, the size-dependent yield threshold by
closed form, constrained minimization and simulation, the yield-onset
profile, and the power-law rate-dependent regularization with its
rate-independent limit.
"""

from .model import (
    Field,
    Mesh,
    NondimParams,
    PhysicalParams,
    SolverError,
    local_energy_balance_residual,
    local_flow_response,
    make_mesh,
    nondimensionalize,
)
from .functionals import (
    RelaxedField,
    dissipation,
    mass,
    plastic_energy,
    relaxed_dissipation,
    total_energy,
)
from .incremental import (
    DEFAULT_OPTIONS,
    DetectedYield,
    LoadProgram,
    Trajectory,
    TrajectoryStep,
    detect_yield,
    energy_balance_residual,
    evolve,
    increment_solve,
    stability_residual,
)
from .yield_stress import (
    ProfileResult,
    YieldResult,
    asymptotic_theta,
    lambda_of_theta,
    minimizer_profile,
    theta_of_lambda,
    yield_integral,
    yield_variational,
)
from .viscoplastic import (
    Hardening,
    LimitStudyReport,
    ViscoParams,
    ViscoState,
    rate_independent_limit_study,
    recover_displacement,
    simulate_visco,
    visco_step,
)

__version__ = "0.1.0"

__all__ = [
    "Field",
    "Mesh",
    "NondimParams",
    "PhysicalParams",
    "SolverError",
    "local_energy_balance_residual",
    "local_flow_response",
    "make_mesh",
    "nondimensionalize",
    "RelaxedField",
    "dissipation",
    "mass",
    "plastic_energy",
    "relaxed_dissipation",
    "total_energy",
    "DEFAULT_OPTIONS",
    "DetectedYield",
    "LoadProgram",
    "Trajectory",
    "TrajectoryStep",
    "detect_yield",
    "energy_balance_residual",
    "evolve",
    "increment_solve",
    "stability_residual",
    "ProfileResult",
    "YieldResult",
    "asymptotic_theta",
    "lambda_of_theta",
    "minimizer_profile",
    "theta_of_lambda",
    "yield_integral",
    "yield_variational",
    "Hardening",
    "LimitStudyReport",
    "ViscoParams",
    "ViscoState",
    "rate_independent_limit_study",
    "recover_displacement",
    "simulate_visco",
    "visco_step",
    "__version__",
]
