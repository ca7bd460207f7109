"""Curvature flow of planar triple-junction networks.

Three curves meet at a junction inside an implicit domain, move with normal
velocity proportional to curvature, and hit the outer wall at right angles.
The package constructs the stationary forks, decides their linear stability
both by a closed-form criterion and a discretized eigenproblem, integrates
the nonlinear flow in a graph formulation over the stationary fork, and
measures the energy-dissipation and junction identities along trajectories.
"""

from .tensions import (
    SurfaceTensions,
    JunctionAngles,
    young_angles,
    junction_matrix,
    force_balance_residual,
    tangent_frames,
)
from .domains import (
    CircleDomain,
    EllipseDomain,
    PolynomialDomain,
    make_domain,
    boundary_curvature,
    boundary_hit,
    poly_product,
    poly_scale,
    disk_terms,
)
from .parameterization import (
    StationaryNetwork,
    GraphState,
    mu_boundary,
    curve_from_graph,
    coefficients,
    state_from_rho,
    network_residuals,
)
from .steady import SteadyGuess, steady_residual, find_stationary, h2_ratio_series
from .stability import (
    SpectrumResult,
    StabilityVerdict,
    assemble_forms,
    max_eigenvalue,
    rayleigh_quotient,
    stability_criterion,
)
from .evolution import EvolveConfig, Trajectory, Stepper, run, initial_state, junction_kinematics
from .diagnostics import (
    BranchSample,
    DiagnosticsRecord,
    resample,
    energy_law_residual,
    decay_fit,
    record_from_state,
    records_from_states,
)
from .config import RunConfig, parse_config
from .storage import (
    TrajectoryRow,
    write_trajectory,
    read_trajectory,
    write_network,
    read_network,
)
from . import errors

__version__ = "0.1.0"
