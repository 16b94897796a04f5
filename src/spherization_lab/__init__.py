"""Numerical laboratory for entropy of Hamiltonian flows over model manifolds."""

from .config import ExperimentConfig, load_config
from .dynamics import (HamiltonianField, IntegratorConfig, Trajectory,
                       action_homogeneous, action_of_trajectory,
                       classify_chord_action, core_field, geodesic_field,
                       integrate, integrate_batch, verify_scaling_law)
from .entropy import (ChordCensus, ChordRecord, GrowthFit, MeshedSubmanifold,
                      chord_census, fit_exponential_rate, mpp_estimate,
                      volume_growth)
from .errors import (BudgetExceededError, CalibrationError, ConfigError,
                     IntegrationDivergedError, InvariantFailureError,
                     SpherizationError, StiffnessError)
from .geometry import CotangentPoint, ModelManifold
from .growth import ball_counts, multiply
from .sol import (entropy_closed_form, inverse_momentum_map, lyapunov_estimate,
                  momentum_map, sol_field, sol_hamiltonian)
from .starshape import Cutoff, RadialProfile, SandwichedHamiltonians, calibrate

__version__ = "0.1.0"
