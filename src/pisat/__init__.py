"""Saturated first-order networks under decentralized PI control:
equilibrium solving, optimality and stability certificates, simulation,
and a district heating benchmark.
"""

from .equilibrium import (ContractionMap, EquilibriumResult,
                          build_contraction, measure_contraction,
                          probe_uniqueness, solve_equilibrium)
from .errors import (CertificateFailure, ConditionViolated, ConfigError,
                     DimensionMismatch, InvalidSectorPair,
                     MaxIterationsExceeded, NonFiniteState, NotMMatrix,
                     NotSymmetric, ParseError, PisatError, SolverFailure,
                     UnsupportedVariant)
from .heating import (HeatingScenario, TemperatureSeries, benchmark_scenario,
                      default_cost_weights, load_scenario,
                      scenario_from_json, synthetic_cold_snap,
                      to_standard_form)
from .matrixlab import (column_dominance_scaling, diagonal_lyapunov_scaling,
                        is_spd, is_strictly_column_dominant, is_z_pattern)
from .model import (VARIANT_COORDINATING, VARIANT_DECENTRALIZED,
                    VARIANT_STATIC, ControllerSpec, DisturbanceSignal,
                    PlantModel, TuningReport, check_tuning,
                    default_static_gain)
from .optimality import (AllocationSolution, OptimalityCertificate,
                         admissible_gamma, certify_equilibrium_optimality,
                         check_gamma_condition, solve_weighted_l1_lp)
from .sector import (PwlFunction, SectorPair, custom_pwl, eval_f,
                     identity_zero, integral_from_zero, saturation_deadzone,
                     scale_pair, shift_pair)
from .simulate import (CostReport, LyapunovParameters, LyapunovTrace,
                       Trajectory, evaluate_costs, integrate,
                       lyapunov_parameters, lyapunov_trace,
                       read_trajectory_csv, write_trajectory_csv)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
