"""becircle: a numerical laboratory for the balanced energy of node
configurations on the circle, with an independent elliptic-function oracle."""

__version__ = "0.1.0"

from .errors import (ArcTooShort, BECircleError, DomainError, NonConvergence,
                     NoPositiveSolution, NotCritical, SingularJacobian,
                     SingularSystem, TruncationError)
from .scalar_field import (WellConstants, heteroclinic, potential,
                           potential_d1, potential_d2, well_constants)
from .elliptic_oracle import (LambdaEpsPair, ac_family_mod, lambda_of_eps,
                              modulus_for, zero_spacing_from_kp)
from .bvp_engine import (GridFunction, SpectrumReport, TridiagonalOperator,
                         cumulative_simpson, eig_sturm, linearized_operator,
                         newton_halves, richardson, simpson)
from .profiles import (ProfileConstants, ProfileFunction, ode_residual,
                       profile_constants, profile_kappa_ode, profile_omega,
                       profile_rho, profile_tau_geom, profile_tau_lambda,
                       profile_w, solve_profile)
from .solver_1d import (DirichletSolution, LipschitzScan, NodalSolution,
                        arc_energy, dirichlet_pairs, existence_threshold,
                        intervals_for, lipschitz_scan, nodal_solution,
                        solve_dirichlet)
from .balanced_energy import (BrokenTransition, HessianReport, NodeConfig,
                              ac_spectrum, broken_transition, broken_transitions,
                              dirichlet_gap, dtn_v, fd_first_variation,
                              first_variation, gamma_sweep, hessian, index_table,
                              translation_mode)
from .nonexistence import (CutoffSpec, TwoNodeScan, cutoff_energy,
                           cutoff_gradient_closed, two_node_scan)
from . import experiments_cli

__all__ = [name for name in dir() if not name.startswith("_")]
