"""Low-memory first-order methods for non-smooth convex optimization.

Mirror descent geometries, the classic subgradient family, switching
methods for functional constraints, smoothing plus accelerated and
universal gradient methods, Mirror Prox for variational inequalities, an
incremental sparse max structure, and a deterministic benchmark runner.
"""

from .geometry import (FEASIBILITY_TOL, NORMALIZATION_TOL, OPTIMALITY_TOL,
                       DimensionMismatchError, FeasibleSet, GeometryDomainError,
                       ProductSetup, ProxSetup, doubled_to_signed,
                       entropy_l1_ball_setup, entropy_setup, euclidean_setup,
                       signed_to_doubled)
from .oracles import (AbsLinearOracle, ConstraintBundle, FunctionOracle,
                      InexactOracle, LinearMaxBundle, LinearOracle,
                      OracleResponse, ProblemInstance, SaddleOperator,
                      aggregate_max)
from .problems import (gen_matrix_game, gen_transport_dual, gen_ttd_dual,
                       make_ttd_instance, matrix_game_equilibrium,
                       reconstruct_ttd_primal, transport_dual_lp_optimum,
                       ttd_multipliers_from_dual)
from .report import Report, RunTrace, TraceRow, TRACE_COLUMNS
from .subgradient import (run_adaptive_md, run_fixed_md, run_normalized_md,
                          run_shor, run_strongly_convex_md)
from .constrained import (Certificates, InfeasibleAtEpsError, certify,
                          directional_merit, solve_constrained_general,
                          solve_constrained_nonsmooth)
from .smoothing import (SmoothedMaxResidual, agm_solve, alpha_root,
                        choose_mu, universal_agm, universal_call_bound,
                        universal_conv_bound)
from .mirrorprox import (mirror_prox_solve, saddle_gap,
                         universal_mirror_prox_solve, vi_residual)
from .maxstruct import MaxStructure, SparseVector
from .bench import fit_rate, run_experiment

__all__ = [name for name in dir() if not name.startswith("_")]
