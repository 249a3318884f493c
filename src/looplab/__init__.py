"""looplab: a numerical laboratory for measures on loop groups.

Laurent-loop arithmetic, Riemann-Hilbert factorization, root subgroup
coordinates on SU(2) loops, exact product-measure samplers, affine alcove
walks for general compact groups, spectral transforms, and Brownian-loop
invariance experiments.
"""

from .errors import (ConvergenceFailure, DomainError, ExperimentDegenerate,
                     InvalidInput, InvalidLevel, LooplabError,
                     NonReducedSequence, NotInTopStratum)
from .loops import (LaurentLoop, evaluate, fourier_project, identity_loop,
                    loop_from_json, loop_to_json, mobius_reparam, multiply,
                    star, unitarity_defect)
from .factorization import (ToeplitzBlock, TriangularFactors, a0_from_dets,
                            birkhoff_factor, ldu_2x2, log_det_AstarA,
                            toeplitz, triangular_factor)
from .rootsub import (RootCoordsSU2, coords_max_error, log_product_formula,
                      product_formula, recover_coords, recover_eta0,
                      synthesize)
from .measures import (GeneralCoords, MeasureSpec, hellinger_vs_gaussian,
                       log_density, sample_coords, sample_radial_sq)
from .affine import (AffineRoot, ExponentTable, ReducedSequence, RootSystem,
                     affine_weyl_apply, build_periodic_sequence,
                     build_root_system, default_period, exponent_table,
                     simple_affine_root, tau_sequence)
from .transforms import (TransformResult, finite_hc_check,
                         general_sine_formula, hc_gamma_transform,
                         marginal_factor, mc_diagonal_transform,
                         partial_product, sine_formula_su2)
from .wiener import (Eta0Report, InvarianceReport, WienerConfig,
                     eta0_pushforward_experiment, invariance_experiment,
                     reparam_invariance_experiment)

__version__ = "0.1.0"
