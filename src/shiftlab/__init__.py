"""Finite-truncation laboratory for commuting weighted shifts.

Builds truncated coordinate multipliers for weighted Hilbert modules,
submodules from monomial/polynomial generators, and Schatten-class analysis
of their commutators, plus canned experiments with reproducible CSV reports.
"""

from .graded_basis import GradedBasis, enumerate_basis
from .polynomials import (PolynomialGenerator, PolynomialSyntaxError,
                          monomial_generator, parse_generators, parse_polynomial)
from .schatten import (ApWitness, DecayFit, Verdict, ap_witness,
                       convergence_diagnostic, decay_exponent_fit,
                       schatten_norm, singular_values)
from .shift_operators import (BlockDecomposition, InvarianceError,
                              SubspaceFrame, TruncatedOperator, adjoint,
                              commutator, compress_to_frame,
                              coordinate_shift, cross_commutators,
                              invariance_residual, restricted_commutator_decomposition,
                              multiply, restrict_to_invariant,
                              self_commutator, shift_combination)
from .submodules import (RankCollapseError, Side, SubmoduleBasis,
                         homogeneous_submodule, monomial_submodule,
                         projection_matrix, ungraded_submodule)
from .weight_models import (WeightSet, bergman_ball_weights,
                            drury_arveson_weights, ramp_weights,
                            factorial_delta_weights, family_weights,
                            hardy_ball_weights)

__version__ = "0.1.0"
