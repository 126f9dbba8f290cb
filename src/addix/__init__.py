"""Exact additive-decomposition toolkit for polynomials over finite fields."""

from .analysis import (InvolutionReport, PPCertificate, TranslatorSpec,
                       ValueSetBounds, agw_check, construct_prescribed_cycles,
                       cycle_structure, inverse_pp, is_involution,
                       is_linear_translator, is_permutation,
                       quotient_pp_criterion, translation_pp, translator_pp,
                       value_set_bounds, value_set_size)
from .charsum import (CharSumReport, MultChar, bound_report, char_sum,
                      char_sum_affine)
from .decompose import (AdditiveDecomposition, PartialDecomposition,
                        additive_index, additive_kernel, decompose_with,
                        maximal_decomposition, multiplicative_index)
from .errors import InvariantViolation, ParseError, PreconditionError
from .field import Elt, Field, parse_field_spec, size_cap
from .linearized import (LinearizedPoly, Subspace, all_subspaces, complement,
                         compose_quotient, coset_reps, expand_in_base,
                         is_linearized, kernel, linearized_interpolate,
                         subfield, subspace_image, vanishing_poly,
                         xq_minus_x_linearized)
from .poly import (Poly, lagrange_interpolate, parse_poly, poly_gcd,
                   poly_to_str, reduce_mod_xq_minus_x, shift_expand)

__version__ = "0.1.0"
