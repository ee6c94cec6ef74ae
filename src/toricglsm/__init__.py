"""Toric Cox presentations, genus-0 section collections, and GLSM vacua."""

from .catalog import by_name, hirzebruch, p1_x_p1, projective_space
# note: the collapse *function* stays namespaced (toricglsm.collapse.collapse)
# so the submodule attribute is not shadowed
from .collapse import Attachment, CollapseResult, GenusZeroStableMapData
from .cox import CoxPresentation, cox_presentation, outside_irrelevant_locus, primitive_collections
from .delta import (
    IsomorphismVerdict,
    WeakDeltaCollection,
    admissible,
    base_divisor,
    is_nondegenerate,
    is_nonvanishing,
    isomorphic,
    pullback,
)
from .fan import Fan, Wall, is_complete, is_smooth, prime_divisors_nef, validate_fan, walls
from .forms import BinaryForm, Mobius, evaluate, format_form, gcd, linear_form_at, mul, parse_form, substitute
from .glsm import GLSMProblem, SolveReport, kempf_ness_solve, semistable, unstable_supports
from .lattice import IntMatrix, SmithDecomposition, adjugate, smith_normal_form
from .moduli import ModuliSummary, in_excluded_locus, sample, summarize

__version__ = "0.1.0"
