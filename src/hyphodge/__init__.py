"""Exact local Hodge data of irreducible hypergeometric connections.

Two independent engines compute the complete local numerical package (graded
nearby tables at 0 and infinity, the vanishing table at 1, fibre dimensions,
degrees) from exact rational exponents: closed combinatorial formulas and a
recursive middle-convolution engine.  They are cross-validated against each other and
against the combinatorial identities relating the two index conventions.
"""

from .closed_form import (
    counts_at_one,
    nearby_closed,
    profile_closed,
    special_exponent,
    vanishing_at_one_closed,
)
from .combinatorics import (
    ascending_pair_count,
    check_count_identity,
    contribution_pair,
    count_identities_hold,
    dualize_table,
    interlacing_index,
    nonseparated_count,
    separated,
)
from .convolution import (
    ConvolutionContext,
    convolve_degrees,
    convolve_hodge_numbers,
    convolve_nearby_infinity,
    convolve_nearby_zero,
    convolve_vanishing_finite,
    infinity_row,
    twist_degrees,
    zero_row,
)
from .core import (
    AT_ONE,
    INFINITY,
    ZERO,
    EngineReport,
    HodgeProfile,
    HypergeometricParams,
    InternalEngineError,
    LocalHodgeTable,
    NoValidPeel,
    ReducibleInput,
    SingularPoint,
    TableKind,
    UnknownData,
    class_totals,
    conjugate_table,
    equal_up_to_shift,
    frac,
    hodge_numbers,
    parse_rational,
    table_shift,
)
from .recursion import (
    choose_peel,
    compare_profiles,
    profile_recursive,
    verify_cross_engine,
)

__version__ = "0.1.0"
