"""Exact local Hodge data of irreducible hypergeometric connections.

Two independent engines compute the complete local numerical package (graded
nearby tables at 0 and infinity, the vanishing table at 1, fibre dimensions,
degrees) from exact rational exponents: closed combinatorial formulas and a
recursive middle-convolution engine.  They are cross-validated against each
other and against the combinatorial identities relating the two index
conventions (:func:`compare_profiles`, :func:`verify_cross_engine`).

The package exports the data model, both engines and the check.  The
reference counts (:mod:`hyphodge.combinatorics`) and the convolution rows
and transforms (:mod:`hyphodge.convolution`) are imported from their modules.
"""

from .closed_form import (
    counts_at_one,
    nearby_closed,
    profile_closed,
    special_exponent,
    vanishing_at_one_closed,
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
    compare_profiles,
    count_identities_hold,
    equal_up_to_shift,
    frac,
    hodge_numbers,
    parse_rational,
    table_shift,
)
from .recursion import choose_peel, profile_recursive, verify_cross_engine

__version__ = "0.1.0"
