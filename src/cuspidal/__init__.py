"""Exact invariants of plane-curve cusp collections.

Numerical semigroups and multiplicity sequences of cusp types, their
Alexander polynomials and counting functions, the min-plus convolution H and
the summed-convolution sequence F, existence criteria for rational cuspidal
curve candidates, and a brute-force cubical lattice-cohomology oracle that
verifies the closed-form Euler-characteristic formulas.
"""

from .criteria import (
    ALL_CRITERIA,
    CatalogEntry,
    CriterionReport,
    CriterionRow,
    Regroupings,
    catalog,
    catalog_entries,
    check_bezout,
    check_bl,
    check_conj_index,
    check_conj_original,
    expected_eu_difference,
    multiplicity_multiset,
    regroupings,
)
from .cubical import (
    BettiTable,
    EuOracle,
    RectangleTooLarge,
    WeightedRectangle,
    betti_table,
    build_rectangle,
    check_vanishing,
    min_w_over_diagonal,
    oracle_eu,
)
from .invariants import (
    CapExceeded,
    CuspCollection,
    EuReport,
    IntPoly,
    NotCandidateError,
    alexander,
    candidate_degree,
    eu_canonical,
    f_sequence,
    geometric_genus,
    h_function,
    q_coefficients,
    r_poly,
    r_poly_series,
    spinc_report,
)
from .semigroup import (
    SMOOTH,
    InadmissibleSequenceError,
    MultSeq,
    NewtonPairs,
    NotPlaneBranchError,
    Semigroup,
    SemigroupError,
    apery_set,
    blowup,
    counting_fn,
    is_admissible,
    multseq_from_semigroup,
    parse_cusp,
    resolve_semigroup,
    semigroup_from_generators,
    semigroup_from_multseq,
    semigroup_from_newton_pairs,
    unblowup,
)
from .seqcalc import CountingFn, IntSeq, convolve, diff, min_convolve, min_convolve_all, partial_sums

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
