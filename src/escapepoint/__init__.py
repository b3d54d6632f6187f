"""Exact escape values for finitely described enumerations of rationals.

Given a total enumeration f : N -> Q described by a finite prefix and a tail
rule, the weight map g(x) = sum of 2^-n over every n with f(n) < x is a
monotone self-map of [0, 2].  Its greatest postfixpoint -- the escape value
-- is never in the range of f, and this package computes it exactly,
certifies the gap to every enumerated value, and brackets it with sound
intervals when the enumeration is only available through imprecise queries.
"""

from .enumeration import (
    Affine,
    Constant,
    Cycle,
    EnumerationSpec,
    IntervalEnumeration,
    SpecError,
    TailRule,
    eligible_prefix_indices,
    intervalize,
    spec_from_jsonable,
    spec_to_jsonable,
    tail_from_jsonable,
    tail_hits,
    tail_to_jsonable,
    tail_weight_sum,
    value_at,
)
from .escape import (
    MAX_TAIL_CUT,
    DemoNotApplicableError,
    ExponentBoundError,
    EscapeCertificate,
    TheoremViolationError,
    Verdict,
    adjoin_escape_demo,
    certificate_from_jsonable,
    certificate_to_jsonable,
    compute_escape,
    enclose_escape,
    enclose_escape_traced,
)
from .fixpoint import (
    DEFAULT_ITERATION_BUDGET,
    BudgetExceededError,
    FiniteLattice,
    FixpointTrace,
    LatticeError,
    MonotoneTable,
    OracleScopeError,
    brute_extreme_fixpoints,
    descend_from_top,
    gfp_descend,
    kt_finite,
    random_lattice,
    random_monotone_table,
    run_kt_battery,
    subset_fixpoint_oracle,
    sup_postfix_oracle,
)
from .numerics import (
    RatInterval,
    Tribool,
    as_fraction,
    dyadic_tail_weight,
    dyadic_weight,
    format_rational,
    interval_strictly_below,
    parse_rational,
    weight_sum,
)
from .weight_map import (
    MAX_N_KNOWN,
    weight_below,
    weight_below_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # numerics
    "RatInterval",
    "Tribool",
    "as_fraction",
    "parse_rational",
    "format_rational",
    "dyadic_weight",
    "dyadic_tail_weight",
    "weight_sum",
    "interval_strictly_below",
    # enumeration descriptions
    "SpecError",
    "Constant",
    "Cycle",
    "Affine",
    "TailRule",
    "EnumerationSpec",
    "IntervalEnumeration",
    "value_at",
    "eligible_prefix_indices",
    "tail_weight_sum",
    "tail_hits",
    "intervalize",
    "tail_to_jsonable",
    "tail_from_jsonable",
    "spec_to_jsonable",
    "spec_from_jsonable",
    # the weight map
    "weight_below",
    "weight_below_bounds",
    "MAX_N_KNOWN",
    # fixpoint engine
    "DEFAULT_ITERATION_BUDGET",
    "BudgetExceededError",
    "OracleScopeError",
    "LatticeError",
    "FixpointTrace",
    "descend_from_top",
    "gfp_descend",
    "sup_postfix_oracle",
    "subset_fixpoint_oracle",
    "FiniteLattice",
    "MonotoneTable",
    "kt_finite",
    "brute_extreme_fixpoints",
    "random_lattice",
    "random_monotone_table",
    "run_kt_battery",
    # escape certificates
    "MAX_TAIL_CUT",
    "ExponentBoundError",
    "TheoremViolationError",
    "DemoNotApplicableError",
    "Verdict",
    "EscapeCertificate",
    "compute_escape",
    "adjoin_escape_demo",
    "enclose_escape",
    "enclose_escape_traced",
    "certificate_to_jsonable",
    "certificate_from_jsonable",
]
