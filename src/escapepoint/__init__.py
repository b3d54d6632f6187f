"""Exact escape values for finitely described enumerations of rationals.

Given a total enumeration f : N -> Q described by a finite prefix and a tail
rule, the weight map g(x) = sum of 2^-n over every n with f(n) < x is a
monotone self-map of [0, 2].  Its greatest postfixpoint -- the escape value
-- is never in the range of f, and this package computes it exactly,
certifies the gap to every enumerated value, and brackets it with sound
intervals when the enumeration is only available through imprecise queries.

Each module's ``__all__`` lists its public names, each name in exactly one
module, and the package re-exports exactly those lists.  ``escapepoint.cli``
and ``escapepoint.selftest`` (the invariant battery and the finite-lattice
fuzzer) are not re-exported, so importing the package loads neither.
"""

from . import enumeration, escape, fixpoint, numerics, weight_map
from .enumeration import *
from .escape import *
from .fixpoint import *
from .numerics import *
from .weight_map import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *numerics.__all__,
    *enumeration.__all__,
    *weight_map.__all__,
    *fixpoint.__all__,
    *escape.__all__,
]
