"""One escape computation per tail rule, with both oracles cross-checking.

Three total enumerations: the naturals (affine tail), a two-value cycle, and
a constant.  For each, the descent value must equal the supremum-of-
postfixpoints value and the greatest fixpoint found by the plateau walk,
which the subset oracle checks is the weight of its finite prefix subset
plus its tail weight.
"""

from fractions import Fraction as F

from escapepoint import (
    Affine,
    Constant,
    Cycle,
    EnumerationSpec,
    gfp_descend,
    subset_fixpoint_oracle,
    sup_postfix_oracle,
    value_at,
)

specs = [
    ("f(n) = n", EnumerationSpec(prefix=(), tail=Affine(1, 0))),
    ("cycle 0, 1, 0, 1, ...", EnumerationSpec(prefix=(F(0), F(1)), tail=Cycle())),
    ("constant 3", EnumerationSpec(prefix=(), tail=Constant(3))),
    ("descending f(n) = 2 - n/3", EnumerationSpec(prefix=(), tail=Affine(F(-1, 3), 2))),
]

for label, spec in specs:
    x0, trace = gfp_descend(spec)
    print(label)
    print("  first values:", [str(value_at(spec, n)) for n in range(6)], "...")
    print("  descent:", " -> ".join(str(z) for z in trace.iterates))
    print("  escape value:", x0)
    # two independent routes to the same rational
    assert sup_postfix_oracle(spec) == x0
    assert subset_fixpoint_oracle(spec) == x0
    print("  supremum oracle and subset oracle agree")
    print()
