"""The two-value prefix with a constant tail, end to end.

The enumeration is f = 3/2, 1/8, 2, 2, 2, ...  Its weight map sends x to the
total weight 2^-n of indices with f(n) < x; the descent from 2 lands on the
escape value, a rational that f provably never produces.
"""

from fractions import Fraction as F

from escapepoint import (
    Constant,
    EnumerationSpec,
    certificate_to_jsonable,
    compute_escape,
    value_at,
    weight_below,
)

spec = EnumerationSpec(prefix=(F(3, 2), F(1, 8)), tail=Constant(2))

print("the enumeration starts:", [str(value_at(spec, n)) for n in range(6)], "...")
print()

# Feel out the weight map by hand first.  Below 1/8 nothing is eligible;
# past 1/8 index 1 contributes 1/2; past 3/2 index 0 adds 1; past 2 the
# whole tail joins with weight 2^-2 + 2^-3 + ... = 1/2.
for x in (F(0), F(1, 8), F(1, 4), F(1), F(3, 2), F(7, 4), F(2)):
    print(f"  weight_below(spec, {str(x):>4}) = {weight_below(spec, x)}")
print()

cert = compute_escape(spec)
print("descent from the top:", " -> ".join(str(z) for z in cert.trace.iterates))
print("escape value x0 =", cert.x0)
print("map check: weight_below(spec, x0) =", weight_below(spec, cert.x0))
print()

print("why x0 is never enumerated:")
for verdict in certificate_to_jsonable(cert)["verdicts"]:
    where = "every tail index" if verdict["where"] == "tail" else f"index {verdict['where']}"
    print(f"  {where}: value {verdict['value']} is {verdict['relation']} x0 by {verdict['gap']}")
