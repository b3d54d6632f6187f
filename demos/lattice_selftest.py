"""The fixpoint engine on lattices that have nothing to do with rationals.

The same iterate-until-settled scheme that finds escape values computes
least and greatest fixpoints of any monotone map on any finite lattice.
This script runs it on the divisor lattice of 60, checks it against brute
force, then fuzzes a few hundred random lattices.
"""

import random

from escapepoint.selftest import (
    FiniteLattice,
    MonotoneTable,
    brute_extreme_fixpoints,
    kt_finite,
    random_lattice,
    random_monotone_table,
    run_kt_battery,
)

divisors = [d for d in range(1, 61) if 60 % d == 0]
lattice = FiniteLattice(divisors, lambda a, b: b % a == 0)
print("divisor lattice of 60:", len(lattice), "elements,",
      f"bottom {lattice.bottom}, top {lattice.top}")
print("join(4, 6) = lcm =", lattice.join(4, 6), " meet(4, 6) = gcd =", lattice.meet(4, 6))

# f(d) = gcd(d, 12): monotone, fixes exactly the divisors of 12
table = MonotoneTable(lattice, {d: lattice.meet(d, 12) for d in divisors})
print("f(d) = gcd(d, 12):  iteration", kt_finite(lattice, table),
      " brute force", brute_extreme_fixpoints(lattice, table))
print()

rng = random.Random(7)
for trial in range(3):
    lat = random_lattice(rng)
    tbl = random_monotone_table(lat, rng)
    assert kt_finite(lat, tbl) == brute_extreme_fixpoints(lat, tbl)
    print(f"random lattice with {len(lat)} elements: iteration matches brute force")
print()

count = 300
failures = run_kt_battery(count=count, seed=1)
print(f"battery: {count} random lattices, {len(failures)} disagreements")
assert not failures
