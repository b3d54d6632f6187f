import random
import resource
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import build_corpus, random_spec
from escapepoint import fixpoint
from escapepoint import (
    SUBSET_MAX_PREFIX,
    Affine,
    BudgetExceededError,
    Constant,
    Cycle,
    EnumerationSpec,
    ExponentBoundError,
    FixpointTrace,
    OracleScopeError,
    descend_from_top,
    gfp_descend,
    subset_fixpoint_oracle,
    sup_postfix_oracle,
    value_at,
    weight_below,
)
from escapepoint.enumeration import affine_cut
from escapepoint.selftest import (
    FiniteLattice,
    LatticeError,
    MonotoneTable,
    brute_extreme_fixpoints,
    kt_finite,
    random_lattice,
    random_monotone_table,
    run_kt_battery,
)
from test_golden import affine_grid

spec_indices = st.integers(min_value=0, max_value=2999)

SPEC2 = EnumerationSpec(prefix=(F(3, 2), F(1, 8)), tail=Constant(2))


def corpus_spec(index: int) -> EnumerationSpec:
    return random_spec(random.Random(index), index)


def plateau_values(spec: EnumerationSpec) -> set[F]:
    """The map's values on [0, 2]: at 0, at each enumerated value in [0, 2], and at 2."""
    last = len(spec.prefix)
    if isinstance(spec.tail, Affine):
        # past the larger cut every tail value lies outside [0, 2]
        last = max(last, affine_cut(spec, F(0)), affine_cut(spec, F(2)))
    breaks = {v for v in (value_at(spec, n) for n in range(last + 1)) if 0 <= v <= 2}
    return {weight_below(spec, x) for x in breaks | {F(0), F(2)}}


class TestFixpointTrace:
    def test_accepts_settled_descent(self):
        trace = FixpointTrace((F(2), F(3, 2), F(3, 2)))
        assert trace.steps == 2
        assert trace.terminated

    @pytest.mark.parametrize("iterates", [(F(2),), (F(2), F(1))])
    def test_terminated_and_steps_follow_from_the_iterates(self, iterates):
        trace = FixpointTrace(iterates)
        assert not trace.terminated
        assert trace.steps == len(iterates) - 1

    def test_must_start_at_top(self):
        with pytest.raises(ValueError):
            FixpointTrace((F(1), F(1)))

    def test_must_decrease_strictly(self):
        with pytest.raises(ValueError):
            FixpointTrace((F(2), F(3, 2), F(3, 2), F(3, 2)))
        with pytest.raises(ValueError):
            FixpointTrace((F(2), F(3, 2), F(7, 4)))


class TestDescend:
    def test_budget_exhaustion_keeps_partial_trace(self):
        with pytest.raises(BudgetExceededError) as err:
            descend_from_top(lambda z: weight_below(SPEC2, z), 1)
        assert err.value.trace.iterates == (F(2), F(3, 2))
        assert not err.value.trace.terminated

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="step bound"):
            descend_from_top(lambda z: weight_below(SPEC2, z), 0)

    @pytest.mark.parametrize("budget", [True, False])
    def test_budget_must_not_be_a_bool(self, budget):
        with pytest.raises(ValueError, match="step bound"):
            descend_from_top(lambda z: z, budget)

    def test_non_monotone_step_detected(self):
        with pytest.raises(RuntimeError):
            descend_from_top(lambda z: z + 1, 10)

    def test_worked_examples(self):
        cases = [
            (EnumerationSpec((), Affine(1, 0)), F(3, 2), (F(2), F(3, 2), F(3, 2))),
            (SPEC2, F(1, 2), (F(2), F(3, 2), F(1, 2), F(1, 2))),
            (EnumerationSpec((), Constant(3)), F(0), (F(2), F(0), F(0))),
            (EnumerationSpec((F(0), F(1)), Cycle()), F(2), (F(2), F(2))),
        ]
        for spec, expected, iterates in cases:
            x0, trace = gfp_descend(spec)
            assert x0 == expected
            assert trace.iterates == iterates
            assert trace.terminated

    @given(spec_indices)
    @settings(deadline=None)
    def test_settles_on_a_fixpoint_in_range(self, index):
        spec = corpus_spec(index)
        x0, trace = gfp_descend(spec)
        assert weight_below(spec, x0) == x0
        assert 0 <= x0 <= 2
        assert all(z >= x0 for z in trace.iterates)


def staircase(length: int) -> EnumerationSpec:
    """Prefix 2 - 2^-k for k < length, above which the tail stays: g steps down one value at a time."""
    return EnumerationSpec(tuple(2 - F(1, 2**k) for k in range(length)), Constant(3))


class TestStepBound:
    def test_holds_on_the_corpus_and_the_affine_grid(self):
        for spec in chain(build_corpus(300), affine_grid()):
            # a descent that does not stop at the bound shows how far it would go
            _, trace = descend_from_top(lambda z: weight_below(spec, z), 10**6)
            assert trace.steps <= fixpoint._step_bound(spec), spec

    @pytest.mark.parametrize("length", range(1, 9))
    def test_staircase_reaches_it(self, length):
        spec = staircase(length)
        assert gfp_descend(spec)[1].steps == length + 2 == fixpoint._step_bound(spec)


@contextmanager
def memory_cap(spare: int = 1 << 30):
    """Cap this process's address space ``spare`` bytes above its current size.

    A plateau build past the exponent bound then fails with MemoryError
    instead of taking the machine's memory.  No cap where /proc is missing.
    """
    limits = resource.getrlimit(resource.RLIMIT_AS)
    try:
        with open("/proc/self/statm") as statm:
            size = int(statm.read().split()[0]) * resource.getpagesize()
    except OSError:
        yield
        return
    cap = size + spare if limits[1] == resource.RLIM_INFINITY else min(size + spare, limits[1])
    resource.setrlimit(resource.RLIMIT_AS, (cap, limits[1]))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, limits)


class TestOracles:
    def test_worked_example_candidates(self):
        assert sup_postfix_oracle(SPEC2) == F(1, 2)
        assert subset_fixpoint_oracle(SPEC2) == F(1, 2)

    @given(spec_indices)
    @settings(deadline=None)
    def test_three_routes_agree(self, index):
        spec = corpus_spec(index)
        x0, _ = gfp_descend(spec)
        assert sup_postfix_oracle(spec) == x0
        assert subset_fixpoint_oracle(spec) == x0

    def test_subset_oracle_scope_guards(self):
        longest = EnumerationSpec(tuple(F(n, 12) for n in range(12)), Constant(3))
        assert SUBSET_MAX_PREFIX == 12
        assert subset_fixpoint_oracle(longest) == gfp_descend(longest)[0]
        long_prefix = EnumerationSpec(tuple(F(n, 13) for n in range(13)), Constant(3))
        with pytest.raises(OracleScopeError, match="prefix length 13 exceeds .*SUBSET_MAX_PREFIX=12"):
            subset_fixpoint_oracle(long_prefix)
        flat = EnumerationSpec((), Affine(F(1, 10**5), 0))
        with pytest.raises(ExponentBoundError):
            subset_fixpoint_oracle(flat)

    @pytest.mark.parametrize("oracle", [sup_postfix_oracle, subset_fixpoint_oracle])
    # cuts at 2 * 10^6, and at 10^8 and 10^8 + 2 (three tail states), past MAX_TAIL_CUT
    @pytest.mark.parametrize("tail", [Affine(F(1, 10**6), 0), Affine(1, -10**8)])
    def test_oversized_affine_tails_are_refused_before_any_plateau(self, oracle, tail):
        with memory_cap(), pytest.raises(ExponentBoundError, match="past the bound"):
            oracle(EnumerationSpec((), tail))

    @pytest.mark.parametrize("slope", [F(1, 256), F(-1, 256)])
    @pytest.mark.parametrize("intercept", [0, 1, 2])
    def test_subset_oracle_on_flat_affine_tails(self, slope, intercept):
        # 513 plateaus, of which only a handful hold their own value
        spec = EnumerationSpec((), Affine(slope, intercept))
        assert subset_fixpoint_oracle(spec) == gfp_descend(spec)[0]


class TestSupremumSweep:
    @pytest.mark.parametrize("seed", range(4))
    def test_stops_at_the_first_postfixpoint(self, seed, monkeypatch):
        rng = random.Random(seed)
        spec = EnumerationSpec(
            tuple(F(rng.randint(-8, 24), rng.randint(1, 12)) for _ in range(64)), Cycle()
        )
        x0, _ = gfp_descend(spec)
        above = sum(1 for value in plateau_values(spec) if value > x0)
        calls = []
        real = fixpoint._weight_pair
        monkeypatch.setattr(fixpoint, "_weight_pair", lambda s, p, q: calls.append((p, q)) or real(s, p, q))
        assert sup_postfix_oracle(spec) == x0
        # the map at 2, then one test per candidate down to x0
        assert len(calls) <= above + 2

    @pytest.mark.parametrize("slope", [F(1, 256), F(-1, 256)])
    @pytest.mark.parametrize("intercept", [0, 1, 2, F(1, 7)])
    @pytest.mark.parametrize("prefix", [(), (F(1, 2), F(2), F(0))])
    def test_tests_every_plateau_above_x0_on_flat_affine_tails(
        self, slope, intercept, prefix, monkeypatch
    ):
        # up to 513 plateaus; 1/2, 0 and 2 land on the line for most intercepts
        spec = EnumerationSpec(prefix, Affine(slope, intercept))
        x0, _ = gfp_descend(spec)
        above = sum(1 for value in plateau_values(spec) if value > x0)
        calls = []
        real = fixpoint._weight_pair
        monkeypatch.setattr(fixpoint, "_weight_pair", lambda s, p, q: calls.append((p, q)) or real(s, p, q))
        assert sup_postfix_oracle(spec) == x0
        # the map at 2, then one test per plateau value from the top down to
        # x0: no fewer, so that no candidate goes untested
        assert len(calls) == above + 2

    def test_map_below_every_candidate_is_an_error(self, monkeypatch):
        # the map at x = p/q sends it to x - 1, as the pair (p - q, q)
        monkeypatch.setattr(fixpoint, "_weight_pair", lambda spec, p, q: (p - q, q))
        with pytest.raises(RuntimeError, match="no candidate is a postfixpoint"):
            sup_postfix_oracle(SPEC2)


def divisor_lattice(n):
    return FiniteLattice([d for d in range(1, n + 1) if n % d == 0],
                         lambda a, b: b % a == 0)


class TestFiniteLattice:
    def test_divisors_of_twelve(self):
        lat = divisor_lattice(12)
        assert len(lat) == 6
        assert lat.bottom == 1 and lat.top == 12
        assert lat.join(4, 6) == 12 and lat.meet(4, 6) == 2
        assert lat.leq(2, 6) and not lat.leq(4, 6)

    def test_powerset_join_is_union(self):
        lat = FiniteLattice(range(16), lambda a, b: a & ~b == 0)
        for a in range(16):
            for b in range(16):
                assert lat.join(a, b) == a | b
                assert lat.meet(a, b) == a & b

    def test_foreign_element_rejected(self):
        lat = divisor_lattice(12)
        with pytest.raises(LatticeError):
            lat.leq(5, 12)

    def test_not_reflexive(self):
        with pytest.raises(LatticeError, match="reflexive"):
            FiniteLattice([0, 1], lambda a, b: a < b)

    def test_not_antisymmetric(self):
        with pytest.raises(LatticeError, match="antisymmetric"):
            FiniteLattice([0, 1], lambda a, b: True)

    def test_not_transitive(self):
        pairs = {(0, 1), (1, 2)}
        with pytest.raises(LatticeError, match="transitive"):
            FiniteLattice([0, 1, 2], lambda a, b: a == b or (a, b) in pairs)

    def test_two_maximal_elements(self):
        pairs = {(0, 1), (0, 2)}
        with pytest.raises(LatticeError, match="greatest"):
            FiniteLattice([0, 1, 2], lambda a, b: a == b or (a, b) in pairs)

    def test_hexagon_has_no_joins(self):
        # bottom 5, antichain pairs {0,1} and {2,3}, top 4: 0 and 1 have two
        # minimal upper bounds, so this poset is not a lattice
        pairs = {(5, n) for n in range(5)} | {(n, 4) for n in range(4)} | {
            (0, 2), (0, 3), (1, 2), (1, 3)}
        with pytest.raises(LatticeError, match="least upper bound"):
            FiniteLattice(range(6), lambda a, b: a == b or (a, b) in pairs)

    def test_singleton(self):
        lat = FiniteLattice(["x"], lambda a, b: True)
        assert lat.top == lat.bottom == "x"
        assert lat.join("x", "x") == "x"

    def test_empty_rejected(self):
        with pytest.raises(LatticeError):
            FiniteLattice([], lambda a, b: True)

    def test_duplicates_rejected(self):
        with pytest.raises(LatticeError, match="duplicate"):
            FiniteLattice([1, 1], lambda a, b: True)


class TestMonotoneTable:
    def test_validates_domain(self):
        lat = divisor_lattice(6)
        with pytest.raises(LatticeError, match="domain"):
            MonotoneTable(lat, {1: 1})
        with pytest.raises(LatticeError, match="outside"):
            MonotoneTable(lat, {d: 5 for d in (1, 2, 3, 6)})

    def test_rejects_non_monotone(self):
        lat = FiniteLattice([0, 1], lambda a, b: a <= b)
        with pytest.raises(LatticeError, match="monotone"):
            MonotoneTable(lat, {0: 1, 1: 0})


class TestKnasterTarski:
    def test_three_chain(self):
        lat = FiniteLattice([0, 1, 2], lambda a, b: a <= b)
        table = MonotoneTable(lat, {0: 1, 1: 1, 2: 2})
        assert kt_finite(lat, table) == (1, 2)
        assert brute_extreme_fixpoints(lat, table) == (1, 2)

    def test_identity_has_extreme_fixpoints_at_bounds(self):
        lat = divisor_lattice(30)
        table = MonotoneTable(lat, {d: d for d in lat.elements})
        assert kt_finite(lat, table) == (1, 30)

    def test_matches_brute_force_on_random_lattices(self):
        rng = random.Random(11)
        for _ in range(30):
            lat = random_lattice(rng)
            table = random_monotone_table(lat, rng)
            assert kt_finite(lat, table) == brute_extreme_fixpoints(lat, table)

    def test_battery_is_clean(self):
        assert run_kt_battery(count=40, seed=3) == []

    @pytest.mark.parametrize("count", [True, False, 0, -3, 2.0, "5"])
    def test_battery_refuses_a_count_that_is_not_a_positive_int(self, count):
        with pytest.raises(ValueError, match="lattice count must be a positive integer"):
            run_kt_battery(count=count)
