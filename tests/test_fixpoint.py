import random
import re
import resource
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction as F
from itertools import chain
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import build_corpus, random_spec
from escapepoint import fixpoint
from escapepoint import (
    Affine,
    BudgetExceededError,
    Constant,
    Cycle,
    EnumerationSpec,
    ExponentBoundError,
    FixpointTrace,
    StepStructure,
    TheoremViolationError,
    compute_escape,
    descend_from_top,
    dyadic_weight,
    format_rational,
    gfp_descend,
    step_structure,
    subset_fixpoint_oracle,
    sup_postfix_oracle,
    value_at,
    weight_below,
)
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
AFFINE_GRID = tuple(affine_grid())
walk_values = st.fractions(min_value=-3, max_value=5, max_denominator=40)
walk_slopes = st.one_of(
    st.sampled_from([F(1, 512), F(-1, 512)]),
    st.fractions(min_value=-4, max_value=4, max_denominator=16).filter(bool),
)


@st.composite
def walk_specs(draw) -> EnumerationSpec:
    """A prefix of 0-80 values, in and out of [0, 2], and any tail kind, slopes +-1/512 among them."""
    prefix = tuple(draw(st.lists(walk_values, max_size=80)))
    tails = [st.builds(Constant, walk_values), st.builds(Affine, walk_slopes, walk_values)]
    if prefix:
        tails.append(st.just(Cycle()))
    return EnumerationSpec(prefix, draw(st.one_of(tails)))

SPEC2 = EnumerationSpec(prefix=(F(3, 2), F(1, 8)), tail=Constant(2))


def corpus_spec(index: int) -> EnumerationSpec:
    return random_spec(random.Random(index), index)


def plateau_values(spec: EnumerationSpec) -> set[F]:
    """The map's values on [0, 2]: at 0, at each enumerated value in [0, 2], and at 2."""
    last = len(spec.prefix)
    if isinstance(spec.tail, Affine):
        # past the larger cut every tail value lies outside [0, 2]
        last = spec.window[1]
    breaks = {v for v in (value_at(spec, n) for n in range(last + 1)) if 0 <= v <= 2}
    return {weight_below(spec, x) for x in breaks | {F(0), F(2)}}


def reference_trace_refusal(iterates: tuple) -> Optional[str]:
    """FixpointTrace's checks in plain Fraction comparisons: the message a refused trace raises, or None."""
    if not iterates or iterates[0] != 2:
        return "a descent trace must start at the top element 2"
    settled = len(iterates) >= 2 and iterates[-1] == iterates[-2]
    strict = iterates[:-1] if settled else iterates
    for a, b in zip(strict, strict[1:]):
        if not a > b:
            return f"iterates must decrease strictly before settling: {a} -> {b}"
    return None


trace_values = st.one_of(
    st.integers(-1, 3), st.fractions(min_value=-1, max_value=F(5, 2), max_denominator=8), st.just(F(2))
)


@st.composite
def candidate_traces(draw) -> tuple:
    """Iterate tuples near valid traces: ints and Fractions, descending runs with repeats, settled or not."""
    body = draw(st.lists(trace_values, max_size=6))
    if draw(st.booleans()):
        body.sort(reverse=True)  # descending, but a repeated value is not a strict step
    if draw(st.integers(0, 9)):  # one draw in ten keeps no head: empty, or any value first
        body.insert(0, draw(st.sampled_from([2, F(2), 2, F(2), F(7, 4), 3, True])))
    if body and draw(st.booleans()):
        body.append(body[-1])  # the confirming application of a settled descent
    return tuple(body)


class TestFixpointTrace:
    @given(candidate_traces())
    @example(())
    @example((2, 2))
    @example((F(2), 1, F(1)))
    @example((F(2), F(3, 2), F(3, 2), F(3, 2)))
    def test_the_integer_check_matches_fraction_comparisons(self, iterates):
        refusal = reference_trace_refusal(iterates)
        if refusal is None:
            assert FixpointTrace(iterates).iterates == iterates
        else:
            with pytest.raises(ValueError) as err:
                FixpointTrace(iterates)
            assert str(err.value) == refusal

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

    @pytest.mark.parametrize("moves, up", [
        ({F(2): F(1), F(1): F(3, 2), F(3, 2): F(3, 2)}, "1 -> 3/2"),  # settles after one move up
        ({F(2): F(1), F(1): F(2)}, "1 -> 2"),  # never settles, so the budget runs out too
    ], ids=["up once", "cycle 2 -> 1 -> 2"])
    def test_non_monotone_step_detected(self, moves, up):
        with pytest.raises(RuntimeError) as refused:
            descend_from_top(moves.__getitem__, 10)
        assert str(refused.value) == (
            f"step map is not monotone: iterates must decrease strictly before settling: {up}"
        )

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

    def test_counts_each_break_once(self):
        # L prefix values, the block values in [0, 2), and the affine indices lo, ..., hi - 1
        for spec in chain(build_corpus(300), affine_grid()):
            block = sum(0 <= F(*pair) < 2 for pair in spec.block_pairs)
            run = spec.window[1] - spec.window[0] if spec.window else 0
            assert fixpoint._step_bound(spec) == len(spec.prefix) + block + run + 2, spec


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
        # no bound on the prefix: 13 values, and a random cycle of 1024
        long_prefix = EnumerationSpec(tuple(F(n, 13) for n in range(13)), Constant(3))
        assert subset_fixpoint_oracle(long_prefix) == gfp_descend(long_prefix)[0]
        rng = random.Random(1024)
        prefix = tuple(F(rng.randint(0, 2000), rng.randint(1, 1000)) for _ in range(1024))
        cycle = EnumerationSpec(prefix, Cycle())
        assert subset_fixpoint_oracle(cycle) == gfp_descend(cycle)[0]
        # the affine tail's exponent bound still holds
        flat = EnumerationSpec((), Affine(F(1, 10**5), 0))
        with pytest.raises(ExponentBoundError):
            subset_fixpoint_oracle(flat)

    @given(st.one_of(walk_specs(), st.sampled_from(AFFINE_GRID)))
    @settings(deadline=None)
    def test_subset_oracle_equals_the_descent(self, spec):
        assert subset_fixpoint_oracle(spec) == gfp_descend(spec)[0]

    @pytest.mark.parametrize("spec", [
        SPEC2,
        *map(corpus_spec, range(0, 3000, 250)),
        EnumerationSpec(tuple(F(k, 37) for k in range(1, 67)), Cycle()),
        EnumerationSpec((F(1, 3), F(5, 4)), Affine(F(-1, 512), 2)),
    ])
    def test_a_fixpoint_that_is_no_subset_weight_is_refused(self, spec, monkeypatch):
        # a tail weight off by 2^-(L+3) breaks the subset identity at the fixpoint the walk finds
        skew = dyadic_weight(len(spec.prefix) + 3)
        tail_weight_sum = fixpoint.tail_weight_sum
        monkeypatch.setattr(fixpoint, "tail_weight_sum", lambda spec, x: tail_weight_sum(spec, x) + skew)
        x0 = format_rational(gfp_descend(spec)[0])
        with pytest.raises(RuntimeError, match=f"^fixpoint {re.escape(x0)} is not the weight"):
            subset_fixpoint_oracle(spec)

    @pytest.mark.parametrize("tail", [Affine(F(1, 8191), 0), Affine(F(-1, 8191), 2)])
    def test_subset_oracle_holds_no_plateau_list(self, tail):
        # 16 383 plateaus; one list of their breaks or tail states would pass 1 MB
        spec = EnumerationSpec((), tail)
        tracemalloc.start()
        try:
            x0 = subset_fixpoint_oracle(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x0 == gfp_descend(spec)[0]
        assert peak <= 1 << 20, peak

    @pytest.mark.parametrize("oracle", [sup_postfix_oracle, subset_fixpoint_oracle])
    # cuts at 2 * 10^6, and at 10^8 and 10^8 + 2 (three plateaus), past MAX_TAIL_CUT
    @pytest.mark.parametrize("tail", [Affine(F(1, 10**6), 0), Affine(1, -10**8)])
    def test_oversized_affine_tails_are_refused_before_any_plateau(self, oracle, tail):
        with memory_cap(), pytest.raises(ExponentBoundError, match="past the bound"):
            oracle(EnumerationSpec((), tail))

    @pytest.mark.parametrize("slope, intercept", [
        *((slope, intercept) for slope in (F(1, 256), F(-1, 256)) for intercept in (0, 1, 2)),
        # 16 383 plateaus, inside MAX_TAIL_CUT
        (F(1, 8191), 0), (F(-1, 8191), 2),
    ])
    @pytest.mark.parametrize("prefix", [(), (F(1, 3), F(5, 4))])
    def test_subset_oracle_on_flat_affine_tails(self, slope, intercept, prefix):
        # 513 plateaus or more, of which only a handful hold their own value
        spec = EnumerationSpec(prefix, Affine(slope, intercept))
        assert subset_fixpoint_oracle(spec) == gfp_descend(spec)[0]


def decided_plateaus(monkeypatch) -> list[tuple[int, Optional[tuple[int, int]]]]:
    """Every plateau the sweep is handed from here on: each one it decides, in order."""
    seen = []
    walk = StepStructure.plateaus

    def plateaus(self):
        for plateau in walk(self):
            seen.append(plateau)
            yield plateau

    monkeypatch.setattr(StepStructure, "plateaus", plateaus)
    return seen


class TestSupremumSweep:
    @pytest.mark.parametrize("seed", range(4))
    def test_stops_at_the_first_postfixpoint(self, seed, monkeypatch):
        rng = random.Random(seed)
        spec = EnumerationSpec(
            tuple(F(rng.randint(-8, 24), rng.randint(1, 12)) for _ in range(64)), Cycle()
        )
        x0, _ = gfp_descend(spec)
        above = sum(1 for value in plateau_values(spec) if value > x0)
        decided = decided_plateaus(monkeypatch)
        assert sup_postfix_oracle(spec) == x0
        # one decision per plateau from the top down to x0's, and none past it
        assert len(decided) == above + 1

    @pytest.mark.parametrize("slope", [F(1, 256), F(-1, 256)])
    @pytest.mark.parametrize("intercept", [0, 1, 2, F(1, 7)])
    @pytest.mark.parametrize("prefix", [(), (F(1, 2), F(2), F(0))])
    def test_tests_every_plateau_above_x0_on_flat_affine_tails(
        self, slope, intercept, prefix, monkeypatch
    ):
        # up to 513 plateaus; 1/2, 0 and 2 land on the line for most intercepts
        spec = EnumerationSpec(prefix, Affine(slope, intercept))
        x0, _ = gfp_descend(spec)
        decided = decided_plateaus(monkeypatch)
        assert sup_postfix_oracle(spec) == x0
        # every plateau value from the top down to x0 is decided, in order: no
        # fewer, so that no candidate goes untested
        steps = step_structure(spec)
        assert [steps.fraction(t) for t, _ in decided] == sorted(
            (value for value in plateau_values(spec) if value >= x0), reverse=True
        )

    @pytest.mark.parametrize("spec", [
        EnumerationSpec((), Affine(F(-1, 256), 2)),
        EnumerationSpec((F(1, 2), F(2), F(0)), Affine(F(-1, 256), F(15, 7))),
        EnumerationSpec(tuple(F(n, 40) for n in range(80, 0, -1)), Cycle()),
    ], ids=["line", "line with prefix", "cycle of 80"])
    def test_builds_no_fraction_per_break(self, spec, monkeypatch):
        x0, _ = gfp_descend(spec)
        steps = step_structure(spec)
        monkeypatch.setattr(fixpoint, "step_structure", lambda _: steps)
        decided = decided_plateaus(monkeypatch)
        built = []
        construct = F.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return construct(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", staticmethod(counting))
        found = sup_postfix_oracle(spec)
        monkeypatch.undo()
        assert found == x0 and len(decided) > 60
        # each break is compared as an integer pair; only the returned value becomes a Fraction
        assert len(built) == 1

    def test_a_corrupted_top_jump_is_caught_by_the_certificate(self, monkeypatch):
        # SPEC2 has x0 = 1/2 below its top plateau 3/2; a top jump of 1 puts the
        # next plateau just under 3/2, above its break 1/8, so the sweep returns it
        def corrupted(spec):
            steps = step_structure(spec)
            pos, on_line, pair, _ = steps.points[-1]
            return replace(steps, points=(*steps.points[:-1], (pos, on_line, pair, 1)))

        monkeypatch.setattr(fixpoint, "step_structure", corrupted)
        with pytest.raises(TheoremViolationError, match="descent found 1/2 but the supremum oracle found"):
            compute_escape(SPEC2)


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

    def test_unhashable_elements(self):
        with pytest.raises(LatticeError) as refused:
            FiniteLattice([[1], [2]], lambda a, b: a <= b)
        assert str(refused.value) == "elements must be hashable: unhashable type: 'list'"

    def test_two_minimal_elements(self):
        pairs = {(0, 2), (1, 2)}
        with pytest.raises(LatticeError) as refused:
            FiniteLattice([0, 1, 2], lambda a, b: a == b or (a, b) in pairs)
        assert str(refused.value) == "no least element"

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
