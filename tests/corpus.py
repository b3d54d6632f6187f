"""Randomized spec corpus shared across test modules.

Prefix lengths stay at 12 or below, which keeps each spec cheap and the
golden digests fixed; the three routes themselves run at any length.  Values
mix small fractions (which collide and build interesting plateaus) with full-range
numerators and denominators up to 1000.  Affine slopes keep |a| >= 1/16 so
the number of tail breakpoints stays small.  ``formula_box`` is the
reference box of an index, centred or off-centre.
"""

import random
from fractions import Fraction

from escapepoint import Affine, Constant, Cycle, EnumerationSpec, RatInterval, value_at

CORPUS_SEED = 20260816


def random_rational(rng: random.Random, bound: int = 1000) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def _mixed_value(rng: random.Random) -> Fraction:
    # small values collide with each other; large ones exercise big denominators
    if rng.random() < 0.5:
        return Fraction(rng.randint(-8, 8), rng.randint(1, 8))
    return random_rational(rng)


def random_spec(rng: random.Random, index: int) -> EnumerationSpec:
    kind = index % 3
    length = rng.randint(1 if kind == 1 else 0, 12)
    prefix = tuple(_mixed_value(rng) for _ in range(length))
    if kind == 0:
        tail = Constant(_mixed_value(rng))
    elif kind == 1:
        tail = Cycle()
    else:
        slope_num = rng.choice([n for n in range(-16, 17) if n])
        tail = Affine(
            Fraction(slope_num, rng.randint(1, 16)),
            Fraction(rng.randint(-16, 16), rng.randint(1, 16)),
        )
    return EnumerationSpec(prefix=prefix, tail=tail)


def build_corpus(count: int, seed: int = CORPUS_SEED) -> list[EnumerationSpec]:
    rng = random.Random(seed)
    return [random_spec(rng, i) for i in range(count)]


def formula_box(spec: EnumerationSpec, n: int, eps: Fraction, jitter: Fraction) -> RatInterval:
    """The width-eps box of index n by Fraction arithmetic: f(n), skewed alternately by min(jitter, eps/2).

    jitter = 0 gives ``intervalize``'s centred box; any other jitter an
    off-centre box that still holds f(n), for an oracle built in a test.
    """
    skew = min(jitter, eps / 2) * (-1 if n % 2 else 1)
    center = value_at(spec, n) + skew
    return RatInterval(center - eps / 2, center + eps / 2)
