"""Seeded input generators, one per benchmark workload.

Every generator turns a seed into a list of ``Job``s whose spec is already
rendered to JSON text, so the timed loop starts from the same bytes a CLI
user would pass.  The generators depend only on the standard library: a
change to the package under test cannot change the inputs.

Cost on every workload is driven by a few input properties (prefix length L,
tail kind, affine slope, n_known).  Those properties are stratified or fixed
by rank across the pool rather than drawn independently, so that two seeds
give pools of the same cost mix and differ only in the rational values.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional


@dataclass(frozen=True)
class Job:
    """One benchmark input: a spec document plus interval-mode arguments."""

    text: str
    n_known: Optional[int] = None
    eps: Optional[str] = None


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "exact" or "interval", as in ``escapepoint escape --mode``
    pool_size: int
    generate: Callable[[random.Random, int], list[Job]]


def _fmt(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _spec_text(prefix: list[Fraction], tail: dict) -> str:
    return json.dumps({"prefix": [_fmt(v) for v in prefix], "tail": tail})


def _small_value(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-8, 8), rng.randint(1, 8))


def _wide_value(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))


def _mixed_value(rng: random.Random) -> Fraction:
    # small values collide and build shared plateaus; wide ones carry big denominators
    return _small_value(rng) if rng.random() < 0.5 else _wide_value(rng)


def _mixed_prefix(rng: random.Random, length: int) -> list[Fraction]:
    # as _mixed_value, but exactly half small and half wide values, in seeded order
    values = [_small_value(rng) if i % 2 else _wide_value(rng) for i in range(length)]
    rng.shuffle(values)
    return values


def _stratified(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """One uniform draw from each of ``count`` equal slices of [lo, hi), ascending."""
    width = (hi - lo) / count
    return [lo + (i + rng.random()) * width for i in range(count)]


def _small_spec(rng: random.Random, index: int) -> str:
    # the distribution of tests/corpus.py: L <= 12, |a| >= 1/16; the tail kind
    # and L are fixed by index, so pools of every seed share one mix of them
    kind = index % 3
    length = 1 + (index // 3) % 12 if kind == 1 else (index // 3) % 13
    prefix = _mixed_prefix(rng, length)
    if kind == 0:
        tail = {"kind": "constant", "value": _fmt(_mixed_value(rng))}
    elif kind == 1:
        tail = {"kind": "cycle"}
    else:
        a = Fraction(rng.choice([n for n in range(-16, 17) if n]), rng.randint(1, 16))
        b = Fraction(rng.randint(-16, 16), rng.randint(1, 16))
        tail = {"kind": "affine", "a": _fmt(a), "b": _fmt(b)}
    return _spec_text(prefix, tail)


def small_mixed(rng: random.Random, count: int) -> list[Job]:
    return [Job(_small_spec(rng, i)) for i in range(count)]


def long_prefix(rng: random.Random, count: int) -> list[Job]:
    jobs = []
    for kind, share in (("constant", count // 2), ("cycle", count - count // 2)):
        for length in _stratified(rng, 16, 65, share):
            prefix = _mixed_prefix(rng, int(length))
            if kind == "constant":
                tail = {"kind": "constant", "value": _fmt(_mixed_value(rng))}
            else:
                tail = {"kind": "cycle"}
            jobs.append(Job(_spec_text(prefix, tail)))
    rng.shuffle(jobs)
    return jobs


_FLAT_MIN = Fraction(1, 512)  # flatter slopes leave too few passes per run; see README
_FLAT_MAX = Fraction(3, 128)


def flat_affine(rng: random.Random, count: int) -> list[Job]:
    # One spec costs about 1/|a| and, flatter, (1/|a|)^2, so the flattest
    # slopes dominate a pass.  log|a| falls with the fifth power of the rank:
    # half the pool is steeper than 1/46, p90 sits near 1/185 and the
    # flattest is 1/512, where dyadic exponents pass 1000.  Slope, sign,
    # numerator and prefix length are fixed by rank, and the line always
    # crosses [0, 2] over about 2/|a| indices; the seed draws the intercept's
    # offset and the prefix values.
    jobs = []
    span = math.log(_FLAT_MAX / _FLAT_MIN)
    for j in range(count):
        k = 1 + j % 3
        target = float(_FLAT_MAX) * math.exp(-((j / max(count - 1, 1)) ** 5) * span)
        d = min(max(round(k / target), math.ceil(k / _FLAT_MAX)), math.floor(k / _FLAT_MIN))
        jitter = Fraction(rng.randint(-4, 4), rng.randint(32, 64))
        if j % 2:
            a, b = Fraction(k, d), jitter
        else:
            a, b = Fraction(-k, d), 2 + jitter
        prefix = _mixed_prefix(rng, j % 9)
        jobs.append(Job(_spec_text(prefix, {"kind": "affine", "a": _fmt(a), "b": _fmt(b)})))
    rng.shuffle(jobs)
    return jobs


_N_KNOWN = (16, 32, 64, 128)
_EPS = ("1/128", "1/1000000")


def interval(rng: random.Random, count: int) -> list[Job]:
    # every (tail kind, n_known, eps) combination recurs every 24 jobs;
    # n_known stops at 128 so that a pass stays well under a second
    return [
        Job(_small_spec(rng, i), _N_KNOWN[i % 4], _EPS[(i // 4) % 2])
        for i in range(count)
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("small-mixed", "exact", 600, small_mixed),
        Workload("long-prefix", "exact", 100, long_prefix),
        Workload("flat-affine", "exact", 100, flat_affine),
        Workload("interval", "interval", 120, interval),
    )
}


def generate(workload: Workload, seed: int, pool_size: Optional[int] = None) -> list[Job]:
    """The workload's input pool for ``seed``: same seed, same jobs."""
    return workload.generate(random.Random(seed), pool_size or workload.pool_size)
