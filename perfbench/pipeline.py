"""The measured path, JSON text in to certificate bytes out, and its gate.

Exact mode follows the handler of ``escapepoint escape --output structured``
through public functions: ``cli.parse_spec`` -> ``escape.compute_escape`` ->
``escape.certificate_to_jsonable`` -> canonical JSON.  Interval mode follows
``--mode interval``: ``intervalize`` -> ``enclose_escape_traced`` -> the
same rendering.  ``cli.main`` is not called per spec: it rebuilds its
argument parser on every call, which would swamp the small specs.

Functions are looked up on their modules at call time, so the rebinding done
by ``layers.Tracer`` is seen here.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Callable, Optional

from escapepoint import cli, enumeration, escape, fixpoint, numerics

from workloads import Job

# the errors cli.main() reports as a refusal with exit status 1
REFUSALS = (ValueError, ZeroDivisionError, OSError, fixpoint.BudgetExceededError)

# subset_fixpoint_oracle compares every affine tail state with every plateau,
# about (2/|a|)^2 pairs; below this slope one gate check costs seconds
SUBSET_MIN_SLOPE = Fraction(1, 256)
SUBSET_MAX_PREFIX = 12  # the oracle's own default scope

_DENOMINATOR = re.compile(rb'"-?\d+/(\d+)"')


def dumps(obj: object) -> str:
    """The CLI's canonical JSON rendering."""
    return json.dumps(obj, indent=2, sort_keys=True)


def run_exact(job: Job, render: Callable[[object], str] = dumps) -> bytes:
    cert = escape.compute_escape(cli.parse_spec(job.text))
    return (render(escape.certificate_to_jsonable(cert)) + "\n").encode()


def run_interval(job: Job, render: Callable[[object], str] = dumps) -> bytes:
    spec = cli.parse_spec(job.text)
    eps = numerics.parse_rational(job.eps)
    enclosure, lo_trace, hi_trace = escape.enclose_escape_traced(
        enumeration.intervalize(spec), job.n_known, eps
    )
    fmt = numerics.format_rational
    return (render({
        "lo": fmt(enclosure.lo),
        "hi": fmt(enclosure.hi),
        "lower_trace": [fmt(v) for v in lo_trace.iterates],
        "upper_trace": [fmt(v) for v in hi_trace.iterates],
    }) + "\n").encode()


RUNNERS = {"exact": run_exact, "interval": run_interval}


def gate_exact(job: Job, out: bytes, notes) -> Optional[str]:
    """Name of the first check the certificate fails, or None.

    The certificate must round-trip byte for byte through
    ``certificate_from_jsonable``, and where the subset oracle is in scope
    its x0 -- a third route, independent of the descent and of the supremum
    oracle ``compute_escape`` already consults -- must match.
    """
    cert = escape.certificate_from_jsonable(json.loads(out))
    if (dumps(escape.certificate_to_jsonable(cert)) + "\n").encode() != out:
        return "roundtrip"
    spec = cli.parse_spec(job.text)
    tail = spec.tail
    if len(spec.prefix) > SUBSET_MAX_PREFIX:
        notes["subset oracle: prefix longer than 12"] += 1
        return None
    if isinstance(tail, enumeration.Affine) and abs(tail.a) < SUBSET_MIN_SLOPE:
        notes["subset oracle: slope below 1/256"] += 1
        return None
    try:
        literal = fixpoint.subset_fixpoint_oracle(spec)
    except fixpoint.OracleScopeError:
        notes["subset oracle: out of its scope"] += 1
        return None
    notes["subset oracle: checked"] += 1
    return None if literal == cert.x0 else "subset-oracle"


def gate_interval(job: Job, out: bytes, notes) -> Optional[str]:
    """Name of the first check the enclosure fails, or None."""
    doc = json.loads(out)
    lo, hi = numerics.parse_rational(doc["lo"]), numerics.parse_rational(doc["hi"])
    if doc["lower_trace"][-1] != doc["lo"] or doc["upper_trace"][-1] != doc["hi"]:
        return "trace-end"
    x0 = escape.compute_escape(cli.parse_spec(job.text)).x0
    notes["enclosure: checked against exact x0"] += 1
    return None if lo <= x0 <= hi else "enclosure"


GATES = {"exact": gate_exact, "interval": gate_interval}


def max_denominator_bits(out: bytes) -> int:
    """Largest bit length of any denominator written in the output."""
    return max((int(d).bit_length() for d in _DENOMINATOR.findall(out)), default=0)
