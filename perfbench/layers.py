"""Per-layer tracing from outside the package.

``Tracer.install`` rebinds public functions of ``escapepoint`` at every name
a package module binds them under (``escapepoint.fixpoint.weight_below`` and
``escapepoint.escape.weight_below`` are both rebound), so calls between
modules go through a wrapper that records a span or a counter.  A function
that no longer exists is skipped: it yields no span and no error.
``Tracer.remove`` restores the original bindings.

A span is (id, name, start, end, parent id, spec id); the spec id is the id
of the root span, one per spec.  Self time of a span is its duration minus
the time its direct children cover.  Spans stay in
memory and are written out by ``write_spans`` after the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

# (module, function): a span named "<module>.<function>" around every call
SPANNED = (
    ("cli", "parse_spec"),
    ("enumeration", "spec_from_jsonable"),
    ("escape", "compute_escape"),
    ("escape", "certificate_to_jsonable"),
    ("escape", "enclose_escape_traced"),
    ("fixpoint", "gfp_descend"),
    ("fixpoint", "sup_postfix_oracle"),
    ("weight_map", "weight_below"),
    ("weight_map", "plateau_profile"),
    ("weight_map", "weight_below_bounds"),
    ("enumeration", "tail_weight_sum"),
    ("enumeration", "tail_hits"),
)

# counted, not spanned: these run tens of thousands of times per spec
DYADIC = ("dyadic_weight", "dyadic_tail_weight", "geometric_block_sum")

SPAN_CAP = 100_000  # spans kept for the file; self times and counts cover all


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.spans_seen = 0
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.maxima: Counter[str] = Counter()
        self._root: Optional[int] = None
        self._stack: list[list] = []  # [span id, name, start, time covered by children]
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def enter(self, name: str) -> None:
        self.spans_seen += 1
        if not self._stack:
            self._root = self.spans_seen
        self._stack.append([self.spans_seen, name, time.perf_counter(), 0.0])

    def leave(self) -> None:
        end = time.perf_counter()
        span_id, name, start, covered = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.self_s[name] += duration - covered
        self.total_s[name] += duration
        self.calls[name] += 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append(
                (span_id, name, start, end, parent[0] if parent else None, self._root)
            )

    def spanned(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    # -- rebinding ---------------------------------------------------------

    def install(self) -> None:
        pkg = sys.modules["escapepoint"]
        for module, name in SPANNED:
            on_result = self._count_breaks if name == "plateau_profile" else None
            self._wrap(pkg, module, name,
                       functools.partial(self.spanned, f"{module}.{name}", on_result=on_result))
        self._wrap(pkg, "fixpoint", "descend_from_top", self._count_steps)
        for name in DYADIC:
            self._wrap(pkg, "numerics", name, self._count_dyadic)
        ienum = getattr(getattr(pkg, "enumeration", None), "IntervalEnumeration", None)
        at = getattr(ienum, "at", None)
        if at is not None:
            counts = self.counts

            def counted_at(obj, *args, **kwargs):
                counts["enumeration.interval_queries"] += 1
                return at(obj, *args, **kwargs)

            ienum.at = counted_at
            self._restore.append((ienum, "at", at))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, pkg, module: str, name: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(getattr(pkg, module, None), name, None)
        if original is None:
            return
        replacement = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "escapepoint":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))

    # -- counters ----------------------------------------------------------

    def _count_breaks(self, result) -> None:
        self.counts["weight_map.plateau_breaks"] += len(result[1])

    def _count_steps(self, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["fixpoint.descent_steps"] += result[1].steps
            return result

        return wrapper

    def _count_dyadic(self, fn: Callable) -> Callable:
        counts, maxima = self.counts, self.maxima

        def wrapper(*args, **kwargs):
            counts["numerics.dyadic_calls"] += 1
            for arg in args:
                if type(arg) is int and arg > maxima["numerics.max_dyadic_exponent"]:
                    maxima["numerics.max_dyadic_exponent"] = arg
            return fn(*args, **kwargs)

        return wrapper


def write_spans(tracer: Tracer, path) -> None:
    """One JSON array per line: id, name, start, end, parent id, spec id."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")
