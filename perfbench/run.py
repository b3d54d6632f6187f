"""escapepoint benchmark: seeded specs, text in to certificate bytes out.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller in a closed loop: the next spec is sent when the previous one
has been rendered.  The loop runs whole passes over the workload's seeded
pool until ``--seconds`` have passed, and at least three passes.  A spec's
time is the fastest of its passes: load from other processes on a shared
machine only ever adds time.  Before each pass the process moves to the
CPU where a fixed probe runs fastest at that moment.  Outputs are checked
outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the loop
untraced for half of ``--seconds``, then for the other half with every
layer wrapped (see layers.py), and reports per-layer self times and counts
per spec plus the tracing overhead.  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.
Exit status is 0 when every output passed its checks, 1 when one did not,
and 2 when the package sources are missing.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from layers import SPANNED, Tracer, write_spans
from workloads import WORKLOADS, Job, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MIN_PASSES = 3  # so that every spec's time is the best of three samples
SETUP_RUNS = 30  # cold starts per run, spread over it
SETUP_GROUPS = 3
SETUP_CMD = [sys.executable, "-I", "-c",
             "import sys; sys.path.insert(0, 'src'); import escapepoint.cli"]

END_TO_END_UNITS = {
    "specs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Loop:
    """Whole passes over the pool, with every completed spec's time."""

    wall_s: float = 0.0
    attempted: int = 0
    times_s: list[list[float]] = field(default_factory=list)  # per pool index
    failures: Counter = field(default_factory=Counter)
    outputs: list = field(default_factory=list)  # first-pass bytes, or the failure class
    peak_rss_mb: float = 0.0
    cpus: Counter = field(default_factory=Counter)  # passes run on each CPU

    def spec_times_ms(self) -> list[float]:
        """Each spec's fastest time over its passes, ascending."""
        return sorted(min(t) * 1000 for t in self.times_s if t)

    @property
    def specs_per_s(self) -> float:
        """Throughput of one caller: specs over the summed spec times."""
        times = self.spec_times_ms()
        return 1000 * len(times) / sum(times)

    def digest(self) -> str:
        h = hashlib.sha256()
        for out in self.outputs:
            h.update(out if isinstance(out, bytes) else f"!{out}\n".encode())
        return h.hexdigest()


def probe_s() -> float:
    """Fastest of three runs of a fixed Fraction loop, the package's kind of work."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        total = Fraction(0)
        for n in range(1, 100):
            total += Fraction(1, n)
        best = min(best, time.perf_counter() - t0)
    return best


def pin_quietest(cpus: list[int]) -> int:
    """Pin this process to the CPU of ``cpus`` where the probe runs fastest now.

    Other work sharing a physical core slows a CPU for stretches of seconds
    to minutes, and often not every CPU at once.
    """
    times = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        times[cpu] = probe_s()
    best = min(times, key=times.get)
    os.sched_setaffinity(0, {best})
    return best


def measure(pool: list[Job], run_spec, refusals, seconds: float,
            between: Optional[Callable[[], None]] = None) -> Loop:
    """Whole passes over the pool until ``seconds`` have passed.

    ``between``, if given, is called at pass boundaries, about every
    ``seconds / SETUP_RUNS``, outside every spec's time.
    """
    p = Loop(times_s=[[] for _ in pool], outputs=[None] * len(pool))
    need = MIN_PASSES * len(pool)
    perf = time.perf_counter
    start = perf()
    deadline = start + seconds
    every = seconds / SETUP_RUNS
    next_between = start
    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    i = 0
    while i < need or i % len(pool) or perf() < deadline:
        idx = i % len(pool)
        if idx == 0 and len(allowed) > 1:
            p.cpus[pin_quietest(sorted(allowed))] += 1
        if idx == 0 and between is not None and perf() >= next_between:
            between()
            next_between += every
        first = i < len(pool)
        i += 1
        kind = None
        t0 = perf()
        try:
            out = run_spec(pool[idx])
        except refusals as exc:
            kind = f"refusal:{type(exc).__name__}"
        except Exception as exc:  # MemoryError included: counted, the loop goes on
            kind = f"crash:{type(exc).__name__}"
        t1 = perf()
        if kind is not None:
            p.failures[kind] += 1
            if first:
                p.outputs[idx] = kind
            continue
        p.times_s[idx].append(t1 - t0)
        if first:
            p.outputs[idx] = out
        elif out != p.outputs[idx]:
            p.failures["gate:nondeterministic"] += 1
    p.wall_s = perf() - start
    if len(allowed) > 1:
        os.sched_setaffinity(0, allowed)
    p.attempted = i
    p.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return p


def gate(pool: list[Job], p: Loop, check) -> Counter:
    """Check every first-pass output; charge a failure to each pass over it."""
    notes: Counter = Counter()
    for idx, out in enumerate(p.outputs):
        if not isinstance(out, bytes):
            continue
        try:
            problem = check(pool[idx], out, notes)
        except Exception as exc:  # a malformed output is a failed check, not a crash
            problem = type(exc).__name__
        if problem is not None:
            p.failures[f"gate:{problem}"] += p.attempted // len(pool)
    return notes


class Setup:
    """Wall times from a fresh interpreter to escapepoint.cli imported.

    Taken one at a time between passes, so that they spread over the run
    like the spec times do; the first is a warm-up and is dropped.  Like a
    spec's time, a group's time is the fastest of its samples: the samples
    go round-robin into SETUP_GROUPS groups, each spanning the whole run,
    and set-up time is the median of the groups' times.
    """

    def __init__(self):
        self.times: list[float] = []
        self.warm = False

    def sample(self) -> None:
        t0 = time.perf_counter()
        subprocess.run(SETUP_CMD, cwd=ROOT, check=True)
        if self.warm:
            self.times.append(time.perf_counter() - t0)
        self.warm = True

    def median(self) -> float:
        while len(self.times) < SETUP_RUNS:
            self.sample()
        return statistics.median(
            min(self.times[g::SETUP_GROUPS]) for g in range(SETUP_GROUPS))


def end_to_end(p: Loop, setup_s: float) -> dict[str, float]:
    ms = p.spec_times_ms()
    return {
        "specs_per_s": p.specs_per_s,
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10)[-1],
        "peak_rss_mb": p.peak_rss_mb,
        "setup_s": setup_s,
    }


def per_layer(tracer: Tracer, p: Loop, plain: Loop, bits: int) -> dict[str, tuple[float, str]]:
    n = p.attempted
    metrics: dict[str, tuple[float, str]] = {}
    for name in [f"{m}.{f}" for m, f in SPANNED] + ["json_dumps"]:
        metrics[f"{name}.self_ms"] = (tracer.self_s[name] * 1000 / n, "ms/spec")
    for name in ("weight_map.weight_below", "weight_map.weight_below_bounds",
                 "enumeration.tail_weight_sum"):
        metrics[f"{name}.calls"] = (tracer.calls[name] / n, "calls/spec")
    for name in ("fixpoint.descent_steps", "weight_map.plateau_breaks",
                 "enumeration.interval_queries", "numerics.dyadic_calls"):
        metrics[name] = (tracer.counts[name] / n, "count/spec")
    metrics["numerics.max_dyadic_exponent"] = (
        tracer.maxima["numerics.max_dyadic_exponent"], "exponent")
    metrics["numerics.max_denominator_bits"] = (bits, "bits")
    metrics["trace.overhead_pct"] = (
        100 * (plain.specs_per_s - p.specs_per_s) / plain.specs_per_s, "%")
    return metrics


def print_layer_table(tracer: Tracer) -> None:
    total = tracer.total_s["spec"]
    print(f"{'span':34} {'calls':>10} {'self s':>10} {'self %':>7}")
    for name, self_s in sorted(tracer.self_s.items(), key=lambda kv: -kv[1]):
        print(f"{name:34} {tracer.calls[name]:>10} {self_s:>10.3f} {100 * self_s / total:>6.1f}%")
    # ROADMAP item 2 holds that the supremum oracle and g's evaluations dominate
    oracle = tracer.total_s["fixpoint.sup_postfix_oracle"]
    g_self = sum(
        tracer.self_s[n] for n in ("weight_map.weight_below", "enumeration.tail_weight_sum")
    )
    print(f"sup_postfix_oracle (inclusive): {100 * oracle / total:.1f}% of spec time; "
          f"weight_below+tail_weight_sum self (all callers): {100 * g_self / total:.1f}%")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--pool", type=int, default=None,
                        help="pool size override, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "escapepoint" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import escapepoint

    if Path(escapepoint.__file__).resolve().parent != SRC / "escapepoint":
        print(f"error: imported escapepoint from {escapepoint.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import pipeline

    # Lifted exactly as cli.main() does; certificate_to_jsonable raises
    # ValueError on flat-affine certificates without it (see README).
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)

    workload = WORKLOADS[args.workload]
    pool = generate(workload, args.seed, args.pool)
    inputs = hashlib.sha256(
        json.dumps([[j.text, j.n_known, j.eps] for j in pool]).encode()).hexdigest()
    print(f"workload {workload.name} mode {workload.mode} seed {args.seed} "
          f"pool {len(pool)} inputs sha256:{inputs}")
    run_spec = pipeline.RUNNERS[workload.mode]

    if args.trace == 0:
        setup = Setup()
        p = measure(pool, run_spec, pipeline.REFUSALS, args.seconds, setup.sample)
        setup_s = setup.median()
        plain = None
    else:
        # half the run untraced, half traced: a traced run lasts as long as an untraced one
        plain = measure(pool, run_spec, pipeline.REFUSALS, args.seconds / 2)
        tracer = Tracer()
        render = tracer.spanned("json_dumps", pipeline.dumps)
        traced = tracer.spanned("spec", lambda job: run_spec(job, render))
        tracer.install()
        try:
            p = measure(pool, traced, pipeline.REFUSALS, args.seconds / 2)
        finally:
            tracer.remove()

    notes = gate(pool, p, pipeline.GATES[workload.mode])
    print(f"outputs sha256:{p.digest()} (first pass, pool order)")
    if plain is not None and plain.digest() != p.digest():
        p.failures["gate:traced-output-differs"] += 1
    for note, count in sorted(notes.items()):
        print(f"gate {note}: {count}")
    failed = sum(p.failures.values())
    attempted = p.attempted
    for kind, count in sorted(p.failures.items()):
        print(f"failed {kind}: {count}")
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted}); "
          f"{attempted // len(pool)} passes in {p.wall_s:.2f} s, "
          f"{(attempted - failed) / p.wall_s:.6g} completed specs per wall second; "
          f"passes by CPU {dict(sorted(p.cpus.items()))}")
    correct = not any(kind.startswith("gate:") for kind in p.failures)

    if args.trace == 0:
        values = end_to_end(p, setup_s)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        print_layer_table(tracer)
        print(f"tracing overhead: {plain.specs_per_s:.6g} specs/s untraced, "
              f"{p.specs_per_s:.6g} traced")
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        write_spans(tracer, spans_path)
        print(f"spans: {len(tracer.spans)} of {tracer.spans_seen} written to "
              f"{spans_path.relative_to(ROOT)}")
        bits = max((pipeline.max_denominator_bits(out) for out in p.outputs
                    if isinstance(out, bytes)), default=0)
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in per_layer(tracer, p, plain, bits).items()}
        attempted += plain.attempted
        failed += sum(plain.failures.values())
    for name, m in metrics.items():
        print(f"{name:40} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
