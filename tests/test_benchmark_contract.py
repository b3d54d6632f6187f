"""The library names the benchmark under perfbench/ reads still work.

perfbench imports escapepoint names at import time and calls them per spec,
so a renamed or removed name would otherwise surface only when the
benchmark runs.  Here a few jobs of every workload go through the
benchmark's runner and gate, and the runner's bytes must equal what
``escapepoint escape --output structured`` prints for the same job.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

from escapepoint.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import pipeline  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_runner_passes_the_gate_and_matches_the_cli(name, tmp_path, capsys):
    workload = WORKLOADS[name]
    for i, job in enumerate(generate(workload, seed=1, pool_size=4)):
        out = pipeline.RUNNERS[workload.mode](job)
        assert pipeline.GATES[workload.mode](job, out, Counter()) is None
        path = tmp_path / f"{i}.json"
        path.write_text(job.text, encoding="utf-8")
        argv = ["escape", str(path), "--output", "structured"]
        if workload.mode == "interval":
            argv += ["--mode", "interval", "--n-known", str(job.n_known), "--eps", job.eps]
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == out
