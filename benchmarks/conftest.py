"""Benchmark harness configuration.

Every bench regenerates one paper table/figure: it runs the experiment once
inside the ``benchmark`` fixture (so pytest-benchmark records wall time),
prints the paper-style rows, and writes them to the untracked
``benchmarks/out/`` so ``bench_output.txt`` and the per-figure text files
both capture them.  Running the suite never rewrites a tracked file.

``benchmarks/results/`` holds the committed results, including the fixed
baselines gates compare against (``fig13_runtime.txt``).  Re-baselining
is a deliberate act: copy the regenerated file from ``benchmarks/out/``
over the committed one and commit it.

Scale knob: set ``REPRO_BENCH_SCALE=full`` for larger sweeps (closer to the
paper's full datasets); the default ``small`` finishes the whole bench suite
in minutes on a laptop.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

# Benchmarks measure simulation time; serving sweeps from the persistent
# experiment store would time cache reads instead.  Force it off.
os.environ["REPRO_STORE"] = "off"

#: Committed results and baselines (read-only to the suite).
RESULTS_DIR = Path(__file__).parent / "results"
#: Where the suite writes regenerated reports (gitignored).
OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def bench_scale() -> str:
    """"small" (default) or "full"."""
    return os.environ.get("REPRO_BENCH_SCALE", "small")


@pytest.fixture(scope="session")
def out_dir() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture()
def emit(out_dir):
    """Print a report and persist it under benchmarks/out/."""

    def _emit(name: str, text: str) -> None:
        print()
        print(text)
        (out_dir / f"{name}.txt").write_text(text + "\n")

    return _emit


@pytest.fixture()
def emit_json(out_dir):
    """Persist machine-readable benchmark numbers (CI artifacts).

    Written as ``BENCH_<name>.json`` next to the human-readable tables so
    CI can upload them and downstream tooling can diff runs without
    parsing the text reports.
    """
    import json

    def _emit(name: str, payload: dict) -> None:
        path = out_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    return _emit


def run_once(benchmark, fn):
    """Run an experiment exactly once under the benchmark fixture."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
