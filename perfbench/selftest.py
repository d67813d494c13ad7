"""Tiny-scale self-test of the benchmark.

Run from the root of a checkout (takes about two minutes)::

    python3 perfbench/selftest.py

It checks, on tiny inputs, that:

1. every workload emits every metric ``BENCHMARK.json`` names, with its
   unit, under ``--trace 0`` (end-to-end) and ``--trace 1`` (per-layer),
   and reports ``correct: true``;
2. a deliberately wrong expected digest is counted as a failed operation
   (``correct: false``, ``failed >= 1``), not a crash;
3. in a directory that holds only ``BENCHMARK.json`` and the benchmark's
   files, the command exits non-zero without printing a result.

Exits 0 when every check passes and prints one line per check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench-selftest")


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_line(done: subprocess.CompletedProcess) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metrics(spec: dict) -> list[str]:
    failures = []
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[group]}
        for workload in spec["workloads"]:
            name = workload["name"]
            result = result_line(
                bench(
                    "--workload", name, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--tiny",
                )
            )
            got = result["metrics"]
            if set(got) != set(wanted):
                failures.append(
                    f"{name} --trace {trace}: metrics {sorted(got)} != "
                    f"{sorted(wanted)}"
                )
            failures += [
                f"{name} --trace {trace}: {metric} unit "
                f"{got[metric]['unit']!r} != {unit!r}"
                for metric, unit in wanted.items()
                if metric in got and got[metric]["unit"] != unit
            ]
            if not result["correct"] or result["failed"]:
                failures.append(f"{name} --trace {trace}: not correct")
            print(f"ok: {name} --trace {trace} emits {len(got)} metrics")
    return failures


def check_wrong_digest() -> list[str]:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import worker

    spec = worker.TimeseriesWarm(3, True, SCRATCH).specs(0)[0]
    expected = os.path.join(SCRATCH, "wrong-digests.json")
    with open(expected, "w") as handle:
        json.dump(
            {"workloads": {"timeseries-warm": {
                spec.resolved_label(): "0" * 24,
            }}},
            handle,
        )
    result = result_line(
        bench(
            "--workload", "timeseries-warm", "--seed", "3", "--seconds", "1",
            "--trace", "0", "--tiny", "--expected", expected,
        )
    )
    if result["correct"] or result["failed"] < 1 or not result["metrics"]:
        return [f"wrong digest not counted as a failure: {result}"]
    print(
        f"ok: a wrong digest fails {result['failed']} of "
        f"{result['attempted']} operations and the run completes"
    )
    return []


def check_bare_directory() -> list[str]:
    bare = os.path.join(SCRATCH, "bare")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    done = bench(
        "--workload", "cold-simulate", "--seed", "0", "--seconds", "1",
        "--trace", "0", cwd=bare,
    )
    if done.returncode == 0 or done.stdout.strip():
        return [f"bare directory run: exit {done.returncode}, {done.stdout!r}"]
    print("ok: without the program's sources the benchmark exits "
          f"{done.returncode} and prints no result")
    return []


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(os.path.join(SCRATCH, "bare"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    try:
        failures = (
            check_metrics(spec) + check_wrong_digest() + check_bare_directory()
        )
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
