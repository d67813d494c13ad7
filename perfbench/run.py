"""The repository benchmark: one command, four workloads, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload timeseries-warm --seed 0 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` alternates untraced and traced operations and reports the per-layer
metrics.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Everything the run writes stays under ``.bench_build/`` in
the checkout: the compiled-kernel cache persists there between runs, the
per-run directory (experiment stores, reports) is deleted at exit.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402
import layers  # noqa: E402

WORKLOADS = ("cold-simulate", "timeseries-warm", "real-codec", "sweep-pool")

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "visits_per_s": "1/s",
    "cpu_per_visit_ms": "ms",
    "peak_rss_mb": "MB",
    "psnr_db": "dB",
}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "cli.import_s": "s",
    "datasets.build_s": "s",
    "core.cloud.train_s": "s",
    "imagery.capture_s": "s",
    "imagery.captures": "count",
    "core.system.run_s": "s",
    "core.system.sync_s": "s",
    "core.phases.self_s": "s",
    "core.encoder.process_s": "s",
    "core.encoder.encode_roi_s": "s",
    "core.encoder.encode_roi_calls": "count",
    "core.encoder.scoring_s": "s",
    "codec.encodes_per_roi": "ratio",
    "codec.model_s": "s",
    "codec.dwt_s": "s",
    "codec.real_s": "s",
    "codec.real_mpix_per_s": "Mpx/s",
    "core.cloud.detect_s": "s",
    "core.change_detection.detect_s": "s",
    "baselines.process_s": "s",
    "baselines.downlink_saving_x": "x",
    "core.ground_segment.ingest_s": "s",
    "core.ground_segment.plan_uploads_s": "s",
    "uplink.bytes_planned": "bytes",
    "uplink.updates_skipped": "count",
    "core.phases.uplink_s": "s",
    "core.phases.capture_s": "s",
    "core.phases.downlink_s": "s",
    "core.phases.ingest_s": "s",
    "core.accounting.observe_s": "s",
    "analysis.scheduler.driver_s": "s",
    "analysis.task_s": "s",
    "analysis.scheduler.spawns": "count",
    "analysis.scheduler.tasks_run": "count",
    "analysis.scheduler.barrier_idle_s": "s",
    "analysis.scheduler.epoch_merge_s": "s",
    "analysis.scheduler.worker_cpu_s": "s",
    "analysis.scheduler.worker_util": "ratio",
    "store.get_s": "s",
    "store.get_many_s": "s",
    "store.put_s": "s",
    "store.puts": "count",
    "store.hit_ratio": "ratio",
    "trace.other_s": "s",
    "trace.process_wall_s": "s",
    "unattributed_s": "s",
    "obs.trace_overhead_frac": "ratio",
    "obs.trace_dropped": "count",
    "obs.trace_spans": "count",
}

#: Set-up probes per in-process workload (the workload process itself is
#: one more set-up sample; ``setup_s`` is their median).
SETUP_PROBES = 3

#: Hard cap on one workload's processes, so a hang cannot outlive the
#: run's time limit.
WORKER_TIMEOUT_S = 160.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (nothing is printed)."""


def prepare(root: str, build: str) -> tuple[dict, dict]:
    """Hermetic environment and host fingerprint; builds the kernels.

    The compiled-kernel cache lives under ``build`` (``HOME`` points
    there).  It is built here, and the sources are byte-compiled, before
    anything is timed, so ``setup_s`` always measures a load, never a
    compile.
    """
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise BenchError(f"no repro sources under {src}")
    home = os.path.join(build, "home")
    os.makedirs(home, exist_ok=True)
    env = dict(os.environ)
    env.update(common.THREAD_ENV)
    env.update(
        PYTHONPATH=src,
        HOME=home,
        REPRO_STORE="off",
        REPRO_SIM_FASTPATH="1",
        REPRO_SIM_SHARDS="1",
        REPRO_SIM_WORKERS="1",
    )
    probe = (
        "import compileall, json, os, repro\n"
        f"for path in {[src, HERE]!r}: compileall.compile_dir(path, quiet=1)\n"
        "from repro.codec import _ckernels, registry\n"
        "cache = _ckernels._cache_dir()\n"
        "before = set(os.listdir(cache))\n"
        "lib = _ckernels.load()\n"
        "print(json.dumps({'repro': repro.__file__,\n"
        "    'kernels': 'unavailable' if lib is None else\n"
        "        ('cached' if set(os.listdir(cache)) == before else 'built'),\n"
        "    'engine': registry.best_available().name}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, timeout=600,
    )
    if done.returncode != 0:
        raise BenchError(f"kernel build failed: {done.stderr.strip()[-400:]}")
    info = json.loads(done.stdout.strip().splitlines()[-1])
    if not os.path.realpath(info["repro"]).startswith(os.path.realpath(src)):
        raise BenchError(f"imported repro from {info['repro']}, not {src}")
    env["REPRO_CODEC_BACKEND"] = (
        "vectorized" if info["kernels"] == "unavailable" else "compiled"
    )
    return env, common.fingerprint(info["kernels"], info["engine"])


def cpu_ticks() -> tuple[int, int]:
    """Host-wide (steal, total) CPU ticks from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    return fields[7], sum(fields)


def tree_rss_mb(pid: int) -> float:
    """Resident memory of ``pid`` and all its descendants, in MB."""
    total_kb = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/status") as handle:
                for line in handle:
                    if line.startswith("VmRSS:"):
                        total_kb += int(line.split()[1])
                        break
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    pending.extend(int(child) for child in handle.read().split())
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue
    return total_kb / 1024.0


def run_process(argv, env, deadline: float) -> float:
    """Run one workload process to completion; returns its peak tree RSS."""
    peak = 0.0
    # Its own process group, so a timeout can stop the pool workers too.
    process = subprocess.Popen(
        argv, env=env, stdout=subprocess.DEVNULL, start_new_session=True
    )
    try:
        while True:
            try:
                process.wait(timeout=0.05)
                break
            except subprocess.TimeoutExpired:
                peak = max(peak, tree_rss_mb(process.pid))
                if time.perf_counter() > deadline:
                    raise BenchError("workload process timed out")
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    if process.returncode != 0:
        raise BenchError(f"workload process exited {process.returncode}")
    return peak


def run_workload(name, args, env, fingerprint, build) -> dict:
    """One workload: set-up probes, then the measured workload process."""
    env = dict(env)
    if name == "sweep-pool":
        env["REPRO_SIM_WORKERS"] = str(os.cpu_count() or 1)
        env["REPRO_SIM_SHARDS"] = "2"
    rundir = os.path.join(build, f"run-{os.getpid()}-{name}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    base = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--fingerprint", json.dumps(fingerprint),
    ]
    if args.tiny:
        base.append("--tiny")
    if args.expected:
        base += ["--expected", os.path.abspath(args.expected)]
    steal_before, total_before = cpu_ticks()
    try:
        setup_samples = []
        probes = 0 if name == "cold-simulate" else SETUP_PROBES
        for probe in range(probes):
            probe_dir = os.path.join(rundir, f"probe-{probe}")
            os.makedirs(probe_dir)
            spawned = time.perf_counter()
            run_process(
                base + ["--rundir", probe_dir, "--spawned", repr(spawned),
                        "--probe"],
                env, deadline,
            )
            stamp = layers.first_stamp(os.path.join(probe_dir, "stamp-worker"))
            setup_samples.append(stamp - spawned)
        spawned = time.perf_counter()
        peak_rss = run_process(
            base + ["--rundir", rundir, "--spawned", repr(spawned)],
            env, deadline,
        )
        with open(os.path.join(rundir, "report.json")) as handle:
            report = json.load(handle)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    steal_after, total_after = cpu_ticks()
    report["steal_frac"] = (steal_after - steal_before) / max(
        1, total_after - total_before
    )
    report["setup_samples"] += setup_samples
    if "end_to_end" in report:
        report["end_to_end"]["setup_s"] = statistics.median(
            report["setup_samples"]
        )
        report["end_to_end"]["peak_rss_mb"] = peak_rss
    return report


def metric_block(report: dict, trace: int) -> tuple[dict, list[str]]:
    """The JSON metrics of one workload report, plus what is missing."""
    if trace:
        values, units = report.get("per_layer", {}), PER_LAYER
    else:
        values, units = report.get("end_to_end", {}), END_TO_END
    missing = [name for name in units if name not in values]
    block = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
        if name in values
    }
    return block, missing


def describe(name: str, report: dict, trace: int, fingerprint: dict) -> None:
    """Human-readable lines for one workload (the JSON line comes last)."""
    print(f"== {name}")
    print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    attempted, failed = report["attempted"], report["failed"]
    print(
        f"operations: {attempted} attempted, {failed} failed "
        f"(op_fail_rate = {failed / attempted:.4f} ratio); timed untraced "
        f"ops: {report['ops']}; warm-up {report['warm_up_s']:.3f} s; "
        f"digests: {report['digest_source']}"
    )
    if report.get("op_walls"):
        print(
            "untraced operation walls (s): "
            + " ".join(f"{wall:.3f}" for wall in report["op_walls"])
        )
    print(
        f"host CPU stolen by the hypervisor during the run: "
        f"{100 * report['steal_frac']:.1f}% (runs with high steal are slow "
        "for reasons outside the program)"
    )
    mismatched, checked = report["raw_pickle_mismatches"]
    if checked:
        print(
            f"store re-reads: {checked} checked, {mismatched} with a raw "
            "pickle that differs from the simulated result's (values "
            "equal; see perfbench/README.md)"
        )
    end = report.get("end_to_end", {})
    for metric, unit in END_TO_END.items():
        if metric in end:
            print(f"  {metric} = {end[metric]:.6g} {unit}")
    if "downlink_saving_x" in end:
        print(f"  downlink_saving_x = {end['downlink_saving_x']:.6g} x")
    if trace:
        layer = report.get("per_layer", {})
        for metric, unit in PER_LAYER.items():
            if metric in layer:
                print(f"  {metric} = {layer[metric]:.6g} {unit}")
    for problem in report["problems"]:
        print(f"  FAILED: {problem}")


def record_digests(reports: dict, fingerprint: dict) -> None:
    """Commit the default seed's digests, keyed by workload and spec."""
    path = os.path.join(HERE, "digests.json")
    committed = {"workloads": {}}
    if os.path.exists(path):
        with open(path) as handle:
            committed = json.load(handle)
    identity = common.identity_fingerprint(fingerprint)
    if committed.get("fingerprint") not in (None, identity):
        committed = {"workloads": {}}
    committed["fingerprint"] = identity
    for name, report in reports.items():
        committed["workloads"][name] = dict(sorted(report["digests"].items()))
    with open(path, "w") as handle:
        json.dump(committed, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="tiny inputs (the benchmark's self-test)",
    )
    parser.add_argument(
        "--expected", default=None, metavar="JSON",
        help="digest file to check against instead of digests.json",
    )
    parser.add_argument(
        "--record-digests", action="store_true",
        help="write this run's digests to perfbench/digests.json (seed 0 "
        "only; run with enough --seconds to exhaust every operation)",
    )
    args = parser.parse_args()
    if args.record_digests and (args.seed != 0 or args.tiny):
        parser.error("--record-digests needs --seed 0 and full-size inputs")
    root = os.getcwd()
    build = os.path.join(root, ".bench_build", "perfbench")
    try:
        env, fingerprint = prepare(root, build)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        reports = {
            name: run_workload(name, args, env, fingerprint, build)
            for name in names
        }
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.record_digests:
        record_digests(reports, fingerprint)
    metrics: dict = {}
    attempted = failed = 0
    correct = True
    for name, report in reports.items():
        describe(name, report, args.trace, fingerprint)
        block, missing = metric_block(report, args.trace)
        if missing:
            print(f"  FAILED: metrics not measured: {', '.join(missing)}")
            correct = False
        if args.trace and report.get("per_layer", {}).get("obs.trace_dropped"):
            print("  FAILED: trace dropped spans; the traced run is invalid")
            correct = False
        prefix = "" if len(reports) == 1 else f"{name}."
        metrics.update({prefix + key: value for key, value in block.items()})
        attempted += report["attempted"]
        failed += report["failed"]
    correct = correct and failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
