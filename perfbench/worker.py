"""The workload process: set up, warm up, run timed operations, report.

Run by ``perfbench/run.py`` (never directly by users)::

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --rundir DIR --spawned T [--probe]

Every workload is a closed loop: one client, one operation at a time.
The seed generates every input (ground seeds, gammas, and the datasets
or the order of a fixed dataset pool); the program only ever sees the
generated specs.  Each operation's
``RunResult`` pickle digests are checked against the digests committed
in ``digests.json`` (default seed, matching host fingerprint) and against
every repeat of the same spec within the run; a mismatch or exception
fails that operation and the run carries on.  The report lands in
``DIR/report.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402
import layers  # noqa: E402

from repro.analysis.scenarios import DatasetSpec, ScenarioSpec  # noqa: E402
from repro.core.config import EarthPlusConfig  # noqa: E402
from repro.obs import metrics, trace  # noqa: E402
from repro.store.backend import ExperimentStore, open_store  # noqa: E402
from repro.store.runner import run_scenarios_cached  # noqa: E402

#: The seed whose digests ``digests.json`` commits.
DEFAULT_SEED = 0

DIGESTS_PATH = os.path.join(HERE, "digests.json")


def cpu_seconds() -> float:
    """CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
    )


class Outcome:
    """What one operation produced.

    Attributes:
        digests: Check key (one per spec, ``<policy>/...``) -> digest.
        summaries: Check key -> :func:`common.summarize` of each result
            the operation simulated (store hits are not simulated).
        spans: Span records shipped from child processes.
        counters: Counter increments made in child processes.
        setup_s: Set-up seconds measured inside the operation, if any.
        stats: ``SchedulerStats`` of each worker-pool sweep, if any.
        verify: Untimed check run after the operation (returns problems).
        rerun: Runs the same specs again, untraced (returns an Outcome);
            set by workloads whose operations never repeat a spec.
    """

    def __init__(self) -> None:
        self.digests: dict[str, str] = {}
        self.summaries: dict[str, dict] = {}
        self.spans: list = []
        self.counters: dict = {}
        self.setup_s: float | None = None
        self.stats: list = []
        self.verify = None
        self.rerun = None


class Workload:
    """One benchmark workload (subclasses define the inputs and operation)."""

    name = ""
    #: Operations available to one run (the timed loop stops early when
    #: a fast host exhausts them).
    max_ops = 1_000_000
    #: Whether operations never repeat a spec, so an untraced run
    #: re-simulates its first operation's specs to check determinism (a
    #: traced run checks each operation against its traced twin).
    rerun_first = False

    def __init__(self, seed: int, tiny: bool, rundir: str) -> None:
        self.tiny = tiny
        self.rundir = rundir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.raw_checked = 0
        self.raw_mismatches = 0

    def gammas(self, centers) -> list[float]:
        """One gamma drawn within 0.02 of each center."""
        return [
            round(self.rng.uniform(center - 0.02, center + 0.02), 3)
            for center in centers
        ]

    def warm_up(self) -> Outcome | None:
        """Untimed work before the timed operations (ends set-up)."""
        return None

    def operation(self, index: int, traced: bool) -> Outcome:
        raise NotImplementedError

    def extra_fidelity(self, outcomes: list[Outcome]) -> dict:
        return {}

    def note_raw_pickles(self, raw_digests, rereads) -> None:
        """Count store re-reads whose raw pickle differs from the result's.

        The checks compare pooled digests (see :func:`common.digest`);
        this keeps the raw-pickle difference visible in the report.
        """
        for raw, reread in zip(raw_digests, rereads):
            if reread is not None:
                self.raw_checked += 1
                self.raw_mismatches += common.raw_digest(reread) != raw


class InProcess(Workload):
    """Scenarios simulated in this process, store and pool off.

    Subclasses fill :attr:`combos` with ``(tag, dataset, gamma)``; one
    operation runs :attr:`policies` on one combo.  The warm-up runs the
    first combination, then renders and caches the imagery of every
    other dataset in the pool.
    """

    policies: tuple[str, ...] = ()
    config: dict = {}
    #: Datasets in the workload's fixed pool (see :meth:`pool`).
    n_datasets = 0

    def pool(self, location: str, days: float, size: int) -> list:
        """The fixed dataset pool as ``(index, spec)``, in seeded order.

        The pool's dataset seeds do not depend on the run's seed.  A
        sentinel2 dataset's cost per visit varies by tens of percent with
        how many of its captures are clear, and a run holds too few
        datasets to average that out, so runs on seed-drawn datasets
        would measure different inputs.  The run's seed chooses the
        order in which the pool is walked, the gammas and the ground
        seed.
        """
        fixed = random.Random(f"{self.name}:pool")
        entries = [
            (
                index,
                DatasetSpec.of(
                    "sentinel2",
                    locations=[location],
                    bands=["B4", "B11"],
                    horizon_days=30.0 if self.tiny else days,
                    image_shape=(64, 64) if self.tiny else (size, size),
                    seed=fixed.randrange(1, 2**31),
                ),
            )
            for index in range(self.n_datasets)
        ]
        self.rng.shuffle(entries)
        return entries

    def walk(self, entries, gammas) -> None:
        """Fill :attr:`combos`: every operation changes the dataset, and
        each pass over the pool shifts which gamma a dataset gets."""
        self.combos = []
        for position in range(len(entries) * len(gammas)):
            index, dataset = entries[position % len(entries)]
            gamma = gammas[(position // len(entries) + position) % len(gammas)]
            self.combos.append((f"d{index}/g{gamma}", dataset, gamma))

    def specs(self, position: int):
        tag, dataset, gamma = self.combos[position % len(self.combos)]
        return [
            ScenarioSpec(
                policy=policy,
                dataset=dataset,
                config=EarthPlusConfig(gamma_bpp=gamma, **self.config),
                seed=self.ground_seed,
                label=f"{policy}/{tag}",
            )
            for policy in self.policies
        ]

    def run_in_process(self, specs) -> Outcome:
        outcome = Outcome()
        results = run_scenarios_cached(specs, max_workers=1, store=None)
        for spec, result in zip(specs, results.results):
            key = spec.resolved_label()
            outcome.digests[key] = common.digest(result)
            outcome.summaries[key] = common.summarize(result)
        outcome.rerun = lambda: self.run_in_process(specs)
        return outcome

    def warm_up(self) -> Outcome:
        outcome = self.run_in_process(self.specs(0))
        for _index, spec in self.entries[1:]:
            dataset = spec.build()
            for visit in dataset.schedule.all_visits_sorted():
                dataset.sensors[visit.location].capture(
                    visit.satellite_id, visit.t_days
                )
        return outcome

    def operation(self, index, traced) -> Outcome:
        return self.run_in_process(self.specs(1 + index))


class TimeseriesWarm(InProcess):
    """Figure-13 policy set at sentinel2 location B, 365 days, 192 px.

    Operations walk a pool of six datasets at three gammas, changing
    both the dataset and the gamma every operation.
    """

    name = "timeseries-warm"
    policies = ("earthplus", "kodan", "satroi")
    rerun_first = True
    n_datasets = 6

    def __init__(self, seed, tiny, rundir) -> None:
        super().__init__(seed, tiny, rundir)
        self.entries = self.pool("B", 365.0, 192)
        self.ground_seed = self.rng.randrange(0, 2**31)
        self.walk(self.entries, self.gammas((0.2, 0.3, 0.4)))

    def extra_fidelity(self, outcomes) -> dict:
        """Downlink saving over each distinct spec run (bytes summed)."""
        downlink: dict[str, dict[str, int]] = {}
        for outcome in outcomes:
            for key, summary in outcome.summaries.items():
                policy, tag = key.split("/", 1)
                downlink.setdefault(policy, {})[tag] = summary[
                    "downlink_bytes"
                ]
        totals = {
            policy: sum(by_tag.values()) for policy, by_tag in downlink.items()
        }
        baseline = min(totals["kodan"], totals["satroi"])
        earthplus = totals["earthplus"]
        return {"downlink_saving_x": baseline / earthplus if earthplus else 0.0}


class RealCodec(InProcess):
    """Earth+ on the real entropy-coded codec, sentinel2 location A.

    120 days at 128 px.  Operations walk a pool of eight datasets at two
    gammas, changing the dataset every operation; the small size lets a
    run pass over the pool about twice.
    """

    name = "real-codec"
    policies = ("earthplus",)
    config = {"codec_backend": "real"}
    rerun_first = True
    n_datasets = 8

    def __init__(self, seed, tiny, rundir) -> None:
        super().__init__(seed, tiny, rundir)
        self.entries = self.pool("A", 120.0, 128)
        self.ground_seed = self.rng.randrange(0, 2**31)
        self.walk(self.entries, self.gammas((0.25, 0.35)))


class ColdSimulate(Workload):
    """``repro simulate`` at CLI defaults, one fresh interpreter per op."""

    name = "cold-simulate"
    max_ops = 24
    rerun_first = True

    def __init__(self, seed, tiny, rundir) -> None:
        super().__init__(seed, tiny, rundir)
        self.ground_seeds = self.rng.sample(range(1, 1_000_000), self.max_ops)
        self.stores = {
            traced: os.path.join(rundir, f"store-{int(traced)}")
            for traced in (False, True)
        }

    def command(self, ground_seed: int) -> list[str]:
        command = ["simulate", "--seed", str(ground_seed), "--format", "json"]
        if self.tiny:
            command += ["--days", "20", "--size", "64", "--locations", "A"]
        return command

    def launch(self, ground_seed: int, store: str, traced: bool) -> dict:
        tag = f"{ground_seed}-{int(traced)}-{time.perf_counter_ns()}"
        out = os.path.join(self.rundir, f"launch-{tag}.json")
        stamp = os.path.join(self.rundir, f"stamp-{tag}")
        argv = [
            sys.executable, os.path.join(HERE, "launch.py"),
            "--out", out, "--stamp", stamp,
        ]
        if traced:
            argv.append("--trace")
        env = dict(os.environ, REPRO_STORE=store)
        spawned = time.perf_counter()
        subprocess.run(
            argv + ["--"] + self.command(ground_seed),
            env=env, check=True, stdout=subprocess.DEVNULL,
        )
        with open(out) as handle:
            report = json.load(handle)
        report["setup_s"] = layers.first_stamp(stamp) - spawned
        return report

    def operation(self, index, traced) -> Outcome:
        ground_seed = self.ground_seeds[index]
        store = self.stores[traced]
        report = self.launch(ground_seed, store, traced)
        key = f"earthplus/seed{ground_seed}"
        outcome = Outcome()
        outcome.digests[key] = report["digest"]
        outcome.summaries[key] = report["summary"]
        outcome.spans = [tuple(record) for record in report["spans"]]
        outcome.counters = report["counters"]
        outcome.counters["trace.dropped"] = report["dropped"]
        outcome.setup_s = report["setup_s"]

        def verify() -> list[str]:
            with ExperimentStore(store) as fresh:
                reread = fresh.get(report["key"])
            self.note_raw_pickles([report["raw_digest"]], [reread])
            if reread is None or common.digest(reread) != report["digest"]:
                return [f"{key}: store re-read differs from the result"]
            return []

        outcome.verify = verify
        outcome.rerun = lambda: self.rerun_untraced(ground_seed)
        return outcome

    def rerun_untraced(self, ground_seed: int) -> Outcome:
        """The same simulation again, untraced, against a fresh store."""
        store = os.path.join(self.rundir, f"store-rerun-{ground_seed}")
        report = self.launch(ground_seed, store, traced=False)
        outcome = Outcome()
        outcome.digests[f"earthplus/seed{ground_seed}"] = report["digest"]
        return outcome


class SweepPool(Workload):
    """``run_scenarios_cached`` sweeps on a worker pool with sharding.

    Every operation sweeps three constellation pairs (8 and 24
    satellites) that no earlier operation simulated, at one fresh ground
    seed, and reads the previous operation's results back as store hits
    (the warm-up stores the first operation's).  A run therefore samples
    six new datasets per operation: one dataset's cost per visit varies
    with its cloud cover, and a week of a constellation holds too few
    captures to average that out.
    """

    name = "sweep-pool"
    max_ops = 16
    n_pairs = 3

    def __init__(self, seed, tiny, rundir) -> None:
        super().__init__(seed, tiny, rundir)
        days = 4.0 if tiny else 7.0
        size = (48, 48) if tiny else (96, 96)
        # Entry 0 is the warm-up's; operation ``i`` simulates entry i + 1.
        self.rounds = [
            [
                [
                    DatasetSpec.of(
                        "planet",
                        n_satellites=n,
                        horizon_days=days,
                        image_shape=size,
                        seed=self.rng.randrange(1, 2**31),
                    )
                    for n in ((4, 8) if tiny else (8, 24))
                ]
                for _ in range(self.n_pairs)
            ]
            for _ in range(self.max_ops + 1)
        ]
        self.sweep_gammas = self.gammas((0.2, 0.3))
        self.ground_seeds = self.rng.sample(
            range(1, 1_000_000), self.max_ops + 1
        )
        self.workers = os.cpu_count() or 1
        self.stores = {
            traced: os.path.join(rundir, f"store-{int(traced)}")
            for traced in (False, True)
        }

    def specs(self, position: int):
        """The specs of round ``position``: its pairs at its ground seed."""
        ground_seed = self.ground_seeds[position]
        return [
            ScenarioSpec(
                policy="earthplus",
                dataset=dataset,
                config=EarthPlusConfig(gamma_bpp=gamma, ground_sync_days=3.0),
                seed=ground_seed,
                label=(
                    f"earthplus/r{position}/p{pair}"
                    f"/n{dict(dataset.params)['n_satellites']}"
                    f"/g{gamma}/s{ground_seed}"
                ),
            )
            for pair, datasets in enumerate(self.rounds[position])
            for dataset in datasets
            for gamma in self.sweep_gammas
        ]

    def sweep(self, specs, traced: bool) -> Outcome:
        """One cache-aware sweep; results digested, re-read check attached."""
        outcome = Outcome()
        store_path = self.stores[traced]
        sweep = run_scenarios_cached(
            specs,
            max_workers=self.workers,
            store=open_store(store_path),
            shards=2,
            stats_sink=outcome.stats.append,
        )
        executed = set(sweep.executed)
        for position, (spec, result) in enumerate(zip(specs, sweep.results)):
            key = spec.resolved_label()
            outcome.digests[key] = common.digest(result)
            if position in executed:
                outcome.summaries[key] = common.summarize(result)

        def verify() -> list[str]:
            with ExperimentStore(store_path) as fresh:
                reread = fresh.get_many(sweep.keys)
            self.note_raw_pickles(
                [common.raw_digest(result) for result in sweep.results],
                [reread[key] for key in sweep.keys],
            )
            return [
                f"{spec.resolved_label()}: store re-read differs"
                for spec, key in zip(specs, sweep.keys)
                if reread[key] is None
                or common.digest(reread[key])
                != outcome.digests[spec.resolved_label()]
            ]

        outcome.verify = verify
        return outcome

    def warm_up(self) -> Outcome:
        outcome = self.sweep(self.specs(0), traced=False)
        shutil.copytree(self.stores[False], self.stores[True])
        return outcome

    def operation(self, index, traced) -> Outcome:
        return self.sweep(self.specs(index) + self.specs(index + 1), traced)


WORKLOADS = {
    cls.name: cls for cls in (ColdSimulate, TimeseriesWarm, RealCodec, SweepPool)
}


def load_expected(name: str, fingerprint: dict) -> tuple[dict, str]:
    """Committed digests for ``name`` and whether they apply here."""
    try:
        with open(DIGESTS_PATH) as handle:
            committed = json.load(handle)
    except FileNotFoundError:
        return {}, "none committed"
    if committed.get("fingerprint") != common.identity_fingerprint(
        fingerprint
    ):
        return {}, "fingerprint differs (repeat checks only)"
    return committed["workloads"].get(name, {}), "committed"


class Checker:
    """Digest checks: committed expectations plus in-run repeats."""

    def __init__(self, expected: dict) -> None:
        self.expected = expected
        self.seen: dict[str, str] = {}

    def check(self, digests: dict[str, str]) -> list[str]:
        problems = []
        for key, value in digests.items():
            want = self.expected.get(key, self.seen.get(key))
            if want is not None and want != value:
                problems.append(f"{key}: digest {value} != expected {want}")
            self.seen.setdefault(key, value)
        return problems


def run_workload(args) -> dict:
    workload = WORKLOADS[args.workload](args.seed, args.tiny, args.rundir)
    stamp = os.path.join(args.rundir, "stamp-worker")
    if args.trace:
        layers.install()
    layers.install_setup_stamp(stamp, stop=args.probe)
    if args.probe:
        try:
            workload.warm_up()
        except Exception:  # the set-up probe ends here by design
            pass
        if layers.first_stamp(stamp) is None:
            raise RuntimeError("set-up probe never reached the visit loop")
        return {}

    fingerprint = json.loads(args.fingerprint)
    expected, digest_source = (
        load_expected(workload.name, fingerprint)
        if args.seed == DEFAULT_SEED and not args.tiny
        else ({}, "repeat checks only")
    )
    if args.expected is not None:
        with open(args.expected) as handle:
            expected = json.load(handle)["workloads"].get(workload.name, {})
        digest_source = args.expected
    checker = Checker(expected)
    problems: list[str] = []

    attempted = failed = 0
    warm_started = time.perf_counter()
    warm = workload.warm_up()
    warm_up_s = time.perf_counter() - warm_started
    setup = layers.first_stamp(stamp)
    if warm is not None:
        attempted += 1
        warm_problems = checker.check(warm.digests)
        if warm.verify is not None:
            warm_problems += warm.verify()
        if warm_problems:
            failed += 1
            problems += [f"warm-up: {text}" for text in warm_problems]

    # Operation index -> (wall, cpu, outcome[, spans, counters]).
    untraced: dict[int, tuple] = {}
    traced: dict[int, tuple] = {}
    deadline = time.perf_counter() + args.seconds
    index = 0
    while index < workload.max_ops:
        # A traced run pairs each operation with a traced twin, and
        # alternates which of the two goes first so order effects cancel
        # out of obs.trace_overhead_frac.
        order = (False, True) if index % 2 == 0 else (True, False)
        for is_traced in order if args.trace else (False,):
            attempted += 1
            tracer = None
            counter_base = metrics.counters().snapshot()
            if is_traced:
                tracer = trace.enable_tracer(capacity=common.TRACE_CAPACITY)
            cpu_started = cpu_seconds()
            started = time.perf_counter()
            try:
                with trace.span(layers.OP_SPAN):
                    outcome = workload.operation(index, is_traced)
            except Exception as exc:  # counted as a failed operation
                failed += 1
                problems.append(f"op {index}: {type(exc).__name__}: {exc}")
                trace.disable_tracer()
                continue
            wall = time.perf_counter() - started
            cpu = cpu_seconds() - cpu_started
            if tracer is not None:
                trace.disable_tracer()
                counters = metrics.counters().diff(counter_base).values
                for name, value in outcome.counters.items():
                    counters[name] = counters.get(name, 0) + value
                counters["trace.dropped"] = (
                    counters.get("trace.dropped", 0) + tracer.dropped
                )
                spans = tracer.spans() + outcome.spans
                traced[index] = (wall, cpu, outcome, spans, counters)
            else:
                untraced[index] = (wall, cpu, outcome)
            op_problems = checker.check(outcome.digests)
            if outcome.verify is not None:
                op_problems += outcome.verify()
            if op_problems:
                failed += 1
                problems += op_problems
        index += 1
        if time.perf_counter() >= deadline:
            break

    outcomes = [entry[2] for entry in untraced.values()]
    if (
        workload.rerun_first
        and outcomes
        and not args.trace
        and digest_source != "committed"
    ):
        attempted += 1
        rerun_problems = checker.check(outcomes[0].rerun().digests)
        if rerun_problems:
            failed += 1
            problems += [f"rerun: {text}" for text in rerun_problems]

    report = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digest_source": digest_source,
        "digests": checker.seen,
        "warm_up_s": warm_up_s,
        "setup_samples": [],
        "ops": len(untraced),
        "op_walls": [entry[0] for entry in untraced.values()],
        "raw_pickle_mismatches": [
            workload.raw_mismatches, workload.raw_checked,
        ],
    }
    if setup is not None:
        report["setup_samples"].append(setup - args.spawned)
    report["setup_samples"] += [
        outcome.setup_s for outcome in outcomes if outcome.setup_s is not None
    ]
    if untraced:
        report["end_to_end"] = end_to_end(workload, list(untraced.values()))
    if traced:
        report["per_layer"] = per_layer(workload, untraced, traced)
    return report


def end_to_end(workload: Workload, untraced) -> dict:
    """End-to-end values over the timed untraced operations.

    Rates are medians of per-operation ratios, so a burst of host
    slowness that hits a few operations, or one dataset that is larger
    than the others, moves them no more than it moves ``wall_s``.
    """
    walls, rates, cpu_per_visit = [], [], []
    for wall, cpu, outcome in untraced:
        visits = sum(s["visits"] for s in outcome.summaries.values())
        walls.append(wall)
        rates.append(visits / wall)
        cpu_per_visit.append(1e3 * cpu / visits)
    psnr_by_key = {
        key: summary["psnr_db"]
        for _wall, _cpu, outcome in untraced
        for key, summary in outcome.summaries.items()
        if key.split("/")[0] == "earthplus"
        and math.isfinite(summary["psnr_db"])
    }
    values = {
        "wall_s": statistics.median(walls),
        "visits_per_s": statistics.median(rates),
        "cpu_per_visit_ms": statistics.median(cpu_per_visit),
        "psnr_db": (
            statistics.fmean(psnr_by_key.values()) if psnr_by_key else 0.0
        ),
    }
    values.update(workload.extra_fidelity([e[2] for e in untraced]))
    return values


def per_layer(workload: Workload, untraced: dict, traced: dict) -> dict:
    """Per-layer values over the traced operations, per operation.

    ``obs.trace_overhead_frac`` is the median, over operations run both
    ways, of traced wall over untraced wall, minus 1: each pair runs the
    same specs, so input differences cancel.
    """
    ops = len(traced)
    spans = [record for entry in traced.values() for record in entry[3]]
    process_wall = 0.0
    for wall, _cpu, _outcome, op_spans, _counters in traced.values():
        tracks = {None} | {
            record[3].get("worker") for record in op_spans if record[3]
        }
        process_wall += wall * len(tracks)
    values = layers.layer_metrics(spans, ops, process_wall)
    counters: dict = {}
    for entry in traced.values():
        for name, value in entry[4].items():
            counters[name] = counters.get(name, 0) + value
    lookups = counters.get("store.hit", 0) + counters.get("store.miss", 0)
    summaries = [
        summary
        for entry in traced.values()
        for summary in entry[2].summaries.values()
    ]
    stats = [stat for entry in traced.values() for stat in entry[2].stats]
    worker_cpu = sum(stat.worker_cpu_s for stat in stats)
    worker_wall = sum(stat.wall_s * stat.workers for stat in stats)
    overheads = [
        traced[index][0] / untraced[index][0]
        for index in traced
        if index in untraced
    ]
    values.update(
        {
            "uplink.bytes_planned": sum(
                s["uplink_bytes"] for s in summaries
            ) / ops,
            "uplink.updates_skipped": sum(
                s["updates_skipped"] for s in summaries
            ) / ops,
            "analysis.scheduler.spawns": sum(s.spawns for s in stats) / ops,
            "analysis.scheduler.tasks_run": sum(s.tasks_run for s in stats)
            / ops,
            "analysis.scheduler.worker_cpu_s": worker_cpu / ops,
            "analysis.scheduler.worker_util": (
                worker_cpu / worker_wall if worker_wall else 0.0
            ),
            "store.hit_ratio": (
                counters.get("store.hit", 0) / lookups if lookups else 0.0
            ),
            "obs.trace_dropped": counters.get("trace.dropped", 0),
            "obs.trace_overhead_frac": (
                statistics.median(overheads) - 1.0 if overheads else 0.0
            ),
            "baselines.downlink_saving_x": workload.extra_fidelity(
                [entry[2] for entry in traced.values()]
            ).get("downlink_saving_x", 0.0),
        }
    )
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rundir", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--fingerprint", default="{}")
    parser.add_argument("--expected", default=None)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    report = run_workload(args)
    if not args.probe:
        with open(os.path.join(args.rundir, "report.json"), "w") as handle:
            json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
