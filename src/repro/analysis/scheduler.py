"""Unified sweep scheduler: one persistent warm worker pool for specs x shards.

Before this module, a sweep had two mutually-exclusive parallelism axes:
``max_workers`` fanned whole scenarios over a ``ProcessPoolExecutor``,
and ``shards`` forked a fresh set of shard processes *per scenario*
(paying worker spawn and cold per-process caches ``n_specs`` times, and
idling every other core while one scenario's shards waited at its
``ground_sync_days`` epoch barriers).

:class:`SweepScheduler` replaces both with one substrate: a sweep
becomes a DAG of **spec-tasks** (run a whole scenario) and **shard-tasks**
(run one satellite bucket of a scenario, exchanging epoch journals
through the scheduler), executed by a single set of long-lived forked
workers spawned once per sweep.  Workers pull tasks from a shared queue,
so scheduling is work-stealing by construction — any idle worker takes
the next ready task, and while one scenario's shards sit at an epoch
barrier, tasks from *other* scenarios fill the remaining workers.  Each
worker keeps its warm per-process state (dataset cache, capture/surface
caches, memoized visit ordering — see :mod:`repro.perf`) across every
task it runs, so only the first task over a dataset pays synthesis.

Scheduling topology never changes bytes.  The scheduler only decides
*when* work runs, never *what* merges: shard partials fold with the
monoid :meth:`~repro.core.accounting.RunResult.merge` in ascending shard
order, epoch journals are concatenated in ascending shard order and
canonically sorted (:func:`~repro.core.sharding.canonical_ingests` /
:func:`~repro.core.sharding.canonical_marks`) exactly as the sequential
epoch-synchronized loop sorts its own journal, and spec-tasks are plain
:func:`~repro.analysis.scenarios.run_scenario` calls.  A joint
``workers=N, shards_per_scenario=M`` sweep is therefore
pickle-byte-identical to running every spec sequentially
(differential-tested in ``tests/integration/test_sweep_scheduler.py``).

Backpressure is structural: at most ``workers`` tasks are in flight at
any moment (a task is enqueued only against an idle worker slot, and a
shard group is enqueued only when a full gang of slots is free, which is
also what makes the epoch-barrier rendezvous deadlock-free).  Journal
exchange that used to ride per-scenario ad-hoc ``Pipe`` pairs is routed
through the scheduler's shared result queue as messages keyed by
``(scenario, epoch)``; merged journals return on a per-worker pipe.

:func:`execute_task` is the one task body: the in-process path and every
pool worker run each spec or shard task through it, so span, CPU timing
and the ``cpu_total`` profile entry are set up in one place.  A plan
that cannot use more than one worker (one unsharded spec, or a pool of
one) runs in-process and forks nothing.

Per-sweep :class:`SchedulerStats` (tasks run, worker spawns, barrier-idle
seconds, per-task CPU) surface through ``repro sweep --profile`` so
scheduling regressions are observable from the CLI.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.accounting import RunResult
from repro.core.sharding import canonical_ingests, canonical_marks
from repro.errors import ConfigError, ScenarioError
from repro.obs import metrics, trace

__all__ = ["SchedulerStats", "SweepScheduler", "execute_task"]


@dataclass(frozen=True)
class _Task:
    """One unit of worker-pool work (a whole scenario or one shard of one).

    Attributes:
        task_id: Unique id within one scheduler run.
        kind: ``"spec"`` (run the whole scenario) or ``"shard"``.
        spec_index: Position of the scenario in the sweep's spec list.
        spec: The scenario description (picklable by contract).
        shard_index: This task's shard slot (shard tasks only).
        shard_count: Total shards of this scenario (shard tasks only).
        satellite_ids: The shard's satellite bucket (shard tasks only).
        trace: Whether the worker should run with a span tracer on and
            ship its spans, totals and counter deltas with the result.
            Set automatically when the driver has an active tracer.
    """

    task_id: int
    kind: str
    spec_index: int
    spec: object
    shard_index: int = 0
    shard_count: int = 1
    satellite_ids: tuple[int, ...] = ()
    trace: bool = False


@dataclass
class SchedulerStats:
    """Per-sweep scheduling observability (``repro sweep --profile``).

    Attributes:
        workers: Pool size the sweep ran with (clamped to the tasks the
            plan holds; 1 for an in-process run).
        spawns: Worker processes spawned — once per sweep by design
            (the legacy sharded path spawned ``n_specs x shards``).
        tasks_run: Tasks executed (spec tasks + shard tasks).
        spec_tasks: Whole-scenario tasks among them.
        shard_tasks: Shard tasks among them.
        barrier_idle_s: Total seconds shard tasks spent blocked at epoch
            barriers waiting for merged journals (summed across workers;
            the scheduler fills this time with other scenarios' tasks
            when the pool is larger than one shard group).
        task_cpu_s: CPU seconds of each task, keyed by
            ``(spec_index, shard_index)`` (shard index 0 for spec
            tasks).  Shard tasks time the run only, not simulator
            construction.
        wall_s: Driver wall time for the whole sweep.
    """

    workers: int = 0
    spawns: int = 0
    tasks_run: int = 0
    spec_tasks: int = 0
    shard_tasks: int = 0
    barrier_idle_s: float = 0.0
    task_cpu_s: dict[tuple[int, int], float] = field(default_factory=dict)
    wall_s: float = 0.0

    @property
    def worker_cpu_s(self) -> float:
        """Total task CPU seconds across all workers."""
        return sum(self.task_cpu_s.values())

    def rows(self) -> list[dict]:
        """Stat/value rows for the CLI ``--profile`` table."""
        return [
            {"stat": "workers", "value": self.workers},
            {"stat": "worker_spawns", "value": self.spawns},
            {"stat": "tasks_run", "value": self.tasks_run},
            {"stat": "spec_tasks", "value": self.spec_tasks},
            {"stat": "shard_tasks", "value": self.shard_tasks},
            {
                "stat": "barrier_idle_s",
                "value": round(self.barrier_idle_s, 6),
            },
            {"stat": "worker_cpu_s", "value": round(self.worker_cpu_s, 6)},
            {"stat": "wall_s", "value": round(self.wall_s, 6)},
        ]


def execute_task(
    task: _Task, dataset=None, exchange: Callable | None = None
) -> tuple[RunResult, float]:
    """Run one spec or shard task: the only place a task body executes.

    The task runs under a ``spec_task``/``shard_task`` span with
    ``scenario`` (and ``shard``) attribution, its CPU time is measured,
    and that time is added to the installed tracer's totals as
    ``cpu_total`` (the ``--profile`` table's ``total`` row).

    Args:
        task: The task.
        dataset: A spec task's already-built dataset, if the driver
            holds one (the planner built it to try a partition).
        exchange: A shard task's epoch hook ``(epoch, ingests, marks)
            -> (ingests, marks)`` returning the gang's merged journal.

    Returns:
        ``(result, cpu_seconds)``.  Shard tasks time the run only, not
        simulator construction, so critical-path projections compare
        simulation work alone.
    """
    # Imported lazily so a spawn-context worker re-imports cleanly;
    # under fork this resolves to the already-loaded module (including
    # any monkeypatching the driver process carries).
    from repro.analysis import scenarios

    shard = task.shard_index if task.kind == "shard" else None
    with trace.trace_context(scenario=task.spec.resolved_label(), shard=shard):
        if task.kind == "shard":
            simulator = scenarios.build_simulator(task.spec)
            cpu_started = time.process_time()
            with trace.span("shard_task"):
                result = simulator.run(
                    satellite_ids=task.satellite_ids, epoch_sync=exchange
                )
        else:
            cpu_started = time.process_time()
            with trace.span("spec_task"):
                if dataset is None:
                    result = scenarios.run_scenario(task.spec)
                else:
                    result = scenarios.run_scenario(task.spec, dataset=dataset)
        cpu_seconds = time.process_time() - cpu_started
    tracer = trace.active_tracer()
    if tracer is not None:
        tracer.add_total("cpu_total", cpu_seconds)
    return result, cpu_seconds


def _pool_worker(worker_id: int, task_queue, result_queue, reply_conn) -> None:
    """One long-lived pool worker: pull tasks until the ``None`` sentinel.

    Protocol (worker side), all on the shared ``result_queue``:

    * ``("start", worker_id, task_id)`` on dequeue (lets the driver
      attribute a later worker death to the task it was running);
    * per epoch of a shard task,
      ``("epoch", worker_id, task_id, epoch, ingests, marks)`` — then
      block on ``reply_conn`` for the merged ``(ingests, marks)``;
    * ``("done", worker_id, task_id, result, barrier_idle_s,
      cpu_seconds, telemetry, counter_delta)`` or
      ``("error", worker_id, task_id, traceback_text)``.

    ``telemetry`` is the task's tracer partial ``(spans, dropped,
    totals)`` (None for untraced tasks) and ``counter_delta`` the task's
    global counter increments as a plain dict — both telemetry-only
    payloads the driver folds into its own tracer/counters, never into
    results.

    Warm per-process caches (datasets, captures, noise geometry) persist
    across tasks — that is the point of the pool — and never change
    results (the determinism contract of :mod:`repro.analysis.scenarios`).
    """
    while True:
        task = task_queue.get()
        if task is None:
            break
        result_queue.put(("start", worker_id, task.task_id))
        try:
            tracer = None
            if task.trace:
                # Fork inherits the driver's tracer object; install a
                # fresh one so each task ships only its own spans and
                # totals, stamped with the worker it ran on.
                tracer = trace.enable_tracer()
                trace.reset_context()
                trace.set_context(worker=worker_id)
            counter_base = metrics.counters().snapshot()
            barrier_idle = 0.0

            def exchange(epoch, ingests, marks):
                nonlocal barrier_idle
                result_queue.put(
                    ("epoch", worker_id, task.task_id, epoch, ingests, marks)
                )
                waited = time.perf_counter()
                with trace.span("barrier_wait", epoch=epoch):
                    merged = reply_conn.recv()
                barrier_idle += time.perf_counter() - waited
                return merged

            result, cpu_seconds = execute_task(task, exchange=exchange)
            telemetry = None
            if tracer is not None:
                telemetry = (tracer.spans(), tracer.dropped, tracer.totals)
            result_queue.put(
                (
                    "done",
                    worker_id,
                    task.task_id,
                    result,
                    barrier_idle,
                    cpu_seconds,
                    telemetry,
                    metrics.counters().diff(counter_base).values,
                )
            )
        except Exception:
            result_queue.put(
                ("error", worker_id, task.task_id, traceback.format_exc())
            )
        finally:
            trace.disable_tracer()
            trace.reset_context()
    reply_conn.close()


@dataclass
class _Unit:
    """One schedulable unit: a single spec task or a gang of shard tasks.

    ``dataset`` is a spec task's dataset when the planner already built
    it (a partition attempt that collapsed to one bucket); only the
    in-process path uses it — pool workers inherit the built dataset
    through the fork-time dataset cache instead of a pickled copy.
    """

    tasks: list
    dataset: object = None

    @property
    def size(self) -> int:
        return len(self.tasks)


class _Delivery:
    """Driver-side bookkeeping shared by the in-process and pooled paths.

    Counts tasks into the stats, reports progress, folds shard partials
    in ascending shard order, and hands each finished scenario to the
    results list and the streaming hook.
    """

    def __init__(self, specs, stats, on_result, progress) -> None:
        self.specs = specs
        self.stats = stats
        self.on_result = on_result
        self.progress = progress
        self.results: list[RunResult | None] = [None] * len(specs)
        self.completed = 0
        #: spec_index -> shard_index -> RunResult partial
        self._partials: dict[int, dict[int, RunResult]] = {}

    def started(self, task: _Task) -> None:
        if self.progress is not None:
            self.progress.task_started()
        self.stats.tasks_run += 1
        if task.kind == "shard":
            self.stats.shard_tasks += 1
        else:
            self.stats.spec_tasks += 1

    def finished(self, task: _Task, result: RunResult, cpu_seconds: float) -> None:
        if self.progress is not None:
            self.progress.task_finished()
        self.stats.task_cpu_s[(task.spec_index, task.shard_index)] = cpu_seconds
        if task.kind == "spec":
            self._deliver(task.spec_index, result)
            return
        partials = self._partials.setdefault(task.spec_index, {})
        partials[task.shard_index] = result
        if len(partials) == task.shard_count:
            merged = RunResult.identity()
            for shard_index in sorted(partials):
                merged = merged.merge(partials[shard_index])
            del self._partials[task.spec_index]
            self._deliver(task.spec_index, merged)

    def _deliver(self, spec_index: int, result: RunResult) -> None:
        self.results[spec_index] = result
        self.completed += 1
        if self.progress is not None:
            self.progress.spec_done()
        if self.on_result is not None:
            self.on_result(spec_index, self.specs[spec_index], result)


class SweepScheduler:
    """Execute a sweep as spec/shard tasks over one warm worker pool.

    Args:
        workers: Pool size (worker processes spawned once per sweep),
            clamped to the number of tasks the plan holds.
        shards_per_scenario: Shard each eligible scenario (one whose
            config sets ``ground_sync_days > 0``) across this many
            shard tasks, clamped to the pool size.  ``1`` runs every
            scenario as a single spec task.
    """

    def __init__(self, workers: int, shards_per_scenario: int = 1) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if shards_per_scenario < 1:
            raise ConfigError(
                f"shards_per_scenario must be >= 1, got {shards_per_scenario}"
            )
        self.workers = workers
        self.shards_per_scenario = shards_per_scenario

    # -- planning ------------------------------------------------------
    def _plan(self, specs: Sequence) -> list[_Unit]:
        """Turn specs into schedulable units (shard gangs first).

        Shard gangs are ordered ahead of spec tasks so gangs claim whole
        worker blocks early and single-spec tasks backfill the leftover
        slots (including workers idled by another gang's epoch barrier);
        dispatch is first-fit over this order.  Ordering is pure
        scheduling policy — results are position-keyed and
        byte-invariant to it.
        """
        from repro.analysis.scenarios import _batch_error, _shardable_buckets

        groups: list[_Unit] = []
        singles: list[_Unit] = []
        # Tracing follows the ambient tracer: when the driver has one
        # (``--trace``/``--profile``), every task records and ships
        # spans — no parameter threading through the runner layers.
        traced = trace.active_tracer() is not None
        task_id = 0
        for index, spec in enumerate(specs):
            dataset = buckets = None
            if self.shards_per_scenario > 1:
                try:
                    dataset, buckets = _shardable_buckets(
                        spec, min(self.shards_per_scenario, self.workers)
                    )
                except ConfigError:
                    # Spec semantics (e.g. sharding without an epoch
                    # cadence) — not a batch execution failure.
                    raise
                except Exception as exc:
                    raise _batch_error(spec, index, exc) from exc
            if buckets is not None:
                tasks = [
                    _Task(
                        task_id=task_id + shard_index,
                        kind="shard",
                        spec_index=index,
                        spec=spec,
                        shard_index=shard_index,
                        shard_count=len(buckets),
                        satellite_ids=tuple(bucket),
                        trace=traced,
                    )
                    for shard_index, bucket in enumerate(buckets)
                ]
                task_id += len(buckets)
                groups.append(_Unit(tasks=tasks))
            else:
                task = _Task(
                    task_id=task_id,
                    kind="spec",
                    spec_index=index,
                    spec=spec,
                    trace=traced,
                )
                singles.append(_Unit(tasks=[task], dataset=dataset))
                task_id += 1
        return groups + singles

    # -- failure wrapping ----------------------------------------------
    @staticmethod
    def _task_failure(task: _Task, detail: str) -> ScenarioError:
        from repro.analysis.scenarios import _shard_failure

        if task.kind == "shard":
            return _shard_failure(
                task.spec, task.shard_index, task.shard_count, detail
            )
        return ScenarioError(
            f"scenario {task.spec.resolved_label()!r} "
            f"(spec {task.spec_index + 1} of a batch) failed: {detail}"
        )

    # -- execution -----------------------------------------------------
    def run(
        self,
        specs: Sequence,
        on_result: Callable | None = None,
        progress=None,
    ) -> tuple[list[RunResult], SchedulerStats]:
        """Run the sweep; results in spec order, byte-identical to sequential.

        Args:
            specs: The scenarios to run.
            on_result: Streaming hook ``(spec_index, spec, result)``,
                called as each *scenario* completes (completion order).
            progress: Optional :class:`~repro.obs.progress.SweepProgress`
                (or duck-type) receiving ``task_started``/``task_finished``
                per task and ``spec_done`` per delivered scenario.
                Display-only; never fed back into scheduling.

        Returns:
            ``(results, stats)``.  ``stats.spawns`` is 0 when the plan
            ran in-process.

        Raises:
            ConfigError: ``shards_per_scenario > 1`` against a spec
                without ``ground_sync_days`` (sharding is engine-only
                and must never change semantics, so the epoch journal is
                required, exactly as in the per-scenario sharded runner).
            ScenarioError: A task failed or its worker died; the message
                names the scenario label (and shard index for shard
                tasks) with the worker's traceback inline.
        """
        specs = list(specs)
        stats = SchedulerStats()
        started_wall = time.perf_counter()
        sweep = _Delivery(specs, stats, on_result, progress)
        units = self._plan(specs)
        stats.workers = min(self.workers, sum(unit.size for unit in units))
        if stats.workers == 1:
            self._run_inline(units, sweep)
        elif stats.workers > 1:
            self._run_pooled(units, sweep)
        stats.wall_s = time.perf_counter() - started_wall
        self._count_stats(stats)
        return sweep.results, stats  # type: ignore[return-value]

    @staticmethod
    def _count_stats(stats: SchedulerStats) -> None:
        """Fold the sweep's scheduling stats into the global counters."""
        bag = metrics.counters()
        bag.inc("sched.spawns", stats.spawns)
        bag.inc("sched.tasks_run", stats.tasks_run)
        bag.inc("sched.barrier_idle_s", stats.barrier_idle_s)

    def _run_inline(self, units: list[_Unit], sweep: _Delivery) -> None:
        """A plan one worker can run: execute in-process, no pool.

        One task cannot be a gang (a gang has two or more shards), and
        in-process execution is the byte-identity reference anyway.
        Spans record straight into the driver's own tracer here, so no
        buffer shipping is needed.
        """
        for unit in units:
            for task in unit.tasks:
                assert task.kind == "spec", "in-process plans have no gangs"
                sweep.started(task)
                try:
                    result, cpu_seconds = execute_task(
                        task, dataset=unit.dataset
                    )
                except ScenarioError:
                    raise
                except Exception as exc:
                    raise self._task_failure(task, str(exc)) from exc
                sweep.finished(task, result, cpu_seconds)

    def _run_pooled(self, units: list[_Unit], sweep: _Delivery) -> None:
        """The driver event loop over one persistent worker pool."""
        stats = sweep.stats
        context = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        task_queue = context.Queue()
        result_queue = context.Queue()
        workers: list[tuple] = []
        for worker_id in range(stats.workers):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_pool_worker,
                args=(worker_id, task_queue, result_queue, child_conn),
                daemon=True,
            )
            process.start()
            child_conn.close()
            workers.append((process, parent_conn))
        stats.spawns = stats.workers

        tasks_by_id = {
            task.task_id: task for unit in units for task in unit.tasks
        }
        pending_units = list(units)
        #: (spec_index, epoch) -> shard_index -> (worker_id, ingests, marks)
        epoch_buffers: dict[tuple[int, int], dict] = {}
        idle = stats.workers
        running: dict[int, int] = {}  # worker_id -> task_id (post-"start")
        failed = False

        def dispatch() -> None:
            # First-fit over the pending units: a gang goes out only
            # when a full block of idle slots exists (in-flight tasks
            # never exceed the pool — the backpressure bound — and every
            # gang member is guaranteed a worker, which makes the epoch
            # rendezvous deadlock-free); single spec tasks backfill any
            # remaining slots.
            nonlocal idle
            index = 0
            while index < len(pending_units):
                unit = pending_units[index]
                if unit.size <= idle:
                    for task in unit.tasks:
                        task_queue.put(task)
                    idle -= unit.size
                    del pending_units[index]
                else:
                    index += 1

        try:
            dispatch()
            while sweep.completed < len(sweep.specs):
                try:
                    message = result_queue.get(timeout=0.5)
                except queue_mod.Empty:
                    for worker_id, (process, _) in enumerate(workers):
                        if process.is_alive():
                            continue
                        detail = (
                            f"worker died without a result "
                            f"(exit code {process.exitcode})"
                        )
                        task_id = running.get(worker_id)
                        failed = True
                        if task_id is not None:
                            raise self._task_failure(
                                tasks_by_id[task_id], detail
                            )
                        raise ScenarioError(
                            f"sweep worker {worker_id} {detail}"
                        )
                    continue
                kind = message[0]
                if kind == "start":
                    _, worker_id, task_id = message
                    running[worker_id] = task_id
                    sweep.started(tasks_by_id[task_id])
                elif kind == "epoch":
                    _, worker_id, task_id, epoch, ingests, marks = message
                    task = tasks_by_id[task_id]
                    buffer = epoch_buffers.setdefault(
                        (task.spec_index, epoch), {}
                    )
                    buffer[task.shard_index] = (worker_id, ingests, marks)
                    if len(buffer) == task.shard_count:
                        # Concatenate in ascending shard order before the
                        # canonical sort — the exact accumulation order
                        # of the per-scenario sharded runner, so merged
                        # journals (and every downstream byte) match it.
                        with trace.span(
                            "epoch_merge",
                            scenario=task.spec.resolved_label(),
                            epoch=epoch,
                        ):
                            all_ingests: list = []
                            all_marks: list = []
                            for shard_index in sorted(buffer):
                                _, shard_ingests, shard_marks = buffer[
                                    shard_index
                                ]
                                all_ingests.extend(shard_ingests)
                                all_marks.extend(shard_marks)
                            merged = (
                                canonical_ingests(all_ingests),
                                canonical_marks(all_marks),
                            )
                            for shard_index in sorted(buffer):
                                shard_worker = buffer[shard_index][0]
                                workers[shard_worker][1].send(merged)
                        del epoch_buffers[(task.spec_index, epoch)]
                elif kind == "done":
                    (
                        _,
                        worker_id,
                        task_id,
                        result,
                        barrier_idle,
                        cpu_seconds,
                        telemetry,
                        counter_delta,
                    ) = message
                    running.pop(worker_id, None)
                    idle += 1
                    stats.barrier_idle_s += barrier_idle
                    driver_tracer = trace.active_tracer()
                    if telemetry is not None and driver_tracer is not None:
                        driver_tracer.extend(*telemetry)
                    if counter_delta:
                        metrics.counters().merge_in(
                            metrics.Counters(counter_delta)
                        )
                    sweep.finished(tasks_by_id[task_id], result, cpu_seconds)
                    dispatch()
                elif kind == "error":
                    _, worker_id, task_id, detail = message
                    failed = True
                    raise self._task_failure(tasks_by_id[task_id], detail)
        except BaseException:
            failed = True
            raise
        finally:
            if failed:
                # Workers may be blocked at an epoch barrier that will
                # never resolve; a clean drain is impossible.
                for process, parent_conn in workers:
                    parent_conn.close()
                    process.terminate()
                for process, _ in workers:
                    process.join(timeout=5.0)
                    if process.is_alive():
                        process.kill()
                        process.join()
            else:
                for _ in workers:
                    task_queue.put(None)
                for process, parent_conn in workers:
                    process.join(timeout=10.0)
                    parent_conn.close()
                    if process.is_alive():
                        process.terminate()
                        process.join()
            task_queue.close()
            result_queue.close()
            task_queue.cancel_join_thread()
            result_queue.cancel_join_thread()
