"""Per-layer instrumentation for the traced benchmark run.

:func:`install` wraps each layer's public functions in
``repro.obs.trace.span(<layer>)`` from outside the program: nothing under
``src/`` gains a span.  Call it before any worker pool forks, so forked
workers inherit the wrapped classes and ship their spans back to the
driver through the scheduler's existing trace protocol.

:func:`layer_metrics` turns the collected span records into the per-layer
metrics named in ``BENCHMARK.json``: self times (a span's duration minus
the part of it covered by its child spans), call counts and ratios.
"""

from __future__ import annotations

import functools
import sys

#: Spans the program already emits, mapped to the layer they belong to.
EXISTING_SPANS = {
    "uplink": "core.phases.uplink",
    "capture": "core.phases.capture",
    "downlink": "core.phases.downlink",
    "ingest": "core.phases.ingest",
    "sync": "core.system.sync",
    "imagery": "imagery.capture",
    "dwt": "codec.dwt",
    "codec": "codec.model",
    "scoring": "core.encoder.scoring",
    "store.get": "store.get",
    "store.get_many": "store.get_many",
    "store.put": "store.put",
    "spec_task": "analysis.task",
    "shard_task": "analysis.task",
    "barrier_wait": "analysis.scheduler.barrier_wait",
    "epoch_merge": "analysis.scheduler.epoch_merge",
}

#: ``(module, class or None, attribute, layer)`` wrapped by :func:`install`.
WRAPPED = (
    ("repro.analysis.scenarios", "DatasetSpec", "build", "datasets.build"),
    ("repro.core.cloud", None, "train_onboard_detector", "core.cloud.train"),
    ("repro.core.cloud", None, "train_ground_detector", "core.cloud.train"),
    ("repro.core.cloud", "CloudDetector", "detect", "core.cloud.detect"),
    (
        "repro.core.change_detection", None, "detect_changes",
        "core.change_detection.detect",
    ),
    (
        "repro.core.change_detection", None, "detect_changes_many",
        "core.change_detection.detect",
    ),
    (
        "repro.core.encoder", "EarthPlusEncoder", "process_capture",
        "core.encoder.process",
    ),
    (
        "repro.core.encoder", "RoiRateController", "encode_roi",
        "core.encoder.encode_roi",
    ),
    ("repro.codec.ratemodel", "RateModel", "prepare", "codec.model"),
    ("repro.codec.ratemodel", "RateModel", "encode", "codec.model.encode"),
    (
        "repro.codec.ratemodel", "RateModel", "estimate_with_stats",
        "codec.model.encode",
    ),
    (
        "repro.codec.ratemodel", "RateModel", "find_step_for_bytes",
        "codec.model.search",
    ),
    ("repro.codec.adapter", "RealCodecAdapter", "encode", "codec.real.encode"),
    (
        "repro.codec.adapter", "RealCodecAdapter", "find_step_for_bytes",
        "codec.real.search",
    ),
    ("repro.baselines.kodan", "KodanPolicy", "process", "baselines.process"),
    ("repro.baselines.satroi", "SatRoIPolicy", "process", "baselines.process"),
    ("repro.baselines.naive", "NaivePolicy", "process", "baselines.process"),
    (
        "repro.core.ground_segment", "GroundSegment", "ingest",
        "core.ground_segment.ingest",
    ),
    (
        "repro.core.ground_segment", "GroundSegment", "plan_uploads",
        "core.ground_segment.plan_uploads",
    ),
    (
        "repro.core.accounting", "MetricsAccumulator", "observe",
        "core.accounting.observe",
    ),
    (
        "repro.analysis.scheduler", "SweepScheduler", "run",
        "analysis.scheduler.driver",
    ),
)

#: Wrapped layers whose spans record the pixel count of their image.
_PIXEL_LAYERS = ("codec.real.encode", "codec.real.search")

#: Root span of one benchmark operation (its self time is unattributed).
OP_SPAN = "perfbench.op"

#: Span recorded by the cold-start launcher around ``import repro.cli``.
IMPORT_SPAN = "cli.import"


def _wrap(func, layer: str):
    from repro.obs import trace

    if layer in _PIXEL_LAYERS:

        @functools.wraps(func)
        def traced(self, image, *args, **kwargs):
            with trace.span(layer, px=int(image.size)):
                return func(self, image, *args, **kwargs)

    else:

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with trace.span(layer):
                return func(*args, **kwargs)

    traced.__perfbench_wrapped__ = func
    return traced


def install() -> None:
    """Wrap every layer in :data:`WRAPPED` (idempotent).

    Module-level functions are also rebound in every loaded ``repro``
    module that imported them by name, so callers see the wrapper.
    """
    import importlib

    for module_name, class_name, attribute, layer in WRAPPED:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        original = owner.__dict__[attribute]
        if hasattr(original, "__perfbench_wrapped__"):
            continue
        wrapped = _wrap(original, layer)
        setattr(owner, attribute, wrapped)
        if class_name is None:
            for name, loaded in list(sys.modules.items()):
                if (
                    name.startswith("repro")
                    and loaded is not None
                    and getattr(loaded, attribute, None) is original
                ):
                    setattr(loaded, attribute, wrapped)


def _track(attrs) -> object:
    """The process a span ran in: a pool worker id, or None (driver)."""
    return attrs.get("worker") if attrs else None


def self_times(spans) -> tuple[dict, dict, dict]:
    """Per-layer self seconds, inclusive seconds and call counts.

    Spans nest per track (each process's context managers nest
    properly), so within a track a stack recovers the parent of every
    span and each child's duration is subtracted from its parent.
    Inclusive time counts only outermost spans of a layer, so recursion
    through one layer is not counted twice.
    """
    by_track: dict = {}
    for record in spans:
        by_track.setdefault(_track(record[3]), []).append(record)
    self_s: dict[str, float] = {}
    inclusive_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for records in by_track.values():
        # Parents first: earlier begin, and at equal begin the longer span.
        records.sort(key=lambda r: (r[1], -r[2]))
        stack: list[list] = []  # [layer, end, child_seconds, duration]

        def close(entry) -> None:
            layer, _end, child, duration = entry
            self_s[layer] = self_s.get(layer, 0.0) + duration - child

        for name, begin, end, _attrs in records:
            layer = EXISTING_SPANS.get(name, name)
            while stack and stack[-1][1] <= begin:
                close(stack.pop())
            duration = end - begin
            if stack:
                stack[-1][2] += duration
            if not any(entry[0] == layer for entry in stack):
                inclusive_s[layer] = inclusive_s.get(layer, 0.0) + duration
            calls[layer] = calls.get(layer, 0) + 1
            stack.append([layer, end, 0.0, duration])
        while stack:
            close(stack.pop())
    return self_s, inclusive_s, calls


def _pixels(spans) -> int:
    """Pixels handed to the real codec by its outermost calls."""
    total = 0
    by_track: dict = {}
    for record in spans:
        if record[0] in _PIXEL_LAYERS:
            by_track.setdefault(_track(record[3]), []).append(record)
    for records in by_track.values():
        records.sort(key=lambda r: (r[1], -r[2]))
        outer_end = float("-inf")
        for _name, begin, end, attrs in records:
            if begin >= outer_end:
                total += attrs["px"]
                outer_end = end
    return total


class SetupReached(Exception):
    """Raised at the first visit loop when only set-up is being timed."""


def install_setup_stamp(path: str, stop: bool) -> None:
    """Record when each process first enters the visit loop.

    Wraps ``ConstellationSimulator.run`` so its first call in every
    process appends ``time.perf_counter()`` (``CLOCK_MONOTONIC``, shared
    by every process on the host) to ``path``.  The wrapper also spans
    the loop as the ``core.system.run`` layer.  With ``stop`` the first
    call raises :class:`SetupReached` instead of simulating, which ends a
    set-up probe through the program's normal error path.
    """
    import os
    import time

    from repro.core.system import ConstellationSimulator
    from repro.obs import trace

    original = ConstellationSimulator.run
    stamped_pids: set[int] = set()

    @functools.wraps(original)
    def run(self, *args, **kwargs):
        if os.getpid() not in stamped_pids:
            stamped_pids.add(os.getpid())
            with open(path, "a") as handle:
                handle.write(f"{time.perf_counter()!r}\n")
            if stop:
                raise SetupReached("set-up complete")
        with trace.span("core.system.run"):
            return original(self, *args, **kwargs)

    ConstellationSimulator.run = run


def first_stamp(path: str) -> float | None:
    """The earliest time written by :func:`install_setup_stamp`."""
    try:
        with open(path) as handle:
            stamps = [float(line) for line in handle if line.strip()]
    except FileNotFoundError:
        return None
    return min(stamps) if stamps else None


#: Per-layer self-time metrics and the layers each one sums.  Together
#: with ``trace.other_s`` and ``unattributed_s`` they add up to
#: ``trace.process_wall_s``.
SELF_METRICS = {
    "cli.import_s": ("cli.import",),
    "datasets.build_s": ("datasets.build",),
    "core.cloud.train_s": ("core.cloud.train",),
    "imagery.capture_s": ("imagery.capture",),
    "core.system.run_s": ("core.system.run",),
    "core.system.sync_s": ("core.system.sync",),
    "core.phases.self_s": (
        "core.phases.uplink", "core.phases.capture",
        "core.phases.downlink", "core.phases.ingest",
    ),
    "core.encoder.process_s": ("core.encoder.process",),
    "core.encoder.encode_roi_s": ("core.encoder.encode_roi",),
    "core.encoder.scoring_s": ("core.encoder.scoring",),
    "codec.model_s": (
        "codec.model", "codec.model.encode", "codec.model.search",
    ),
    "codec.dwt_s": ("codec.dwt",),
    "codec.real_s": ("codec.real.encode", "codec.real.search"),
    "core.cloud.detect_s": ("core.cloud.detect",),
    "core.change_detection.detect_s": ("core.change_detection.detect",),
    "baselines.process_s": ("baselines.process",),
    "core.ground_segment.ingest_s": ("core.ground_segment.ingest",),
    "core.ground_segment.plan_uploads_s": (
        "core.ground_segment.plan_uploads",
    ),
    "core.accounting.observe_s": ("core.accounting.observe",),
    "analysis.scheduler.driver_s": ("analysis.scheduler.driver",),
    "analysis.task_s": ("analysis.task",),
    "analysis.scheduler.barrier_idle_s": ("analysis.scheduler.barrier_wait",),
    "analysis.scheduler.epoch_merge_s": ("analysis.scheduler.epoch_merge",),
    "store.get_s": ("store.get",),
    "store.get_many_s": ("store.get_many",),
    "store.put_s": ("store.put",),
}

#: Inclusive phase times (they contain the layers above, so they are a
#: decomposition check, not part of the self-time sum).
PHASES = ("uplink", "capture", "downlink", "ingest")


def layer_metrics(spans, ops: int, process_wall_s: float) -> dict:
    """Span-derived per-layer metrics, per traced operation.

    Args:
        spans: Every span record of the traced operations.
        ops: Traced operations the spans cover.
        process_wall_s: Summed wall time of every track the spans ran on
            (each operation's wall once per process live during it);
            ``unattributed_s`` is what the layers leave of it.
    """
    self_s, inclusive_s, calls = self_times(spans)
    metrics = {
        metric: sum(self_s.get(layer, 0.0) for layer in layers) / ops
        for metric, layers in SELF_METRICS.items()
    }
    attributed = sum(
        seconds for layer, seconds in self_s.items() if layer != OP_SPAN
    )
    metrics["trace.other_s"] = attributed / ops - sum(metrics.values())
    metrics["unattributed_s"] = (process_wall_s - attributed) / ops
    metrics["trace.process_wall_s"] = process_wall_s / ops
    for phase in PHASES:
        metrics[f"core.phases.{phase}_s"] = (
            inclusive_s.get(f"core.phases.{phase}", 0.0) / ops
        )
    encode_roi_calls = calls.get("core.encoder.encode_roi", 0)
    codec_calls = sum(
        calls.get(layer, 0)
        for layer in (
            "codec.model.encode", "codec.model.search",
            "codec.real.encode", "codec.real.search",
        )
    )
    real_s = sum(inclusive_s.get(layer, 0.0) for layer in _PIXEL_LAYERS)
    metrics.update(
        {
            "imagery.captures": calls.get("imagery.capture", 0) / ops,
            "core.encoder.encode_roi_calls": encode_roi_calls / ops,
            "codec.encodes_per_roi": (
                codec_calls / encode_roi_calls if encode_roi_calls else 0.0
            ),
            "codec.real_mpix_per_s": (
                _pixels(spans) / real_s / 1e6 if real_s > 0 else 0.0
            ),
            "store.puts": calls.get("store.put", 0) / ops,
            "obs.trace_spans": len(spans) / ops,
        }
    )
    return metrics
