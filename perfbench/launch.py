"""Cold-start launcher: run one ``repro`` CLI command and report on it.

Usage::

    python3 perfbench/launch.py --out OUT.json --stamp STAMPS [--trace] \
        -- simulate --seed 7

The launcher is the ``cold-simulate`` operation's fresh interpreter.  It
imports ``repro.cli`` (timed as the ``cli.import`` layer), records when
the visit loop is first entered (the end of set-up), runs the command
with ``repro.cli.main``, and writes the simulated result's pickle digest,
its store key and, with ``--trace``, the process's span records to OUT.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import layers  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--stamp", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    import_begin = time.perf_counter()
    import repro.cli as cli
    import_end = time.perf_counter()
    from repro.obs import metrics, trace

    tracer = None
    if args.trace:
        tracer = trace.enable_tracer(capacity=common.TRACE_CAPACITY)
        tracer.add(layers.IMPORT_SPAN, import_begin, import_end)
        layers.install()
    layers.install_setup_stamp(args.stamp, stop=False)

    captured = []
    run_cached = cli.run_scenario_cached

    def capture_result(spec, store=None, **kwargs):
        result = run_cached(spec, store=store, **kwargs)
        captured.append((spec, result, store))
        return result

    cli.run_scenario_cached = capture_result
    with open(os.devnull, "w") as devnull:
        saved_stdout, sys.stdout = sys.stdout, devnull
        try:
            status = cli.main(command)
        finally:
            sys.stdout = saved_stdout
    if tracer is not None:
        trace.disable_tracer()
    (spec, result, store), = captured
    report = {
        "status": status,
        "digest": common.digest(result),
        "raw_digest": common.raw_digest(result),
        "summary": common.summarize(result),
        "key": store.key_for(spec) if store is not None else None,
        "counters": dict(metrics.counters().values),
        "spans": tracer.spans() if tracer is not None else [],
        "dropped": tracer.dropped if tracer is not None else 0,
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
