"""Helpers shared by the benchmark's driver, workload process and launcher."""

from __future__ import annotations

import hashlib
import os
import pickle
import platform
import subprocess

#: Span ring-buffer capacity for traced operations in one process.  Large
#: enough that a traced operation never wraps it (the ``obs.trace_dropped``
#: metric would say so).
TRACE_CAPACITY = 4_000_000

#: Environment that pins BLAS/OpenMP to one thread per process, so the
#: benchmark's processes never outnumber the cores.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


def raw_digest(result) -> str:
    """SHA-256 of a ``RunResult``'s pickle, exactly as it is."""
    return hashlib.sha256(pickle.dumps(result)).hexdigest()[:24]


def digest(result) -> str:
    """SHA-256 of a ``RunResult``'s pickle with record strings pooled.

    Equal strings in the records are first made to share one instance,
    as a sequential run's records do (``_share_record_strings``, the
    pooling the sharded merge applies).  Every value still enters the
    digest; only the pickle's string back-references are normalized, so
    results rebuilt by the store, whose strings are separate instances,
    digest like the run that produced them.
    """
    from dataclasses import replace

    from repro.core.accounting import _share_record_strings

    pooled = replace(result, records=_share_record_strings(result.records))
    return raw_digest(pooled)


def summarize(result) -> dict:
    """The plain numbers the metrics need from one ``RunResult``."""
    return {
        "visits": len(result.records),
        "downlink_bytes": int(result.downlink_bytes),
        "uplink_bytes": int(result.uplink_bytes),
        "updates_skipped": int(result.updates_skipped),
        "psnr_db": float(result.mean_psnr()),
    }


def compiler_version() -> str:
    """First line of ``cc --version`` (the kernels' compiler), or ``none``."""
    compiler = os.environ.get("REPRO_CODEC_CC", "cc") or "none"
    try:
        done = subprocess.run(
            [compiler, "--version"], capture_output=True, text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = done.stdout.splitlines()
    return lines[0] if lines else "none"


def fingerprint(kernels: str, engine: str) -> dict:
    """Host fingerprint stamped on every result.

    Args:
        kernels: ``built`` or ``cached`` (how the compiled kernels were
            obtained before timing), or ``unavailable``.
        engine: The codec engine the ``real`` alias resolves to.
    """
    import numpy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "compiler": compiler_version(),
        "codec_engine": engine,
        "kernels": kernels,
    }


def identity_fingerprint(fp: dict) -> dict:
    """The fingerprint fields that decide whether digests can differ."""
    return {
        key: fp[key]
        for key in ("machine", "python", "numpy", "compiler", "codec_engine")
    }
