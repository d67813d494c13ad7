"""Simulation fast-path switch and engine-configuration switches.

Small, dependency-free facilities the whole simulation stack shares:

* **The fast-path switch.**  Every performance layer added on top of the
  reference simulation — vectorized DWT lifting, the batched tile pipeline
  in the rate model and encoder, warm-state imagery/capture caches — is
  differential-tested to produce byte-identical results, and every one of
  them checks :func:`simulation_fastpath` so the original reference code
  paths stay runnable.  Disable via ``REPRO_SIM_FASTPATH=0`` or
  :func:`set_simulation_fastpath`; tests use :func:`fastpath_disabled` to
  compare both paths in one process.

* **Environment switches.**  :func:`env_flag` (and the lower-level
  :func:`parse_flag`) is the one parser every boolean ``REPRO_*``
  variable goes through, so ``off``/``FALSE``/``no`` disable a switch
  exactly like ``0`` everywhere.

* **Topology defaults.**  :func:`sim_shards` and :func:`sim_workers`
  read ``REPRO_SIM_SHARDS``/``REPRO_SIM_WORKERS`` at call time; both
  are engine configuration that never changes results.

Timing lives in the telemetry plane, not here: instrumented sections
call :func:`repro.obs.trace.span`, and ``--profile`` renders the
tracer's per-name totals.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager

#: Accepted spellings for boolean ``REPRO_*`` environment switches.
_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off", ""})


def parse_flag(value: str) -> bool | None:
    """Parse one boolean-switch spelling, case-insensitively.

    Returns True/False for a recognized spelling (``1/true/yes/on`` vs
    ``0/false/no/off`` or empty), or None when ``value`` is not a boolean
    word at all — callers with path-or-flag variables (``REPRO_STORE``)
    use None to mean "treat it as a path".
    """
    word = value.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    return None


def env_flag(name: str, default: bool) -> bool:
    """Read a boolean ``REPRO_*`` environment switch.

    The single parser every repro on/off switch goes through, so
    ``FALSE``/``off``/``no`` disable exactly like ``0`` (historically
    only ``0/false/no`` were recognized and ``FALSE`` silently enabled).

    Args:
        name: Environment variable name.
        default: Value when the variable is unset.

    Raises:
        ValueError: For a set value that is not a recognized boolean
            spelling — loud beats silently enabling.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    flag = parse_flag(raw)
    if flag is None:
        raise ValueError(
            f"{name}={raw!r} is not a boolean switch; expected one of "
            f"{sorted(_TRUE_WORDS)} or {sorted(_FALSE_WORDS - {''})}"
        )
    return flag


def _env_flag_lenient(name: str, default: bool) -> bool:
    """Import-time variant of :func:`env_flag`: warn-and-default on garbage.

    Raising at import would brick every ``repro`` entry point (even
    ``--help``) over an unrelated shell export; commands that never
    consult the switch must still run.
    """
    try:
        return env_flag(name, default)
    except ValueError as exc:
        warnings.warn(f"{exc}; using the default ({default})", stacklevel=2)
        return default


# Explicit programmatic override for the fast-path switch.  None means "no
# override": simulation_fastpath() follows $REPRO_SIM_FASTPATH at call time
# (like sim_shards), so exporting the variable after import works.  The
# switch used to be read once at import, which silently ignored later
# exports — the opposite of the sharding switch's documented behavior.
_FASTPATH_OVERRIDE: "bool | None" = None

# (raw env string, parsed value): re-parse only when the variable changes,
# keeping the per-call cost of the hot dispatchers at one dict lookup.
_FASTPATH_ENV_CACHE: "tuple[str | None, bool] | None" = None


def sim_shards() -> int:
    """Default shard count for single-scenario sharding (``REPRO_SIM_SHARDS``).

    Read at call time (not import time) so tests and notebooks can flip
    the variable per run.  The shard count is engine configuration — it
    never changes results (see :mod:`repro.core.sharding`) — so callers
    that omit an explicit ``shards=`` pick this up transparently.

    Returns:
        The configured shard count (>= 1); 1 (sequential) when unset.

    Raises:
        ValueError: For a set value that is not a positive integer.
    """
    raw = os.environ.get("REPRO_SIM_SHARDS")
    if raw is None or raw.strip() == "":
        return 1
    try:
        shards = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_SIM_SHARDS={raw!r} is not an integer shard count"
        ) from None
    if shards < 1:
        raise ValueError(f"REPRO_SIM_SHARDS must be >= 1, got {shards}")
    return shards


def sim_workers() -> int:
    """Default sweep worker-pool size (``REPRO_SIM_WORKERS``).

    Read at call time (not import time), matching :func:`sim_shards`.
    The pool size is pure scheduling topology — the sweep scheduler
    (see :mod:`repro.analysis.scheduler`) produces byte-identical
    results at any value — so callers that omit an explicit
    ``max_workers=`` pick this up transparently.

    Returns:
        The configured worker count (>= 1); 1 (sequential) when unset.

    Raises:
        ValueError: For a set value that is not a positive integer.
    """
    raw = os.environ.get("REPRO_SIM_WORKERS")
    if raw is None or raw.strip() == "":
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_SIM_WORKERS={raw!r} is not an integer worker count"
        ) from None
    if workers < 1:
        raise ValueError(f"REPRO_SIM_WORKERS must be >= 1, got {workers}")
    return workers


def simulation_fastpath() -> bool:
    """Whether the vectorized/batched/cached simulation paths are active.

    Honors ``REPRO_SIM_FASTPATH`` at call time — exporting it after
    import works, matching :func:`sim_shards` — unless
    :func:`set_simulation_fastpath` (or the ``fastpath_*`` context
    managers) has installed an explicit override, which wins until
    cleared with :func:`clear_simulation_fastpath`.
    """
    if _FASTPATH_OVERRIDE is not None:
        return _FASTPATH_OVERRIDE
    global _FASTPATH_ENV_CACHE
    raw = os.environ.get("REPRO_SIM_FASTPATH")
    cache = _FASTPATH_ENV_CACHE
    if cache is not None and cache[0] == raw:
        return cache[1]
    value = _env_flag_lenient("REPRO_SIM_FASTPATH", True)
    _FASTPATH_ENV_CACHE = (raw, value)
    return value


def set_simulation_fastpath(enabled: bool) -> None:
    """Globally override the simulation fast-path switch.

    The override beats the environment until
    :func:`clear_simulation_fastpath` removes it.
    """
    global _FASTPATH_OVERRIDE
    _FASTPATH_OVERRIDE = bool(enabled)


def clear_simulation_fastpath() -> None:
    """Drop any explicit override; follow the environment again."""
    global _FASTPATH_OVERRIDE
    _FASTPATH_OVERRIDE = None


@contextmanager
def fastpath_disabled():
    """Run a block on the reference (pre-fast-path) implementations."""
    global _FASTPATH_OVERRIDE
    previous = _FASTPATH_OVERRIDE
    _FASTPATH_OVERRIDE = False
    try:
        yield
    finally:
        _FASTPATH_OVERRIDE = previous


@contextmanager
def fastpath_enabled():
    """Run a block with the fast path forced on (symmetry for tests)."""
    global _FASTPATH_OVERRIDE
    previous = _FASTPATH_OVERRIDE
    _FASTPATH_OVERRIDE = True
    try:
        yield
    finally:
        _FASTPATH_OVERRIDE = previous
