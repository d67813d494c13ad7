"""On-disk experiment store: SQLite index over npz/json run payloads.

Layout (under the store root, default ``~/.cache/repro`` or wherever
``REPRO_STORE``/``--store`` points)::

    index.sqlite                 # WAL-mode index + summary columns,
                                 # plus small artifact rows (detectors)
    objects/<k2>/<key>/          # one directory per content key
        result.json              #   run scalars, per-record strings/dicts
        records.npz              #   per-record numeric columns

Commits are atomic: payloads are written into a fresh temporary directory
and renamed into place, then the index row lands in a single
``BEGIN IMMEDIATE`` transaction — SQLite's advisory write lock is what
lets concurrent sweep workers share one store without a daemon.  Because
keys are content addresses of deterministic runs, two writers racing on
one key produce identical payloads, so "first rename wins" is safe.

Reads are misses unless everything checks out: a row whose payload
directory is gone, fails to parse, or carries an unexpected payload
version is dropped from the index and reported as absent — the runner
then simply re-simulates.  Total payload size is bounded
(``REPRO_STORE_MAX_MB``, default 2048); least-recently-*used* entries are
evicted after each write, so a hot figure's runs stay resident.
"""

from __future__ import annotations

import json
import os
import shutil
import sqlite3
import time
import uuid
import zipfile
from pathlib import Path

import numpy as np

from repro import perf
from repro.analysis.scenarios import ScenarioSpec
from repro.core.accounting import (
    CaptureRecord,
    RunResult,
    _share_record_strings,
)
from repro.core.config import EarthPlusConfig
from repro.errors import StoreError
from repro.obs.metrics import counters
from repro.obs.trace import span
from repro.store import specs as spec_hashing

#: Where the store lives when neither ``--store`` nor ``REPRO_STORE``
#: names a path.
DEFAULT_STORE_DIR = Path("~/.cache/repro")

#: Version of the payload file layout (independent of the spec schema:
#: bumping this invalidates how results are *stored*, not what they are).
#: 2: downlink_stats document entry + per-record downlink columns.
PAYLOAD_VERSION = 2

#: Default size bound, overridable via ``REPRO_STORE_MAX_MB`` (0 or a
#: negative value disables eviction).
DEFAULT_MAX_MB = 2048.0

#: Numeric per-record columns persisted in ``records.npz``.
_RECORD_COLUMNS = (
    ("satellite_id", np.int64),
    ("t_days", np.float64),
    ("dropped", np.bool_),
    ("guaranteed", np.bool_),
    ("cloud_coverage", np.float64),
    ("psnr", np.float64),
    ("downloaded_fraction", np.float64),
    ("bytes_downlinked", np.int64),
    ("changed_fraction", np.float64),
    ("downlink_capacity_bytes", np.int64),
    ("layers_shed", np.int64),
    ("downlink_deferred", np.bool_),
)

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS runs (
    key TEXT PRIMARY KEY,
    schema_version INTEGER NOT NULL,
    policy TEXT NOT NULL,
    dataset_kind TEXT NOT NULL,
    gamma REAL,
    seed INTEGER NOT NULL,
    label TEXT,
    spec_json TEXT NOT NULL,
    payload_bytes INTEGER NOT NULL,
    created_at REAL NOT NULL,
    last_used_at REAL NOT NULL,
    downlink_bytes INTEGER NOT NULL,
    uplink_bytes INTEGER NOT NULL,
    psnr_db REAL,
    downloaded_fraction REAL,
    delivered INTEGER NOT NULL,
    records INTEGER NOT NULL,
    layers_shed INTEGER NOT NULL DEFAULT 0,
    updates_skipped INTEGER NOT NULL DEFAULT 0,
    dl_dropped INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS runs_policy ON runs (policy);
CREATE INDEX IF NOT EXISTS runs_dataset ON runs (dataset_kind);
CREATE INDEX IF NOT EXISTS runs_lru ON runs (last_used_at);
CREATE TABLE IF NOT EXISTS counters (
    name TEXT PRIMARY KEY,
    value REAL NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS artifacts (
    key TEXT PRIMARY KEY,
    payload_json TEXT NOT NULL
);
"""

#: Summary columns added after the index first shipped; opening an older
#: store adds them in place (``ALTER TABLE`` with a constant default is
#: cheap and idempotent — a lost race with another opener is harmless).
_SCHEMA_MIGRATIONS = (
    "ALTER TABLE runs ADD COLUMN layers_shed INTEGER NOT NULL DEFAULT 0",
    "ALTER TABLE runs ADD COLUMN updates_skipped INTEGER NOT NULL DEFAULT 0",
    "ALTER TABLE runs ADD COLUMN dl_dropped INTEGER NOT NULL DEFAULT 0",
)

#: Columns :meth:`ExperimentStore.query` rows expose, in display order.
QUERY_COLUMNS = (
    "key",
    "policy",
    "dataset",
    "gamma",
    "seed",
    "label",
    "psnr_db",
    "downloaded_fraction",
    "downlink_kb",
    "uplink_kb",
    "delivered",
    "records",
    "layers_shed",
    "updates_skipped",
    "dl_dropped",
    "payload_kb",
    "age_days",
)


def resolve_store_path() -> Path | None:
    """The store root the environment selects, or None when disabled.

    ``REPRO_STORE`` may be a path, a true-word (use the default
    location), or a false-word (``0``/``off``/... — store disabled).
    Unset means the default location.
    """
    raw = os.environ.get("REPRO_STORE")
    if raw is None:
        return DEFAULT_STORE_DIR.expanduser()
    flag = perf.parse_flag(raw)
    if flag is False:
        return None
    if flag is True:
        return DEFAULT_STORE_DIR.expanduser()
    return Path(raw).expanduser()


def _max_bytes_from_env() -> int | None:
    raw = os.environ.get("REPRO_STORE_MAX_MB")
    try:
        max_mb = float(raw) if raw is not None else DEFAULT_MAX_MB
    except ValueError:
        raise StoreError(
            f"REPRO_STORE_MAX_MB={raw!r} is not a number"
        ) from None
    if max_mb <= 0:
        return None
    return int(max_mb * 1e6)


def _result_document(result: RunResult) -> dict:
    """The json half of a payload (everything but numeric record columns)."""
    try:
        extra = json.loads(json.dumps(result.extra_metrics))
    except (TypeError, ValueError) as exc:
        raise StoreError(
            f"extra_metrics are not JSON-serializable: {exc}"
        ) from exc
    if extra != result.extra_metrics:
        # e.g. tuples coerce to lists, NaN breaks equality: storing the
        # coerced copy would break the byte-identical warm-read
        # guarantee, so refuse (the runner downgrades this to a warning
        # and the run simply stays uncached).
        raise StoreError(
            "extra_metrics do not round-trip through JSON exactly; "
            "collector values must be plain JSON types"
        )
    return {
        "payload_version": PAYLOAD_VERSION,
        "policy": result.policy,
        "downlink_bytes": result.downlink_bytes,
        "uplink_bytes": result.uplink_bytes,
        "updates_skipped": result.updates_skipped,
        "horizon_days": result.horizon_days,
        "contacts_per_day": result.contacts_per_day,
        "contact_duration_s": result.contact_duration_s,
        "reference_storage_bytes": result.reference_storage_bytes,
        "captured_storage_bytes": result.captured_storage_bytes,
        "uplink_stats": dict(result.uplink_stats),
        "downlink_stats": dict(result.downlink_stats),
        "extra_metrics": extra,
        "locations": [r.location for r in result.records],
        "band_bytes": [r.band_bytes for r in result.records],
        "band_psnr": [r.band_psnr for r in result.records],
    }


def _record_arrays(result: RunResult) -> dict[str, np.ndarray]:
    return {
        name: np.array(
            [getattr(record, name) for record in result.records], dtype=dtype
        )
        for name, dtype in _RECORD_COLUMNS
    }


def _rebuild_result(document: dict, arrays: dict[str, np.ndarray]) -> RunResult:
    """Reverse of :func:`_result_document`/:func:`_record_arrays`.

    Numeric columns come back through ``ndarray.item()``, which restores
    the plain Python scalars the simulation produced — this is what makes
    a warm read pickle-byte-identical to the cold run.  Equal strings
    parsed from JSON are separate instances, so the records are pooled
    the way the simulation's records share their strings (the same
    pooling the sharded merge applies); otherwise the pickle would
    write each location and band name once per record.
    """
    n_records = len(document["locations"])
    columns = {
        name: arrays[name] for name, _ in _RECORD_COLUMNS
    }
    records = [
        CaptureRecord(
            location=document["locations"][i],
            satellite_id=columns["satellite_id"][i].item(),
            t_days=columns["t_days"][i].item(),
            dropped=columns["dropped"][i].item(),
            guaranteed=columns["guaranteed"][i].item(),
            cloud_coverage=columns["cloud_coverage"][i].item(),
            psnr=columns["psnr"][i].item(),
            downloaded_fraction=columns["downloaded_fraction"][i].item(),
            bytes_downlinked=columns["bytes_downlinked"][i].item(),
            band_bytes=document["band_bytes"][i],
            band_psnr=document["band_psnr"][i],
            changed_fraction=columns["changed_fraction"][i].item(),
            downlink_capacity_bytes=(
                columns["downlink_capacity_bytes"][i].item()
            ),
            layers_shed=columns["layers_shed"][i].item(),
            downlink_deferred=columns["downlink_deferred"][i].item(),
        )
        for i in range(n_records)
    ]
    return RunResult(
        policy=document["policy"],
        records=_share_record_strings(records),
        downlink_bytes=document["downlink_bytes"],
        uplink_bytes=document["uplink_bytes"],
        updates_skipped=document["updates_skipped"],
        horizon_days=document["horizon_days"],
        contacts_per_day=document["contacts_per_day"],
        contact_duration_s=document["contact_duration_s"],
        reference_storage_bytes=document["reference_storage_bytes"],
        captured_storage_bytes=document["captured_storage_bytes"],
        uplink_stats=document["uplink_stats"],
        downlink_stats=document["downlink_stats"],
        extra_metrics=document["extra_metrics"],
    )


class ExperimentStore:
    """A content-addressed cache of scenario results on local disk.

    Safe for concurrent use by multiple processes: the index serializes
    writers through SQLite's advisory locking (WAL mode keeps readers
    unblocked), and payload commits are write-then-rename.

    Args:
        root: Store directory (created on first use).
        max_bytes: Total payload budget; least-recently-used entries are
            evicted after each put.  None reads ``REPRO_STORE_MAX_MB``
            (default 2048 MB; 0 disables eviction).
    """

    def __init__(self, root: str | Path, max_bytes: int | None = None):
        self.root = Path(root).expanduser()
        self.max_bytes = (
            max_bytes if max_bytes is not None else _max_bytes_from_env()
        )
        self.objects_dir = self.root / "objects"
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(
            self.root / "index.sqlite", timeout=30.0, isolation_level=None
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA busy_timeout=30000")
        self._conn.executescript(_SCHEMA_SQL)
        existing = {
            row[1]
            for row in self._conn.execute("PRAGMA table_info(runs)")
        }
        for migration in _SCHEMA_MIGRATIONS:
            column = migration.split(" ADD COLUMN ")[1].split()[0]
            if column in existing:
                continue
            try:
                self._conn.execute(migration)
            except sqlite3.OperationalError:
                pass  # concurrent opener added it first

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Close the index connection (payload files need no teardown)."""
        self._conn.close()

    def __enter__(self) -> "ExperimentStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- telemetry -----------------------------------------------------
    def _count(self, deltas: dict) -> None:
        """Bump cache-health counters, in-process and persistently.

        The in-process bump feeds the sweep's merged counter view; the
        SQLite ``counters`` table accumulates across processes and
        sessions so ``repro query --stats`` reports cache health without
        running anything.  Persistence is best-effort: a locked or
        read-only index must never fail the get/put it decorates.
        """
        bag = counters()
        for name, amount in deltas.items():
            bag.inc(name, amount)
        try:
            self._conn.executemany(
                "INSERT INTO counters (name, value) VALUES (?, ?) "
                "ON CONFLICT(name) DO UPDATE SET "
                "value = value + excluded.value",
                list(deltas.items()),
            )
        except sqlite3.Error:
            pass

    def counter_values(self) -> dict:
        """The persistent cache-health counters (``store.*`` names)."""
        try:
            rows = self._conn.execute(
                "SELECT name, value FROM counters"
            ).fetchall()
        except sqlite3.Error:
            return {}
        return {name: value for name, value in rows}

    # -- addressing ----------------------------------------------------
    def key_for(self, spec: ScenarioSpec) -> str:
        """The spec's content key (see :func:`repro.store.specs.spec_key`).

        Raises:
            UncacheableSpecError: When the spec cannot be hashed.
        """
        return spec_hashing.spec_key(spec)

    def _payload_dir(self, key: str) -> Path:
        return self.objects_dir / key[:2] / key

    # -- reads ---------------------------------------------------------
    def contains(self, key: str) -> bool:
        """Whether the index currently lists ``key`` (payload unchecked)."""
        row = self._conn.execute(
            "SELECT 1 FROM runs WHERE key = ?", (key,)
        ).fetchone()
        return row is not None

    def _load(self, key: str) -> RunResult | None:
        """Load one *indexed* key's payload, healing on corruption.

        The caller has already established index presence; entries whose
        payload is missing, corrupt, or of an unexpected payload version
        are dropped and reported as misses.  A successful load refreshes
        the entry's LRU stamp.
        """
        payload = self._payload_dir(key)
        try:
            with open(payload / "result.json", "r", encoding="utf-8") as fh:
                document = json.load(fh)
            if document.get("payload_version") != PAYLOAD_VERSION:
                raise StoreError(
                    f"payload version {document.get('payload_version')!r}, "
                    f"expected {PAYLOAD_VERSION}"
                )
            with np.load(payload / "records.npz") as npz:
                result = _rebuild_result(document, dict(npz))
        except (OSError, ValueError, KeyError, StoreError, zipfile.BadZipFile):
            self.delete(key)
            return None
        self._conn.execute(
            "UPDATE runs SET last_used_at = ? WHERE key = ?",
            (time.time(), key),
        )
        return result

    def get(self, spec_or_key: ScenarioSpec | str) -> RunResult | None:
        """Load a cached result, or None on a miss.

        A hit refreshes the entry's LRU stamp.  Entries whose payload is
        missing, corrupt, or of an unexpected payload version are dropped
        and reported as misses — the caller re-simulates and overwrites.
        """
        with span("store.get"):
            key = (
                spec_or_key
                if isinstance(spec_or_key, str)
                else self.key_for(spec_or_key)
            )
            result = self._load(key) if self.contains(key) else None
        self._count(
            {"store.hit" if result is not None else "store.miss": 1}
        )
        return result

    #: SQLite's default variable limit is 999; chunk IN-lists well below.
    _IN_CHUNK = 500

    def get_many(self, keys) -> dict[str, RunResult | None]:
        """Load many cached results with one presence query per chunk.

        The batch analog of :meth:`get` for sweep hit-scans: presence of
        all ``keys`` resolves through ``SELECT ... WHERE key IN (...)``
        (one round-trip per :data:`_IN_CHUNK` keys instead of one per
        key), then only the present keys touch payload files.  Semantics
        per key match :meth:`get` exactly — corrupt entries heal to
        misses, hits refresh their LRU stamp.

        Args:
            keys: Content keys to resolve (duplicates collapse).

        Returns:
            ``{key: RunResult | None}`` covering every requested key.
        """
        with span("store.get_many"):
            unique = list(dict.fromkeys(keys))
            results: dict[str, RunResult | None] = {
                key: None for key in unique
            }
            present: list[str] = []
            for start in range(0, len(unique), self._IN_CHUNK):
                chunk = unique[start : start + self._IN_CHUNK]
                placeholders = ",".join("?" * len(chunk))
                present.extend(
                    row[0]
                    for row in self._conn.execute(
                        f"SELECT key FROM runs WHERE key IN ({placeholders})",
                        chunk,
                    )
                )
            for key in present:
                results[key] = self._load(key)
        hits = sum(1 for value in results.values() if value is not None)
        deltas = {}
        if hits:
            deltas["store.hit"] = hits
        if len(results) - hits:
            deltas["store.miss"] = len(results) - hits
        if deltas:
            self._count(deltas)
        return results

    # -- writes --------------------------------------------------------
    def put(
        self, spec: ScenarioSpec, result: RunResult, key: str | None = None
    ) -> str:
        """Persist one run atomically and return its content key.

        Args:
            spec: The scenario the result came from.
            result: Its run result.
            key: Precomputed content key (recomputed when omitted).

        Raises:
            UncacheableSpecError: When the spec cannot be hashed.
            StoreError: When the payload cannot be serialized.
        """
        with span("store.put"):
            return self._put(spec, result, key)

    def _put(
        self, spec: ScenarioSpec, result: RunResult, key: str | None
    ) -> str:
        key = key if key is not None else self.key_for(spec)
        document = _result_document(result)
        arrays = _record_arrays(result)
        staging = self.objects_dir / f".tmp-{os.getpid()}-{uuid.uuid4().hex}"
        staging.mkdir(parents=True)
        try:
            with open(staging / "result.json", "w", encoding="utf-8") as fh:
                json.dump(document, fh, separators=(",", ":"))
            np.savez_compressed(staging / "records.npz", **arrays)
            payload_bytes = sum(
                path.stat().st_size for path in staging.iterdir()
            )
            target = self._payload_dir(key)
            target.parent.mkdir(parents=True, exist_ok=True)
            try:
                os.rename(staging, target)
            except OSError as exc:
                # Another writer committed this key first; content keys
                # address deterministic runs, so the payloads are
                # identical and the earlier commit stands.  Any other
                # rename failure must not leave a payload-less index row.
                if not target.exists():
                    raise StoreError(
                        f"could not commit payload for {key}: {exc}"
                    ) from exc
        finally:
            if staging.exists():
                shutil.rmtree(staging, ignore_errors=True)
        now = time.time()
        config = spec.config if spec.config is not None else EarthPlusConfig()
        dataset_kind = getattr(spec.dataset, "kind", type(spec.dataset).__name__)
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            self._conn.execute(
                """
                INSERT OR REPLACE INTO runs (
                    key, schema_version, policy, dataset_kind, gamma, seed,
                    label, spec_json, payload_bytes, created_at,
                    last_used_at, downlink_bytes, uplink_bytes, psnr_db,
                    downloaded_fraction, delivered, records, layers_shed,
                    updates_skipped, dl_dropped
                ) VALUES (
                    ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?,
                    ?, ?
                )
                """,
                (
                    key,
                    spec_hashing.SCHEMA_VERSION,
                    spec.policy,
                    dataset_kind,
                    config.gamma_bpp,
                    spec.seed,
                    spec.resolved_label(),
                    spec_hashing.canonical_json(spec_hashing.spec_document(spec)),
                    payload_bytes,
                    now,
                    now,
                    result.downlink_bytes,
                    result.uplink_bytes,
                    result.mean_psnr(),
                    result.mean_downloaded_fraction(),
                    len(result.delivered()),
                    len(result.records),
                    result.downlink_stats.get("layers_shed", 0),
                    result.updates_skipped,
                    (
                        result.downlink_stats.get("captures_deferred", 0)
                        + result.downlink_stats.get("captures_dropped", 0)
                    ),
                ),
            )
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        self._count({"store.put": 1, "store.put_bytes": payload_bytes})
        self.evict()
        return key

    # -- derived artifacts ---------------------------------------------
    def get_artifact(self, key: str) -> dict | None:
        """The JSON payload stored under an artifact key, or None.

        Artifacts (trained detectors) are small index rows beside the
        runs: no payload directory, and :meth:`evict` never touches them.
        A row that does not parse as a JSON object reads as a miss;
        validating the object is the caller's job.  Either way the
        caller heals the row by rebuilding the artifact and putting it
        again (:meth:`put_artifact` overwrites).
        """
        row = self._conn.execute(
            "SELECT payload_json FROM artifacts WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        try:
            payload = json.loads(row[0])
        except (TypeError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def put_artifact(self, key: str, payload: dict) -> None:
        """Store (or overwrite) one artifact row.

        Args:
            key: Content key (sha256 of the artifact's canonical key
                document, e.g. :func:`~repro.store.specs.detector_document`).
            payload: The artifact as a JSON object.

        Raises:
            StoreError: When ``payload`` is not JSON-serializable.
        """
        try:
            payload_json = json.dumps(
                payload, separators=(",", ":"), allow_nan=False
            )
        except (TypeError, ValueError) as exc:
            raise StoreError(f"artifact {key} is not JSON: {exc}") from exc
        self._conn.execute(
            "INSERT OR REPLACE INTO artifacts (key, payload_json) "
            "VALUES (?, ?)",
            (key, payload_json),
        )

    def delete(self, key: str) -> bool:
        """Drop one entry (row first, payload second); True if it existed."""
        cursor = self._conn.execute("DELETE FROM runs WHERE key = ?", (key,))
        shutil.rmtree(self._payload_dir(key), ignore_errors=True)
        return cursor.rowcount > 0

    def evict(self, max_bytes: int | None = None) -> int:
        """Evict least-recently-used entries down to the size budget.

        Args:
            max_bytes: Budget override (defaults to the store's).

        Returns:
            Number of entries evicted.
        """
        budget = max_bytes if max_bytes is not None else self.max_bytes
        if budget is None:
            return 0
        total = self._conn.execute(
            "SELECT COALESCE(SUM(payload_bytes), 0) FROM runs"
        ).fetchone()[0]
        evicted = 0
        if total <= budget:
            return 0
        rows = self._conn.execute(
            "SELECT key, payload_bytes FROM runs ORDER BY last_used_at ASC"
        ).fetchall()
        for key, payload_bytes in rows:
            if total <= budget:
                break
            self.delete(key)
            total -= payload_bytes
            evicted += 1
        if evicted:
            self._count({"store.evict": evicted})
        return evicted

    # -- inspection ----------------------------------------------------
    def query(
        self,
        policy: str | None = None,
        dataset: str | None = None,
        seed: int | None = None,
        gamma: float | None = None,
        label: str | None = None,
        limit: int | None = None,
    ) -> list[dict]:
        """Summary rows of stored runs, newest first.

        Args:
            policy: Exact policy-name filter.
            dataset: Exact dataset-kind filter (``sentinel2``/``planet``).
            seed: Exact seed filter.
            gamma: Exact gamma (``gamma_bpp``) filter.
            label: Substring filter on the stored display label.
            limit: Maximum rows.

        Returns:
            One dict per run with :data:`QUERY_COLUMNS` keys (metrics
            come from the index's summary columns; payloads stay closed).
        """
        clauses, params = [], []
        for column, value in (
            ("policy", policy),
            ("dataset_kind", dataset),
            ("seed", seed),
            ("gamma", gamma),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        if label is not None:
            clauses.append("label LIKE ?")
            params.append(f"%{label}%")
        sql = (
            "SELECT key, policy, dataset_kind, gamma, seed, label, psnr_db,"
            " downloaded_fraction, downlink_bytes, uplink_bytes, delivered,"
            " records, layers_shed, updates_skipped, dl_dropped,"
            " payload_bytes, created_at FROM runs"
        )
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY created_at DESC"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(limit)
        now = time.time()
        rows = []
        for (
            key, run_policy, dataset_kind, run_gamma, run_seed, run_label,
            psnr_db, downloaded_fraction, downlink_bytes, uplink_bytes,
            delivered, records, layers_shed, updates_skipped, dl_dropped,
            payload_bytes, created_at,
        ) in self._conn.execute(sql, params):
            rows.append(
                {
                    "key": key[:12],
                    "policy": run_policy,
                    "dataset": dataset_kind,
                    "gamma": run_gamma,
                    "seed": run_seed,
                    "label": run_label,
                    "psnr_db": round(psnr_db, 2) if psnr_db is not None else None,
                    "downloaded_fraction": (
                        round(downloaded_fraction, 4)
                        if downloaded_fraction is not None
                        else None
                    ),
                    "downlink_kb": round(downlink_bytes / 1e3, 3),
                    "uplink_kb": round(uplink_bytes / 1e3, 3),
                    "delivered": delivered,
                    "records": records,
                    "layers_shed": layers_shed,
                    "updates_skipped": updates_skipped,
                    "dl_dropped": dl_dropped,
                    "payload_kb": round(payload_bytes / 1e3, 1),
                    "age_days": round((now - created_at) / 86400.0, 3),
                }
            )
        return rows

    def stats(self) -> dict:
        """Store totals plus lifetime cache health.

        Entry count / payload size / budget describe the store's current
        contents; hits / misses / hit_rate / evictions / written_mb come
        from the persistent ``counters`` table and accumulate over the
        store's whole life across processes (``repro query --stats``).
        """
        entries, payload_bytes = self._conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(payload_bytes), 0) FROM runs"
        ).fetchone()
        lifetime = self.counter_values()
        hits = int(lifetime.get("store.hit", 0))
        misses = int(lifetime.get("store.miss", 0))
        return {
            "root": str(self.root),
            "entries": entries,
            "payload_mb": round(payload_bytes / 1e6, 3),
            "max_mb": (
                round(self.max_bytes / 1e6, 3)
                if self.max_bytes is not None
                else None
            ),
            "schema_version": spec_hashing.SCHEMA_VERSION,
            "hits": hits,
            "misses": misses,
            "hit_rate": (
                round(hits / (hits + misses), 4) if hits + misses else None
            ),
            "evictions": int(lifetime.get("store.evict", 0)),
            "written_mb": round(
                lifetime.get("store.put_bytes", 0) / 1e6, 3
            ),
        }


#: Open stores memoized per resolved root, so one process reuses one
#: SQLite connection per store.
# repro: allow(RPR005): per-process connection pool by design — SQLite connections cannot cross fork(); cross-process consistency is the WAL database's job, not this dict's
_OPEN_STORES: dict[str, ExperimentStore] = {}


def open_store(root: str | Path) -> ExperimentStore:
    """Open (or reuse) the store rooted at ``root``."""
    resolved = str(Path(root).expanduser())
    store = _OPEN_STORES.get(resolved)
    if store is None:
        store = ExperimentStore(resolved)
        _OPEN_STORES[resolved] = store
    return store


def default_store() -> ExperimentStore | None:
    """The environment-selected store, or None when disabled."""
    path = resolve_store_path()
    if path is None:
        return None
    return open_store(path)
