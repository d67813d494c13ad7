"""Detector artifacts in the experiment store and the driver warm step.

Trained cloud detectors are pure functions of their training inputs, so
the store keeps them as content-addressed JSON rows and
:func:`~repro.store.runner.warm_detectors` seeds the in-process memo
from them before anything simulates or forks.  Asserted here:

* results are pickle-byte-identical with the store off, fresh, warm,
  and with a corrupted artifact row — which is healed on the way;
* a warm store trains nothing, and forked pool workers inherit the
  driver's detectors instead of retraining;
* store re-reads pickle exactly like the simulated result;
* artifact rows survive LRU eviction and older stores gain the table.
"""

from __future__ import annotations

import json
import pickle
import sqlite3
from dataclasses import replace

import pytest

from repro.analysis.scenarios import DatasetSpec, ScenarioSpec
from repro.core import cloud
from repro.core.config import EarthPlusConfig
from repro.imagery.bands import get_band
from repro.obs.metrics import counters
from repro.store import specs as spec_hashing
from repro.store.backend import ExperimentStore
from repro.store.runner import (
    run_scenario_cached,
    run_scenarios_cached,
    warm_detectors,
)

PLANET_SPEC = ScenarioSpec(
    policy="earthplus",
    dataset=DatasetSpec.of(
        "planet", n_satellites=4, horizon_days=6.0, image_shape=(64, 64)
    ),
    seed=3,
)


@pytest.fixture()
def cold_memo(monkeypatch):
    """An empty detector memo for the test (the old one is restored)."""
    monkeypatch.setattr(cloud, "_DETECTOR_CACHE", {})


def _delta(name: str, before) -> int:
    return counters().diff(before).get(name, 0)


def _artifact_rows(store: ExperimentStore) -> list[tuple]:
    return store._conn.execute(
        "SELECT key, payload_json FROM artifacts ORDER BY key"
    ).fetchall()


class TestStoreStates:
    def test_off_fresh_warm_corrupted_are_byte_identical(
        self, tmp_path, tiny_spec, cold_memo
    ):
        spec = tiny_spec()
        off = pickle.dumps(run_scenario_cached(spec, store=None))

        def fresh_process_run(store):
            cloud._DETECTOR_CACHE.clear()
            before = counters().snapshot()
            result = run_scenario_cached(spec, store=store, refresh=True)
            return (
                pickle.dumps(result),
                _delta("detector.trained", before),
                _delta("detector.store_hits", before),
            )

        with ExperimentStore(tmp_path / "store") as store:
            fresh, trained, hits = fresh_process_run(store)
            assert (trained, hits) == (2, 0)
            rows = _artifact_rows(store)
            assert len(rows) == 2

            warm, trained, hits = fresh_process_run(store)
            assert (trained, hits) == (0, 2)

            store._conn.execute(
                "UPDATE artifacts SET payload_json = ? WHERE key = ?",
                ("{not json", rows[0][0]),
            )
            store._conn.execute(
                "UPDATE artifacts SET payload_json = ? WHERE key = ?",
                (json.dumps({"name": "ground-tree"}), rows[1][0]),
            )
            corrupted, trained, hits = fresh_process_run(store)
            assert (trained, hits) == (2, 0)
            assert _artifact_rows(store) == rows, "corrupted rows not healed"

        assert fresh == off
        assert warm == off
        assert corrupted == off

    def test_memo_hit_skips_the_store(self, store, tiny_spec, cold_memo):
        spec = tiny_spec()
        warm_detectors([spec], store=None)
        before = counters().snapshot()
        warm_detectors([spec], store=store)
        assert _delta("detector.trained", before) == 0
        assert _delta("detector.store_hits", before) == 0
        assert _artifact_rows(store) == []

    @pytest.mark.parametrize(
        "dataset",
        [
            DatasetSpec(kind="nope"),
            DatasetSpec.of("sentinel2", bands=["B99"]),
        ],
        ids=["unknown-kind", "unknown-band"],
    )
    def test_bad_spec_is_left_to_its_own_run(self, store, dataset):
        spec = ScenarioSpec(policy="earthplus", dataset=dataset)
        warm_detectors([spec], store=store)  # must not raise
        assert _artifact_rows(store) == []

    def test_warm_step_builds_no_dataset(
        self, store, tiny_spec, cold_memo, monkeypatch
    ):
        def refuse(self):
            raise AssertionError("the warm step built a dataset")

        monkeypatch.setattr(DatasetSpec, "build", refuse)
        before = counters().snapshot()
        warm_detectors([tiny_spec()], store=store)
        assert _delta("detector.trained", before) == 2

    def test_key_covers_full_band_definitions(self):
        b4 = get_band("B4")
        brighter = replace(b4, cloud_brightness=0.9)
        documents = [
            ("onboard", (b4,), 64, 1234),
            ("onboard", (brighter,), 64, 1234),
            ("onboard", (b4,), 32, 1234),
            ("onboard", (b4,), 64, 1),
            ("ground", (b4,), None, 1234),
        ]
        keys = {
            spec_hashing.document_key(
                spec_hashing.detector_document(*document)
            )
            for document in documents
        }
        assert len(keys) == len(documents)


class TestDetectorNeeds:
    @pytest.mark.parametrize(
        "dataset",
        [
            DatasetSpec.of("planet", n_satellites=2, horizon_days=4.0),
            DatasetSpec.of("sentinel2", locations=["A"], horizon_days=4.0),
            DatasetSpec.of(
                "sentinel2",
                locations=["A"],
                bands=["B4", "B11"],
                horizon_days=4.0,
            ),
            DatasetSpec.of(
                "sentinel2",
                locations=["A"],
                bands=(get_band("B8"),),
                horizon_days=4.0,
            ),
        ],
        ids=["planet", "sentinel2-all", "sentinel2-names", "sentinel2-bands"],
    )
    def test_spec_bands_match_the_built_dataset(self, dataset):
        assert dataset.bands() == dataset.build().bands

    def test_warmed_detectors_are_the_ones_the_run_uses(
        self, tiny_spec, cold_memo
    ):
        spec = tiny_spec()
        spec.config = EarthPlusConfig(tile_size=32)
        warm_detectors([spec], store=None)
        before = counters().snapshot()
        run_scenario_cached(spec, store=None)
        assert _delta("detector.trained", before) == 0


class TestPooledSweep:
    def test_only_the_driver_trains(self, cold_memo):
        config = EarthPlusConfig(gamma_bpp=0.3, ground_sync_days=2.0)
        specs = [
            ScenarioSpec(
                policy=policy,
                dataset=PLANET_SPEC.dataset,
                config=config,
                seed=1,
            )
            for policy in ("earthplus", "naive")
        ]
        before = counters().snapshot()
        sweep = run_scenarios_cached(specs, max_workers=2, shards=2, store=None)
        # Worker counter deltas fold into the driver's counters, so the
        # total is the driver's two detectors plus any worker retraining.
        assert _delta("detector.trained", before) == 2
        sequential = [run_scenario_cached(spec, store=None) for spec in specs]
        assert [pickle.dumps(r) for r in sweep.results] == [
            pickle.dumps(r) for r in sequential
        ]


class TestRereadPickles:
    @pytest.mark.parametrize(
        "spec",
        [
            PLANET_SPEC,
            ScenarioSpec(
                policy="earthplus",
                dataset=DatasetSpec.of(
                    "sentinel2",
                    locations=["A", "B"],
                    bands=["B4", "B11"],
                    horizon_days=12.0,
                    image_shape=(64, 64),
                ),
            ),
        ],
        ids=["planet", "sentinel2"],
    )
    def test_store_get_pickles_like_the_result(self, store, spec):
        result = run_scenario_cached(spec, store=store)
        assert pickle.dumps(store.get(store.key_for(spec))) == pickle.dumps(
            result
        )


class TestArtifactRows:
    def test_eviction_never_drops_artifacts(
        self, tmp_path, tiny_spec, result_factory
    ):
        with ExperimentStore(tmp_path / "store", max_bytes=1) as store:
            detector = cloud.train_ground_detector((get_band("B4"),))
            store.put_artifact("k", detector.to_document())
            store.put(tiny_spec(), result_factory())
            assert store.stats()["entries"] == 0, "run entry should evict"
            assert store.get_artifact("k") == detector.to_document()

    def test_older_store_gains_the_table(self, tmp_path):
        root = tmp_path / "old"
        root.mkdir()
        conn = sqlite3.connect(root / "index.sqlite")
        conn.execute(
            "CREATE TABLE counters (name TEXT PRIMARY KEY, "
            "value REAL NOT NULL DEFAULT 0)"
        )
        conn.commit()
        conn.close()
        with ExperimentStore(root) as store:
            assert store.get_artifact("missing") is None
            store.put_artifact("k", {"a": 1})
            assert store.get_artifact("k") == {"a": 1}

    def test_non_object_payload_reads_as_miss(self, store):
        store.put_artifact("k", {"a": 1})
        store._conn.execute("UPDATE artifacts SET payload_json = '[1, 2]'")
        assert store.get_artifact("k") is None
