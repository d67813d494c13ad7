"""Staleness guard for stored detector artifacts.

The experiment store keeps trained cloud detectors keyed by their
training inputs plus ``SCHEMA_VERSION`` (see ``repro.store.specs``), so
a change to detector training that does not bump ``SCHEMA_VERSION``
would leave stores serving detectors the new code would never train.
``golden/detectors.json`` pins the document form of the default
on-board and ground detectors for two band sets; retraining from
scratch must reproduce it exactly.

After a deliberate training change, bump ``SCHEMA_VERSION`` and
regenerate the golden with::

    PYTHONPATH=src python tests/core/test_detector_golden.py

Regenerating refuses to record different detectors under the version
the golden already holds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.core import cloud
from repro.imagery.bands import PLANET_BANDS, get_band
from repro.store.specs import SCHEMA_VERSION

GOLDEN_PATH = Path(__file__).parent / "golden" / "detectors.json"

#: Band sets the golden covers: the test suite's pair and Planet's four.
BAND_SETS = {
    "B4+B11": (get_band("B4"), get_band("B11")),
    "planet": PLANET_BANDS,
}

STALE_MESSAGE = (
    "detector training changed: bump SCHEMA_VERSION in "
    "repro/store/specs.py and regenerate the golden"
)


def fresh_documents() -> dict:
    """Default detectors for every band set, trained past the memo."""
    saved = dict(cloud._DETECTOR_CACHE)
    cloud._DETECTOR_CACHE.clear()
    try:
        return {
            name: {
                "onboard": cloud.train_onboard_detector(bands).to_document(),
                "ground": cloud.train_ground_detector(bands).to_document(),
            }
            for name, bands in BAND_SETS.items()
        }
    finally:
        cloud._DETECTOR_CACHE.clear()
        cloud._DETECTOR_CACHE.update(saved)


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def golden() -> dict:
    return load_golden()


def test_retrained_detectors_match_golden(golden):
    fresh = fresh_documents()
    if fresh != golden["detectors"]:
        pytest.fail(STALE_MESSAGE)


def test_golden_taken_at_current_schema_version(golden):
    assert golden["schema_version"] == SCHEMA_VERSION, (
        "SCHEMA_VERSION changed: regenerate the detector golden"
    )


def regenerate() -> int:
    fresh = fresh_documents()
    if GOLDEN_PATH.exists():
        old = load_golden()
        if old["schema_version"] == SCHEMA_VERSION and old["detectors"] != fresh:
            print(STALE_MESSAGE + " (refusing to overwrite)", file=sys.stderr)
            return 1
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(
            {"schema_version": SCHEMA_VERSION, "detectors": fresh},
            indent=1,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
