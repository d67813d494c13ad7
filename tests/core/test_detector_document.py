"""Plain-JSON document form of decision trees and cloud detectors.

Detectors persist in the experiment store as JSON, never pickles, so the
document must round-trip *exactly*: a rebuilt tree's predictions are
bitwise equal to the original's on any input, and anything malformed is
rejected with :class:`PipelineError` (the store then retrains).
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cloud import CloudDetector, DecisionTree, _training_captures
from repro.errors import PipelineError


def _through_json(document: dict) -> dict:
    return json.loads(json.dumps(document))


class TestTreeDocument:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(20, 400),
        d=st.integers(1, 4),
        max_depth=st.integers(1, 6),
        min_leaf=st.integers(1, 12),
    )
    def test_round_trip_predicts_bitwise_equal(
        self, seed, n, d, max_depth, min_leaf
    ):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d)) * rng.uniform(1e-3, 1e3)
        y = rng.random(n) < rng.uniform(0.05, 0.95)
        tree = DecisionTree(max_depth=max_depth, min_leaf=min_leaf).fit(x, y)
        document = tree.to_document()
        rebuilt = DecisionTree.from_document(
            _through_json(document), n_features=d
        )
        assert rebuilt.to_document() == document
        assert rebuilt.depth() == tree.depth()
        probe = np.concatenate([x, rng.normal(size=(64, d)) * 10.0])
        assert (
            rebuilt.predict_fraction(probe).tobytes()
            == tree.predict_fraction(probe).tobytes()
        )

    def test_unfitted_tree_has_no_document(self):
        with pytest.raises(PipelineError):
            DecisionTree().to_document()

    @pytest.fixture()
    def document(self, rng):
        x = rng.random((300, 3))
        y = (x[:, 0] > 0.4) & (x[:, 2] < 0.7)
        return DecisionTree(max_depth=3).fit(x, y).to_document()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: doc["nodes"].pop(),
            lambda doc: doc["nodes"].append(dict(doc["nodes"][-1])),
            lambda doc: doc["nodes"][0].update(feature=3),
            lambda doc: doc["nodes"][0].update(feature=True),
            lambda doc: doc["nodes"][0].update(threshold="0.5"),
            lambda doc: doc["nodes"][0].update(threshold=float("inf")),
            lambda doc: doc["nodes"][-1].update(positive_fraction=1.5),
            lambda doc: doc["nodes"][0].pop("threshold"),
            lambda doc: doc.update(max_depth=1),
            lambda doc: doc.update(max_depth="3"),
            lambda doc: doc.update(nodes={}),
        ],
        ids=[
            "truncated", "trailing", "feature-range", "feature-bool",
            "threshold-type", "threshold-inf", "fraction-range",
            "missing-field", "too-deep", "depth-type", "nodes-type",
        ],
    )
    def test_malformed_rejected(self, document, corrupt):
        broken = copy.deepcopy(document)
        corrupt(broken)
        with pytest.raises(PipelineError):
            DecisionTree.from_document(broken, n_features=3)


class TestDetectorDocument:
    def test_round_trip_detects_identically(
        self, onboard_detector, ground_detector, two_bands, small_grid
    ):
        captures = _training_captures(
            two_bands, seed=7, n_captures=3, shape=small_grid.image_shape
        )
        for detector in (onboard_detector, ground_detector):
            document = _through_json(detector.to_document())
            rebuilt = CloudDetector.from_document(document)
            assert rebuilt.to_document() == detector.to_document()
            for pixels, _oracle in captures:
                assert (
                    rebuilt.detect(pixels, two_bands, small_grid).tobytes()
                    == detector.detect(pixels, two_bands, small_grid).tobytes()
                )

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: doc.update(granularity="voxel"),
            lambda doc: doc.update(min_confidence=2.0),
            lambda doc: doc.update(block_px=0),
            lambda doc: doc.update(name=7),
            lambda doc: doc.pop("tree"),
            lambda doc: doc.update(extra=1),
            lambda doc: doc["tree"]["nodes"].clear(),
        ],
    )
    def test_malformed_rejected(self, onboard_detector, corrupt):
        broken = copy.deepcopy(onboard_detector.to_document())
        corrupt(broken)
        with pytest.raises(PipelineError):
            CloudDetector.from_document(broken)

    def test_not_an_object_rejected(self):
        with pytest.raises(PipelineError):
            CloudDetector.from_document([1, 2, 3])  # type: ignore[arg-type]
