"""Tests for histogram-tree serialization."""

import json

import pytest

from repro.domains import Box
from repro.spatial import (
    generate_workload,
    load_tree,
    save_tree,
    tree_from_dict,
    tree_to_dict,
)
from repro.spatial.quadtree import _privtree_histogram


class TestRoundTrip:
    def test_dict_roundtrip_preserves_structure(self, uniform_2d):
        original = _privtree_histogram(uniform_2d, epsilon=1.0, rng=0)
        restored = tree_from_dict(tree_to_dict(original))
        assert restored.size == original.size
        assert restored.leaf_count == original.leaf_count
        assert restored.total_count == pytest.approx(original.total_count)

    def test_roundtrip_preserves_query_answers(self, clustered_2d):
        original = _privtree_histogram(clustered_2d, epsilon=1.0, rng=1)
        restored = tree_from_dict(tree_to_dict(original))
        for query in generate_workload(clustered_2d.domain, "medium", 20, rng=2):
            assert restored.range_count(query) == pytest.approx(
                original.range_count(query)
            )

    def test_file_roundtrip(self, uniform_2d, tmp_path):
        original = _privtree_histogram(uniform_2d, epsilon=1.0, rng=0)
        path = tmp_path / "synopsis.json"
        save_tree(original, path)
        restored = load_tree(path)
        assert restored.size == original.size

    def test_document_is_plain_json(self, uniform_2d, tmp_path):
        original = _privtree_histogram(uniform_2d, epsilon=1.0, rng=0)
        path = tmp_path / "synopsis.json"
        save_tree(original, path)
        data = json.loads(path.read_text())
        assert data["format"] == "repro.histogram_tree"
        assert "root" in data
        assert set(data["root"]) <= {"low", "high", "count", "children"}


class TestValidation:
    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError):
            tree_from_dict({"format": "something-else", "version": 1})

    def test_wrong_version_rejected(self, uniform_2d):
        doc = tree_to_dict(_privtree_histogram(uniform_2d, epsilon=1.0, rng=0))
        doc["version"] = 999
        with pytest.raises(ValueError):
            tree_from_dict(doc)

    def test_degenerate_box_rejected_on_load(self):
        doc = {
            "format": "repro.histogram_tree",
            "version": 1,
            "root": {"low": [0.0], "high": [0.0], "count": 1.0},
        }
        with pytest.raises(ValueError):
            tree_from_dict(doc)


def _doc(root):
    return {"format": "repro.histogram_tree", "version": 1, "root": root}


class TestMalformedDocuments:
    """Untrusted artifacts (the HTTP service's input) must fail at load.

    Regression: these documents used to load silently and only blow up —
    or worse, answer garbage — inside the flat-engine query math.
    """

    def test_inverted_box_rejected(self):
        root = {"low": [1.0, 0.0], "high": [0.0, 1.0], "count": 5.0}
        with pytest.raises(ValueError, match="low must be < high"):
            tree_from_dict(_doc(root))

    def test_non_finite_coordinates_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            root = {"low": [0.0, 0.0], "high": [1.0, bad], "count": 5.0}
            with pytest.raises(ValueError, match="non-finite box coordinate"):
                tree_from_dict(_doc(root))

    def test_non_finite_count_rejected(self):
        for bad in (float("nan"), float("inf")):
            root = {"low": [0.0], "high": [1.0], "count": bad}
            with pytest.raises(ValueError, match="non-finite node count"):
                tree_from_dict(_doc(root))

    def test_non_numeric_count_rejected(self):
        root = {"low": [0.0], "high": [1.0], "count": "lots"}
        with pytest.raises(ValueError, match="numeric 'count'"):
            tree_from_dict(_doc(root))

    def test_child_escaping_parent_rejected(self):
        root = {
            "low": [0.0, 0.0],
            "high": [1.0, 1.0],
            "count": 10.0,
            "children": [
                {"low": [0.0, 0.0], "high": [0.5, 1.0], "count": 4.0},
                {"low": [0.5, 0.0], "high": [1.5, 1.0], "count": 6.0},
            ],
        }
        with pytest.raises(ValueError, match="escapes its parent"):
            tree_from_dict(_doc(root))

    def test_child_dimension_mismatch_rejected(self):
        root = {
            "low": [0.0, 0.0],
            "high": [1.0, 1.0],
            "count": 10.0,
            "children": [{"low": [0.0], "high": [0.5], "count": 4.0}],
        }
        with pytest.raises(ValueError, match="dims"):
            tree_from_dict(_doc(root))

    def test_missing_extents_rejected(self):
        with pytest.raises(ValueError, match="low"):
            tree_from_dict(_doc({"count": 1.0}))
        with pytest.raises(ValueError, match="root"):
            tree_from_dict({"format": "repro.histogram_tree", "version": 1})

    def test_extent_length_mismatch_rejected(self):
        root = {"low": [0.0, 0.0], "high": [1.0], "count": 1.0}
        with pytest.raises(ValueError, match="dims"):
            tree_from_dict(_doc(root))

    @pytest.mark.parametrize(
        "document",
        [
            _doc(None),
            _doc([1, 2]),
            _doc({"low": [0.0], "high": [1.0], "count": 1.0, "children": [None]}),
            _doc({"low": [0.0], "high": [1.0], "count": 1.0, "children": {"a": 1}}),
            _doc({"low": [0.0], "high": [1.0], "count": 1.0, "children": "ab"}),
        ],
        ids=["null-root", "list-root", "null-child", "object-children", "string-children"],
    )
    def test_wrongly_typed_node_rejected(self, document):
        with pytest.raises(ValueError):
            tree_from_dict(document)

    def test_valid_nested_document_still_loads(self, uniform_2d):
        doc = tree_to_dict(_privtree_histogram(uniform_2d, epsilon=1.0, rng=0))
        restored = tree_from_dict(json.loads(json.dumps(doc)))
        assert restored.size >= 1
