"""Tests for PST serialization."""

import json

import numpy as np
import pytest

from repro.api.releases import SequenceRelease
from repro.queries import PrefixCount
from repro.sequence import (
    Alphabet,
    SequenceDataset,
    load_pst,
    private_pst,
    pst_from_dict,
    pst_to_dict,
    save_pst,
)

ARRAYS = (
    "hists", "parents", "edge_symbols", "depths", "child_table", "totals", "cum_probs"
)


@pytest.fixture
def model():
    alpha = Alphabet(("A", "B"))
    gen = np.random.default_rng(4)
    seqs = tuple(
        gen.choice(2, size=int(gen.integers(1, 10))).astype(np.int64)
        for _ in range(500)
    )
    data = SequenceDataset.from_sequences(alpha, seqs, name="ser")
    return private_pst(data, epsilon=2.0, l_top=12, rng=0)


class TestRoundTrip:
    def test_structure_preserved(self, model):
        restored = pst_from_dict(pst_to_dict(model))
        assert restored.size == model.size
        assert restored.height == model.height
        assert restored.alphabet == model.alphabet

    def test_histograms_preserved(self, model):
        restored = pst_from_dict(pst_to_dict(model))
        for name in ARRAYS:
            got, expected = getattr(restored, name), getattr(model, name)
            assert got.dtype == expected.dtype, name
            assert got.tobytes() == expected.tobytes(), name

    def test_query_answers_preserved(self, model):
        restored = pst_from_dict(pst_to_dict(model))
        for codes in [(0,), (1,), (0, 1), (1, 1, 0)]:
            assert restored.string_frequency(codes) == pytest.approx(
                model.string_frequency(codes)
            )

    def test_sampling_identical_given_seed(self, model):
        restored = pst_from_dict(pst_to_dict(model))
        a = model.sample_sequence(rng=5, max_length=20)
        b = restored.sample_sequence(rng=5, max_length=20)
        np.testing.assert_array_equal(a, b)

    def test_file_roundtrip(self, model, tmp_path):
        path = tmp_path / "pst.json"
        save_pst(model, path)
        restored = load_pst(path)
        assert restored.size == model.size
        # The document must be plain JSON with a header.
        doc = json.loads(path.read_text())
        assert doc["format"] == "repro.prediction_suffix_tree"
        assert doc["alphabet"] == ["A", "B"]


class TestValidation:
    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError):
            pst_from_dict({"format": "nope", "version": 1})

    def test_wrong_version_rejected(self, model):
        doc = pst_to_dict(model)
        doc["version"] = 0
        with pytest.raises(ValueError):
            pst_from_dict(doc)


def _doc(root, alphabet=("A", "B")):
    return {
        "format": "repro.prediction_suffix_tree",
        "version": 1,
        "alphabet": list(alphabet),
        "root": root,
    }


class TestMalformedDocuments:
    """Untrusted PST artifacts must fail at load with clear errors."""

    def test_non_finite_hist_rejected(self):
        for bad in (float("nan"), float("inf")):
            root = {"context": [], "hist": [1.0, 2.0, bad]}
            with pytest.raises(ValueError, match="non-finite histogram"):
                pst_from_dict(_doc(root))

    def test_wrong_hist_width_rejected(self):
        # Alphabet ("A", "B") predicts over I u {&}: exactly 3 entries.
        root = {"context": [], "hist": [1.0, 2.0]}
        with pytest.raises(ValueError, match="3"):
            pst_from_dict(_doc(root))

    def test_non_numeric_hist_rejected(self):
        root = {"context": [], "hist": ["many", 1.0, 2.0]}
        with pytest.raises(ValueError, match="numeric 'hist'"):
            pst_from_dict(_doc(root))

    def test_child_context_must_extend_parent(self):
        root = {
            "context": [],
            "hist": [1.0, 2.0, 3.0],
            "children": {"0": {"context": [1], "hist": [1.0, 1.0, 1.0]}},
        }
        with pytest.raises(ValueError, match="does not\\s+extend"):
            pst_from_dict(_doc(root))

    def test_non_integer_child_key_rejected(self):
        root = {
            "context": [],
            "hist": [1.0, 2.0, 3.0],
            "children": {"zero": {"context": [0], "hist": [1.0, 1.0, 1.0]}},
        }
        with pytest.raises(ValueError, match="non-integer child key"):
            pst_from_dict(_doc(root))

    def test_missing_root_rejected(self):
        doc = _doc({"context": [], "hist": [1.0, 1.0, 1.0]})
        del doc["root"]
        with pytest.raises(ValueError, match="root"):
            pst_from_dict(doc)

    def test_missing_or_bad_alphabet_rejected(self):
        doc = _doc({"context": [], "hist": [1.0, 1.0, 1.0]})
        del doc["alphabet"]
        with pytest.raises(ValueError, match="alphabet"):
            pst_from_dict(doc)
        bad = _doc({"context": [], "hist": [1.0]})
        bad["alphabet"] = 7
        with pytest.raises(ValueError, match="alphabet"):
            pst_from_dict(bad)

    def test_valid_nested_document_still_loads(self, model):
        restored = pst_from_dict(json.loads(json.dumps(pst_to_dict(model))))
        assert restored.size == model.size

    def test_null_or_list_root_rejected(self):
        for root in (None, [], [{"context": [], "hist": [1.0, 1.0, 1.0]}]):
            with pytest.raises(ValueError, match="must be a JSON object"):
                pst_from_dict(_doc(root))

    def test_root_context_must_be_empty(self):
        # Children extending a non-empty root context used to load, and the
        # writer then dropped the root's symbols from every context.
        child = {"context": [0, 1], "hist": [1.0, 1.0, 1.0]}
        root = {"context": [1], "hist": [1.0, 2.0, 3.0], "children": {"0": child}}
        with pytest.raises(ValueError, match="root's context must be empty"):
            pst_from_dict(_doc(root))

    def test_null_child_rejected(self):
        root = {"context": [], "hist": [1.0, 2.0, 3.0], "children": {"0": None}}
        with pytest.raises(ValueError, match="must be a JSON object"):
            pst_from_dict(_doc(root))

    @pytest.mark.parametrize("children", [[], [{"context": [0]}], "01", None])
    def test_children_must_be_an_object(self, children):
        root = {"context": [], "hist": [1.0, 2.0, 3.0], "children": children}
        with pytest.raises(ValueError, match="'children' must be an object"):
            pst_from_dict(_doc(root))

    @pytest.mark.parametrize("key", ["99", "2", "4", "-1"])
    def test_child_key_outside_the_context_symbols_rejected(self, key):
        # Alphabet ("A", "B"): I = {0, 1}, & = 2, $ = 3.  Key -1 used to
        # land in the last child-table column, which is the $ column.
        child = {"context": [int(key)], "hist": [1.0, 1.0, 1.0]}
        root = {"context": [], "hist": [1.0, 2.0, 3.0], "children": {key: child}}
        with pytest.raises(ValueError, match=r"not a\s+symbol of I or the start"):
            pst_from_dict(_doc(root))

    def test_minus_one_key_cannot_stand_in_for_the_start_node(self, model):
        # A release whose $ node was swapped for a "-1" child must not
        # claim sequence-start statistics it does not have.
        doc = pst_to_dict(model)
        start = str(model.alphabet.start_code)
        removed = doc["root"]["children"].pop(start)
        removed["context"] = [-1]
        doc["root"]["children"]["-1"] = removed
        with pytest.raises(ValueError, match=r"not a\s+symbol of I or the start"):
            pst_from_dict(doc)
        del doc["root"]["children"]["-1"]
        release = SequenceRelease(pst_from_dict(doc), method="pst", epsilon_spent=2.0)
        assert PrefixCount not in release.supported_query_types()

    def test_repeated_child_key_rejected(self):
        child = {"context": [1], "hist": [1.0, 1.0, 1.0]}
        root = {
            "context": [],
            "hist": [1.0, 2.0, 3.0],
            "children": {"1": child, "01": child},
        }
        with pytest.raises(ValueError, match="two children keyed 1"):
            pst_from_dict(_doc(root))

    def test_children_laid_out_in_code_order_whatever_the_key_order(self, model):
        doc = json.loads(json.dumps(pst_to_dict(model)))

        def reverse(node):
            if "children" in node:
                node["children"] = {
                    key: reverse(child)
                    for key, child in reversed(list(node["children"].items()))
                }
            return node

        reverse(doc["root"])
        restored = pst_from_dict(doc)
        for name in ARRAYS:
            assert getattr(restored, name).tobytes() == getattr(model, name).tobytes()
