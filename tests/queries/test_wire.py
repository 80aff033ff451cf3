"""Wire-codec round trips — every query type, across all 10 methods."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.queries import (
    QueryDecodeError,
    RangeCount,
    StringFrequency,
    Workload,
    decode_query_batch,
    query_from_wire,
    query_type_registry,
    workload_from_wire,
)

from .conftest import FAST_PARAMS, example_queries, fitted_release


class TestQueryRoundTrip:
    @pytest.mark.parametrize("name", sorted(FAST_PARAMS))
    def test_every_type_round_trips_on_every_method(
        self, name, uniform_2d, sequence_data
    ):
        """to_wire -> query_from_wire is the identity, and the round-tripped
        workload answers bit-identically, for each method's supported types."""
        release = fitted_release(name, uniform_2d, sequence_data)
        domain = release.query_domain
        for query_cls in release.supported_query_types():
            queries = example_queries(
                query_cls, domain, include_anchored=(name == "pst")
            )
            for query in queries:
                wire = query.to_wire()
                # The wire form is plain JSON (no numpy scalars, no tuples).
                recoded = json.loads(json.dumps(wire))
                assert recoded == wire
                assert query_from_wire(recoded) == query
            workload = Workload.of(queries)
            round_tripped = workload_from_wire(
                json.loads(json.dumps(workload.to_wire()))
            )
            assert round_tripped == workload
            assert np.array_equal(
                release.answer(round_tripped), release.answer(workload)
            )

    def test_wire_form_is_versioned_and_tagged(self):
        wire = RangeCount(low=(0.0, 0.0), high=(1.0, 1.0)).to_wire()
        assert wire["format"] == "repro.query"
        assert wire["version"] == 1
        assert wire["type"] == "range_count"

    def test_every_registered_type_has_examples(self, uniform_2d, sequence_data):
        """The parametrized round trip above covers all six tags."""
        spatial = fitted_release("privtree", uniform_2d, sequence_data)
        pst = fitted_release("pst", uniform_2d, sequence_data)
        covered = set()
        for release in (spatial, pst):
            for cls in release.supported_query_types():
                covered.add(cls.type_tag)
        assert covered == set(query_type_registry())


class TestDecodeErrors:
    def test_rejects_wrong_format(self):
        with pytest.raises(QueryDecodeError, match="format"):
            query_from_wire({"format": "repro.release", "version": 1})

    def test_rejects_unknown_version(self):
        with pytest.raises(QueryDecodeError, match="version"):
            query_from_wire(
                {"format": "repro.query", "version": 99, "type": "range_count"}
            )

    def test_rejects_unhashable_type_field(self):
        # A list "type" must be a decode error, not a TypeError traceback.
        with pytest.raises(QueryDecodeError, match="must be a string"):
            query_from_wire(
                {"format": "repro.query", "version": 1, "type": ["range_count"]}
            )

    def test_rejects_unknown_type_listing_known(self):
        with pytest.raises(QueryDecodeError, match="range_count"):
            query_from_wire(
                {"format": "repro.query", "version": 1, "type": "sql"}
            )

    def test_rejects_malformed_payload(self):
        with pytest.raises(QueryDecodeError, match="range_count"):
            query_from_wire(
                {"format": "repro.query", "version": 1, "type": "range_count"}
            )

    def test_workload_reports_offending_index(self):
        doc = {
            "format": "repro.workload",
            "version": 1,
            "queries": [
                StringFrequency(codes=(0,)).to_wire(),
                {"format": "repro.query", "version": 1, "type": "nope"},
            ],
        }
        with pytest.raises(QueryDecodeError, match="workload query 1") as excinfo:
            workload_from_wire(doc)
        assert excinfo.value.index == 1


class TestDecodeBatch:
    def test_typed_entries_decode_in_order(self):
        raw = [
            RangeCount(low=(0.0, 0.0), high=(1.0, 1.0)).to_wire(),
            RangeCount(low=(0.1, 0.1), high=(0.5, 0.5)).to_wire(),
        ]
        workload = decode_query_batch(raw, spatial=True)
        assert list(workload) == [
            RangeCount(low=(0.0, 0.0), high=(1.0, 1.0)),
            RangeCount(low=(0.1, 0.1), high=(0.5, 0.5)),
        ]

    def test_malformed_entry_reports_index(self):
        raw = [
            RangeCount(low=(0.0, 0.0), high=(1.0, 1.0)).to_wire(),
            {"format": "repro.query", "version": 1, "type": "range_count"},
        ]
        with pytest.raises(QueryDecodeError, match="query 1 is malformed") as excinfo:
            decode_query_batch(raw, spatial=True)
        assert excinfo.value.index == 1

    def test_string_not_treated_as_code_list(self):
        with pytest.raises(QueryDecodeError, match="query 0 is malformed"):
            decode_query_batch(["12"], spatial=False)

    @pytest.mark.parametrize(
        "spatial,typed,raw,replacement",
        [
            (
                True,
                RangeCount(low=(0.0, 0.0), high=(1.0, 1.0)),
                {"low": [0.1, 0.1], "high": [0.5, 0.5]},
                "range_count",
            ),
            (False, StringFrequency(codes=(0,)), [0, 1, 2], "string_frequency"),
        ],
        ids=["box", "code_list"],
    )
    def test_raw_entry_rejected_names_typed_replacement(
        self, spatial, typed, raw, replacement
    ):
        """The raw forms of 1.x were removed in 2.0.0; the error says what
        to send instead, at the raw entry's index."""
        expected = f'"type": "{replacement}"'
        with pytest.raises(QueryDecodeError, match=expected) as excinfo:
            decode_query_batch([typed.to_wire(), raw], spatial=spatial)
        assert excinfo.value.index == 1

    def test_typed_entry_error_names_no_replacement(self):
        # Only a raw entry is told which typed query to send instead.
        bad = {"format": "repro.query", "version": 1, "type": "string_frequency"}
        with pytest.raises(QueryDecodeError, match="query 0 is malformed") as excinfo:
            decode_query_batch([bad], spatial=False)
        assert "removed in 2.0.0" not in str(excinfo.value)
