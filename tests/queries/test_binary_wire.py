"""The packed binary wire form: round-trips, fast path, malformed payloads."""

import numpy as np
import pytest

from repro.domains import Box
from repro.queries import (
    BINARY_ANSWERS_CONTENT_TYPE,
    BINARY_WIRE_CONTENT_TYPE,
    Marginal1D,
    NextSymbolDistribution,
    PackedRangeCounts,
    PointCount,
    PrefixCount,
    QueryDecodeError,
    QueryValidationError,
    RangeCount,
    StringFrequency,
    Workload,
    decode_binary_answers,
    decode_binary_workload,
    encode_binary_answers,
    encode_binary_workload,
)


def _range_workload(n=5, d=2, seed=0):
    rng = np.random.default_rng(seed)
    lows = rng.random((n, d)) * 0.5
    highs = lows + 0.1 + rng.random((n, d)) * 0.3
    return Workload.of(
        [RangeCount(low=tuple(l), high=tuple(h)) for l, h in zip(lows, highs)]
    )


MIXED_QUERIES = [
    RangeCount(low=(0.1, 0.1), high=(0.4, 0.5)),
    RangeCount(low=(0.0, 0.0), high=(1.0, 1.0)),
    PointCount(point=(0.25, 0.75)),
    Marginal1D.regular(axis=0, n_bins=4, low=0.0, high=1.0),
    StringFrequency(codes=(0, 1)),
    PrefixCount(codes=(1,)),
    NextSymbolDistribution(context=(0,)),
    RangeCount(low=(0.2, 0.2), high=(0.3, 0.3)),
]


class TestWorkloadRoundTrip:
    def test_all_range_counts_decode_to_packed_arrays(self):
        workload = _range_workload(n=7)
        packed = decode_binary_workload(encode_binary_workload(workload))
        assert isinstance(packed, PackedRangeCounts)
        assert len(packed) == 7
        assert packed.ndim == 2
        expected_lows = np.array([q.low for q in workload])
        expected_highs = np.array([q.high for q in workload])
        assert np.array_equal(packed.q_lows, expected_lows)
        assert np.array_equal(packed.q_highs, expected_highs)

    def test_mixed_batch_round_trips_in_order(self):
        workload = Workload.of(MIXED_QUERIES)
        decoded = decode_binary_workload(encode_binary_workload(workload))
        assert isinstance(decoded, Workload)
        assert decoded == workload

    def test_empty_workload_round_trips(self):
        decoded = decode_binary_workload(encode_binary_workload(Workload.of([])))
        assert isinstance(decoded, Workload)
        assert len(decoded) == 0

    def test_single_non_range_query_materializes_workload(self):
        workload = Workload.of([PointCount(point=(0.5, 0.5))])
        decoded = decode_binary_workload(encode_binary_workload(workload))
        assert isinstance(decoded, Workload)
        assert decoded == workload

    def test_answers_against_release_match_json_path(self, uniform_2d):
        from repro.api import from_spec

        release = from_spec("privtree", epsilon=1.0).fit(uniform_2d, rng=0)
        workload = _range_workload(n=6, seed=3)
        packed = decode_binary_workload(encode_binary_workload(workload))
        direct = release.answer(workload)
        via_arrays = release.range_count_arrays(packed.q_lows, packed.q_highs)
        assert np.array_equal(direct, via_arrays)


class TestAnswerRoundTrip:
    def test_values_and_offsets_bit_exact(self):
        values = np.random.default_rng(0).random(11) * 1e6
        offsets = np.arange(12, dtype=np.uint32)
        out_values, out_offsets = decode_binary_answers(
            encode_binary_answers(values, offsets)
        )
        assert np.array_equal(out_values, values)
        assert np.array_equal(out_offsets, offsets)

    def test_vector_query_offsets(self):
        values = np.arange(7, dtype=np.float64)
        offsets = np.array([0, 1, 5, 7], dtype=np.uint32)  # 3 queries
        out_values, out_offsets = decode_binary_answers(
            encode_binary_answers(values, offsets)
        )
        assert np.array_equal(out_offsets, offsets)
        assert np.array_equal(out_values[1:5], values[1:5])

    def test_answer_payload_rejects_bad_magic(self):
        payload = bytearray(
            encode_binary_answers(np.zeros(1), np.array([0, 1], dtype=np.uint32))
        )
        payload[:4] = b"XXXX"
        with pytest.raises(QueryDecodeError):
            decode_binary_answers(bytes(payload))


class TestMalformedPayloads:
    def test_bad_magic(self):
        with pytest.raises(QueryDecodeError):
            decode_binary_workload(b"JSON{not binary}")

    def test_truncated_header(self):
        with pytest.raises(QueryDecodeError):
            decode_binary_workload(b"RPWB\x01")

    def test_truncated_columns(self):
        payload = encode_binary_workload(_range_workload(n=4))
        with pytest.raises(QueryDecodeError):
            decode_binary_workload(payload[:-8])

    def test_trailing_bytes_rejected(self):
        payload = encode_binary_workload(_range_workload(n=2))
        with pytest.raises(QueryDecodeError):
            decode_binary_workload(payload + b"\x00")

    def test_unknown_tag_rejected(self):
        payload = bytearray(encode_binary_workload(_range_workload(n=2)))
        payload[8] = 0xEE  # first section's tag byte
        with pytest.raises(QueryDecodeError):
            decode_binary_workload(bytes(payload))

    def test_invalid_bounds_raise_validation_error_with_index(self):
        queries = [
            RangeCount(low=(0.1, 0.1), high=(0.4, 0.5)),
            PointCount(point=(0.5, 0.5)),
        ]
        payload = bytearray(encode_binary_workload(Workload.of(queries)))
        # Corrupt the first range bound to NaN: materialization re-validates.
        nan = np.array([np.nan]).tobytes()
        start = 8 + 8  # file header + first section header
        payload[start : start + 8] = nan
        with pytest.raises((QueryDecodeError, QueryValidationError)) as info:
            decode_binary_workload(bytes(payload))
        assert getattr(info.value, "index", None) == 0

    def test_packed_validate_checks_domain_and_finiteness(self):
        packed = decode_binary_workload(
            encode_binary_workload(_range_workload(n=3, d=2))
        )
        packed.validate(Box.unit(2))  # fine
        with pytest.raises(QueryValidationError):
            packed.validate(Box.unit(3))  # wrong dimensionality
        bad = PackedRangeCounts(
            q_lows=np.array([[0.4, 0.4]]), q_highs=np.array([[0.1, 0.5]])
        )
        with pytest.raises(QueryValidationError):
            bad.validate(Box.unit(2))  # low >= high


class TestContentTypes:
    def test_distinct_vendor_types(self):
        assert BINARY_WIRE_CONTENT_TYPE == "application/x-repro-workload"
        assert BINARY_ANSWERS_CONTENT_TYPE == "application/x-repro-answers"
        assert BINARY_WIRE_CONTENT_TYPE != BINARY_ANSWERS_CONTENT_TYPE
