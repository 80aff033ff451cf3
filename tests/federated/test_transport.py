"""Tests for the framed message layer, retry policy, and key exchange."""

import struct

import numpy as np
import pytest

from repro.federated.errors import (
    FrameCorruptError,
    FrameVersionError,
    KeyExchangeError,
)
from repro.federated.transport import (
    FRAME_FORMAT,
    FRAME_KINDS,
    FRAME_VERSION,
    MAX_FRAME_BYTES,
    MODP_GENERATOR,
    MODP_PRIME,
    DiffieHellman,
    RetryPolicy,
    decode_frame,
    derive_pair_seed,
    encode_frame,
    node_ids_digest,
    read_frame,
)


def _roundtrip(message: dict) -> dict:
    data = encode_frame(message)
    body_len, crc = struct.unpack(">II", data[:8])
    assert body_len == len(data) - 8
    return decode_frame(data[8:], crc)


class TestFraming:
    def test_roundtrip_preserves_payload(self):
        message = {"kind": "counts_request", "round": 3, "node_ids": [0, 1]}
        decoded = _roundtrip(message)
        assert decoded["kind"] == "counts_request"
        assert decoded["round"] == 3
        assert decoded["node_ids"] == [0, 1]
        assert decoded["format"] == FRAME_FORMAT
        assert decoded["version"] == FRAME_VERSION

    def test_every_declared_kind_encodes(self):
        for kind in FRAME_KINDS:
            assert _roundtrip({"kind": kind})["kind"] == kind

    def test_unknown_kind_is_refused_at_encode(self):
        with pytest.raises(ValueError, match="kind"):
            encode_frame({"kind": "totally-new-kind"})

    def test_any_flipped_body_byte_is_detected(self):
        data = bytearray(encode_frame({"kind": "heartbeat"}))
        body_len, crc = struct.unpack(">II", data[:8])
        for i in range(8, len(data)):
            corrupted = bytearray(data)
            corrupted[i] ^= 0x41
            with pytest.raises(FrameCorruptError, match="checksum"):
                decode_frame(bytes(corrupted[8:]), crc)

    def test_wrong_version_is_typed(self):
        import json
        import zlib

        body = json.dumps(
            {"format": FRAME_FORMAT, "version": 99, "kind": "heartbeat"}
        ).encode()
        with pytest.raises(FrameVersionError, match="version 99.*version 2"):
            decode_frame(body, zlib.crc32(body))

    def test_wrong_format_is_typed(self):
        import json
        import zlib

        body = json.dumps(
            {"format": "not.this.protocol", "version": 1, "kind": "heartbeat"}
        ).encode()
        with pytest.raises(FrameCorruptError, match="format"):
            decode_frame(body, zlib.crc32(body))

    def test_read_frame_rejects_oversized_header(self):
        header = struct.pack(">II", MAX_FRAME_BYTES + 1, 0)
        chunks = [header]

        def read_exactly(n: int) -> bytes:
            return chunks.pop(0)

        with pytest.raises(FrameCorruptError, match="exceeds"):
            read_frame(read_exactly)

    def test_digest_depends_on_order_and_content(self):
        a = node_ids_digest([0, 1])
        assert a == node_ids_digest(np.array([0, 1]))
        assert a != node_ids_digest([1, 0])
        assert a != node_ids_digest([0])


class TestRetryPolicy:
    def test_backoffs_are_bounded_full_jitter(self):
        policy = RetryPolicy(
            attempts=5, base_backoff_s=0.1, max_backoff_s=0.4, deadline_s=10
        )
        rng = np.random.default_rng(0)
        delays = list(policy.backoffs(rng.random))
        assert len(delays) == 4  # one fewer than attempts
        for i, delay in enumerate(delays):
            assert 0 <= delay <= min(0.4, 0.1 * 2**i)

    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=0)
        with pytest.raises(ValueError):
            RetryPolicy(deadline_s=-1)


class TestDiffieHellman:
    def test_shared_secret_agrees(self):
        a = DiffieHellman(private=1234567)
        b = DiffieHellman(private=7654321)
        assert a.shared_secret(b.public) == b.shared_secret(a.public)

    def test_public_is_group_element(self):
        dh = DiffieHellman(private=99)
        assert dh.public == pow(MODP_GENERATOR, 99, MODP_PRIME)

    def test_out_of_range_peer_is_refused(self):
        dh = DiffieHellman()
        for bogus in (0, 1, MODP_PRIME - 1, MODP_PRIME):
            with pytest.raises(KeyExchangeError):
                dh.shared_secret(bogus)

    def test_pair_seed_is_symmetric_but_session_bound(self):
        a = DiffieHellman(private=3)
        b = DiffieHellman(private=5)
        secret = a.shared_secret(b.public)
        seed = derive_pair_seed(secret, (0, 1), "s1")
        assert seed == derive_pair_seed(secret, (0, 1), "s1")
        assert seed != derive_pair_seed(secret, (0, 2), "s1")
        assert seed != derive_pair_seed(secret, (0, 1), "s2")
