"""The framed message layer of the federated protocol.

Every message between the coordinator and a collector travels as one
length-prefixed frame::

    u32 body_length | u32 crc32(body) | body (UTF-8 JSON)

with a versioned envelope inside the body, following the idiom of
:mod:`repro.queries.wire`::

    {"format": "repro.federated", "version": 2,
     "kind": "counts_request", "round": 7, "node_ids": [0, 5, 6], ...}

A round names its nodes by breadth-first number (the root is 0, and a
splits round's children take the next numbers in level order), one JSON
integer per node; a counts response carries its ``uint64`` shares as
base64 of their little-endian bytes (:func:`encode_shares` /
:func:`decode_shares`).

Design points:

* **Length-prefixed + checksummed**: a receiver always knows how many
  bytes to read (no delimiter scanning, no partial JSON), and a flipped
  bit anywhere in the body fails the CRC as a typed
  :class:`~repro.federated.errors.FrameCorruptError` instead of decoding
  into a plausible-but-wrong message.
* **Round ids in every frame**: requests and responses carry the round
  they belong to, so duplicated or reordered frames are *identified* and
  skipped rather than silently consumed as the next round's answer.
* **Content digests**: a counts request/response carries a digest of the
  node numbers, so a replayed round with different content is a
  :class:`~repro.federated.errors.RoundMismatchError`, never a masked
  aggregate over the wrong nodes.
* **One version**: a frame of another version is a
  :class:`~repro.federated.errors.FrameVersionError` naming both
  versions, which no retry can mend.

The module also provides :class:`RetryPolicy` (bounded retries with
exponential backoff and full jitter, under a per-round deadline) and the
finite-field Diffie-Hellman used for per-pair mask-key agreement
(:class:`DiffieHellman` / :func:`derive_pair_seed`) — RFC 3526 group 14,
pure ``pow``, no dependencies.
"""

from __future__ import annotations

import base64
import hashlib
import json
import secrets
import struct
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ..telemetry import get_registry
from .blinding import MASK_DTYPE
from .errors import (
    FrameCorruptError,
    FrameVersionError,
    KeyExchangeError,
    ShareShapeError,
)

__all__ = [
    "FRAME_FORMAT",
    "FRAME_VERSION",
    "MAX_FRAME_BYTES",
    "DiffieHellman",
    "RetryPolicy",
    "decode_frame",
    "decode_node_ids",
    "decode_shares",
    "derive_pair_seed",
    "encode_frame",
    "encode_shares",
    "node_ids_digest",
    "read_frame",
]

FRAME_FORMAT = "repro.federated"
FRAME_VERSION = 2

#: Node numbers and shares on the wire: little-endian, 8 bytes each.
_NUMBER_DTYPE = np.dtype("<i8")
_SHARE_DTYPE = np.dtype("<u8")

#: Refuse frames beyond this size: a counts round over even a million
#: nodes is far below it, so anything bigger is corruption or abuse.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">II")

#: Always-on corruption counter: every frame that fails CRC/JSON/envelope
#: validation, on either side of the wire.
_CORRUPT_FRAMES = get_registry().counter(
    "repro_federated_corrupt_frames_total",
    help="Frames rejected by checksum or envelope validation",
)

#: Frame kinds the protocol understands; receivers reject anything else.
FRAME_KINDS = frozenset(
    {
        "hello",
        "hello_ack",
        "keys",
        "keys_ack",
        "counts_request",
        "counts_response",
        "splits_request",
        "splits_ack",
        "heartbeat",
        "heartbeat_ack",
        "finish",
        "finish_ack",
        "error",
    }
)


def encode_frame(message: dict) -> bytes:
    """One wire frame for ``message`` (envelope fields added here)."""
    kind = message.get("kind")
    if kind not in FRAME_KINDS:
        raise ValueError(f"unknown frame kind {kind!r}")
    body = json.dumps(
        {"format": FRAME_FORMAT, "version": FRAME_VERSION, **message},
        separators=(",", ":"),
    ).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ValueError(f"frame body of {len(body)} bytes exceeds the frame cap")
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def decode_frame(body: bytes, expected_crc: int) -> dict:
    """Validate and parse one frame body (checksum, JSON, envelope)."""
    try:
        return _decode_frame(body, expected_crc)
    except FrameCorruptError:
        _CORRUPT_FRAMES.inc()
        raise


def _decode_frame(body: bytes, expected_crc: int) -> dict:
    if zlib.crc32(body) != expected_crc:
        raise FrameCorruptError(
            f"frame checksum mismatch over {len(body)} bytes; the frame was "
            "corrupted in transit"
        )
    try:
        message = json.loads(body)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameCorruptError(f"frame body is not valid JSON ({exc})") from None
    if not isinstance(message, dict):
        raise FrameCorruptError("frame body must be a JSON object")
    if message.get("format") != FRAME_FORMAT:
        raise FrameCorruptError(
            f"not a federated frame: format={message.get('format')!r}"
        )
    if message.get("version") != FRAME_VERSION:
        raise FrameVersionError(
            f"the peer sent frame version {message.get('version')!r}; this "
            f"side speaks version {FRAME_VERSION}"
        )
    if message.get("kind") not in FRAME_KINDS:
        raise FrameCorruptError(f"unknown frame kind {message.get('kind')!r}")
    return message


def read_frame(read_exactly: Callable[[int], bytes]) -> dict:
    """Read one frame through ``read_exactly(n) -> n bytes``.

    ``read_exactly`` must either return exactly ``n`` bytes or raise
    (``ConnectionError`` / ``TimeoutError``); a short read means the peer
    hung up mid-frame and surfaces as ``ConnectionError`` here.
    """
    header = read_exactly(_HEADER.size)
    if len(header) != _HEADER.size:
        raise ConnectionError("connection closed mid-frame (short header)")
    length, crc = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameCorruptError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    body = read_exactly(length)
    if len(body) != length:
        raise ConnectionError("connection closed mid-frame (short body)")
    return decode_frame(body, crc)


def node_ids_digest(node_ids) -> str:
    """A short stable digest binding a round to its exact node numbers.

    Hashes the numbers' little-endian int64 bytes.  Re-requests of a
    cached round must carry the same digest; a replayed round id over
    *different* nodes is a protocol error, because serving the cached
    shares for it would silently misalign counts and nodes.
    """
    data = np.asarray(node_ids, dtype=_NUMBER_DTYPE).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def decode_node_ids(value: object) -> np.ndarray:
    """A round's ``node_ids`` (a JSON list of integers) as int64 numbers.

    Raises ``ValueError`` naming the fault when ``value`` is not a list,
    holds anything but integers (a bool is not one), or holds an integer
    past int64.  Whether the numbers name grown nodes is the collector's
    check.
    """
    if not isinstance(value, list):
        raise ValueError(
            f"must be a list of node numbers, not {type(value).__name__}"
        )
    if not set(map(type, value)) <= {int}:
        bad = next(entry for entry in value if type(entry) is not int)
        raise ValueError(f"names {bad!r}, which is not a node number")
    try:
        return np.array(value, dtype=np.int64)
    except OverflowError:
        raise ValueError("names a node number past int64") from None


def encode_shares(shares: np.ndarray) -> str:
    """A counts response's shares: base64 of their little-endian uint64 bytes."""
    data = np.asarray(shares, dtype=_SHARE_DTYPE).tobytes()
    return base64.b64encode(data).decode("ascii")


def decode_shares(value: object, n_nodes: int) -> np.ndarray:
    """The ``uint64`` shares of one counts response over ``n_nodes`` nodes.

    Raises :class:`~repro.federated.errors.ShareShapeError` unless
    ``value`` is a base64 string of exactly ``8 * n_nodes`` bytes.
    """
    if not isinstance(value, str):
        raise ShareShapeError(
            f"shares must be a base64 string, not {type(value).__name__}"
        )
    try:
        data = base64.b64decode(value, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise ShareShapeError(f"shares are not valid base64 ({exc})") from None
    if len(data) != _SHARE_DTYPE.itemsize * n_nodes:
        raise ShareShapeError(
            f"shares hold {len(data)} bytes; {n_nodes} queried nodes need "
            f"{_SHARE_DTYPE.itemsize * n_nodes}"
        )
    return np.frombuffer(data, dtype=_SHARE_DTYPE).astype(MASK_DTYPE)


# -- retry policy ------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and full jitter.

    One policy instance governs one logical request: up to ``attempts``
    tries, each waiting ``timeout_s`` for a response, with sleeps of
    ``uniform(0, min(max_backoff_s, base_backoff_s * 2**attempt))``
    between tries (AWS-style full jitter, which avoids retry stampedes
    when many collectors come back at once), all under an overall
    ``deadline_s`` for the round.
    """

    attempts: int = 4
    timeout_s: float = 5.0
    base_backoff_s: float = 0.05
    max_backoff_s: float = 2.0
    deadline_s: float = 30.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts!r}")
        for name in ("timeout_s", "base_backoff_s", "max_backoff_s", "deadline_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")

    def backoffs(self, jitter: Callable[[], float] | None = None) -> Iterator[float]:
        """The sleep before each retry (``attempts - 1`` values)."""
        draw = jitter if jitter is not None else secrets.SystemRandom().random
        for attempt in range(self.attempts - 1):
            ceiling = min(self.max_backoff_s, self.base_backoff_s * (2.0**attempt))
            yield draw() * ceiling

    def deadline_from(self, start: float | None = None) -> float:
        """Absolute monotonic deadline for one round starting at ``start``."""
        base = time.monotonic() if start is None else start
        return base + self.deadline_s


# -- per-pair key exchange ---------------------------------------------

#: RFC 3526 group 14 (2048-bit MODP): a safe prime with generator 2,
#: standard for finite-field Diffie-Hellman.  Hex from the RFC.
MODP_PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
    "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
    "15728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
MODP_GENERATOR = 2


class DiffieHellman:
    """One party's finite-field DH keypair for pair-secret agreement.

    Replaces the PR 6 derived-stream mask agreement (all parties deriving
    pair seeds from one shared ``blinding_seed``) with a real exchange:
    each collector publishes ``g^x mod p`` through the coordinator, and
    every unordered pair ``{i, j}`` computes the same shared secret
    ``g^{x_i x_j}`` that the coordinator — who only ever relays public
    keys — cannot.  ``private`` is taken from OS entropy by default; tests
    pass an explicit integer for reproducible transcripts (the *release*
    never depends on mask keys: masks cancel exactly whatever the seeds).
    """

    def __init__(self, private: int | None = None) -> None:
        if private is None:
            private = secrets.randbits(256)
        if not private > 1:
            raise KeyExchangeError(f"DH private key must exceed 1, got {private!r}")
        self._private = private
        self.public = pow(MODP_GENERATOR, private, MODP_PRIME)

    def shared_secret(self, peer_public: int) -> int:
        if not 1 < peer_public < MODP_PRIME - 1:
            raise KeyExchangeError(
                "peer public key out of range (degenerate subgroup element)"
            )
        return pow(peer_public, self._private, MODP_PRIME)


def derive_pair_seed(shared_secret: int, pair: tuple[int, int], session: str) -> int:
    """The mask-stream seed of pair ``(i, j)`` from its DH shared secret.

    Hashes the secret with the canonical pair label and the session tag,
    so re-running a fit with a fresh session re-keys every stream even if
    a party reuses its DH keypair.
    """
    low, high = min(pair), max(pair)
    material = (
        shared_secret.to_bytes((shared_secret.bit_length() + 7) // 8 or 1, "big")
        + f"|pair:{low},{high}|session:{session}".encode("utf-8")
    )
    return int.from_bytes(hashlib.sha256(material).digest()[:16], "big")
