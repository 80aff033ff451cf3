"""Property tests for the federated round frames.

A collector decodes every round's ``node_ids`` from a peer's JSON, and the
coordinator decodes every counts response's packed ``shares``.  Whatever a
peer sends, the collector answers a typed ``error`` frame and stays
exactly as it was (its mask streams did not advance), and the client's
share decoder raises a typed protocol error, never a bare
``binascii.Error`` or a numpy ``ValueError``.
"""

import base64

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.domains import Box
from repro.federated import FederatedProtocolError, ShardCollector
from repro.federated.errors import _WIRE_ERRORS
from repro.federated.net import CollectorEndpoint, _decode_wire_bytes
from repro.federated.transport import decode_shares, encode_frame
from repro.spatial import SpatialDataset

POINTS = np.random.default_rng(9).uniform(size=(200, 2))

#: The twins commit two splits rounds: the root (0) into 1-4, then nodes
#: 1 and 3 into 5-8 and 9-12, the deepest level.
COMMITTED = [[0], [1, 3]]
GROWN = 13
DEEPEST = st.integers(min_value=5, max_value=GROWN - 1)
INT64_MAX = 2**63 - 1

#: A counts round after the fuzzed one: every node grown, in reverse.
ALL_NODES = list(range(GROWN - 1, -1, -1))


def _endpoint() -> CollectorEndpoint:
    collector = ShardCollector(0, 2, SpatialDataset(POINTS, Box.unit(2)), blinding_seed=4)
    endpoint = CollectorEndpoint(collector)
    for round_index, numbers in enumerate(COMMITTED):
        endpoint.handle(
            {"kind": "splits_request", "round": round_index, "node_ids": numbers}
        )
    return endpoint


def _over_the_wire(endpoint: CollectorEndpoint, message: dict) -> bytes:
    """What ``endpoint`` answers to ``message``, as the frame it sends."""
    return encode_frame(endpoint.handle(_decode_wire_bytes(encode_frame(message))))


json_scalars = st.none() | st.booleans() | st.floats() | st.text(max_size=8)
not_a_number = (
    json_scalars
    | st.lists(st.integers(0, GROWN - 1), max_size=3)
    | st.dictionaries(st.text(max_size=4), st.integers(), max_size=2)
    | st.integers(min_value=INT64_MAX + 1)
    | st.integers(max_value=-INT64_MAX - 2)
)
not_grown = st.integers(max_value=-1) | st.integers(min_value=GROWN, max_value=INT64_MAX)


def _with_entry(entries: st.SearchStrategy) -> st.SearchStrategy:
    """A list of grown numbers with one entry from ``entries`` inserted."""
    return st.tuples(
        st.lists(st.integers(0, GROWN - 1), max_size=6), entries, st.integers(0, 6)
    ).map(lambda t: t[0][: t[2]] + [t[1]] + t[0][t[2]:])


#: ``node_ids`` a counts round must refuse: not a list, or an entry that
#: is not a grown node's number.
bad_counts = (
    json_scalars | st.integers() | st.dictionaries(st.text(max_size=4), st.integers())
    | _with_entry(not_a_number | not_grown)
)
#: ``node_ids`` a splits round must refuse: those, plus repeats, descending
#: runs and nodes of an earlier level.
bad_splits = bad_counts | st.one_of(
    st.lists(DEEPEST, min_size=1).map(lambda numbers: sorted(numbers) + numbers[:1]),
    st.lists(DEEPEST, min_size=2, unique=True).map(lambda numbers: sorted(numbers)[::-1]),
    st.tuples(st.lists(DEEPEST, unique=True), st.integers(0, 4), st.integers(0, 8)).map(
        lambda t: sorted(t[0])[: t[2]] + [t[1]] + sorted(t[0])[t[2]:]
    ),
)
#: The well-formed rounds after the fuzzed one, by its kind.
NEXT_ROUNDS = {
    "counts_request": [("counts_request", ALL_NODES)],
    "splits_request": [
        ("splits_request", [5, 12]),
        ("counts_request", list(range(GROWN + 8))),
    ],
}


class TestRoundFrames:
    @given(
        case=st.tuples(st.just("counts_request"), bad_counts)
        | st.tuples(st.just("splits_request"), bad_splits)
    )
    @settings(max_examples=200, deadline=None)
    def test_malformed_node_ids_leave_the_collector_untouched(self, case):
        kind, node_ids = case
        fuzzed, twin = _endpoint(), _endpoint()
        error = _decode_wire_bytes(
            _over_the_wire(fuzzed, {"kind": kind, "round": 2, "node_ids": node_ids})
        )
        assert error["kind"] == "error"
        assert error["error_type"] in _WIRE_ERRORS
        for round_index, (next_kind, numbers) in enumerate(NEXT_ROUNDS[kind], start=2):
            message = {"kind": next_kind, "round": round_index, "node_ids": numbers}
            assert _over_the_wire(fuzzed, message) == _over_the_wire(twin, message)


class TestShareDecoder:
    @given(
        value=st.one_of(
            json_scalars,
            st.integers(),
            st.lists(st.integers(0, 2**64 - 1), max_size=3),
            st.binary(max_size=40).map(lambda raw: base64.b64encode(raw).decode()),
            st.text(alphabet="ABCDEFGHabcdefgh0123456789+/=", max_size=24),
        ),
        n_nodes=st.integers(0, 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_anything_but_packed_shares_is_a_protocol_error(self, value, n_nodes):
        try:
            shares = decode_shares(value, n_nodes)
        except FederatedProtocolError:
            return
        # Only base64 of exactly 8 bytes per node decodes, to those bytes.
        assert shares.dtype == np.uint64 and shares.shape == (n_nodes,)
        assert base64.b64decode(value, validate=True) == shares.astype("<u8").tobytes()
