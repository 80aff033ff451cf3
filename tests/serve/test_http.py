"""The HTTP JSON API: endpoints, error paths, and concurrent batches."""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.queries import RangeCount, StringFrequency
from repro.serve import SynopsisHTTPServer

from .conftest import QUERY_BOXES, QUERY_CODES, fit_release


@pytest.fixture
def server(store, uniform_2d, sequence_data):
    """A running threaded server over a store with one release per family."""
    spatial, _ = fit_release("privtree", uniform_2d, None)
    sequence, _ = fit_release("pst", None, sequence_data)
    ids = {
        "spatial": store.put(spatial, release_id="tree", dataset="uniform2d"),
        "sequence": store.put(sequence, release_id="pst", dataset="msnbc"),
    }
    httpd = SynopsisHTTPServer(("127.0.0.1", 0), store, cache_size=4, quiet=True)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd, ids, {"spatial": spatial, "sequence": sequence}
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)


def _get(httpd, path):
    port = httpd.server_address[1]
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _post(httpd, path, body):
    port = httpd.server_address[1]
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _box_batch(boxes):
    return {"queries": [RangeCount.of(b).to_wire() for b in boxes]}


def _code_batch(codes):
    return {"queries": [StringFrequency(codes=tuple(c)).to_wire() for c in codes]}


#: A typed range count that lacks its upper corner.
MALFORMED_RANGE = {
    "format": "repro.query",
    "version": 1,
    "type": "range_count",
    "low": [0.1, 0.1],
}


class TestEndpoints:
    def test_healthz(self, server):
        httpd, _, _ = server
        status, body = _get(httpd, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["releases"] == 2

    def test_list_releases(self, server):
        httpd, ids, _ = server
        status, body = _get(httpd, "/releases")
        assert status == 200
        assert {e["id"] for e in body["releases"]} == set(ids.values())

    def test_get_single_manifest_entry(self, server):
        httpd, ids, _ = server
        status, body = _get(httpd, f"/releases/{ids['spatial']}")
        assert status == 200
        assert body["method"] == "privtree"
        assert body["dataset"] == "uniform2d"

    def test_spatial_query_batch_matches_in_process(self, server):
        """Served range counts are exactly the in-process `answer` floats,
        which are also the scalar `query_many` floats."""
        from repro.queries import Workload

        httpd, ids, releases = server
        release = releases["spatial"]
        status, body = _post(
            httpd, f"/releases/{ids['spatial']}/query", _box_batch(QUERY_BOXES)
        )
        assert status == 200
        assert body["count"] == len(QUERY_BOXES)
        answers = np.array(body["answers"])
        assert np.array_equal(answers, release.answer(Workload.ranges(QUERY_BOXES)))
        assert np.array_equal(answers, release.query_many(QUERY_BOXES))

    def test_sequence_query_batch_matches_in_process(self, server):
        httpd, ids, releases = server
        status, body = _post(
            httpd, f"/releases/{ids['sequence']}/query", _code_batch(QUERY_CODES)
        )
        assert status == 200
        expected = [float(v) for v in releases["sequence"].query_many(QUERY_CODES)]
        assert body["answers"] == expected

    def test_typed_workload_matches_in_process_answer(self, server):
        """Typed wire queries (range + point + marginal) answer exactly the
        in-process `release.answer` floats; vector queries come as lists."""
        from repro.queries import Marginal1D, PointCount, Workload

        httpd, ids, releases = server
        release = releases["spatial"]
        workload = Workload.of(
            [RangeCount.of(b) for b in QUERY_BOXES]
            + [
                PointCount(point=(0.25, 0.75)),
                Marginal1D.regular(axis=0, n_bins=4, low=0.0, high=1.0),
            ]
        )
        status, body = _post(
            httpd,
            f"/releases/{ids['spatial']}/query",
            {"queries": [q.to_wire() for q in workload]},
        )
        assert status == 200
        assert body["count"] == len(workload)
        scalars, vector = body["answers"][:4], body["answers"][4]
        assert all(isinstance(v, float) for v in scalars)
        assert isinstance(vector, list) and len(vector) == 4
        flat = np.array(scalars + vector)
        assert np.array_equal(flat, release.answer(workload))

    def test_typed_sequence_workload_over_http(self, server):
        from repro.queries import NextSymbolDistribution, Workload

        httpd, ids, releases = server
        release = releases["sequence"]
        workload = Workload.of(
            [
                StringFrequency(codes=(0, 1)),
                NextSymbolDistribution(context=(0,)),
            ]
        )
        status, body = _post(
            httpd,
            f"/releases/{ids['sequence']}/query",
            {"queries": [q.to_wire() for q in workload]},
        )
        assert status == 200
        flat = np.array([body["answers"][0]] + body["answers"][1])
        assert np.array_equal(flat, release.answer(workload))


class TestErrorPaths:
    def test_unknown_release_404(self, server):
        httpd, _, _ = server
        status, body = _get(httpd, "/releases/nope")
        assert status == 404 and "unknown release" in body["error"]
        status, body = _post(httpd, "/releases/nope/query", _box_batch(QUERY_BOXES))
        assert status == 404 and "unknown release" in body["error"]

    def test_unknown_endpoint_404(self, server):
        httpd, _, _ = server
        status, body = _get(httpd, "/synopses")
        assert status == 404

    def test_invalid_json_400(self, server):
        httpd, ids, _ = server
        port = httpd.server_address[1]
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/releases/{ids['spatial']}/query",
            data=b"this is not json",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        assert "not valid JSON" in json.loads(excinfo.value.read())["error"]

    @pytest.mark.parametrize(
        "payload,reason",
        [
            (b'{"queries": ["\xff"]}', "can't decode byte 0xff"),
            (b"[" * 100_000, "maximum recursion depth"),
        ],
        ids=["invalid-utf8", "deep-nesting"],
    )
    def test_undecodable_body_400_keeps_connection(self, server, payload, reason):
        """A body json.loads cannot decode is a 400 with a body, never a
        dropped connection, and the kept-alive connection still works."""
        import http.client

        httpd, ids, _ = server
        conn = http.client.HTTPConnection("127.0.0.1", httpd.server_address[1], timeout=10)
        path = f"/releases/{ids['spatial']}/query"
        headers = {"Content-Type": "application/json"}
        try:
            conn.request("POST", path, body=payload, headers=headers)
            resp = conn.getresponse()
            assert resp.status == 400
            error = json.loads(resp.read())["error"]
            assert "not valid JSON" in error and reason in error
            sock = conn.sock
            body = json.dumps(_box_batch(QUERY_BOXES)).encode()
            conn.request("POST", path, body=body, headers=headers)
            resp = conn.getresponse()
            assert resp.status == 200
            assert json.loads(resp.read())["count"] == len(QUERY_BOXES)
            assert conn.sock is sock
        finally:
            conn.close()

    def test_body_without_queries_list_400(self, server):
        httpd, ids, _ = server
        status, body = _post(httpd, f"/releases/{ids['spatial']}/query", {"boxes": []})
        assert status == 400 and "queries" in body["error"]

    def test_string_sequence_query_400_not_char_codes(self, server):
        # "12" must not be silently decoded as the code list [1, 2].
        httpd, ids, _ = server
        status, body = _post(
            httpd, f"/releases/{ids['sequence']}/query", {"queries": ["12"]}
        )
        assert status == 400
        assert "query 0 is malformed" in body["error"]

    def test_corrupt_stored_artifact_is_500_not_400(self, server, store):
        # A manifest-listed release whose file is broken is the server's
        # fault: the client must see a 500 with a body, never a 400 or a
        # dropped connection.
        httpd, ids, _ = server
        (store.root / "releases" / f"{ids['spatial']}.json").write_text("garbage")
        (store.root / "releases" / f"{ids['spatial']}.bin").write_bytes(b"garbage")
        status, body = _post(
            httpd, f"/releases/{ids['spatial']}/query", _box_batch(QUERY_BOXES)
        )
        assert status == 500
        assert "failed to load" in body["error"]

    def test_malformed_query_400_names_index(self, server):
        httpd, ids, _ = server
        status, body = _post(
            httpd,
            f"/releases/{ids['spatial']}/query",
            {"queries": [MALFORMED_RANGE]},
        )
        assert status == 400
        assert "query 0 is malformed" in body["error"]
        assert body["query_index"] == 0

    def test_one_bad_query_in_batch_is_structured_400(self, server):
        """One malformed entry in a large batch: the 400 body names the
        offending index instead of failing opaquely."""
        httpd, ids, _ = server
        queries = _box_batch(QUERY_BOXES)["queries"] + [MALFORMED_RANGE]
        status, body = _post(
            httpd, f"/releases/{ids['spatial']}/query", {"queries": queries}
        )
        assert status == 400
        assert body["query_index"] == len(QUERY_BOXES)
        assert f"query {len(QUERY_BOXES)} is malformed" in body["error"]

    @pytest.mark.parametrize(
        "family,raw,replacement",
        [
            ("spatial", {"low": [0.1, 0.1], "high": [0.5, 0.5]}, "range_count"),
            ("sequence", [0, 1], "string_frequency"),
        ],
    )
    def test_raw_query_400_names_typed_replacement(
        self, server, family, raw, replacement
    ):
        """The raw box and code-list forms of 1.x are gone: a client still
        sending one gets a 400 naming the index and the typed query to send."""
        httpd, ids, _ = server
        typed = {
            "spatial": _box_batch(QUERY_BOXES),
            "sequence": _code_batch(QUERY_CODES),
        }
        queries = typed[family]["queries"] + [raw]
        status, body = _post(
            httpd, f"/releases/{ids[family]}/query", {"queries": queries}
        )
        assert status == 400
        assert body["query_index"] == len(queries) - 1
        assert f'"type": "{replacement}"' in body["error"]

    def test_validation_failure_is_structured_400(self, server):
        """A well-formed typed query that fails domain validation also
        reports its index (satellite: structured 400 on validation)."""
        from repro.queries import PointCount

        httpd, ids, _ = server
        queries = [
            RangeCount(low=(0.1, 0.1), high=(0.5, 0.5)).to_wire(),
            PointCount(point=(9.0, 9.0)).to_wire(),  # outside the unit domain
        ]
        status, body = _post(
            httpd, f"/releases/{ids['spatial']}/query", {"queries": queries}
        )
        assert status == 400
        assert body["query_index"] == 1
        assert "workload query 1" in body["error"]

    def test_unsupported_type_is_structured_400(self, server):
        httpd, ids, _ = server
        status, body = _post(
            httpd,
            f"/releases/{ids['spatial']}/query",
            {"queries": [StringFrequency(codes=(0,)).to_wire()]},
        )
        assert status == 400
        assert body["query_index"] == 0
        assert "string_frequency" in body["error"]


class TestStatz:
    def test_statz_reports_pid_and_counters(self, server):
        import os

        httpd, ids, _ = server
        status, before = _get(httpd, "/statz")
        assert status == 200
        assert before["pid"] == os.getpid()
        # Documented semantics: a bare /statz is one process's view.
        assert before["scope"] == "process"
        _post(httpd, f"/releases/{ids['spatial']}/query", _box_batch(QUERY_BOXES))
        status, after = _get(httpd, "/statz")
        assert status == 200
        assert after["batches"] == before["batches"] + 1
        assert after["queries"] == before["queries"] + len(QUERY_BOXES)

    def test_statz_aggregate_without_slabs_falls_back_to_this_process(
        self, server
    ):
        import os

        httpd, ids, _ = server
        _post(httpd, f"/releases/{ids['spatial']}/query", _box_batch(QUERY_BOXES))
        status, body = _get(httpd, "/statz?aggregate=1")
        assert status == 200
        assert body["scope"] == "aggregate"
        assert body["pids"] == [os.getpid()]
        assert body["batches"] >= 1
        assert body["queries"] >= len(QUERY_BOXES)


@pytest.fixture
def slab_server(store, uniform_2d, tmp_path):
    """A server mirroring its metrics into a slab directory, alongside a
    fake second worker's slab — the single-process stand-in for the
    pre-forked fleet (each worker owns its per-pid slab files)."""
    from repro.telemetry import MetricsRegistry

    spatial, _ = fit_release("privtree", uniform_2d, None)
    release_id = store.put(spatial, release_id="tree", dataset="uniform2d")
    metrics_dir = tmp_path / "metrics"
    httpd = SynopsisHTTPServer(
        ("127.0.0.1", 0), store, cache_size=4, quiet=True,
        metrics_dir=str(metrics_dir),
    )
    other = MetricsRegistry()
    other.counter("repro_serve_batches_total").inc(7)
    other.counter("repro_serve_queries_total").inc(70)
    other.counter("repro_serve_cache_hits_total").inc(3)
    other.bind_slab(str(metrics_dir), pid=999999)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd, release_id
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)


def _get_text(httpd, path):
    port = httpd.server_address[1]
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read().decode()


class TestMetricsEndpoint:
    def test_metrics_exposition_aggregates_all_slabs(self, slab_server):
        httpd, release_id = slab_server
        for _ in range(2):
            _post(httpd, f"/releases/{release_id}/query", _box_batch(QUERY_BOXES))
        status, content_type, text = _get_text(httpd, "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "# TYPE repro_serve_batches_total counter" in text
        # 2 batches served here + 7 from the fake worker's slab.
        assert "repro_serve_batches_total 9" in text
        assert (
            f"repro_serve_queries_total {2 * len(QUERY_BOXES) + 70}" in text
        )
        assert "repro_serve_request_latency_seconds_count 2" in text
        assert 'repro_serve_request_latency_seconds_bucket{le="+Inf"} 2' in text

    def test_statz_aggregate_sums_all_slabs(self, slab_server):
        import os

        httpd, release_id = slab_server
        _post(httpd, f"/releases/{release_id}/query", _box_batch(QUERY_BOXES))
        status, body = _get(httpd, "/statz?aggregate=1")
        assert status == 200
        assert body["scope"] == "aggregate"
        assert body["pids"] == sorted([os.getpid(), 999999])
        assert body["batches"] == 1 + 7
        assert body["queries"] == len(QUERY_BOXES) + 70
        assert body["hits"] >= 3
        # The bare view still answers per-process alongside.
        status, bare = _get(httpd, "/statz")
        assert bare["scope"] == "process"
        assert bare["batches"] == 1

    def test_metrics_without_slab_dir_serves_this_process(self, server):
        httpd, ids, _ = server
        _post(httpd, f"/releases/{ids['spatial']}/query", _box_batch(QUERY_BOXES))
        status, content_type, text = _get_text(httpd, "/metrics")
        assert status == 200
        assert "repro_serve_batches_total 1" in text
        assert f"repro_serve_queries_total {len(QUERY_BOXES)}" in text


def _post_binary(httpd, path, payload):
    from repro.queries import BINARY_WIRE_CONTENT_TYPE

    port = httpd.server_address[1]
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=payload,
        headers={"Content-Type": BINARY_WIRE_CONTENT_TYPE},
    )
    try:
        with urllib.request.urlopen(request) as resp:
            return resp.status, resp.headers.get("Content-Type"), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers.get("Content-Type"), exc.read()


class TestBinaryWire:
    def test_binary_batch_bit_identical_to_in_process_answer(self, server):
        from repro.queries import (
            BINARY_ANSWERS_CONTENT_TYPE,
            Workload,
            decode_binary_answers,
            encode_binary_workload,
        )

        httpd, ids, releases = server
        workload = Workload.ranges(QUERY_BOXES)
        status, content_type, body = _post_binary(
            httpd, f"/releases/{ids['spatial']}/query", encode_binary_workload(workload)
        )
        assert status == 200
        assert content_type == BINARY_ANSWERS_CONTENT_TYPE
        values, offsets = decode_binary_answers(body)
        assert np.array_equal(values, releases["spatial"].answer(workload))
        assert list(offsets) == list(range(len(QUERY_BOXES) + 1))

    def test_binary_mixed_batch_offsets_cover_vector_queries(self, server):
        from repro.queries import (
            Marginal1D,
            Workload,
            decode_binary_answers,
            encode_binary_workload,
        )

        httpd, ids, releases = server
        workload = Workload.of(
            [RangeCount.of(QUERY_BOXES[0])]
            + [Marginal1D.regular(axis=0, n_bins=4, low=0.0, high=1.0)]
        )
        status, _, body = _post_binary(
            httpd, f"/releases/{ids['spatial']}/query", encode_binary_workload(workload)
        )
        assert status == 200
        values, offsets = decode_binary_answers(body)
        assert list(offsets) == [0, 1, 5]
        assert np.array_equal(values, releases["spatial"].answer(workload))

    def test_malformed_binary_payload_is_json_400(self, server):
        httpd, ids, _ = server
        status, content_type, body = _post_binary(
            httpd, f"/releases/{ids['spatial']}/query", b"RPWB\x01\x00garbage"
        )
        assert status == 400
        assert content_type == "application/json"
        assert "truncated" in json.loads(body)["error"]

    def test_binary_validation_failure_names_query_index(self, server):
        import struct

        httpd, ids, _ = server
        # RangeCount construction rejects a degenerate extent up front, so
        # build the wire bytes by hand: query 1 has low >= high on axis 0.
        lows = np.array([[0.1, 0.1], [0.5, 0.5]], dtype="<f8")
        highs = np.array([[0.4, 0.4], [0.2, 0.9]], dtype="<f8")
        payload = (
            b"RPWB"
            + bytes([1, 0])
            + struct.pack("<H", 1)
            + struct.pack("<BBHI", 1, 0, 2, 2)
            + lows.tobytes()
            + highs.tobytes()
        )
        status, content_type, body = _post_binary(
            httpd, f"/releases/{ids['spatial']}/query", payload
        )
        assert status == 400
        assert content_type == "application/json"
        parsed = json.loads(body)
        assert parsed["query_index"] == 1
        assert "degenerate" in parsed["error"]


class TestKeepAlive:
    def test_connection_reused_across_requests(self, server):
        """HTTP/1.1 keep-alive: one TCP connection carries several requests
        (satellite: correct Content-Length + persistent connections)."""
        import http.client

        httpd, ids, _ = server
        port = httpd.server_address[1]
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert resp.status == 200
            assert resp.read()  # drain so the connection is reusable
            sock = conn.sock
            assert sock is not None
            body = json.dumps(_box_batch(QUERY_BOXES)).encode()
            for _ in range(3):
                conn.request(
                    "POST",
                    f"/releases/{ids['spatial']}/query",
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                resp = conn.getresponse()
                assert resp.status == 200
                assert int(resp.headers["Content-Length"]) == len(resp.read())
            assert conn.sock is sock  # never re-dialed
        finally:
            conn.close()

    def test_error_responses_keep_connection_alive(self, server):
        import http.client

        httpd, ids, _ = server
        port = httpd.server_address[1]
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.request("GET", "/releases/nope")
            resp = conn.getresponse()
            assert resp.status == 404
            resp.read()
            sock = conn.sock
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert resp.status == 200
            resp.read()
            assert conn.sock is sock
        finally:
            conn.close()


class TestNoDelay:
    """Every accepted connection has TCP_NODELAY, so a response body never
    waits behind its headers for the client's delayed ACK."""

    @staticmethod
    def _record_nodelay(monkeypatch):
        import socket

        from repro.serve.http import SynopsisRequestHandler

        seen = []
        setup = SynopsisRequestHandler.setup

        def recording_setup(handler):
            setup(handler)
            seen.append(
                handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        monkeypatch.setattr(SynopsisRequestHandler, "setup", recording_setup)
        return seen

    def test_served_connections_set_nodelay(self, server, monkeypatch):
        httpd, ids, _ = server
        seen = self._record_nodelay(monkeypatch)
        assert _get(httpd, "/healthz")[0] == 200
        status, _ = _post(
            httpd, f"/releases/{ids['spatial']}/query", _box_batch(QUERY_BOXES)
        )
        assert status == 200
        assert len(seen) == 2 and all(seen)

    def test_inherited_listener_connections_set_nodelay(self, store, monkeypatch):
        """The pre-fork path: workers accept on the parent's listener."""
        from repro.serve.http import _bind_listener

        listener = _bind_listener("127.0.0.1", 0)
        httpd = SynopsisHTTPServer(
            listener.getsockname(), store, quiet=True, listen_socket=listener
        )
        seen = self._record_nodelay(monkeypatch)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            assert _get(httpd, "/healthz")[0] == 200
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=5)
        assert seen and all(seen)


class TestListenSocket:
    def test_server_accepts_on_inherited_socket(self, store, uniform_2d):
        """The pre-fork path: a socket bound elsewhere is adopted as-is."""
        import socket

        spatial, _ = fit_release("privtree", uniform_2d, None)
        release_id = store.put(spatial, release_id="inh")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        httpd = SynopsisHTTPServer(
            listener.getsockname(),
            store,
            cache_size=2,
            quiet=True,
            listen_socket=listener,
        )
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            assert httpd.server_address[1] == listener.getsockname()[1]
            status, body = _post(
                httpd, f"/releases/{release_id}/query", _box_batch(QUERY_BOXES)
            )
            assert status == 200
            expected = spatial.query_many(QUERY_BOXES)
            assert np.array_equal(np.array(body["answers"]), expected)
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=5)

    def test_lost_accept_race_returns_to_the_select_loop(self, store):
        """Pre-forked workers share one listener, so one connection can wake
        several of them.  The worker that loses the accept race must return
        to its select loop, where it sees a shutdown request, instead of
        blocking in accept() until the next connection arrives."""
        import select
        import socket

        from repro.serve.http import _bind_listener

        listener = _bind_listener("127.0.0.1", 0)
        address = listener.getsockname()
        httpd = SynopsisHTTPServer(
            address, store, quiet=True, listen_socket=listener
        )
        client = socket.create_connection(address, timeout=5)
        winner = None
        step = threading.Thread(target=httpd._handle_request_noblock, daemon=True)
        try:
            assert select.select([listener], [], [], 5)[0]
            winner, _ = listener.accept()  # the rival worker takes it
            # What serve_forever runs once select reported the listener.
            step.start()
            step.join(timeout=2)
            assert not step.is_alive(), "the losing worker blocked in accept()"
        finally:
            if step.is_alive():
                # Release the blocked accept so the thread can finish.
                socket.create_connection(address, timeout=5).close()
                step.join(timeout=5)
            for sock in (client, winner):
                if sock is not None:
                    sock.close()
            httpd.server_close()

    def test_serve_rejects_nonpositive_workers(self, store):
        from repro.serve import serve

        with pytest.raises(ValueError):
            serve(store, "127.0.0.1", 0, workers=0)


class TestConcurrency:
    def test_concurrent_batches_all_exact(self, server):
        httpd, ids, releases = server
        from repro.spatial import generate_workload

        boxes = generate_workload(releases["spatial"].tree.root.box, "medium", 50, rng=7)
        expected = releases["spatial"].query_many(boxes)
        seq_expected = [float(v) for v in releases["sequence"].query_many(QUERY_CODES)]
        failures = []

        def spatial_worker():
            for _ in range(5):
                status, body = _post(
                    httpd, f"/releases/{ids['spatial']}/query", _box_batch(boxes)
                )
                if status != 200 or not np.array_equal(
                    np.array(body["answers"]), expected
                ):
                    failures.append(("spatial", status))

        def sequence_worker():
            for _ in range(5):
                status, body = _post(
                    httpd,
                    f"/releases/{ids['sequence']}/query",
                    _code_batch(QUERY_CODES),
                )
                if status != 200 or body["answers"] != seq_expected:
                    failures.append(("sequence", status))

        threads = [threading.Thread(target=spatial_worker) for _ in range(4)] + [
            threading.Thread(target=sequence_worker) for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not failures
        stats = httpd.service.stats()
        # 40 batches over 2 releases: everything after the 2 loads is a hit.
        assert stats["misses"] == 2
        assert stats["hits"] == 38
