"""The load generator and the synthetic serving-scale histogram."""

import json
import threading

import numpy as np
import pytest

from repro.api import from_spec
from repro.experiments import LoadError
from repro.experiments import run_load as deprecated_run_load
from repro.experiments.perf import synthetic_flat_histogram
from repro.queries import RangeCount
from repro.serve import ReleaseStore, SynopsisHTTPServer
from repro.spatial.flat import FlatHistogram


class TestSyntheticFlatHistogram:
    def test_node_count_is_complete_quadtree(self):
        flat = synthetic_flat_histogram(depth=2)
        assert flat.lows.shape[0] == (4**3 - 1) // 3  # 21 nodes

    def test_children_tile_their_parent(self):
        flat = synthetic_flat_histogram(depth=3)
        m = flat.lows.shape[0]
        for node in range(m):
            start, stop = flat.child_offsets[node], flat.child_offsets[node + 1]
            children = flat.child_index[start:stop]
            if len(children) == 0:
                continue
            assert len(children) == 4
            # Each child sits inside the parent, and their areas sum to it.
            assert (flat.lows[children] >= flat.lows[node] - 1e-12).all()
            assert (flat.highs[children] <= flat.highs[node] + 1e-12).all()
            extents = flat.highs[children] - flat.lows[children]
            parent_extent = flat.highs[node] - flat.lows[node]
            assert np.isclose(extents.prod(axis=1).sum(), parent_extent.prod())

    def test_round_trips_through_pointer_tree(self):
        flat = synthetic_flat_histogram(depth=2)
        rebuilt = FlatHistogram.from_tree(flat.to_tree())
        # Layout changes (level-order -> pre-order) but the histogram is
        # the same: total count and root box are preserved.
        assert rebuilt.lows.shape == flat.lows.shape
        assert np.isclose(rebuilt.counts.sum(), flat.counts.sum())
        assert np.array_equal(rebuilt.lows[0], flat.lows[0])
        assert np.array_equal(rebuilt.highs[0], flat.highs[0])


def run_load(*args, **kwargs):
    """``run_load``, asserting the deprecation warning every call emits."""
    with pytest.warns(DeprecationWarning, match=r"removed in 6\.0\.0.*serve-bulk"):
        return deprecated_run_load(*args, **kwargs)


@pytest.fixture
def running_server(tmp_path, uniform_2d):
    release = from_spec("privtree", epsilon=1.0).fit(uniform_2d, rng=0)
    store = ReleaseStore(tmp_path / "store")
    release_id = store.put(release, release_id="load-target")
    httpd = SynopsisHTTPServer(("127.0.0.1", 0), store, cache_size=2, quiet=True)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd.server_address[1], release_id, release
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)


class TestRunLoad:
    def test_counts_and_latency_fields(self, running_server):
        port, release_id, _ = running_server
        query = RangeCount(low=(0.2, 0.2), high=(0.6, 0.6)).to_wire()
        payload = json.dumps({"queries": [query] * 5}).encode()
        result = run_load(
            "127.0.0.1",
            port,
            release_id,
            payload,
            content_type="application/json",
            queries_per_batch=5,
            clients=2,
            batches_per_client=3,
            timeout_s=30.0,
        )
        assert result.clients == 2
        assert result.batches == 6
        assert result.queries == 30
        assert result.queries_per_s > 0
        assert 0 < result.p50_ms <= result.p99_ms
        assert result.to_json()["queries"] == 30

    def test_non_200_raises_load_error(self, running_server):
        port, _, _ = running_server
        payload = json.dumps({"queries": []}).encode()
        with pytest.raises(LoadError):
            run_load(
                "127.0.0.1",
                port,
                "no-such-release",
                payload,
                content_type="application/json",
                queries_per_batch=0,
                clients=1,
                batches_per_client=1,
                timeout_s=10.0,
            )

    def test_rejects_nonpositive_concurrency(self, running_server):
        port, release_id, _ = running_server
        with pytest.raises(ValueError):
            run_load(
                "127.0.0.1",
                port,
                release_id,
                b"{}",
                content_type="application/json",
                queries_per_batch=1,
                clients=0,
            )

    def test_rejects_nonpositive_batches(self, running_server):
        port, release_id, _ = running_server
        with pytest.raises(ValueError, match="batches_per_client"):
            run_load(
                "127.0.0.1",
                port,
                release_id,
                b"{}",
                content_type="application/json",
                queries_per_batch=1,
                batches_per_client=0,
            )

    def test_error_names_the_status_and_body(self, running_server):
        port, _, _ = running_server
        with pytest.raises(LoadError) as excinfo:
            run_load(
                "127.0.0.1",
                port,
                "no-such-release",
                json.dumps({"queries": []}).encode(),
                content_type="application/json",
                queries_per_batch=0,
                clients=1,
                batches_per_client=1,
                timeout_s=10.0,
            )
        cause = excinfo.value.__cause__
        assert isinstance(cause, LoadError)
        assert "404" in str(cause)
        assert "no-such-release" in str(cause)


class TestRunLoadTransportFailures:
    def test_connection_refused_raises_load_error(self):
        import socket

        # Bind-and-close to find a port with nothing listening on it.
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(LoadError, match="client\\(s\\) failed") as excinfo:
            run_load(
                "127.0.0.1",
                dead_port,
                "any",
                b"{}",
                content_type="application/json",
                queries_per_batch=1,
                clients=2,
                batches_per_client=1,
                timeout_s=5.0,
            )
        assert isinstance(excinfo.value.__cause__, OSError)

    def test_truncated_response_body_raises_load_error(self):
        import socket

        # A one-shot stub server that advertises a 512-byte binary body,
        # sends 10 bytes, and hangs up: the client's drain must surface
        # the truncation as a LoadError, never report a throughput.
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def one_truncated_response():
            conn, _ = listener.accept()
            conn.recv(65536)  # the request; content is irrelevant
            conn.sendall(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/octet-stream\r\n"
                b"Content-Length: 512\r\n"
                b"\r\n" + b"\x00" * 10
            )
            conn.close()

        server = threading.Thread(target=one_truncated_response, daemon=True)
        server.start()
        try:
            with pytest.raises(LoadError) as excinfo:
                run_load(
                    "127.0.0.1",
                    port,
                    "truncated",
                    b"\x00" * 4,
                    content_type="application/octet-stream",
                    queries_per_batch=1,
                    clients=1,
                    batches_per_client=2,
                    timeout_s=5.0,
                )
        finally:
            server.join(timeout=5)
            listener.close()
        import http.client

        assert isinstance(
            excinfo.value.__cause__, (http.client.IncompleteRead, OSError)
        )
