"""The v2 binary artifact codec and its integration into the store."""

import hashlib
import io
import json
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import from_spec, release_from_json
from repro.api.releases import SequenceRelease, SpatialTreeRelease
from repro.datasets import msnbclike
from repro.queries import StringFrequency
from repro.serve import artifact as artifact_module
from repro.serve import (
    ArtifactError,
    ArtifactIntegrityError,
    ReleaseStore,
    artifact_info,
    read_artifact,
    write_artifact,
)
from repro.sequence import Alphabet, SequenceDataset, exact_pst
from repro.spatial import FlatHistogram, tree_from_dict

from ..api.conftest import FAST_PARAMS
from .conftest import QUERY_BOXES, QUERY_CODES, fit_release


def _answers(release, kind):
    if kind == "spatial":
        return release.query_many(QUERY_BOXES)
    return release.query_many(QUERY_CODES)


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(FAST_PARAMS))
    def test_every_method_round_trips_bit_identically(
        self, name, tmp_path, uniform_2d, sequence_data
    ):
        release, kind = fit_release(name, uniform_2d, sequence_data)
        path = tmp_path / "release.bin"
        n_bytes = write_artifact(release, path)
        assert n_bytes == path.stat().st_size
        restored = read_artifact(path)
        assert type(restored) is type(release)
        assert restored.method == release.method
        assert restored.epsilon_spent == release.epsilon_spent
        assert np.array_equal(_answers(restored, kind), _answers(release, kind))

    @pytest.mark.parametrize("name", ["privtree", "pst", "ngram", "ag"])
    def test_mmap_answers_match_json_loaded_answers(
        self, name, tmp_path, uniform_2d, sequence_data
    ):
        release, kind = fit_release(name, uniform_2d, sequence_data)
        path = tmp_path / "release.bin"
        write_artifact(release, path)
        from_binary = read_artifact(path)
        from_json = release_from_json(json.loads(json.dumps(release.to_json())))
        assert np.array_equal(
            _answers(from_binary, kind), _answers(from_json, kind)
        )

    def test_json_envelope_survives_binary_round_trip(self, tmp_path, uniform_2d):
        release, _ = fit_release("privtree", uniform_2d, None)
        path = tmp_path / "release.bin"
        write_artifact(release, path)
        assert read_artifact(path).to_json() == release.to_json()

    def test_artifact_info_reads_header_only(self, tmp_path, uniform_2d):
        release, _ = fit_release("privtree", uniform_2d, None)
        path = tmp_path / "release.bin"
        n_bytes = write_artifact(release, path)
        info = artifact_info(path)
        assert info["format"] == "repro.release_artifact"
        assert info["version"] == 2
        assert info["kind"] == "spatial-tree"
        assert info["method"] == "privtree"
        assert info["bytes"] == n_bytes
        assert "counts" in info["segments"]


class TestIntegrity:
    @pytest.fixture
    def artifact(self, tmp_path, uniform_2d):
        release, _ = fit_release("privtree", uniform_2d, None)
        path = tmp_path / "release.bin"
        write_artifact(release, path)
        return path

    def test_truncated_file_rejected(self, artifact):
        data = artifact.read_bytes()
        artifact.write_bytes(data[: len(data) // 2])
        with pytest.raises(ArtifactError):
            read_artifact(artifact)

    def test_bit_flip_in_payload_rejected(self, artifact):
        data = bytearray(artifact.read_bytes())
        data[len(data) // 2] ^= 0x01
        artifact.write_bytes(bytes(data))
        with pytest.raises(ArtifactIntegrityError):
            read_artifact(artifact)

    def test_bit_flip_near_end_rejected(self, artifact):
        data = bytearray(artifact.read_bytes())
        data[-60] ^= 0x80  # inside the last segment, before the footer
        artifact.write_bytes(bytes(data))
        with pytest.raises(ArtifactIntegrityError):
            read_artifact(artifact)

    def test_wrong_magic_rejected(self, artifact):
        data = bytearray(artifact.read_bytes())
        data[:8] = b"NOTREPRO"
        artifact.write_bytes(bytes(data))
        with pytest.raises(ArtifactError):
            read_artifact(artifact)

    def test_integrity_error_is_artifact_and_value_error(self):
        assert issubclass(ArtifactIntegrityError, ArtifactError)
        assert issubclass(ArtifactError, ValueError)


def _split(path):
    """(header document, data block) of the artifact at ``path``."""
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, 12)
    return json.loads(blob[16 : 16 + header_len]), blob[16 + header_len : -40]


def _join(path, header, data):
    """Write ``header`` as compact JSON and then ``data``, with a footer
    that verifies."""
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    body = struct.pack("<8sII", b"REPROBIN", 2, len(text)) + text + data
    path.write_bytes(body + b"SHA2-256" + hashlib.sha256(body).digest())
    return path


def _npy(array):
    stream = io.BytesIO()
    np.lib.format.write_array(stream, np.ascontiguousarray(array), version=(1, 0))
    return stream.getvalue()


def _unpadded(path, out, **arrays):
    """Rewrite the artifact at ``path`` to ``out`` laid out as before the
    padding: a compact header, then the segments end to end.  ``arrays``
    replace the named segments."""
    header, data = _split(path)
    chunks = []
    for segment in header["segments"]:
        if segment["name"] in arrays:
            chunk = _npy(arrays[segment["name"]])
        else:
            chunk = data[segment["offset"] : segment["offset"] + segment["length"]]
        segment.update(offset=sum(map(len, chunks)), length=len(chunk))
        chunks.append(chunk)
    return _join(out, header, b"".join(chunks))


def _data_offsets(path):
    """The file offset of each segment's array data."""
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, 12)
    stream = io.BytesIO(blob)
    offsets = []
    for segment in _split(path)[0]["segments"]:
        stream.seek(16 + header_len + segment["offset"])
        np.lib.format.read_magic(stream)
        np.lib.format.read_array_header_1_0(stream)
        offsets.append(stream.tell())
    return offsets


@pytest.fixture
def mapped(monkeypatch):
    """Every array ``read_artifact`` maps, in segment order."""
    arrays = []
    map_segment = artifact_module._map_segment

    def recording(*args):
        arrays.append(map_segment(*args))
        return arrays[-1]

    monkeypatch.setattr(artifact_module, "_map_segment", recording)
    return arrays


#: A five-node tree: the root's left half is split again.  Pre-order: 0
#: root, 1 left half, 2 and 3 its quarters, 4 right half.
SMALL_TREE = {
    "lows": np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.5], [0.5, 0.0]]),
    "highs": np.array([[1.0, 1.0], [0.5, 1.0], [0.5, 0.5], [0.5, 1.0], [1.0, 1.0]]),
    "counts": np.array([10.0, 6.0, 2.0, 4.0, 4.0]),
    "parents": np.array([-1, 0, 1, 1, 0], dtype=np.intp),
}


def _small_tree(path, **segments):
    """Write the five-node tree as a v2 artifact at ``path``.

    ``segments`` replace the named stored arrays, any of the six, and the
    file is rewritten with a footer that verifies: a crafted segment can
    only reach the loader this way, since the constructor refuses it.
    """
    flat = FlatHistogram(**SMALL_TREE)
    release = SpatialTreeRelease(flat=flat, method="privtree", epsilon_spent=1.0)
    write_artifact(release, path)
    if segments:
        _unpadded(path, path, **segments)
    return path


def _replaced_row(name, row, value):
    """``SMALL_TREE[name]`` with ``row`` set to ``value``."""
    array = SMALL_TREE[name].copy()
    array[row] = value
    return array


#: Crafted segments, each in a file whose footer verifies.  Each would
#: send a query round a cycle, index past the arrays, divide by a
#: degenerate volume or answer from a count no fit releases.
CRAFTED_TREES = {
    "root_is_its_own_child": (
        {"child_index": np.array([0, 4, 2, 3], dtype=np.intp)},
        "child_index disagrees",
    ),
    "node_named_twice": (
        {"child_index": np.array([1, 1, 2, 3], dtype=np.intp)},
        "child_index disagrees",
    ),
    "child_index_out_of_range": (
        {"child_index": np.array([1, 5, 2, 3], dtype=np.intp)},
        "child_index disagrees",
    ),
    "child_before_its_parent": (
        {
            "parents": np.array([-1, 0, 3, 1, 0], dtype=np.intp),
            "child_offsets": np.array([0, 2, 3, 3, 4, 4], dtype=np.intp),
            "child_index": np.array([1, 4, 3, 2], dtype=np.intp),
        },
        "parent must precede",
    ),
    "offsets_fall": (
        {"child_offsets": np.array([0, 2, 1, 4, 4, 4], dtype=np.intp)},
        "child_offsets disagrees",
    ),
    "offsets_overshoot": (
        {"child_offsets": np.array([0, 2, 4, 4, 4, 5], dtype=np.intp)},
        "child_offsets disagrees",
    ),
    "parents_disagree": (
        {"parents": np.array([-1, 0, 1, 0, 0], dtype=np.intp)},
        "child_offsets disagrees",
    ),
    "root_has_a_parent": (
        {"parents": np.array([0, 0, 1, 1, 0], dtype=np.intp)},
        "root",
    ),
    "float_topology": (
        {"child_index": np.array([1.0, 4.0, 2.0, 3.0])},
        "child_index disagrees",
    ),
    "short_counts": (
        {"counts": np.array([10.0, 6.0, 2.0, 4.0])},
        "counts must be 5 floats",
    ),
    "infinite_bound": (
        {"highs": _replaced_row("highs", 3, [0.5, np.inf])},
        "non-finite box coordinate",
    ),
    "inverted_box": (
        {"lows": _replaced_row("lows", 4, [1.0, 0.0])},
        "low must be < high",
    ),
    "nan_count": (
        {"counts": _replaced_row("counts", 1, np.nan)},
        "non-finite node count",
    ),
    "infinite_count": (
        {"counts": _replaced_row("counts", 4, -np.inf)},
        "non-finite node count",
    ),
    "integer_counts": (
        {"counts": SMALL_TREE["counts"].astype(np.int64)},
        "counts must be 5 floats",
    ),
    "text_counts": (
        {"counts": SMALL_TREE["counts"].astype(str)},
        "counts must be 5 floats",
    ),
    "complex_counts": (
        {"counts": SMALL_TREE["counts"].astype(complex)},
        "counts must be 5 floats",
    ),
    # Node 2 reaches past its parent's (the left half's) right edge,
    # though it stays inside the root.
    "child_escapes_its_parent": (
        {"highs": _replaced_row("highs", 2, [0.75, 0.5])},
        "escapes its parent",
    ),
}


class TestCraftedArtifacts:
    """A footer any writer can compute proves intact bytes, not a tree:
    the loader builds the tree through the checking constructor, holds
    the stored child lists to the derived ones, and fails closed."""

    def test_well_formed_tree_loads_and_answers(self, tmp_path):
        path = _small_tree(tmp_path / "tree.bin")
        restored = read_artifact(path)
        assert restored.height == 2
        assert restored.flat().range_count_arrays(
            np.array([[0.0, 0.0]]), np.array([[0.5, 1.0]])
        ).tolist() == [6.0]

    @pytest.mark.parametrize("verify", [True, False], ids=["verified", "unverified"])
    @pytest.mark.parametrize("case", sorted(CRAFTED_TREES))
    def test_crafted_topology_rejected(self, tmp_path, case, verify):
        overrides, message = CRAFTED_TREES[case]
        path = _small_tree(tmp_path / "crafted.bin", **overrides)
        with pytest.raises(ArtifactError, match=message):
            read_artifact(path, verify=verify)

    def test_crafted_artifact_in_a_store_fails_the_load(self, store, uniform_2d):
        release, _ = fit_release("privtree", uniform_2d, None)
        store.put(release, release_id="crafted")
        overrides, _ = CRAFTED_TREES["root_is_its_own_child"]
        _small_tree(store.root / "releases" / "crafted.bin", **overrides)
        with pytest.raises(ArtifactError):
            store.get("crafted")

    def test_header_that_is_not_an_object_rejected(self, tmp_path):
        header = b"[]"
        body = struct.pack("<8sII", b"REPROBIN", 2, len(header)) + header
        path = tmp_path / "list-header.bin"
        path.write_bytes(body + b"SHA2-256" + hashlib.sha256(body).digest())
        with pytest.raises(ArtifactError, match="not a JSON object"):
            read_artifact(path)
        with pytest.raises(ArtifactError, match="not a JSON object"):
            artifact_info(path)


#: What a crafted segment may be cast to: every dtype kind ``.npy`` holds
#: without objects.
_SEGMENT_DTYPES = [
    np.float64, np.float32, np.int64, np.int32, np.uint64, np.complex128,
    np.bool_, "<U4",
]


@st.composite
def _spoiled_segments(draw):
    """Replacements for some of the tree's four input segments: a value
    (NaN, +-inf, a bound that inverts or escapes a box, a parent after its
    child or past the arrays), the dtype or the shape changed."""
    segments = {}
    for name in draw(st.sets(st.sampled_from(sorted(SMALL_TREE)), min_size=1)):
        array = SMALL_TREE[name].copy()
        edit = draw(st.sampled_from(["value", "value", "dtype", "shape"]))
        if edit == "value":
            if name == "parents":
                value = draw(st.integers(-2, 6) | st.just(2**40))
            else:
                special = [np.nan, np.inf, -np.inf, -0.5, 0.25, 0.75, 1.5]
                value = draw(st.sampled_from(special) | st.floats())
            array.flat[draw(st.integers(0, array.size - 1))] = value
        elif edit == "dtype":
            array = array.astype(draw(st.sampled_from(_SEGMENT_DTYPES)))
        else:
            array = draw(st.sampled_from([
                array[:-1],
                np.concatenate([array, array[-1:]]),
                array.reshape(-1),
                array.reshape(array.shape + (1,)),
                array[:0],
            ]))
        segments[name] = array
    return segments


@st.composite
def _pre_order_trees(draw):
    """A pre-order tree as its four arrays and its child lists: nested
    finite boxes and finite counts, now and then with one value spoiled
    (a NaN or infinite bound, an inverted or escaping box, or a
    non-finite count)."""
    m = draw(st.integers(1, 12))
    d = draw(st.integers(1, 3))
    parents, children, path = [-1], [[] for _ in range(m)], [0]
    for node in range(1, m):
        # A pre-order node hangs off the path from the root to the last one.
        path = path[: draw(st.integers(1, len(path)))]
        parents.append(path[-1])
        children[path[-1]].append(node)
        path.append(node)
    fractions = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
    lows, highs = np.empty((m, d)), np.empty((m, d))
    lows[0], highs[0] = -1.0, 2.0
    for node in range(1, m):
        parent = parents[node]
        for k in range(d):
            a, b = sorted(draw(st.lists(fractions, min_size=2, max_size=2, unique=True)))
            extent = highs[parent, k] - lows[parent, k]
            lows[node, k] = lows[parent, k] + a * extent
            highs[node, k] = lows[parent, k] + b * extent
    counts = np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=m, max_size=m)))
    node, k = draw(st.integers(0, m - 1)), draw(st.integers(0, d - 1))
    spoil = draw(st.sampled_from(
        ["none", "none", "nan bound", "infinite bound", "inverted", "escaping",
         "nan count", "infinite count"]
    ))
    if spoil == "nan bound":
        lows[node, k] = np.nan
    elif spoil == "infinite bound":
        highs[node, k] = draw(st.sampled_from([np.inf, -np.inf]))
    elif spoil == "inverted":
        lows[node, k], highs[node, k] = highs[node, k], lows[node, k]
    elif spoil == "escaping":
        highs[node, k] += 1.0
    elif spoil == "nan count":
        counts[node] = np.nan
    elif spoil == "infinite count":
        counts[node] = np.inf
    return lows, highs, counts, np.array(parents, dtype=np.intp), children


def _tree_document(lows, highs, counts, children):
    """The ``repro.histogram_tree`` document of pre-order rows."""
    def node(i):
        entry = {"low": lows[i].tolist(), "high": highs[i].tolist()}
        entry["count"] = float(counts[i])
        if children[i]:
            entry["children"] = [node(j) for j in children[i]]
        return entry

    return {"format": "repro.histogram_tree", "version": 1, "root": node(0)}


class TestFuzzedTreeSegments:
    """Segment bytes from outside the process, with a footer that
    verifies: the loader returns a tree that answers finitely or raises
    ``ArtifactError``, and accepts exactly what the JSON decoder does."""

    @settings(max_examples=150, deadline=None)
    @given(segments=_spoiled_segments())
    def test_any_input_segments_load_or_raise_artifact_error(
        self, tmp_path_factory, segments
    ):
        path = _small_tree(tmp_path_factory.getbasetemp() / "segments.bin", **segments)
        try:
            flat = read_artifact(path).flat()
        except ArtifactError:
            return
        root = np.asarray(flat.lows[:1]), np.asarray(flat.highs[:1])
        assert np.isfinite(flat.range_count_arrays(*root)).all()

    @settings(max_examples=150, deadline=None)
    @given(tree=_pre_order_trees())
    def test_json_and_v2_decoders_agree(self, tmp_path_factory, tree):
        lows, highs, counts, parents, children = tree
        stored = {
            "lows": lows,
            "highs": highs,
            "counts": counts,
            "parents": parents,
            # Each node's children in row order, as every writer lays them out.
            "child_offsets": np.cumsum([0] + [len(c) for c in children]),
            "child_index": np.array([j for c in children for j in c], dtype=np.intp),
        }
        path = _small_tree(tmp_path_factory.getbasetemp() / "parity.bin", **stored)
        try:
            document = _tree_document(lows, highs, counts, children)
            from_json = tree_from_dict(document).flat()
        except ValueError:
            with pytest.raises(ArtifactError):
                read_artifact(path)
            return
        from_v2 = read_artifact(path).flat()
        for name, array in stored.items():
            for flat in (from_json, from_v2):
                assert getattr(flat, name).dtype == array.dtype, name
                np.testing.assert_array_equal(getattr(flat, name), array, err_msg=name)


#: Malformed header fields, each in a file whose footer verifies.
MALFORMED_HEADERS = {
    "segment_without_an_offset": (lambda h: h["segments"][0].pop("offset"), "offset"),
    "offset_that_is_text": (lambda h: h["segments"][0].update(offset="abc"), "offset"),
    "offset_that_is_null": (lambda h: h["segments"][0].update(offset=None), "offset"),
    "segments_as_an_object": (
        lambda h: h.update(segments={s["name"]: s for s in h["segments"]}),
        "segments",
    ),
    "segments_as_a_string": (lambda h: h.update(segments="lows"), "segments"),
    "segments_as_lists": (
        lambda h: h.update(segments=[list(s.values()) for s in h["segments"]]),
        "segments",
    ),
    "epsilon_spent_that_is_text": (
        lambda h: h.update(epsilon_spent="x"), "epsilon_spent"
    ),
    "epsilon_spent_past_the_float_range": (
        lambda h: h.update(epsilon_spent=10**400), "epsilon_spent"
    ),
    "meta_as_a_list": (lambda h: h.update(meta=[]), "meta"),
    "offset_inside_a_segment": (
        lambda h: h["segments"][0].update(offset=h["segments"][0]["offset"] + 8),
        "not an .npy array",
    ),
}

_JUNK = (
    st.none()
    | st.booleans()
    | st.floats()
    | st.text(max_size=3)
    | st.lists(st.integers(-1, 3), max_size=3)
)


def _segment_tables(original, n_bytes):
    """Segment tables near ``original`` and far from it, within
    ``n_bytes`` of data and past it."""
    names = st.sampled_from([s["name"] for s in original])
    spans = st.integers(-2, n_bytes + 64)

    def near(segment):
        return st.fixed_dictionaries({
            "name": st.just(segment["name"]) | names,
            "offset": st.just(segment["offset"]) | spans,
            "length": st.just(segment["length"]) | spans,
        })

    entry = st.fixed_dictionaries(
        {},
        optional={
            "name": names | _JUNK,
            "offset": spans | _JUNK,
            "length": spans | _JUNK,
        },
    )
    return st.one_of(
        st.permutations(original),
        st.tuples(*map(near, original)).map(list),
        st.lists(entry | _JUNK, max_size=8),
        _JUNK,
    )


class TestMalformedHeaders:
    """A footer any writer can compute proves intact bytes, not a header
    or a segment a writer made: a malformed one raises ``ArtifactError``,
    and the header's fields are checked before anything is mapped."""

    @pytest.mark.parametrize("verify", [True, False], ids=["verified", "unverified"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
    def test_malformed_header_rejected(self, tmp_path, case, verify):
        edit, message = MALFORMED_HEADERS[case]
        header, data = _split(_small_tree(tmp_path / "tree.bin"))
        edit(header)
        path = _join(tmp_path / "tree.bin", header, data)
        with pytest.raises(ArtifactError, match=message):
            read_artifact(path, verify=verify)

    def test_segment_with_a_negative_dimension_rejected(self, tmp_path):
        header, data = _split(_small_tree(tmp_path / "tree.bin"))
        # The counts segment's .npy header, one pad space traded for a sign.
        data = data.replace(b"'shape': (5,), }  ", b"'shape': (-5,), } ", 1)
        assert b"(-5,)" in data
        path = _join(tmp_path / "tree.bin", header, data)
        with pytest.raises(ArtifactError, match="negative dimension"):
            read_artifact(path)

    def test_artifact_info_checks_the_segment_table(self, tmp_path):
        edit, message = MALFORMED_HEADERS["segments_as_lists"]
        header, data = _split(_small_tree(tmp_path / "tree.bin"))
        edit(header)
        with pytest.raises(ArtifactError, match=message):
            artifact_info(_join(tmp_path / "tree.bin", header, data))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_segment_table_loads_or_raises_artifact_error(
        self, tmp_path_factory, data
    ):
        path = _small_tree(tmp_path_factory.getbasetemp() / "segment-table.bin")
        header, block = _split(path)
        header["segments"] = data.draw(_segment_tables(header["segments"], len(block)))
        _join(path, header, block)
        try:
            flat = read_artifact(path).flat()
        except ArtifactError:
            return
        flat.range_count_arrays(np.asarray(flat.lows[:1]), np.asarray(flat.highs[:1]))


def _figure3_pst():
    """The exact PST of the paper's Figure 3 corpus: ten nodes, height 2."""
    alphabet = Alphabet(("A", "B"))
    data = SequenceDataset.from_symbols(
        alphabet, [["B"], ["A", "B"], ["A", "A", "B"], ["A", "A", "A", "B"]]
    )
    pst = exact_pst(data, l_top=10, split_threshold=-1.0, max_context=2)
    return SequenceRelease(pst, method="pst", epsilon_spent=1.0).flat()


def _write_pst(path, **overrides):
    """Write the Figure 3 PST's seven arrays, some replaced, as a v2
    artifact with a valid SHA-256 footer (through a stand-in release)."""
    flat = _figure3_pst()
    arrays = {
        name: np.array(getattr(flat, name))
        for name in (
            "hists", "totals", "cum_probs", "parents", "depths",
            "edge_symbols", "child_table",
        )
    }
    arrays.update(overrides)
    release = SimpleNamespace(
        kind=SequenceRelease.kind,
        method="pst",
        epsilon_spent=1.0,
        flat=lambda: SimpleNamespace(alphabet=flat.alphabet, **arrays),
    )
    write_artifact(release, path)
    return path


def _crafted_child_table(edit):
    table = np.array(_figure3_pst().child_table)
    edit(table)
    return table


#: Crafted PST arrays, each with a footer that verifies.  Each would index
#: past the arrays, loop a lookup, or answer and sample from numbers that
#: are not the histograms'.
CRAFTED_PSTS = {
    "child_table_past_the_arrays": (
        {"child_table": _crafted_child_table(lambda t: t.__setitem__((1, 0), 10**6))},
        "child_table disagrees",
    ),
    "child_table_loops_a_node_to_itself": (
        {"child_table": _crafted_child_table(lambda t: t.__setitem__((1, 0), 1))},
        "child_table disagrees",
    ),
    "child_table_of_another_dtype": (
        {"child_table": _crafted_child_table(lambda t: None).astype(np.int32)},
        "child_table disagrees",
    ),
    "totals_all_one": ({"totals": np.ones(10)}, "totals disagrees"),
    "zeroed_cum_probs": ({"cum_probs": np.zeros((10, 3))}, "cum_probs disagrees"),
    "depths_off_by_one": ({"depths": np.arange(10)}, "depths disagrees"),
    "parent_after_its_child": (
        {"parents": np.array([-1, 5, 1, 1, 1, 0, 5, 5, 5, 0], dtype=np.intp)},
        "parent must precede",
    ),
    "node_its_own_parent": (
        {"parents": np.array([-1, 1, 1, 1, 1, 0, 5, 5, 5, 0], dtype=np.intp)},
        "parent must precede",
    ),
    "root_has_a_parent": (
        {"parents": np.array([0, 0, 1, 1, 1, 0, 5, 5, 5, 0], dtype=np.intp)},
        "root",
    ),
    "edge_outside_the_alphabet": (
        {"edge_symbols": np.array([-1, 0, 0, 1, 3, 1, 0, 1, 3, 99])},
        "I ∪ {\\$}",
    ),
    "minus_one_edge_below_the_root": (
        {"edge_symbols": np.array([-1, 0, 0, 1, 3, 1, 0, 1, 3, -1])},
        "I ∪ {\\$}",
    ),
    "two_children_share_an_edge": (
        {"edge_symbols": np.array([-1, 0, 0, 1, 3, 1, 0, 1, 3, 0])},
        "share an edge",
    ),
    "float_parents": (
        {"parents": np.array([-1.0, 0, 1, 1, 1, 0, 5, 5, 5, 0])},
        "integers",
    ),
    "infinite_histogram": (
        {"hists": np.full((10, 3), np.inf)},
        "finite",
    ),
    "histogram_of_the_wrong_width": ({"hists": np.ones((10, 4))}, "columns"),
}


class TestCraftedPstArtifacts:
    """A PST artifact is built through the one ``FlatPST`` constructor, and
    every stored derived array must be the one it derives."""

    def test_well_formed_pst_loads_and_answers(self, tmp_path):
        flat = _figure3_pst()
        restored = read_artifact(_write_pst(tmp_path / "pst.bin"))
        for name in ("hists", "parents", "edge_symbols", "depths", "child_table"):
            assert np.array_equal(getattr(restored.flat(), name), getattr(flat, name))
        assert restored.query([0, 1]) == flat.string_frequency([0, 1]) == 3.0

    @pytest.mark.parametrize("verify", [True, False], ids=["verified", "unverified"])
    @pytest.mark.parametrize("case", sorted(CRAFTED_PSTS))
    def test_crafted_pst_rejected(self, tmp_path, case, verify):
        overrides, message = CRAFTED_PSTS[case]
        path = _write_pst(tmp_path / "crafted.bin", **overrides)
        with pytest.raises(ArtifactError, match=message):
            read_artifact(path, verify=verify)

    def test_crafted_pst_in_a_store_fails_the_load(self, store, sequence_data):
        release, _ = fit_release("pst", None, sequence_data)
        store.put(release, release_id="crafted")
        overrides, _ = CRAFTED_PSTS["totals_all_one"]
        _write_pst(store.root / "releases" / "crafted.bin", **overrides)
        with pytest.raises(ArtifactError):
            store.get("crafted")


@pytest.fixture(scope="module")
def ngram_release():
    """A 500-sequence msnbc-like n-gram fit over 17 symbols (& is code 17,
    $ is 18).  Its grams sort as (0,), (0, 5), ..., so gram 1 has two
    codes."""
    return from_spec("ngram", epsilon=1.0).fit(msnbclike(500, rng=0), rng=1)


def _gram_arrays(release):
    """The three segments the v2 writer stores for ``release``."""
    grams = sorted(release.model.counts.items())
    return {
        "gram_lengths": np.array([len(g) for g, _ in grams]),
        "gram_codes": np.array([c for g, _ in grams for c in g]),
        "gram_counts": np.array([v for _, v in grams]),
    }


def _replaced(array, index, value):
    array = array.copy()
    array[index] = value
    return array


def _second_unigram_as_the_first(lengths, codes, counts):
    second = np.flatnonzero(lengths == 1)[1]
    return {"gram_codes": _replaced(codes, int(lengths[:second].sum()), 0)}


#: Crafted n-gram arrays, each with a footer that verifies.  Unchecked,
#: each would answer from a gram no fit releases, or lose a real one.
CRAFTED_NGRAMS = {
    "code_outside_the_alphabet": (
        lambda l, c, v: {"gram_codes": _replaced(c, 0, 99)}, "I ∪ {&}"
    ),
    "start_marker_in_a_gram": (
        lambda l, c, v: {"gram_codes": _replaced(c, 0, 18)}, "I ∪ {&}"
    ),
    "end_marker_before_the_last_place": (
        lambda l, c, v: {"gram_codes": _replaced(c, 1, 17)}, "only end a gram"
    ),
    "negative_length": (
        lambda l, c, v: {"gram_lengths": _replaced(l, 0, -1)}, "lengths must lie"
    ),
    "gram_longer_than_n_max": (
        lambda l, c, v: {"gram_lengths": _replaced(l, 0, 6)}, "lengths must lie"
    ),
    "codes_past_the_last_gram": (
        lambda l, c, v: {"gram_codes": np.append(c, 0)}, "sum to the number"
    ),
    "float_lengths": (lambda l, c, v: {"gram_lengths": l.astype(float)}, "integers"),
    "nan_count": (lambda l, c, v: {"gram_counts": _replaced(v, 0, np.nan)}, "finite"),
    "one_count_short": (lambda l, c, v: {"gram_counts": v[:-1]}, "one count per gram"),
    "gram_named_twice": (_second_unigram_as_the_first, "twice"),
}

#: The same defects in a release document's gram list.
CRAFTED_NGRAM_DOCUMENTS = {
    "code_outside_the_alphabet": (lambda g: g[0].update(gram=[99]), "I ∪ {&}"),
    "start_marker_in_a_gram": (lambda g: g[0].update(gram=[18]), "I ∪ {&}"),
    "end_marker_before_the_last_place": (
        lambda g: g[1].update(gram=[17, 5]), "only end a gram"
    ),
    "empty_gram": (lambda g: g[0].update(gram=[]), "lengths must lie"),
    "gram_longer_than_n_max": (lambda g: g[0].update(gram=[0] * 6), "lengths must lie"),
    "nan_count": (lambda g: g[0].update(count=float("nan")), "finite"),
    "gram_named_twice": (lambda g: g.append(dict(g[0])), "twice"),
    "code_past_int64": (lambda g: g[0].update(gram=[2**63]), "int64 codes"),
    "count_past_the_float_range": (
        lambda g: g[0].update(count=10**400), "float 'count'"
    ),
    "null_gram": (lambda g: g[0].update(gram=None), "'gram' list"),
    "gram_without_a_count": (lambda g: g[0].pop("count"), "float 'count'"),
}


class TestCraftedNGramArtifacts:
    """Both n-gram decoders check the grams against what a fit releases."""

    def test_well_formed_ngram_loads_and_answers(self, tmp_path, ngram_release):
        path = tmp_path / "ngram.bin"
        write_artifact(ngram_release, path)
        query = [StringFrequency((0,))]
        expected = ngram_release.answer(query)
        assert expected[0] == pytest.approx(197.39, abs=0.01)
        # The crafted cases below edit these arrays, so unedited they must
        # load the fitted model.
        rewritten = _unpadded(
            path, tmp_path / "rewritten.bin", **_gram_arrays(ngram_release)
        )
        for restored in (
            read_artifact(path),
            read_artifact(rewritten),
            release_from_json(json.loads(json.dumps(ngram_release.to_json()))),
        ):
            assert restored.model.counts == ngram_release.model.counts
            assert restored.answer(query).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("verify", [True, False], ids=["verified", "unverified"])
    @pytest.mark.parametrize("case", sorted(CRAFTED_NGRAMS))
    def test_crafted_ngram_rejected(self, tmp_path, ngram_release, case, verify):
        edit, message = CRAFTED_NGRAMS[case]
        path = tmp_path / "ngram.bin"
        write_artifact(ngram_release, path)
        _unpadded(path, path, **edit(*_gram_arrays(ngram_release).values()))
        with pytest.raises(ArtifactError, match=message):
            read_artifact(path, verify=verify)

    @pytest.mark.parametrize("case", sorted(CRAFTED_NGRAM_DOCUMENTS))
    def test_crafted_ngram_document_rejected(self, ngram_release, case):
        edit, message = CRAFTED_NGRAM_DOCUMENTS[case]
        document = json.loads(json.dumps(ngram_release.to_json()))
        edit(document["payload"]["grams"])
        with pytest.raises(ValueError, match=message):
            release_from_json(document)


def _set_subgrid_index(position, index):
    return lambda meta: meta["subgrid_indices"].__setitem__(position, index)


#: Crafted grid metadata, each in a file whose footer verifies, as
#: (method, edit of the header's meta, message).  Unchecked, each raised
#: an untyped error or loaded a synopsis no fit releases.
CRAFTED_GRID_META = {
    "shape_of_another_size": ("ug", lambda m: m.update(shape=[3, 3]), "shape must be"),
    "shape_as_text": ("ug", lambda m: m.update(shape="ab"), "shape must be"),
    "level1_shape_of_another_size": (
        "ag", lambda m: m.update(level1_shape=[3, 3]), "shape must be"
    ),
    "null_subgrid_indices": (
        "ag", lambda m: m.update(subgrid_indices=None), "indices must be"
    ),
    "last_subgrid_shape_dropped": (
        "ag", lambda m: m["subgrid_shapes"].pop(), "segments for 100 grids"
    ),
    "last_subgrid_index_dropped": (
        "ag", lambda m: m["subgrid_indices"].pop(), "indices must be"
    ),
    "subgrid_index_twice": (
        "ag", _set_subgrid_index(1, [0, 0]), "refine the level-1 cell"
    ),
    "subgrid_index_outside_level1": (
        "ag", _set_subgrid_index(0, [10, 0]), "names no level-1 cell"
    ),
}

def _first_set(array, value):
    out = np.array(array)
    out.flat[0] = value
    return out


def _first_subgrid(release):
    return sorted(release.synopsis.subgrids.items())[0][1]


#: Crafted grid values, each in a file whose footer verifies, as (method,
#: the segments replaced, given the fitted release, message).  Unchecked,
#: each loaded a grid no fit releases (text bounds then raised numpy's
#: DTypePromotionError at the first query).
CRAFTED_GRID_SEGMENTS = {
    "nan_count": ("ug", lambda r: {"counts": _first_set(r.grid.counts, np.nan)}, "finite"),
    "infinite_count": (
        "ug", lambda r: {"counts": _first_set(r.grid.counts, -np.inf)}, "finite"
    ),
    "integer_counts": (
        "ug", lambda r: {"counts": r.grid.counts.astype(np.int64)}, "must be floats"
    ),
    "text_counts": ("ug", lambda r: {"counts": r.grid.counts.astype(str)}, "must be floats"),
    "complex_counts": (
        "ug", lambda r: {"counts": r.grid.counts.astype(complex)}, "must be floats"
    ),
    "text_bounds": (
        "ug", lambda r: {"low": np.array(["a", "b"]), "high": np.array(["c", "d"])},
        "must be floats",
    ),
    "integer_bounds": (
        "ug", lambda r: {"low": np.array([0, 0]), "high": np.array([1, 1])},
        "must be floats",
    ),
    "infinite_bound": ("ug", lambda r: {"high": np.array([np.inf, 1.0])}, "finite"),
    "bounds_in_two_rows": (
        "ug", lambda r: {"low": np.zeros((1, 2)), "high": np.ones((1, 2))},
        "2 numbers per side",
    ),
    "subgrid_nan_count": (
        "ag", lambda r: {"sub0_counts": _first_set(_first_subgrid(r).counts, np.nan)},
        "finite",
    ),
    "subgrid_infinite_bound": (
        "ag", lambda r: {"sub0_low": _first_set(_first_subgrid(r).domain.low, -np.inf)},
        "finite",
    ),
}


def _set_first_count(value):
    return lambda p: p["counts"].__setitem__(0, value)


#: The same defects in a release document's payload.
CRAFTED_GRID_DOCUMENTS = {
    "shape_of_another_size": ("ug", lambda p: p.update(shape=[3, 3]), "shape must be"),
    "shape_as_text": ("ug", lambda p: p.update(shape="ab"), "shape must be"),
    "null_count": ("ug", _set_first_count(None), "counts must be numbers, got None"),
    "nan_count": ("ug", _set_first_count(float("nan")), "counts must be finite"),
    "text_count": ("ug", _set_first_count("1.5"), "counts must be numbers"),
    "bool_count": ("ug", _set_first_count(True), "counts must be numbers"),
    "count_past_the_float_range": ("ug", _set_first_count(10**400), "float range"),
    "text_bounds": (
        "ug", lambda p: p.update(low="ab", high="cd"), "bounds must be a list of numbers"
    ),
    "text_numbers_as_bounds": (
        "ug", lambda p: p.update(low=["0", "0"], high=["1", "1"]), "bounds must be numbers"
    ),
    "null_bound": ("ug", lambda p: p["low"].__setitem__(0, None), "bounds must be numbers"),
    "bool_bounds": (
        "ug", lambda p: p.update(low=[False, False], high=[True, True]),
        "bounds must be numbers",
    ),
    "infinite_bound": (
        "ug", lambda p: p["high"].__setitem__(0, float("inf")), "bounds must be finite"
    ),
    "subgrid_null_count": (
        "ag", lambda p: p["subgrids"][0]["grid"]["counts"].__setitem__(0, None),
        "counts must be numbers",
    ),
    "null_subgrid_index": (
        "ag", lambda p: p["subgrids"][0].update(index=None), "names no level-1 cell"
    ),
    "subgrid_index_twice": (
        "ag", lambda p: p["subgrids"][1].update(index=[0, 0]), "refine the level-1 cell"
    ),
    "subgrid_index_outside_level1": (
        "ag", lambda p: p["subgrids"][0].update(index=[10, 0]), "names no level-1 cell"
    ),
}


class TestCraftedGridArtifacts:
    """Both decoders of a grid kind build through one check of the shape
    and of the subgrid list; the v2 loader raises ``ArtifactError``."""

    def test_ag_fit_refines_cells_in_index_order(self, uniform_2d):
        # The crafted cases above edit these indices.
        release, _ = fit_release("ag", uniform_2d, None)
        assert release.synopsis.level1.shape == (10, 10)
        assert sorted(release.synopsis.subgrids)[:2] == [(0, 0), (0, 1)]

    @pytest.mark.parametrize("verify", [True, False], ids=["verified", "unverified"])
    @pytest.mark.parametrize("case", sorted(CRAFTED_GRID_META))
    def test_crafted_grid_meta_rejected(self, tmp_path, uniform_2d, case, verify):
        name, edit, message = CRAFTED_GRID_META[case]
        release, _ = fit_release(name, uniform_2d, None)
        write_artifact(release, tmp_path / "grid.bin")
        header, data = _split(tmp_path / "grid.bin")
        edit(header["meta"])
        path = _join(tmp_path / "grid.bin", header, data)
        with pytest.raises(ArtifactError, match=message):
            read_artifact(path, verify=verify)

    @pytest.mark.parametrize("case", sorted(CRAFTED_GRID_SEGMENTS))
    def test_crafted_grid_values_rejected(self, tmp_path, uniform_2d, case):
        name, segments, message = CRAFTED_GRID_SEGMENTS[case]
        release, _ = fit_release(name, uniform_2d, None)
        path = tmp_path / "grid.bin"
        write_artifact(release, path)
        _unpadded(path, path, **segments(release))
        with pytest.raises(ArtifactError, match=message):
            read_artifact(path)

    @pytest.mark.parametrize("name", ["ug", "ag"])
    def test_unedited_grid_segments_load_the_fit(self, tmp_path, uniform_2d, name):
        # The crafted cases above rewrite these files: unedited, the bytes
        # written back are the fit's.
        release, _ = fit_release(name, uniform_2d, None)
        path = tmp_path / "grid.bin"
        write_artifact(release, path)
        rewritten = _unpadded(path, tmp_path / "rewritten.bin")
        for restored in (read_artifact(path), read_artifact(rewritten)):
            assert restored.to_json_text() == release.to_json_text()

    @pytest.mark.parametrize("case", sorted(CRAFTED_GRID_DOCUMENTS))
    def test_crafted_grid_document_rejected(self, uniform_2d, case):
        name, edit, message = CRAFTED_GRID_DOCUMENTS[case]
        release, _ = fit_release(name, uniform_2d, None)
        document = json.loads(json.dumps(release.to_json()))
        edit(document["payload"])
        with pytest.raises(ValueError, match=message):
            release_from_json(document)


#: One fit per release kind with a v2 codec.
KIND_METHODS = ["privtree", "ug", "ag", "pst", "ngram"]


class TestAlignment:
    """Every segment's data starts on a 64-byte file offset, so every array
    the loader maps is aligned; a file written before the padding still
    maps and answers the same."""

    def test_one_method_per_kind(self, uniform_2d, sequence_data):
        kinds = {
            fit_release(name, uniform_2d, sequence_data)[0].kind
            for name in KIND_METHODS
        }
        assert kinds == set(artifact_module._CODECS)

    @pytest.mark.parametrize("name", KIND_METHODS)
    def test_every_array_is_mapped_aligned(
        self, name, tmp_path, uniform_2d, sequence_data, mapped
    ):
        release, _ = fit_release(name, uniform_2d, sequence_data)
        path = tmp_path / "release.bin"
        write_artifact(release, path)
        assert all(offset % 64 == 0 for offset in _data_offsets(path))
        read_artifact(path)
        assert len(mapped) == len(artifact_info(path)["segments"])
        for array in mapped:
            assert isinstance(array, np.memmap) and array.flags.aligned

    @pytest.mark.parametrize(
        "name, arrays",
        [
            ("privtree", ("lows", "highs", "counts", "parents")),
            ("pst", ("hists", "parents", "edge_symbols")),
        ],
    )
    def test_engines_hold_aligned_mapped_arrays(
        self, name, arrays, tmp_path, uniform_2d, sequence_data
    ):
        """Loading stays zero-copy: each constructor input is a memmap, or
        (``FlatPST`` keeps plain views) a view of one."""
        release, _ = fit_release(name, uniform_2d, sequence_data)
        path = tmp_path / "release.bin"
        write_artifact(release, path)
        flat = read_artifact(path).flat()
        for array_name in arrays:
            array = getattr(flat, array_name)
            assert isinstance(array, np.memmap) or isinstance(
                array.base, np.memmap
            ), array_name
            assert array.flags.aligned, array_name

    def test_padding_is_json_whitespace_and_zero_bytes(self, tmp_path, uniform_2d):
        release, _ = fit_release("privtree", uniform_2d, None)
        path = tmp_path / "release.bin"
        write_artifact(release, path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, 12)
        assert (16 + header_len) % 64 == 0
        padded = blob[16 : 16 + header_len]
        document = json.loads(padded)
        assert padded.rstrip(b" ") == json.dumps(document, sort_keys=True).encode()
        data = _split(path)[1]
        end = 0
        for segment in document["segments"]:
            assert segment["offset"] % 64 == 0
            assert data[end : segment["offset"]].strip(b"\0") == b""
            end = segment["offset"] + segment["length"]
        assert end == len(data)

    @pytest.mark.parametrize("name", KIND_METHODS)
    def test_file_written_before_the_padding_answers_the_same(
        self, name, tmp_path, uniform_2d, sequence_data, mapped
    ):
        release, kind = fit_release(name, uniform_2d, sequence_data)
        aligned = tmp_path / "aligned.bin"
        write_artifact(release, aligned)
        legacy = _unpadded(aligned, tmp_path / "legacy.bin")
        restored = read_artifact(legacy)
        assert len(mapped) == len(artifact_info(legacy)["segments"])
        assert all(isinstance(array, np.memmap) for array in mapped)
        # The spatial fits' files before the padding are misaligned.
        if kind == "spatial":
            assert not all(array.flags.aligned for array in mapped)
        answers = np.asarray(_answers(restored, kind)).tobytes()
        assert answers == np.asarray(_answers(read_artifact(aligned), kind)).tobytes()
        assert answers == np.asarray(_answers(release, kind)).tobytes()
        assert artifact_info(legacy) == {
            **artifact_info(aligned), "bytes": legacy.stat().st_size
        }


class TestStoreIntegration:
    def test_put_writes_both_forms(self, store, uniform_2d):
        release, _ = fit_release("privtree", uniform_2d, None)
        release_id = store.put(release, release_id="both")
        assert (store.root / "releases" / "both.json").exists()
        assert (store.root / "releases" / "both.bin").exists()
        entry = store.manifest_entry(release_id)
        assert entry["artifact_format"] == "binary-v2"
        assert (
            entry["artifact_bytes"]
            == (store.root / "releases" / "both.bin").stat().st_size
        )

    def test_get_prefers_binary_artifact(self, store, uniform_2d):
        release, _ = fit_release("privtree", uniform_2d, None)
        store.put(release, release_id="pref")
        # Corrupt the JSON envelope: a v2-preferring get never parses it.
        (store.root / "releases" / "pref.json").write_text("{not json")
        restored = store.get("pref")
        assert np.array_equal(
            _answers(restored, "spatial"), _answers(release, "spatial")
        )

    def test_v1_only_store_still_loads(self, store, uniform_2d):
        release, _ = fit_release("privtree", uniform_2d, None)
        store.put(release, release_id="legacy")
        (store.root / "releases" / "legacy.bin").unlink()
        restored = store.get("legacy")
        assert np.array_equal(
            _answers(restored, "spatial"), _answers(release, "spatial")
        )

    def test_migrate_upgrades_v1_entries(self, store, uniform_2d, sequence_data):
        spatial, _ = fit_release("privtree", uniform_2d, None)
        sequence, _ = fit_release("pst", None, sequence_data)
        store.put(spatial, release_id="a")
        store.put(sequence, release_id="b")
        # Simulate a pre-v2 store: drop the binaries and the manifest fields.
        for release_id in ("a", "b"):
            (store.root / "releases" / f"{release_id}.bin").unlink()
        manifest_path = store.root / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for entry in manifest["releases"].values():
            for key in ("artifact_format", "artifact_bytes", "binary_path"):
                entry.pop(key, None)
        manifest_path.write_text(json.dumps(manifest))

        assert sorted(store.migrate()) == ["a", "b"]
        for release_id in ("a", "b"):
            assert (store.root / "releases" / f"{release_id}.bin").exists()
            assert (
                store.manifest_entry(release_id)["artifact_format"] == "binary-v2"
            )
        # Idempotent: a second run has nothing left to upgrade.
        assert store.migrate() == []

    def test_corrupt_binary_fails_load_loudly(self, store, uniform_2d):
        release, _ = fit_release("privtree", uniform_2d, None)
        store.put(release, release_id="bad")
        path = store.root / "releases" / "bad.bin"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x04
        path.write_bytes(bytes(data))
        with pytest.raises(ArtifactIntegrityError):
            store.get("bad")
