"""The array PST held to the frozen pointer PST, bit for bit.

:mod:`repro.experiments.perf` keeps the pointer ``PredictionSuffixTree``
as it was before :class:`~repro.sequence.flat.FlatPST` became the only
in-memory form: its recursive release and clamp, its node compile, its
JSON codec and its per-symbol sampler.  The fits, the writer, the decoder
and ``sample_sequence`` must give exactly what those give.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import from_spec
from repro.core.privtree import MaxDepthWarning
from repro.datasets import msnbclike
from repro.experiments.perf import (
    PredictionSuffixTree,
    reference_exact_pst,
    reference_private_pst,
    reference_pst_arrays,
    reference_pst_from_dict,
    reference_pst_to_dict,
)
from repro.sequence import (
    Alphabet,
    SequenceDataset,
    exact_pst,
    pst_from_dict,
    pst_to_dict,
)


def corpora() -> dict[str, SequenceDataset]:
    gen = np.random.default_rng(5)
    return {
        "msnbc": msnbclike(2_000, rng=0),
        "all-empty": SequenceDataset.from_sequences(
            Alphabet.of_size(3), (np.empty(0, np.int64),) * 20
        ),
        "one-symbol": SequenceDataset.from_sequences(
            Alphabet.of_size(1),
            tuple(
                np.zeros(int(gen.integers(0, 12)), np.int64) for _ in range(300)
            ),
        ),
    }


CORPORA = corpora()
FIT_PARAMS = {"default": {}, "theta=5": {"theta": 5.0}, "max_depth=2": {"max_depth": 2}}
EXACT_PARAMS = {
    "default": {},
    "split_threshold=5": {"split_threshold": 5.0},
    "max_context=2": {"max_context": 2},
}


def assert_same_arrays(flat, expected: dict) -> None:
    for name, array in expected.items():
        got = getattr(flat, name)
        assert got.dtype == array.dtype, name
        assert got.shape == array.shape, name
        assert got.tobytes() == array.tobytes(), name


def release_text(pst: PredictionSuffixTree, method: str, epsilon: float) -> str:
    """The release document the pointer release step wrote."""
    return json.dumps(
        {
            "format": "repro.release",
            "version": 1,
            "kind": "sequence-pst",
            "method": method,
            "epsilon_spent": epsilon,
            "payload": reference_pst_to_dict(pst),
        }
    )


class TestFitMatchesFrozenRelease:
    """Leaf noise in pre-order, child sums in child order, then the clamp."""

    @pytest.mark.parametrize("params", sorted(FIT_PARAMS))
    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_private_fit(self, corpus, params, seed):
        data, knobs = CORPORA[corpus], FIT_PARAMS[params]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MaxDepthWarning)
            release = from_spec("pst", epsilon=1.0, **knobs).fit(data, rng=seed)
            pst = reference_private_pst(data, 1.0, 20, rng=seed, **knobs)
        assert_same_arrays(release.flat(), reference_pst_arrays(pst))
        assert release.to_json_text() == release_text(pst, "pst", 1.0)

    @pytest.mark.parametrize("params", sorted(EXACT_PARAMS))
    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_exact_fit(self, corpus, params):
        data, knobs = CORPORA[corpus], EXACT_PARAMS[params]
        flat = exact_pst(data, l_top=20, **knobs)
        pst = reference_exact_pst(data, l_top=20, **knobs)
        assert_same_arrays(flat, reference_pst_arrays(pst))
        assert json.dumps(pst_to_dict(flat)) == json.dumps(reference_pst_to_dict(pst))


class TestSampleSequenceMatchesPointerWalk:
    """One sequence in lockstep draws what the per-symbol walk draws."""

    @pytest.fixture(scope="class")
    def pair(self):
        data = msnbclike(3_000, rng=0)
        release = from_spec("pst", epsilon=4.0).fit(data, rng=0)
        return release, reference_private_pst(data, 4.0, 20, rng=0)

    @pytest.mark.parametrize("max_length", [None, 3, 25])
    def test_same_symbols_for_every_seed(self, pair, max_length):
        release, pst = pair
        assert release.height >= 2
        for seed in range(100):
            got = release.sample_sequence(rng=seed, max_length=max_length)
            expected = pst.sample_sequence(rng=seed, max_length=max_length)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected), seed


#: Hist values a JSON document may carry besides finite numbers: non-finite
#: values, and values ``float()`` takes or refuses.
ODD_VALUES = [float("nan"), float("inf"), None, "1.5", "lots", True, 7]

#: Finite float bit patterns whose JSON text has its own rules.
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072e-308, 1e16, -1.5e300, 1e-300]


@st.composite
def pst_nodes(draw, alphabet, context=(), depth=0):
    """A ``repro.prediction_suffix_tree`` node; now and then a child's
    context, a histogram or a child key is malformed.  Child keys are codes
    of ``I ∪ {$}`` in any document order (now and then a non-integer)."""
    node = {}
    odd = draw(st.integers(0, 19))
    node["context"] = (
        draw(st.sampled_from([list(context) + [0], None, "x", [1.5]]))
        if odd == 0 and depth > 0
        else list(context)
    )
    width = alphabet.hist_size
    if odd == 1:
        width = draw(st.sampled_from([width - 1, width + 1]))
    hist = draw(
        st.lists(
            st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(-1e6, 1e6)),
            min_size=width,
            max_size=width,
        )
    )
    if odd == 2:
        hist[draw(st.integers(0, width - 1))] = draw(st.sampled_from(ODD_VALUES))
    if odd != 3:  # and now and then a node has no histogram
        node["hist"] = hist
    if depth < 3 and draw(st.booleans()):
        codes = list(range(alphabet.size)) + [alphabet.start_code]
        chosen = draw(st.lists(st.sampled_from(codes), min_size=1, unique=True))
        children = {
            str(code): draw(pst_nodes(alphabet, (code,) + context, depth + 1))
            for code in chosen
        }
        if odd == 4:
            children["zero"] = {"context": [0], "hist": [0.0] * alphabet.hist_size}
        node["children"] = children
    return node


@st.composite
def pst_documents(draw):
    alphabet = Alphabet.of_size(draw(st.integers(1, 3)))
    return {
        "format": "repro.prediction_suffix_tree",
        "version": 1,
        "alphabet": list(alphabet.symbols),
        "root": draw(pst_nodes(alphabet)),
    }


class TestArrayDecoderAgreesWithFrozenNodeDecoder:
    """``pst_from_dict`` decodes into arrays what the frozen node decoder
    decodes into nodes and compiles, and refuses what it refuses."""

    @given(document=pst_documents())
    @settings(max_examples=200, deadline=None)
    def test_same_arrays_or_both_reject(self, document):
        try:
            expected = reference_pst_arrays(reference_pst_from_dict(document))
        except ValueError:
            with pytest.raises(ValueError):
                pst_from_dict(document)
            return
        assert_same_arrays(pst_from_dict(document), expected)

    @given(document=pst_documents())
    @settings(max_examples=100, deadline=None)
    def test_writer_matches_frozen_encoder(self, document):
        try:
            pst = reference_pst_from_dict(document)
        except ValueError:
            return
        written = json.dumps(pst_to_dict(pst_from_dict(document)))
        assert written == json.dumps(reference_pst_to_dict(pst))
