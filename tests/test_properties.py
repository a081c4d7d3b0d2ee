"""Property tests: the batched forward against the per-sentence oracle,
masking bounds, and partial AUC against a brute-force threshold sweep."""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from matchlab import (  # noqa: E402
    EncodeError,
    EvalError,
    auc_partial,
    encode,
    encode_batch,
    mask_fraction,
    row_dots,
)

from conftest import model_from_rows  # noqa: E402
from test_evaluation import sweep_pauc  # noqa: E402

# Fixed examples: the suite tests the same cases on every run.
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

finite = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


@st.composite
def model_and_sentences(draw):
    """A model whose later rows negate earlier ones (so some sentences cancel
    to a degenerate sum) and sentences over ids from -2 to V + 2: repeats,
    empty sentences, negative ids, the padding value V and ids past it."""
    dim = draw(st.integers(2, 6))
    base = draw(st.lists(st.lists(finite, min_size=dim, max_size=dim),
                         min_size=1, max_size=5))
    rows = base + [[-x for x in row] for row in base[:draw(st.integers(0, len(base)))]]
    model = model_from_rows(rows)
    v = model.vocab_size
    sentences = draw(st.lists(st.lists(st.integers(-2, v + 2), max_size=8).map(tuple),
                              max_size=12))
    return model, sentences


@PROPERTY
@given(model_and_sentences())
def test_encode_batch_is_encode_bit_for_bit(case):
    model, sentences = case
    emb, ok = encode_batch(model, sentences)
    assert emb.shape == (len(sentences), model.dim)
    for row, good, sentence in zip(emb, ok, sentences):
        try:
            expected = encode(model, sentence).embedding
        except EncodeError:
            assert not good
            assert not row.any()
            continue
        assert good
        assert row.tobytes() == expected.tobytes()


@PROPERTY
@given(model_and_sentences())
def test_row_dots_is_one_dot_per_row(case):
    model, sentences = case
    emb, _ = encode_batch(model, sentences)
    for q in emb:
        expected = np.array([float(r @ q) for r in emb])
        assert row_dots(emb, q).tobytes() == expected.tobytes()
    expected = np.array([float(r @ r) for r in emb])
    assert row_dots(emb, emb).tobytes() == expected.tobytes()


@PROPERTY
@given(st.lists(st.integers(0, 9), min_size=2, max_size=30).map(tuple),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.integers(0, 2**63 - 1))
def test_mask_fraction_keeps_an_ordered_proper_subsequence(sentence, fraction, seed):
    kept = mask_fraction(sentence, fraction, seed)
    assert 1 <= len(kept) <= len(sentence) - 1
    remaining = iter(sentence)
    assert all(tok in remaining for tok in kept)


@PROPERTY
@given(st.lists(st.tuples(st.integers(-5, 5).map(lambda s: s / 4), st.integers(0, 1)),
                min_size=2, max_size=40),
       st.floats(0.01, 1.0))
def test_auc_partial_matches_a_threshold_sweep(scored, fpr_max):
    labels = {label for _, label in scored}
    if labels != {0, 1}:
        with pytest.raises(EvalError):
            auc_partial(scored, fpr_max)
        return
    assert auc_partial(scored, fpr_max) == pytest.approx(sweep_pauc(scored, fpr_max),
                                                         abs=1e-12)
