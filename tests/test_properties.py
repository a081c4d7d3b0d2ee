"""Property tests: the batched forward and backward against the per-sentence
oracles, masking bounds, partial AUC against a brute-force threshold sweep,
and rankings and reports through the catalogue memo against per-item
encodes."""

from __future__ import annotations

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import matchlab.evaluation  # noqa: E402
from matchlab import (  # noqa: E402
    Corpus,
    EmbeddingModel,
    EncodeError,
    EvalError,
    Pair,
    auc_partial,
    encode,
    encode_backward,
    encode_batch,
    evaluate,
    mask_fraction,
    rank_items,
    row_dots,
)
from matchlab.encoder import encode_batch_backward  # noqa: E402

from conftest import make_vocab, model_from_rows  # noqa: E402
from test_evaluation import encode_each_item, sweep_pauc  # noqa: E402

# Fixed examples: the suite tests the same cases on every run.
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

finite = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
# table entries and upstream values, signed zeros included: a sum of -0.0
# entries must round like encode's
entry = st.sampled_from([0.0, -0.0]) | finite


@st.composite
def model_and_sentences(draw, non_finite=False):
    """A model whose later rows negate earlier ones (so some sentences cancel
    to a degenerate sum) and sentences over ids from -2 to V + 2: repeats,
    empty sentences, negative ids, the padding value V and ids past it. With
    ``non_finite``, one coordinate of one row is NaN or +-inf, as in a
    diverged table."""
    dim = draw(st.integers(2, 6))
    base = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                         min_size=1, max_size=5))
    rows = base + [[-x for x in row] for row in base[:draw(st.integers(0, len(base)))]]
    model = model_from_rows(rows)
    v = model.vocab_size
    if non_finite:
        model.table[draw(st.integers(0, v - 1)), draw(st.integers(0, dim - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    sentences = draw(st.lists(st.lists(st.integers(-2, v + 2), max_size=8).map(tuple),
                              max_size=12))
    return model, sentences


@PROPERTY
@given(st.one_of(model_and_sentences(), model_and_sentences(non_finite=True)))
def test_encode_batch_is_encode_bit_for_bit(case):
    model, sentences = case
    res = encode_batch(model, sentences)
    emb, ok = res.embeddings, res.ok
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


@st.composite
def views_and_uses(draw):
    """Plain and dropout views with repeated tokens, and uses of them (a view
    may be used more than once) with their upstream vectors."""
    dim = draw(st.integers(2, 5))
    model = model_from_rows(draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                                          min_size=1, max_size=4)))
    v = model.vocab_size
    sentences = draw(st.lists(st.lists(st.integers(0, v - 1), min_size=1, max_size=8)
                              .map(tuple), min_size=1, max_size=6))
    rates = [draw(st.sampled_from([0.0, 0.3, 0.6])) for _ in sentences]
    seeds = [draw(st.integers(0, 2**32)) for _ in sentences]
    uses = draw(st.lists(st.integers(0, len(sentences) - 1), min_size=1, max_size=8))
    upstream = np.array(draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                                      min_size=len(uses), max_size=len(uses))))
    return model, sentences, rates, seeds, uses, upstream


@PROPERTY
@given(views_and_uses())
def test_batched_backward_is_encode_backward_bit_for_bit(case):
    model, sentences, rates, seeds, uses, upstream = case
    result = encode_batch(model, sentences, rates, seeds)
    used = [i for i, row in enumerate(uses) if result.ok[row]]
    keys, grads = encode_batch_backward(result, np.array([uses[i] for i in used], dtype=np.intp),
                                        upstream[used])
    got: dict[int, dict[int, bytes]] = {}
    for (k, tok), row in zip(keys, grads):
        got.setdefault(k, {})[tok] = row.tobytes()
    for k, i in enumerate(used):
        row = uses[i]
        view = encode(model, sentences[row], rates[row], seeds[row])
        assert result.embeddings[row].tobytes() == view.embedding.tobytes()
        expected = encode_backward(view, upstream[i])
        assert got[k] == {tok: g.tobytes() for tok, g in expected.items()}


@PROPERTY
@given(model_and_sentences())
def test_row_dots_is_one_dot_per_row(case):
    model, sentences = case
    emb = encode_batch(model, sentences).embeddings
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


N_TOKENS = 4
VOCAB = make_vocab(N_TOKENS)
QUERIES = {"q0": ("t1",), "q1": ("t2", "t3"), "q2": ("t4", "t1", "t1")}


@st.composite
def catalogue(draw):
    """A corpus of the fixed queries over 1 to 4 items with ids drawn from
    one small pool (so two catalogues often share ids), UNK tokens included,
    and random 0/1 relevance pairs."""
    ids = draw(st.lists(st.sampled_from(["i0", "i1", "i2", "i3", "i4"]),
                        min_size=1, max_size=4, unique=True))
    items = {iid: VOCAB.decode(draw(st.lists(st.integers(0, N_TOKENS), min_size=1,
                                             max_size=4)))
             for iid in ids}
    pairs = [Pair(qid, iid, float(draw(st.integers(0, 1))))
             for qid in QUERIES for iid in ids if draw(st.booleans())]
    return Corpus(dict(QUERIES), items, pairs)


@st.composite
def memo_traffic(draw):
    """Two models over one vocabulary (one table shape, so only their rows
    tell them apart), two catalogues, and calls of rank_items and evaluate
    interleaved with in-place table edits: a new value or a flipped sign."""
    dim = draw(st.integers(2, 3))
    tables = [np.array(draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                                     min_size=N_TOKENS + 1, max_size=N_TOKENS + 1)))
              for _ in range(2)]
    corpora = [draw(catalogue()), draw(catalogue())]
    op = st.one_of(
        st.tuples(st.just("rank"), st.integers(0, 1), st.integers(0, 1),
                  st.sampled_from(sorted(QUERIES)), st.integers(1, 4)),
        st.tuples(st.just("evaluate"), st.integers(0, 1), st.integers(0, 1)),
        st.tuples(st.just("edit"), st.integers(0, 1), st.integers(0, N_TOKENS),
                  st.integers(0, dim - 1), st.sampled_from(["flip"]) | entry),
    )
    return tables, corpora, draw(st.lists(op, min_size=1, max_size=12))


def outcome(fn, *args) -> str:
    """A call's result or error as text that tells every float bit apart.
    The returned excluded-id list is then changed, as a caller may."""
    try:
        res = fn(*args)
    except (EncodeError, EvalError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(res, matchlab.evaluation.RankingResult):
        text = repr(([(iid, score.hex()) for iid, score in res.ranked], res.excluded))
        res.excluded.append("ghost")
        return text
    text = json.dumps(res.to_json_dict(), sort_keys=True)
    res.excluded_items.append("ghost")
    return text


@PROPERTY
@given(memo_traffic())
def test_memoized_catalogue_gives_the_per_item_results(case):
    tables, corpora, ops = case
    models = [EmbeddingModel(table, VOCAB) for table in tables]
    catalogues = [{iid: VOCAB.encode(toks) for iid, toks in c.items.items()}
                  for c in corpora]
    for op in ops:
        if op[0] == "edit":
            _, m, row, col, value = op
            table = models[m].table
            table[row, col] = -table[row, col] if value == "flip" else value
            continue
        if op[0] == "rank":
            _, m, c, qid, k = op
            call = (rank_items, models[m], VOCAB.encode(QUERIES[qid]), catalogues[c], k)
        else:
            _, m, c = op
            call = (evaluate, models[m], corpora[c], (1, 2), 2)
        got = outcome(*call)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matchlab.evaluation, "_encode_items", encode_each_item)
            assert got == outcome(*call)
