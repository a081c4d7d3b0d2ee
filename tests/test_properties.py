"""Property tests: the batched forward against ``encode``, the batched and
one-row backwards against the per-sentence reference in ``reference.py``,
the array Adam and the one-matrix miner against their per-row references
there, masking bounds, partial AUC against a brute-force threshold sweep,
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
    MiningExample,
    Pair,
    auc_partial,
    encode,
    encode_backward,
    encode_batch,
    evaluate,
    mask_fraction,
    mine_negatives,
    rank_items,
    row_dots,
)
from matchlab.encoder import encode_batch_backward  # noqa: E402
from matchlab.objectives import SparseGradient  # noqa: E402
from matchlab.trainer import _SparseAdam  # noqa: E402

import reference  # noqa: E402
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
    for key, row in zip(keys, grads):
        k, tok = divmod(key, 1 << 32)  # key = use << 32 | token
        got.setdefault(k, {})[tok] = row.tobytes()
    for k, i in enumerate(used):
        row = uses[i]
        view = encode(model, sentences[row], rates[row], seeds[row])
        assert result.embeddings[row].tobytes() == view.embedding.tobytes()
        expected = [(tok, g.tobytes())
                    for tok, g in reference.encode_backward(view, upstream[i]).items()]
        assert got[k] == dict(expected)
        # the one-row backward: the same rows, keyed in the reference's order
        assert [(tok, g.tobytes())
                for tok, g in encode_backward(view, upstream[i]).items()] == expected


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
    # broadcast leading axes: entry (i, j) is row j dotted with row i
    expected = np.array([[float(r @ q) for r in emb] for q in emb]).reshape(len(emb), len(emb))
    assert row_dots(emb, emb[:, None]).tobytes() == expected.tobytes()


@st.composite
def adam_runs(draw):
    """Adam settings (lr = 0 included), a table, a start state in which some
    rows already took up to 5,000 updates, and a few steps of sparse
    gradients: empty steps, rows repeated across steps, signed zeros."""
    v, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    row = st.lists(entry, min_size=d, max_size=d)
    settings_ = (draw(st.sampled_from([0.0, 1e-3, 0.01, 0.5])),
                 draw(st.sampled_from([0.0, 0.5, 0.9])),
                 draw(st.sampled_from([0.0, 0.9, 0.999])),
                 draw(st.sampled_from([1e-8, 1e-3])))
    table = np.array(draw(st.lists(row, min_size=v, max_size=v)))
    t = draw(st.lists(st.integers(0, 5000) | st.just(0), min_size=v, max_size=v))
    # a row that took no update has the zero moments a fresh row starts from
    taken = (np.array(t) > 0)[:, None]
    m = np.where(taken, draw(st.lists(row, min_size=v, max_size=v)), 0.0)
    sq = np.where(taken, np.abs(draw(st.lists(row, min_size=v, max_size=v))), 0.0)
    steps = draw(st.lists(st.dictionaries(st.integers(0, v - 1), row.map(np.array), max_size=v),
                          max_size=5))
    return settings_, table, t, m, sq, steps


@PROPERTY
@given(adam_runs())
def test_array_adam_is_the_per_row_adam_bit_for_bit(case):
    settings_, table, t, m, v, steps = case
    ref, adam = reference.SparseAdam(*settings_), _SparseAdam(*settings_)
    ref.t = {tok: k for tok, k in enumerate(t) if k}
    ref.m = {tok: m[tok].copy() for tok in ref.t}
    ref.v = {tok: v[tok].copy() for tok in ref.t}
    adam.t, adam.m, adam.v = np.array(t, dtype=np.int64), m.copy(), v.copy()
    ref_table, got = table.copy(), table.copy()
    for n, grads in enumerate(steps):
        ref.step(ref_table, grads)
        # the kernel's gradient and a plain {id: row} dict read alike
        adam.step(got, SparseGradient.of(grads) if n % 2 else grads)
        assert got.tobytes() == ref_table.tobytes()
    for tok in range(len(table)):
        assert adam.t[tok] == ref.t.get(tok, 0)
        if tok in ref.t:
            assert adam.m[tok].tobytes() == ref.m[tok].tobytes()
            assert adam.v[tok].tobytes() == ref.v[tok].tobytes()


def test_array_adam_bias_correction_at_every_step_count_to_5000():
    # np.power(0.999, t) rounds apart from Python's 0.999 ** t at some of these
    # counts, so each row's correction must use Python's **.
    rng = np.random.default_rng(0)
    t = np.arange(5000)
    m, v = rng.normal(size=(5000, 2)), rng.uniform(size=(5000, 2))
    m[0] = v[0] = 0.0  # row 0 takes its first update
    ref, adam = reference.SparseAdam(0.01, 0.9, 0.999, 1e-8), _SparseAdam(0.01, 0.9, 0.999, 1e-8)
    ref.t = {tok: int(k) for tok, k in enumerate(t) if k}
    ref.m, ref.v = {tok: m[tok].copy() for tok in ref.t}, {tok: v[tok].copy() for tok in ref.t}
    adam.t, adam.m, adam.v = t.copy(), m.copy(), v.copy()
    grads = dict(enumerate(rng.normal(size=(5000, 2))))
    ref_table, got = np.zeros((5000, 2)), np.zeros((5000, 2))
    ref.step(ref_table, grads)
    adam.step(got, grads)
    assert got.tobytes() == ref_table.tobytes()


@st.composite
def mining_batches(draw):
    """Mining batches over a model whose later rows negate earlier ones (so
    some sentences do not encode), item ids from a small pool (an id recurs,
    possibly with another sentence), repeated sentences (exact ties) and
    random relevant sets."""
    dim = draw(st.integers(2, 4))
    base = draw(st.lists(st.lists(finite, min_size=dim, max_size=dim), min_size=1, max_size=4))
    model = model_from_rows(base + [[-x for x in r] for r in base[:draw(st.integers(0, len(base)))]])
    sentence = st.lists(st.integers(1, model.vocab_size - 1), min_size=1, max_size=4).map(tuple)
    pool = draw(st.lists(sentence, min_size=1, max_size=4))
    pick = st.sampled_from(pool) | sentence
    qids, iids = ["q0", "q1", "q2", "q3"], ["i0", "i1", "i2", "i3", "i4"]
    batch = draw(st.lists(st.builds(MiningExample, st.sampled_from(qids), pick,
                                    st.sampled_from(iids), pick), min_size=2, max_size=8))
    relevant = draw(st.dictionaries(st.sampled_from(qids),
                                    st.frozensets(st.sampled_from(iids), max_size=3)))
    strategy = draw(st.sampled_from(["in-batch-hardest", "in-batch-random"]))
    return model, batch, relevant, strategy, draw(st.integers(0, 2**32))


@PROPERTY
@given(mining_batches())
def test_one_matrix_mining_is_the_per_example_miner(case):
    model, batch, relevant, strategy, seed = case
    assert (mine_negatives(model, batch, relevant, strategy, seed)
            == reference.mine_negatives(model, batch, relevant, strategy, seed))


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
