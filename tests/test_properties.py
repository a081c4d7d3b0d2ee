"""Property tests: the batched forward against ``encode``, the batched and
one-row backwards against the per-sentence reference in ``reference.py``,
the array Adam and the one-matrix miner against their per-row references
there, the training step read through any layout of its sentence table,
the itvaug pairs against per-sentence masks and encodes, masking bounds,
the hashed intervention stream (hash, masked rows and dropout keep masks)
against its Python-integer references with two distribution checks,
partial AUC against a brute-force threshold sweep, rankings and reports
through the catalogue memo against per-item encodes, the top-k selection
against the full stable sort, and reports through a built or a reused pair
index against the per-query evaluate."""

from __future__ import annotations

import dataclasses
import json
import logging.handlers
import math
from collections import Counter

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import matchlab.evaluation  # noqa: E402
from matchlab import (  # noqa: E402
    Batch,
    Corpus,
    EmbeddingModel,
    EncodeError,
    EvalError,
    InterventionError,
    Pair,
    REGULARIZER_KINDS,
    RegularizerConfig,
    SentenceTable,
    TableExamples,
    auc_partial,
    build_itvaug,
    encode,
    encode_backward,
    encode_batch,
    evaluate,
    intervention_seed,
    mask_fraction,
    mine_negatives,
    rank_items,
    row_dots,
    total_loss,
)
from matchlab.encoder import counter_hash, encode_batch_backward, seed_words  # noqa: E402
from matchlab.evaluation import _top_k  # noqa: E402
from matchlab.interventions import mask_rows  # noqa: E402
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
    views = []
    for i in used:
        row = uses[i]
        view = encode(model, sentences[row], rates[row], seeds[row])
        assert result.embeddings[row].tobytes() == view.embedding.tobytes()
        views.append(view)
        # one use: the per-sentence rows, keyed in the per-sentence order
        expected = [(tok, g.tobytes())
                    for tok, g in reference.encode_backward(view, upstream[i]).items()]
        keys, grads = encode_batch_backward(result, [row], upstream[i:i + 1])
        assert [(tok, g.tobytes()) for tok, g in zip(keys, grads)] == expected
        assert [(tok, g.tobytes())
                for tok, g in encode_backward(view, upstream[i]).items()] == expected
    # several uses: one flat sum per token in use order
    keys, grads = encode_batch_backward(result, np.array([uses[i] for i in used], dtype=np.intp),
                                        upstream[used])
    ref_keys, ref_grads = reference.encode_batch_backward(views, upstream[used])
    assert keys.tolist() == ref_keys
    assert grads.tobytes() == ref_grads.tobytes()


@st.composite
def batch_views_and_uses(draw):
    """A batch-sized backward: 8 to 16 views over a vocabulary of at most six
    tokens, so ids repeat within and across rows, a row with a repeated id,
    plain and dropout rows both present, and 32 to 48 uses, so some row is
    used several times."""
    dim = draw(st.integers(2, 4))
    model = model_from_rows(draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                                          min_size=2, max_size=5)))
    v = model.vocab_size
    sentences = draw(st.lists(st.lists(st.integers(0, v - 1), min_size=1, max_size=8)
                              .map(tuple), min_size=8, max_size=16))
    sentences[0] += sentences[0][:1]
    rates = [0.0, 0.3] + [draw(st.sampled_from([0.0, 0.3, 0.6])) for _ in sentences[2:]]
    seeds = [draw(st.integers(0, 2**32)) for _ in sentences]
    uses = draw(st.lists(st.integers(0, len(sentences) - 1), min_size=32, max_size=48))
    upstream = np.array(draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                                      min_size=len(uses), max_size=len(uses))))
    return model, sentences, rates, seeds, uses, upstream


@PROPERTY
@given(batch_views_and_uses())
def test_batch_scale_backward_is_the_flat_per_token_sum(case):
    model, sentences, rates, seeds, uses, upstream = case
    result = encode_batch(model, sentences, rates, seeds)
    used = [i for i, row in enumerate(uses) if result.ok[row]]
    rows = np.array([uses[i] for i in used], dtype=np.intp)
    keys, grads = encode_batch_backward(result, rows, upstream[used])
    views = [encode(model, sentences[r], rates[r], seeds[r]) for r in rows.tolist()]
    ref_keys, ref_grads = reference.encode_batch_backward(views, upstream[used])
    assert keys.tolist() == ref_keys
    assert grads.tobytes() == ref_grads.tobytes()


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
    for grads in steps:
        ref.step(ref_table, grads)
        adam.step(got, SparseGradient.of(grads))
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
    adam.step(got, SparseGradient.of(grads))
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
    batch = draw(st.lists(st.builds(reference.MiningExample, st.sampled_from(qids), pick,
                                    st.sampled_from(iids), pick), min_size=2, max_size=8))
    relevant = draw(st.dictionaries(st.sampled_from(qids),
                                    st.frozensets(st.sampled_from(iids), max_size=3)))
    strategy = draw(st.sampled_from(["in-batch-hardest", "in-batch-random"]))
    return model, batch, relevant, strategy, draw(st.integers(0, 2**32))


@st.composite
def table_batches(draw):
    """A run's sentences and a batch of rows of them under every
    regularizer: repeated ids, sentences of length 1 (too short to mask),
    sums that cancel (degenerate views), now and then a bad id, and the same
    sentence in more than one row."""
    dim = draw(st.integers(2, 4))
    base = draw(st.lists(st.lists(finite, min_size=dim, max_size=dim), min_size=1, max_size=4))
    rows = base + [[-x for x in r] for r in base[:draw(st.integers(0, len(base)))]]
    theta = model_from_rows(rows)
    theta0 = model_from_rows(draw(st.lists(st.lists(finite, min_size=dim, max_size=dim),
                                           min_size=len(rows), max_size=len(rows))),
                             frozen=True)
    v = theta.vocab_size
    sentence = st.lists(st.integers(0, v - 1), min_size=1, max_size=5).map(tuple)
    pool = draw(st.lists(sentence, min_size=2, max_size=8))
    if draw(st.integers(0, 4)) == 4:  # one sentence holds an id past the vocabulary
        pool[draw(st.integers(0, len(pool) - 1))] += (v,)
    pool += draw(st.lists(st.sampled_from(pool), max_size=2))  # one sentence, two rows
    row = st.integers(0, len(pool) - 1)
    n = draw(st.integers(1, 6))
    contrastive = draw(st.booleans())
    ex_rows = np.array(draw(st.lists(st.lists(row, min_size=3 if contrastive else 2,
                                              max_size=3 if contrastive else 2),
                                     min_size=n, max_size=n)), dtype=np.intp)
    targets = None if contrastive else np.array(
        draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    m = draw(st.integers(0, 4))
    aug_rows = np.array(draw(st.lists(st.lists(row, min_size=2, max_size=2),
                                      min_size=m, max_size=m)), dtype=np.intp).reshape(m, 2)
    aug_targets = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)))
    config = RegularizerConfig(kind=draw(st.sampled_from(REGULARIZER_KINDS)),
                               lam=draw(st.floats(0.0, 2.0)),
                               mask_fraction=draw(st.none() | st.floats(0.05, 0.95)),
                               dropout_rate=draw(st.sampled_from([0.0, 0.2, 0.5])))
    return (theta, theta0, pool, ex_rows, targets, aug_rows, aug_targets, config,
            draw(st.integers(0, 2**64 - 1)))


def outcome_of(fn, *args):
    """A loss's numbers, gradient bytes and counts, or the error it raises."""
    try:
        lv = fn(*args)
    except (EncodeError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return (lv.erm, lv.penalty, lv.total, lv.gradient.ids.tolist(), lv.gradient.rows.tobytes(),
            lv.n_penalty_terms, lv.n_skipped_penalty, lv.n_skipped_examples)


@PROPERTY
@given(table_batches(), st.data())
def test_the_step_reads_rows_not_their_layout(case, data):
    # The same batch over the run's sentences laid out three other ways:
    # each sentence in two rows (the batch alternates between them), the
    # rows permuted, and extra rows no example reads (wider ones, empty ones
    # and bad ids among them).
    theta, theta0, pool, ex_rows, targets, aug_rows, aug_targets, config, seed = case
    n = len(pool)

    def outcome_over(sentences, to_row):
        table = SentenceTable.of(sentences)
        batch = Batch(TableExamples(table, to_row(ex_rows), targets), seed,
                      TableExamples(table, to_row(aug_rows), aug_targets))
        return outcome_of(total_loss, theta, theta0, batch, config)

    def alternate(r):  # entry k of the row array reads copy k % 2
        return r + n * (np.arange(r.size) % 2).reshape(r.shape)

    want = outcome_over(pool, lambda r: r)
    assert outcome_over(pool + pool, alternate) == want
    perm = np.array(data.draw(st.permutations(range(n))), dtype=np.intp)
    assert outcome_over([pool[i] for i in perm], lambda r: perm.argsort().take(r)) == want
    extra = data.draw(st.lists(st.lists(st.integers(-1, theta.vocab_size), max_size=7)
                               .map(tuple), min_size=1, max_size=3))
    assert outcome_over(pool + extra, lambda r: r) == want


@PROPERTY
@given(st.lists(st.lists(st.integers(0, 9), min_size=2, max_size=12).map(tuple),
                min_size=1, max_size=10),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.integers(0, 2**70), st.data())
def test_masked_rows_are_the_sorted_masks(sentences, fraction, batch_seed, data):
    table = SentenceTable.of(sentences + [(5,)])  # a short row widens nothing
    rows = np.array(data.draw(st.lists(st.integers(0, len(sentences) - 1), max_size=12)),
                    dtype=np.intp)
    seeds = [intervention_seed(batch_seed, i) for i in range(len(rows))]
    masked = mask_rows(table, rows, fraction, np.array(seeds, dtype=np.uint64))
    want = [reference.mask_fraction(sentences[r], fraction, seed) for r, seed in zip(rows, seeds)]
    for i, w in enumerate(want):
        assert masked.ids[i, :masked.lengths[i]].tolist() == sorted(w)
        assert masked[i] == w  # in sentence order, from the positions kept
        assert sorted(masked.positions[i].tolist()) == list(range(masked.ids.shape[1]))


@st.composite
def itvaug_corpora(draw):
    """A frozen base model whose later rows may negate earlier ones (so some
    queries cancel to a degenerate sum), queries of one to five tokens,
    unknown tokens included, and the fractions and seed of one call."""
    dim = draw(st.integers(2, 4))
    base = draw(st.lists(st.lists(finite, min_size=dim, max_size=dim), min_size=1, max_size=4))
    negated = [[-x for x in r] for r in base[:draw(st.integers(0, len(base)))]]
    theta0 = model_from_rows(base + negated, frozen=True)
    token = st.sampled_from(theta0.vocab.id_to_token[1:] + ["unknown"])
    queries = draw(st.lists(st.lists(token, min_size=1, max_size=5).map(tuple), max_size=8))
    corpus = Corpus({f"q{i}": q for i, q in enumerate(queries)}, {"i": ("t1",)}, [])
    return (theta0, corpus, draw(st.floats(0.0, 1.0)), draw(st.floats(0.05, 0.95)),
            draw(st.integers(0, 2**63 - 1)))


@PROPERTY
@given(itvaug_corpora())
def test_itvaug_pairs_are_the_per_sentence_pairs(case):
    theta0, corpus, fraction, mask_frac, seed = case
    # The draws build_itvaug makes: the permutation, then one seed per
    # selected query, short ones included.
    qids = sorted(corpus.queries)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(qids))
    selected = [theta0.vocab.encode(corpus.queries[qids[i]])
                for i in order[:math.floor(fraction * len(qids))]]
    mask_seeds = [int(rng.integers(np.iinfo(np.int64).max)) for _ in selected]
    want = []
    for x, mask_seed in zip(selected, mask_seeds):
        if len(x) < 2:
            continue
        x_prime = reference.mask_fraction(x, mask_frac, mask_seed)
        try:
            want.append((x, x_prime, float(encode(theta0, x).embedding
                                           @ encode(theta0, x_prime).embedding)))
        except EncodeError:
            pass
    log = logging.handlers.BufferingHandler(capacity=10)
    logger = logging.getLogger("matchlab.objectives")
    logger.addHandler(log)
    try:
        pairs = build_itvaug(corpus, theta0, fraction, mask_frac, seed)
    finally:
        logger.removeHandler(log)
    assert [(ap.x, ap.x_prime, ap.target) for ap in pairs] == want
    skipped = len(selected) - len(want)
    assert [r.args for r in log.buffer] == ([(skipped, len(selected))] if skipped else [])


@PROPERTY
@given(mining_batches())
def test_mining_through_the_relevance_matrix_is_the_per_example_miner(case):
    model, batch, relevant, strategy, seed = case
    qids, iids = ["q0", "q1", "q2", "q3"], ["i0", "i1", "i2", "i3", "i4"]
    matrix = np.array([[iid in relevant.get(qid, ()) for iid in iids] for qid in qids])
    # The run's table holds other sentences too; the batch reads its rows.
    table = SentenceTable.of([(1,)] + [ex.x for ex in batch] + [ex.z_pos for ex in batch])
    n = len(batch)
    neg = mine_negatives(model, table, 1 + np.arange(n), 1 + n + np.arange(n),
                         np.array([qids.index(ex.query_id) for ex in batch]),
                         np.array([iids.index(ex.item_id) for ex in batch]), matrix,
                         strategy, seed)
    got = [(batch[j].item_id, table[1 + n + j]) if j >= 0 else None for j in neg.tolist()]
    assert got == reference.mine_negatives(model, batch, relevant, strategy, seed)


@PROPERTY
@given(st.lists(st.integers(0, 9), min_size=2, max_size=30).map(tuple),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.integers(0, 2**63 - 1))
def test_mask_fraction_keeps_an_ordered_proper_subsequence(sentence, fraction, seed):
    kept = mask_fraction(sentence, fraction, seed)
    assert 1 <= len(kept) <= len(sentence) - 1
    remaining = iter(sentence)
    assert all(tok in remaining for tok in kept)


def test_counter_hash_is_splitmix64():
    # The first outputs of a splitmix64 generator seeded with 0 and with
    # 1234567, as the reference implementation prints them.
    assert counter_hash(np.uint64(0), np.arange(4)).tolist() == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC]
    assert counter_hash(np.uint64(1234567), np.arange(3)).tolist() == [
        6457827717110365317, 3203168211198807973, 9817491932198370423]


words = st.integers(0, 2**64 - 1)


@PROPERTY
@given(words, st.lists(words, max_size=3))
def test_counter_hash_is_the_python_integer_hash(seed, coords):
    got = counter_hash(seed_words([seed]), *[np.uint64(c) for c in coords])
    assert got.dtype == np.uint64 and got.shape == (1,)
    assert int(got[0]) == reference.splitmix64(seed, *coords)


@PROPERTY
@given(st.lists(st.lists(st.integers(0, 9), max_size=20).map(tuple), max_size=10),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.integers(0, 2**70))
def test_batched_masks_are_the_per_sentence_masks(sentences, fraction, batch_seed):
    seeds = [intervention_seed(batch_seed, i) for i in range(len(sentences))]
    long = [i for i, x in enumerate(sentences) if len(x) >= 2]
    masked = mask_rows(SentenceTable.of(sentences), np.array(long, dtype=np.intp), fraction,
                       [seeds[i] for i in long])
    for i, (x, seed) in enumerate(zip(sentences, seeds)):
        if len(x) < 2:
            with pytest.raises(InterventionError):
                mask_fraction(x, fraction, seed)
        else:
            assert masked[long.index(i)] == mask_fraction(x, fraction, seed) \
                == reference.mask_fraction(x, fraction, seed)


@PROPERTY
@given(views_and_uses(), st.lists(st.floats(0.0, 1.0, exclude_max=True) | st.just(0.0),
                                  min_size=6, max_size=6),
       st.lists(st.integers(0, 2**70), min_size=6, max_size=6))
def test_dropout_rows_are_encode_with_the_reference_keep_mask(case, rates, seeds):
    model, sentences, *_ = case
    rates, seeds = rates[:len(sentences)], seeds[:len(sentences)]
    result = encode_batch(model, sentences, rates, seeds)
    for i, (sentence, rate, seed) in enumerate(zip(sentences, rates, seeds)):
        try:
            view = encode(model, sentence, rate, seed)
        except EncodeError:
            assert not result.ok[i]
            continue
        assert result.embeddings[i].tobytes() == view.embedding.tobytes()
        if rate:
            keep = reference.dropout_keep(seed, len(sentence), model.dim, rate)
            assert np.array_equal(view.keep, keep)
            assert np.array_equal(result.keep[i, :len(sentence)], keep)
        else:
            assert view.keep is None
            assert result.keep is None or result.keep[i].all()


def test_every_position_is_masked_at_rate_k_over_n():
    # 100,000 masks of one 8-token sentence, seeded as total_loss seeds a
    # batch: intervention_seed(11, i) for i in order
    n_draws, sentence = 100_000, tuple(range(8))
    seeds = counter_hash(np.uint64(11), np.arange(n_draws), 0)
    assert [int(seeds[i]) for i in (0, 99_999)] == [intervention_seed(11, 0),
                                                    intervention_seed(11, 99_999)]
    for fraction, k in ((0.5, 4), (0.15, 1), (0.9, 7)):
        masks = mask_rows(SentenceTable.of([sentence]), np.zeros(n_draws, dtype=np.intp),
                          fraction, seeds)
        assert Counter(masks.lengths.tolist()) == {8 - k: n_draws}
        kept = Counter(masks.ids[:, :8 - k].ravel().tolist())
        dropped = np.array([n_draws - kept[j] for j in sentence])
        p = k / 8
        sigma = (n_draws * p * (1 - p)) ** 0.5
        assert np.abs(dropped - n_draws * p).max() < 5 * sigma, (fraction, dropped)


@pytest.mark.parametrize("rate", [0.1, 0.5])
def test_dropout_keeps_one_minus_rate(rate):
    # 400 views x 8 positions x 32 coordinates = 102,400 draws
    model = model_from_rows(np.ones((8, 32)))
    sentences = [tuple(range(1, 9))] * 400
    seeds = [intervention_seed(3, i) for i in range(400)]
    keep = encode_batch(model, sentences, [rate] * 400, seeds).keep
    n = keep.size
    sigma = (n * rate * (1 - rate)) ** 0.5
    assert abs(int(keep.sum()) - n * (1 - rate)) < 5 * sigma
    # per coordinate (3,200 draws each) and per position (12,800 each)
    for counts, m in ((keep.sum(axis=(0, 1)), 400 * 8), (keep.sum(axis=(0, 2)), 400 * 32)):
        s = (m * rate * (1 - rate)) ** 0.5
        assert np.abs(counts - m * (1 - rate)).max() < 5 * s


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


@st.composite
def score_matrices(draw):
    """A score matrix of 1-5 rows and 1-12 columns whose entries often tie
    exactly, ±0.0 and NaN included, with up to two rows all NaN, and a k
    from 1 to the column count, often 1 or all of it."""
    n_rows, n_cols = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    value = st.sampled_from([0.0, -0.0, 0.5, -0.5, float("nan")]) | finite
    scores = np.array(draw(st.lists(st.lists(value, min_size=n_cols, max_size=n_cols),
                                    min_size=n_rows, max_size=n_rows)))
    scores[draw(st.lists(st.integers(0, n_rows - 1), max_size=2))] = np.nan
    return scores, draw(st.sampled_from([1, n_cols]) | st.integers(1, n_cols))


@PROPERTY
@given(score_matrices())
def test_top_k_is_the_stable_full_sort(case):
    scores, k = case
    want = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    assert _top_k(scores, k).tolist() == want.tolist()
    for row, row_want in zip(scores, want):  # the one-row call rank_items makes
        assert _top_k(row, k).tolist() == row_want.tolist()


@st.composite
def eval_cases(draw):
    """A model whose later rows may negate earlier ones, items drawn from a
    few token bags (so scores tie exactly, and a bag that cancels to a
    degenerate sum leaves its items unencodable), up to 16 queries with up to
    one pair more than there are items, repeats included, relevances from a
    per-case pool (graded ones, or labels that are all 1 or all 0), ks past
    the item count and n_bins from 1 to one past it."""
    dim = draw(st.integers(2, 3))
    grid = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
    base = draw(st.lists(st.lists(grid, min_size=dim, max_size=dim).filter(any),
                         min_size=2, max_size=4))
    n_negated = draw(st.integers(0, len(base)))
    model = model_from_rows(base + [[-x for x in row] for row in base[:n_negated]])
    tokens = model.vocab.id_to_token[1:]
    bags = draw(st.lists(st.lists(st.sampled_from(tokens), min_size=1, max_size=3).map(tuple),
                         min_size=1, max_size=4))
    bags += [(tokens[0], tokens[len(base)])] if n_negated else []  # cancels to zero
    n_items = draw(st.integers(1, 8))
    items = {f"i{j}": draw(st.sampled_from(bags)) for j in range(n_items)}
    query = st.lists(st.sampled_from(tokens[:len(base)]), min_size=1, max_size=2).map(tuple)
    queries = {f"q{j:02d}": draw(query) for j in range(draw(st.integers(1, 16)))}
    pool = draw(st.sampled_from([(0.0, 1.0), (1.0,), (0.0,), (0.0, 0.25, 1.0), (0.0, 0.5, 1.0)]))
    labels = st.tuples(st.sampled_from(sorted(items)), st.sampled_from(pool))
    pairs = [Pair(qid, *label) for qid in queries
             for label in draw(st.lists(labels, max_size=n_items + 1))]
    ks = draw(st.lists(st.integers(1, n_items + 2), min_size=1, max_size=3))
    return model, Corpus(queries, items, pairs), ks, draw(st.integers(1, n_items + 1))


@PROPERTY
@given(eval_cases())
def test_array_evaluate_is_the_per_query_evaluate(case):
    model, corpus, ks, n_bins = case
    # The oracle counts a repeated k again; evaluate reports it once.
    assert outcome(evaluate, model, corpus, ks, n_bins) == \
        outcome(reference.evaluate, model, corpus, list(dict.fromkeys(ks)), n_bins)


CORPUS_FIELDS = ("queries", "items", "pairs", "query_categories", "item_categories")


@PROPERTY
@given(eval_cases())
def test_pair_index_built_or_reused_gives_the_per_query_evaluate(case):
    model, corpus, ks, n_bins = case
    ks = list(dict.fromkeys(ks))

    def twin() -> Corpus:
        return Corpus(dict(corpus.queries), dict(corpus.items), list(corpus.pairs))

    unevaluated = twin()
    want = outcome(reference.evaluate, model, twin(), ks, n_bins)
    # the first call builds the index, the second reuses it, and an equal
    # fresh corpus builds its own
    for target in (corpus, corpus, twin()):
        assert outcome(evaluate, model, target, ks, n_bins) == want
    # the counts keep the items' order, here also against the id order
    backwards = Corpus(corpus.queries, dict(reversed(corpus.items.items())), corpus.pairs)
    for target in (corpus, backwards):
        walk = dict.fromkeys(target.items, 0)
        for p in target.pairs:
            walk[p.item_id] += 1
        assert list(target.item_pair_counts().items()) == list(walk.items())
    assert tuple(f.name for f in dataclasses.fields(Corpus)) == CORPUS_FIELDS
    assert corpus == unevaluated and repr(corpus) == repr(unevaluated)
