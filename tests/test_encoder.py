"""Encoder: bag-of-words embedding, normalization, dropout views, exact
gradients checked against central finite differences, and the one failure
rule every path that encodes a sentence raises through."""

from __future__ import annotations

import numpy as np
import pytest

from matchlab import (
    Corpus,
    DegenerateNormError,
    EmbeddingModel,
    EncodeError,
    EvalError,
    InterventionError,
    Pair,
    RegularizerConfig,
    VocabMismatchError,
    encode,
    encode_backward,
    encode_batch,
    evaluate,
    importance_scores,
    init_model,
    intervention_seed,
    mask_fraction,
    rank_items,
    relevance,
    row_dots,
    total_loss,
)

from matchlab.encoder import encode_batch_backward, sum_rows

from conftest import (fd_gradient, grad_rel_error, make_vocab, model_from_rows, random_model,
                      table_batch)

INV_SQRT2 = 0.7071067811865475  # 1/sqrt(2)


class TestModel:
    def test_init_shape_and_range(self):
        vocab = make_vocab(5)
        model = init_model(vocab, dim=8, seed=0)
        assert model.table.shape == (6, 8)
        bound = 0.5 / 8
        assert np.all(np.abs(model.table) <= bound)

    def test_row_count_must_match_vocab(self):
        vocab = make_vocab(5)
        with pytest.raises(VocabMismatchError):
            EmbeddingModel(np.zeros((4, 3)), vocab)

    def test_non_finite_rejected(self):
        vocab = make_vocab(2)
        table = np.zeros((3, 4))
        table[1, 0] = np.nan
        with pytest.raises(ValueError):
            EmbeddingModel(table, vocab)

    def test_frozen_table_is_read_only(self):
        model = random_model(3, 4, np.random.default_rng(0), frozen=True)
        with pytest.raises(ValueError):
            model.table[0, 0] = 1.0

    def test_checksum_tracks_content(self):
        a = random_model(3, 4, np.random.default_rng(0))
        b = a.copy()
        assert a.checksum() == b.checksum()
        b.table[1, 0] += 1.0
        assert a.checksum() != b.checksum()


class TestEncode:
    def test_unit_norm(self):
        model = random_model(6, 5, np.random.default_rng(1))
        rng = np.random.default_rng(0)
        for _ in range(30):
            ids = tuple(int(i) for i in rng.integers(1, 7, size=rng.integers(1, 6)))
            emb = encode(model, ids).embedding
            assert np.linalg.norm(emb) == pytest.approx(1.0, abs=1e-12)

    def test_hand_value_single_token(self):
        model = model_from_rows([[3.0, 4.0]])
        emb = encode(model, (1,)).embedding
        np.testing.assert_allclose(emb, [0.6, 0.8], atol=1e-15)

    def test_hand_value_two_tokens(self):
        model = model_from_rows([[1.0, 0.0], [0.0, 1.0]])
        emb = encode(model, (1, 2)).embedding
        np.testing.assert_allclose(emb, [INV_SQRT2, INV_SQRT2], atol=1e-15)

    def test_multiplicity_counts(self):
        model = model_from_rows([[1.0, 0.0], [0.0, 1.0]])
        emb = encode(model, (1, 1, 2)).embedding
        expect = np.array([2.0, 1.0]) / np.sqrt(5.0)
        np.testing.assert_allclose(emb, expect, atol=1e-15)

    def test_permutation_invariance_is_bit_exact(self):
        model = random_model(12, 16, np.random.default_rng(3))
        rng = np.random.default_rng(5)
        for _ in range(50):
            ids = [int(i) for i in rng.integers(1, 13, size=rng.integers(2, 9))]
            base = encode(model, tuple(ids)).embedding
            rng.shuffle(ids)
            again = encode(model, tuple(ids)).embedding
            assert np.array_equal(base, again)

    def test_empty_sentence_rejected(self):
        model = random_model(3, 4, np.random.default_rng(0))
        with pytest.raises(EncodeError):
            encode(model, ())

    def test_out_of_range_id_rejected(self):
        model = random_model(3, 4, np.random.default_rng(0))
        with pytest.raises(EncodeError):
            encode(model, (1, 9))

    def test_degenerate_norm_raises(self):
        model = model_from_rows([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(DegenerateNormError):
            encode(model, (1, 2))

    def test_relevance_range_and_symmetry(self):
        model = random_model(8, 6, np.random.default_rng(7))
        rng = np.random.default_rng(1)
        for _ in range(30):
            a = tuple(int(i) for i in rng.integers(1, 9, size=3))
            b = tuple(int(i) for i in rng.integers(1, 9, size=3))
            r = relevance(model, a, b)
            assert -1.0 - 1e-12 <= r <= 1.0 + 1e-12
            assert relevance(model, b, a) == pytest.approx(r, abs=1e-15)
            assert relevance(model, a, a) == pytest.approx(1.0, abs=1e-12)


class TestEncodeBatch:
    def test_failing_rows_are_flagged_and_zero(self):
        model = model_from_rows([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        v = model.vocab_size
        # empty, negative id, the vocabulary size itself, past it, cancelling
        sentences = [(), (3, -1), (3, v), (v + 1,), (1, 2), (3, 1)]
        res = encode_batch(model, sentences)
        emb, ok = res.embeddings, res.ok
        assert ok.tolist() == [False, False, False, False, False, True]
        assert not emb[:5].any()

    def test_no_sentences(self):
        res = encode_batch(random_model(3, 4, np.random.default_rng(0)), [])
        emb, ok = res.embeddings, res.ok
        assert emb.shape == (0, 4) and ok.shape == (0,)

    def test_duplicate_rows_tie_exactly(self):
        model = random_model(40, 32, np.random.default_rng(5))
        rng = np.random.default_rng(6)
        sentences = [tuple(int(i) for i in rng.integers(1, 41, size=6)) for _ in range(200)]
        emb = encode_batch(model, sentences + sentences[::-1]).embeddings
        for q in emb[:5]:
            scores = row_dots(emb, q)
            assert np.array_equal(scores[:200], scores[200:][::-1])
            assert scores.tobytes() == np.array([float(r @ q) for r in emb]).tobytes()

    def test_seeds_default_to_zero(self):
        model = random_model(6, 4, np.random.default_rng(7))
        sentences, rates = [(1, 2, 3), (4, 5), (6,)], [0.2, 0.0, 0.5]
        emb = encode_batch(model, sentences, rates).embeddings
        for row, sentence, rate in zip(emb, sentences, rates):
            assert row.tobytes() == encode(model, sentence, rate).embedding.tobytes()

    @pytest.mark.parametrize("rates, seeds, message", [
        ([0.2], None, "rates has length 1, sentences 2"),
        ([0.2, 0.0, 0.1], None, "rates has length 3, sentences 2"),
        ([0.2, 0.1], [3], "seeds has length 1, sentences 2"),
        (None, [3, 4, 5], "seeds has length 3, sentences 2"),
    ], ids=["rates-short", "rates-long", "seeds-short", "seeds-long"])
    def test_argument_lengths_must_match_the_sentences(self, rates, seeds, message):
        model = random_model(6, 4, np.random.default_rng(8))
        with pytest.raises(ValueError, match=message):
            encode_batch(model, [(1, 2), (3,)], rates, seeds)


class TestEncodeBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            model = random_model(7, 5, np.random.default_rng(trial))
            length = int(rng.integers(1, 6))
            ids = tuple(int(i) for i in rng.integers(1, 8, size=length))
            g = rng.normal(size=5)

            grads = encode_backward(encode(model, ids), g)
            fd = fd_gradient(lambda: float(g @ encode(model, ids).embedding),
                             model, set(ids))
            assert grad_rel_error(grads, fd, model.dim) < 1e-5

    def test_gradient_orthogonal_to_embedding(self):
        # projection Jacobian kills the radial direction
        model = random_model(5, 4, np.random.default_rng(2))
        ids = (1, 2, 3)
        res = encode(model, ids)
        grads = encode_backward(res, res.embedding.copy())
        for g in grads.values():
            assert np.linalg.norm(g) < 1e-12

    def test_repeated_token_accumulates(self):
        model = random_model(4, 3, np.random.default_rng(5))
        g = np.array([0.3, -0.2, 0.5])
        grads = encode_backward(encode(model, (1, 1, 2)), g)
        assert set(grads) == {1, 2}
        fd = fd_gradient(lambda: float(g @ encode(model, (1, 1, 2)).embedding),
                         model, {1, 2})
        assert grad_rel_error(grads, fd, model.dim) < 1e-5

    def test_all_negative_zero_contributions_sum_to_negative_zero(self):
        # positive rows under a -0.0 upstream: every contribution is -0.0, and
        # token 1 takes three of them (count 2 twice, count 1 once)
        model = model_from_rows([[0.5, 0.25, 1.0], [0.75, 0.5, 0.125]])
        res = encode_batch(model, [(1, 1, 2), (2, 1)])
        keys, grads = encode_batch_backward(res, [0, 1, 0], np.full((3, 3), -0.0))
        assert keys.tolist() == [1, 2]
        assert not grads.any() and np.signbit(grads).all()

    def test_sum_rows_adds_onto_negative_zero(self):
        keys, rows = sum_rows(np.array([4, 2, 4]),
                              np.array([[-0.0, 1.0], [3.0, -0.0], [-0.0, -1.0]]))
        assert keys.tolist() == [4, 2]
        assert rows.tolist() == [[0.0, 0.0], [3.0, 0.0]]
        assert np.signbit(rows).tolist() == [[True, False], [False, True]]

    def test_no_uses(self):
        model = random_model(4, 3, np.random.default_rng(5))
        res = encode_batch(model, [(1, 2), (3,)])
        keys, grads = encode_batch_backward(res, np.zeros(0, dtype=np.intp), np.zeros((0, 3)))
        assert keys.shape == (0,) and grads.shape == (0, 3)
        keys, grads = sum_rows(np.zeros(0, dtype=np.intp), np.zeros((0, 3)))
        assert keys.shape == (0,) and grads.shape == (0, 3)


class TestDropout:
    def test_rate_zero_equals_plain_encode(self):
        model = random_model(6, 5, np.random.default_rng(0))
        ids = (1, 2, 3)
        a = encode(model, ids).embedding
        b = encode(model, ids, rate=0.0, seed=4).embedding
        assert np.array_equal(a, b)

    def test_seed_reproducible_and_views_differ(self):
        model = random_model(6, 8, np.random.default_rng(1))
        ids = (1, 2, 3, 4)
        a = encode(model, ids, rate=0.4, seed=10).embedding
        b = encode(model, ids, rate=0.4, seed=10).embedding
        c = encode(model, ids, rate=0.4, seed=11).embedding
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_unit_norm(self):
        model = random_model(6, 8, np.random.default_rng(1))
        for seed in range(20):
            emb = encode(model, (1, 2, 3), rate=0.3, seed=seed).embedding
            assert np.linalg.norm(emb) == pytest.approx(1.0, abs=1e-12)

    def test_inverted_scaling_recovers_mean(self):
        # prenorm sum averaged over many masks approaches the clean sum
        model = random_model(5, 6, np.random.default_rng(3))
        ids = (1, 2, 3)
        clean = encode(model, ids).prenorm_sum
        acc = np.zeros(6)
        n = 4000
        for seed in range(n):
            acc += encode(model, ids, rate=0.5, seed=seed).prenorm_sum
        np.testing.assert_allclose(acc / n, clean, atol=0.05)

    def test_rate_one_rejected(self):
        model = random_model(4, 3, np.random.default_rng(0))
        with pytest.raises(EncodeError):
            encode(model, (1, 2), rate=1.0, seed=0)

    def test_dropout_backward_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        for trial in range(8):
            model = random_model(6, 5, np.random.default_rng(100 + trial))
            ids = tuple(int(i) for i in rng.integers(1, 7, size=4))
            seed = int(rng.integers(0, 1000))
            g = rng.normal(size=5)

            grads = encode_backward(encode(model, ids, 0.3, seed), g)
            fd = fd_gradient(
                lambda: float(g @ encode(model, ids, rate=0.3,
                                         seed=seed).embedding),
                model, set(ids))
            assert grad_rel_error(grads, fd, model.dim) < 1e-5


class TestSeedDomain:
    """Every seed of the hashed stream is a non-negative integer; one of
    2**64 or more is folded to its low 64 bits."""

    def test_negative_seeds_raise(self):
        model = random_model(4, 3, np.random.default_rng(0))
        calls = [lambda: mask_fraction((1, 2, 3), 0.5, -1),
                 lambda: encode(model, (1, 2), rate=0.3, seed=-1),
                 lambda: encode_batch(model, [(1, 2), (2, 3)], [0.0, 0.3], [0, -1]),
                 lambda: intervention_seed(-1, 0),
                 lambda: intervention_seed(0, -1),
                 lambda: intervention_seed(0, 0, -1)]
        for call in calls:
            with pytest.raises(ValueError, match="non-negative"):
                call()

    def test_seed_is_ignored_without_dropout(self):
        model = random_model(4, 3, np.random.default_rng(0))
        plain = encode(model, (1, 2)).embedding
        assert encode(model, (1, 2), rate=0.0, seed=-1).embedding.tobytes() == plain.tobytes()
        assert encode_batch(model, [(1, 2)], [0.0], [-1]).embeddings[0].tobytes() \
            == plain.tobytes()

    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, 2**64 - 1])
    def test_seeds_fold_modulo_two_to_the_64(self, seed):
        model = random_model(6, 8, np.random.default_rng(1))
        sentence = tuple(range(1, 7))
        for big in (seed + 2**64, seed + 5 * 2**64):
            assert mask_fraction(sentence, 0.5, big) == mask_fraction(sentence, 0.5, seed)
            assert encode(model, sentence, 0.4, big).embedding.tobytes() \
                == encode(model, sentence, 0.4, seed).embedding.tobytes()
            assert encode_batch(model, [sentence], [0.4], [big]).keep.tobytes() \
                == encode_batch(model, [sentence], [0.4], [seed]).keep.tobytes()
            assert intervention_seed(big, big, big) == intervention_seed(seed, seed, seed)
        assert 0 <= intervention_seed(seed, 1) < 2**64

    def test_non_integer_seed_rejected(self):
        with pytest.raises(TypeError):
            mask_fraction((1, 2, 3), 0.5, 1.5)


# Rows t1..t4: t1 + t2 cancels exactly, t1 + t4 leaves a norm of 2.5e-10.
FAILING_ROWS = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [-1.0, 2.5e-10]]
DEGENERATE = "pre-normalization sum has norm {} <= 1e-09 for sentence {}"
# (sentence, error type, message): what the per-sentence encode raised
FAILURES = [
    ((), EncodeError, "cannot encode an empty sentence"),
    ((5,), EncodeError, "token id out of range for vocab of size 5: (5,)"),
    ((-1,), EncodeError, "token id out of range for vocab of size 5: (-1,)"),
    ([3, 9], EncodeError, "token id out of range for vocab of size 5: [3, 9]"),
    ((1, 2), DegenerateNormError, DEGENERATE.format("0.000e+00", "(1, 2)")),
    ([1, 4], DegenerateNormError, DEGENERATE.format("2.500e-10", "(1, 4)")),
]


def raised(call, *args) -> tuple[type, str]:
    with pytest.raises(Exception) as exc:
        call(*args)
    return type(exc.value), str(exc.value)


class TestOneFailureRule:
    """Every public path that fails a sentence raises encode's error type and
    message, or the error it wraps around them."""

    @pytest.mark.parametrize("sentence, error, message", FAILURES)
    def test_encode_and_rank_items(self, sentence, error, message):
        model = model_from_rows(FAILING_ROWS)
        assert raised(encode, model, sentence) == (error, message)
        assert raised(rank_items, model, sentence, {"a": (3,)}, 1) == (error, message)

    @pytest.mark.parametrize("sentence, error, message", FAILURES)
    def test_importance_scores(self, sentence, error, message):
        model = model_from_rows(FAILING_ROWS)
        if len(sentence) < 2:
            error = InterventionError
            message = f"importance needs at least 2 tokens, got {len(sentence)}"
        assert raised(importance_scores, model, sentence) == (error, message)

    @pytest.mark.parametrize("kind", ["none", "itvreg"])
    @pytest.mark.parametrize("sentence, error, message", FAILURES)
    def test_total_loss(self, sentence, error, message, kind):
        # A view's sentence is a tuple; a degenerate example is skipped, and a
        # batch left with none raises.
        model = model_from_rows(FAILING_ROWS)
        batch = table_batch([(sentence, (3,), (1,))])
        if error is DegenerateNormError:
            message = "every example of the batch has a degenerate view"
        message = message.replace("[3, 9]", "(3, 9)")
        assert raised(total_loss, model, model.copy(frozen=True), batch,
                      RegularizerConfig(kind=kind)) == (error, message)

    @pytest.mark.parametrize("queries, failing, norm, sentence", [
        ({"q1": ("t1", "t4"), "q2": ("t1", "t2")}, "q1", "2.500e-10", "(1, 4)"),
        ({"q1": ("t3", "t1", "t2"), "q2": ("t1", "t2")}, "q2", "0.000e+00", "(1, 2)"),
    ])
    def test_evaluate_names_the_first_failing_query(self, queries, failing, norm, sentence):
        model = model_from_rows(FAILING_ROWS)
        corpus = Corpus({"q0": ("t3",), **queries}, {"a": ("t3",), "b": ("t1",)},
                        [Pair("q0", "a", 1.0)])
        with pytest.raises(EvalError) as exc:
            evaluate(model, corpus)
        assert str(exc.value) == (f"query {failing!r} failed to encode: "
                                  + DEGENERATE.format(norm, sentence))
        assert type(exc.value.__cause__) is DegenerateNormError
