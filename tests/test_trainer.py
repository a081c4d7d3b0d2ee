"""Trainer: negative mining, sparse Adam, the seeded loop, and checkpoints."""

from __future__ import annotations

import numpy as np
import pytest

import matchlab.trainer
from matchlab import (
    CheckpointError,
    Corpus,
    LossValue,
    Pair,
    MiningExample,
    RegularizerConfig,
    TrainConfig,
    TrainError,
    VocabMismatchError,
    build_vocab,
    init_model,
    load_checkpoint,
    mine_negatives,
    save_checkpoint,
    synth_generate,
    train,
    write_loss_trace,
)
from matchlab.trainer import _SparseAdam

from conftest import make_vocab, model_from_rows, random_model


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.loss_kind == "contrastive"
        assert cfg.epochs == 200
        assert cfg.learning_rate == 1e-4

    def test_zero_learning_rate_allowed(self):
        TrainConfig(learning_rate=0.0)

    def test_rejections(self):
        with pytest.raises(ValueError):
            TrainConfig(loss_kind="ranknet")
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(loss_kind="contrastive", batch_size=1)
        with pytest.raises(ValueError):
            TrainConfig(negative_strategy="global")
        # mse has no mining, so batch_size 1 is fine there
        TrainConfig(loss_kind="mse", batch_size=1)

    @pytest.mark.parametrize("field", ["learning_rate", "adam_eps"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_step_sizes_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})


class TestMineNegatives:
    def test_hardest_picks_highest_similarity(self):
        # query (1,0); candidates at cos 0.8 and 0.6
        model = model_from_rows([[1.0, 0.0], [0.8, 0.6], [0.6, 0.8], [0.0, 1.0]])
        batch = [
            MiningExample("q1", (1,), "own", (4,)),
            MiningExample("q2", (4,), "m_hi", (2,)),
            MiningExample("q3", (4,), "m_lo", (3,)),
        ]
        out = mine_negatives(model, batch, relevant={})
        assert out[0] is not None and out[0][0] == "m_hi"

    def test_tie_prefers_smaller_item_id(self):
        model = model_from_rows([[1.0, 0.0], [0.6, 0.8], [0.6, -0.8], [0.0, 1.0]])
        batch = [
            MiningExample("q1", (1,), "own", (4,)),
            MiningExample("q2", (4,), "m2", (3,)),
            MiningExample("q3", (4,), "m1", (2,)),
        ]
        out = mine_negatives(model, batch, relevant={})
        assert out[0] is not None and out[0][0] == "m1"

    def test_ground_truth_is_excluded(self):
        model = model_from_rows([[1.0, 0.0], [0.8, 0.6], [0.6, 0.8], [0.0, 1.0]])
        batch = [
            MiningExample("q1", (1,), "own", (4,)),
            MiningExample("q2", (4,), "m_hi", (2,)),
            MiningExample("q3", (4,), "m_lo", (3,)),
        ]
        out = mine_negatives(model, batch, relevant={"q1": {"m_hi"}})
        assert out[0] is not None and out[0][0] == "m_lo"

    def test_no_candidate_yields_none(self):
        model = model_from_rows([[1.0, 0.0], [0.0, 1.0]])
        batch = [
            MiningExample("q1", (1,), "shared", (2,)),
            MiningExample("q2", (1,), "shared", (2,)),
        ]
        out = mine_negatives(model, batch, relevant={})
        assert out == [None, None]

    def test_unencodable_query_yields_none(self):
        model = model_from_rows([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        batch = [
            MiningExample("q1", (1, 2), "a", (3,)),  # embedding sum is zero
            MiningExample("q2", (1,), "b", (4,)),
        ]
        out = mine_negatives(model, batch, relevant={})
        assert out[0] is None
        assert out[1] is not None and out[1][0] == "a"

    def test_random_strategy_is_seeded(self):
        model = random_model(6, 4, np.random.default_rng(0))
        batch = [
            MiningExample(f"q{i}", (i + 1,), f"i{i}", (i + 1,))
            for i in range(4)
        ]
        a = mine_negatives(model, batch, {}, strategy="in-batch-random", seed=3)
        b = mine_negatives(model, batch, {}, strategy="in-batch-random", seed=3)
        assert a == b
        for i, pick in enumerate(a):
            assert pick is not None and pick[0] != f"i{i}"

    def test_small_batch_rejected(self):
        model = random_model(3, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            mine_negatives(model, [MiningExample("q", (1,), "i", (2,))], {})


class TestSparseAdam:
    def test_first_step_is_signed_lr(self):
        adam = _SparseAdam(lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
        table = np.zeros((3, 2))
        g = np.array([0.5, -0.25])
        adam.step(table, {1: g})
        # bias-corrected first step reduces to lr * g / (|g| + eps)
        np.testing.assert_allclose(table[1], [-0.01, 0.01], rtol=1e-6)
        assert np.all(table[0] == 0.0) and np.all(table[2] == 0.0)

    def test_zero_lr_never_moves(self):
        adam = _SparseAdam(lr=0.0, beta1=0.9, beta2=0.999, eps=1e-8)
        table = np.full((3, 2), 0.7)
        adam.step(table, {0: np.array([1.0, -1.0]), 2: np.array([0.3, 0.3])})
        assert np.all(table == 0.7)

    def test_bias_correction_counts_per_row(self):
        adam = _SparseAdam(lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
        table = np.zeros((3, 2))
        g = np.array([0.5, -0.25])
        adam.step(table, {1: g})
        first_delta = table[1].copy()
        adam.step(table, {1: g, 2: g})
        # row 2 sees its own first step: same arithmetic as row 1's first
        np.testing.assert_array_equal(table[2], first_delta)
        assert (adam.t[0], adam.t[1], adam.t[2]) == (0, 2, 1)


def _tiny_setup(dim=8, seed=0):
    train_c, iid_c, _ = synth_generate(4, 2, 3, 4, seed=seed)
    vocab = build_vocab(train_c)
    theta_init = init_model(vocab, dim=dim, seed=1)
    theta0 = init_model(vocab, dim=dim, seed=2).freeze()
    return train_c, vocab, theta_init, theta0


class TestTrain:
    def test_bit_identical_reruns(self):
        corpus, _, theta_init, theta0 = _tiny_setup()
        cfg = TrainConfig(epochs=3, batch_size=4, learning_rate=0.01, seed=5,
                          regularizer=RegularizerConfig(kind="itvreg"))
        a = train(corpus, theta_init, theta0, cfg)
        b = train(corpus, theta_init, theta0, cfg)
        assert np.array_equal(a.theta.table, b.theta.table)
        assert a.trace == b.trace

    def test_inputs_never_mutated(self):
        corpus, _, theta_init, theta0 = _tiny_setup()
        before_init = theta_init.checksum()
        before_base = theta0.checksum()
        cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=0.05, seed=0)
        run = train(corpus, theta_init, theta0, cfg)
        assert theta_init.checksum() == before_init
        assert theta0.checksum() == before_base
        assert run.theta.checksum() != before_init

    def test_zero_lr_is_a_no_op(self):
        corpus, _, theta_init, theta0 = _tiny_setup()
        cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=0.0, seed=0)
        run = train(corpus, theta_init, theta0, cfg)
        assert np.array_equal(run.theta.table, theta_init.table)

    def test_contrastive_loss_decreases(self):
        corpus, _, theta_init, theta0 = _tiny_setup()
        cfg = TrainConfig(epochs=25, batch_size=4, learning_rate=0.05, seed=3)
        run = train(corpus, theta_init, theta0, cfg)
        assert len(run.trace) == 25
        assert run.trace[-1][2] < run.trace[0][2]

    def test_mse_loss_decreases(self):
        corpus, _, theta_init, theta0 = _tiny_setup()
        cfg = TrainConfig(loss_kind="mse", epochs=15, batch_size=8,
                          learning_rate=0.05, seed=3)
        run = train(corpus, theta_init, theta0, cfg)
        assert run.trace[-1][2] < run.trace[0][2]

    def test_penalty_shows_up_in_trace(self):
        corpus, _, theta_init, theta0 = _tiny_setup()
        cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=0.01, seed=1,
                          regularizer=RegularizerConfig(kind="itvreg", lam=0.5))
        run = train(corpus, theta_init, theta0, cfg)
        assert any(pen > 0.0 for _, pen, _ in run.trace)

    def test_itvaug_runs_end_to_end(self):
        corpus, _, theta_init, theta0 = _tiny_setup()
        cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=0.01, seed=1,
                          regularizer=RegularizerConfig(kind="itvaug", lam=0.5))
        run = train(corpus, theta_init, theta0, cfg)
        assert any(pen > 0.0 for _, pen, _ in run.trace)

    def test_unfrozen_base_rejected(self):
        corpus, _, theta_init, theta0 = _tiny_setup()
        thawed = theta0.copy(frozen=False)
        with pytest.raises(TrainError, match="frozen"):
            train(corpus, theta_init, thawed, TrainConfig(epochs=1))

    def test_vocab_mismatch_rejected(self):
        corpus, _, theta_init, _ = _tiny_setup()
        other = random_model(3, 8, np.random.default_rng(0), frozen=True)
        with pytest.raises(VocabMismatchError):
            train(corpus, theta_init, other, TrainConfig(epochs=1))

    def test_non_finite_loss_aborts_with_location(self, monkeypatch):
        corpus, _, theta_init, theta0 = _tiny_setup()

        def explode(*args, **kwargs):
            return LossValue(float("nan"), 0.0, float("nan"), {})

        monkeypatch.setattr(matchlab.trainer, "total_loss", explode)
        with pytest.raises(TrainError, match="epoch 0, batch 0"):
            train(corpus, theta_init, theta0,
                  TrainConfig(epochs=1, batch_size=4, seed=0))

    def test_trailing_singleton_batch_dropped_in_contrastive(self):
        corpus, _, theta_init, theta0 = _tiny_setup()
        # 12 anchors, batch 5 -> chunks 5/5/2; batch 11 -> 11/1, the 1 dropped
        cfg = TrainConfig(epochs=1, batch_size=11, learning_rate=0.01, seed=0)
        run = train(corpus, theta_init, theta0, cfg)
        assert run.skipped["short_batch"] == 1

    def test_degenerate_example_skips_alone(self):
        # t1 + t2 cancels, so q1's pair has no direction; q2's pair still trains
        theta_init = model_from_rows([[1.0, 0.0], [-1.0, 0.0], [0.6, 0.8], [0.0, 1.0]])
        corpus = Corpus({"q1": ("t1", "t2"), "q2": ("t3",)}, {"i1": ("t3",), "i2": ("t4",)},
                        [Pair("q1", "i1", 0.5), Pair("q2", "i2", 0.2)])
        cfg = TrainConfig(loss_kind="mse", epochs=1, batch_size=2, learning_rate=0.01)
        run = train(corpus, theta_init, theta_init.copy(frozen=True), cfg)
        assert run.skipped["degenerate"] == 1
        moved = np.any(run.theta.table != theta_init.table, axis=1)
        assert moved.tolist() == [False, False, False, True, True]

    def test_loss_trace_csv(self, tmp_path):
        corpus, _, theta_init, theta0 = _tiny_setup()
        cfg = TrainConfig(epochs=3, batch_size=4, learning_rate=0.01, seed=0)
        run = train(corpus, theta_init, theta0, cfg)
        path = tmp_path / "trace.csv"
        write_loss_trace(run, path, header_comment="config_digest=abc")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_digest=abc"
        assert lines[1] == "epoch,erm,penalty,total"
        assert len(lines) == 2 + 3
        first = lines[2].split(",")
        assert first[0] == "0"
        assert float(first[3]) == pytest.approx(run.trace[0][2], rel=1e-9)


class TestCheckpoint:
    def test_round_trip_quantizes_once(self, tmp_path):
        model = random_model(5, 4, np.random.default_rng(0))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path, model.vocab)
        expect = model.table.astype("<f4").astype(np.float64)
        assert np.array_equal(loaded.table, expect)
        # a second save/load cycle is exact
        save_checkpoint(loaded, path)
        again = load_checkpoint(path, model.vocab)
        assert np.array_equal(again.table, loaded.table)

    def test_layout(self, tmp_path):
        model = random_model(2, 3, np.random.default_rng(1))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        assert blob.startswith(b"ITVREG1")
        assert len(blob) == 7 + 8 + 4 * 3 * 3

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOTMINE" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path, make_vocab(2))

    def test_truncated_names_byte_counts(self, tmp_path):
        model = random_model(3, 4, np.random.default_rng(2))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(CheckpointError, match=str(len(blob))):
            load_checkpoint(path, model.vocab)

    def test_vocab_size_mismatch_names_both(self, tmp_path):
        model = random_model(5, 4, np.random.default_rng(3))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(CheckpointError, match="6.*4|4.*6"):
            load_checkpoint(path, make_vocab(3))

    def test_implausible_dims(self, tmp_path):
        path = tmp_path / "m.ckpt"
        import struct as _struct
        path.write_bytes(b"ITVREG1" + _struct.pack("<ii", 0, 4))
        with pytest.raises(CheckpointError, match="implausible"):
            load_checkpoint(path, make_vocab(2))
