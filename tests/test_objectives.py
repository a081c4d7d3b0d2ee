"""Objectives: fitting losses, the penalty family, seeded augmentation, and
the composed batch loss. Gradients are all checked against central finite
differences; fixed-geometry fixtures pin the arithmetic."""

from __future__ import annotations

import math

import numpy as np
import pytest

import matchlab.encoder
import matchlab.objectives
from matchlab import (
    AugmentedPair,
    Corpus,
    DegenerateNormError,
    EncodeError,
    RegularizerConfig,
    build_itvaug,
    contrastive_loss,
    intervention_seed,
    itvreg_penalty,
    mask_fraction,
    maskreg_penalty,
    mse_loss,
    outreg_penalty,
    simcse_penalty,
    total_loss,
)

from conftest import (fd_gradient, grad_rel_error, model_from_rows, random_model,
                      random_sentence, table_batch)

S32 = math.sqrt(3.0) / 2.0


def _anchor_pair():
    """theta0 spreads three tokens at 120 degrees; theta collapses t3 onto t1.

    All theta0 pair sims are -1/2. Under theta, t1.t2 = t2.t3 = -1/2 still,
    but t1.t3 = 1, and f_theta(t3) moved from (0,-1) to (s,1/2): a diff of
    squared norm 3.
    """
    theta0 = model_from_rows([[S32, 0.5], [-S32, 0.5], [0.0, -1.0]], frozen=True)
    theta = model_from_rows([[S32, 0.5], [-S32, 0.5], [S32, 0.5]])
    return theta, theta0


class TestContrastiveLoss:
    def test_inactive_hinge_is_zero_with_empty_gradient(self):
        model = model_from_rows([[1.0, 0.0], [0.0, 1.0]])
        lv = contrastive_loss(model, (1,), (1,), (2,))
        assert lv.total == 0.0
        assert lv.gradient == {}

    def test_maximally_violated_pair_scores_two(self):
        model = model_from_rows([[1.0, 0.0], [0.0, 1.0]])
        lv = contrastive_loss(model, (1,), (2,), (1,))
        assert lv.total == pytest.approx(2.0, abs=1e-12)

    def test_equal_pos_and_neg_scores_one(self):
        model = model_from_rows([[1.0, 0.0], [0.0, 1.0]])
        lv = contrastive_loss(model, (1,), (2,), (2,))
        assert lv.total == pytest.approx(1.0, abs=1e-12)

    def test_gradient_matches_finite_differences_when_active(self):
        rng = np.random.default_rng(31)
        checked = 0
        for trial in range(30):
            model = random_model(8, 4, np.random.default_rng(trial))
            x = random_sentence(8, rng)
            zp = random_sentence(8, rng)
            zn = random_sentence(8, rng)
            lv = contrastive_loss(model, x, zp, zn)
            # stay clear of the hinge kink so differences are two-sided
            if lv.total < 0.05:
                continue
            fd = fd_gradient(lambda: contrastive_loss(model, x, zp, zn).total,
                             model, set(x) | set(zp) | set(zn))
            assert grad_rel_error(lv.gradient, fd, model.dim) < 1e-4
            checked += 1
        assert checked >= 10


class TestMseLoss:
    def test_hand_value(self):
        model = model_from_rows([[1.0, 0.0], [0.0, 1.0]])
        lv = mse_loss(model, (1,), (2,), 0.5)
        assert lv.total == pytest.approx(0.25, abs=1e-12)

    def test_perfect_fit_is_zero(self):
        model = model_from_rows([[1.0, 0.0], [0.0, 1.0]])
        lv = mse_loss(model, (1,), (1,), 1.0)
        assert lv.total == pytest.approx(0.0, abs=1e-12)

    def test_target_out_of_range(self):
        model = model_from_rows([[1.0, 0.0]])
        with pytest.raises(ValueError):
            mse_loss(model, (1,), (1,), 1.5)
        with pytest.raises(ValueError):
            mse_loss(model, (1,), (1,), -1.5)

    def test_every_target_check_is_one_rule(self):
        # mse_loss, augmented pairs and total_loss's scored examples accept
        # [-1, 1] up to 1e-9 and name the first bad target as it was given.
        model = model_from_rows([[1.0, 0.0]])
        mse_loss(model, (1,), (1,), 1.0 + 1e-10)
        AugmentedPair((1,), (1,), -1.0 - 1e-10)
        bad = {"target 2 outside": lambda: mse_loss(model, (1,), (1,), 2),
               "target -1.5 outside": lambda: mse_loss(model, (1,), (1,), -1.5),
               "target nan outside": lambda: AugmentedPair((1,), (1,), math.nan),
               "target 3 outside": lambda: AugmentedPair((1,), (1,), 3),
               "target 2.5 outside": lambda: total_loss(
                   model, None, table_batch([((1,), (1,), 0.5), ((1,), (1,), 2.5)]),
                   RegularizerConfig())}
        for message, call in bad.items():
            with pytest.raises(ValueError, match=rf"^{message} \[-1, 1\]$"):
                call()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(33)
        for trial in range(10):
            model = random_model(8, 4, np.random.default_rng(trial))
            x = random_sentence(8, rng)
            z = random_sentence(8, rng)
            target = float(rng.uniform(-1, 1))
            lv = mse_loss(model, x, z, target)
            fd = fd_gradient(lambda: mse_loss(model, x, z, target).total,
                             model, set(x) | set(z))
            assert grad_rel_error(lv.gradient, fd, model.dim) < 1e-4


class TestOutreg:
    def test_identity_is_zero(self):
        theta, _ = _anchor_pair()
        anchor = theta.copy(frozen=True)
        for sent in [(1,), (1, 2), (2, 3)]:
            assert outreg_penalty(theta, anchor, sent).total == pytest.approx(0.0, abs=1e-15)

    def test_moved_token_hand_value(self):
        theta, theta0 = _anchor_pair()
        # t3 rotated from 270 to 30 degrees: ||diff||^2 = 2 - 2cos(120) = 3
        assert outreg_penalty(theta, theta0, (3,)).total == pytest.approx(3.0, abs=1e-12)
        assert outreg_penalty(theta, theta0, (2,)).total == pytest.approx(0.0, abs=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(35)
        for trial in range(10):
            theta = random_model(8, 4, np.random.default_rng(trial))
            theta0 = random_model(8, 4, np.random.default_rng(500 + trial), frozen=True)
            x = random_sentence(8, rng)
            lv = outreg_penalty(theta, theta0, x)
            fd = fd_gradient(lambda: outreg_penalty(theta, theta0, x).total,
                             model=theta, token_ids=set(x))
            assert grad_rel_error(lv.gradient, fd, theta.dim) < 1e-4


class TestItvreg:
    def test_zero_when_theta_tracks_base(self):
        theta, theta0 = _anchor_pair()
        for x, xp in [((1,), (2,)), ((2,), (1,)), ((2,), (3,)), ((3,), (2,))]:
            assert itvreg_penalty(theta, theta0, x, xp).total == pytest.approx(0.0, abs=1e-12)

    def test_collapsed_pair_hand_value(self):
        theta, theta0 = _anchor_pair()
        # theta sim 1 vs theta0 sim -1/2: residual 3/2, squared 9/4
        lv = itvreg_penalty(theta, theta0, (1,), (3,))
        assert lv.total == pytest.approx(2.25, abs=1e-12)

    def test_identical_models_always_zero(self):
        rng = np.random.default_rng(37)
        for trial in range(10):
            theta = random_model(8, 4, np.random.default_rng(trial))
            anchor = theta.copy(frozen=True)
            x = random_sentence(8, rng)
            xp = random_sentence(8, rng)
            assert itvreg_penalty(theta, anchor, x, xp).total == pytest.approx(0.0, abs=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(39)
        for trial in range(10):
            theta = random_model(8, 4, np.random.default_rng(trial))
            theta0 = random_model(8, 4, np.random.default_rng(700 + trial), frozen=True)
            x = random_sentence(8, rng, min_len=3)
            xp = mask_fraction(x, 0.5, seed=trial)
            lv = itvreg_penalty(theta, theta0, x, xp)
            fd = fd_gradient(lambda: itvreg_penalty(theta, theta0, x, xp).total,
                             model=theta, token_ids=set(x))
            assert grad_rel_error(lv.gradient, fd, theta.dim) < 1e-4


class TestMaskreg:
    def test_identical_views_cost_nothing(self):
        model = model_from_rows([[1.0, 0.0], [0.0, 1.0]])
        assert maskreg_penalty(model, (1,), (1,)).total == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_views_cost_one(self):
        model = model_from_rows([[1.0, 0.0], [0.0, 1.0]])
        assert maskreg_penalty(model, (1,), (2,)).total == pytest.approx(1.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        for trial in range(10):
            model = random_model(8, 4, np.random.default_rng(trial))
            x = random_sentence(8, rng, min_len=3)
            xp = mask_fraction(x, 0.3, seed=trial)
            lv = maskreg_penalty(model, x, xp)
            fd = fd_gradient(lambda: maskreg_penalty(model, x, xp).total,
                             model, set(x))
            assert grad_rel_error(lv.gradient, fd, model.dim) < 1e-4


class TestSimcse:
    def test_same_seed_views_agree(self):
        model = random_model(6, 4, np.random.default_rng(0))
        lv = simcse_penalty(model, (1, 2, 3), seed_a=5, seed_b=5, rate=0.3)
        assert lv.total == pytest.approx(0.0, abs=1e-12)

    def test_distinct_seeds_usually_disagree(self):
        model = random_model(6, 4, np.random.default_rng(1))
        values = [
            simcse_penalty(model, (1, 2, 3, 4), seed_a=2 * k, seed_b=2 * k + 1,
                           rate=0.4).total
            for k in range(20)
        ]
        assert max(values) > 1e-4

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(43)
        for trial in range(10):
            model = random_model(8, 4, np.random.default_rng(trial))
            x = random_sentence(8, rng, min_len=3)
            sa, sb = int(rng.integers(1000)), int(rng.integers(1000, 2000))
            lv = simcse_penalty(model, x, sa, sb, rate=0.25)
            fd = fd_gradient(
                lambda: simcse_penalty(model, x, sa, sb, rate=0.25).total,
                model, set(x))
            assert grad_rel_error(lv.gradient, fd, model.dim) < 1e-4


class TestInterventionSeed:
    def test_deterministic(self):
        assert intervention_seed(7, 3, 1) == intervention_seed(7, 3, 1)

    def test_varies_with_every_coordinate(self):
        base = intervention_seed(7, 3, 1)
        assert intervention_seed(8, 3, 1) != base
        assert intervention_seed(7, 4, 1) != base
        assert intervention_seed(7, 3, 2) != base

    def test_no_collisions_in_a_batch(self):
        seeds = {intervention_seed(0, i, d) for i in range(64) for d in range(4)}
        assert len(seeds) == 64 * 4


class TestRegularizerConfig:
    def test_mask_fraction_defaults_by_kind(self):
        assert RegularizerConfig(kind="itvreg").resolved_mask_fraction == 0.5
        assert RegularizerConfig(kind="itvaug").resolved_mask_fraction == 0.5
        assert RegularizerConfig(kind="maskreg").resolved_mask_fraction == 0.15
        assert RegularizerConfig(kind="itvreg", mask_fraction=0.3).resolved_mask_fraction == 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            RegularizerConfig(kind="nope")
        with pytest.raises(ValueError):
            RegularizerConfig(lam=-1.0)
        with pytest.raises(ValueError):
            RegularizerConfig(mask_fraction=1.0)
        with pytest.raises(ValueError):
            RegularizerConfig(dropout_rate=1.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match="lambda"):
            RegularizerConfig(kind="itvreg", lam=lam)


class TestBuildItvaug:
    def _corpus(self, n=6):
        queries = {f"q{i}": ("t1", "t2", "t3", "t4") for i in range(n)}
        return Corpus(queries=queries, items={"i": ("t1",)}, pairs=[])

    def test_full_fraction_covers_every_query(self):
        theta0 = random_model(6, 4, np.random.default_rng(0), frozen=True)
        pairs = build_itvaug(self._corpus(6), theta0, 1.0, 0.5, seed=0)
        assert len(pairs) == 6
        for ap in pairs:
            assert -1.0 <= ap.target <= 1.0
            assert 0 < len(ap.x_prime) < len(ap.x)

    def test_fraction_takes_floor(self):
        theta0 = random_model(6, 4, np.random.default_rng(0), frozen=True)
        assert len(build_itvaug(self._corpus(7), theta0, 0.5, 0.5, seed=0)) == 3

    def test_seeded(self):
        theta0 = random_model(6, 4, np.random.default_rng(0), frozen=True)
        a = build_itvaug(self._corpus(5), theta0, 0.6, 0.5, seed=9)
        b = build_itvaug(self._corpus(5), theta0, 0.6, 0.5, seed=9)
        assert a == b

    def test_requires_frozen_base(self):
        theta0 = random_model(6, 4, np.random.default_rng(0))
        with pytest.raises(ValueError, match="frozen"):
            build_itvaug(self._corpus(3), theta0, 1.0, 0.5, seed=0)

    def test_short_queries_are_skipped(self):
        theta0 = random_model(6, 4, np.random.default_rng(0), frozen=True)
        corpus = Corpus(queries={"q0": ("t1",), "q1": ("t1", "t2", "t3")},
                        items={"i": ("t1",)}, pairs=[])
        pairs = build_itvaug(corpus, theta0, 1.0, 0.5, seed=0)
        assert len(pairs) == 1

    def test_matches_itvreg_arithmetic(self):
        # feeding a precomputed pair through mse_loss reproduces itvreg exactly
        theta = random_model(6, 4, np.random.default_rng(5))
        theta0 = random_model(6, 4, np.random.default_rng(6), frozen=True)
        pairs = build_itvaug(self._corpus(4), theta0, 1.0, 0.5, seed=3)
        for ap in pairs:
            via_aug = mse_loss(theta, ap.x, ap.x_prime, ap.target)
            via_reg = itvreg_penalty(theta, theta0, ap.x, ap.x_prime)
            assert via_aug.total == pytest.approx(via_reg.total, abs=1e-12)


def _scored_examples(n_tokens, rng, size):
    """``size`` scored (x, z, relevance) triples."""
    return [(random_sentence(n_tokens, rng, min_len=3), random_sentence(n_tokens, rng, min_len=3),
             float(rng.uniform(0, 1)))
            for _ in range(size)]


class TestOneForwardPerView:
    @pytest.mark.parametrize("objective, passes", [
        (lambda th, th0: mse_loss(th, (1, 2, 3), (4, 5), 0.3), 2),
        (lambda th, th0: maskreg_penalty(th, (1, 2, 3), (1, 3)), 2),
        (lambda th, th0: simcse_penalty(th, (1, 2, 3), 1, 2, 0.1), 2),
        (lambda th, th0: itvreg_penalty(th, th0, (1, 2, 3), (1, 3)), 4),
    ], ids=["mse_loss", "maskreg_penalty", "simcse_penalty", "itvreg_penalty"])
    def test_each_view_is_encoded_once(self, encode_calls, objective, passes):
        theta = random_model(8, 4, np.random.default_rng(0))
        theta0 = random_model(8, 4, np.random.default_rng(1), frozen=True)
        assert objective(theta, theta0).gradient
        assert len(encode_calls) == passes

    def test_active_contrastive_encodes_three_views(self, encode_calls):
        # x matches z_neg and is orthogonal to z_pos: hinge value 2
        model = model_from_rows([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        lv = contrastive_loss(model, (1,), (2,), (3,))
        assert lv.total == pytest.approx(2.0) and lv.gradient
        assert len(encode_calls) == 3


def test_total_loss_encodes_each_distinct_view_once_per_model(monkeypatch):
    # Plain views are encoded once per distinct sentence; masked views once
    # per penalty sentence, since two of equal content encode alike.
    theta = random_model(8, 4, np.random.default_rng(0))
    theta0 = random_model(8, 4, np.random.default_rng(1), frozen=True)
    rows = {id(theta): [], id(theta0): []}
    original = matchlab.encoder.encode_batch

    def counting(model, sentences, *args, **kwargs):
        rows[id(model)].extend(sentences)
        return original(model, sentences, *args, **kwargs)

    monkeypatch.setattr(matchlab.objectives, "encode_batch", counting)
    # x1 and z1 recur across examples; each z_neg is another example's z_pos
    x1, x2, z1, z2, z3 = (1, 2, 3), (4, 5), (6, 7, 8), (2, 6), (3, 5, 7)
    examples = [(x1, z1, z2), (x2, z2, z1), (x1, z3, z1)]
    batch = table_batch(examples, seed=3)
    total_loss(theta, theta0, batch, RegularizerConfig(kind="itvreg"))
    sentences = [s for x, z_pos, _ in examples for s in (x, z_pos)]
    masked = [mask_fraction(s, 0.5, intervention_seed(batch.seed, i))
              for i, s in enumerate(sentences)]
    assert sorted(rows[id(theta)]) == sorted([x1, x2, z1, z2, z3] + masked)
    assert sorted(rows[id(theta0)]) == sorted(list(set(sentences)) + masked)


class TestTotalLoss:
    def test_erm_is_the_example_mean(self):
        model = random_model(8, 4, np.random.default_rng(0))
        rng = np.random.default_rng(51)
        examples = _scored_examples(8, rng, 4)
        lv = total_loss(model, None, table_batch(examples), RegularizerConfig(kind="none"))
        singles = [mse_loss(model, x, z, relevance).total for x, z, relevance in examples]
        assert lv.erm == pytest.approx(np.mean(singles), abs=1e-12)
        assert lv.penalty == 0.0
        assert lv.total == pytest.approx(lv.erm, abs=1e-15)

    def test_total_composes_with_lambda(self):
        theta = random_model(8, 4, np.random.default_rng(1))
        theta0 = random_model(8, 4, np.random.default_rng(2), frozen=True)
        rng = np.random.default_rng(53)
        batch = table_batch(_scored_examples(8, rng, 3), seed=11)
        cfg = RegularizerConfig(kind="outreg", lam=0.7)
        lv = total_loss(theta, theta0, batch, cfg)
        assert lv.total == pytest.approx(lv.erm + 0.7 * lv.penalty, abs=1e-12)
        # outreg never skips; every sentence of every example contributes
        assert lv.n_penalty_terms == 6
        assert lv.n_skipped_penalty == 0

    def test_penalty_recomputable_from_parts(self):
        # the itvreg terms can be replayed one by one from the seed schedule
        theta = random_model(8, 4, np.random.default_rng(3))
        theta0 = random_model(8, 4, np.random.default_rng(4), frozen=True)
        rng = np.random.default_rng(55)
        examples = _scored_examples(8, rng, 3)
        batch = table_batch(examples, seed=77)
        cfg = RegularizerConfig(kind="itvreg", lam=0.1)
        lv = total_loss(theta, theta0, batch, cfg)

        expected = []
        flat = 0
        for x, z, _ in examples:
            for sent in (x, z):
                xp = mask_fraction(sent, 0.5, intervention_seed(batch.seed, flat, 0))
                expected.append(itvreg_penalty(theta, theta0, sent, xp).total)
                flat += 1
        assert lv.n_penalty_terms == len(expected)
        assert lv.penalty == pytest.approx(np.mean(expected), abs=1e-12)

    def test_penalty_mean_adds_the_terms_in_order(self):
        # The mean is the left-to-right float sum of the one-term values over
        # their count, as the erm mean is, not a compensated sum(), which
        # Python 3.12 and later would round differently.
        theta = random_model(8, 4, np.random.default_rng(7))
        theta0 = random_model(8, 4, np.random.default_rng(8), frozen=True)
        examples = _scored_examples(8, np.random.default_rng(57), 24)
        batch = table_batch(examples, seed=79)
        lv = total_loss(theta, theta0, batch, RegularizerConfig(kind="itvreg"))
        sentences = [s for x, z, _ in examples for s in (x, z)]
        in_order = 0.0
        for flat, sent in enumerate(sentences):
            xp = mask_fraction(sent, 0.5, intervention_seed(batch.seed, flat))
            in_order += itvreg_penalty(theta, theta0, sent, xp).total
        assert lv.n_penalty_terms == len(sentences)
        assert lv.penalty == in_order / lv.n_penalty_terms

    def test_short_sentences_are_skipped_not_zeroed(self):
        theta = random_model(8, 4, np.random.default_rng(5))
        theta0 = random_model(8, 4, np.random.default_rng(6), frozen=True)
        batch = table_batch([((1,), (2, 3, 4), 1.0)])
        cfg = RegularizerConfig(kind="itvreg")
        lv = total_loss(theta, theta0, batch, cfg)
        assert lv.n_skipped_penalty == 1
        assert lv.n_penalty_terms == 1

    def test_degenerate_example_is_skipped_alone(self):
        # t1 + t2 cancels, so the first example has no direction
        model = model_from_rows([[1.0, 0.0], [-1.0, 0.0], [0.6, 0.8], [0.0, 1.0]])
        batch = table_batch([((1, 2), (3,), 0.5), ((3,), (4,), 0.2)])
        lv = total_loss(model, None, batch, RegularizerConfig(kind="none"))
        single = mse_loss(model, (3,), (4,), 0.2)
        assert lv.n_skipped_examples == 1
        assert lv.erm == single.total
        assert set(lv.gradient) == {3, 4}
        for tok, g in single.gradient.items():
            assert np.array_equal(lv.gradient[tok], g)

    def test_degenerate_augmented_pair_is_skipped_and_counted(self):
        model = model_from_rows([[1.0, 0.0], [-1.0, 0.0], [0.6, 0.8], [0.0, 1.0]])
        batch = table_batch([((3,), (4,), 0.2)],
                            augmented=[((1, 2), (1,), 0.5), ((3, 4), (3,), 0.9)])
        lv = total_loss(model, None, batch, RegularizerConfig(kind="itvaug"))
        assert lv.n_skipped_penalty == 1
        assert lv.n_penalty_terms == 1
        assert lv.penalty == mse_loss(model, (3, 4), (3,), 0.9).total

    def test_every_penalty_term_skipped_leaves_the_fitting_mean(self):
        model = model_from_rows([[1.0, 0.0], [-1.0, 0.0], [0.6, 0.8], [0.0, 1.0]])
        batch = table_batch([((3,), (4,), 0.2)], augmented=[((1, 2), (1,), 0.5)])
        lv = total_loss(model, None, batch, RegularizerConfig(kind="itvaug", lam=0.5))
        single = mse_loss(model, (3,), (4,), 0.2)
        assert (lv.n_penalty_terms, lv.n_skipped_penalty, lv.penalty) == (0, 1, 0.0)
        assert lv.total == lv.erm == single.total
        assert lv.gradient.ids.tolist() == single.gradient.ids.tolist()
        assert lv.gradient.rows.tobytes() == single.gradient.rows.tobytes()

    def test_unencodable_example_raises_encode_error(self):
        # an empty sentence or a bad id is an error in the data, not a
        # degenerate view to skip, and the message is encode's
        model = random_model(8, 4, np.random.default_rng(0))
        cases = [([((1, 2), (3, 4), (5,)), ((1, 2), (), (5,))], "empty"),
                 ([((1, 2), (3,), 0.5), ((1, 99), (3,), 0.5)], "out of range")]
        for examples, message in cases:
            with pytest.raises(EncodeError, match=message) as info:
                total_loss(model, None, table_batch(examples), RegularizerConfig(kind="none"))
            assert not isinstance(info.value, DegenerateNormError)

    def test_anchored_kinds_require_theta0(self):
        model = random_model(8, 4, np.random.default_rng(0))
        batch = table_batch([((1, 2), (3, 4), 1.0)])
        for kind in ("outreg", "itvreg"):
            with pytest.raises(ValueError):
                total_loss(model, None, batch, RegularizerConfig(kind=kind))

    def test_empty_batch_rejected(self):
        model = random_model(8, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            total_loss(model, None, table_batch([]), RegularizerConfig(kind="none"))

    def test_itvaug_consumes_precomputed_pairs(self):
        theta = random_model(8, 4, np.random.default_rng(7))
        rng = np.random.default_rng(57)
        augmented = [((1, 2, 3), (1, 3), 0.9), ((4, 5), (4,), 0.8)]
        batch = table_batch(_scored_examples(8, rng, 2), seed=5, augmented=augmented)
        cfg = RegularizerConfig(kind="itvaug", lam=0.1)
        lv = total_loss(theta, None, batch, cfg)
        singles = [mse_loss(theta, x, x_prime, target).total
                   for x, x_prime, target in augmented]
        assert lv.penalty == pytest.approx(np.mean(singles), abs=1e-12)
        assert lv.n_penalty_terms == 2

    def test_deterministic_for_fixed_seed(self):
        theta = random_model(8, 4, np.random.default_rng(8))
        theta0 = random_model(8, 4, np.random.default_rng(9), frozen=True)
        rng1 = np.random.default_rng(59)
        rng2 = np.random.default_rng(59)
        b1 = table_batch(_scored_examples(8, rng1, 3), seed=13)
        b2 = table_batch(_scored_examples(8, rng2, 3), seed=13)
        cfg = RegularizerConfig(kind="itvreg")
        lv1 = total_loss(theta, theta0, b1, cfg)
        lv2 = total_loss(theta, theta0, b2, cfg)
        assert lv1.total == lv2.total
        for tok in lv1.gradient:
            assert np.array_equal(lv1.gradient[tok], lv2.gradient[tok])

    @pytest.mark.parametrize("kind", ["none", "outreg", "itvreg", "maskreg", "simcse"])
    def test_composed_gradient_matches_finite_differences(self, kind):
        theta = random_model(8, 5, np.random.default_rng(20))
        theta0 = random_model(8, 5, np.random.default_rng(21), frozen=True)
        rng = np.random.default_rng(61)
        examples = _scored_examples(8, rng, 3)
        batch = table_batch(examples, seed=23)
        cfg = RegularizerConfig(kind=kind, lam=0.4)
        lv = total_loss(theta, theta0, batch, cfg)
        touched = set()
        for x, z, _ in examples:
            touched |= set(x) | set(z)
        fd = fd_gradient(lambda: total_loss(theta, theta0, batch, cfg).total,
                         model=theta, token_ids=touched)
        assert grad_rel_error(lv.gradient, fd, theta.dim) < 1e-4

    def test_itvaug_gradient_matches_finite_differences(self):
        theta = random_model(8, 5, np.random.default_rng(22))
        rng = np.random.default_rng(63)
        examples = _scored_examples(8, rng, 2)
        batch = table_batch(examples, seed=29, augmented=[((1, 2, 3), (1, 3), 0.7)])
        cfg = RegularizerConfig(kind="itvaug", lam=0.4)
        lv = total_loss(theta, None, batch, cfg)
        touched = {1, 2, 3}
        for x, z, _ in examples:
            touched |= set(x) | set(z)
        fd = fd_gradient(lambda: total_loss(theta, None, batch, cfg).total,
                         model=theta, token_ids=touched)
        assert grad_rel_error(lv.gradient, fd, theta.dim) < 1e-4
