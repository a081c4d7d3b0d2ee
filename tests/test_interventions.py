"""Masking interventions and deletion-based token importance."""

from __future__ import annotations

import math

import numpy as np
import pytest

from matchlab import (
    ImportanceReport,
    InterventionError,
    encode,
    importance_report,
    importance_scores,
    mask_fraction,
    mask_single,
    write_importance_summary,
    write_importance_tsv,
)

from conftest import model_from_rows, random_model, random_sentence

# orthogonal pair: masking either token leaves the other at 45 degrees,
# so importance = 1 - 1/sqrt(2)
IMP_ORTHO = 0.2928932188134524


class TestMaskSingle:
    def test_removes_exactly_one_position(self):
        assert mask_single((5, 7, 9), 1) == (5, 9)
        assert mask_single((5, 7), 0) == (7,)
        assert mask_single((5, 7), 1) == (5,)

    def test_too_short(self):
        with pytest.raises(InterventionError):
            mask_single((3,), 0)

    def test_position_out_of_range(self):
        with pytest.raises(InterventionError):
            mask_single((1, 2), 2)
        with pytest.raises(InterventionError):
            mask_single((1, 2), -1)


class TestMaskFraction:
    def test_half_of_four_drops_two(self):
        out = mask_fraction((1, 2, 3, 4), 0.5, seed=0)
        assert len(out) == 2

    def test_half_rounds_up_on_odd(self):
        # 0.5 * 3 + 0.5 = 2.0 -> drop 2, keep 1
        out = mask_fraction((1, 2, 3), 0.5, seed=0)
        assert len(out) == 1

    def test_small_fraction_still_drops_one(self):
        out = mask_fraction((1, 2, 3, 4), 0.01, seed=0)
        assert len(out) == 3

    def test_large_fraction_keeps_one(self):
        out = mask_fraction((1, 2, 3, 4), 0.99, seed=0)
        assert len(out) == 1

    def test_order_preserved(self):
        rng = np.random.default_rng(2)
        for seed in range(30):
            sent = tuple(int(i) for i in rng.integers(1, 50, size=8))
            out = mask_fraction(sent, 0.4, seed=seed)
            # surviving tokens appear in their original relative order
            it = iter(enumerate(sent))
            for tok in out:
                for _, cand in it:
                    if cand == tok:
                        break
                else:
                    pytest.fail("output not a subsequence of input")

    def test_seeded(self):
        sent = (1, 2, 3, 4, 5, 6)
        assert mask_fraction(sent, 0.5, seed=3) == mask_fraction(sent, 0.5, seed=3)

    def test_bad_fraction(self):
        for frac in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(InterventionError):
                mask_fraction((1, 2, 3), frac, seed=0)

    def test_too_short(self):
        with pytest.raises(InterventionError):
            mask_fraction((1,), 0.5, seed=0)


class TestImportanceScores:
    def test_orthogonal_pair_hand_value(self):
        model = model_from_rows([[1.0, 0.0], [0.0, 1.0]])
        scores = importance_scores(model, (1, 2))
        assert scores == pytest.approx([IMP_ORTHO, IMP_ORTHO], abs=1e-12)

    def test_redundant_token_scores_zero(self):
        # two copies of the same token: deleting one changes nothing
        model = model_from_rows([[0.6, 0.8]])
        scores = importance_scores(model, (1, 1))
        assert scores == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_range_zero_to_two(self):
        rng = np.random.default_rng(9)
        for trial in range(40):
            model = random_model(10, 6, np.random.default_rng(trial))
            sent = random_sentence(10, rng, min_len=2, max_len=6)
            for s in importance_scores(model, sent):
                assert -1e-12 <= s <= 2.0 + 1e-12

    def test_opposed_tokens_score_two(self):
        # remainder points exactly away from the full sentence
        model = model_from_rows([[2.0, 0.0], [-1.0, 0.0], [0.0, 0.0001]])
        scores = importance_scores(model, (1, 2))
        # full = +x; drop pos0 -> remainder -x, importance 2; drop pos1 -> +x, 0
        assert scores[0] == pytest.approx(2.0, abs=1e-9)
        assert scores[1] == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_position_is_nan_others_scored(self):
        model = model_from_rows([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        # dropping position 2 leaves (1, 2) whose sum is zero
        scores = importance_scores(model, (1, 2, 3))
        assert math.isnan(scores[2])
        assert not math.isnan(scores[0]) and not math.isnan(scores[1])

    def test_too_short(self):
        model = model_from_rows([[1.0, 0.0]])
        with pytest.raises(InterventionError):
            importance_scores(model, (1,))


class TestImportanceReport:
    def test_amplification_ratio(self):
        theta = model_from_rows([[1.0, 0.0], [0.0, 1.0]])
        theta0 = model_from_rows([[1.0, 0.0], [1.0, 0.0]])
        rep = importance_report(theta, theta0, (1, 2))
        # under theta0 both tokens are identical, importance 0 -> floored denom
        assert rep.s_theta0 == pytest.approx([0.0, 0.0], abs=1e-12)
        assert rep.amplification[0] == pytest.approx(IMP_ORTHO / 1e-6, rel=1e-6)
        assert rep.tokens == ("t1", "t2")

    def test_tsv_round_trip(self, tmp_path):
        theta = model_from_rows([[1.0, 0.0], [0.0, 1.0]])
        theta0 = model_from_rows([[1.0, 0.2], [0.3, 1.0]])
        rep = importance_report(theta, theta0, (1, 2))
        path = tmp_path / "imp.tsv"
        write_importance_tsv(rep, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "position\ttoken\ts_theta\ts_theta0\tamplification"
        assert len(lines) == 3
        cells = lines[1].split("\t")
        assert cells[0] == "0" and cells[1] == "t1"
        assert float(cells[2]) == pytest.approx(rep.s_theta[0], rel=1e-9)

    def test_tsv_lines(self, tmp_path):
        nan = float("nan")
        rep = ImportanceReport(sentence=(4, 2, 7), tokens=("brand3", "cat1d0", "noise5"),
                               s_theta=[1 / 3, 0.0, nan], s_theta0=[1e-07, 2.5e6, nan],
                               amplification=[123456789012.0, 0.0, nan])
        path = tmp_path / "imp.tsv"
        write_importance_tsv(rep, path)
        assert path.read_text().splitlines() == [
            "position\ttoken\ts_theta\ts_theta0\tamplification",
            "0\tbrand3\t0.3333333333\t1e-07\t1.23456789e+11",
            "1\tcat1d0\t0\t2500000\t0",
            "2\tnoise5\tnan\tnan\tnan",
        ]

    def test_summary_lines(self, tmp_path):
        # A token whose every amplification is nan reads nan; others their max.
        nan = float("nan")
        reps = [
            ImportanceReport(sentence=(1, 2), tokens=("b", "a"), s_theta=[0.0, 0.0],
                             s_theta0=[0.0, 0.0], amplification=[2 / 3, nan]),
            ImportanceReport(sentence=(2, 1, 3), tokens=("a", "b", "c"),
                             s_theta=[0.0] * 3, s_theta0=[0.0] * 3,
                             amplification=[nan, 1e-12, 4.0]),
        ]
        path = tmp_path / "summary.tsv"
        write_importance_summary(reps, path)
        assert path.read_text().splitlines() == [
            "token\tpositions_scored\tmax_amplification",
            "a\t2\tnan",
            "b\t2\t0.6666666667",
            "c\t1\t4",
        ]

    def test_summary_takes_max_over_positions(self, tmp_path):
        theta = model_from_rows([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        theta0 = model_from_rows([[1.0, 0.1], [0.1, 1.0], [0.5, 0.5]])
        reps = [
            importance_report(theta, theta0, (1, 2)),
            importance_report(theta, theta0, (1, 3)),
        ]
        path = tmp_path / "summary.tsv"
        write_importance_summary(reps, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "token\tpositions_scored\tmax_amplification"
        rows = {ln.split("\t")[0]: ln.split("\t") for ln in lines[1:]}
        assert rows["t1"][1] == "2"
        expected = max(reps[0].amplification[0], reps[1].amplification[0])
        assert float(rows["t1"][2]) == pytest.approx(expected, rel=1e-9)
