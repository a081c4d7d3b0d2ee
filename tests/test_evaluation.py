"""Evaluation: ranking, precision, partial AUC, quantile breakdowns, sweeps.

The AUC implementation is checked against two independent oracles: the
Mann-Whitney pair-count statistic for the full range, and a bisect-based
threshold sweep for partial ranges.
"""

from __future__ import annotations

import bisect
import json
import math

import numpy as np
import pytest

from matchlab import (
    Corpus,
    EncodeError,
    EvalError,
    EvalReport,
    Pair,
    auc_partial,
    encode,
    evaluate,
    init_model,
    precision_at_k,
    quantile_gain_report,
    rank_items,
    sweep_interpolation,
    synth_generate,
    write_quantile_csv,
    write_report_csv,
    write_report_json,
    write_sweep_csv,
)
from matchlab.evaluation import _encode_items

from conftest import make_vocab, model_from_rows, random_model, random_sentence


def mann_whitney_auc(scored):
    """Full-range AUC as the pairwise win rate, ties counting half."""
    pos = [s for s, l in scored if l == 1]
    neg = [s for s, l in scored if l == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def sweep_pauc(scored, fpr_max):
    """Partial AUC from an explicit threshold sweep over unique scores."""
    pos = sorted(s for s, l in scored if l == 1)
    neg = sorted(s for s, l in scored if l == 0)
    pts = [(0.0, 0.0)]
    for t in sorted({s for s, _ in scored}, reverse=True):
        # predict positive when score >= t
        tp = len(pos) - bisect.bisect_left(pos, t)
        fp = len(neg) - bisect.bisect_left(neg, t)
        pts.append((fp / len(neg), tp / len(pos)))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x0 >= fpr_max:
            break
        hi = min(x1, fpr_max)
        if hi <= x0:
            continue
        y_hi = y1 if x1 <= fpr_max else y0 + (y1 - y0) * (hi - x0) / (x1 - x0)
        area += (hi - x0) * (y0 + y_hi) / 2.0
    return area / fpr_max


def _ranking_model():
    # query along +x; two items tied at 0.9, one at 0.2
    c = math.sqrt(0.19)
    return model_from_rows([[1.0, 0.0], [0.9, c], [0.2, math.sqrt(0.96)], [0.9, c]])


class TestRankItems:
    def test_orders_by_score_then_id(self):
        model = _ranking_model()
        items = {"i0": (2,), "i1": (3,), "i2": (4,)}
        res = rank_items(model, (1,), items, k=3)
        assert [iid for iid, _ in res.ranked] == ["i0", "i2", "i1"]
        assert res.ranked[0][1] == pytest.approx(0.9, abs=1e-12)
        assert res.ranked[2][1] == pytest.approx(0.2, abs=1e-12)

    def test_k_trims(self):
        model = _ranking_model()
        items = {"i0": (2,), "i1": (3,), "i2": (4,)}
        res = rank_items(model, (1,), items, k=1)
        assert len(res.ranked) == 1

    def test_k_beyond_items_rejected(self):
        model = _ranking_model()
        with pytest.raises(EvalError):
            rank_items(model, (1,), {"i0": (2,)}, k=2)

    def test_unencodable_item_is_excluded(self):
        model = model_from_rows([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        items = {"bad": (1, 2), "good": (3,)}
        res = rank_items(model, (1,), items, k=1)
        assert res.excluded == ["bad"]
        assert res.ranked[0][0] == "good"

    def test_k_beyond_encodable_rejected(self):
        model = model_from_rows([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        items = {"bad": (1, 2), "good": (3,)}
        with pytest.raises(EvalError, match="encodable"):
            rank_items(model, (1,), items, k=2)

    def test_empty_items_rejected(self):
        model = _ranking_model()
        with pytest.raises(EvalError):
            rank_items(model, (1,), {}, k=1)


def encode_each_item(theta, items):
    """What the catalogue encoding must be: (encodable ids, excluded ids,
    rows), each item encoded on its own by ``encode``."""
    ids, excluded, rows = [], [], []
    for iid in sorted(items):
        try:
            rows.append(encode(theta, items[iid]).embedding)
        except EncodeError:
            excluded.append(iid)
        else:
            ids.append(iid)
    return ids, excluded, np.array(rows).reshape(len(rows), theta.dim)


def assert_encodes_as_each_item(theta, items):
    ids, excluded, rows = _encode_items(theta, items)
    want_ids, want_excluded, want_rows = encode_each_item(theta, items)
    assert (ids, excluded) == (want_ids, want_excluded)
    assert rows.tobytes() == want_rows.tobytes()


class TestCatalogueMemo:
    """rank_items and evaluate reuse the last catalogue's encoding while its
    items and the table rows they read are unchanged, and only then."""

    def _catalogue(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(8, 4, rng)
        return model, {f"i{j}": random_sentence(8, rng) for j in range(6)}

    def test_second_ranking_encodes_only_the_query(self, encode_calls):
        model, items = self._catalogue(0)
        first = rank_items(model, (1, 2), items, k=3)
        assert len(encode_calls) == 1 + len(items)
        encode_calls.clear()
        assert rank_items(model, (1, 2), items, k=3) == first
        assert encode_calls == [(1, 2)]

    def test_evaluate_and_rank_items_share_the_catalogue(self, encode_calls):
        corpus, model = _eval_corpus_and_model(seed=9)
        first = evaluate(model, corpus, ks=(1, 3), n_bins=2)
        encode_calls.clear()
        assert evaluate(model, corpus, ks=(1, 3), n_bins=2) == first
        assert len(encode_calls) == len(corpus.queries)
        encode_calls.clear()
        items = {iid: model.vocab.encode(toks) for iid, toks in corpus.items.items()}
        rank_items(model, (1,), items, k=2)
        assert encode_calls == [(1,)]

    def test_cached_rows_are_read_only(self):
        model, items = self._catalogue(1)
        _encode_items(model, items)
        rows = _encode_items(model, items)[2]
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0

    @pytest.mark.parametrize("value", [0.5, -0.0], ids=["value", "signed-zero"])
    def test_in_place_edit_of_a_read_row_misses(self, encode_calls, value):
        # t2's second coordinate is 0.0: set it, or flip only its sign (which
        # no sum can show, as numpy's sums start from +0.0, but the rows are
        # compared byte for byte)
        model = model_from_rows([[1.0, 0.0], [0.5, 0.0], [0.0, 1.0]])
        items = {"a": (2,), "b": (2, 3), "c": (3,)}
        _encode_items(model, items)
        model.table[2, 1] = value
        encode_calls.clear()
        _encode_items(model, items)
        assert encode_calls == [(2,), (2, 3), (3,)]
        assert_encodes_as_each_item(model, items)

    def test_edit_of_an_unread_row_keeps_the_entry(self, encode_calls):
        model, items = self._catalogue(2)
        unread = sorted(set(range(model.vocab_size)) - set().union(*items.values()))[0]
        rank_items(model, (1,), items, k=2)
        model.table[unread] += 1.0
        encode_calls.clear()
        rank_items(model, (1,), items, k=2)
        assert encode_calls == [(1,)]

    def test_another_model_with_the_same_shape_misses(self):
        model, items = self._catalogue(3)
        other = random_model(8, 4, np.random.default_rng(4))
        _encode_items(model, items)
        assert_encodes_as_each_item(other, items)

    def test_changed_tokens_miss_and_an_equal_copy_hits(self, encode_calls):
        model, items = self._catalogue(5)
        first = rank_items(model, (1,), items, k=6)
        changed = {**items, "i0": items["i0"] + (1,)}
        encode_calls.clear()
        rank_items(model, (1,), changed, k=6)
        assert len(encode_calls) == 1 + len(items)
        assert_encodes_as_each_item(model, changed)
        rank_items(model, (1,), items, k=6)
        copy = {iid: list(s) for iid, s in reversed(items.items())}
        encode_calls.clear()
        assert rank_items(model, (1,), copy, k=6) == first
        assert encode_calls == [(1,)]

    def test_returned_excluded_lists_are_the_callers_own(self):
        model = model_from_rows([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        items = {"bad": (1, 2), "good": (3,)}
        rank_items(model, (1,), items, k=1).excluded.append("ghost")
        assert rank_items(model, (1,), items, k=1).excluded == ["bad"]
        corpus = Corpus(
            queries={"q": ("t1",)},
            items={"bad": ("t1", "t2"), "good": ("t3",)},
            pairs=[Pair("q", "good", 1.0)],
        )
        evaluate(model, corpus, ks=(1,), n_bins=1).excluded_items.clear()
        assert evaluate(model, corpus, ks=(1,), n_bins=1).excluded_items == ["bad"]
        assert rank_items(model, (1,), items, k=1).excluded == ["bad"]


class TestPrecisionAtK:
    def test_hand_values(self):
        model = _ranking_model()
        items = {"i0": (2,), "i1": (3,), "i2": (4,)}
        res = rank_items(model, (1,), items, k=3)
        assert precision_at_k(res, {"i0"}, 1) == 1.0
        assert precision_at_k(res, {"i1"}, 1) == 0.0
        assert precision_at_k(res, {"i0", "i1"}, 3) == pytest.approx(2 / 3)

    def test_empty_truth_is_zero(self):
        model = _ranking_model()
        res = rank_items(model, (1,), {"i0": (2,)}, k=1)
        assert precision_at_k(res, set(), 1) == 0.0

    def test_k_beyond_ranking_rejected(self):
        model = _ranking_model()
        res = rank_items(model, (1,), {"i0": (2,)}, k=1)
        with pytest.raises(EvalError):
            precision_at_k(res, {"i0"}, 2)


class TestAucPartial:
    def test_perfect_separation(self):
        scored = [(0.9, 1), (0.8, 1), (0.2, 0), (0.1, 0)]
        for fpr_max in (0.05, 0.5, 1.0):
            assert auc_partial(scored, fpr_max) == pytest.approx(1.0, abs=1e-12)

    def test_perfectly_wrong(self):
        scored = [(0.9, 0), (0.1, 1)]
        assert auc_partial(scored, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_all_tied_is_the_diagonal(self):
        scored = [(0.5, 1), (0.5, 0), (0.5, 1), (0.5, 0)]
        # area under the diagonal up to f, normalized: f/2
        assert auc_partial(scored, 0.05) == pytest.approx(0.025, abs=1e-12)
        assert auc_partial(scored, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_full_range_matches_mann_whitney(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(4, 40))
            # coarse scores force plenty of ties
            scored = [(round(float(rng.uniform()), 1), int(rng.integers(2)))
                      for _ in range(n)]
            labels = [l for _, l in scored]
            if not 0 < sum(labels) < len(labels):
                continue
            assert auc_partial(scored, 1.0) == pytest.approx(
                mann_whitney_auc(scored), abs=1e-12)

    def test_partial_matches_threshold_sweep(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = int(rng.integers(4, 40))
            scored = [(round(float(rng.uniform()), 1), int(rng.integers(2)))
                      for _ in range(n)]
            labels = [l for _, l in scored]
            if not 0 < sum(labels) < len(labels):
                continue
            fpr_max = float(rng.choice([0.05, 0.1, 0.3, 0.77]))
            assert auc_partial(scored, fpr_max) == pytest.approx(
                sweep_pauc(scored, fpr_max), abs=1e-12)

    def test_validation(self):
        with pytest.raises(EvalError):
            auc_partial([], 0.05)
        with pytest.raises(EvalError):
            auc_partial([(0.5, 1)], 0.0)
        with pytest.raises(EvalError):
            auc_partial([(0.5, 2), (0.1, 0)], 0.05)
        with pytest.raises(EvalError):
            auc_partial([(0.5, 1), (0.1, 1)], 0.05)


def _eval_corpus_and_model(seed=0, n_tokens=8, n_queries=12, n_items=6):
    rng = np.random.default_rng(seed)
    model = random_model(n_tokens, 6, rng)

    def sent():
        length = int(rng.integers(2, 5))
        return tuple(f"t{int(rng.integers(1, n_tokens + 1))}" for _ in range(length))

    queries = {f"q{i:02d}": sent() for i in range(n_queries)}
    items = {f"i{j:02d}": sent() for j in range(n_items)}
    pairs = []
    for i, qid in enumerate(sorted(queries)):
        for j, iid in enumerate(sorted(items)):
            if (i + j) % 3 == 0:
                pairs.append(Pair(qid, iid, 1.0))
            elif (i + j) % 3 == 1:
                pairs.append(Pair(qid, iid, 0.0))
    return Corpus(queries, items, pairs), model


class TestEvaluate:
    def test_precision_matches_exhaustive_reranking(self):
        corpus, model = _eval_corpus_and_model()
        report = evaluate(model, corpus, ks=(1, 3, 5), n_bins=3)
        vocab = model.vocab
        relevant = corpus.relevant_by_query()
        for k in (1, 3, 5):
            total = 0.0
            for qid in corpus.queries:
                q = encode(model, vocab.encode(corpus.queries[qid])).embedding
                scored = sorted(
                    ((-float(q @ encode(model, vocab.encode(toks)).embedding), iid)
                     for iid, toks in corpus.items.items())
                )
                top = [iid for _, iid in scored[:k]]
                total += sum(1 for iid in top if iid in relevant.get(qid, set())) / k
            assert report.precision_at[k] == pytest.approx(total / len(corpus.queries),
                                                           abs=1e-12)

    def test_quantile_means_recompose_overall_p1(self):
        corpus, model = _eval_corpus_and_model(seed=1)
        report = evaluate(model, corpus, ks=(1,), n_bins=3)
        mass_total = sum(report.quantile_mass.values())
        assert mass_total == report.n_queries
        weighted = sum(report.quantile_p1[b] * report.quantile_mass[b]
                       for b in report.quantile_mass)
        assert weighted / mass_total == pytest.approx(report.precision_at[1],
                                                      abs=1e-12)

    def test_quantile_p1_does_not_depend_on_feasible_ks(self):
        # top-1 always exists, so a k list with no feasible k keeps the P@1 bins
        corpus, model = _eval_corpus_and_model(seed=3)
        ref = evaluate(model, corpus, ks=(1,), n_bins=3)
        assert any(ref.quantile_p1.values())
        report = evaluate(model, corpus, ks=(10**6,), n_bins=3)
        assert report.precision_at == {10**6: None}
        assert report.quantile_p1 == ref.quantile_p1

    @pytest.mark.parametrize("n_bins", [0, -1])
    def test_bin_count_below_one_rejected(self, n_bins):
        corpus, model = _eval_corpus_and_model(seed=1)
        with pytest.raises(EvalError, match=f"n_bins must be >= 1, got {n_bins}"):
            evaluate(model, corpus, ks=(1,), n_bins=n_bins)

    @pytest.mark.parametrize("n_bins", [7, 100])
    def test_bin_count_above_item_count_rejected(self, n_bins):
        corpus, model = _eval_corpus_and_model(seed=3)
        assert len(corpus.items) == 6
        with pytest.raises(EvalError, match=f"n_bins={n_bins} exceeds item count 6"):
            evaluate(model, corpus, ks=(1,), n_bins=n_bins)

    def test_auc_matches_hand_built_pair_list(self):
        corpus, model = _eval_corpus_and_model(seed=2)
        report = evaluate(model, corpus, ks=(1,), n_bins=2)
        vocab = model.vocab
        labeled = []
        for p in corpus.pairs:
            if p.relevance not in (0.0, 1.0):
                continue
            q = encode(model, vocab.encode(corpus.queries[p.query_id])).embedding
            z = encode(model, vocab.encode(corpus.items[p.item_id])).embedding
            labeled.append((float(q @ z), int(p.relevance)))
        assert report.auc_005 == pytest.approx(auc_partial(labeled, 0.05), abs=1e-12)

    def test_graded_pairs_are_left_out_of_auc(self):
        corpus, model = _eval_corpus_and_model(seed=3)
        graded = Corpus(corpus.queries, corpus.items,
                        corpus.pairs + [Pair("q00", "i05", 0.5)])
        a = evaluate(model, corpus, ks=(1,), n_bins=2)
        b = evaluate(model, graded, ks=(1,), n_bins=2)
        assert a.auc_005 == b.auc_005

    def test_auc_none_without_both_classes(self):
        corpus, model = _eval_corpus_and_model(seed=4)
        only_pos = Corpus(corpus.queries, corpus.items,
                          [p for p in corpus.pairs if p.relevance == 1.0])
        report = evaluate(model, only_pos, ks=(1,), n_bins=2)
        assert report.auc_005 is None

    def test_no_truth_queries_fill_reserved_bin(self):
        corpus, model = _eval_corpus_and_model(seed=5)
        stripped = Corpus(corpus.queries, corpus.items,
                          [p for p in corpus.pairs if p.query_id != "q00"])
        report = evaluate(model, stripped, ks=(1,), n_bins=2)
        assert report.n_no_truth >= 1
        assert -1 in report.quantile_mass

    def test_infeasible_k_reports_none(self):
        corpus, model = _eval_corpus_and_model(seed=6, n_items=3)
        report = evaluate(model, corpus, ks=(1, 10), n_bins=2)
        assert report.precision_at[1] is not None
        assert report.precision_at[10] is None

    def test_unencodable_item_reported(self):
        model = model_from_rows([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        corpus = Corpus(
            queries={"q": ("t1",)},
            items={"bad": ("t1", "t2"), "good": ("t3",)},
            pairs=[Pair("q", "good", 1.0)],
        )
        report = evaluate(model, corpus, ks=(1,), n_bins=1)
        assert report.excluded_items == ["bad"]
        assert report.n_items == 2

    def test_split_label_passes_through(self):
        corpus, model = _eval_corpus_and_model(seed=7)
        assert evaluate(model, corpus, split="ood").split == "ood"

    def test_empty_corpus_rejected(self):
        _, model = _eval_corpus_and_model(seed=8)
        with pytest.raises(EvalError):
            evaluate(model, Corpus({}, {"i": ("t1",)}, []))


def _report(split, p1_by_bin, mass_by_bin, n_q):
    return EvalReport(
        split=split, n_queries=n_q, n_items=4,
        precision_at={1: sum(p1_by_bin[b] * mass_by_bin[b] for b in p1_by_bin) / n_q},
        auc_005=None, quantile_p1=dict(p1_by_bin), quantile_mass=dict(mass_by_bin),
        n_no_truth=0,
    )


class TestQuantileGain:
    def test_hand_values(self):
        base = _report("eval", {0: 0.5, 1: 0.2}, {0: 4, 1: 4}, 8)
        method = _report("eval", {0: 0.75, 1: 0.3}, {0: 4, 1: 4}, 8)
        gains = quantile_gain_report(method, base)
        assert gains[0] == pytest.approx(50.0)
        assert gains[1] == pytest.approx(50.0)

    def test_zero_baseline_is_undefined_not_fabricated(self):
        base = _report("eval", {0: 0.0}, {0: 5}, 5)
        method = _report("eval", {0: 0.4}, {0: 5}, 5)
        assert quantile_gain_report(method, base) == {0: None}

    def test_mismatched_partitions_rejected(self):
        base = _report("eval", {0: 0.5}, {0: 5}, 5)
        method = _report("eval", {0: 0.5, 1: 0.1}, {0: 3, 1: 2}, 5)
        with pytest.raises(EvalError):
            quantile_gain_report(method, base)


class TestSweep:
    def _pool(self, n):
        queries = {f"pq{i}": ("brand0", f"noise{i % 4}") for i in range(n)}
        items = {f"pi{i}": ("brand1", f"noise{i % 4}") for i in range(n)}
        pairs = [Pair(f"pq{i}", f"pi{i}", 1.0) for i in range(n)]
        return Corpus(queries, items, pairs)

    def test_fractions_grow_the_pool(self):
        train, iid, _ = synth_generate(4, 2, 3, 4, seed=0)
        from matchlab import build_vocab
        vocab = build_vocab(train)
        model = init_model(vocab, dim=8, seed=0)
        pool = self._pool(6)
        out = sweep_interpolation(model, iid, pool, (0.0, 0.5, 1.0), seed=3,
                                  ks=(1,), n_bins=1)
        assert set(out) == {0.0, 0.5, 1.0}
        sizes = [out[f].n_items for f in (0.0, 0.5, 1.0)]
        assert sizes[0] < sizes[1] < sizes[2]
        assert out[0.5].split == "mix-0.5"

    def test_shared_item_pool_shifts_the_mixture(self):
        # The synthetic eval splits share one item set; the sweep must still
        # mix in pool queries as the fraction grows.
        train, iid, ood = synth_generate(12, 4, 42, 48, seed=0)
        from matchlab import build_vocab
        model = init_model(build_vocab(train), dim=8, seed=0)
        out = sweep_interpolation(model, iid, ood, (0.0, 0.5, 1.0), seed=0,
                                  ks=(1,), n_bins=1)
        n_queries = [out[f].n_queries for f in (0.0, 0.5, 1.0)]
        assert n_queries[0] < n_queries[1] < n_queries[2]

    def test_empty_fractions_rejected(self):
        train, iid, _ = synth_generate(4, 2, 3, 4, seed=0)
        from matchlab import build_vocab
        model = init_model(build_vocab(train), dim=8, seed=0)
        with pytest.raises(EvalError):
            sweep_interpolation(model, iid, self._pool(3), (), seed=0)


class TestWriters:
    def _sample_report(self):
        return EvalReport(
            split="iid", n_queries=10, n_items=5,
            precision_at={1: 0.5, 3: 0.6, 5: None},
            auc_005=0.8125,
            quantile_p1={0: 0.4, 1: 0.6}, quantile_mass={0: 5, 1: 5},
            n_no_truth=0,
        )

    def test_json_report(self, tmp_path):
        path = tmp_path / "r.json"
        write_report_json(self._sample_report(), path, config_digest="deadbeef")
        data = json.loads(path.read_text())
        assert data["config_digest"] == "deadbeef"
        assert data["precision_at"]["1"] == 0.5
        assert data["precision_at"]["5"] is None
        assert data["auc_005"] == 0.8125

    def test_csv_report(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report_csv(self._sample_report(), path, config_digest="deadbeef")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_digest=deadbeef"
        assert lines[1] == "split,n_queries,n_items,p_at_1,p_at_3,p_at_5,auc_005"
        assert lines[2] == "iid,10,5,0.5,0.6,,0.8125"

    def test_quantile_csv(self, tmp_path):
        base = _report("eval", {0: 0.5, 1: 0.0}, {0: 4, 1: 4}, 8)
        method = _report("eval", {0: 0.75, 1: 0.3}, {0: 4, 1: 4}, 8)
        path = tmp_path / "q.csv"
        write_quantile_csv(method, base, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin,baseline_p1,method_p1,gain_pct"
        assert lines[1] == "0,0.5,0.75,50"
        assert lines[2] == "1,0,0.3,"

    def test_sweep_csv(self, tmp_path):
        rep = self._sample_report()
        sweeps = {"beta": {0.0: rep, 0.5: rep}, "alpha": {0.0: rep}}
        path = tmp_path / "s.csv"
        write_sweep_csv(sweeps, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("model,fraction,")
        assert lines[1].startswith("alpha,0,")
        assert lines[2].startswith("beta,0,")
        assert lines[3].startswith("beta,0.5,")
