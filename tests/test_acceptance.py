"""Release gate: ten numbered end-to-end checks over the whole package.

Each check prints "[criterion NN] PASS" once its assertions clear, so a
`pytest tests/test_acceptance.py -v -s` run reads as a checklist. Checks 08
and 09 share one three-seed benchmark run (module-scoped fixture) whose
frozen reference numbers live in tests/fixtures/synth_trend.json; regenerate
that file with the same protocol if the generator or trainer changes on
purpose.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from matchlab import (
    Corpus,
    RegularizerConfig,
    TrainConfig,
    auc_partial,
    build_itvaug,
    build_vocab,
    contrastive_loss,
    encode,
    encode_backward,
    evaluate,
    importance_report,
    init_model,
    intervention_seed,
    itvreg_penalty,
    mask_fraction,
    mask_single,
    maskreg_penalty,
    mse_loss,
    outreg_penalty,
    precision_at_k,
    rank_items,
    simcse_penalty,
    synth_generate,
    synth_pretrain,
    train,
)
from matchlab.cli import main as cli_main
from matchlab.encoder import EncodeError

from conftest import fd_gradient, grad_rel_error, random_model, random_sentence

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "synth_trend.json"


def _pass(n: int) -> None:
    print(f"[criterion {n:02d}] PASS")


# ---------------------------------------------------------------------------
# 01: encoder invariants


def test_criterion_01_encoder_invariants():
    rng = np.random.default_rng(101)
    model = random_model(30, 16, rng)
    scaled = type(model)(model.table * 2.5, model.vocab)
    t0 = time.perf_counter()
    for _ in range(1000):
        sent = random_sentence(30, rng, min_len=1, max_len=8)
        e = encode(model, sent).embedding
        assert abs(float(np.linalg.norm(e)) - 1.0) <= 1e-6
        perm = tuple(np.array(sent)[rng.permutation(len(sent))])
        assert np.allclose(encode(model, perm).embedding, e, atol=1e-6)
        assert np.allclose(encode(scaled, sent).embedding, e, atol=1e-6)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"invariant sweep took {elapsed:.2f}s"
    _pass(1)


# ---------------------------------------------------------------------------
# 02: every gradient against central finite differences


def _fd_check(value_fn, model, rows, analytic, tol=1e-4):
    numeric = fd_gradient(value_fn, model, rows)
    assert set(analytic) <= set(rows)
    assert grad_rel_error(analytic, numeric, model.dim) < tol


def test_criterion_02_gradients_match_finite_differences():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    n_vocab, dim = 14, 6

    # raw encoder backward: d(u . f(X)) / d(table)
    for _ in range(100):
        model = random_model(n_vocab, dim, rng)
        x = random_sentence(n_vocab, rng, 2, 4)
        u = rng.normal(size=dim)
        an = encode_backward(encode(model, x), u)
        _fd_check(lambda: float(u @ encode(model, x).embedding),
                  model, set(x), an)

    # hinge, active and inactive branches collected separately
    n_active = n_inactive = 0
    while n_active < 100 or n_inactive < 100:
        model = random_model(n_vocab, dim, rng)
        x = random_sentence(n_vocab, rng, 2, 4)
        zp = random_sentence(n_vocab, rng, 2, 4)
        zn = random_sentence(n_vocab, rng, 2, 4)
        val = contrastive_loss(model, x, zp, zn)
        margin = 1.0 + float(encode(model, x).embedding @ encode(model, zn).embedding
                             - encode(model, x).embedding @ encode(model, zp).embedding)
        rows = set(x) | set(zp) | set(zn)
        if margin >= 0.05 and n_active < 100:
            _fd_check(lambda: contrastive_loss(model, x, zp, zn).total,
                      model, rows, val.gradient)
            n_active += 1
        elif margin <= -0.05 and n_inactive < 100:
            assert val.total == 0.0 and val.gradient == {}
            numeric = fd_gradient(lambda: contrastive_loss(model, x, zp, zn).total,
                                  model, rows)
            assert all(float(np.abs(g).max()) < 1e-9 for g in numeric.values())
            n_inactive += 1

    # graded mse
    for _ in range(100):
        model = random_model(n_vocab, dim, rng)
        x = random_sentence(n_vocab, rng, 2, 4)
        z = random_sentence(n_vocab, rng, 2, 4)
        target = float(rng.uniform(-1.0, 1.0))
        an = mse_loss(model, x, z, target).gradient
        _fd_check(lambda: mse_loss(model, x, z, target).total,
                  model, set(x) | set(z), an)

    # anchored penalties; theta0 stays fixed while theta moves
    for _ in range(100):
        model = random_model(n_vocab, dim, rng)
        theta0 = random_model(n_vocab, dim, rng, frozen=True)
        x = random_sentence(n_vocab, rng, 2, 4)
        an = outreg_penalty(model, theta0, x).gradient
        _fd_check(lambda: outreg_penalty(model, theta0, x).total,
                  model, set(x), an)

    for i in range(100):
        model = random_model(n_vocab, dim, rng)
        theta0 = random_model(n_vocab, dim, rng, frozen=True)
        x = random_sentence(n_vocab, rng, 2, 4)
        xp = mask_fraction(x, 0.5, 5000 + i)
        an = itvreg_penalty(model, theta0, x, xp).gradient
        _fd_check(lambda: itvreg_penalty(model, theta0, x, xp).total,
                  model, set(x) | set(xp), an)

    for i in range(100):
        model = random_model(n_vocab, dim, rng)
        x = random_sentence(n_vocab, rng, 2, 4)
        xp = mask_fraction(x, 0.5, 6000 + i)
        an = maskreg_penalty(model, x, xp).gradient
        _fd_check(lambda: maskreg_penalty(model, x, xp).total,
                  model, set(x) | set(xp), an)

    # dropout views are deterministic given their seeds, so FD still applies
    done = 0
    i = 0
    while done < 100:
        i += 1
        model = random_model(n_vocab, dim, rng)
        x = random_sentence(n_vocab, rng, 2, 4)
        sa = intervention_seed(7000 + i, 0, 0)
        sb = intervention_seed(7000 + i, 0, 1)
        try:
            an = simcse_penalty(model, x, sa, sb, 0.3).gradient
        except EncodeError:
            continue
        _fd_check(lambda: simcse_penalty(model, x, sa, sb, 0.3).total,
                  model, set(x), an)
        done += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"gradient sweep took {elapsed:.2f}s"
    _pass(2)


# ---------------------------------------------------------------------------
# 03: fixed 2-d geometry where output drift is invisible to the
#     intervention penalty but glaring to the output-space penalty


def test_criterion_03_drift_invisible_to_intervention_penalty():
    from conftest import model_from_rows

    r3 = math.sqrt(3.0) / 2.0
    theta = model_from_rows([(r3, 0.5), (-r3, 0.5), (r3, 0.5)])
    theta0 = model_from_rows([(r3, 0.5), (-r3, 0.5), (0.0, -1.0)], frozen=True)

    for sent in [(1, 2), (2, 3)]:
        for pos in range(2):
            resid = itvreg_penalty(theta, theta0, sent, mask_single(sent, pos))
            assert abs(resid.total) <= 1e-12
    assert outreg_penalty(theta, theta0, (2, 3)).total == pytest.approx(3.0, abs=1e-9)
    _pass(3)


# ---------------------------------------------------------------------------
# 04: the augmentation route reproduces the penalty exactly


def test_criterion_04_augmented_pairs_reproduce_the_penalty():
    rng = np.random.default_rng(404)
    for i in range(1000):
        theta = random_model(20, 8, rng)
        theta0 = random_model(20, 8, rng, frozen=True)
        x = random_sentence(20, rng, 2, 6)
        xp = mask_fraction(x, 0.5, 40000 + i)
        target = float(encode(theta0, x).embedding @ encode(theta0, xp).embedding)
        via_mse = mse_loss(theta, x, xp, target).total
        via_penalty = itvreg_penalty(theta, theta0, x, xp).total
        assert abs(via_mse - via_penalty) <= 1e-12

    # and through the precomputed-pair builder itself
    train_c, _, _ = synth_generate(6, 3, 8, 12, seed=9)
    vocab = build_vocab(train_c)
    theta0 = init_model(vocab, dim=8, seed=1).freeze()
    theta = init_model(vocab, dim=8, seed=2)
    pairs = build_itvaug(train_c, theta0, 1.0, 0.5, seed=3)
    assert pairs
    for pair in pairs:
        lhs = mse_loss(theta, pair.x, pair.x_prime, pair.target).total
        rhs = itvreg_penalty(theta, theta0, pair.x, pair.x_prime).total
        assert abs(lhs - rhs) <= 1e-12
    _pass(4)


# ---------------------------------------------------------------------------
# 05: zero output drift forces a zero intervention residual, and the
#     residual obeys the triangle bound


def test_criterion_05_zero_drift_substitution_and_triangle_bound():
    rng = np.random.default_rng(505)
    for _ in range(1000):
        theta0 = random_model(20, 8, rng, frozen=True)
        x = random_sentence(20, rng, 2, 5)
        xp = random_sentence(20, rng, 2, 5)
        # agree on every touched row, differ elsewhere: outputs identical
        table = theta0.table.copy()
        touched = set(x) | set(xp)
        for row in range(table.shape[0]):
            if row not in touched:
                table[row] += rng.normal(size=8)
        theta = type(theta0)(table, theta0.vocab)
        assert outreg_penalty(theta, theta0, x).total == 0.0
        assert outreg_penalty(theta, theta0, xp).total == 0.0
        assert itvreg_penalty(theta, theta0, x, xp).total == 0.0

    for _ in range(1000):
        theta = random_model(20, 8, rng)
        theta0 = random_model(20, 8, rng, frozen=True)
        x = random_sentence(20, rng, 2, 5)
        xp = random_sentence(20, rng, 2, 5)
        gap_t = float(np.linalg.norm(encode(theta, x).embedding
                                     - encode(theta, xp).embedding))
        gap_0 = float(np.linalg.norm(encode(theta0, x).embedding
                                     - encode(theta0, xp).embedding))
        drift_x = float(np.linalg.norm(encode(theta, x).embedding
                                       - encode(theta0, x).embedding))
        drift_xp = float(np.linalg.norm(encode(theta, xp).embedding
                                        - encode(theta0, xp).embedding))
        assert abs(gap_t - gap_0) <= drift_x + drift_xp + 1e-12
    _pass(5)


# ---------------------------------------------------------------------------
# 06: ranking metrics against brute-force oracles


def _auc_oracle(scored, fpr_max):
    """Trapezoidal partial ROC area; tie groups become diagonal segments."""
    by_score: dict[float, list[int]] = {}
    for s, l in scored:
        by_score.setdefault(s, []).append(l)
    n_pos = sum(l for _, l in scored)
    n_neg = len(scored) - n_pos
    points = [(0.0, 0.0)]
    tp = fp = 0
    for s in sorted(by_score, reverse=True):
        tp += sum(by_score[s])
        fp += len(by_score[s]) - sum(by_score[s])
        points.append((fp / n_neg, tp / n_pos))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points[:-1], points[1:]):
        if x0 >= fpr_max:
            break
        if x1 <= fpr_max:
            area += (x1 - x0) * (y0 + y1) / 2.0
        else:
            yc = y0 + (y1 - y0) * (fpr_max - x0) / (x1 - x0)
            area += (fpr_max - x0) * (y0 + yc) / 2.0
            break
    return area / fpr_max


def test_criterion_06_ranking_metrics_match_oracles():
    rng = np.random.default_rng(606)

    for _ in range(1000):
        model = random_model(25, 8, rng)
        n_items = int(rng.integers(5, 31))
        items = {}
        sentences = []
        for j in range(n_items):
            if sentences and rng.random() < 0.3:
                sent = sentences[int(rng.integers(len(sentences)))]  # forced tie
            else:
                sent = random_sentence(25, rng, 2, 5)
            sentences.append(sent)
            items[f"i{j:03d}"] = sent
        q = random_sentence(25, rng, 2, 5)
        k = int(rng.integers(1, min(8, n_items) + 1))
        relevant = {f"i{j:03d}" for j in range(n_items) if rng.random() < 0.3}

        qe = encode(model, q).embedding
        sims = {iid: float(encode(model, s).embedding @ qe) for iid, s in items.items()}
        order = sorted(items, key=lambda iid: (-sims[iid], iid))

        result = rank_items(model, q, items, k)
        assert [iid for iid, _ in result.ranked] == order[:k]
        oracle_p = sum(1 for iid in order[:k] if iid in relevant) / k
        assert precision_at_k(result, relevant, k) == oracle_p

    for _ in range(1000):
        n = int(rng.integers(8, 41))
        labels = rng.integers(0, 2, size=n)
        while labels.sum() in (0, n):
            labels = rng.integers(0, 2, size=n)
        if rng.random() < 0.5:
            scores = rng.integers(0, 6, size=n) / 5.0  # coarse grid, many ties
        else:
            scores = rng.normal(size=n)
        scored = [(float(s), int(l)) for s, l in zip(scores, labels)]
        assert auc_partial(scored, 0.05) == pytest.approx(
            _auc_oracle(scored, 0.05), abs=1e-9)

    # frequency-quantile decomposition recomposes overall P@1 exactly
    _, iid_c, _ = synth_generate(8, 4, 10, 16, seed=3)
    model = init_model(build_vocab(iid_c), dim=16, seed=2)
    rep = evaluate(model, iid_c, ks=(1, 3), n_bins=4)
    total_mass = sum(rep.quantile_mass.values())
    recomposed = sum(rep.quantile_p1[b] * rep.quantile_mass[b]
                     for b in rep.quantile_mass) / total_mass
    assert abs(recomposed - rep.precision_at[1]) <= 1e-12
    _pass(6)


# ---------------------------------------------------------------------------
# 07: the CLI pipeline is deterministic down to the bytes


def _run_pipeline(workdir: Path) -> None:
    prev = os.getcwd()
    os.chdir(workdir)
    try:
        assert cli_main(["synth", "--out-dir", "data", "--brands", "6",
                         "--categories", "3", "--queries-per-brand", "8",
                         "--noise-tokens", "12", "--seed", "11"]) == 0
        assert cli_main(["pretrain-base", "--corpus", "data/train.jsonl",
                         "--out", "base.ckpt", "--vocab-out", "vocab.tsv",
                         "--dim", "16", "--epochs", "2", "--lr", "1e-3",
                         "--batch-size", "16", "--seed", "0"]) == 0
        assert cli_main(["train", "--corpus", "data/train.jsonl",
                         "--base", "base.ckpt", "--vocab", "vocab.tsv",
                         "--out", "model.ckpt", "--trace-out", "trace.csv",
                         "--reg", "itvreg", "--reg-lambda", "0.1",
                         "--epochs", "3", "--lr", "1e-3",
                         "--batch-size", "16", "--seed", "0"]) == 0
        assert cli_main(["eval", "--corpus", "data/iid_eval.jsonl",
                         "--checkpoint", "model.ckpt", "--vocab", "vocab.tsv",
                         "--out", "report.json", "--csv", "report.csv",
                         "--ks", "1,3", "--bins", "4",
                         "--split-tag", "iid"]) == 0
    finally:
        os.chdir(prev)


def test_criterion_07_cli_pipeline_is_deterministic(tmp_path):
    run1 = tmp_path / "run1"
    run2 = tmp_path / "run2"
    run1.mkdir()
    run2.mkdir()
    _run_pipeline(run1)
    _run_pipeline(run2)
    artifacts = [
        "data/train.jsonl", "data/iid_eval.jsonl", "data/ood_eval.jsonl",
        "data/config.json", "base.ckpt", "base.ckpt.config.json", "vocab.tsv",
        "model.ckpt", "model.ckpt.config.json", "trace.csv",
        "report.json", "report.csv",
    ]
    for rel in artifacts:
        b1 = (run1 / rel).read_bytes()
        b2 = (run2 / rel).read_bytes()
        assert b1 == b2, f"{rel} differs between identical runs"
    _pass(7)


# ---------------------------------------------------------------------------
# 08 + 09: the synthetic benchmark reproduces the headline trend, and
# importance amplification separates the three models. One shared run.

BENCH_SEEDS = (0, 1, 2)


def _run_benchmark(seed: int) -> dict:
    train_c, iid_c, ood_c = synth_generate(
        12, 4, 42, 48, seed=seed, eval_queries_per_brand=16,
        descriptors_per_category=6, descriptors_per_sentence=2,
        noise_per_sentence=4)
    pre_c = synth_pretrain(
        12, 4, 504, 48, seed=1000 + seed,
        descriptors_per_category=6, descriptors_per_sentence=2,
        noise_per_sentence=2)
    vocab = build_vocab(Corpus({**pre_c.queries, **train_c.queries},
                               {**pre_c.items, **train_c.items}, []))

    rand = init_model(vocab, dim=32, seed=seed)
    base = train(pre_c, rand, rand.copy(frozen=True),
                 TrainConfig(loss_kind="contrastive", epochs=1, batch_size=32,
                             learning_rate=4e-4, seed=seed)).theta.copy(frozen=True)
    ft_cfg = TrainConfig(loss_kind="contrastive", epochs=20, batch_size=32,
                         learning_rate=2e-3, seed=seed)
    ft = train(train_c, base.copy(), base, ft_cfg).theta
    itv_cfg = TrainConfig(loss_kind="contrastive", epochs=20, batch_size=32,
                          learning_rate=2e-3, seed=seed,
                          regularizer=RegularizerConfig(kind="itvreg", lam=0.1,
                                                        mask_fraction=0.5))
    itv = train(train_c, base.copy(), base, itv_cfg).theta

    def p1(model, corpus):
        return evaluate(model, corpus, ks=(1,), n_bins=5).precision_at[1]

    out = {
        "base": {"iid": p1(base, iid_c), "ood": p1(base, ood_c)},
        "finetune": {"iid": p1(ft, iid_c), "ood": p1(ft, ood_c)},
        "itvreg": {"iid": p1(itv, iid_c), "ood": p1(itv, ood_c)},
    }

    amps: dict[str, list[float]] = {"ft_brand": [], "ft_cat": [], "itv_brand": []}
    for qid in sorted(ood_c.queries):
        sent = vocab.encode(ood_c.queries[qid])
        for model, brand_key, cat_key in [(ft, "ft_brand", "ft_cat"),
                                          (itv, "itv_brand", None)]:
            rep = importance_report(model, base, sent)
            for tok, amp in zip(rep.tokens, rep.amplification):
                if not math.isfinite(amp):
                    continue
                if tok.startswith("brand"):
                    amps[brand_key].append(amp)
                elif cat_key and tok.startswith("cat"):
                    amps[cat_key].append(amp)
    out["amp"] = {
        "finetune_brand": float(np.mean(amps["ft_brand"])),
        "finetune_category": float(np.mean(amps["ft_cat"])),
        "itvreg_brand": float(np.mean(amps["itv_brand"])),
    }
    return out


@pytest.fixture(scope="module")
def bench():
    t0 = time.perf_counter()
    runs = {seed: _run_benchmark(seed) for seed in BENCH_SEEDS}
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


def test_criterion_08_benchmark_reproduces_the_trend(bench):
    frozen = json.loads(FIXTURE_PATH.read_text())["runs"]
    runs = bench["runs"]

    for seed in BENCH_SEEDS:
        for model in ("base", "finetune", "itvreg"):
            for split in ("iid", "ood"):
                live = runs[seed][model][split]
                ref = frozen[str(seed)][model][split]
                assert live == pytest.approx(ref, abs=0.03), (
                    f"seed {seed} {model} {split}: {live:.4f} vs frozen {ref:.4f}")

    def mean(model, split):
        return float(np.mean([runs[s][model][split] for s in BENCH_SEEDS]))

    # (a) fine-tuning helps in-distribution
    assert mean("base", "iid") < mean("finetune", "iid")
    # (b) the shifted split punishes the fine-tuned model, every seed
    for s in BENCH_SEEDS:
        assert runs[s]["finetune"]["ood"] < runs[s]["finetune"]["iid"]
    # (c) the intervention penalty recovers robustness on most seeds
    wins = sum(runs[s]["itvreg"]["ood"] > runs[s]["finetune"]["ood"]
               for s in BENCH_SEEDS)
    assert wins >= 2, f"itvreg beat finetune on only {wins} of 3 seeds"

    assert bench["elapsed"] < 60.0, f"benchmark took {bench['elapsed']:.1f}s"
    _pass(8)


def test_criterion_09_importance_amplification_separates_models(bench):
    frozen = json.loads(FIXTURE_PATH.read_text())["runs"]
    for seed in BENCH_SEEDS:
        amp = bench["runs"][seed]["amp"]
        ref = frozen[str(seed)]["amp"]
        for key in amp:
            assert amp[key] == pytest.approx(ref[key], abs=0.3)
        # (d) the fine-tuned model amplifies the shortcut token family most
        assert amp["finetune_brand"] > amp["finetune_category"]
        # (e) the penalty measurably tempers that amplification
        assert amp["itvreg_brand"] < amp["finetune_brand"]
    _pass(9)


# ---------------------------------------------------------------------------
# 10: a heavy output-space penalty pins training to the anchor


def test_criterion_10_heavy_anchor_weight_collapses_drift():
    train_c, _, _ = synth_generate(6, 3, 12, 12, seed=4)
    vocab = build_vocab(train_c)
    theta0 = init_model(vocab, dim=16, seed=7).freeze()
    theta_init = init_model(vocab, dim=16, seed=8)

    def mean_drift(model):
        gaps = []
        for qid in sorted(train_c.queries):
            sent = vocab.encode(train_c.queries[qid])
            gaps.append(float(np.linalg.norm(
                encode(model, sent).embedding - encode(theta0, sent).embedding)))
        return float(np.mean(gaps))

    before = mean_drift(theta_init)
    cfg = TrainConfig(loss_kind="contrastive", epochs=30, batch_size=16,
                      learning_rate=3e-3, seed=0,
                      regularizer=RegularizerConfig(kind="outreg", lam=1e3))
    run = train(train_c, theta_init.copy(), theta0, cfg)
    after = mean_drift(run.theta)
    assert after < before / 10.0, (
        f"drift only fell {before:.3f} -> {after:.3f} under a 1e3 anchor weight")
    _pass(10)
