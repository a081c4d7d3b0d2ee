"""Ranking evaluation: P@k, partial AUC, frequency-quantile breakdowns, and
interpolation sweeps between in-distribution and shifted candidate pools.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import AbstractSet, Mapping, Sequence

import numpy as np

from .corpus import Corpus, Sentence, interpolate_ood, item_frequency_quantiles
from .encoder import EmbeddingModel, encode, encode_batch, encode_error, row_dots

NO_TRUTH_BIN = -1


class EvalError(ValueError):
    """An evaluation request the data cannot support."""


@dataclass
class RankingResult:
    ranked: list[tuple[str, float]]
    excluded: list[str] = field(default_factory=list)


# The last catalogue encoded: (key, the in-vocabulary token ids its items
# read, the bytes of those table rows, ids, excluded ids, read-only rows).
# Rebound whole, never updated in place.
_last_catalogue: tuple | None = None


def _encode_items(
    theta: EmbeddingModel, items: Mapping[str, Sentence]
) -> tuple[list[str], list[str], np.ndarray]:
    """(encodable ids, excluded ids, the encodable items' embedding rows),
    ids ascending.

    A catalogue equal to the last one encoded, under a table of the same
    shape whose rows the items read hold the same bytes, reuses the last
    encoding: those rows are all ``encode_batch`` reads of the table, so the
    result is the one it would compute."""
    global _last_catalogue
    all_ids = sorted(items)
    sentences = [tuple(items[iid]) for iid in all_ids]
    key = (theta.table.shape, theta.table.dtype, all_ids, sentences)
    if _last_catalogue is not None:
        last_key, read, snapshot, ids, excluded, rows = _last_catalogue
        if last_key == key and theta.table.take(read, axis=0).tobytes() == snapshot:
            return ids, list(excluded), rows
    enc = encode_batch(theta, sentences)
    ids = [iid for iid, good in zip(all_ids, enc.ok) if good]
    excluded = [iid for iid, good in zip(all_ids, enc.ok) if not good]
    rows = enc.embeddings[enc.ok]
    rows.setflags(write=False)
    tokens = np.fromiter(set().union(*sentences), dtype=np.intp)
    read = tokens[(tokens >= 0) & (tokens < theta.vocab_size)]
    _last_catalogue = (key, read, theta.table.take(read, axis=0).tobytes(),
                       ids, excluded, rows)
    return ids, list(excluded), rows


def rank_items(
    theta: EmbeddingModel,
    x: Sentence,
    items: Mapping[str, Sentence],
    k: int,
) -> RankingResult:
    """Top-k items by relevance score, ties broken by ascending item id.

    The query must encode (errors propagate); items that fail to encode are
    excluded and reported in the result.
    """
    if not items:
        raise EvalError("no candidate items")
    if k < 1:
        raise EvalError(f"k must be >= 1, got {k}")
    if k > len(items):
        raise EvalError(f"k={k} exceeds the candidate count {len(items)}")
    q = encode(theta, x).embedding
    ids, excluded, rows = _encode_items(theta, items)
    if k > len(ids):
        raise EvalError(
            f"k={k} exceeds the {len(ids)} encodable items ({len(excluded)} excluded)"
        )
    scores = row_dots(rows, q)
    order = np.argsort(-scores, kind="stable")  # ids ascend: ties go by id
    ranked = [(ids[i], float(scores[i])) for i in order[:k]]
    return RankingResult(ranked=ranked, excluded=excluded)


def precision_at_k(
    ranking: RankingResult, relevant: AbstractSet[str], k: int
) -> float:
    """Fraction of the top k that is ground-truth relevant; 0 when the
    ground-truth set is empty."""
    if k < 1:
        raise EvalError(f"k must be >= 1, got {k}")
    if k > len(ranking.ranked):
        raise EvalError(f"k={k} exceeds ranking length {len(ranking.ranked)}")
    hits = sum(1 for iid, _ in ranking.ranked[:k] if iid in relevant)
    return hits / k


def auc_partial(scored: Sequence[tuple[float, int]], fpr_max: float = 0.05) -> float:
    """Area under the ROC curve restricted to fpr in [0, fpr_max], divided by
    fpr_max so a perfect ranker scores 1.

    Tied scores form one ROC step (a diagonal segment); integration is
    trapezoidal with linear interpolation at the fpr_max cut.
    """
    if not (0.0 < fpr_max <= 1.0):
        raise EvalError(f"fpr_max must be in (0, 1], got {fpr_max}")
    if not scored:
        raise EvalError("no scored examples")
    scores = np.asarray([s for s, _ in scored], dtype=np.float64)
    labels = np.asarray([l for _, l in scored], dtype=np.int64)
    if not np.all((labels == 0) | (labels == 1)):
        raise EvalError("labels must be 0 or 1")
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise EvalError("partial AUC needs both a positive and a negative example")

    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    l_sorted = labels[order]
    # One ROC vertex after each tie group.
    boundaries = np.nonzero(np.diff(s_sorted))[0]
    ends = np.concatenate([boundaries, [len(s_sorted) - 1]])
    tp = np.cumsum(l_sorted)[ends]
    fp = np.cumsum(1 - l_sorted)[ends]
    xs = np.concatenate([[0.0], fp / n_neg])
    ys = np.concatenate([[0.0], tp / n_pos])

    area = 0.0
    for x0, y0, x1, y1 in zip(xs[:-1], ys[:-1], xs[1:], ys[1:]):
        if x0 >= fpr_max:
            break
        if x1 <= fpr_max:
            area += (x1 - x0) * (y0 + y1) / 2.0
        else:
            yc = y0 + (y1 - y0) * (fpr_max - x0) / (x1 - x0)
            area += (fpr_max - x0) * (y0 + yc) / 2.0
            break
    return area / fpr_max


@dataclass
class EvalReport:
    split: str
    n_queries: int
    n_items: int
    precision_at: dict[int, float | None]
    auc_005: float | None
    quantile_p1: dict[int, float]
    quantile_mass: dict[int, int]
    n_no_truth: int
    excluded_items: list[str] = field(default_factory=list)

    def to_json_dict(self, config_digest: str | None = None) -> dict:
        out = {
            "split": self.split,
            "n_queries": self.n_queries,
            "n_items": self.n_items,
            "precision_at": {str(k): v for k, v in sorted(self.precision_at.items())},
            "auc_005": self.auc_005,
            "quantile_p1": {str(b): v for b, v in sorted(self.quantile_p1.items())},
            "quantile_mass": {str(b): v for b, v in sorted(self.quantile_mass.items())},
            "n_no_truth": self.n_no_truth,
            "excluded_items": self.excluded_items,
        }
        if config_digest is not None:
            out["config_digest"] = config_digest
        return out


def evaluate(
    theta: EmbeddingModel,
    corpus: Corpus,
    ks: Sequence[int] = (1, 3, 5),
    n_bins: int = 5,
    split: str = "eval",
) -> EvalReport:
    """Score every query against the corpus's candidate items.

    P@k is averaged over queries for each feasible k. For the quantile
    breakdown each query sits in exactly one item-frequency bin, that of its
    highest-frequency ground-truth item (ties toward the smaller id); queries
    with no ground truth occupy the reserved bin -1, so the mass-weighted bin
    means recompose the overall P@1. AUC(fpr<=0.05) is computed over labeled
    pairs when both label classes are present, else null. n_bins may not
    exceed the item count.
    """
    if not corpus.queries:
        raise EvalError("corpus has no queries")
    if not corpus.items:
        raise EvalError("corpus has no items")
    for k in ks:
        if k < 1:
            raise EvalError(f"k must be >= 1, got {k}")
    if n_bins < 1:
        raise EvalError(f"n_bins must be >= 1, got {n_bins}")

    vocab = theta.vocab
    item_ids, excluded, item_matrix = _encode_items(
        theta, {iid: vocab.encode(toks) for iid, toks in corpus.items.items()})
    if not item_ids:
        raise EvalError("no candidate item could be encoded")

    relevant = corpus.relevant_by_query()
    pair_counts = corpus.item_pair_counts()

    feasible = [k for k in ks if k <= len(item_ids)]
    p_sums = dict.fromkeys(feasible, 0.0)
    bin_sum: dict[int, float] = {}
    bin_mass: dict[int, int] = {}
    n_no_truth = 0

    qids = sorted(corpus.queries)
    q_sents = [vocab.encode(corpus.queries[qid]) for qid in qids]
    q = encode_batch(theta, q_sents)
    if not q.ok.all():
        i = int(np.argmin(q.ok))  # the first query that fails
        exc = encode_error(theta, q_sents[i], q.norms[i])
        raise EvalError(f"query {qids[i]!r} failed to encode: {exc}") from exc
    if n_bins > len(corpus.items):
        raise EvalError(f"n_bins={n_bins} exceeds item count {len(corpus.items)}")
    bins = item_frequency_quantiles(corpus, n_bins)
    q_scores = {qid: row_dots(item_matrix, row) for qid, row in zip(qids, q.embeddings)}
    for qid, scores in q_scores.items():
        order = np.argsort(-scores, kind="stable")  # ids ascend: ties go by id
        rel = relevant.get(qid, set())
        for k in feasible:
            hits = sum(1 for i in order[:k] if item_ids[i] in rel)
            p_sums[k] += hits / k
        p1 = 1.0 if item_ids[order[0]] in rel else 0.0  # top-1 exists whatever ks holds
        if rel:
            anchor = min(rel, key=lambda i: (-pair_counts.get(i, 0), i))
            b = bins[anchor]
        else:
            n_no_truth += 1
            b = NO_TRUTH_BIN
        bin_sum[b] = bin_sum.get(b, 0.0) + p1
        bin_mass[b] = bin_mass.get(b, 0) + 1

    n_q = len(corpus.queries)
    precision_at: dict[int, float | None] = {
        k: (p_sums[k] / n_q if k in p_sums else None) for k in ks
    }
    quantile_p1 = {b: bin_sum[b] / bin_mass[b] for b in bin_mass}

    auc = None
    item_row = {iid: i for i, iid in enumerate(item_ids)}
    labeled = [
        (float(q_scores[p.query_id][item_row[p.item_id]]), int(p.relevance))
        for p in corpus.pairs if p.relevance in (0.0, 1.0) and p.item_id in item_row
    ]
    lab = [l for _, l in labeled]
    if labeled and 0 < sum(lab) < len(lab):
        auc = auc_partial(labeled, 0.05)

    return EvalReport(
        split=split,
        n_queries=n_q,
        n_items=len(corpus.items),
        precision_at=precision_at,
        auc_005=auc,
        quantile_p1=quantile_p1,
        quantile_mass=bin_mass,
        n_no_truth=n_no_truth,
        excluded_items=excluded,
    )


def quantile_gain_report(
    method: EvalReport, baseline: EvalReport
) -> dict[int, float | None]:
    """Per-bin percent gain of method over baseline, 100*(m-b)/b.

    Bins where the baseline is 0 are reported as None (undefined), never as a
    fabricated number. Both reports must cover the same query partition.
    """
    if (
        method.quantile_mass != baseline.quantile_mass
        or method.n_queries != baseline.n_queries
    ):
        raise EvalError("reports cover different query sets or bins")
    gains: dict[int, float | None] = {}
    for b in sorted(baseline.quantile_p1):
        base = baseline.quantile_p1[b]
        gains[b] = None if base == 0.0 else 100.0 * (method.quantile_p1[b] - base) / base
    return gains


def sweep_interpolation(
    theta: EmbeddingModel,
    iid_eval: Corpus,
    ood_pool: Corpus,
    fractions: Sequence[float],
    seed: int,
    ks: Sequence[int] = (1, 3, 5),
    n_bins: int = 5,
) -> dict[float, EvalReport]:
    """Evaluate across nested mixtures of the OOD pool into the IID corpus.

    One seed drives every fraction, so the candidate sets grow by inclusion.
    """
    if not fractions:
        raise EvalError("no fractions given")
    out: dict[float, EvalReport] = {}
    for frac in fractions:
        mixed = interpolate_ood(iid_eval, ood_pool, frac, seed)
        out[frac] = evaluate(theta, mixed, ks=ks, n_bins=n_bins, split=f"mix-{frac:g}")
    return out


def write_report_json(
    report: EvalReport, path: str | Path, config_digest: str | None = None
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(config_digest), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt(v: float | None) -> str:
    if v is None:
        return ""
    return f"{v:.10g}"


def write_report_csv(
    report: EvalReport, path: str | Path, config_digest: str | None = None
) -> None:
    """One flat row per report: split, counts, P@k columns, AUC."""
    with open(path, "w", encoding="utf-8") as fh:
        if config_digest:
            fh.write(f"# config_digest={config_digest}\n")
        ks = sorted(report.precision_at)
        fh.write("split,n_queries,n_items," + ",".join(f"p_at_{k}" for k in ks) + ",auc_005\n")
        row = [report.split, str(report.n_queries), str(report.n_items)]
        row += [_fmt(report.precision_at[k]) for k in ks]
        row.append(_fmt(report.auc_005))
        fh.write(",".join(row) + "\n")


def write_quantile_csv(
    method: EvalReport,
    baseline: EvalReport,
    path: str | Path,
    config_digest: str | None = None,
) -> None:
    """Rows of (bin, baseline P@1, method P@1, percent gain); undefined gains
    are left empty."""
    gains = quantile_gain_report(method, baseline)
    with open(path, "w", encoding="utf-8") as fh:
        if config_digest:
            fh.write(f"# config_digest={config_digest}\n")
        fh.write("bin,baseline_p1,method_p1,gain_pct\n")
        for b in sorted(gains):
            gain = gains[b]
            fh.write(
                f"{b},{_fmt(baseline.quantile_p1[b])},{_fmt(method.quantile_p1[b])},"
                f"{'' if gain is None else _fmt(gain)}\n"
            )


def write_sweep_csv(
    sweeps: Mapping[str, Mapping[float, EvalReport]],
    path: str | Path,
    config_digest: str | None = None,
) -> None:
    """Interpolation results, one row per (model, fraction)."""
    ks_all = sorted({
        k for per_model in sweeps.values()
        for rep in per_model.values() for k in rep.precision_at
    })
    with open(path, "w", encoding="utf-8") as fh:
        if config_digest:
            fh.write(f"# config_digest={config_digest}\n")
        fh.write("model,fraction,n_queries,n_items,"
                 + ",".join(f"p_at_{k}" for k in ks_all) + ",auc_005\n")
        for model in sorted(sweeps):
            for frac in sorted(sweeps[model]):
                rep = sweeps[model][frac]
                row = [model, f"{frac:g}", str(rep.n_queries), str(rep.n_items)]
                row += [_fmt(rep.precision_at.get(k)) for k in ks_all]
                row.append(_fmt(rep.auc_005))
                fh.write(",".join(row) + "\n")
