"""Ranking evaluation: P@k, partial AUC, frequency-quantile breakdowns, and
interpolation sweeps between in-distribution and shifted candidate pools.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import AbstractSet, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import (
    Corpus,
    CorpusError,
    PairIndex,
    Sentence,
    Tokens,
    Vocab,
    interpolate_ood,
    write_table,
)
from .encoder import EmbeddingModel, SentenceTable, encode, encode_batch, encode_error, row_dots

NO_TRUTH_BIN = -1


class EvalError(ValueError):
    """An evaluation request the data cannot support."""


@dataclass
class RankingResult:
    ranked: list[tuple[str, float]]
    excluded: list[str] = field(default_factory=list)


# The last catalogue encoded: (its items as dicts of tuples keyed by the id()
# of the mapping each copies, at most two, the table's shape and dtype, the
# in-vocabulary token ids its items read, the bytes of those table rows, ids,
# excluded ids, read-only rows). Rebound whole, never updated in place.
_last_catalogue: tuple | None = None

# The last token catalogue ``evaluate`` mapped to ids: (its items as a dict of
# tuples, a copy of the vocabulary's token_to_id, the id catalogue). Rebound
# whole, never updated in place.
_last_item_ids: tuple | None = None


def _equal(a: object, b: object) -> bool:
    """True when ``a == b`` returns True; False when it returns anything else
    or raises ValueError, as a mapping whose values are numpy arrays does."""
    try:
        return (a == b) is True
    except ValueError:
        return False


def _encode_items(
    theta: EmbeddingModel, items: Mapping[str, Sentence]
) -> tuple[list[str], list[str], np.ndarray]:
    """(encodable ids, excluded ids, the encodable items' embedding rows),
    ids ascending.

    A catalogue equal to the last one encoded, under a table of the same
    shape and dtype whose rows the items read hold the same bytes, reuses the
    last encoding: those rows are all ``encode_batch`` reads of the table, so
    the result is the one it would compute. Equal means one ``items ==`` a
    dict of tuples the memo copied from this same mapping object returns
    True, else each ``tuple(items[id])`` equals the last catalogue's. The
    copy shares the mapping's tuples, so while the mapping is unchanged the
    first test compares each of its values by identity; up to two mappings
    (the one the entry was made from and the last other one found equal)
    keep a copy, so ``evaluate``'s id catalogue and a caller's own dict of
    the same items both hit at that speed. The copies are only ever
    compared, so a reused id() costs time, never a wrong hit. ``evaluate``
    passes the id catalogue its token memo (``_item_ids``, keyed on
    ``corpus.items`` and ``vocab.token_to_id``) returns, so it and
    ``rank_items`` share one entry; both then rank through ``_top_k``."""
    global _last_catalogue
    table = theta.table
    snapshot = None  # the items as a dict of tuples, once built
    if _last_catalogue is not None:
        copies, form, read, row_bytes, ids, excluded, rows = _last_catalogue
        if form == (table.shape, table.dtype):
            own = copies.get(id(items))
            if own is None or not _equal(items, own):
                snapshot = {iid: tuple(s) for iid, s in items.items()}
            if ((snapshot is None or _equal(snapshot, next(iter(copies.values()))))
                    and table.take(read, axis=0).tobytes() == row_bytes):
                if snapshot is not None:  # this mapping's own copy, beside the entry's first
                    first = next(iter(copies.items()))
                    _last_catalogue = (dict([first, (id(items), snapshot)]),
                                       *_last_catalogue[1:])
                return ids, list(excluded), rows
    if snapshot is None:
        snapshot = {iid: tuple(s) for iid, s in items.items()}
    all_ids = sorted(snapshot)
    sentences = [snapshot[iid] for iid in all_ids]
    enc = encode_batch(theta, sentences)
    ids = [iid for iid, good in zip(all_ids, enc.ok) if good]
    excluded = [iid for iid, good in zip(all_ids, enc.ok) if not good]
    rows = enc.embeddings[enc.ok]
    rows.setflags(write=False)
    tokens = enc.ids[enc.real]
    in_vocab = tokens[tokens.view(np.uintp) < theta.vocab_size]  # a negative id wraps past it
    read = np.flatnonzero(np.bincount(in_vocab, minlength=theta.vocab_size))
    _last_catalogue = ({id(items): snapshot}, (table.shape, table.dtype), read,
                       table.take(read, axis=0).tobytes(), ids, excluded, rows)
    return ids, list(excluded), rows


def _item_ids(
    vocab: Vocab, items: Mapping[str, Tokens]
) -> tuple[dict[str, Sentence], dict[str, int]]:
    """The items' token ids under ``vocab``, and the copy of
    ``vocab.token_to_id`` they were mapped under: the last call's when the
    items equal its dict of tuples and ``vocab.token_to_id`` its copy (each
    one ``==``), for ``Vocab.encode`` reads nothing else."""
    global _last_item_ids
    if _last_item_ids is not None:
        last, token_to_id, id_items = _last_item_ids
        if _equal(items, last) and _equal(vocab.token_to_id, token_to_id):
            return id_items, token_to_id
    id_items = {iid: vocab.encode(toks) for iid, toks in items.items()}
    token_to_id = dict(vocab.token_to_id)
    _last_item_ids = ({iid: tuple(toks) for iid, toks in items.items()}, token_to_id, id_items)
    return id_items, token_to_id


class _QueryInputs(NamedTuple):
    """What ``evaluate`` reads of a corpus and a vocabulary but of no model,
    with what it was built from: the pair index, the queries as a dict of
    tuples and a copy of ``vocab.token_to_id``. Rows are the queries in id
    order and columns the items in id order."""

    index: PairIndex
    queries: dict[str, Tokens]
    token_to_id: dict[str, int]
    table: SentenceTable  # the queries' token ids
    relevant: np.ndarray  # read-only: the positive matrix
    anchor: np.ndarray  # each query's anchor column (see evaluate)
    has_truth: np.ndarray  # bool: the query has a relevant item
    counts: np.ndarray  # each item's pair count
    labeled: np.ndarray  # bool, per pair: relevance 1.0 or 0.0
    bins: dict[int, list[int]]  # n_bins -> each query's bin

    def query_bins(self, n_bins: int) -> list[int]:
        """Each query's bin among n_bins frequency bins: its anchor's, or
        NO_TRUTH_BIN. Kept per n_bins."""
        bins = self.bins.get(n_bins)
        if bins is None:
            bins = self.bins[n_bins] = np.where(
                self.has_truth, _frequency_bins(self.counts, n_bins)[self.anchor],
                NO_TRUTH_BIN).tolist()
        return bins

    @classmethod
    def build(cls, corpus: Corpus, index: PairIndex, vocab: Vocab,
              token_to_id: dict[str, int]) -> "_QueryInputs":
        """The entry of ``corpus``, whose pair index is ``index``, under
        ``vocab``, whose token_to_id equals its copy ``token_to_id``."""
        queries = {qid: tuple(toks) for qid, toks in corpus.queries.items()}
        relevant = index.positive_matrix()
        relevant.setflags(write=False)
        counts = index.item_counts()
        # A query's anchor is its first relevant item by descending count,
        # ties toward the smaller id; its bin is the anchor's.
        by_count = np.argsort(-counts, kind="stable")
        return cls(index, queries, token_to_id,
                   SentenceTable.of([vocab.encode(queries[qid]) for qid in index.query_ids]),
                   relevant, by_count[relevant[:, by_count].argmax(axis=1)],
                   relevant.any(axis=1), counts, index.positive | index.negative, {})


def _query_inputs(corpus: Corpus, vocab: Vocab, token_to_id: dict[str, int]) -> _QueryInputs:
    """The corpus's ``_QueryInputs`` under ``vocab``, whose token_to_id equals
    its copy ``token_to_id``. The entry is kept in the corpus's ``__dict__``,
    beside its pair index, and reused while ``corpus.pair_index()`` returns
    the index it was built from, ``corpus.queries`` equals its dict of tuples
    and ``vocab.token_to_id`` its copy (each one ``==``; a copy that is
    ``token_to_id`` itself was just compared)."""
    index = corpus.pair_index()
    cached = corpus.__dict__.get("_query_inputs")
    if (cached is not None and cached.index is index and _equal(corpus.queries, cached.queries)
            and (cached.token_to_id is token_to_id
                 or _equal(vocab.token_to_id, cached.token_to_id))):
        return cached
    cached = _QueryInputs.build(corpus, index, vocab, token_to_id)
    corpus.__dict__["_query_inputs"] = cached
    return cached


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """The columns of each row's k highest scores, best first:
    ``np.argsort(-scores, axis=-1, kind="stable")[..., :k]`` for one row or
    a matrix, 1 <= k <= the column count.

    A partition finds the k-th best score, every column scoring at least as
    well is a candidate, and only the candidates are sorted, by score
    descending, then column ascending. NaN sorts last, as in the full sort:
    where the k-th best score is NaN, every column of the row is a
    candidate."""
    neg = -scores
    if neg.ndim == 1:  # rank_items' one row: method calls keep its fixed cost low
        kth = np.partition(neg, k - 1)[k - 1]
        cols = np.arange(len(neg)) if np.isnan(kth) else (neg <= kth).nonzero()[0]
        return cols[neg[cols].argsort(kind="stable")[:k]]
    kth = np.partition(neg, k - 1, axis=1)[:, k - 1, None]
    cand = (neg <= kth) | np.isnan(kth)
    rows, cols = cand.nonzero()  # by row, columns ascending within a row
    order = np.lexsort((neg[cand], rows))  # stable: tied scores keep column order
    starts = rows.searchsorted(np.arange(len(neg)))
    return cols[order[starts[:, None] + np.arange(k)]]


def rank_items(
    theta: EmbeddingModel,
    x: Sentence,
    items: Mapping[str, Sentence],
    k: int,
) -> RankingResult:
    """Top-k items by relevance score, ties broken by ascending item id.

    The query must encode (errors propagate); items that fail to encode are
    excluded and reported in the result. The catalogue's encoding is reused
    while it and the table rows it reads are unchanged (``_encode_items``),
    and ``_top_k`` orders only the items that score at least the k-th best.
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
    # ids ascend: ties go by id
    ranked = [(ids[i], float(scores[i])) for i in _top_k(scores, k)]
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
    if labels.all() or not labels.any():
        raise EvalError("partial AUC needs both a positive and a negative example")
    return _auc_partial(scores, labels, fpr_max)


def _auc_partial(scores: np.ndarray, labels: np.ndarray, fpr_max: float) -> float:
    """``auc_partial`` over a scores array and an int64 0/1 labels array that
    holds both labels."""
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
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


def item_frequency_quantiles(corpus: Corpus, n_bins: int = 5) -> dict[str, int]:
    """Assign each item to one of n_bins equal-count bins by ascending pair
    count (``_frequency_bins``), keyed by item id in ascending order."""
    _check_n_bins(n_bins, len(corpus.items), CorpusError)
    index = corpus.pair_index()
    return dict(zip(index.item_ids, _frequency_bins(index.item_counts(), n_bins).tolist()))


def _check_n_bins(n_bins: int, n_items: int | None, error: type[ValueError]) -> None:
    """Raise ``error`` unless 1 <= n_bins <= n_items, the bound of an
    equal-count binning of n_items items; n_items None checks the lower
    bound alone."""
    if n_bins < 1:
        raise error(f"n_bins must be >= 1, got {n_bins}")
    if n_items is not None and n_bins > n_items:
        raise error(f"n_bins={n_bins} exceeds item count {n_items}")


def _frequency_bins(counts: np.ndarray, n_bins: int) -> np.ndarray:
    """The bin of each item, given the pair counts of the items in ascending
    id order: n_bins equal-count bins by ascending (count, id), sizes
    differing by at most one, the lower-frequency bins taking the remainder."""
    base, rem = divmod(len(counts), n_bins)
    bins = np.empty(len(counts), dtype=np.intp)
    bins[np.argsort(counts, kind="stable")] = np.repeat(
        np.arange(n_bins), [base + (b < rem) for b in range(n_bins)])
    return bins


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

    P@k is averaged over queries for each feasible k; a repeated k is
    reported once. For the quantile breakdown each query sits in exactly one
    item-frequency bin, that of its highest-frequency ground-truth item (ties
    toward the smaller id); queries with no ground truth occupy the reserved
    bin -1, so the mass-weighted bin means recompose the overall P@1.
    AUC(fpr<=0.05) is computed over labeled pairs when both label classes are
    present, else null. n_bins may not exceed the item count.

    The items' token ids are reused while ``corpus.items`` and
    ``vocab.token_to_id`` equal the copies the last call took
    (``_item_ids``), and their encoding while those ids and the table rows
    they read are unchanged (``_encode_items``, shared with ``rank_items``).
    What depends on the corpus and the vocabulary alone (the queries' token
    ids as one ``SentenceTable``, the positive matrix, each query's bin for
    each n_bins asked for and the labeled-pair mask) is kept on the corpus
    (``_query_inputs``) and reused while all three of these hold:
    ``corpus.pair_index()`` returns the index it was built from (the pair
    index is built at the corpus's first call and rebuilt only after an edit
    of its ids or pairs), ``corpus.queries`` equals the snapshot taken then,
    and ``vocab.token_to_id`` equals its copy. Otherwise it is rebuilt.
    P@k reads each query's top max-feasible-k items from ``_top_k``, which
    orders only the items scoring at least the k-th best.
    """
    if not corpus.queries:
        raise EvalError("corpus has no queries")
    if not corpus.items:
        raise EvalError("corpus has no items")
    if not ks:
        raise EvalError("ks must name at least one k")
    for k in ks:
        if k < 1:
            raise EvalError(f"k must be >= 1, got {k}")
    ks = list(dict.fromkeys(ks))  # a repeated k is reported once
    _check_n_bins(n_bins, None, EvalError)  # the item count once the queries encode

    id_items, token_to_id = _item_ids(theta.vocab, corpus.items)
    item_ids, excluded, item_matrix = _encode_items(theta, id_items)
    if not item_ids:
        raise EvalError("no candidate item could be encoded")

    inputs = _query_inputs(corpus, theta.vocab, token_to_id)
    index = inputs.index
    q = encode_batch(theta, inputs.table)
    if not q.ok.all():
        i = int(np.argmin(q.ok))  # the first query that fails
        exc = encode_error(theta, inputs.table[i], q.norms[i])
        raise EvalError(f"query {index.query_ids[i]!r} failed to encode: {exc}") from exc
    _check_n_bins(n_bins, len(corpus.items), EvalError)
    q_bin = inputs.query_bins(n_bins)

    # Queries in id order are the rows, the encodable items in id order the
    # columns: an excluded item's column is dropped, and each pair's column
    # renumbered to its item's row of item_matrix.
    relevant, labeled, p_col = inputs.relevant, inputs.labeled, index.cols
    if excluded:
        ok = np.ones(len(index.item_ids), dtype=bool)
        ok[[bisect_left(index.item_ids, iid) for iid in excluded]] = False
        relevant, labeled, p_col = relevant[:, ok], labeled & ok[p_col], (ok.cumsum() - 1)[p_col]
    scores = row_dots(item_matrix, q.embeddings[:, None])
    feasible = [k for k in ks if k <= len(item_ids)]
    # ids ascend, so ties go by id; top-1 exists whatever ks holds
    order = _top_k(scores, max(feasible, default=1))
    hits = np.cumsum(np.take_along_axis(relevant, order, axis=1), axis=1)
    hits_at = {k: hits[:, k - 1].tolist() for k in feasible}

    # Python float adds in query order: numpy's pairwise sum rounds some
    # totals differently.
    p_sums = dict.fromkeys(feasible, 0.0)
    bin_sum: dict[int, float] = {}
    bin_mass: dict[int, int] = {}
    for i, (b, p1) in enumerate(zip(q_bin, hits[:, 0].tolist())):
        for k in feasible:
            p_sums[k] += hits_at[k][i] / k
        bin_sum[b] = bin_sum.get(b, 0.0) + p1
        bin_mass[b] = bin_mass.get(b, 0) + 1

    n_q = len(corpus.queries)
    precision_at: dict[int, float | None] = {
        k: (p_sums[k] / n_q if k in p_sums else None) for k in ks
    }
    quantile_p1 = {b: bin_sum[b] / bin_mass[b] for b in bin_mass}

    auc = None
    labels = index.positive[labeled].astype(np.int64)
    if 0 < labels.sum() < len(labels):
        auc = _auc_partial(scores[index.rows[labeled], p_col[labeled]], labels, 0.05)

    return EvalReport(
        split=split,
        n_queries=n_q,
        n_items=len(corpus.items),
        precision_at=precision_at,
        auc_005=auc,
        quantile_p1=quantile_p1,
        quantile_mass=bin_mass,
        n_no_truth=bin_mass.get(NO_TRUTH_BIN, 0),
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


def write_report_csv(
    report: EvalReport, path: str | Path, config_digest: str | None = None
) -> None:
    """One flat row per report: split, counts, P@k columns, AUC."""
    ks = sorted(report.precision_at)
    write_table(path, ["split", "n_queries", "n_items", *(f"p_at_{k}" for k in ks), "auc_005"],
                [[report.split, report.n_queries, report.n_items,
                  *(report.precision_at[k] for k in ks), report.auc_005]],
                config_digest and f"config_digest={config_digest}")


def write_quantile_csv(
    method: EvalReport,
    baseline: EvalReport,
    path: str | Path,
    config_digest: str | None = None,
) -> None:
    """Rows of (bin, baseline P@1, method P@1, percent gain); undefined gains
    are left empty."""
    gains = quantile_gain_report(method, baseline)
    write_table(path, ["bin", "baseline_p1", "method_p1", "gain_pct"],
                [[b, baseline.quantile_p1[b], method.quantile_p1[b], gains[b]]
                 for b in sorted(gains)],
                config_digest and f"config_digest={config_digest}")


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
    write_table(path, ["model", "fraction", "n_queries", "n_items",
                       *(f"p_at_{k}" for k in ks_all), "auc_005"],
                [[model, f"{frac:g}", rep.n_queries, rep.n_items,
                  *(rep.precision_at.get(k) for k in ks_all), rep.auc_005]
                 for model in sorted(sweeps) for frac, rep in sorted(sweeps[model].items())],
                config_digest and f"config_digest={config_digest}")
