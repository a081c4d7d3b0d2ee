"""Per-sentence and per-row reference implementations, the oracles of the
batched core.

``encode_backward`` here is the per-sentence backward the package used
before its only backward became ``encode_batch_backward``, and
``encode_batch_backward`` adds its contributions over several uses, one
flat sum per token id in use order. The property tests hold the batched
backward to them byte for byte: one use gives the per-sentence rows in the
per-sentence key order, as the package's one-row ``encode_backward`` must.
``SparseAdam`` and ``mine_negatives`` are the optimizer and the miner as
they were before they worked on whole arrays: Adam one touched row at a
time with per-row moment dicts, and mining one example at a time (a
``MiningExample``: query id and sentence, item id and sentence) over its
id-sorted candidates. The property tests hold the trainer's array versions
to them byte for byte. ``evaluate`` is the evaluation as it was before it
worked on arrays: one query at a time, with sets of relevant ids, a keyed
``min`` for each query's anchor and a list of (score, label) pairs for the
partial AUC. It counts each item's pairs and bins the items itself, walking
``corpus.pairs``, so it reads nothing from the pair index it checks. The
property tests hold the array ``evaluate`` to its reports, JSON for JSON.
``splitmix64``, ``mask_fraction`` and ``dropout_keep`` are the hashed
intervention stream written with Python integers, one position or
coordinate at a time: the property tests hold the package's uint64 arrays,
padded masks and keep masks to them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import AbstractSet, Mapping, Sequence

import numpy as np

from matchlab import (
    Corpus,
    EmbeddingModel,
    EncodeResult,
    EvalError,
    EvalReport,
    Sentence,
    auc_partial,
    encode_batch,
    row_dots,
)
from matchlab.encoder import encode_error
from matchlab.evaluation import NO_TRUTH_BIN, _encode_items


def encode_backward(result: EncodeResult, upstream: np.ndarray) -> dict[int, np.ndarray]:
    """Gradient of upstream^T result.embedding w.r.t. the touched table rows of
    the model and view that produced ``result``.

    Every occurrence of a token contributes the same projected vector, so a
    token repeated k times accumulates k of them; in a dropout view each
    occurrence's vector is masked by its own keep row.
    """
    u = result.embedding
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != u.shape:
        raise ValueError(f"upstream must have shape {u.shape}, got {upstream.shape}")
    g = (upstream - u * (u @ upstream)) / float(np.linalg.norm(result.prenorm_sum))
    if result.keep is None:
        return {tok: cnt * g for tok, cnt in sorted(Counter(result.token_ids).items())}
    grads: dict[int, np.ndarray] = {}
    for keep, tok in zip(result.keep, result.token_ids):
        contrib = keep * g / (1.0 - result.rate)
        grads[tok] = grads[tok] + contrib if tok in grads else contrib
    return grads


def encode_batch_backward(views: Sequence[EncodeResult],
                          upstream: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Gradient of the sum over uses i of upstream[i]^T views[i].embedding:
    token ids in order of first appearance and one row each, every
    contribution added in use order onto -0.0. A plain view contributes its
    count times the projected vector per distinct id, ids ascending; a
    dropout view contributes the vector masked by each occurrence's keep row.
    """
    sums: dict[int, np.ndarray] = {}
    for view, up in zip(views, upstream):
        u = view.embedding
        g = (up - u * (u @ up)) / float(np.linalg.norm(view.prenorm_sum))
        if view.keep is None:
            parts = [(tok, cnt * g) for tok, cnt in sorted(Counter(view.token_ids).items())]
        else:
            parts = [(tok, keep * g / (1.0 - view.rate))
                     for keep, tok in zip(view.keep, view.token_ids)]
        for tok, part in parts:
            sums[tok] = sums.get(tok, np.full(len(g), -0.0)) + part
    return list(sums), np.array(list(sums.values())).reshape(len(sums), upstream.shape[1])


class SparseAdam:
    """Adam whose moment entries exist only for rows that took a gradient;
    bias correction counts each row's own updates."""

    def __init__(self, lr: float, beta1: float, beta2: float, eps: float) -> None:
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m: dict[int, np.ndarray] = {}
        self.v: dict[int, np.ndarray] = {}
        self.t: dict[int, int] = {}

    def step(self, table: np.ndarray, grads: Mapping[int, np.ndarray]) -> None:
        for tok in sorted(grads):
            g = grads[tok]
            t = self.t.get(tok, 0) + 1
            self.t[tok] = t
            m = self.m.get(tok)
            v = self.v.get(tok)
            if m is None:
                m = np.zeros_like(g)
                v = np.zeros_like(g)
            m = self.beta1 * m + (1.0 - self.beta1) * g
            v = self.beta2 * v + (1.0 - self.beta2) * (g * g)
            self.m[tok] = m
            self.v[tok] = v
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            table[tok] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass(frozen=True)
class MiningExample:
    query_id: str
    x: Sentence
    item_id: str
    z_pos: Sentence


def mine_negatives(theta, batch: Sequence[MiningExample],
                   relevant: Mapping[str, AbstractSet[str]],
                   strategy: str = "in-batch-hardest",
                   seed: int = 0) -> list[tuple[str, Sentence] | None]:
    """Pick an in-batch negative item for each example, one example at a time:
    its candidates (the other examples' first encodable positives, not
    relevant to the query) sorted by id, the highest-similarity one or a
    uniform draw."""
    enc = encode_batch(theta, [ex.x for ex in batch] + [ex.z_pos for ex in batch])
    (q, z), (q_ok, z_ok) = np.split(enc.embeddings, 2), np.split(enc.ok, 2)
    item_row: dict[str, int] = {}  # each item's first encodable occurrence
    for j, ex in enumerate(batch):
        if z_ok[j]:
            item_row.setdefault(ex.item_id, j)

    rng = np.random.default_rng(seed)
    out: list[tuple[str, Sentence] | None] = []
    for i, ex in enumerate(batch):
        rel = relevant.get(ex.query_id, frozenset())
        cands = sorted(
            iid for iid in item_row
            if iid != ex.item_id and iid not in rel
        )
        if not cands or not q_ok[i]:
            out.append(None)
            continue
        if strategy == "in-batch-hardest":
            sims = row_dots(z[[item_row[c] for c in cands]], q[i])
            # cands are id-sorted and argmax keeps the first maximum, so ties
            # go to the smallest id
            pick = cands[int(np.argmax(sims))]
        else:
            pick = cands[int(rng.integers(len(cands)))]
        out.append((pick, batch[item_row[pick]].z_pos))
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
    pair_counts = Counter(p.item_id for p in corpus.pairs)

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
    # n_bins equal-count bins by ascending (pair count, id), the
    # lower-frequency bins taking the remainder
    base, rem = divmod(len(corpus.items), n_bins)
    ranked = sorted(corpus.items, key=lambda iid: (pair_counts[iid], iid))
    bins = dict(zip(ranked, (b for b in range(n_bins) for _ in range(base + (b < rem)))))
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


def splitmix64(seed: int, *coords: int) -> int:
    """The counter hash with Python integers: from h = seed mod 2**64, each
    coordinate c sets h to splitmix64's finalizer of h + (c + 1) * gamma."""
    mask = 2**64 - 1
    h = seed & mask
    for c in coords:
        z = (h + (c + 1) * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        h = z ^ (z >> 31)
    return h


def mask_fraction(sentence: Sentence, fraction: float, seed: int) -> Sentence:
    """Drop the k positions with the smallest (hash, position), each position
    hashed on its own."""
    n = len(sentence)
    k = min(max(int(math.floor(fraction * n + 0.5)), 1), n - 1)
    drop = set(sorted(range(n), key=lambda j: (splitmix64(seed, j), j))[:k])
    return tuple(tok for j, tok in enumerate(sentence) if j not in drop)


def dropout_keep(seed: int, length: int, dim: int, rate: float) -> np.ndarray:
    """Keep coordinate c of position j when the top 53 bits of its hash, as
    a fraction of 2**53, are at least ``rate``."""
    return np.array([[(splitmix64(seed, j, c) >> 11) / 2**53 >= rate for c in range(dim)]
                     for j in range(length)], dtype=bool).reshape(length, dim)
