"""Per-sentence and per-row reference implementations, the oracles of the
batched core.

``encode_backward`` here is the per-sentence backward the package used
before its only backward became ``encode_batch_backward``; the property
tests hold the batched backward, and the package's one-row
``encode_backward``, to it byte for byte. ``SparseAdam`` and
``mine_negatives`` are the optimizer and the miner as they were before they
worked on whole arrays: Adam one touched row at a time with per-row moment
dicts, and mining one example at a time over its id-sorted candidates. The
property tests hold the trainer's array versions to them byte for byte.
"""

from __future__ import annotations

from collections import Counter
from typing import AbstractSet, Mapping, Sequence

import numpy as np

from matchlab import EncodeResult, MiningExample, Sentence, encode_batch, row_dots


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
