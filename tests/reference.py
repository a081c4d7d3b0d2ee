"""Per-sentence reference implementations, the oracles of the batched core.

``encode_backward`` here is the per-sentence backward the package used
before its only backward became ``encode_batch_backward``; the property
tests hold the batched backward, and the package's one-row
``encode_backward``, to it byte for byte.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from matchlab import EncodeResult


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
