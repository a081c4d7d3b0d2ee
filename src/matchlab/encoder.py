"""Normalized bag-of-words sentence encoder with exact sparse gradients.

A sentence embedding is the L2-normalized sum of its token embeddings, so
relevance between two encoded sentences is their cosine. Gradients flow
through the normalization via the projection Jacobian (I - u u^T) / ||s||.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .corpus import Sentence, Vocab

NORM_EPS = 1e-9


class EncodeError(ValueError):
    """A sentence that cannot be encoded under the given model."""


class DegenerateNormError(EncodeError):
    """Pre-normalization sum too close to zero for a stable direction."""


class VocabMismatchError(ValueError):
    """Two models were combined that do not share a vocabulary."""


@dataclass
class EmbeddingModel:
    """An embedding table bound to its vocabulary.

    Frozen models are reference anchors: their tables are marked read-only
    and training must never touch them.
    """

    table: np.ndarray
    vocab: Vocab
    frozen: bool = False

    def __post_init__(self) -> None:
        table = np.asarray(self.table, dtype=np.float64)
        if table.ndim != 2:
            raise ValueError(f"table must be 2-d, got shape {table.shape}")
        if table.shape[0] != len(self.vocab):
            raise VocabMismatchError(
                f"table has {table.shape[0]} rows but vocab has {len(self.vocab)} entries"
            )
        if table.shape[1] < 2:
            raise ValueError("embedding dimension must be >= 2")
        if not np.all(np.isfinite(table)):
            raise ValueError("table contains non-finite entries")
        self.table = table
        if self.frozen:
            self.table.setflags(write=False)

    @property
    def vocab_size(self) -> int:
        return self.table.shape[0]

    @property
    def dim(self) -> int:
        return self.table.shape[1]

    def copy(self, frozen: bool = False) -> "EmbeddingModel":
        return EmbeddingModel(self.table.copy(), self.vocab, frozen=frozen)

    def freeze(self) -> "EmbeddingModel":
        self.frozen = True
        self.table.setflags(write=False)
        return self

    def checksum(self) -> str:
        return hashlib.sha256(np.ascontiguousarray(self.table).tobytes()).hexdigest()


@dataclass
class EncodeResult:
    """One forward pass. ``keep`` (None for a plain view) and ``rate`` let the
    backward replay a dropout view exactly."""

    embedding: np.ndarray
    prenorm_sum: np.ndarray
    token_ids: Sentence
    keep: np.ndarray | None = None
    rate: float = 0.0


def init_model(vocab: Vocab, dim: int = 32, seed: int = 0) -> EmbeddingModel:
    """Uniform init in [-0.5/dim, 0.5/dim], the scale that keeps early
    bag-of-words sums well away from the degenerate-norm guard."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    rng = np.random.default_rng(seed)
    half = 0.5 / dim
    table = rng.uniform(-half, half, size=(len(vocab), dim))
    return EmbeddingModel(table, vocab)


def encode(
    model: EmbeddingModel, sentence: Sequence[int], rate: float = 0.0, seed: int = 0
) -> EncodeResult:
    """Unit-norm sum of token embeddings; errors if the sum nearly cancels.

    rate > 0 gives a dropout view: each token-embedding coordinate is zeroed
    independently with probability ``rate`` and survivors are scaled by
    1/(1-rate). Two seeds give two views of the same sentence, the
    dropout-noise analogue of a masking intervention. rate=0 ignores the seed.
    """
    if not (0.0 <= rate < 1.0):
        raise EncodeError(f"dropout rate must be in [0, 1), got {rate}")
    if len(sentence) == 0:
        raise EncodeError("cannot encode an empty sentence")
    ids = np.asarray(sentence, dtype=np.intp)
    if ids.min() < 0 or ids.max() >= model.vocab_size:
        raise EncodeError(
            f"token id out of range for vocab of size {model.vocab_size}: {sentence}"
        )
    keep = None
    if rate == 0.0:
        # Summing in sorted-id order makes token-order invariance bit-exact.
        s = model.table[np.sort(ids)].sum(axis=0)
    else:
        keep = np.random.default_rng(seed).random((len(ids), model.dim)) >= rate
        s = (model.table[ids] * keep).sum(axis=0) / (1.0 - rate)
    n = float(np.linalg.norm(s))
    if n <= NORM_EPS:
        raise DegenerateNormError(
            f"pre-normalization sum has norm {n:.3e} <= {NORM_EPS:g} for sentence {tuple(sentence)}"
        )
    return EncodeResult(s / n, s, tuple(sentence), keep, rate)


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row i of ``a`` dotted with row i of ``b`` (or with ``b``, one vector),
    each its own dot rounded as ``float(a[i] @ b[i])``: a matrix-vector product
    can round equal rows apart, and duplicate items must tie for the id
    tie-break."""
    return np.matmul(a[:, None, :], np.asarray(b)[..., None])[:, 0, 0]


def encode_batch(
    model: EmbeddingModel, sentences: Sequence[Sequence[int]]
) -> tuple[np.ndarray, np.ndarray]:
    """The read path's forward: ``(embeddings, ok)``, row i bit-identical to
    ``encode(model, sentences[i]).embedding``. Where ``encode`` would raise
    (empty sentence, id outside the vocabulary, degenerate norm), ``ok[i]`` is
    False and row i is zero."""
    n, (v, d) = len(sentences), model.table.shape
    lengths = np.fromiter(map(len, sentences), dtype=np.intp, count=n)
    flat = np.fromiter(chain.from_iterable(sentences), dtype=np.intp,
                       count=int(lengths.sum()))
    row = np.repeat(np.arange(n), lengths)
    bad_id = (flat < 0) | (flat >= v)
    ok = lengths > 0
    ok[row[bad_id]] = False
    flat[bad_id] = 0
    # Each row's ids in ascending order, then zero padding: every row sums in
    # the order encode uses, and adding zeros changes no bit.
    order = np.lexsort((flat, row))
    col = np.arange(flat.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    gathered = np.zeros((n, int(lengths.max(initial=0)), d))
    gathered[row, col] = model.table[flat[order]]
    sums = gathered.sum(axis=1)
    norms = np.sqrt(row_dots(sums, sums))
    ok &= norms > NORM_EPS
    emb = np.zeros((n, d))
    emb[ok] = sums[ok] / norms[ok, None]
    return emb, ok


def relevance(model: EmbeddingModel, x: Sentence, z: Sentence) -> float:
    """Cosine relevance score between two independently encoded sentences."""
    return float(encode(model, x).embedding @ encode(model, z).embedding)


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
