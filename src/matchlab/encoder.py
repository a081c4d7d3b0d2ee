"""Normalized bag-of-words sentence encoder with exact sparse gradients.

A sentence embedding is the L2-normalized sum of its token embeddings, so
relevance between two encoded sentences is their cosine. Gradients flow
through the normalization via the projection Jacobian (I - u u^T) / ||s||.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import repeat
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
    ids = np.asarray(sentence, dtype=np.intp)
    if len(ids) == 0 or ids.min() < 0 or ids.max() >= model.vocab_size:
        raise encode_error(model, sentence, 0.0)  # the norm is not read
    keep = None
    if rate == 0.0:
        # Summing in sorted-id order makes token-order invariance bit-exact.
        s = model.table[np.sort(ids)].sum(axis=0)
    else:
        keep = np.random.default_rng(seed).random((len(ids), model.dim)) >= rate
        s = (model.table[ids] * keep).sum(axis=0) / (1.0 - rate)
    n = float(np.linalg.norm(s))
    if n <= NORM_EPS:
        raise encode_error(model, sentence, n)
    return EncodeResult(s / n, s, tuple(sentence), keep, rate)


def encode_error(model: EmbeddingModel, sentence: Sequence[int], norm: float) -> EncodeError:
    """The error every path raises for a sentence that does not encode, whose
    pre-normalization sum has norm ``norm``: an empty sentence, else an id
    outside the vocabulary, else a degenerate norm."""
    if len(sentence) == 0:
        return EncodeError("cannot encode an empty sentence")
    ids = np.asarray(sentence, dtype=np.intp)
    if ids.min() < 0 or ids.max() >= model.vocab_size:
        return EncodeError(
            f"token id out of range for vocab of size {model.vocab_size}: {sentence}"
        )
    return DegenerateNormError(
        f"pre-normalization sum has norm {norm:.3e} <= {NORM_EPS:g} for sentence {tuple(sentence)}"
    )


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row i of ``a`` dotted with row i of ``b`` (or with ``b``, one vector),
    each its own dot rounded as ``float(a[i] @ b[i])``: a matrix-vector product
    can round equal rows apart, and duplicate items must tie for the id
    tie-break. Leading axes broadcast: ``row_dots(z, q[:, None])[i, j]`` is
    ``float(z[j] @ q[i])``."""
    return np.matmul(a[..., None, :], np.asarray(b)[..., None])[..., 0, 0]


@dataclass
class BatchEncodeResult:
    """One batched forward: the unit rows (zero where ``ok`` is False) and what
    the backward replays, the views, their pre-normalization norms and, with
    dropout, the keep mask of occurrence j of row i at ``keep[i, j]``."""

    embeddings: np.ndarray
    ok: np.ndarray
    norms: np.ndarray
    sentences: Sequence[Sequence[int]]
    rates: Sequence[float]
    keep: np.ndarray | None


def encode_batch(
    model: EmbeddingModel,
    sentences: Sequence[Sequence[int]],
    rates: Sequence[float] | None = None,
    seeds: Sequence[int] | None = None,
) -> BatchEncodeResult:
    """The batched forward: row i bit-identical to
    ``encode(model, sentences[i], rates[i], seeds[i]).embedding`` (rates and
    seeds default to 0). Where ``encode`` would raise (empty sentence, id
    outside the vocabulary, degenerate norm), ``ok[i]`` is False and row i is
    zero."""
    n, (v, d) = len(sentences), model.table.shape
    for name, given in (("rates", rates), ("seeds", seeds)):
        if given is not None and len(given) != n:
            raise ValueError(f"{name} has length {len(given)}, sentences {n}")
    if rates is None:
        rates = [0.0] * n
    elif not all(0.0 <= r < 1.0 for r in rates):
        raise EncodeError(f"dropout rates must be in [0, 1), got {rates}")
    if seeds is None:
        seeds = [0] * n
    lengths = [len(s) for s in sentences]
    width = max(lengths, default=0)
    # A plain row's ids ascending, the order encode sums in; a dropout row's in
    # sentence order, which its keep mask follows.
    ids = np.array([(list(s) if r else sorted(s)) + [0] * (width - k)
                    for s, r, k in zip(sentences, rates, lengths)], dtype=np.intp).reshape(n, width)
    bad_id = ids.view(np.uintp) >= v  # a negative id wraps past v
    vectors = model.table.take(ids, axis=0, mode="clip")  # a bad id's row fails below
    keep = None
    if any(rates):
        keep = np.ones(vectors.shape, dtype=bool)
        for i in (i for i, r in enumerate(rates) if r):
            keep[i, :lengths[i]] = np.random.default_rng(seeds[i]).random((lengths[i], d)) >= rates[i]
        vectors = vectors * keep
    # Padding is left out, so each row sums exactly as encode's does.
    real = np.greater.outer(lengths, np.arange(width))
    sums = vectors.sum(axis=1, where=real[..., None])
    if keep is not None:
        sums = sums / (1.0 - np.array(rates))[:, None]
    norms = np.sqrt(row_dots(sums, sums))
    # An empty or degenerate sum fails; a non-finite one encodes, as in encode.
    ok = ~(bad_id.any(axis=1) | (norms <= NORM_EPS))
    emb = np.divide(sums, norms[:, None], out=np.zeros((n, d)), where=ok[:, None])
    return BatchEncodeResult(emb, ok, norms, sentences, rates, keep)


def sum_rows(keys: list[int], values: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The rows of ``values`` summed per integer key, keys in order of first
    appearance. A key's rows are added in the order they come, onto -0.0, so
    a key with one row keeps it bit for bit."""
    index: dict[int, int] = {}
    slot = [index.setdefault(key, len(index)) for key in keys]
    if len(index) == len(slot):
        return keys, values
    n, d = len(index), values.shape[1]
    out = np.full(n * d, -0.0)
    # One flat index per entry, in row order: np.add.at's fast 1-d path.
    np.add.at(out, (np.array(slot)[:, None] * d + np.arange(d)).ravel(), values.ravel())
    return list(index), out.reshape(n, d)


def relevance(model: EmbeddingModel, x: Sentence, z: Sentence) -> float:
    """Cosine relevance score between two independently encoded sentences."""
    return float(encode(model, x).embedding @ encode(model, z).embedding)


def encode_backward(result: EncodeResult, upstream: np.ndarray) -> dict[int, np.ndarray]:
    """Gradient of upstream^T result.embedding w.r.t. the touched table rows of
    the model and view that produced ``result``: the one-row
    :func:`encode_batch_backward`."""
    u = result.embedding
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != u.shape:
        raise ValueError(f"upstream must have shape {u.shape}, got {upstream.shape}")
    view = BatchEncodeResult(u[None], np.ones(1, dtype=bool),
                             np.array([np.linalg.norm(result.prenorm_sum)]),
                             [result.token_ids], [result.rate],
                             None if result.keep is None else result.keep[None])
    keys, grads = encode_batch_backward(view, [0], upstream[None])
    return dict(zip(keys, grads))  # use 0: a key is its token id


def encode_batch_backward(
    result: BatchEncodeResult, rows: Sequence[int], upstream: np.ndarray
) -> tuple[list[int], np.ndarray]:
    """Per use i, the gradient of ``upstream[i]`` dotted with embedding row
    ``rows[i]``: the keys ``i << 32 | token id`` in use order and their
    gradient rows."""
    u = result.embeddings.take(rows, axis=0)
    g = (upstream - u * row_dots(u, upstream)[:, None]) / result.norms.take(rows)[:, None]
    uses, tokens, count, occurrence = [], [], [], []  # occurrence: (view row, position)
    for i, r in enumerate(rows):
        # A plain view's id takes its count times the row; each occurrence in
        # a dropout view takes the row masked by its own keep row.
        s = result.sentences[r]
        ids = s if result.rates[r] else sorted(set(s))
        uses += repeat(i, len(ids))
        tokens += ids
        count += [1] * len(s) if result.rates[r] else map(s.count, ids)
        occurrence += zip(repeat(r), range(len(ids)))  # a plain row's keep is all True
    keys = [i << 32 | tok for i, tok in zip(uses, tokens)]
    grads = np.array(count)[:, None] * g.take(uses, axis=0)
    if result.keep is None:
        return keys, grads  # a plain view names each id once
    row, j = np.array(occurrence, dtype=np.intp).reshape(-1, 2).T
    grads = result.keep[row, j] * grads / (1.0 - np.array(result.rates))[row, None]
    return sum_rows(keys, grads)
