"""Normalized bag-of-words sentence encoder with exact sparse gradients.

A sentence embedding is the L2-normalized sum of its token embeddings, so
relevance between two encoded sentences is their cosine. Gradients flow
through the normalization via the projection Jacobian (I - u u^T) / ||s||.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .corpus import Sentence, Vocab

NORM_EPS = 1e-9
# A sentence table's padding: out of every vocabulary's range, and sorted
# after every id, so a sorted row's ids come first, ascending.
_PAD = np.iinfo(np.intp).max

# splitmix64 (Steele, Lea & Flood 2014): the golden-ratio increment and the
# finalizer's two multipliers.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


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


def check_shared_vocab(a: EmbeddingModel, b: EmbeddingModel) -> None:
    """Raise VocabMismatchError unless ``a`` and ``b`` share a vocabulary: the
    same object, or an equal one."""
    if a.vocab is not b.vocab and a.vocab != b.vocab:
        raise VocabMismatchError("theta and theta0 must share a vocabulary")


@dataclass
class EncodeResult:
    """One forward pass. ``keep`` (None for a plain view) and ``rate`` let the
    backward replay a dropout view exactly."""

    embedding: np.ndarray
    prenorm_sum: np.ndarray
    token_ids: Sentence
    keep: np.ndarray | None = None
    rate: float = 0.0


def seed_words(seeds: Sequence[int]) -> np.ndarray:
    """Integer seeds as uint64 words. A seed of 2**64 or more is folded to its
    low 64 bits (taken modulo 2**64); a negative seed raises ValueError. A
    uint64 array, such as :func:`counter_hash` returns, passes as it is."""
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        return seeds
    words = [operator.index(s) for s in seeds]
    if any(w < 0 for w in words):
        raise ValueError(f"seeds must be non-negative integers, got {min(words)}")
    return np.array([w & 0xFFFFFFFFFFFFFFFF for w in words], dtype=np.uint64)


def counter_hash(seed: np.ndarray, *coords) -> np.ndarray:
    """The splitmix64 hash of broadcast non-negative integer coordinates,
    as uint64: h starts at the seed word and each coordinate c in turn sets
    h = mix(h + (c + 1) * 0x9E3779B97F4A7C15), the (c + 1)-th output of a
    splitmix64 generator whose state is h. mix is splitmix64's finalizer,
    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
    z *= 0x94D049BB133111EB; z ^= z >> 31, all modulo 2**64. Every operand
    is an array of at least one dimension, where numpy wraps silently."""
    h = np.array(seed, dtype=np.uint64, ndmin=1)
    for c in coords:
        z = h + (np.array(c, dtype=np.uint64, ndmin=1) + np.uint64(1)) * _GAMMA
        z = (z ^ (z >> np.uint64(30))) * _M1
        z = (z ^ (z >> np.uint64(27))) * _M2
        h = z ^ (z >> np.uint64(31))
    return h


def _dropout_uniforms(words: np.ndarray, length: int, dim: int) -> np.ndarray:
    """One (length, dim) block of uniforms in [0, 1) per seed word: the top 53
    bits of ``counter_hash(word, position, coordinate)`` times 2**-53."""
    h = counter_hash(words[:, None, None], np.arange(length)[:, None], np.arange(dim))
    return (h >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


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

    rate > 0 gives a dropout view: coordinate c of position j is kept when
    the 53-bit uniform of ``counter_hash(seed, j, c)`` is at least ``rate``,
    and survivors are scaled by 1/(1-rate). Two seeds give two views of the
    same sentence, the dropout-noise analogue of a masking intervention.
    rate=0 ignores the seed; else a negative seed raises ValueError.
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
        keep = _dropout_uniforms(seed_words([seed]), len(ids), model.dim)[0] >= rate
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


class SentenceTable(Sequence):
    """Sentences as a padded id matrix, the form ``encode_batch`` reads
    without building one: row i holds sentence i in sentence order in its
    first ``lengths[i]`` slots, with padding after them (an id past every
    vocabulary). Item i is sentence i as a tuple."""

    __slots__ = ("ids", "lengths")

    def __init__(self, ids: np.ndarray, lengths: np.ndarray) -> None:
        self.ids, self.lengths = ids, lengths

    @classmethod
    def of(cls, sentences: Sequence[Sequence[int]]) -> "SentenceTable":
        n = len(sentences)
        lengths = np.fromiter(map(len, sentences), np.intp, n)
        ids = np.full((n, int(lengths.max(initial=0))), _PAD)
        ids[np.arange(ids.shape[1]) < lengths[:, None]] = np.fromiter(
            chain.from_iterable(sentences), np.intp)
        return cls(ids, lengths)

    def take(self, rows: np.ndarray) -> "SentenceTable":
        """Rows ``rows`` as a table as wide as their longest sentence."""
        lengths = self.lengths.take(rows)
        width = int(lengths.max(initial=0))
        return SentenceTable(self.ids.take(rows, axis=0)[:, :width], lengths)

    def drop(self, rows: np.ndarray, dropped: np.ndarray) -> "SentenceTable":
        """Rows ``rows`` with the slots where ``dropped`` (one row each, as
        wide as this table) is True removed; the kept ids keep their order."""
        lengths = self.lengths.take(rows)
        keep = ~dropped & (np.arange(dropped.shape[1]) < lengths[:, None])
        kept = np.count_nonzero(keep, axis=1)
        ids = np.full((len(rows), int(kept.max(initial=0))), _PAD)
        ids[np.arange(ids.shape[1]) < kept[:, None]] = self.ids.take(rows, axis=0)[keep]
        return SentenceTable(ids, kept)

    @staticmethod
    def concat(tables: Sequence["SentenceTable"]) -> "SentenceTable":
        """The tables' rows in order, padded to the widest."""
        ids = np.full((sum(map(len, tables)), max(t.ids.shape[1] for t in tables)), _PAD)
        at = 0
        for t in tables:
            rows, w = t.ids.shape
            ids[at:at + rows, :w] = t.ids
            at += rows
        return SentenceTable(ids, np.concatenate([t.lengths for t in tables]))

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, i: int) -> Sentence:
        i = range(len(self))[i]  # an index out of range raises IndexError
        return tuple(self.ids[i, :self.lengths[i]].tolist())


@dataclass
class BatchEncodeResult:
    """One batched forward: the unit rows (zero where ``ok`` is False) and what
    the backward replays: the pre-normalization norms, the padded id matrix
    (a plain row's ids ascending, a dropout row's in sentence order), its
    mask of real positions (row i's first len(sentences[i])), the rates and,
    with dropout, the keep mask of occurrence j of row i at ``keep[i, j]``."""

    embeddings: np.ndarray
    ok: np.ndarray
    norms: np.ndarray
    ids: np.ndarray
    real: np.ndarray
    rates: np.ndarray
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
    zero. Sentences other than a :class:`SentenceTable` become one; each
    plain row's ids are sorted, the order ``encode`` sums in, and a dropout
    row stays in sentence order, which its keep mask follows."""
    table = sentences if isinstance(sentences, SentenceTable) else SentenceTable.of(sentences)
    n, (v, d) = len(table), model.table.shape
    for name, given in (("rates", rates), ("seeds", seeds)):
        if given is not None and len(given) != n:
            raise ValueError(f"{name} has length {len(given)}, sentences {n}")
    rate = np.zeros(n) if rates is None else np.asarray(rates, dtype=np.float64)
    if rates is not None and not ((rate >= 0.0) & (rate < 1.0)).all():
        raise EncodeError(f"dropout rates must be in [0, 1), got {rates}")
    drop = rate.nonzero()[0]  # the dropout rows
    ids, lengths = table.ids, table.lengths
    if not len(drop):
        ids = np.sort(ids, axis=1)  # padding sorts after every id
    elif len(drop) < n:
        plain = rate == 0.0
        ids = ids.copy()
        ids[plain] = np.sort(ids[plain], axis=1)
    width = ids.shape[1]
    real = np.arange(width) < lengths[:, None]
    vectors = model.table.take(ids, axis=0, mode="clip")  # a bad id's row fails below
    keep = None
    if len(drop):
        # One hash over every dropout row; what falls on padding is never read.
        # A list's seeds become an object array, which keeps any integer.
        seeds = np.zeros(n, np.uint64) if seeds is None else np.asarray(
            seeds, dtype=getattr(seeds, "dtype", object))
        keep = np.ones(vectors.shape, dtype=bool)
        keep[drop] = _dropout_uniforms(seed_words(seeds[drop]), width, d) >= rate[drop, None, None]
        vectors = vectors * keep
    # Padding is left out, so each row sums exactly as encode's does.
    sums = np.add.reduce(vectors, axis=1, where=real[..., None])
    if keep is not None:
        sums = sums / (1.0 - rate)[:, None]
    norms = np.sqrt(row_dots(sums, sums))
    # An empty or degenerate sum fails, and so does a row with an id outside
    # the vocabulary (a negative id wraps past v); a non-finite sum encodes,
    # as in encode. One maximum over the real slots clears the common case.
    ok = ~(norms <= NORM_EPS)
    if ids.view(np.uintp).max(where=real, initial=0) >= v:
        ok &= ~np.logical_or.reduce(ids.view(np.uintp) >= v, axis=1, where=real)
    if ok.all():
        emb = sums / norms[:, None]
    else:  # a failing row divides by 1, then is zeroed
        emb = sums / np.where(ok, norms, 1.0)[:, None]
        emb[~ok] = 0.0
    return BatchEncodeResult(emb, ok, norms, ids, real, rate, keep)


def sum_rows(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``values`` summed per integer key, keys in order of first
    appearance. A stable sort groups the keys, and one ``np.add.at`` over a
    flat index (its fast path) adds a key's rows in the order they come onto
    -0.0: one row stays bit for bit, and rows all -0.0 sum to -0.0."""
    order = keys.argsort(kind="stable")
    ranked = keys[order]
    new = ranked[1:] != ranked[:-1]
    if np.count_nonzero(new) == len(new):  # no key repeats
        return keys, values
    head = np.empty(len(keys), dtype=bool)  # a key's first row in sorted order
    head[0], head[1:] = True, new
    first = order[head]  # where each key first appears, keys ascending
    n, d = len(first), values.shape[1]
    out = np.empty(n * d)  # sorted row i adds to slot head.cumsum()[i] - 1
    out.fill(-0.0)
    np.add.at(out, (head.cumsum()[:, None] * d + np.arange(-d, 0)).ravel(),
              values.take(order, axis=0).ravel())
    by_first = first.argsort()
    return keys.take(first.take(by_first)), out.reshape(n, d).take(by_first, axis=0)


def relevance(model: EmbeddingModel, x: Sentence, z: Sentence) -> float:
    """Cosine relevance score between two independently encoded sentences."""
    return float(encode(model, x).embedding @ encode(model, z).embedding)


def encode_backward(result: EncodeResult, upstream: np.ndarray) -> dict[int, np.ndarray]:
    """Gradient of upstream^T result.embedding w.r.t. the touched table rows of
    the model and view that produced ``result``: the one-row
    :func:`encode_batch_backward`."""
    u, s = result.embedding, result.token_ids
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != u.shape:
        raise ValueError(f"upstream must have shape {u.shape}, got {upstream.shape}")
    ids = np.array([s if result.rate else sorted(s)], dtype=np.intp)
    keep = None if result.keep is None else result.keep[None]
    view = BatchEncodeResult(u[None], np.ones(1, dtype=bool),
                             np.array([np.linalg.norm(result.prenorm_sum)]), ids,
                             np.ones(ids.shape, dtype=bool), np.array([result.rate]), keep)
    keys, grads = encode_batch_backward(view, [0], upstream[None])
    return dict(zip(keys.tolist(), grads))


def encode_batch_backward(
    result: BatchEncodeResult, rows: Sequence[int], upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the sum over uses i of ``upstream[i]`` dotted with embedding
    row ``rows[i]``: the token ids in order of first appearance and one row
    each. A plain use adds each distinct id's count times its projected row,
    ids ascending; a dropout use adds that row masked by each occurrence's
    keep row. Both read the forward's id matrix, where a run of equal ids
    along a plain row is one distinct id and a dropout row's every position
    a run of one. One :func:`sum_rows` adds all of it in use order onto
    -0.0, so a token whose every contribution is -0.0 gets -0.0."""
    rows = np.asarray(rows, dtype=np.intp)
    u = result.embeddings.take(rows, axis=0)
    g = (upstream - u * row_dots(u, upstream)[:, None]) / result.norms.take(rows)[:, None]
    real = result.real.take(rows, axis=0)
    use, j = real.nonzero()
    tok = result.ids.take(rows, axis=0)[real]  # the uses' ids, flat in use order
    # A run starts each use, each new id of a plain row (whose ids ascend) and
    # every position of a dropout row; a last sentinel closes the last run.
    start = np.empty(len(tok) + 1, dtype=bool)
    start[0] = start[-1] = True
    np.not_equal(tok[1:], tok[:-1], out=start[1:-1])
    start[1:-1] |= j[1:] == 0
    if result.keep is not None:
        rates = result.rates.take(rows)
        start[:-1] |= (rates != 0.0).take(use)
    at = start.nonzero()[0]
    count, at = at[1:] - at[:-1], at[:-1]
    use = use.take(at)
    grads = count[:, None] * g.take(use, axis=0)
    if result.keep is not None:
        grads = result.keep[rows.take(use), j.take(at)] * grads / (1.0 - rates)[use, None]
    return sum_rows(tok.take(at), grads)
