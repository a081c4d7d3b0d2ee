"""Seeded training loop with in-batch negative mining and sparse Adam.

Determinism contract: identical (corpus, initial table, config) produce a
bit-identical final table. All randomness flows from config.seed through one
generator in a fixed draw order.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Corpus, Vocab, write_table
from .encoder import (
    DegenerateNormError,
    EmbeddingModel,
    SentenceTable,
    check_shared_vocab,
    encode_batch,
    row_dots,
)
from .objectives import (
    Batch,
    RegularizerConfig,
    SparseGradient,
    TableExamples,
    build_itvaug,
    total_loss,
)

CHECKPOINT_MAGIC = b"ITVREG1"

LOSS_KINDS = ("contrastive", "mse")
NEGATIVE_STRATEGIES = ("in-batch-hardest", "in-batch-random")
ADAM_BETAS_EPS = (0.9, 0.999, 1e-8)  # Adam's beta1, beta2 and eps


class TrainError(RuntimeError):
    """Training could not proceed or produced an unusable state."""


class CheckpointError(ValueError):
    """A checkpoint file that does not match the expected layout."""


@dataclass(frozen=True)
class TrainConfig:
    loss_kind: str = "contrastive"
    regularizer: RegularizerConfig = field(default_factory=RegularizerConfig)
    epochs: int = 200
    batch_size: int = 32
    learning_rate: float = 1e-4
    seed: int = 0
    negative_strategy: str = "in-batch-hardest"

    def __post_init__(self) -> None:
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")
        if self.negative_strategy not in NEGATIVE_STRATEGIES:
            raise ValueError(f"unknown negative strategy {self.negative_strategy!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.loss_kind == "contrastive" and self.batch_size < 2:
            raise ValueError("contrastive training needs batch_size >= 2 for mining")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        # lr = 0 is allowed as a no-op probe; updates become exact zeros.
        if not (0.0 <= self.learning_rate < math.inf):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")


@dataclass
class TrainRun:
    theta: EmbeddingModel
    trace: list[tuple[float, float, float]]
    skipped: dict[str, int]


def mine_negatives(
    theta: EmbeddingModel,
    table: SentenceTable,
    x_rows: np.ndarray,
    z_rows: np.ndarray,
    queries: np.ndarray,
    items: np.ndarray,
    relevant: np.ndarray,
    strategy: str,
    seed: int,
) -> np.ndarray:
    """Pick an in-batch negative item for each example.

    Example i's query sentence and positive are rows ``x_rows[i]`` and
    ``z_rows[i]`` of ``table``, its query is ``queries[i]`` and its item
    ``items[i]``, and ``relevant[query, item]`` marks ground truth; items
    are numbered in id order. Candidates are the other examples' positive
    items that are not relevant to the query. 'in-batch-hardest' takes the
    highest-similarity candidate under the current theta (ties toward the
    smaller item id); 'in-batch-random' draws uniformly. Returns, for each
    example, the example whose positive is its negative (that item's first
    encodable occurrence), or -1 when it has no valid candidate.
    """
    if strategy not in NEGATIVE_STRATEGIES:
        raise ValueError(f"unknown negative strategy {strategy!r}")
    n = len(x_rows)
    if n < 2:
        raise ValueError("in-batch mining needs at least 2 examples")
    enc = encode_batch(theta, table.take(np.concatenate((x_rows, z_rows))))
    q, z = enc.embeddings[:n], enc.embeddings[n:]
    at = enc.ok[n:].nonzero()[0]
    cands, first = np.unique(items.take(at), return_index=True)  # ids ascending
    item_row = at.take(first)  # each candidate item's first encodable occurrence
    allowed = ~relevant[queries[:, None], cands]
    allowed &= cands != items[:, None]
    allowed &= enc.ok[:n, None]
    has = allowed.any(axis=1)
    if not has.any():  # also no candidate column at all
        return np.full(n, -1)
    if strategy == "in-batch-hardest":
        sims = row_dots(z.take(item_row, axis=0), q[:, None])
        # Columns are id-sorted and argmax keeps the first maximum, so ties go
        # to the smallest id; a masked column scores -inf, below any cosine.
        pick = np.where(allowed, sims, -np.inf).argmax(axis=1)
    else:  # one uniform draw over each row's allowed columns, rows in order
        counts = np.count_nonzero(allowed, axis=1)
        pick = np.zeros(n, dtype=np.intp)
        draw = np.random.default_rng(seed).integers(counts[has])
        pick[has] = (allowed[has].cumsum(axis=1) > draw[:, None]).argmax(axis=1)
    return np.where(has, item_row.take(pick, mode="clip"), -1)


class _SparseAdam:
    """Adam over dense moment tables whose rows move only when they take a
    gradient; bias correction counts each row's own updates."""

    def __init__(self, lr: float, beta1: float, beta2: float, eps: float) -> None:
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m: np.ndarray | None = None  # (V, d), made at the first step
        self.v: np.ndarray | None = None
        self.t: np.ndarray | None = None  # per-row update count
        self.corr = np.zeros((0, 2))  # row k: 1 - beta1**k, 1 - beta2**k

    def step(self, table: np.ndarray, grads: SparseGradient) -> None:
        if not len(grads):
            return
        if self.m is None:
            self.m, self.v = np.zeros_like(table), np.zeros_like(table)
            self.t = np.zeros(len(table), dtype=np.int64)
        ids, g = grads.ids, grads.rows
        t = self.t[ids] + 1
        self.t[ids] = t
        m = self.beta1 * self.m[ids] + (1.0 - self.beta1) * g
        v = self.beta2 * self.v[ids] + (1.0 - self.beta2) * (g * g)
        self.m[ids] = m
        self.v[ids] = v
        # The table holds Python's ** (np.power rounds some of these powers
        # differently) and doubles when a count outgrows it.
        if t.max() >= len(self.corr):
            self.corr = np.array([(1.0 - self.beta1 ** k, 1.0 - self.beta2 ** k)
                                  for k in range(2 * int(t.max()) + 1)])
        corr = self.corr[t]
        m_hat = m / corr[:, :1]
        v_hat = v / corr[:, 1:]
        table[ids] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def train(
    corpus_train: Corpus,
    theta_init: EmbeddingModel,
    theta0: EmbeddingModel,
    config: TrainConfig,
) -> TrainRun:
    """Fit theta starting from theta_init, anchored to the frozen theta0.

    Contrastive mode walks the queries each epoch, drawing one seeded positive
    per query and mining negatives in-batch; MSE mode walks the labeled pairs.
    Returns the trained model, a per-epoch (erm, penalty, total) trace, and
    skip counts. theta_init and theta0 are never mutated.
    """
    check_shared_vocab(theta_init, theta0)
    if not theta0.frozen:
        raise TrainError("theta0 must be frozen before training against it")

    theta = theta_init.copy()
    vocab = theta.vocab
    checksum_before = theta0.checksum()
    rng = np.random.default_rng(config.seed)
    adam = _SparseAdam(config.learning_rate, *ADAM_BETAS_EPS)
    skipped = {"no_negative": 0, "degenerate": 0, "short_batch": 0, "penalty_terms": 0}

    # One table of the run's sentences: the queries, then the items, each in
    # id order, then the augmented pairs' x and x'. A batch is rows of it.
    index = corpus_train.pair_index()
    n_q = len(index.query_ids)
    sentences = ([vocab.encode(corpus_train.queries[qid]) for qid in index.query_ids]
                 + [vocab.encode(corpus_train.items[iid]) for iid in index.item_ids])

    if config.loss_kind == "contrastive":
        relevant = index.positive_matrix()
        anchors = relevant.any(axis=1).nonzero()[0]
        if len(anchors) < 2:
            raise TrainError("contrastive training needs >= 2 queries with a relevant item")
        # Each anchor's relevant items, ids ascending, one run per anchor.
        counts = np.count_nonzero(relevant[anchors], axis=1)
        pool, starts = relevant[anchors].nonzero()[1], counts.cumsum() - counts
        n_examples = len(anchors)
    else:
        pair_rows = np.stack((index.rows, n_q + index.cols), axis=1).astype(np.intp)
        if not len(pair_rows):
            raise TrainError("mse training needs labeled pairs")
        relevance = index.positive * 1.0 if index.relevance is None else index.relevance
        n_examples = len(pair_rows)

    aug_rows = aug_targets = None
    if config.regularizer.kind == "itvaug":
        aug_pairs = build_itvaug(
            corpus_train,
            theta0,
            config.regularizer.itvaug_fraction,
            config.regularizer.resolved_mask_fraction,
            seed=int(rng.integers(np.iinfo(np.int64).max)),
        )
        n_sent, n_aug = len(sentences), len(aug_pairs)
        sentences += [ap.x for ap in aug_pairs] + [ap.x_prime for ap in aug_pairs]
        aug_rows = n_sent + np.stack((np.arange(n_aug), n_aug + np.arange(n_aug)), axis=1)
        aug_targets = np.array([ap.target for ap in aug_pairs])
    table = SentenceTable.of(sentences)

    trace: list[tuple[float, float, float]] = []
    # A diverging step overflows silently: its non-finite loss or table rows
    # raise TrainError below, so no float warning reaches stderr.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(config.epochs):
            if config.loss_kind == "contrastive":
                # One draw per anchor, in order, as one rng.integers call per
                # anchor would make them.
                positives = pool[starts + rng.integers(counts)]
            order = rng.permutation(n_examples)
            batches = np.split(order, range(config.batch_size, n_examples, config.batch_size))
            if config.loss_kind == "contrastive" and len(batches) > 1 and len(batches[-1]) < 2:
                batches = batches[:-1]
                skipped["short_batch"] += 1

            aug_slices: list[np.ndarray] = []
            if aug_rows is not None and len(aug_rows):
                aug_slices = np.array_split(rng.permutation(len(aug_rows)), len(batches))

            erm_sum = pen_sum = total_sum = 0.0
            weight = 0
            for b_idx, batch_order in enumerate(batches):
                mining_seed = int(rng.integers(np.iinfo(np.int64).max))
                batch_seed = int(rng.integers(np.iinfo(np.int64).max))

                if config.loss_kind == "contrastive":
                    x, z = anchors[batch_order], positives[batch_order]
                    neg = mine_negatives(theta, table, x, n_q + z, x, z, relevant,
                                         config.negative_strategy, mining_seed)
                    has = neg >= 0
                    skipped["no_negative"] += len(has) - int(np.count_nonzero(has))
                    examples = TableExamples(
                        table, np.stack((x[has], n_q + z[neg[has]], n_q + z[has]), axis=1))
                else:
                    examples = TableExamples(table, pair_rows[batch_order],
                                             relevance[batch_order])

                if not len(examples):
                    continue
                aug = (TableExamples(table, aug_rows[aug_slices[b_idx]],
                                     aug_targets[aug_slices[b_idx]]) if aug_slices else None)
                try:
                    lv = total_loss(theta, theta0, Batch(examples, batch_seed, aug),
                                    config.regularizer)
                except DegenerateNormError:
                    # raised only when every example of the batch is degenerate
                    skipped["degenerate"] += len(examples)
                    continue
                if not np.isfinite(lv.total):
                    raise TrainError(
                        f"non-finite loss {lv.total} at epoch {epoch}, batch {b_idx}"
                    )
                skipped["degenerate"] += lv.n_skipped_examples
                skipped["penalty_terms"] += lv.n_skipped_penalty
                adam.step(theta.table, lv.gradient)
                if not np.isfinite(theta.table[lv.gradient.ids]).all():
                    raise TrainError(
                        f"non-finite table rows after the step at epoch {epoch}, batch {b_idx}"
                    )
                n_ex = len(examples) - lv.n_skipped_examples
                erm_sum += lv.erm * n_ex
                pen_sum += lv.penalty * n_ex
                total_sum += lv.total * n_ex
                weight += n_ex

            if weight == 0:
                raise TrainError(f"epoch {epoch} produced no usable batches")
            trace.append((erm_sum / weight, pen_sum / weight, total_sum / weight))

    if theta0.checksum() != checksum_before:
        raise TrainError("base model table changed during training")

    return TrainRun(theta=theta, trace=trace, skipped=skipped)


def write_loss_trace(run: TrainRun, path: str | Path, header_comment: str | None = None) -> None:
    """CSV trace: epoch, mean fitting loss, mean penalty, mean total."""
    write_table(path, ["epoch", "erm", "penalty", "total"],
                [(epoch, *row) for epoch, row in enumerate(run.trace)], header_comment)


def save_checkpoint(model: EmbeddingModel, path: str | Path) -> None:
    """Binary layout: magic 'ITVREG1', little-endian int32 (V, d), then V*d
    little-endian float32 row-major. float64 tables quantize once on save; a
    table with an entry that float32 cannot hold is refused before the file
    is opened, since no command could load it."""
    v, d = model.table.shape
    with np.errstate(over="ignore"):
        table = np.ascontiguousarray(model.table, dtype="<f4")
    if not np.isfinite(table).all():
        raise CheckpointError(f"{Path(path).name}: table has entries outside float32 range")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<ii", v, d))
        fh.write(table.tobytes())


def load_checkpoint(path: str | Path, vocab: Vocab) -> EmbeddingModel:
    path = Path(path)
    blob = path.read_bytes()
    head = len(CHECKPOINT_MAGIC) + 8
    if len(blob) < head or not blob.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(f"{path.name}: not a recognized checkpoint (bad magic)")
    v, d = struct.unpack_from("<ii", blob, len(CHECKPOINT_MAGIC))
    if v < 1 or d < 2:
        raise CheckpointError(f"{path.name}: implausible header dimensions ({v}, {d})")
    if v != len(vocab):
        raise CheckpointError(
            f"{path.name}: table has {v} rows but vocab has {len(vocab)} entries"
        )
    expected = head + 4 * v * d
    if len(blob) != expected:
        raise CheckpointError(
            f"{path.name}: expected {expected} bytes for a {v}x{d} table, found {len(blob)}"
        )
    table = np.frombuffer(blob, dtype="<f4", offset=head).astype(np.float64)
    return EmbeddingModel(table.reshape(v, d), vocab)
