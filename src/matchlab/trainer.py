"""Seeded training loop with in-batch negative mining and sparse Adam.

Determinism contract: identical (corpus, initial table, config) produce a
bit-identical final table. All randomness flows from config.seed through one
generator in a fixed draw order.
"""

from __future__ import annotations

import math
import struct
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import AbstractSet, Mapping, Sequence

import numpy as np

from .corpus import Corpus, Sentence, Vocab
from .encoder import (
    DegenerateNormError,
    EmbeddingModel,
    VocabMismatchError,
    encode_batch,
    row_dots,
)
from .objectives import (
    AugmentedPair,
    Batch,
    ContrastiveExample,
    RegularizerConfig,
    ScoredExample,
    SparseGradient,
    build_itvaug,
    total_loss,
)

CHECKPOINT_MAGIC = b"ITVREG1"

LOSS_KINDS = ("contrastive", "mse")
NEGATIVE_STRATEGIES = ("in-batch-hardest", "in-batch-random")


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
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
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
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if not (0.0 < self.adam_eps < math.inf):
            raise ValueError(f"adam_eps must be finite and > 0, got {self.adam_eps}")


@dataclass
class TrainRun:
    theta: EmbeddingModel
    trace: list[tuple[float, float, float]]
    config: TrainConfig
    wall_clock: float
    skipped: dict[str, int]


@dataclass(frozen=True)
class MiningExample:
    query_id: str
    x: Sentence
    item_id: str
    z_pos: Sentence


def mine_negatives(
    theta: EmbeddingModel,
    batch: Sequence[MiningExample],
    relevant: Mapping[str, AbstractSet[str]],
    strategy: str = "in-batch-hardest",
    seed: int = 0,
) -> list[tuple[str, Sentence] | None]:
    """Pick an in-batch negative item for each example.

    Candidates are the other examples' positive items that are not
    ground-truth-relevant to the query. 'in-batch-hardest' takes the
    highest-similarity candidate under the current theta (ties toward the
    smaller item id); 'in-batch-random' draws uniformly. Examples with no
    valid candidate get None.
    """
    if strategy not in NEGATIVE_STRATEGIES:
        raise ValueError(f"unknown negative strategy {strategy!r}")
    if len(batch) < 2:
        raise ValueError("in-batch mining needs at least 2 examples")

    enc = encode_batch(theta, [ex.x for ex in batch] + [ex.z_pos for ex in batch])
    (q, z), (q_ok, z_ok) = np.split(enc.embeddings, 2), np.split(enc.ok, 2)
    item_row: dict[str, int] = {}  # each item's first encodable occurrence
    for j, ex in enumerate(batch):
        if z_ok[j]:
            item_row.setdefault(ex.item_id, j)
    cands = sorted(item_row)  # the candidate columns, ids ascending
    col = {iid: c for c, iid in enumerate(cands)}
    off = [(i, col[iid]) for i, ex in enumerate(batch)
           for iid in col.keys() & {ex.item_id, *relevant.get(ex.query_id, ())}]
    allowed = np.ones((len(batch), len(cands)), dtype=bool)
    allowed[tuple(np.array(off, dtype=np.intp).reshape(-1, 2).T)] = False
    allowed[~q_ok] = False
    has = allowed.any(axis=1).tolist()
    if not any(has):  # also no candidate column at all
        return [None] * len(batch)

    if strategy == "in-batch-hardest":
        sims = row_dots(z[[item_row[c] for c in cands]], q[:, None])
        # Columns are id-sorted and argmax keeps the first maximum, so ties go
        # to the smallest id; a masked column scores -inf, below any cosine.
        pick = np.where(allowed, sims, -np.inf).argmax(axis=1).tolist()
    else:
        rng = np.random.default_rng(seed)
        pick = [int(np.flatnonzero(row)[rng.integers(np.count_nonzero(row))]) if h else 0
                for row, h in zip(allowed, has)]
    return [(cands[c], batch[item_row[cands[c]]].z_pos) if h else None
            for c, h in zip(pick, has)]


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

    def step(self, table: np.ndarray, grads: Mapping[int, np.ndarray]) -> None:
        if not len(grads):
            return
        if not isinstance(grads, SparseGradient):
            grads = SparseGradient.of(grads)
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
        # Python's ** per row: np.power rounds some of these powers differently.
        m_hat = m / np.array([1.0 - self.beta1 ** k for k in t.tolist()])[:, None]
        v_hat = v / np.array([1.0 - self.beta2 ** k for k in t.tolist()])[:, None]
        table[ids] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _chunk(order: np.ndarray, size: int) -> list[np.ndarray]:
    return [order[i:i + size] for i in range(0, len(order), size)]


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
    if theta_init.vocab is not theta0.vocab and theta_init.vocab != theta0.vocab:
        raise VocabMismatchError("theta_init and theta0 must share a vocabulary")
    if not theta0.frozen:
        raise TrainError("theta0 must be frozen before training against it")

    started = time.perf_counter()
    theta = theta_init.copy()
    vocab = theta.vocab
    checksum_before = theta0.checksum()
    rng = np.random.default_rng(config.seed)
    adam = _SparseAdam(config.learning_rate, config.beta1, config.beta2, config.adam_eps)
    skipped = {"no_negative": 0, "degenerate": 0, "short_batch": 0, "penalty_terms": 0}

    q_sent = {qid: vocab.encode(toks) for qid, toks in corpus_train.queries.items()}
    i_sent = {iid: vocab.encode(toks) for iid, toks in corpus_train.items.items()}

    if config.loss_kind == "contrastive":
        relevant = corpus_train.relevant_by_query()
        anchors = sorted(q for q, items in relevant.items() if items)
        if len(anchors) < 2:
            raise TrainError("contrastive training needs >= 2 queries with a relevant item")
        positives_pool = {q: sorted(relevant[q]) for q in anchors}
        n_examples = len(anchors)
    else:
        if not corpus_train.pairs:
            raise TrainError("mse training needs labeled pairs")
        n_examples = len(corpus_train.pairs)

    aug_pairs: list[AugmentedPair] = []
    if config.regularizer.kind == "itvaug":
        aug_pairs = build_itvaug(
            corpus_train,
            theta0,
            config.regularizer.itvaug_fraction,
            config.regularizer.resolved_mask_fraction,
            seed=int(rng.integers(np.iinfo(np.int64).max)),
        )

    trace: list[tuple[float, float, float]] = []
    for epoch in range(config.epochs):
        if config.loss_kind == "contrastive":
            positives = {
                q: positives_pool[q][int(rng.integers(len(positives_pool[q])))]
                for q in anchors
            }
        order = rng.permutation(n_examples)
        batches = _chunk(order, config.batch_size)
        if config.loss_kind == "contrastive" and len(batches) > 1 and len(batches[-1]) < 2:
            batches = batches[:-1]
            skipped["short_batch"] += 1

        aug_slices: list[np.ndarray] = []
        if aug_pairs:
            aug_slices = np.array_split(rng.permutation(len(aug_pairs)), len(batches))

        erm_sum = pen_sum = total_sum = 0.0
        weight = 0
        for b_idx, batch_order in enumerate(batches):
            mining_seed = int(rng.integers(np.iinfo(np.int64).max))
            batch_seed = int(rng.integers(np.iinfo(np.int64).max))

            if config.loss_kind == "contrastive":
                mbatch = [
                    MiningExample(anchors[i], q_sent[anchors[i]],
                                  positives[anchors[i]], i_sent[positives[anchors[i]]])
                    for i in batch_order
                ]
                mined = mine_negatives(theta, mbatch, relevant,
                                       config.negative_strategy, mining_seed)
                examples = []
                for ex, neg in zip(mbatch, mined):
                    if neg is None:
                        skipped["no_negative"] += 1
                        continue
                    examples.append(ContrastiveExample(ex.x, ex.z_pos, neg[1]))
            else:
                examples = [
                    ScoredExample(
                        q_sent[corpus_train.pairs[i].query_id],
                        i_sent[corpus_train.pairs[i].item_id],
                        corpus_train.pairs[i].relevance,
                    )
                    for i in batch_order
                ]

            if not examples:
                continue
            aug = [aug_pairs[i] for i in aug_slices[b_idx]] if aug_pairs else []
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

    return TrainRun(
        theta=theta,
        trace=trace,
        config=config,
        wall_clock=time.perf_counter() - started,
        skipped=skipped,
    )


def write_loss_trace(run: TrainRun, path: str | Path, header_comment: str | None = None) -> None:
    """CSV trace: epoch, mean fitting loss, mean penalty, mean total."""
    with open(path, "w", encoding="utf-8") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write("epoch,erm,penalty,total\n")
        for epoch, (erm, pen, tot) in enumerate(run.trace):
            fh.write(f"{epoch},{erm:.10g},{pen:.10g},{tot:.10g}\n")


def save_checkpoint(model: EmbeddingModel, path: str | Path) -> None:
    """Binary layout: magic 'ITVREG1', little-endian int32 (V, d), then V*d
    little-endian float32 row-major. float64 tables quantize once on save."""
    v, d = model.table.shape
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<ii", v, d))
        fh.write(np.ascontiguousarray(model.table, dtype="<f4").tobytes())


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
