"""Shared fixtures: tiny hand-built models, a finite-difference oracle, a
forward-pass counter and a batch builder over sentence tuples."""

from __future__ import annotations

import sys
from typing import Callable, Mapping

import numpy as np
import pytest

import matchlab.encoder
from matchlab import Batch, EmbeddingModel, SentenceTable, TableExamples, Vocab


def make_vocab(n_tokens: int) -> Vocab:
    """Vocabulary t1..tn at ids 1..n (id 0 is UNK)."""
    tokens = [f"t{i}" for i in range(1, n_tokens + 1)]
    return Vocab(
        token_to_id={tok: i + 1 for i, tok in enumerate(tokens)},
        id_to_token=["<unk>"] + tokens,
        frequencies=[0] + [1] * n_tokens,
    )


def model_from_rows(rows, frozen: bool = False) -> EmbeddingModel:
    """Model whose tokens 1..n carry the given rows; UNK gets a tiny row."""
    rows = np.asarray(rows, dtype=np.float64)
    table = np.vstack([np.full((1, rows.shape[1]), 1e-3), rows])
    return EmbeddingModel(table, make_vocab(rows.shape[0]), frozen=frozen)


def random_model(n_tokens: int, dim: int, rng: np.random.Generator,
                 scale: float = 0.6, frozen: bool = False) -> EmbeddingModel:
    table = rng.normal(0.0, scale, size=(n_tokens + 1, dim))
    return EmbeddingModel(table, make_vocab(n_tokens), frozen=frozen)


def random_sentence(n_tokens: int, rng: np.random.Generator,
                    min_len: int = 2, max_len: int = 5) -> tuple[int, ...]:
    length = int(rng.integers(min_len, max_len + 1))
    return tuple(int(rng.integers(1, n_tokens + 1)) for _ in range(length))


def fd_gradient(
    value_fn: Callable[[], float],
    model: EmbeddingModel,
    token_ids,
    h: float = 1e-5,
) -> dict[int, np.ndarray]:
    """Central differences of value_fn w.r.t. the given table rows."""
    grads: dict[int, np.ndarray] = {}
    table = model.table
    for tok in sorted(set(token_ids)):
        g = np.zeros(model.dim)
        for j in range(model.dim):
            orig = table[tok, j]
            table[tok, j] = orig + h
            up = value_fn()
            table[tok, j] = orig - h
            down = value_fn()
            table[tok, j] = orig
            g[j] = (up - down) / (2.0 * h)
        grads[tok] = g
    return grads


def grad_rel_error(
    analytic: Mapping[int, np.ndarray], numeric: Mapping[int, np.ndarray], dim: int
) -> float:
    """Relative L2 error between two sparse gradients over their key union."""
    keys = sorted(set(analytic) | set(numeric))
    zeros = np.zeros(dim)
    a = np.concatenate([np.asarray(analytic.get(k, zeros), dtype=float) for k in keys]) \
        if keys else zeros
    b = np.concatenate([np.asarray(numeric.get(k, zeros), dtype=float) for k in keys]) \
        if keys else zeros
    denom = max(float(np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b)) / denom


@pytest.fixture
def encode_calls(monkeypatch):
    """Sentences of every forward pass, one per encode call and one per row
    of encode_batch, counted at every module binding of both (the package
    re-exports them and each module imports them by name)."""
    calls = []
    originals = {matchlab.encoder.encode: calls.append,
                 matchlab.encoder.encode_batch: calls.extend}

    def counting(original, record):
        def wrapper(*args, **kwargs):
            record(args[1])
            return original(*args, **kwargs)
        return wrapper

    for name, mod in list(sys.modules.items()):
        if name == "matchlab" or name.startswith("matchlab."):
            for attr, obj in list(vars(mod).items()):
                if callable(obj) and obj in originals:
                    monkeypatch.setattr(mod, attr, counting(obj, originals[obj]))
    return calls


def table_batch(examples, seed: int = 0, augmented=None) -> Batch:
    """A Batch whose examples and augmented pairs are rows of one table of
    their distinct sentences, first seen first. Examples are contrastive
    (x, z_pos, z_neg) or scored (x, z, relevance) triples; augmented pairs
    are (x, x_prime, target) triples."""
    row: dict[tuple, int] = {}

    def part(views, width, targets=None):
        rows = [[row.setdefault(tuple(s), len(row)) for s in v] for v in views]
        return np.array(rows, dtype=np.intp).reshape(len(views), width), targets

    if all(isinstance(ex[2], tuple) for ex in examples):  # rows (x, z_neg, z_pos)
        ex = part([(x, z_neg, z_pos) for x, z_pos, z_neg in examples], 3)
    else:
        ex = part([(x, z) for x, z, _ in examples], 2, np.array([r for *_, r in examples]))
    aug = None if augmented is None else part([(x, xp) for x, xp, _ in augmented], 2,
                                              np.array([t for *_, t in augmented], dtype=float))
    table = SentenceTable.of(list(row))
    return Batch(TableExamples(table, *ex), seed, aug and TableExamples(table, *aug))
