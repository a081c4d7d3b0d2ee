"""Training objectives: contrastive/MSE fitting terms and the family of
base-anchored regularization penalties, all with exact sparse gradients.

Penalty menu (theta0 is the frozen base model, X' an intervened view of X):

- outreg:  || f_theta(X) - f_theta0(X) ||^2, anchoring outputs directly.
- itvreg:  ( f_theta(X)^T f_theta(X') - f_theta0(X)^T f_theta0(X') )^2,
           anchoring the *response to interventions* rather than the output.
- itvaug:  itvreg rewritten as data augmentation: precomputed pairs
           (X, X', R' = f_theta0(X)^T f_theta0(X')), each a residual term
           with the fixed target R'.
- maskreg: ( f_theta(X)^T f_theta(X') - 1 )^2, invariance to masking with no
           base anchor.
- simcse:  ( f_theta(X, s)^T f_theta(X, s') - 1 )^2 over two dropout views.

Every objective is a term under one of three rules, hinge, the residual
(cos(a, b) - target)^2 (itvreg's target is the base cosine) and outreg, and
one batched kernel evaluates all terms of a loss: it encodes each view once
and runs one backward. A batch's views are rows of a sentence table
(``encoder.SentenceTable``): a plain view is its sentence's row, a masked
view its row with the hash-dropped slots removed, and a dropout view its
row with a seed.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .corpus import Corpus, Sentence
from .encoder import (
    DegenerateNormError,
    EmbeddingModel,
    SentenceTable,
    check_shared_vocab,
    counter_hash,
    encode_batch,
    encode_batch_backward,
    encode_error,
    row_dots,
    seed_words,
)
from .interventions import mask_rows

logger = logging.getLogger(__name__)

REGULARIZER_KINDS = ("none", "outreg", "itvreg", "itvaug", "maskreg", "simcse")


@dataclass(frozen=True)
class RegularizerConfig:
    """Penalty choice and its knobs.

    mask_fraction=None resolves to the per-kind default: 0.5 for itvreg and
    itvaug, 0.15 for maskreg.
    """

    kind: str = "none"
    lam: float = 0.1
    mask_fraction: float | None = None
    dropout_rate: float = 0.1
    itvaug_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in REGULARIZER_KINDS:
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        if not (0.0 <= self.lam < math.inf):
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.mask_fraction is not None and not (0.0 < self.mask_fraction < 1.0):
            raise ValueError(f"mask_fraction must be in (0, 1), got {self.mask_fraction}")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if not (0.0 <= self.itvaug_fraction <= 1.0):
            raise ValueError(f"itvaug_fraction must be in [0, 1], got {self.itvaug_fraction}")

    @property
    def resolved_mask_fraction(self) -> float:
        if self.mask_fraction is not None:
            return self.mask_fraction
        return 0.15 if self.kind == "maskreg" else 0.5


@dataclass(frozen=True, eq=False)
class SparseGradient(Mapping):
    """A sparse gradient: distinct token ids and one d-vector row each, read
    as the mapping {token id: row}."""

    ids: np.ndarray
    rows: np.ndarray

    @classmethod
    def of(cls, grads: Mapping[int, np.ndarray]) -> "SparseGradient":
        rows = [np.asarray(g, dtype=np.float64) for g in grads.values()]
        return cls(np.fromiter(grads, dtype=np.int64, count=len(grads)),
                   np.array(rows) if rows else np.zeros((0, 0)))

    def __getitem__(self, tok: int) -> np.ndarray:
        at = np.flatnonzero(self.ids == tok)
        if not len(at):
            raise KeyError(tok)
        return self.rows[at[0]]

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids.tolist())

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class LossValue:
    """A loss evaluation with its sparse gradient (token id -> d-vector).

    Standalone ops report their own value as total (weight 1); total_loss
    composes total = erm + lambda * penalty.
    """

    erm: float
    penalty: float
    total: float
    gradient: SparseGradient
    n_penalty_terms: int = 0
    n_skipped_penalty: int = 0
    n_skipped_examples: int = 0


@dataclass(frozen=True)
class AugmentedPair:
    """(X, intervened X', target similarity under the base model)."""

    x: Sentence
    x_prime: Sentence
    target: float

    def __post_init__(self) -> None:
        _check_targets(np.array([self.target]))


@dataclass(frozen=True, eq=False)
class TableExamples:
    """Examples as rows of a sentence table: contrastive examples, with
    ``targets`` None, as rows (x, z_neg, z_pos); scored examples or augmented
    pairs as rows (x, z), with one target each."""

    table: SentenceTable
    rows: np.ndarray
    targets: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class Batch:
    """A batch's examples and, for itvaug, its augmented pairs, as rows of one
    sentence table."""

    examples: TableExamples
    seed: int
    augmented: TableExamples | None = None


class _Terms(NamedTuple):
    """Terms of one rule and one weight (all fitting or all penalty): per term
    its theta views as rows of the call's views, in the order their
    gradients add (a terms x views array), and its targets (None: 1.0).
    hinge: views (x, z-, z+); residual: (a^T b - target)^2 over views (a,
    b); itvreg: the residual against the base cosine of views (a, b);
    outreg: view x against the base model's x."""

    rule: str
    views: np.ndarray
    targets: np.ndarray | None = None


_ANCHORED = ("outreg", "itvreg")  # the rules that read the base model's views
_ONE_TERM = {n: np.arange(n)[None] for n in (1, 2, 3)}  # one term over views 0..n-1


def _rule(rule: str, v: np.ndarray, target: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and upstream rows of terms of one rule, from their unit rows
    ``v``: the views, then the anchors. One upstream row per view."""
    a, b = v[:, 0], v[:, 1]
    if rule == "hinge":
        up = np.concatenate((b - v[:, 2], a, -a), 1).reshape(v.shape)
        return 1.0 + row_dots(a, b) - row_dots(a, v[:, 2]), up
    if rule == "outreg":
        return row_dots(a - b, a - b), 2.0 * (a - b)[:, None]
    if rule == "itvreg":
        target = row_dots(v[:, 2], v[:, 3])
    resid = row_dots(a, b) - target
    return resid * resid, (2.0 * resid)[:, None, None] * v[:, 1::-1]


def _kernel(
    theta: EmbeddingModel,
    theta0: EmbeddingModel | None,
    views: Sequence[Sentence] | SentenceTable,
    fit: _Terms,
    penalties: list[_Terms],
    lam: float,
    skipped: int = 0,
    rates: Sequence[float] | None = None,
    seeds: Sequence[int] | None = None,
) -> LossValue:
    """The mean of the ``fit`` terms plus lam times the mean of the penalty
    terms, over the ``views`` with their dropout ``rates`` and ``seeds``.
    Each view is encoded once by theta and, when a term reads the base
    model, once by theta0 (anchor rows follow the view rows); a part is one
    (terms x views) row matrix, and one backward runs for all terms. A term
    with a view that does not encode is dropped: a penalty term is counted
    as skipped, a fitting term only when its views are degenerate (an empty
    sentence or a bad id raises), and DegenerateNormError is raised when no
    fitting term remains. Each view's upstream row carries its term's
    weight, 1/n_fit or lam/n_pen, and the backward adds the views' gradients
    in term order."""
    parts = [fit] + [p for p in penalties if len(p.views)]
    enc = encode_batch(theta, views, rates, seeds)
    emb, good = enc.embeddings, enc.ok
    rows = [p.views for p in parts]
    if any(p.rule in _ANCHORED for p in parts):
        check_shared_vocab(theta, theta0)
        enc0 = encode_batch(theta0, views)
        emb, good = np.concatenate((emb, enc0.embeddings)), np.concatenate((good, enc0.ok))
        rows = [np.concatenate((r, r + len(views)), axis=1) if p.rule in _ANCHORED else r
                for p, r in zip(parts, rows)]
    targets = [p.targets for p in parts]
    n_terms = list(map(len, rows))
    if not good.all():  # drop each term with a view that does not encode
        ok = [np.logical_and.reduce(good[r], axis=1) for r in rows]
        for row in rows[0][~ok[0]].ravel():
            exc = encode_error(theta, tuple(views[row]), enc.norms[row])
            if not isinstance(exc, DegenerateNormError):  # an empty sentence or a bad id
                raise exc
        rows = [r[k] for r, k in zip(rows, ok)]
        targets = [t if t is None else t[k] for t, k in zip(targets, ok)]
    n_fit, n_pen = len(rows[0]), sum(map(len, rows[1:]))
    if not n_fit:
        raise DegenerateNormError("every example of the batch has a degenerate view")

    means, weights = [0.0, 0.0], (1.0 / n_fit, lam / n_pen if n_pen else 0.0)
    uses, upstream = [], []  # erm and penalty add in term order, as sum() did before 3.12
    for i, (p, r, t) in enumerate(zip(parts, rows, targets)):
        val, up = _rule(p.rule, emb.take(r, axis=0), 1.0 if t is None else t)
        if p.rule == "hinge":  # at the kink and below a term adds nothing, not even 0.0
            live = ~(val <= 0.0)
            if np.count_nonzero(live) < len(live):
                val, up, r = val[live], up[live], r[live]
        for x in val.tolist():
            means[i > 0] += x
        if len(r):
            uses.append(r[:, :up.shape[1]].ravel())
            upstream.append((up * weights[i > 0]).reshape(-1, theta.dim))
    erm, penalty = means[0] / n_fit, means[1] / n_pen if n_pen else 0.0
    if len(uses) > 1:  # one part's arrays go as they are: concatenating one only copies it
        uses, upstream = [np.concatenate(uses)], [np.concatenate(upstream)]
    gradient = SparseGradient(*encode_batch_backward(enc, uses[0], upstream[0]) if uses else
                              (np.zeros(0, dtype=np.intp), np.zeros((0, theta.dim))))
    n_fits, n_pens = n_terms[0], sum(n_terms[1:])
    return LossValue(erm, penalty, erm + lam * penalty, gradient, n_penalty_terms=n_pen,
                     n_skipped_penalty=skipped + n_pens - n_pen,
                     n_skipped_examples=n_fits - n_fit)


def _check_targets(targets: np.ndarray) -> None:
    """Raise ValueError for the first target outside [-1, 1] (up to 1e-9)."""
    bad = targets[~((targets >= -1.0 - 1e-9) & (targets <= 1.0 + 1e-9))]
    if len(bad):
        raise ValueError(f"target {bad[0]} outside [-1, 1]")


def _distinct_rows(keys: list[np.ndarray], n: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The distinct table rows (below ``n``) among the arrays ``keys``,
    ascending, and each array as indices into them."""
    at = np.zeros(n, dtype=np.intp)
    for k in keys:
        at[k] = 1
    rows = at.nonzero()[0]
    at[rows] = np.arange(len(rows))
    return rows, [at.take(k) for k in keys]


def _alone(theta: EmbeddingModel, theta0: EmbeddingModel | None, views: list,
           rule: str, rates=None, seeds=None) -> LossValue:
    # One penalty term over its views, reported as a penalty of weight 1; a
    # bad view raises.
    lv = _kernel(theta, theta0, views, _Terms(rule, _ONE_TERM[len(views)]), [], 0.0,
                 rates=rates, seeds=seeds)
    return LossValue(0.0, lv.erm, lv.total, lv.gradient)


def contrastive_loss(
    theta: EmbeddingModel, x: Sentence, z_pos: Sentence, z_neg: Sentence
) -> LossValue:
    """Hinge max(0, 1 + f(X)^T f(Z-) - f(X)^T f(Z+)); subgradient 0 at the kink."""
    return _kernel(theta, None, [x, z_neg, z_pos], _Terms("hinge", _ONE_TERM[3]), [], 0.0)


def mse_loss(theta: EmbeddingModel, x: Sentence, z: Sentence, target: float) -> LossValue:
    """Squared residual (f(X)^T f(Z) - target)^2.

    Targets may lie anywhere in [-1, 1]: corpus relevance grades use [0, 1],
    augmented-pair targets are base-model cosines.
    """
    targets = np.array([target])
    _check_targets(targets)
    return _kernel(theta, None, [x, z], _Terms("residual", _ONE_TERM[2], targets), [], 0.0)


def outreg_penalty(theta: EmbeddingModel, theta0: EmbeddingModel, x: Sentence) -> LossValue:
    """|| f_theta(X) - f_theta0(X) ||^2; in [0, 4] for unit outputs."""
    return _alone(theta, theta0, [x], "outreg")


def itvreg_penalty(
    theta: EmbeddingModel, theta0: EmbeddingModel, x: Sentence, x_prime: Sentence
) -> LossValue:
    """Squared gap between theta's and theta0's similarity drop under the
    same intervention; zero whenever theta tracks the base model's response."""
    return _alone(theta, theta0, [x, x_prime], "itvreg")


def maskreg_penalty(theta: EmbeddingModel, x: Sentence, x_prime: Sentence) -> LossValue:
    """(f(X)^T f(X') - 1)^2: push masked views to look identical."""
    return _alone(theta, None, [x, x_prime], "residual")


def simcse_penalty(
    theta: EmbeddingModel, x: Sentence, seed_a: int, seed_b: int, rate: float
) -> LossValue:
    """(f(X, s)^T f(X, s') - 1)^2 over two dropout views of the same sentence."""
    return _alone(theta, None, [x, x], "residual", [rate, rate], [seed_a, seed_b])


def intervention_seed(batch_seed: int, index: int, draw: int = 0) -> int:
    """Deterministic per-sentence seed stream for in-batch interventions:
    ``counter_hash(batch_seed, index, draw)``. A negative argument raises
    ValueError; one of 2**64 or more is folded to its low 64 bits."""
    return int(counter_hash(*seed_words([batch_seed, index, draw]))[0])


def build_itvaug(
    corpus: Corpus,
    theta0: EmbeddingModel,
    fraction: float,
    mask_frac: float,
    seed: int,
) -> list[AugmentedPair]:
    """Precompute augmented pairs over a seeded fraction of the corpus queries.

    Targets R' = f_theta0(X)^T f_theta0(X') are computed once and never
    revisited. Queries too short to mask or unencodable under theta0 are
    skipped (and counted in the log).
    """
    if not theta0.frozen:
        raise ValueError("theta0 must be frozen before building augmented pairs")
    if not (0.0 <= fraction <= 1.0):
        raise ValueError(f"fraction {fraction} outside [0, 1]")
    qids = sorted(corpus.queries)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(qids))
    take = int(math.floor(fraction * len(qids)))
    queries = SentenceTable.of([theta0.vocab.encode(corpus.queries[qids[idx]])
                                for idx in order[:take]])
    mask_seeds = seed_words([int(rng.integers(np.iinfo(np.int64).max)) for _ in range(take)])
    long = (queries.lengths >= 2).nonzero()[0]
    masked = mask_rows(queries, long, mask_frac, mask_seeds.take(long))
    enc = encode_batch(theta0, SentenceTable.concat([queries.take(long), masked]))
    (a, b), (a_ok, b_ok) = np.split(enc.embeddings, 2), np.split(enc.ok, 2)
    pairs = [AugmentedPair(queries[i], masked[j], float(target)) for j, (i, target, ok)
             in enumerate(zip(long.tolist(), row_dots(a, b), a_ok & b_ok)) if ok]
    skipped = take - len(pairs)
    if skipped:
        logger.warning("build_itvaug skipped %d of %d selected queries", skipped, take)
    return pairs


def total_loss(
    theta: EmbeddingModel,
    theta0: EmbeddingModel | None,
    batch: Batch,
    config: RegularizerConfig,
) -> LossValue:
    """Batch-mean fitting loss plus lambda times the batch-mean penalty.

    Interventions are drawn fresh per batch from :func:`intervention_seed`,
    indexed by the sentence's flattened position, so a component-by-component
    recomputation of any example reproduces this result exactly. Sentences a
    penalty cannot handle (too short to mask, degenerate views) are skipped
    and counted, never zero-filled; so are examples whose fitting loss meets a
    degenerate view, and the fitting mean runs over the examples that remain.
    Raises DegenerateNormError only when no example remains.

    The examples and augmented pairs are rows of one sentence table. The
    penalty sentences are each example's x, then its z+ (contrastive) or z.
    Each view is encoded once: plain views once per row, then the masked
    views, one per penalty sentence (two equal ones encode to the same
    bytes, so they are not merged), or the dropout views, one per penalty
    sentence and draw, whose seeds hash their own coordinates and so differ
    (at rate 0 a dropout view encodes as its plain row).
    """
    examples, kind = batch.examples, config.kind
    if not examples:
        raise ValueError("batch must contain at least one example")
    if kind in ("outreg", "itvreg") and theta0 is None:
        raise ValueError(f"{kind} requires a base model")
    augmented = batch.augmented if kind == "itvaug" else None
    if augmented and augmented.table is not examples.table:
        raise TypeError("augmented pairs of table examples must be rows of their table")
    table, fit_rule = examples.table, "hinge" if examples.targets is None else "residual"
    if examples.targets is not None:
        _check_targets(examples.targets)
    skipped = 0
    # The penalty's terms: plain views first (rows of table), then views
    # that follow the plain ones (masked or dropout).
    pen_plain = pen_after = masked = drops = None
    rule, targets = "itvreg" if kind == "itvreg" else "residual", None
    if augmented:
        pen_plain, targets = augmented.rows, augmented.targets
    elif kind not in ("none", "itvaug"):
        xs = examples.rows[:, [0, 2] if fit_rule == "hinge" else [0, 1]].ravel()
        # seeds[i, draw] is intervention_seed(batch.seed, i, draw), one hash for all.
        seeds = counter_hash(seed_words([batch.seed]), np.arange(len(xs))[:, None],
                             np.arange(2 if kind == "simcse" else 1))
        if kind == "outreg":
            rule, pen_plain = "outreg", xs[:, None]
        elif kind == "simcse":
            drops = (xs.repeat(2), seeds.ravel())
            pen_after = np.arange(2 * len(xs)).reshape(-1, 2)
        else:  # itvreg and maskreg: x and its masked view
            at = (table.lengths.take(xs) >= 2).nonzero()[0]
            skipped = len(xs) - len(at)
            masked = mask_rows(table, xs.take(at), config.resolved_mask_fraction,
                               seeds[:, 0].take(at))
            pen_plain, pen_after = xs.take(at)[:, None], np.arange(len(at))[:, None]
    plain = [examples.rows] + ([] if pen_plain is None else [pen_plain])
    rows, plain = _distinct_rows(plain, len(table))
    fit = _Terms(fit_rule, plain[0], examples.targets)
    penalties = []
    if pen_plain is not None or pen_after is not None:
        cols = [plain[-1]] if pen_plain is not None else []
        if pen_after is not None:
            cols.append(pen_after + len(rows))
        penalties = [_Terms(rule, np.concatenate(cols, axis=1), targets)]
    rates = seeds = None
    if drops is not None:
        views = table.take(np.concatenate((rows, drops[0])))
        rates = np.zeros(len(views))
        rates[len(rows):] = config.dropout_rate
        seeds = np.zeros(len(views), dtype=np.uint64)
        seeds[len(rows):] = drops[1]
    elif masked is not None:
        views = SentenceTable.concat([table.take(rows), masked])
    else:
        views = table.take(rows)
    return _kernel(theta, theta0, views, fit, penalties, config.lam, skipped, rates, seeds)
