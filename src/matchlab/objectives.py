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
one batched kernel evaluates all terms of a loss: it encodes each distinct
view once and runs one backward.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterator, NamedTuple

import numpy as np

from .corpus import Corpus, Sentence
from .encoder import (
    DegenerateNormError,
    EmbeddingModel,
    VocabMismatchError,
    encode_batch,
    encode_batch_backward,
    encode_error,
    row_dots,
    sum_rows,
)
from .interventions import InterventionError, mask_fraction

logger = logging.getLogger(__name__)

REGULARIZER_KINDS = ("none", "outreg", "itvreg", "itvaug", "maskreg", "simcse")

_TOKEN = (1 << 32) - 1  # the token id in the low bits of a gradient key


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
        if not (-1.0 - 1e-9 <= self.target <= 1.0 + 1e-9):
            raise ValueError(f"target {self.target} outside [-1, 1]")


@dataclass(frozen=True)
class ContrastiveExample:
    x: Sentence
    z_pos: Sentence
    z_neg: Sentence


@dataclass(frozen=True)
class ScoredExample:
    x: Sentence
    z: Sentence
    relevance: float


@dataclass
class Batch:
    examples: list
    seed: int
    augmented: list[AugmentedPair] = field(default_factory=list)


class _Term(NamedTuple):
    """One term of a loss: its rule, theta views as (sentence, rate, seed) in
    the order their gradients add, frozen-base anchors and a target. hinge:
    views (x, z-, z+); residual: (a^T b - target)^2 over views (a, b); itvreg:
    the residual against the base cosine of anchors (a, b); outreg: view x
    against anchor x."""

    rule: str
    views: tuple
    anchors: tuple = ()
    target: float = 1.0


def _view(sentence: Sentence, rate: float = 0.0, seed: int = 0) -> tuple:
    return tuple(sentence), rate, seed if rate else 0


def _rule(rule: str, v: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    terms: list[_Term],
    n_fits: int,
    lam: float,
    skipped: int = 0,
) -> LossValue:
    """The mean of the fitting terms ``terms[:n_fits]`` plus lam times the
    mean of the penalty terms after them. Each distinct view is encoded once
    per model and one backward runs for all terms.

    A term with a view that does not encode is dropped: a penalty term is
    counted as skipped, a fitting term only when its views are degenerate (an
    empty sentence or a bad id raises), and DegenerateNormError is raised when
    no fitting term remains. The gradient adds each term's views in order,
    weights the term, then adds the terms in order."""
    views: dict[tuple, int] = {}
    rows = [[views.setdefault(v, len(views)) for v in t.views] for t in terms]
    base: dict[tuple, int] = {}  # anchor rows follow the view rows
    rows_of = [r + [base.setdefault(a, len(views) + len(base)) for a in t.anchors]
               for r, t in zip(rows, terms)]
    enc = encode_batch(theta, *zip(*views))
    emb, good = enc.embeddings, enc.ok.tolist()
    if base:
        if theta.vocab is not theta0.vocab and theta.vocab != theta0.vocab:
            raise VocabMismatchError("theta and theta0 must share a vocabulary")
        enc0 = encode_batch(theta0, list(base))
        emb, good = np.concatenate((emb, enc0.embeddings)), good + enc0.ok.tolist()
    ok = [all(map(good.__getitem__, r)) for r in rows_of]
    for view in (v for t, k in zip(terms[:n_fits], ok) if not k for v in t.views):
        exc = encode_error(theta, view[0], enc.norms[views[view]])
        if not isinstance(exc, DegenerateNormError):  # an empty sentence or a bad id
            raise exc
    n_fit, n_pen = sum(ok[:n_fits]), sum(ok[n_fits:])
    if not n_fit:
        raise DegenerateNormError("every example of the batch has a degenerate view")

    groups: dict[str, list[int]] = {}
    for i in compress(range(len(terms)), ok):
        groups.setdefault(terms[i].rule, []).append(i)
    values = [0.0] * len(terms)
    upstream: dict[int, np.ndarray] = {}  # a row per view of each term with a gradient
    for rule, idx in groups.items():
        val, up = _rule(rule, emb.take([rows_of[i] for i in idx], axis=0),
                        np.array([terms[i].target for i in idx]))
        for i, x, u in zip(idx, val.tolist(), up):
            if rule != "hinge" or not x <= 0.0:  # the hinge's kink and below add nothing
                values[i], upstream[i] = x, u

    erm = penalty = 0.0  # each mean adds in order: sum() compensates from Python 3.12
    for x in compress(values[:n_fits], ok):
        erm += x
    for x in compress(values[n_fits:], ok[n_fits:]):
        penalty += x
    erm /= n_fit
    if n_pen:
        penalty /= n_pen
    if not upstream:
        gradient = SparseGradient(np.zeros(0, dtype=np.int64), np.zeros((0, theta.dim)))
    else:
        # Integer keys, summed in three passes: use << 32 | token in the
        # backward, term << 32 | token, then the token after weighting.
        on = sorted(upstream)
        keys, grads = encode_batch_backward(enc, [r for i in on for r in rows[i]],
                                            np.concatenate([upstream[i] for i in on]))
        term = [i for i in on for _ in rows[i]]
        keys, grads = sum_rows([term[k >> 32] << 32 | k & _TOKEN for k in keys], grads)
        w_fit, w_pen = 1.0 / n_fit, lam / n_pen if n_pen else 0.0
        weight = np.array([w_fit if k >> 32 < n_fits else w_pen for k in keys])
        keys, grads = sum_rows([k & _TOKEN for k in keys], weight[:, None] * grads)
        gradient = SparseGradient(np.array(keys, dtype=np.int64), grads)
    return LossValue(erm, penalty, erm + lam * penalty, gradient, n_penalty_terms=n_pen,
                     n_skipped_penalty=skipped + len(terms) - n_fits - n_pen,
                     n_skipped_examples=n_fits - n_fit)


def _fit_term(example) -> _Term:
    if isinstance(example, ContrastiveExample):
        return _Term("hinge", (_view(example.x), _view(example.z_neg), _view(example.z_pos)))
    if isinstance(example, ScoredExample):
        if not (-1.0 - 1e-9 <= example.relevance <= 1.0 + 1e-9):
            raise ValueError(f"target {example.relevance} outside [-1, 1]")
        return _Term("residual", (_view(example.x), _view(example.z)), target=example.relevance)
    raise TypeError(f"unsupported example type {type(example).__name__}")


def _penalty_term(kind: str, x: Sentence, x_prime: Sentence = (), seeds: tuple = (0, 0),
                  rate: float = 0.0) -> _Term:
    if kind == "outreg":
        return _Term("outreg", (_view(x),), (tuple(x),))
    if kind == "simcse":
        return _Term("residual", (_view(x, rate, seeds[0]), _view(x, rate, seeds[1])))
    anchors = (tuple(x), tuple(x_prime)) if kind == "itvreg" else ()
    return _Term(kind if anchors else "residual", (_view(x), _view(x_prime)), anchors)


def _alone(theta: EmbeddingModel, theta0: EmbeddingModel | None, term: _Term) -> LossValue:
    # One penalty term, reported as a penalty of weight 1; a bad view raises.
    lv = _kernel(theta, theta0, [term], 1, 0.0)
    return LossValue(0.0, lv.erm, lv.total, lv.gradient)


def contrastive_loss(
    theta: EmbeddingModel, x: Sentence, z_pos: Sentence, z_neg: Sentence
) -> LossValue:
    """Hinge max(0, 1 + f(X)^T f(Z-) - f(X)^T f(Z+)); subgradient 0 at the kink."""
    return _kernel(theta, None, [_fit_term(ContrastiveExample(x, z_pos, z_neg))], 1, 0.0)


def mse_loss(theta: EmbeddingModel, x: Sentence, z: Sentence, target: float) -> LossValue:
    """Squared residual (f(X)^T f(Z) - target)^2.

    Targets may lie anywhere in [-1, 1]: corpus relevance grades use [0, 1],
    augmented-pair targets are base-model cosines.
    """
    return _kernel(theta, None, [_fit_term(ScoredExample(x, z, target))], 1, 0.0)


def outreg_penalty(theta: EmbeddingModel, theta0: EmbeddingModel, x: Sentence) -> LossValue:
    """|| f_theta(X) - f_theta0(X) ||^2; in [0, 4] for unit outputs."""
    return _alone(theta, theta0, _penalty_term("outreg", x))


def itvreg_penalty(
    theta: EmbeddingModel, theta0: EmbeddingModel, x: Sentence, x_prime: Sentence
) -> LossValue:
    """Squared gap between theta's and theta0's similarity drop under the
    same intervention; zero whenever theta tracks the base model's response."""
    return _alone(theta, theta0, _penalty_term("itvreg", x, x_prime))


def maskreg_penalty(theta: EmbeddingModel, x: Sentence, x_prime: Sentence) -> LossValue:
    """(f(X)^T f(X') - 1)^2: push masked views to look identical."""
    return _alone(theta, None, _penalty_term("maskreg", x, x_prime))


def simcse_penalty(
    theta: EmbeddingModel, x: Sentence, seed_a: int, seed_b: int, rate: float
) -> LossValue:
    """(f(X, s)^T f(X, s') - 1)^2 over two dropout views of the same sentence."""
    return _alone(theta, None, _penalty_term("simcse", x, seeds=(seed_a, seed_b), rate=rate))


def intervention_seed(batch_seed: int, index: int, draw: int = 0) -> int:
    """Deterministic per-sentence seed stream for in-batch interventions."""
    ss = np.random.SeedSequence([batch_seed, index, draw])
    return int(ss.generate_state(1, np.uint64)[0])


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
    masked: list[tuple[Sentence, Sentence]] = []
    for idx in order[:take]:
        sent = theta0.vocab.encode(corpus.queries[qids[idx]])
        mask_seed = int(rng.integers(np.iinfo(np.int64).max))
        try:
            masked.append((sent, mask_fraction(sent, mask_frac, mask_seed)))
        except InterventionError:
            pass
    enc = encode_batch(theta0, [x for x, _ in masked] + [x_prime for _, x_prime in masked])
    (a, b), (a_ok, b_ok) = np.split(enc.embeddings, 2), np.split(enc.ok, 2)
    pairs = [AugmentedPair(x, x_prime, float(target)) for (x, x_prime), target, ok
             in zip(masked, row_dots(a, b), a_ok & b_ok) if ok]
    skipped = take - len(pairs)
    if skipped:
        logger.warning(
            "build_itvaug skipped %d of %d selected queries", skipped, take
        )
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
    """
    if not batch.examples:
        raise ValueError("batch must contain at least one example")
    if config.kind in ("outreg", "itvreg") and theta0 is None:
        raise ValueError(f"{config.kind} requires a base model")

    fits = [_fit_term(ex) for ex in batch.examples]
    penalties: list[_Term] = []
    skipped = 0
    if config.kind == "itvaug":
        penalties = [_Term("residual", (_view(ap.x), _view(ap.x_prime)), target=ap.target)
                     for ap in batch.augmented]
    elif config.kind != "none":
        # Penalties see queries and items alike.
        sentences = [s for ex in batch.examples for s in
                     (ex.x, ex.z_pos if isinstance(ex, ContrastiveExample) else ex.z)]
        for index, x in enumerate(sentences):
            if config.kind == "simcse":
                seeds = (intervention_seed(batch.seed, index, 0),
                         intervention_seed(batch.seed, index, 1))
                penalties.append(_penalty_term("simcse", x, seeds=seeds,
                                               rate=config.dropout_rate))
            elif config.kind == "outreg":
                penalties.append(_penalty_term("outreg", x))
            else:
                try:
                    x_prime = mask_fraction(x, config.resolved_mask_fraction,
                                            intervention_seed(batch.seed, index))
                except InterventionError:
                    skipped += 1
                    continue
                penalties.append(_penalty_term(config.kind, x, x_prime))
    return _kernel(theta, theta0, fits + penalties, len(fits), config.lam, skipped)
