"""Training objectives: contrastive/MSE fitting terms and the family of
base-anchored regularization penalties, all with exact sparse gradients.

Penalty menu (theta0 is the frozen base model, X' an intervened view of X):

- outreg:  || f_theta(X) - f_theta0(X) ||^2, anchoring outputs directly.
- itvreg:  ( f_theta(X)^T f_theta(X') - f_theta0(X)^T f_theta0(X') )^2,
           anchoring the *response to interventions* rather than the output.
- itvaug:  itvreg rewritten as data augmentation: precomputed pairs
           (X, X', R' = f_theta0(X)^T f_theta0(X')) fed through mse_loss.
- maskreg: ( f_theta(X)^T f_theta(X') - 1 )^2, invariance to masking with no
           base anchor.
- simcse:  ( f_theta(X, s)^T f_theta(X, s') - 1 )^2 over two dropout views.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .corpus import Corpus, Sentence
from .encoder import (
    DegenerateNormError,
    EmbeddingModel,
    EncodeError,
    EncodeResult,
    VocabMismatchError,
    encode,
    encode_backward,
    encode_batch,
    row_dots,
)
from .interventions import InterventionError, mask_fraction

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
        if self.lam < 0.0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
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


@dataclass
class LossValue:
    """A loss evaluation with its sparse gradient (token id -> d-vector).

    Standalone ops report their own value as total (weight 1); total_loss
    composes total = erm + lambda * penalty.
    """

    erm: float
    penalty: float
    total: float
    gradient: dict[int, np.ndarray]
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


def _accumulate(dst: dict[int, np.ndarray], src: Mapping[int, np.ndarray],
                scale: float = 1.0) -> None:
    for tok, g in src.items():
        if tok in dst:
            dst[tok] = dst[tok] + scale * g
        else:
            dst[tok] = scale * g


def _cosine_residual(a: EncodeResult, b: EncodeResult, target: float) -> LossValue:
    """(a^T b - target)^2 with its gradient through both views, reported as a
    penalty; every squared-cosine objective is a (view pair, target) rule on
    top of this kernel."""
    resid = float(a.embedding @ b.embedding) - target
    value = resid * resid
    grad: dict[int, np.ndarray] = {}
    _accumulate(grad, encode_backward(a, 2.0 * resid * b.embedding))
    _accumulate(grad, encode_backward(b, 2.0 * resid * a.embedding))
    return LossValue(0.0, value, value, grad)


def contrastive_loss(
    theta: EmbeddingModel, x: Sentence, z_pos: Sentence, z_neg: Sentence
) -> LossValue:
    """Hinge max(0, 1 + f(X)^T f(Z-) - f(X)^T f(Z+)); subgradient 0 at the kink."""
    a = encode(theta, x)
    p = encode(theta, z_pos)
    n = encode(theta, z_neg)
    value = 1.0 + float(a.embedding @ n.embedding) - float(a.embedding @ p.embedding)
    if value <= 0.0:
        return LossValue(0.0, 0.0, 0.0, {})
    grad: dict[int, np.ndarray] = {}
    _accumulate(grad, encode_backward(a, n.embedding - p.embedding))
    _accumulate(grad, encode_backward(n, a.embedding))
    _accumulate(grad, encode_backward(p, -a.embedding))
    return LossValue(value, 0.0, value, grad)


def mse_loss(theta: EmbeddingModel, x: Sentence, z: Sentence, target: float) -> LossValue:
    """Squared residual (f(X)^T f(Z) - target)^2.

    Targets may lie anywhere in [-1, 1]: corpus relevance grades use [0, 1],
    augmented-pair targets are base-model cosines.
    """
    if not (-1.0 - 1e-9 <= target <= 1.0 + 1e-9):
        raise ValueError(f"target {target} outside [-1, 1]")
    lv = _cosine_residual(encode(theta, x), encode(theta, z), target)
    return LossValue(lv.total, 0.0, lv.total, lv.gradient)


def _require_shared_vocab(theta: EmbeddingModel, theta0: EmbeddingModel) -> None:
    if theta.vocab is not theta0.vocab and theta.vocab != theta0.vocab:
        raise VocabMismatchError("theta and theta0 must share a vocabulary")


def outreg_penalty(theta: EmbeddingModel, theta0: EmbeddingModel, x: Sentence) -> LossValue:
    """|| f_theta(X) - f_theta0(X) ||^2; in [0, 4] for unit outputs."""
    _require_shared_vocab(theta, theta0)
    a = encode(theta, x)
    diff = a.embedding - encode(theta0, x).embedding
    value = float(diff @ diff)
    return LossValue(0.0, value, value, encode_backward(a, 2.0 * diff))


def itvreg_penalty(
    theta: EmbeddingModel, theta0: EmbeddingModel, x: Sentence, x_prime: Sentence
) -> LossValue:
    """Squared gap between theta's and theta0's similarity drop under the
    same intervention; zero whenever theta tracks the base model's response."""
    _require_shared_vocab(theta, theta0)
    a = encode(theta, x)
    b = encode(theta, x_prime)
    ref = float(encode(theta0, x).embedding @ encode(theta0, x_prime).embedding)
    return _cosine_residual(a, b, ref)


def maskreg_penalty(theta: EmbeddingModel, x: Sentence, x_prime: Sentence) -> LossValue:
    """(f(X)^T f(X') - 1)^2: push masked views to look identical."""
    return _cosine_residual(encode(theta, x), encode(theta, x_prime), 1.0)


def simcse_penalty(
    theta: EmbeddingModel, x: Sentence, seed_a: int, seed_b: int, rate: float
) -> LossValue:
    """(f(X, s)^T f(X, s') - 1)^2 over two dropout views of the same sentence."""
    return _cosine_residual(encode(theta, x, rate, seed_a), encode(theta, x, rate, seed_b), 1.0)


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
    a, a_ok = encode_batch(theta0, [x for x, _ in masked])
    b, b_ok = encode_batch(theta0, [x_prime for _, x_prime in masked])
    pairs = [AugmentedPair(x, x_prime, float(target))
             for (x, x_prime), target, ok in zip(masked, row_dots(a, b), a_ok & b_ok) if ok]
    skipped = take - len(pairs)
    if skipped:
        logger.warning(
            "build_itvaug skipped %d of %d selected queries", skipped, take
        )
    return pairs


def _penalty_sentences(example) -> tuple[Sentence, ...]:
    # Penalties see queries and items alike.
    if isinstance(example, ContrastiveExample):
        return (example.x, example.z_pos)
    if isinstance(example, ScoredExample):
        return (example.x, example.z)
    raise TypeError(f"unsupported example type {type(example).__name__}")


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

    fits: list[LossValue] = []
    for ex in batch.examples:
        try:
            if isinstance(ex, ContrastiveExample):
                fits.append(contrastive_loss(theta, ex.x, ex.z_pos, ex.z_neg))
            elif isinstance(ex, ScoredExample):
                fits.append(mse_loss(theta, ex.x, ex.z, ex.relevance))
            else:
                raise TypeError(f"unsupported example type {type(ex).__name__}")
        except DegenerateNormError:
            pass
    if not fits:
        raise DegenerateNormError("every example of the batch has a degenerate view")
    n = len(fits)
    erm_sum = 0.0
    gradient: dict[int, np.ndarray] = {}
    for lv in fits:
        erm_sum += lv.total
        _accumulate(gradient, lv.gradient, 1.0 / n)
    erm = erm_sum / n

    terms: list[LossValue] = []
    skipped = 0
    if config.kind in ("outreg", "itvreg", "maskreg", "simcse"):
        flat_index = 0
        for ex in batch.examples:
            for sent in _penalty_sentences(ex):
                try:
                    terms.append(_one_penalty(theta, theta0, sent, config,
                                              batch.seed, flat_index))
                except (InterventionError, EncodeError):
                    skipped += 1
                flat_index += 1
    elif config.kind == "itvaug":
        for ap in batch.augmented:
            try:
                terms.append(mse_loss(theta, ap.x, ap.x_prime, ap.target))
            except EncodeError:
                skipped += 1

    penalty = 0.0
    if terms:
        penalty = sum(t.total for t in terms) / len(terms)
        for t in terms:
            _accumulate(gradient, t.gradient, config.lam / len(terms))

    total = erm + config.lam * penalty
    return LossValue(erm, penalty, total, gradient, n_penalty_terms=len(terms),
                     n_skipped_penalty=skipped,
                     n_skipped_examples=len(batch.examples) - n)


def _one_penalty(
    theta: EmbeddingModel,
    theta0: EmbeddingModel | None,
    sent: Sentence,
    config: RegularizerConfig,
    batch_seed: int,
    index: int,
) -> LossValue:
    if config.kind == "outreg":
        return outreg_penalty(theta, theta0, sent)
    if config.kind in ("itvreg", "maskreg"):
        x_prime = mask_fraction(
            sent, config.resolved_mask_fraction, intervention_seed(batch_seed, index)
        )
        if config.kind == "itvreg":
            return itvreg_penalty(theta, theta0, sent, x_prime)
        return maskreg_penalty(theta, sent, x_prime)
    if config.kind == "simcse":
        return simcse_penalty(
            theta,
            sent,
            intervention_seed(batch_seed, index, 0),
            intervention_seed(batch_seed, index, 1),
            config.dropout_rate,
        )
    raise ValueError(f"no penalty for kind {config.kind!r}")
