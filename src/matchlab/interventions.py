"""Token-level interventions and importance scoring.

Masking a position in a bag-of-words sentence is deletion: the token's
embedding simply drops out of the sum. The importance of position j is
1 - cosine(full sentence, sentence without j), in [0, 2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import Sentence, Tokens, write_table
from .encoder import (
    EmbeddingModel,
    check_shared_vocab,
    counter_hash,
    encode_batch,
    encode_error,
    row_dots,
    seed_words,
)

AMPLIFICATION_FLOOR = 1e-6


class InterventionError(ValueError):
    """A masking request that the sentence cannot support."""


def mask_single(sentence: Sentence, position: int) -> Sentence:
    """Remove one position; the sentence must keep at least one token."""
    n = len(sentence)
    if n < 2:
        raise InterventionError(f"cannot mask a sentence of length {n}")
    if not (0 <= position < n):
        raise InterventionError(f"position {position} out of range for length {n}")
    return sentence[:position] + sentence[position + 1:]


def mask_fraction(sentence: Sentence, fraction: float, seed: int) -> Sentence:
    """Remove round(fraction * length) positions (half rounds up), clamped so
    at least one token is removed and at least one survives: the positions
    whose ``counter_hash(seed, position)`` is lowest, ties toward the earlier
    position. A negative seed raises ValueError; a seed of 2**64 or more
    masks as its low 64 bits do."""
    n = len(sentence)
    if n < 2:
        raise InterventionError(f"cannot mask a sentence of length {n}")
    return mask_fractions([sentence], fraction, [seed])[0]


def mask_fractions(
    sentences: Sequence[Sentence], fraction: float, seeds: Sequence[int]
) -> list[Sentence | None]:
    """``mask_fraction(sentences[i], fraction, seeds[i])`` for every i, in one
    pass over a padded matrix of position hashes, with None for a sentence
    too short to mask. Padding hashes as the largest word and comes after
    every position, so a stable sort ranks each row's positions as
    ``mask_fraction`` does alone."""
    if not (0.0 < fraction < 1.0):
        raise InterventionError(f"fraction must be in (0, 1), got {fraction}")
    if len(seeds) != len(sentences):
        raise ValueError(f"seeds has length {len(seeds)}, sentences {len(sentences)}")
    words = seed_words(seeds)
    lengths = np.array([len(s) for s in sentences], dtype=np.intp)
    k = np.floor(fraction * lengths + 0.5).astype(np.intp)
    k = np.minimum(np.maximum(k, 1), lengths - 1)
    width = int(lengths.max(initial=0))
    keys = counter_hash(words[:, None], np.arange(width))
    real = np.arange(width) < lengths[:, None]
    keys[~real] = np.iinfo(np.uint64).max
    drop = np.empty(keys.shape, dtype=bool)
    # Rank r of a row's stable order is dropped when r < k.
    np.put_along_axis(drop, np.argsort(keys, axis=1, kind="stable"),
                      np.arange(width) < k[:, None], axis=1)
    return [tuple(compress(s, keep)) if len(s) >= 2 else None
            for s, keep in zip(sentences, (real & ~drop).tolist())]


def importance_scores(model: EmbeddingModel, sentence: Sentence) -> list[float]:
    """Per-position deletion importance, 1 - f(X)^T f(X minus position j).

    Positions whose removal leaves a degenerate (unencodable) remainder get
    NaN; the other positions are still scored.
    """
    if len(sentence) < 2:
        raise InterventionError(
            f"importance needs at least 2 tokens, got {len(sentence)}"
        )
    views = [sentence] + [mask_single(sentence, j) for j in range(len(sentence))]
    enc = encode_batch(model, views)  # the full sentence, then each position masked
    if not enc.ok[0]:
        raise encode_error(model, sentence, enc.norms[0])
    full, masked = enc.embeddings[0], enc.embeddings[1:]
    return np.where(enc.ok[1:], 1.0 - row_dots(masked, full), np.nan).tolist()


@dataclass
class ImportanceReport:
    """Importance of every position under a model and its base, with the
    per-position amplification ratio s_theta / max(s_theta0, 1e-6)."""

    sentence: Sentence
    tokens: Tokens
    s_theta: list[float]
    s_theta0: list[float]
    amplification: list[float]


def importance_report(
    theta: EmbeddingModel, theta0: EmbeddingModel, sentence: Sentence
) -> ImportanceReport:
    check_shared_vocab(theta, theta0)
    s = importance_scores(theta, sentence)
    s0 = importance_scores(theta0, sentence)
    amp = [a / max(b, AMPLIFICATION_FLOOR) for a, b in zip(s, s0)]
    return ImportanceReport(
        sentence=tuple(sentence),
        tokens=theta.vocab.decode(sentence),
        s_theta=s,
        s_theta0=s0,
        amplification=amp,
    )


def write_importance_tsv(report: ImportanceReport, path: str | Path) -> None:
    write_table(path, ["position", "token", "s_theta", "s_theta0", "amplification"],
                [(pos, *cells) for pos, cells in enumerate(zip(
                    report.tokens, report.s_theta, report.s_theta0, report.amplification))],
                sep="\t")


def write_importance_summary(
    reports: Iterable[ImportanceReport], path: str | Path
) -> None:
    """Corpus-level view: for each token, the maximum amplification it reaches
    across all scored positions, plus how often it was scored."""
    best: dict[str, float] = {}
    seen: dict[str, int] = {}
    for rep in reports:
        for tok, amp in zip(rep.tokens, rep.amplification):
            seen[tok] = seen.get(tok, 0) + 1
            if not math.isnan(amp):
                if tok not in best or amp > best[tok]:
                    best[tok] = amp
    write_table(path, ["token", "positions_scored", "max_amplification"],
                [(tok, seen[tok], best.get(tok, math.nan)) for tok in sorted(seen)],
                sep="\t")
