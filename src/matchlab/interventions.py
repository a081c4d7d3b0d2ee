"""Token-level interventions and importance scoring.

Masking a position in a bag-of-words sentence is deletion: the token's
embedding simply drops out of the sum. The importance of position j is
1 - cosine(full sentence, sentence without j), in [0, 2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import Sentence, Tokens
from .encoder import EmbeddingModel, VocabMismatchError, encode_batch, encode_error, row_dots

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
    """Remove round(fraction * length) seeded-random positions (half rounds up),
    clamped so at least one token is removed and at least one survives."""
    n = len(sentence)
    if n < 2:
        raise InterventionError(f"cannot mask a sentence of length {n}")
    if not (0.0 < fraction < 1.0):
        raise InterventionError(f"fraction must be in (0, 1), got {fraction}")
    k = int(math.floor(fraction * n + 0.5))
    k = min(max(k, 1), n - 1)
    rng = np.random.default_rng(seed)
    drop = set(rng.choice(n, size=k, replace=False).tolist())
    return tuple(tok for pos, tok in enumerate(sentence) if pos not in drop)


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
    if theta.vocab is not theta0.vocab and theta.vocab != theta0.vocab:
        raise VocabMismatchError("theta and theta0 must share a vocabulary")
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("position\ttoken\ts_theta\ts_theta0\tamplification\n")
        for pos, tok in enumerate(report.tokens):
            fh.write(
                f"{pos}\t{tok}\t{report.s_theta[pos]:.10g}"
                f"\t{report.s_theta0[pos]:.10g}\t{report.amplification[pos]:.10g}\n"
            )


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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("token\tpositions_scored\tmax_amplification\n")
        for tok in sorted(seen):
            top = best.get(tok, float("nan"))
            fh.write(f"{tok}\t{seen[tok]}\t{top:.10g}\n")
