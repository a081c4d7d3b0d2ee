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

from .corpus import Sentence, Tokens, write_table
from .encoder import (
    EmbeddingModel,
    SentenceTable,
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
    masks as its low 64 bits do. The one-row :func:`mask_rows`."""
    n = len(sentence)
    if n < 2:
        raise InterventionError(f"cannot mask a sentence of length {n}")
    return mask_rows(SentenceTable.of([sentence]), np.zeros(1, dtype=np.intp), fraction,
                     [seed])[0]


def mask_rows(
    table: SentenceTable, rows: np.ndarray, fraction: float, seeds: Sequence[int]
) -> SentenceTable:
    """Rows ``rows`` of ``table``, row i masked under ``seeds[i]`` by the rule
    of :func:`mask_fraction`, as a table: each row is its source row with
    the dropped slots removed, so its ids stay ascending, and its positions
    count only the kept tokens. Every source row must be long enough to
    mask."""
    lengths = table.lengths.take(rows)
    dropped = _dropped(lengths, fraction, seeds, table.ids.shape[1])
    positions = table.positions.take(rows, axis=0)
    # A slot is dropped when its position is; the positions before a kept one
    # that were dropped shift it down.
    keep = ~np.take_along_axis(dropped, positions, axis=1)
    keep &= np.arange(keep.shape[1]) < lengths[:, None]
    shifted = positions - np.take_along_axis(dropped.cumsum(axis=1), positions, axis=1)
    kept = np.count_nonzero(keep, axis=1)
    width = int(kept.max(initial=0))
    real = np.arange(width) < kept[:, None]
    ids = np.zeros((len(rows), width), dtype=np.intp)
    ids[real] = table.ids.take(rows, axis=0)[keep]
    out = np.empty((len(rows), width), dtype=np.intp)
    out[:] = np.arange(width)
    out[real] = shifted[keep]
    return SentenceTable(ids, kept, out)


def _dropped(lengths: np.ndarray, fraction: float, seeds: Sequence[int],
             width: int) -> np.ndarray:
    """Which of ``width`` positions of sentences of ``lengths`` the masks
    seeded by ``seeds`` drop: round(fraction * length) of them (half
    rounds up), clamped so at least one is dropped and one survives, those
    whose ``counter_hash(word, position)`` is lowest, ties toward the earlier
    position; none of a sentence too short to mask. Padding hashes as the
    largest word and comes after every position, so a stable sort ranks each
    row's positions as it would with no padding."""
    if not (0.0 < fraction < 1.0):
        raise InterventionError(f"fraction must be in (0, 1), got {fraction}")
    if len(seeds) != len(lengths):
        raise ValueError(f"seeds has length {len(seeds)}, sentences {len(lengths)}")
    words = seed_words(seeds)
    k = np.floor(fraction * lengths + 0.5).astype(np.intp)
    k = np.minimum(np.maximum(k, 1), lengths - 1)
    keys = counter_hash(words[:, None], np.arange(width))
    keys[np.arange(width) >= lengths[:, None]] = np.iinfo(np.uint64).max
    dropped = np.empty(keys.shape, dtype=bool)
    # Rank r of a row's stable order is dropped when r < k.
    np.put_along_axis(dropped, np.argsort(keys, axis=1, kind="stable"),
                      np.arange(width) < k[:, None], axis=1)
    return dropped


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
