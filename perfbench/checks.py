"""Output checks, computed independently of matchlab with plain numpy.

Every check returns a list of problems (empty when the output is right). They
run after the timed region and write nothing.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

FIXTURE = Path(__file__).resolve().parents[1] / "tests" / "fixtures" / "synth_trend.json"
FIXTURE_TOL = 0.03  # the acceptance gate's tolerance on P@1
TIE_TOL = 1e-9  # scores this close may rank either way
IMPORTANCE_TOL = 1e-12
NORM_EPS = 1e-9  # matchlab's degenerate-norm guard
AMPLIFICATION_FLOOR = 1e-6


def embed(table: np.ndarray, sentence: Sequence[int]) -> np.ndarray | None:
    """Unit-norm sum of the sentence's rows; None when the sum nearly cancels."""
    s = table[list(sentence)].sum(axis=0)
    n = float(np.linalg.norm(s))
    return None if n <= NORM_EPS else s / n


class Catalogue:
    """Brute-force embeddings of every candidate item under one model."""

    def __init__(self, table: np.ndarray, items: Mapping[str, Sequence[int]]) -> None:
        self.table = table
        self.ids: list[str] = []
        rows = []
        for iid in sorted(items):
            e = embed(table, items[iid])
            if e is not None:
                self.ids.append(iid)
                rows.append(e)
        self.matrix = np.stack(rows)
        self.row = {iid: i for i, iid in enumerate(self.ids)}

    def scores(self, sentence: Sequence[int]) -> np.ndarray:
        q = embed(self.table, sentence)
        if q is None:
            raise ValueError("query sentence has a degenerate sum")
        return self.matrix @ q


def check_ranking(cat: Catalogue, sentence, ranked: Sequence[tuple[str, float]],
                  excluded: Sequence[str], k: int) -> list[str]:
    """A top-k list is right when its scores match the brute-force cosines, it
    is sorted (exact ties by ascending id), and nothing left out scores
    higher. Scores within TIE_TOL of each other may come in either order."""
    problems = []
    scores = cat.scores(sentence)
    ids = [iid for iid, _ in ranked]
    if len(ids) != k or len(set(ids)) != k:
        return [f"expected {k} distinct ids, got {ids}"]
    if set(excluded) & set(cat.row):
        problems.append(f"excluded encodable items {sorted(set(excluded) & set(cat.row))}")
    for iid, score in ranked:
        if iid not in cat.row or abs(score - scores[cat.row[iid]]) > TIE_TOL:
            return problems + [f"item {iid} scored {score}, brute force disagrees"]
    for (a, sa), (b, sb) in zip(ranked, ranked[1:]):
        if sa < sb - TIE_TOL or (sa == sb and a > b):
            problems.append(f"{a} ({sa}) ranked above {b} ({sb})")
    rest = np.ones(len(scores), dtype=bool)
    rest[[cat.row[iid] for iid in ids]] = False
    if rest.any() and scores[rest].max() > min(s for _, s in ranked) + TIE_TOL:
        problems.append("an item outside the top k scores higher than one inside")
    return problems


def precision_bounds(cat: Catalogue, sentence, relevant: set[str], k: int) -> tuple[int, int]:
    """Fewest and most relevant items a correct top-k list can hold, given
    that items within TIE_TOL of the k-th score may fall either side."""
    scores = cat.scores(sentence)
    rel = np.array([iid in relevant for iid in cat.ids])
    kth = np.sort(scores)[-k]
    sure = scores > kth + TIE_TOL
    tied = np.abs(scores - kth) <= TIE_TOL
    slots = k - int(sure.sum())
    sure_rel = int((sure & rel).sum())
    tied_rel = int((tied & rel).sum())
    tied_irr = int((tied & ~rel).sum())
    return sure_rel + max(0, slots - tied_irr), sure_rel + min(slots, tied_rel)


def check_evaluation(cat: Catalogue, queries: Mapping[str, Sequence[int]],
                     relevant: Mapping[str, set[str]], report) -> list[str]:
    problems = []
    if set(report.excluded_items) & set(cat.row):
        problems.append(f"{report.split}: excluded encodable items")
    for k, value in report.precision_at.items():
        if value is None:
            continue
        lo = hi = 0
        for qid, sentence in queries.items():
            a, b = precision_bounds(cat, sentence, relevant.get(qid, set()), k)
            lo, hi = lo + a, hi + b
        n = len(queries)
        if not lo / (k * n) - 1e-12 <= value <= hi / (k * n) + 1e-12:
            problems.append(f"{report.split}: P@{k}={value} outside brute-force "
                            f"[{lo / (k * n)}, {hi / (k * n)}]")
    return problems


def direct_importance(table: np.ndarray, sentence: Sequence[int]) -> list[float]:
    """1 - f(X).f(X without position j) for every position j."""
    rows = table[list(sentence)]
    full = rows.sum(axis=0)
    f = full / np.linalg.norm(full)
    out = []
    for j in range(len(sentence)):
        rest = full - rows[j]
        n = float(np.linalg.norm(rest))
        out.append(math.nan if n <= NORM_EPS else 1.0 - float(f @ (rest / n)))
    return out


def _close(got: Sequence[float], want: Sequence[float], tol: float) -> bool:
    return len(got) == len(want) and all(
        (math.isnan(g) and math.isnan(w)) or abs(g - w) <= tol
        for g, w in zip(got, want))


def check_importance(theta_table: np.ndarray, base_table: np.ndarray, report) -> list[str]:
    problems = []
    for label, table, got in (("theta", theta_table, report.s_theta),
                              ("base", base_table, report.s_theta0)):
        if not _close(got, direct_importance(table, report.sentence), IMPORTANCE_TOL):
            problems.append(f"importance under {label} differs for {report.sentence}")
    amp = [a / max(b, AMPLIFICATION_FLOOR) for a, b in zip(report.s_theta, report.s_theta0)]
    if not _close(report.amplification, amp, 0.0):
        problems.append(f"amplification inconsistent for {report.sentence}")
    return problems


def check_training(run, base_checksum_before: str, base_checksum_after: str) -> list[str]:
    totals = [t for _, _, t in run.trace]
    problems = []
    if not all(math.isfinite(v) for row in run.trace for v in row):
        problems.append("loss trace is not finite")
    elif not totals[-1] < totals[0]:
        problems.append(f"final epoch loss {totals[-1]} not below the first {totals[0]}")
    if base_checksum_before != base_checksum_after:
        problems.append("base model table changed")
    return problems


def check_fixture(seed: int, iid_p1: float, ood_p1: float) -> list[str]:
    """The intervention-penalty model's P@1 against the acceptance gate's
    frozen reference, for the seeds the reference covers."""
    runs = json.loads(FIXTURE.read_text())["runs"]
    if str(seed) not in runs:
        return []
    ref = runs[str(seed)]["itvreg"]
    return [f"{split}_p1={got} vs frozen {ref[split]}"
            for split, got in (("iid", iid_p1), ("ood", ood_p1))
            if abs(got - ref[split]) > FIXTURE_TOL]
