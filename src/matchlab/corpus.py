"""Corpora, vocabularies, splits, and synthetic benchmark generators.

A corpus is a set of queries, candidate items, and labeled (query, item,
relevance) pairs. Text is tokenized once at ingestion; token-id sentences
materialize when a corpus is bound to a :class:`Vocab`.
"""

from __future__ import annotations

import json
import math
import string
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

Tokens = tuple[str, ...]
Sentence = tuple[int, ...]

UNK_ID = 0
UNK_TOKEN = "<unk>"


class CorpusError(ValueError):
    """Malformed corpus data or an operation misused on it."""


class Pair(NamedTuple):
    query_id: str
    item_id: str
    relevance: float


def tokenize(text: str) -> Tokens:
    """Lowercase, split on whitespace, strip leading/trailing punctuation.

    Tokens that are empty after stripping are dropped.
    """
    out = []
    for raw in text.lower().split():
        tok = raw.strip(string.punctuation)
        if tok:
            out.append(tok)
    return tuple(out)


class PairIndex(NamedTuple):
    """A corpus's pairs as arrays. Rows are the queries in id order and
    columns the items in id order; the per-pair arrays keep pair order and
    repeated pairs."""

    query_ids: list[str]
    item_ids: list[str]
    rows: np.ndarray  # int32: each pair's query row
    cols: np.ndarray  # int32: each pair's item column
    positive: np.ndarray  # bool: relevance == 1.0
    negative: np.ndarray  # bool: relevance == 0.0
    # float64: each pair's relevance; None when each is 1.0 or (+)0.0, as
    # the masks then say, which keeps a binary corpus's index 8 B a pair
    # smaller
    relevance: np.ndarray | None

    def item_counts(self) -> np.ndarray:
        """Number of pairs each item appears in, by column."""
        return np.bincount(self.cols, minlength=len(self.item_ids))

    def positive_matrix(self) -> np.ndarray:
        """The (queries, items) bool matrix of the positive pairs, built anew
        at each call."""
        out = np.zeros((len(self.query_ids), len(self.item_ids)), dtype=bool)
        out[self.rows[self.positive], self.cols[self.positive]] = True
        return out


@dataclass
class Corpus:
    """Queries, candidate items and labeled pairs; immutable by convention.

    ``pair_index()`` turns the pairs into arrays at its first call and keeps
    them in the instance ``__dict__``, outside the dataclass fields, so
    ``==``, ``repr`` and ``dataclasses.fields`` ignore them. An in-place edit
    never reads a stale index: each call compares the query ids, item ids
    and pairs (in order) with those the index was built from, and rebuilds
    it when any of them differ. A rebuild checks the pairs as construction
    does, with the same CorpusError. Editing a query's or an item's tokens
    leaves the index as it is, since it holds no tokens. ``evaluate`` keeps
    its query inputs in the ``__dict__`` too, checked against the index.
    """

    queries: dict[str, Tokens]
    items: dict[str, Tokens]
    pairs: list[Pair]
    query_categories: dict[str, str] = field(default_factory=dict)
    item_categories: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for qid, toks in self.queries.items():
            if len(toks) == 0:
                raise CorpusError(f"query {qid!r} has no tokens")
        for iid, toks in self.items.items():
            if len(toks) == 0:
                raise CorpusError(f"item {iid!r} has no tokens")
        for p in self.pairs:
            if p.query_id not in self.queries:
                raise CorpusError(f"pair references unknown query id {p.query_id!r}")
            if p.item_id not in self.items:
                raise CorpusError(f"pair references unknown item id {p.item_id!r}")
            if not (0.0 <= p.relevance <= 1.0):
                raise CorpusError(
                    f"pair ({p.query_id!r}, {p.item_id!r}) has relevance "
                    f"{p.relevance!r} outside [0, 1]"
                )

    def relevant_by_query(self) -> dict[str, set[str]]:
        """Ground-truth item sets: pairs with relevance exactly 1."""
        rel: dict[str, set[str]] = {}
        for p in self.pairs:
            if p.relevance == 1.0:
                rel.setdefault(p.query_id, set()).add(p.item_id)
        return rel

    def item_pair_counts(self) -> dict[str, int]:
        """Number of labeled pairs each item appears in (0 if none), keyed in
        ``items`` order."""
        index = self.pair_index()
        counts = dict(zip(index.item_ids, index.item_counts().tolist()))
        return {iid: counts[iid] for iid in self.items}

    def pair_index(self) -> PairIndex:
        """The pairs as arrays, built once and rebuilt after an edit of the
        query ids, the item ids or the pairs (see the class docstring)."""
        # The index keeps shallow copies of the ids and pairs it was built
        # from: while nothing changed, comparing them is one identity check
        # per entry.
        source = (list(self.queries), list(self.items), self.pairs)
        cached = self.__dict__.get("_pair_index")
        if cached is not None and cached[0] == source:
            return cached[1]
        query_ids, item_ids = sorted(self.queries), sorted(self.items)
        row = {qid: i for i, qid in enumerate(query_ids)}
        col = {iid: j for j, iid in enumerate(item_ids)}
        # zip(*pairs) allocates an iterator per pair. Reading each field with
        # map(itemgetter(i), pairs) builds faster, but moves the full garbage
        # collections those allocations set off into the code that runs
        # next, and the benchmark's set-ups slowed.
        p_qids, p_iids, p_rels = zip(*self.pairs) if self.pairs else ((), (), ())
        rel = np.array(p_rels, dtype=np.float64)
        positive, negative = rel == 1.0, rel == 0.0
        binary = (positive | negative).all() and not np.signbit(rel).any()
        # An edit can leave a pair that construction refuses. Its check, run
        # again, raises construction's error: on a failed id lookup, or on a
        # graded relevance outside [0, 1] (a binary one is 0 or 1).
        try:
            rows = np.fromiter(map(row.__getitem__, p_qids), np.int32, len(p_qids))
            cols = np.fromiter(map(col.__getitem__, p_iids), np.int32, len(p_iids))
        except KeyError:
            self.__post_init__()
            raise
        if not binary and not ((rel >= 0.0) & (rel <= 1.0)).all():
            self.__post_init__()
        index = PairIndex(query_ids, item_ids, rows, cols, positive, negative,
                          None if binary else rel)
        self.__dict__["_pair_index"] = ((*source[:2], list(self.pairs)), index)
        return index


def load_corpus(path: str | Path) -> Corpus:
    """Read a JSONL corpus; records carry a ``kind`` of query/item/pair.

    Errors name the offending line number or id.
    """
    path = Path(path)
    queries: dict[str, Tokens] = {}
    items: dict[str, Tokens] = {}
    pairs: list[Pair] = []
    qcat: dict[str, str] = {}
    icat: dict[str, str] = {}

    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path.name}:{lineno}: invalid JSON ({exc})") from None
            if not isinstance(rec, dict):
                raise CorpusError(f"{path.name}:{lineno}: record must be a JSON object")
            kind = rec.get("kind")
            if kind in ("query", "item"):
                rid = rec.get("id")
                text = rec.get("text")
                if not isinstance(rid, str) or not isinstance(text, str):
                    raise CorpusError(f"{path.name}:{lineno}: {kind} needs string 'id' and 'text'")
                table = queries if kind == "query" else items
                if rid in table:
                    raise CorpusError(f"{path.name}:{lineno}: duplicate {kind} id {rid!r}")
                toks = tokenize(text)
                if not toks:
                    raise CorpusError(f"{path.name}:{lineno}: {kind} {rid!r} tokenizes to nothing")
                table[rid] = toks
                cat = rec.get("category")
                if cat is not None:
                    if not isinstance(cat, str):
                        raise CorpusError(f"{path.name}:{lineno}: category must be a string")
                    (qcat if kind == "query" else icat)[rid] = cat
            elif kind == "pair":
                qid, iid, rel = rec.get("query"), rec.get("item"), rec.get("relevance")
                # type(), not isinstance(): a JSON true is an int, but no relevance
                if not (isinstance(qid, str) and isinstance(iid, str)
                        and type(rel) in (int, float)):
                    raise CorpusError(f"{path.name}:{lineno}: pair needs string 'query' "
                                      f"and 'item' and numeric 'relevance'")
                if not (0 <= rel <= 1):
                    raise CorpusError(f"{path.name}:{lineno}: relevance {rel} outside [0, 1]")
                pairs.append(Pair(qid, iid, float(rel)))
            else:
                raise CorpusError(f"{path.name}:{lineno}: unknown record kind {kind!r}")

    return Corpus(queries, items, pairs, qcat, icat)


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Inverse of :func:`load_corpus`; queries/items sorted by id, pair order kept."""
    with open(path, "w", encoding="utf-8") as fh:
        for kind, table, cats in (
            ("query", corpus.queries, corpus.query_categories),
            ("item", corpus.items, corpus.item_categories),
        ):
            for rid in sorted(table):
                rec: dict = {"kind": kind, "id": rid, "text": " ".join(table[rid])}
                if rid in cats:
                    rec["category"] = cats[rid]
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        for p in corpus.pairs:
            rec = {"kind": "pair", "query": p.query_id, "item": p.item_id,
                   "relevance": p.relevance}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence],
                comment: str | None = None, sep: str = ",") -> None:
    """A CSV (or, with sep="\\t", TSV) artifact: an optional ``# comment``
    line, the header, then one line per row. A float cell is written
    ``.10g``, None as an empty cell and anything else with ``str``."""
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        for row in (header, *rows):
            fh.write(sep.join("" if v is None else f"{v:.10g}" if isinstance(v, float)
                              else str(v) for v in row) + "\n")


@dataclass
class Vocab:
    """Token-string <-> id mapping with corpus frequencies; id 0 is reserved UNK."""

    token_to_id: dict[str, int]
    id_to_token: list[str]
    frequencies: list[int]

    def __post_init__(self) -> None:
        if not self.id_to_token or self.id_to_token[0] != UNK_TOKEN:
            raise CorpusError(f"id 0 must be the reserved {UNK_TOKEN!r} entry")
        if len(self.id_to_token) != len(self.frequencies):
            raise CorpusError("id_to_token and frequencies disagree in length")
        if len(self.token_to_id) != len(self.id_to_token) - 1:
            raise CorpusError("token_to_id must cover exactly the non-UNK ids")
        for tok, tid in self.token_to_id.items():
            if not (1 <= tid < len(self.id_to_token)) or self.id_to_token[tid] != tok:
                raise CorpusError(f"token {tok!r} maps to inconsistent id {tid}")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: Sequence[str]) -> Sentence:
        """Map token strings to ids; unknown tokens become UNK (id 0)."""
        return tuple(self.token_to_id.get(t, UNK_ID) for t in tokens)

    def decode(self, sentence: Sequence[int]) -> Tokens:
        return tuple(self.id_to_token[i] for i in sentence)

    def save(self, path: str | Path) -> None:
        """TSV rows ``token<TAB>id<TAB>frequency`` sorted by id."""
        with open(path, "w", encoding="utf-8") as fh:
            for tid, (tok, freq) in enumerate(zip(self.id_to_token, self.frequencies)):
                fh.write(f"{tok}\t{tid}\t{freq}\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        path = Path(path)
        rows: list[tuple[str, int, int]] = []
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise CorpusError(f"{path.name}:{lineno}: expected 3 tab-separated fields")
                try:
                    rows.append((parts[0], int(parts[1]), int(parts[2])))
                except ValueError:
                    raise CorpusError(f"{path.name}:{lineno}: id/frequency not integers") from None
        rows.sort(key=lambda r: r[1])
        ids = [r[1] for r in rows]
        if ids != list(range(len(rows))):
            raise CorpusError(f"{path.name}: ids must be dense 0..{len(rows) - 1}")
        id_to_token = [r[0] for r in rows]
        freqs = [r[2] for r in rows]
        token_to_id = {tok: tid for tid, tok in enumerate(id_to_token) if tid != UNK_ID}
        if len(token_to_id) != len(id_to_token) - 1:
            raise CorpusError(f"{path.name}: duplicate token strings")
        return cls(token_to_id, id_to_token, freqs)


def build_vocab(corpus: Corpus, min_freq: int = 1) -> Vocab:
    """Count tokens over all queries and items; keep those with freq >= min_freq.

    Ids are assigned in descending frequency order, ties broken lexicographically;
    dropped tokens map to UNK, whose stored frequency is the dropped mass.
    """
    if min_freq < 1:
        raise CorpusError(f"min_freq must be >= 1, got {min_freq}")
    counts: Counter[str] = Counter()
    for toks in corpus.queries.values():
        counts.update(toks)
    for toks in corpus.items.values():
        counts.update(toks)
    if not counts:
        raise CorpusError("corpus has no tokens to build a vocabulary from")
    kept = sorted(
        ((tok, c) for tok, c in counts.items() if c >= min_freq),
        key=lambda tc: (-tc[1], tc[0]),
    )
    unk_mass = sum(c for _, c in counts.items() if c < min_freq)
    id_to_token = [UNK_TOKEN] + [tok for tok, _ in kept]
    freqs = [unk_mass] + [c for _, c in kept]
    token_to_id = {tok: tid + 1 for tid, (tok, _) in enumerate(kept)}
    return Vocab(token_to_id, id_to_token, freqs)


@dataclass(frozen=True)
class SplitSpec:
    """A category-holdout split: the held-out categories, the shuffle seed and
    the train share of the remaining queries."""

    holdout: tuple[str, ...] = ()
    seed: int = 0
    train_fraction: float = 0.9

    def __post_init__(self) -> None:
        if not (0.0 < self.train_fraction < 1.0):
            raise CorpusError(f"train_fraction {self.train_fraction} outside (0, 1)")


def _subset(corpus: Corpus, query_ids: Iterable[str]) -> Corpus:
    # Queries restricted; the candidate item set is shared in full.
    qset = set(query_ids)
    return Corpus(
        queries={q: corpus.queries[q] for q in sorted(qset)},
        items=dict(corpus.items),
        pairs=[p for p in corpus.pairs if p.query_id in qset],
        query_categories={q: c for q, c in corpus.query_categories.items() if q in qset},
        item_categories=dict(corpus.item_categories),
    )


def split_by_category(corpus: Corpus, spec: SplitSpec) -> tuple[Corpus, Corpus, Corpus]:
    """Hold out whole query categories as the OOD split; 90/10 the rest.

    Returns (train, iid_eval, ood_eval). All three share the item set.
    """
    if not spec.holdout:
        raise CorpusError("no held-out categories given")
    unlabeled = [q for q in corpus.queries if q not in corpus.query_categories]
    if unlabeled:
        raise CorpusError(f"query {unlabeled[0]!r} has no category label")
    held = set(spec.holdout)
    present = set(corpus.query_categories.values())
    for cat in sorted(held):
        if cat not in present:
            raise CorpusError(f"held-out category {cat!r} matches no query")
    ood_q = sorted(q for q, c in corpus.query_categories.items() if c in held)
    ood_set = set(ood_q)
    rest = sorted(q for q in corpus.queries if q not in ood_set)
    if not rest:
        raise CorpusError("all queries held out; train split is empty")
    rng = np.random.default_rng(spec.seed)
    order = rng.permutation(len(rest))
    n_train = int(math.floor(spec.train_fraction * len(rest)))
    if n_train == 0:
        raise CorpusError("train split is empty after the train/iid cut")
    train_q = [rest[i] for i in order[:n_train]]
    iid_q = [rest[i] for i in order[n_train:]]
    return _subset(corpus, train_q), _subset(corpus, iid_q), _subset(corpus, ood_q)


def most_frequent_categories(corpus: Corpus, k: int) -> tuple[str, ...]:
    """The k categories with the most queries (ties broken by name)."""
    counts = Counter(corpus.query_categories.values())
    if k < 1 or k > len(counts):
        raise CorpusError(f"k={k} infeasible with {len(counts)} categories")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(name for name, _ in ranked[:k])


def interpolate_ood(iid_eval: Corpus, ood_pool: Corpus, fraction: float, seed: int) -> Corpus:
    """Mix floor(fraction * |pool queries|) pool queries, their pairs and the
    pool items those pairs reference into iid_eval.

    A single seeded shuffle of the pool queries is prefix-sampled, so for a
    fixed seed the included query and item sets are nested as fraction grows.
    Sampling queries, not new items, makes a pool that shares iid_eval's item
    set shift the mixture too; a shared item keeps iid_eval's tokens.
    """
    if not (0.0 <= fraction <= 1.0):
        raise CorpusError(f"fraction {fraction} outside [0, 1]")
    pool_qids = sorted(ood_pool.queries)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pool_qids))
    take = int(math.floor(fraction * len(pool_qids)))
    added_queries = {pool_qids[i] for i in order[:take]}
    clash = added_queries & set(iid_eval.queries)
    if clash:
        raise CorpusError(f"pool query id {sorted(clash)[0]!r} collides with iid_eval")
    added_pairs = [p for p in ood_pool.pairs if p.query_id in added_queries]
    added_items = {p.item_id for p in added_pairs} - set(iid_eval.items)

    queries = dict(iid_eval.queries)
    queries.update({q: ood_pool.queries[q] for q in sorted(added_queries)})
    items = dict(iid_eval.items)
    items.update({i: ood_pool.items[i] for i in sorted(added_items)})
    pairs = list(iid_eval.pairs) + added_pairs
    qcat = dict(iid_eval.query_categories)
    qcat.update({q: c for q, c in ood_pool.query_categories.items() if q in added_queries})
    icat = dict(iid_eval.item_categories)
    icat.update({i: c for i, c in ood_pool.item_categories.items() if i in added_items})
    return Corpus(queries, items, pairs, qcat, icat)


# ---------------------------------------------------------------------------
# Synthetic spurious-correlation benchmark
# ---------------------------------------------------------------------------


def _descriptor_tokens(c: int, pool: int, per_sentence: int,
                       rng: np.random.Generator) -> Tokens:
    names = [f"cat{c}d{j}" for j in range(pool)]
    if per_sentence >= pool:
        return tuple(names)
    picks = rng.choice(pool, size=per_sentence, replace=False)
    return tuple(names[j] for j in picks)


def _filler_slices(n_brands: int) -> int:
    return max(1, n_brands // 2)


def _brand_noise_pools(noise_tokens: int, n_brands: int) -> list[list[str]]:
    """Partition the filler vocabulary, noise0 to noise{noise_tokens - 1},
    into slices shared by brand pairs.

    Filler is surface boilerplate (model-number conventions, platform
    templates) that travels with brands rather than categories. Brands b and
    b + n_brands//2 share a slice, so filler identifies a brand pair: still
    predictive in train, where each brand's category is fixed, but it also
    points at the twin brand's differently-labeled listings.
    """
    n_slices = _filler_slices(n_brands)
    if not noise_tokens:
        return [[] for _ in range(n_brands)]
    parts = np.array_split(np.arange(noise_tokens), n_slices)
    slices = [[f"noise{i}" for i in part] for part in parts]
    return [slices[b % n_slices] for b in range(n_brands)]


def _make_text(brand: int, cat: int, pool: list[str], descriptors: tuple[int, int],
               noise_per_sentence: int, rng: np.random.Generator) -> Tokens:
    toks = [f"brand{brand}", *_descriptor_tokens(cat, *descriptors, rng)]
    if noise_per_sentence > 0 and pool:
        # Small slices recycle tokens rather than shortening the sentence.
        replace = len(pool) < noise_per_sentence
        picks = rng.choice(len(pool), size=noise_per_sentence, replace=replace)
        toks.extend(pool[i] for i in picks)
    return tuple(toks)


def _sentences(prefix: str, rows: Iterable[tuple[object, int, int]],
               pools: list[list[str]], descriptors: tuple[int, int],
               noise_per_sentence: int, rng: np.random.Generator
               ) -> tuple[dict[str, Tokens], dict[str, int]]:
    """The text and category of each row of (id suffix, brand, category),
    keyed ``prefix-suffix``. Rows are read one at a time, so a row that
    draws its brand or category from rng draws it just before its text."""
    texts: dict[str, Tokens] = {}
    cats: dict[str, int] = {}
    for suffix, brand, cat in rows:
        rid = f"{prefix}-{suffix}"
        texts[rid] = _make_text(brand, cat, pools[brand], descriptors,
                                noise_per_sentence, rng)
        cats[rid] = cat
    return texts, cats


def _labeled(queries: tuple[dict[str, Tokens], dict[str, int]],
             items: tuple[dict[str, Tokens], dict[str, int]]) -> Corpus:
    """A corpus of written queries and items, each labeled ``cat{c}``, with
    relevance 1 for every query and item that share a category."""
    (qtexts, qcat), (itexts, icat) = queries, items
    by_cat: dict[int, list[str]] = {}
    for iid in sorted(icat):
        by_cat.setdefault(icat[iid], []).append(iid)
    pairs = [Pair(qid, iid, 1.0) for qid in sorted(qcat) for iid in by_cat.get(qcat[qid], [])]
    return Corpus(qtexts, dict(itexts), pairs, {q: f"cat{c}" for q, c in qcat.items()},
                  {i: f"cat{c}" for i, c in icat.items()})


def _check_synth(n_brands: int, n_categories: int, noise_tokens: int,
                 descriptors_per_category: int, descriptors_per_sentence: int | None,
                 noise_per_sentence: int, **counts: int) -> int:
    """The checks both generators make, each count in counts at least 1;
    returns descriptors_per_sentence with its default (all of the
    category's descriptors) filled in."""
    if n_categories < 2 or n_brands < n_categories:
        raise CorpusError(
            f"need n_brands >= n_categories >= 2, got {n_brands}, {n_categories}"
        )
    n_slices = _filler_slices(n_brands)
    if noise_tokens != 0 and noise_tokens < n_slices:
        raise CorpusError(
            f"noise_tokens must be 0 or >= {n_slices} so every filler slice "
            f"is nonempty, got {noise_tokens} for {n_brands} brands"
        )
    if descriptors_per_category < 2:
        raise CorpusError("descriptors_per_category must be >= 2")
    if descriptors_per_sentence is None:
        descriptors_per_sentence = descriptors_per_category
    if not 1 <= descriptors_per_sentence <= descriptors_per_category:
        raise CorpusError(
            "descriptors_per_sentence must be in [1, descriptors_per_category]"
        )
    if noise_per_sentence < 0:
        raise CorpusError(f"noise_per_sentence must be >= 0, got {noise_per_sentence}")
    for name, count in counts.items():
        if count < 1:
            raise CorpusError(f"{name} must be >= 1, got {count}")
    return descriptors_per_sentence


def synth_generate(
    n_brands: int,
    n_categories: int,
    queries_per_brand: int,
    noise_tokens: int,
    seed: int,
    *,
    items_per_brand: int | None = None,
    eval_queries_per_brand: int | None = None,
    descriptors_per_category: int = 2,
    descriptors_per_sentence: int | None = None,
    noise_per_sentence: int = 2,
) -> tuple[Corpus, Corpus, Corpus]:
    """Generate (train, iid_eval, ood_eval) with a planted brand confound.

    Every sentence is one brand token, a seeded draw of that category's
    descriptor tokens, and seeded filler from the brand's slice of the noise
    vocabulary (boilerplate shared with one twin brand, see
    _brand_noise_pools). Relevance is 1 iff query and item share a category.
    In train and iid_eval, brand b always carries category b mod n_categories,
    so brand identity and its filler are perfectly predictive; in ood_eval
    every brand is re-drawn to a different category, breaking the correlation
    while the category->relevance rule is unchanged. All three splits share
    the candidate item set, so for an ood query the items carrying its brand
    surface sit in the wrong category: a model leaning on brand identity
    retrieves exactly those.
    """
    if items_per_brand is None:
        items_per_brand = max(1, round(queries_per_brand / 5))
    if eval_queries_per_brand is None:
        eval_queries_per_brand = max(1, queries_per_brand // 5)
    descriptors_per_sentence = _check_synth(
        n_brands, n_categories, noise_tokens, descriptors_per_category,
        descriptors_per_sentence, noise_per_sentence, queries_per_brand=queries_per_brand,
        items_per_brand=items_per_brand, eval_queries_per_brand=eval_queries_per_brand)

    rng = np.random.default_rng(seed)
    train_cat = [b % n_categories for b in range(n_brands)]
    # Seeded re-draw: every brand moves to a different category.
    ood_cat = []
    for b in range(n_brands):
        others = [c for c in range(n_categories) if c != train_cat[b]]
        ood_cat.append(others[int(rng.integers(len(others)))])
    write = partial(_sentences, pools=_brand_noise_pools(noise_tokens, n_brands),
                    descriptors=(descriptors_per_category, descriptors_per_sentence),
                    noise_per_sentence=noise_per_sentence, rng=rng)
    train_q, items, iid_q, ood_q = (
        write(prefix, [(f"{b}-{j}", b, cat_of[b])
                       for b in range(n_brands) for j in range(per_brand)])
        for prefix, per_brand, cat_of in (("qry", queries_per_brand, train_cat),
                                          ("itm", items_per_brand, train_cat),
                                          ("iidq", eval_queries_per_brand, train_cat),
                                          ("oodq", eval_queries_per_brand, ood_cat)))
    return _labeled(train_q, items), _labeled(iid_q, items), _labeled(ood_q, items)


def synth_pretrain(
    n_brands: int,
    n_categories: int,
    n_queries: int,
    noise_tokens: int,
    seed: int,
    *,
    descriptors_per_category: int = 2,
    descriptors_per_sentence: int | None = None,
    noise_per_sentence: int = 2,
) -> Corpus:
    """A broad corpus over the same token universe with brand and category
    independent, for manufacturing base models that lack the planted confound.

    Brands cycle across queries (and categories across the
    max(n_categories, n_queries // 5) items) so every token is guaranteed to
    appear, while the paired attribute is drawn uniformly.
    """
    descriptors_per_sentence = _check_synth(n_brands, n_categories, noise_tokens,
                                            descriptors_per_category,
                                            descriptors_per_sentence, noise_per_sentence)
    if n_queries < n_brands:
        raise CorpusError("need n_queries >= n_brands to cover every brand")

    rng = np.random.default_rng(seed)
    write = partial(_sentences, pools=_brand_noise_pools(noise_tokens, n_brands),
                    descriptors=(descriptors_per_category, descriptors_per_sentence),
                    noise_per_sentence=noise_per_sentence, rng=rng)
    # Generators, so each row's drawn attribute comes just before its text.
    queries = write("preq", ((n, n % n_brands, int(rng.integers(n_categories)))
                             for n in range(n_queries)))
    items = write("preitm", ((m, int(rng.integers(n_brands)), m % n_categories)
                             for m in range(max(n_categories, n_queries // 5))))
    return _labeled(queries, items)
