"""Corpus layer: ingestion, vocabulary, splits, interpolation, quantiles, and
the synthetic benchmark generators."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

import matchlab.corpus
from matchlab import (
    Corpus,
    CorpusError,
    Pair,
    SplitSpec,
    Vocab,
    build_vocab,
    interpolate_ood,
    item_frequency_quantiles,
    load_corpus,
    most_frequent_categories,
    split_by_category,
    synth_generate,
    synth_pretrain,
    tokenize,
    write_corpus,
)


def test_tokenize_lowercases_splits_and_strips_punctuation():
    assert tokenize("Rowenta Z100") == ("rowenta", "z100")
    assert tokenize("Hello, world!") == ("hello", "world")
    assert tokenize("  a.b   (c)  ") == ("a.b", "c")
    assert tokenize("!!! ...") == ()


def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


BASIC = [
    {"kind": "query", "id": "q1", "text": "Rowenta Z100", "category": "vacuums"},
    {"kind": "query", "id": "q2", "text": "usb cable", "category": "cables"},
    {"kind": "item", "id": "i1", "text": "rowenta bag", "category": "vacuums"},
    {"kind": "item", "id": "i2", "text": "usb c cable", "category": "cables"},
    {"kind": "item", "id": "i3", "text": "printer paper", "category": "office"},
    {"kind": "pair", "query": "q1", "item": "i1", "relevance": 1.0},
    {"kind": "pair", "query": "q2", "item": "i2", "relevance": 1.0},
]


class TestLoadCorpus:
    def test_counts_and_tokenization(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, BASIC)
        corpus = load_corpus(path)
        assert len(corpus.queries) == 2
        assert len(corpus.items) == 3
        assert len(corpus.pairs) == 2
        assert corpus.queries["q1"] == ("rowenta", "z100")
        vocab = build_vocab(corpus)
        assert "rowenta" in vocab.token_to_id and "z100" in vocab.token_to_id

    def test_dangling_pair_names_the_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, BASIC + [{"kind": "pair", "query": "q1", "item": "nope",
                                     "relevance": 1.0}])
        with pytest.raises(CorpusError, match="nope"):
            load_corpus(path)

    def test_bad_relevance_names_the_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, BASIC + [{"kind": "pair", "query": "q1", "item": "i1",
                                     "relevance": 1.5}])
        with pytest.raises(CorpusError, match=":8"):
            load_corpus(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, BASIC + [{"kind": "item", "id": "i1", "text": "again"}])
        with pytest.raises(CorpusError, match="duplicate"):
            load_corpus(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, [{"kind": "blob", "id": "x"}])
        with pytest.raises(CorpusError, match="blob"):
            load_corpus(path)

    @pytest.mark.parametrize("line", ["[1, 2]", "5", '"x"', "null", "true"])
    def test_non_object_record_names_the_line(self, tmp_path, line):
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, BASIC)
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(CorpusError, match=f"c.jsonl:{len(BASIC) + 1}: .*JSON object"):
            load_corpus(path)

    def test_empty_text_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, [{"kind": "query", "id": "q", "text": "..."}])
        with pytest.raises(CorpusError, match="tokenizes to nothing"):
            load_corpus(path)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, BASIC)
        corpus = load_corpus(path)
        out = tmp_path / "copy.jsonl"
        write_corpus(corpus, out)
        again = load_corpus(out)
        assert again == corpus


class TestBuildVocab:
    def test_unk_then_frequency_then_lexicographic(self):
        corpus = Corpus(queries={"q": ("a", "a", "b")}, items={}, pairs=[])
        vocab = build_vocab(corpus, min_freq=1)
        assert vocab.token_to_id == {"a": 1, "b": 2}
        assert vocab.frequencies == [0, 2, 1]

    def test_ties_break_lexicographically(self):
        corpus = Corpus(queries={"q": ("b", "a")}, items={}, pairs=[])
        vocab = build_vocab(corpus)
        assert vocab.token_to_id == {"a": 1, "b": 2}

    def test_min_freq_drops_to_unk(self):
        corpus = Corpus(queries={"q": ("a", "a", "b")}, items={}, pairs=[])
        vocab = build_vocab(corpus, min_freq=2)
        assert vocab.token_to_id == {"a": 1}
        assert vocab.frequencies[0] == 1  # b's mass
        assert vocab.encode(("b", "a")) == (0, 1)

    def test_min_freq_zero_rejected(self):
        corpus = Corpus(queries={"q": ("a",)}, items={}, pairs=[])
        with pytest.raises(CorpusError, match="min_freq"):
            build_vocab(corpus, min_freq=0)

    def test_save_load_round_trip(self, tmp_path):
        corpus = Corpus(queries={"q": ("a", "a", "b")}, items={"i": ("c",)}, pairs=[])
        vocab = build_vocab(corpus)
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        again = Vocab.load(path)
        assert again == vocab


def _categorized_corpus():
    queries = {f"q{i}": ("tok", f"w{i}") for i in range(10)}
    cats = {f"q{i}": ("A" if i < 6 else "B") for i in range(10)}
    items = {"i0": ("tok",), "i1": ("other",)}
    pairs = [Pair(f"q{i}", "i0", 1.0) for i in range(10)]
    return Corpus(queries, items, pairs, cats, {"i0": "A", "i1": "B"})


class TestSplitByCategory:
    def test_holdout_goes_to_ood(self):
        corpus = _categorized_corpus()
        spec = SplitSpec(holdout=("B",), seed=0)
        train, iid, ood = split_by_category(corpus, spec)
        assert set(ood.queries) == {f"q{i}" for i in range(6, 10)}
        assert set(train.queries) | set(iid.queries) == {f"q{i}" for i in range(6)}
        assert not set(train.queries) & set(iid.queries)
        # candidate item set is shared
        assert train.items == iid.items == ood.items == corpus.items

    def test_unknown_category_named(self):
        corpus = _categorized_corpus()
        spec = SplitSpec(holdout=("C",), seed=0)
        with pytest.raises(CorpusError, match="'C'"):
            split_by_category(corpus, spec)

    def test_holding_out_everything_is_an_error(self):
        corpus = _categorized_corpus()
        spec = SplitSpec(holdout=("A", "B"), seed=0)
        with pytest.raises(CorpusError, match="empty"):
            split_by_category(corpus, spec)

    def test_missing_labels_rejected(self):
        corpus = _categorized_corpus()
        corpus.query_categories.pop("q3")
        spec = SplitSpec(holdout=("B",), seed=0)
        with pytest.raises(CorpusError, match="q3"):
            split_by_category(corpus, spec)

    def test_seeded_and_deterministic(self):
        corpus = _categorized_corpus()
        spec = SplitSpec(holdout=("B",), seed=7)
        first = split_by_category(corpus, spec)
        second = split_by_category(corpus, spec)
        assert first == second

    def test_split_builds_a_bounded_number_of_sets(self, monkeypatch):
        # The held-out query set is built once per split, not once per query.
        n = 2000
        queries = {f"q{i:04d}": ("tok",) for i in range(n)}
        cats = {q: "A" if i % 2 else "B" for i, q in enumerate(queries)}
        corpus = Corpus(queries, {"i0": ("tok",)}, [], cats, {"i0": "A"})
        built = []

        def counting_set(*args):
            built.append(args)
            return set(*args)

        monkeypatch.setattr(matchlab.corpus, "set", counting_set, raising=False)
        train, iid, ood = split_by_category(corpus, SplitSpec(holdout=("B",), seed=0))
        monkeypatch.undo()
        assert len(ood.queries) == n // 2 and len(train.queries) + len(iid.queries) == n // 2
        assert len(built) < 10, f"split_by_category built {len(built)} sets"

    def test_most_frequent_categories(self):
        corpus = _categorized_corpus()
        assert most_frequent_categories(corpus, 1) == ("A",)
        assert most_frequent_categories(corpus, 2) == ("A", "B")
        with pytest.raises(CorpusError):
            most_frequent_categories(corpus, 3)


def _pool_corpus(n_items: int):
    queries = {f"pq{i}": ("pool", f"x{i}") for i in range(n_items)}
    items = {f"pi{i}": ("pool", f"y{i}") for i in range(n_items)}
    pairs = [Pair(f"pq{i}", f"pi{i}", 1.0) for i in range(n_items)]
    return Corpus(queries, items, pairs)


class TestInterpolateOod:
    def test_fraction_zero_is_identity(self):
        iid = _pool_corpus(4)
        pool = Corpus({"oq": ("a", "b")}, {"oi": ("c",)}, [Pair("oq", "oi", 1.0)])
        mixed = interpolate_ood(iid, pool, 0.0, seed=1)
        assert mixed == iid

    def test_fraction_one_is_the_union(self):
        iid = _pool_corpus(3)
        pool = Corpus({"oq": ("a", "b")}, {"oi": ("c",)}, [Pair("oq", "oi", 1.0)])
        mixed = interpolate_ood(iid, pool, 1.0, seed=1)
        assert len(mixed.items) == 4
        assert len(mixed.queries) == 4
        assert Pair("oq", "oi", 1.0) in mixed.pairs

    def test_floor_of_fraction_times_pool(self):
        iid = Corpus({"q": ("a",)}, {"i": ("b",)}, [])
        pool = _pool_corpus(100)
        mixed = interpolate_ood(iid, pool, 0.3, seed=5)
        assert len(mixed.items) == 1 + 30

    def test_nested_under_one_seed(self):
        iid = Corpus({"q": ("a",)}, {"i": ("b",)}, [])
        pool = _pool_corpus(40)
        previous: set[str] = set()
        for frac in (0.1, 0.25, 0.5, 0.75, 1.0):
            mixed = interpolate_ood(iid, pool, frac, seed=9)
            current = set(mixed.items)
            assert previous <= current
            previous = current

    def test_fraction_out_of_range(self):
        iid = _pool_corpus(2)
        with pytest.raises(CorpusError, match="fraction"):
            interpolate_ood(iid, _pool_corpus(3), 1.2, seed=0)

    def test_query_id_collision_rejected(self):
        iid = _pool_corpus(2)
        pool = Corpus({"pq0": ("a", "z")}, {"new": ("c",)}, [Pair("pq0", "new", 1.0)])
        with pytest.raises(CorpusError, match="pq0"):
            interpolate_ood(iid, pool, 1.0, seed=0)


class TestItemFrequencyQuantiles:
    def test_hand_partition(self):
        # items f0..f9 appearing in 1..10 pairs respectively
        queries = {f"q{i}": ("q", str(i)) for i in range(10)}
        items = {f"f{i}": ("w", str(i)) for i in range(10)}
        pairs = []
        for i in range(10):
            for j in range(i + 1):
                pairs.append(Pair(f"q{j}", f"f{i}", 1.0))
        corpus = Corpus(queries, items, pairs)
        bins = item_frequency_quantiles(corpus, 5)
        assert bins["f0"] == bins["f1"] == 0
        assert bins["f8"] == bins["f9"] == 4

    def test_single_bin(self):
        corpus = _pool_corpus(3)
        assert set(item_frequency_quantiles(corpus, 1).values()) == {0}

    def test_more_bins_than_items_rejected(self):
        corpus = _pool_corpus(3)
        with pytest.raises(CorpusError, match="exceeds"):
            item_frequency_quantiles(corpus, 5)

    def test_equal_count_partition_property(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(5, 40))
            queries = {"q": ("a",)}
            items = {f"i{j}": ("b", str(j)) for j in range(n)}
            pairs = []
            for j in range(n):
                for _ in range(int(rng.integers(0, 6))):
                    pairs.append(Pair("q", f"i{j}", 1.0))
            corpus = Corpus(queries, items, pairs)
            n_bins = int(rng.integers(1, n + 1))
            bins = item_frequency_quantiles(corpus, n_bins)
            sizes = [sum(1 for b in bins.values() if b == k) for k in range(n_bins)]
            assert max(sizes) - min(sizes) <= 1
            # ascending frequency across bins
            counts = corpus.item_pair_counts()
            for k in range(n_bins - 1):
                top = max(counts[i] for i, b in bins.items() if b == k)
                bottom = min(counts[i] for i, b in bins.items() if b == k + 1)
                assert top <= bottom


class TestSynthGenerate:
    def test_brand_category_assignment(self):
        train, iid, _ = synth_generate(6, 3, 4, 12, seed=0)
        for corpus in (train, iid):
            for qid, toks in corpus.queries.items():
                brand = int(toks[0].removeprefix("brand"))
                assert corpus.query_categories[qid] == f"cat{brand % 3}"

    def test_derangement_moves_every_brand(self):
        for seed in range(5):
            train, _, ood = synth_generate(6, 3, 4, 12, seed=seed)
            train_map = {
                int(t[0].removeprefix("brand")): c
                for t, c in zip(train.queries.values(),
                                train.query_categories.values())
            }
            for qid, toks in ood.queries.items():
                brand = int(toks[0].removeprefix("brand"))
                assert ood.query_categories[qid] != train_map[brand]

    def test_relevance_is_same_category(self):
        train, _, ood = synth_generate(6, 3, 4, 12, seed=2)
        for corpus in (train, ood):
            labeled = {(p.query_id, p.item_id) for p in corpus.pairs}
            for qid in corpus.queries:
                for iid in corpus.items:
                    same = corpus.query_categories[qid] == corpus.item_categories[iid]
                    assert ((qid, iid) in labeled) == same

    def test_all_splits_share_items(self):
        train, iid, ood = synth_generate(6, 3, 4, 12, seed=1)
        assert train.items == iid.items == ood.items
        assert train.item_categories == ood.item_categories

    def test_deterministic(self):
        a = synth_generate(6, 3, 4, 12, seed=42)
        b = synth_generate(6, 3, 4, 12, seed=42)
        assert a == b

    def test_descriptors_present_in_every_sentence(self):
        train, _, _ = synth_generate(4, 2, 3, 0, seed=0)
        for toks in train.queries.values():
            cats = [t for t in toks if t.startswith("cat")]
            assert len(cats) == 2

    def test_preconditions(self):
        with pytest.raises(CorpusError):
            synth_generate(2, 3, 4, 12, seed=0)  # brands < categories
        with pytest.raises(CorpusError):
            synth_generate(4, 1, 4, 12, seed=0)  # categories < 2
        with pytest.raises(CorpusError):
            synth_generate(4, 2, 0, 12, seed=0)
        with pytest.raises(CorpusError):
            synth_generate(6, 3, 4, 2, seed=0)  # filler pool < slices
        with pytest.raises(CorpusError):
            synth_generate(6, 3, 4, 12, seed=0, descriptors_per_category=4,
                           descriptors_per_sentence=5)

    def test_filler_stays_within_brand_slice(self):
        # 6 brands form 3 slice pairs: brands b and b+3 share slice b % 3.
        train, iid, ood = synth_generate(6, 3, 4, 18, seed=7,
                                         noise_per_sentence=3)
        slices = {s: {f"noise{k}" for k in range(s * 6, s * 6 + 6)}
                  for s in range(3)}
        for corpus in (train, iid, ood):
            for sentences in (corpus.queries, corpus.items):
                for toks in sentences.values():
                    brand = int(toks[0].removeprefix("brand"))
                    noise = {t for t in toks if t.startswith("noise")}
                    assert noise <= slices[brand % 3]

    def test_descriptor_sampling_draws_from_category_pool(self):
        train, _, _ = synth_generate(4, 2, 6, 0, seed=3,
                                     descriptors_per_category=6,
                                     descriptors_per_sentence=2)
        seen: dict[int, set[str]] = {0: set(), 1: set()}
        for qid, toks in train.queries.items():
            cat = int(train.query_categories[qid].removeprefix("cat"))
            descs = [t for t in toks if t.startswith("cat")]
            assert len(descs) == 2
            assert all(d.startswith(f"cat{cat}d") for d in descs)
            seen[cat].update(descs)
        # Across many draws the whole pool is exercised.
        assert seen[0] == {f"cat0d{j}" for j in range(6)}


class TestSynthPretrain:
    def test_covers_every_brand_and_category(self):
        corpus = synth_pretrain(6, 3, 30, 12, seed=0)
        brands = {t[0] for t in corpus.queries.values()}
        assert brands == {f"brand{b}" for b in range(6)}
        cats = set(corpus.item_categories.values())
        assert cats == {f"cat{c}" for c in range(3)}

    def test_same_token_universe_as_benchmark(self):
        pre = synth_pretrain(6, 3, 30, 12, seed=0)
        train, _, _ = synth_generate(6, 3, 4, 12, seed=1)
        pre_tokens = {t for toks in pre.queries.values() for t in toks}
        bench_tokens = {t for toks in train.queries.values() for t in toks}
        assert bench_tokens <= pre_tokens | {f"noise{k}" for k in range(12)}

    def test_deterministic(self):
        assert synth_pretrain(6, 3, 20, 12, seed=3) == synth_pretrain(6, 3, 20, 12, seed=3)

    @pytest.mark.parametrize("n_queries,n_items", [(6, 3), (30, 6), (52, 10)])
    def test_item_count_is_a_fifth_of_the_queries_or_the_categories(self, n_queries, n_items):
        corpus = synth_pretrain(6, 3, n_queries, 12, seed=0)
        assert len(corpus.queries) == n_queries
        assert sorted(corpus.items) == sorted(f"preitm-{m}" for m in range(n_items))

    @pytest.mark.parametrize("brands,categories,noise,kwargs", [
        (2, 3, 12, {}),
        (4, 1, 12, {}),
        (6, 3, 2, {}),
        (6, 3, 12, {"descriptors_per_category": 1}),
        (6, 3, 12, {"descriptors_per_category": 4, "descriptors_per_sentence": 5}),
        (6, 3, 12, {"descriptors_per_sentence": 0}),
    ], ids=["brands-below-categories", "one-category", "filler-below-slices",
            "one-descriptor", "sentence-above-pool", "no-descriptor-per-sentence"])
    def test_rejects_what_the_benchmark_generator_rejects(self, brands, categories,
                                                           noise, kwargs):
        with pytest.raises(CorpusError) as bench:
            synth_generate(brands, categories, 4, noise, seed=0, **kwargs)
        with pytest.raises(CorpusError) as pre:
            synth_pretrain(brands, categories, 30, noise, seed=0, **kwargs)
        assert str(pre.value) == str(bench.value)


@pytest.mark.parametrize("count", [
    {"items_per_brand": 0},
    {"items_per_brand": -1},
    {"eval_queries_per_brand": 0},
    {"eval_queries_per_brand": -1},
    {"noise_per_sentence": -2},
], ids=lambda kw: "{}={}".format(*next(iter(kw.items()))))
def test_generators_reject_a_count_out_of_range(count):
    # A count of items or eval queries below 1 leaves a split with nothing
    # to score; a negative filler count would read as 0.
    with pytest.raises(CorpusError, match=next(iter(count))):
        synth_generate(6, 3, 4, 12, seed=0, **count)
    if "noise_per_sentence" in count:
        with pytest.raises(CorpusError, match="noise_per_sentence"):
            synth_pretrain(6, 3, 30, 12, seed=0, **count)


def _written_digest(corpora, tmp_path) -> str:
    digest = hashlib.sha256()
    for n, corpus in enumerate(corpora):
        write_corpus(corpus, tmp_path / f"{n}.jsonl")
        digest.update((tmp_path / f"{n}.jsonl").read_bytes())
    return digest.hexdigest()[:16]


# The exact bytes the generators write: any refactor of them must keep every
# draw in its place.
@pytest.mark.parametrize("case,seed,expected", [
    ("no-filler", 0, "8f66bf08fc68b167"),
    ("no-filler", 5, "cba545aafd3909f4"),
    ("all-descriptors", 0, "62d0f9ee0c4383c3"),
    ("all-descriptors", 5, "81ae657d84bd7a23"),
    ("pretrain", 0, "a086667ca0d867ff"),
    ("pretrain", 5, "3417eb2cf3402401"),
])
def test_generators_write_pinned_bytes(case, seed, expected, tmp_path):
    if case == "no-filler":
        corpora = synth_generate(4, 2, 3, 0, seed=seed, descriptors_per_category=4,
                                 descriptors_per_sentence=2)
    elif case == "all-descriptors":
        corpora = synth_generate(6, 3, 4, 12, seed=seed, noise_per_sentence=3)
    else:
        corpora = [synth_pretrain(6, 3, 30, 12, seed=seed, descriptors_per_category=4,
                                  descriptors_per_sentence=2)]
    assert _written_digest(corpora, tmp_path) == expected
