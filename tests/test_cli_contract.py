"""The CLI contract under drawn flag values: `synth`'s integer flags from
small ranges, a few of them from one that includes 0 and negatives, and
free strings for the comma-list flags of `split`, `importance`, `eval` and
`sweep`. Every run exits 0 or 2; exit 2 leaves exactly one JSON line on
stderr, and exit 0 writes splits that each hold a query, the train split
an item and a pair."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from matchlab import load_corpus  # noqa: E402
from matchlab.cli import main  # noqa: E402

from test_cli import pipeline  # noqa: E402,F401  (the shared module fixture)

SWEEP = settings(max_examples=50, deadline=None, derandomize=True, database=None)

# Each flag's in-range values, kept small so that no draw asks for a large
# corpus; None leaves a flag at its default. Up to two drawn flags take a
# value of OUT_OF_RANGE (0 or below) instead.
SYNTH_INTS = {
    "--brands": st.integers(3, 5),
    "--categories": st.integers(2, 3),
    "--queries-per-brand": st.integers(1, 3),
    "--noise-tokens": st.sampled_from([0, 3, 6]),
    "--items-per-brand": st.none() | st.integers(1, 2),
    "--eval-queries-per-brand": st.none() | st.integers(1, 2),
    "--descriptors-per-category": st.none() | st.integers(2, 3),
    "--descriptors-per-sentence": st.none() | st.integers(1, 2),
    "--noise-per-sentence": st.none() | st.integers(0, 3),
    "--seed": st.integers(0, 2),
}
OUT_OF_RANGE = st.integers(-2, 0)


def _list_text(entries: list[str]) -> st.SearchStrategy[str]:
    """Comma lists of known entries, blanks and junk, or any short text over
    their characters."""
    pieces = st.sampled_from([*entries, "", " ", ",", "-1", "x"])
    return (st.lists(pieces, max_size=3).map(",".join)
            | st.text(alphabet=sorted(set(",- ." + "".join(entries))), max_size=8))


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # a rejected flag, already printed
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _check_splits(out_dir: Path) -> None:
    for name in ("train", "iid_eval", "ood_eval"):
        corpus = load_corpus(out_dir / f"{name}.jsonl")
        assert corpus.queries, f"{name} split has no query"
        if name == "train":
            assert corpus.items and corpus.pairs, "train split has no item or pair"


@pytest.mark.parametrize("command", ["synth", "split", "importance", "eval", "sweep"])
@SWEEP
@given(data=st.data())
def test_drawn_flags_keep_the_contract(pipeline, command, data):  # noqa: F811
    root, _ = pipeline
    corpus, vocab = root / "data" / "train.jsonl", root / "vocab.tsv"
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if command == "synth":
            argv = ["synth", "--out-dir", str(out)]
            moved = data.draw(st.sets(st.sampled_from(sorted(SYNTH_INTS)), max_size=2))
            for flag, values in SYNTH_INTS.items():
                value = data.draw(OUT_OF_RANGE if flag in moved else values, label=flag)
                if value is not None:
                    argv.append(f"{flag}={value}")
        elif command == "split":
            argv = ["split", "--corpus", str(corpus), "--out-dir", str(out),
                    "--holdout=" + data.draw(_list_text(["cat0", "cat1", "cat9"]))]
        elif command == "importance":
            argv = ["importance", "--corpus", str(corpus), "--checkpoint",
                    str(root / "itv.ckpt"), "--base", str(root / "base.ckpt"),
                    "--vocab", str(vocab), "--out-dir", str(out),
                    "--ids=" + data.draw(_list_text(["qry-0-0", "qry-1-2", "ghost"]))]
        elif command == "eval":
            argv = ["eval", "--corpus", str(corpus), "--checkpoint", str(root / "itv.ckpt"),
                    "--vocab", str(vocab), "--out", str(out), "--bins", "2",
                    "--ks=" + data.draw(_list_text(["1", "3", "0", "99"]))]
        else:
            argv = ["sweep", "--iid", str(root / "data" / "iid_eval.jsonl"),
                    "--pool", str(root / "data" / "ood_eval.jsonl"), "--vocab", str(vocab),
                    "--model", f"base={root / 'base.ckpt'}", "--out", str(out), "--bins", "2",
                    "--fractions=" + data.draw(_list_text(["0", "0.5", "1", "2"]))]
        code, stdout, stderr = _run(argv)
        assert code in (0, 2), (argv, code, stderr)
        if code == 2:
            lines = stderr.splitlines()
            assert len(lines) == 1 and "error" in json.loads(lines[0]), (argv, stderr)
            return
        assert stderr == "", (argv, stderr)
        if command in ("synth", "split"):
            _check_splits(out)
        if command == "importance":
            assert json.loads(stdout)["sentences"] >= 1, argv
