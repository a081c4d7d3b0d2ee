"""End-to-end command-line pipeline: synth -> pretrain-base -> train -> eval ->
sweep -> importance, plus the error contract (single-line JSON on stderr,
exit code 2) and config-file overlay rules."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matchlab
from matchlab import RegularizerConfig, SplitSpec, TrainConfig, load_corpus
from matchlab.cli import _resolve_epochs, build_parser, main


def run_ok(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, f"{argv[0]} failed: {err.getvalue() or out.getvalue()}"
    return json.loads(out.getvalue())


def run_fail(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 2
    lines = [ln for ln in err.getvalue().splitlines() if ln]
    assert len(lines) == 1
    return json.loads(lines[0])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small corpus generated, pretrained, and fine-tuned for reuse."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    outs = {}
    outs["synth"] = run_ok([
        "synth", "--out-dir", str(data), "--brands", "4", "--categories", "2",
        "--queries-per-brand", "4", "--noise-tokens", "6", "--seed", "0",
    ])
    outs["pretrain"] = run_ok([
        "pretrain-base", "--corpus", str(data / "train.jsonl"),
        "--out", str(root / "base.ckpt"), "--vocab-out", str(root / "vocab.tsv"),
        "--dim", "8", "--epochs", "2", "--lr", "0.01", "--seed", "1",
    ])
    outs["train"] = run_ok([
        "train", "--corpus", str(data / "train.jsonl"),
        "--base", str(root / "base.ckpt"), "--vocab", str(root / "vocab.tsv"),
        "--out", str(root / "itv.ckpt"), "--trace-out", str(root / "itv_trace.csv"),
        "--reg", "itvreg", "--reg-lambda", "0.1",
        "--epochs", "2", "--lr", "0.01", "--seed", "2",
    ])
    return root, outs


class TestPipeline:
    def test_synth_writes_three_splits_and_sidecar(self, pipeline):
        root, outs = pipeline
        data = root / "data"
        for name in ("train.jsonl", "iid_eval.jsonl", "ood_eval.jsonl", "config.json"):
            assert (data / name).exists()
        assert outs["synth"]["train_queries"] == 16
        assert outs["synth"]["items"] == 4
        assert len(outs["synth"]["config_digest"]) == 16

    def test_pretrain_writes_checkpoint_vocab_sidecar(self, pipeline):
        root, outs = pipeline
        assert (root / "base.ckpt").exists()
        assert (root / "vocab.tsv").exists()
        assert (root / "base.ckpt.config.json").exists()
        assert outs["pretrain"]["epochs"] == 2
        assert outs["pretrain"]["vocab_size"] > 1

    def test_train_reports_regularizer_and_skips(self, pipeline):
        root, outs = pipeline
        assert (root / "itv.ckpt").exists()
        assert outs["train"]["regularizer"] == "itvreg"
        assert "skipped" in outs["train"]
        trace = (root / "itv_trace.csv").read_text().splitlines()
        assert trace[0].startswith("# config_digest=")
        assert trace[1] == "epoch,erm,penalty,total"
        assert len(trace) == 2 + 2

    def test_eval_writes_json_and_csv(self, pipeline, tmp_path):
        root, _ = pipeline
        report = run_ok([
            "eval", "--corpus", str(root / "data" / "iid_eval.jsonl"),
            "--checkpoint", str(root / "itv.ckpt"), "--vocab", str(root / "vocab.tsv"),
            "--out", str(tmp_path / "report.json"), "--csv", str(tmp_path / "report.csv"),
            "--ks", "1,3", "--bins", "2", "--split-tag", "iid",
        ])
        assert report["split"] == "iid"
        assert set(report["precision_at"]) == {"1", "3"}
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk["config_digest"] == report["config_digest"]
        csv_lines = (tmp_path / "report.csv").read_text().splitlines()
        assert csv_lines[0] == f"# config_digest={report['config_digest']}"
        assert csv_lines[2].startswith("iid,")

    def test_eval_reports_a_repeated_k_once(self, pipeline, tmp_path):
        root, _ = pipeline
        argv = ["eval", "--corpus", str(root / "data" / "iid_eval.jsonl"),
                "--checkpoint", str(root / "itv.ckpt"), "--vocab", str(root / "vocab.tsv"),
                "--out", str(tmp_path / "report.json"), "--bins", "2"]
        repeated = run_ok(argv + ["--ks", "1,3,1"])
        once = run_ok(argv + ["--ks", "1,3"])
        assert list(repeated["precision_at"]) == ["1", "3"]
        assert repeated["precision_at"] == once["precision_at"]
        assert 0.0 <= repeated["precision_at"]["1"] <= 1.0

    def test_sweep_rows_cover_models_by_fractions(self, pipeline, tmp_path):
        root, _ = pipeline
        out = run_ok([
            "sweep", "--iid", str(root / "data" / "iid_eval.jsonl"),
            "--pool", str(root / "data" / "ood_eval.jsonl"),
            "--vocab", str(root / "vocab.tsv"),
            "--model", f"itv={root / 'itv.ckpt'}",
            "--model", f"base={root / 'base.ckpt'}",
            "--fractions", "0,0.5,1", "--ks", "1", "--bins", "1",
            "--seed", "0", "--out", str(tmp_path / "sweep.csv"),
        ])
        assert out["models"] == ["base", "itv"]
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        body = [ln for ln in lines if not ln.startswith("#")][1:]
        assert len(body) == 6
        assert body[0].startswith("base,0,") and body[3].startswith("itv,0,")

    def test_importance_writes_per_sentence_and_summary(self, pipeline, tmp_path):
        root, _ = pipeline
        out = run_ok([
            "importance", "--corpus", str(root / "data" / "iid_eval.jsonl"),
            "--checkpoint", str(root / "itv.ckpt"), "--base", str(root / "base.ckpt"),
            "--vocab", str(root / "vocab.tsv"), "--limit", "2",
            "--out-dir", str(tmp_path / "imp"),
        ])
        assert out["sentences"] == 2
        tsvs = sorted((tmp_path / "imp").glob("*.tsv"))
        assert (tmp_path / "imp" / "summary.tsv") in tsvs
        assert len(tsvs) == 3
        assert (tmp_path / "imp" / "config.json").exists()

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_importance_limit_below_one_fails(self, pipeline, tmp_path, limit):
        root, _ = pipeline
        err = run_fail([
            "importance", "--corpus", str(root / "data" / "iid_eval.jsonl"),
            "--checkpoint", str(root / "itv.ckpt"), "--base", str(root / "base.ckpt"),
            "--vocab", str(root / "vocab.tsv"), "--limit", limit,
            "--out-dir", str(tmp_path / "imp"),
        ])
        assert err["error"] == f"--limit must be >= 1, got {limit}"
        assert not (tmp_path / "imp").exists()

    def test_importance_unknown_id_fails(self, pipeline, tmp_path):
        root, _ = pipeline
        err = run_fail([
            "importance", "--corpus", str(root / "data" / "iid_eval.jsonl"),
            "--checkpoint", str(root / "itv.ckpt"), "--base", str(root / "base.ckpt"),
            "--vocab", str(root / "vocab.tsv"), "--ids", "ghost",
            "--out-dir", str(tmp_path / "imp"),
        ])
        assert "ghost" in err["error"]

    def test_importance_empty_id_list_fails(self, pipeline, tmp_path):
        # Once exited 0 with nothing scored and an empty summary.tsv.
        root, _ = pipeline
        err = run_fail([
            "importance", "--corpus", str(root / "data" / "iid_eval.jsonl"),
            "--checkpoint", str(root / "itv.ckpt"), "--base", str(root / "base.ckpt"),
            "--vocab", str(root / "vocab.tsv"), "--ids", ",",
            "--out-dir", str(tmp_path / "imp"),
        ])
        assert err == {"error": "empty id list"}
        assert not (tmp_path / "imp").exists()


class TestErrorContract:
    def test_missing_file_is_json_on_stderr(self, tmp_path):
        err = run_fail([
            "eval", "--corpus", str(tmp_path / "absent.jsonl"),
            "--checkpoint", "x.ckpt", "--vocab", "v.tsv",
            "--out", str(tmp_path / "r.json"),
        ])
        assert "error" in err

    def test_unknown_flag_exits_two_with_json(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out-dir", "d", "--flux-capacitor", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert json.loads(err.strip())["error"]

    @pytest.mark.parametrize("command", ["synth", "split", "pretrain-base", "train", "sweep"])
    def test_negative_seed_names_the_flag(self, pipeline, tmp_path, capsys, command):
        # numpy rejected it later, as "expected non-negative integer"
        root, _ = pipeline
        data, out = root / "data", str(tmp_path / "out")
        flags = {
            "synth": ["--out-dir", out],
            "split": ["--corpus", str(data / "train.jsonl"), "--out-dir", out,
                      "--holdout", "cat0"],
            "pretrain-base": ["--corpus", str(data / "train.jsonl"), "--out", out,
                              "--vocab-out", str(tmp_path / "vocab.tsv")],
            "train": ["--corpus", str(data / "train.jsonl"), "--base", str(root / "base.ckpt"),
                      "--vocab", str(root / "vocab.tsv"), "--out", out],
            "sweep": ["--iid", str(data / "iid_eval.jsonl"), "--pool", str(data / "ood_eval.jsonl"),
                      "--vocab", str(root / "vocab.tsv"), "--model", f"m={root / 'base.ckpt'}",
                      "--out", out],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *flags, "--seed", "-1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines() == [json.dumps(
            {"error": "argument --seed: must be a non-negative integer, got '-1'"})]
        assert not any(tmp_path.iterdir())

    def test_negative_seed_in_a_config_names_the_flag(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"seed": -2}))
        err = run_fail(["synth", "--config", str(config), "--out-dir", str(tmp_path / "d")])
        assert err == {"error": "argument --seed: must be a non-negative integer, got '-2'"}
        assert not (tmp_path / "d").exists()

    def test_split_needs_a_holdout_choice(self, pipeline, tmp_path):
        root, _ = pipeline
        err = run_fail([
            "split", "--corpus", str(root / "data" / "train.jsonl"),
            "--out-dir", str(tmp_path / "s"),
        ])
        assert "holdout" in err["error"]

    @pytest.mark.parametrize("flag,value,error", [
        ("--items-per-brand", "0", "items_per_brand must be >= 1, got 0"),
        ("--eval-queries-per-brand", "-1", "eval_queries_per_brand must be >= 1, got -1"),
        ("--noise-per-sentence", "-2", "noise_per_sentence must be >= 0, got -2"),
    ], ids=["items", "eval-queries", "filler"])
    def test_synth_count_out_of_range_fails(self, tmp_path, flag, value, error):
        # Each once exited 0: with no items, with empty eval splits, or
        # reading -2 filler tokens per sentence as 0.
        err = run_fail(["synth", "--out-dir", str(tmp_path / "d"), "--brands", "4",
                        "--categories", "2", "--queries-per-brand", "4",
                        "--noise-tokens", "6", f"{flag}={value}"])
        assert err == {"error": error}
        assert not (tmp_path / "d").exists()

    def test_split_empty_holdout_list_fails(self, pipeline, tmp_path):
        root, _ = pipeline
        err = run_fail([
            "split", "--corpus", str(root / "data" / "train.jsonl"),
            "--out-dir", str(tmp_path / "s"), "--holdout", ",",
        ])
        assert err == {"error": "empty held-out category list"}
        assert not (tmp_path / "s").exists()

    def test_split_holdout_k_zero_names_the_infeasible_k(self, pipeline, tmp_path):
        # --holdout-k 0 was given, so the error is about k, not a missing flag
        root, _ = pipeline
        err = run_fail([
            "split", "--corpus", str(root / "data" / "train.jsonl"),
            "--out-dir", str(tmp_path / "s"), "--holdout-k", "0",
        ])
        assert err["error"].startswith("k=0 infeasible with ")
        assert not (tmp_path / "s").exists()

    def test_non_finite_lr_fails_before_training(self, pipeline, tmp_path):
        root, _ = pipeline
        out = tmp_path / "nan.ckpt"
        err = run_fail([
            "train", "--corpus", str(root / "data" / "train.jsonl"),
            "--base", str(root / "base.ckpt"), "--vocab", str(root / "vocab.tsv"),
            "--out", str(out), "--epochs", "1", "--lr", "nan",
        ])
        assert "learning_rate" in err["error"]
        assert not out.exists()

    @pytest.mark.parametrize("line", ["[1,2]", "5", '"x"', "null", "true"])
    def test_non_object_corpus_line_is_a_json_error(self, pipeline, tmp_path, line):
        root, _ = pipeline
        corpus = tmp_path / "c.jsonl"
        corpus.write_text((root / "data" / "train.jsonl").read_text() + line + "\n")
        n_lines = len(corpus.read_text().splitlines())
        err = run_fail(["split", "--corpus", str(corpus), "--out-dir", str(tmp_path / "s"),
                        "--holdout-k", "1"])
        assert err["error"] == f"c.jsonl:{n_lines}: record must be a JSON object"
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("fields", [
        {"query": ["qry-0-0"]},
        {"item": {"id": "itm-0-0"}},
        {"query": 3},
        {"relevance": True},
        {"relevance": "0.5"},
        {"relevance": None},
    ], ids=["query-array", "item-object", "query-number", "relevance-bool",
            "relevance-string", "relevance-null"])
    def test_malformed_pair_is_a_json_error(self, pipeline, tmp_path, fields):
        root, _ = pipeline
        record = {"kind": "pair", "query": "qry-0-0", "item": "itm-0-0",
                  "relevance": 1, **fields}
        corpus = tmp_path / "c.jsonl"
        corpus.write_text((root / "data" / "train.jsonl").read_text()
                          + json.dumps(record) + "\n")
        n_lines = len(corpus.read_text().splitlines())
        err = run_fail(["split", "--corpus", str(corpus), "--out-dir", str(tmp_path / "s"),
                        "--holdout-k", "1"])
        assert err["error"] == (f"c.jsonl:{n_lines}: pair needs string 'query' and "
                                f"'item' and numeric 'relevance'")
        assert not (tmp_path / "s").exists()

    def test_table_outside_float32_range_writes_no_checkpoint(self, pipeline, tmp_path):
        root, _ = pipeline
        out = tmp_path / "big.ckpt"
        err = run_fail([
            "train", "--corpus", str(root / "data" / "train.jsonl"),
            "--base", str(root / "base.ckpt"), "--vocab", str(root / "vocab.tsv"),
            "--out", str(out), "--loss", "mse", "--epochs", "2", "--lr", "1e39",
        ])
        assert err["error"] == "big.ckpt: table has entries outside float32 range"
        assert sorted(f.name for f in tmp_path.iterdir()) == []

    @pytest.mark.parametrize("warnings_flag", [[], ["-W", "error"]],
                             ids=["default", "warnings-as-errors"])
    def test_diverging_step_is_one_json_line_without_float_warnings(
            self, pipeline, tmp_path, warnings_flag):
        # At lr 1e308 the first step leaves rows near 1e308, whose sums
        # overflow in the next forward.
        root, _ = pipeline
        src = str(Path(matchlab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, *warnings_flag, "-m", "matchlab.cli", "train",
             "--corpus", str(root / "data" / "train.jsonl"),
             "--base", str(root / "base.ckpt"), "--vocab", str(root / "vocab.tsv"),
             "--out", str(tmp_path / "big.ckpt"), "--loss", "mse", "--lr", "1e308"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0])["error"].startswith("non-finite ")
        assert sorted(f.name for f in tmp_path.iterdir()) == []

    def test_bad_model_spec(self, pipeline, tmp_path):
        root, _ = pipeline
        err = run_fail([
            "sweep", "--iid", str(root / "data" / "iid_eval.jsonl"),
            "--pool", str(root / "data" / "ood_eval.jsonl"),
            "--vocab", str(root / "vocab.tsv"), "--model", "justaname",
            "--out", str(tmp_path / "s.csv"),
        ])
        assert "NAME=CHECKPOINT" in err["error"]

    def test_empty_k_list_fails(self, pipeline, tmp_path):
        root, _ = pipeline
        err = run_fail([
            "eval", "--corpus", str(root / "data" / "iid_eval.jsonl"),
            "--checkpoint", str(root / "itv.ckpt"), "--vocab", str(root / "vocab.tsv"),
            "--out", str(tmp_path / "r.json"), "--ks", "",
        ])
        assert err["error"] == "empty k list"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("bins", ["0", "-1"])
    def test_bins_below_one_fail(self, pipeline, tmp_path, bins):
        root, _ = pipeline
        err = run_fail([
            "eval", "--corpus", str(root / "data" / "iid_eval.jsonl"),
            "--checkpoint", str(root / "itv.ckpt"), "--vocab", str(root / "vocab.tsv"),
            "--out", str(tmp_path / "r.json"), "--bins", bins,
        ])
        assert err["error"] == f"n_bins must be >= 1, got {bins}"
        assert not (tmp_path / "r.json").exists()
        err = run_fail([
            "sweep", "--iid", str(root / "data" / "iid_eval.jsonl"),
            "--pool", str(root / "data" / "ood_eval.jsonl"),
            "--vocab", str(root / "vocab.tsv"), "--model", f"base={root / 'base.ckpt'}",
            "--bins", bins, "--out", str(tmp_path / "s.csv"),
        ])
        assert err["error"] == f"n_bins must be >= 1, got {bins}"
        assert not (tmp_path / "s.csv").exists()

    def test_bins_above_item_count_fail(self, pipeline, tmp_path):
        root, _ = pipeline
        corpus = root / "data" / "iid_eval.jsonl"
        n_items = len(load_corpus(corpus).items)
        err = run_fail([
            "eval", "--corpus", str(corpus),
            "--checkpoint", str(root / "itv.ckpt"), "--vocab", str(root / "vocab.tsv"),
            "--out", str(tmp_path / "r.json"), "--bins", str(n_items + 1),
        ])
        assert err["error"] == f"n_bins={n_items + 1} exceeds item count {n_items}"
        assert not (tmp_path / "r.json").exists()

    def test_repeated_sweep_model_name_fails(self, pipeline, tmp_path):
        root, _ = pipeline
        base, itv = f"m={root / 'base.ckpt'}", f"m={root / 'itv.ckpt'}"
        (tmp_path / "cfg.json").write_text(json.dumps({"model": base}))
        for models in (["--model", base, "--model", itv],
                       ["--config", str(tmp_path / "cfg.json"), "--model", itv]):
            err = run_fail([
                "sweep", "--iid", str(root / "data" / "iid_eval.jsonl"),
                "--pool", str(root / "data" / "ood_eval.jsonl"),
                "--vocab", str(root / "vocab.tsv"), *models,
                "--fractions", "0", "--ks", "1", "--bins", "1", "--out", str(tmp_path / "s.csv"),
            ])
            assert err["error"] == "--model name 'm' given twice"
        assert not (tmp_path / "s.csv").exists()

    def test_bad_fraction_list(self, pipeline, tmp_path):
        root, _ = pipeline
        err = run_fail([
            "sweep", "--iid", str(root / "data" / "iid_eval.jsonl"),
            "--pool", str(root / "data" / "ood_eval.jsonl"),
            "--vocab", str(root / "vocab.tsv"),
            "--model", f"base={root / 'base.ckpt'}",
            "--fractions", "a,b", "--out", str(tmp_path / "s.csv"),
        ])
        assert "fraction" in err["error"]


class TestConfigOverlay:
    def test_config_fills_unset_flags(self, pipeline, tmp_path):
        root, _ = pipeline
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"loss": "mse", "epochs": 2, "lr": 0.01}))
        out = run_ok([
            "pretrain-base", "--corpus", str(root / "data" / "train.jsonl"),
            "--out", str(tmp_path / "b.ckpt"), "--vocab-out", str(tmp_path / "v.tsv"),
            "--dim", "8", "--config", str(cfg),
        ])
        assert out["epochs"] == 2

    def test_explicit_flag_beats_config(self, pipeline, tmp_path):
        root, _ = pipeline
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"loss": "mse", "epochs": 4, "lr": 0.01}))
        out = run_ok([
            "pretrain-base", "--corpus", str(root / "data" / "train.jsonl"),
            "--out", str(tmp_path / "b.ckpt"), "--vocab-out", str(tmp_path / "v.tsv"),
            "--dim", "8", "--config", str(cfg), "--epochs", "1",
        ])
        assert out["epochs"] == 1
        sidecar = json.loads((tmp_path / "b.ckpt.config.json").read_text())
        assert sidecar["config"]["epochs"] == 1
        assert sidecar["config"]["lr"] == 0.01

    def test_explicit_flag_equal_to_default_beats_config(self, pipeline, tmp_path):
        root, _ = pipeline
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"loss": "mse", "epochs": 1, "lr": 0.5}))
        run_ok([
            "pretrain-base", "--corpus", str(root / "data" / "train.jsonl"),
            "--out", str(tmp_path / "b.ckpt"), "--vocab-out", str(tmp_path / "v.tsv"),
            "--dim", "8", "--config", str(cfg), "--lr", "1e-4",
        ])
        sidecar = json.loads((tmp_path / "b.ckpt.config.json").read_text())
        assert sidecar["config"]["lr"] == 1e-4
        assert sidecar["config"]["epochs"] == 1

    def test_config_values_are_coerced_or_rejected(self, pipeline, tmp_path):
        root, _ = pipeline
        argv = [
            "pretrain-base", "--corpus", str(root / "data" / "train.jsonl"),
            "--out", str(tmp_path / "b.ckpt"), "--vocab-out", str(tmp_path / "v.tsv"),
            "--dim", "8", "--config", str(tmp_path / "cfg.json"),
        ]
        (tmp_path / "cfg.json").write_text(json.dumps({"loss": "mse", "epochs": "2"}))
        assert run_ok(argv)["epochs"] == 2
        for bad in ({"epochs": "two"}, {"epochs": 2.5}, {"lr": [0.1]}, {"loss": "hinge"}):
            (tmp_path / "cfg.json").write_text(json.dumps(bad))
            err = run_fail(argv)
            assert next(iter(bad)) in err["error"]

    def test_unknown_config_key_rejected(self, pipeline, tmp_path):
        root, _ = pipeline
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"warp_drive": True}))
        err = run_fail([
            "pretrain-base", "--corpus", str(root / "data" / "train.jsonl"),
            "--out", str(tmp_path / "b.ckpt"), "--vocab-out", str(tmp_path / "v.tsv"),
            "--config", str(cfg),
        ])
        assert "warp_drive" in err["error"]

    def _eval(self, root, out, *flags):
        return run_ok([
            "eval", "--corpus", str(root / "data" / "iid_eval.jsonl"),
            "--checkpoint", str(root / "itv.ckpt"), "--vocab", str(root / "vocab.tsv"),
            "--out", str(out), "--bins", "1", *flags,
        ])

    def test_config_value_that_looks_like_a_flag_stays_a_value(self, pipeline, tmp_path):
        root, _ = pipeline
        (tmp_path / "cfg.json").write_text(json.dumps({"split_tag": "-x"}))
        report = self._eval(root, tmp_path / "r.json", "--config", str(tmp_path / "cfg.json"))
        assert report["split"] == "-x"

    def test_abbreviated_typed_flag_beats_config(self, pipeline, tmp_path):
        root, _ = pipeline
        (tmp_path / "cfg.json").write_text(json.dumps({"bins": 3}))
        report = self._eval(root, tmp_path / "r.json",
                            "--config", str(tmp_path / "cfg.json"), "--bin", "2")
        assert report["config_digest"] == self._eval(root, tmp_path / "r.json",
                                                     "--bins", "2")["config_digest"]

    def test_null_keeps_a_none_default_and_is_rejected_elsewhere(self, pipeline, tmp_path):
        root, _ = pipeline
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"csv": None}))
        report = self._eval(root, tmp_path / "r.json", "--config", str(cfg))
        assert report["config_digest"] == self._eval(root, tmp_path / "r.json")["config_digest"]
        assert sorted(f.name for f in tmp_path.iterdir()) == ["cfg.json", "r.json"]
        cfg.write_text(json.dumps({"split_tag": None}))
        err = run_fail([
            "eval", "--corpus", str(root / "data" / "iid_eval.jsonl"),
            "--checkpoint", str(root / "itv.ckpt"), "--vocab", str(root / "vocab.tsv"),
            "--out", str(tmp_path / "r2.json"), "--config", str(cfg),
        ])
        assert err["error"] == "config key 'split_tag' has invalid value None"
        assert not (tmp_path / "r2.json").exists()

    def test_sweep_config_model_is_added_ahead_of_typed_models(self, pipeline, tmp_path):
        root, _ = pipeline
        base, itv = f"base={root / 'base.ckpt'}", f"itv={root / 'itv.ckpt'}"
        (tmp_path / "cfg.json").write_text(json.dumps({"model": base}))

        def sweep(*flags):
            return run_ok([
                "sweep", "--iid", str(root / "data" / "iid_eval.jsonl"),
                "--pool", str(root / "data" / "ood_eval.jsonl"),
                "--vocab", str(root / "vocab.tsv"), "--fractions", "0", "--ks", "1",
                "--bins", "1", "--out", str(tmp_path / "s.csv"), *flags,
            ])

        out = sweep("--config", str(tmp_path / "cfg.json"), "--model", itv)
        assert out["models"] == ["base", "itv"]
        assert out["config_digest"] == sweep("--model", base, "--model", itv)["config_digest"]
        assert out["config_digest"] != sweep("--model", itv, "--model", base)["config_digest"]

    def test_config_list_gives_a_repeatable_flag_one_value_per_entry(self, pipeline, tmp_path):
        root, _ = pipeline
        base, itv = f"base={root / 'base.ckpt'}", f"itv={root / 'itv.ckpt'}"
        common = [
            "sweep", "--iid", str(root / "data" / "iid_eval.jsonl"),
            "--pool", str(root / "data" / "ood_eval.jsonl"),
            "--vocab", str(root / "vocab.tsv"), "--fractions", "0,1", "--bins", "2",
            "--out", str(tmp_path / "s.csv"),
        ]
        typed = run_ok([*common, "--model", base, "--model", itv])
        typed_bytes = (tmp_path / "s.csv").read_bytes()
        (tmp_path / "s.csv").unlink()
        (tmp_path / "cfg.json").write_text(json.dumps({"model": [base, itv]}))
        assert run_ok([*common, "--config", str(tmp_path / "cfg.json")]) == typed
        assert (tmp_path / "s.csv").read_bytes() == typed_bytes
        (tmp_path / "s.csv").unlink()
        for bad in ([base, 3], [[base]]):
            (tmp_path / "cfg.json").write_text(json.dumps({"model": bad}))
            err = run_fail([*common, "--config", str(tmp_path / "cfg.json")])
            assert err["error"] == f"config key 'model' has invalid value {bad!r}"
        assert not (tmp_path / "s.csv").exists()

    def test_config_supplies_required_flags(self, pipeline, tmp_path):
        root, _ = pipeline
        paths = {"corpus": str(root / "data" / "iid_eval.jsonl"),
                 "checkpoint": str(root / "itv.ckpt"), "vocab": str(root / "vocab.tsv"),
                 "out": str(tmp_path / "r.json"), "bins": "1"}
        typed = run_ok(["eval", *(x for k, v in paths.items() for x in (f"--{k}", v))])
        typed_bytes = (tmp_path / "r.json").read_bytes()
        (tmp_path / "r.json").unlink()
        (tmp_path / "cfg.json").write_text(json.dumps(paths))
        assert run_ok(["eval", "--config", str(tmp_path / "cfg.json")]) == typed
        assert (tmp_path / "r.json").read_bytes() == typed_bytes
        # a typed required flag still beats the config's
        (tmp_path / "r.json").unlink()
        run_ok(["eval", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "t.json")])
        assert (tmp_path / "t.json").exists() and not (tmp_path / "r.json").exists()

    def test_required_flag_in_neither_place_fails(self, pipeline, tmp_path):
        root, _ = pipeline
        (tmp_path / "cfg.json").write_text(json.dumps({"vocab": str(root / "vocab.tsv")}))
        for extra in ([], ["--config", str(tmp_path / "cfg.json")]):
            err = run_fail(["eval", "--corpus", str(root / "data" / "iid_eval.jsonl"),
                            "--checkpoint", str(root / "itv.ckpt"), *extra])
            missing = "--vocab, --out" if not extra else "--out"
            assert err["error"] == f"the following arguments are required: {missing}"

    def test_config_run_matches_flag_run_byte_for_byte(self, pipeline, tmp_path, monkeypatch):
        root, _ = pipeline
        values = {"reg": "maskreg", "reg-lambda": 0.2, "mask_fraction": 0.25,
                  "epochs": 2, "lr": 0.01, "batch_size": 8, "seed": 3}
        (tmp_path / "cfg.json").write_text(json.dumps(values))
        flags = [x for k, v in values.items() for x in (f"--{k.replace('_', '-')}", str(v))]
        common = [
            "train", "--corpus", str(root / "data" / "train.jsonl"),
            "--base", str(root / "base.ckpt"), "--vocab", str(root / "vocab.tsv"),
            "--out", "m.ckpt", "--trace-out", "trace.csv",
        ]
        digests = []
        for name, extra in (("flags", flags), ("config", ["--config", str(tmp_path / "cfg.json")])):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            digests.append(run_ok(common + extra)["config_digest"])
        assert digests[0] == digests[1]
        for rel in ("m.ckpt", "m.ckpt.config.json", "trace.csv"):
            assert (tmp_path / "flags" / rel).read_bytes() == \
                (tmp_path / "config" / rel).read_bytes()


class TestDefaultsAndDigests:
    def test_epoch_defaults_follow_the_loss(self):
        parser = build_parser()
        ns = parser.parse_args(["train", "--corpus", "c", "--base", "b",
                                "--vocab", "v", "--out", "o"])
        assert _resolve_epochs(ns) == 200
        ns = parser.parse_args(["train", "--corpus", "c", "--base", "b",
                                "--vocab", "v", "--out", "o", "--loss", "mse"])
        assert _resolve_epochs(ns) == 5
        ns = parser.parse_args(["train", "--corpus", "c", "--base", "b",
                                "--vocab", "v", "--out", "o", "--loss", "mse",
                                "--epochs", "7"])
        assert _resolve_epochs(ns) == 7

    TRAIN_REQUIRED = {
        "train": ["--corpus", "c", "--base", "b", "--vocab", "v", "--out", "o"],
        "pretrain-base": ["--corpus", "c", "--out", "o", "--vocab-out", "v"],
    }

    @pytest.mark.parametrize("loss", ["contrastive", "mse"])
    @pytest.mark.parametrize("command", sorted(TRAIN_REQUIRED))
    def test_training_defaults_are_the_config_defaults(self, command, loss):
        ns = build_parser().parse_args([command, *self.TRAIN_REQUIRED[command], "--loss", loss])
        regularizer = (RegularizerConfig(kind=ns.reg, lam=ns.reg_lambda,
                                         mask_fraction=ns.mask_fraction,
                                         dropout_rate=ns.dropout_rate,
                                         itvaug_fraction=ns.itvaug_fraction)
                       if command == "train" else RegularizerConfig(kind="none"))
        assert regularizer == RegularizerConfig()
        config = TrainConfig(loss_kind=ns.loss, regularizer=regularizer,
                             epochs=_resolve_epochs(ns), batch_size=ns.batch_size,
                             learning_rate=ns.lr, seed=ns.seed,
                             negative_strategy=ns.negatives)
        # mse's epoch default (5) is the CLI's own; the library has one default.
        want = (TrainConfig() if loss == "contrastive"
                else dataclasses.replace(TrainConfig(), loss_kind="mse", epochs=5))
        assert config == want

    @pytest.mark.parametrize("moved", [False, True], ids=["as-is", "moved"])
    @pytest.mark.parametrize("command", sorted(TRAIN_REQUIRED))
    def test_help_states_the_default_constants(self, command, moved, monkeypatch):
        # The defaults --epochs and --mask-fraction name in --help are read
        # from DEFAULT_EPOCHS and resolved_mask_fraction: moved constants
        # move the help with them.
        if moved:
            monkeypatch.setitem(matchlab.cli.DEFAULT_EPOCHS, "contrastive", 7)
            monkeypatch.setitem(matchlab.cli.DEFAULT_EPOCHS, "mse", 3)
            monkeypatch.setattr(RegularizerConfig, "resolved_mask_fraction", property(
                lambda self: 0.25 if self.kind == "maskreg" else 0.75))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(out.getvalue().split())
        epochs = matchlab.cli.DEFAULT_EPOCHS
        assert (f"training epochs (default: {epochs['contrastive']} contrastive, "
                f"{epochs['mse']} mse)") in text
        fraction = {kind: RegularizerConfig(kind=kind).resolved_mask_fraction
                    for kind in ("itvreg", "itvaug", "maskreg")}
        assert fraction["itvreg"] == fraction["itvaug"]
        stated = (f"intervention mask fraction (default: {fraction['itvreg']:g} itvreg/itvaug, "
                  f"{fraction['maskreg']:g} maskreg)")
        assert (stated in text) == (command == "train")

    def test_split_defaults_are_the_spec_defaults(self):
        ns = build_parser().parse_args(["split", "--corpus", "c", "--out-dir", "d"])
        assert (ns.train_fraction, ns.seed) == (SplitSpec().train_fraction, SplitSpec().seed)

    def test_digest_is_stable_and_flag_sensitive(self, pipeline, tmp_path, monkeypatch):
        root, _ = pipeline
        monkeypatch.chdir(root)
        argv = [
            "eval", "--corpus", "data/iid_eval.jsonl", "--checkpoint", "itv.ckpt",
            "--vocab", "vocab.tsv", "--out", str(tmp_path / "r.json"),
            "--ks", "1", "--bins", "2",
        ]
        first = run_ok(argv)
        second = run_ok(argv)
        assert first["config_digest"] == second["config_digest"]
        third = run_ok(argv[:-1] + ["3"])
        assert third["config_digest"] != first["config_digest"]

    def test_console_entry_point(self):
        # pytest's pythonpath setting does not reach a child process.
        src = str(Path(matchlab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "matchlab.cli", "--help"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        for name in ("synth", "split", "pretrain-base", "train", "eval",
                     "sweep", "importance"):
            assert name in proc.stdout
