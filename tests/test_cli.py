"""End-to-end command-line pipeline: synth -> pretrain-base -> train -> eval ->
sweep -> importance, plus the error contract (single-line JSON on stderr,
exit code 2) and config-file overlay rules."""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys

import pytest

from matchlab import load_corpus
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

    def test_split_needs_a_holdout_choice(self, pipeline, tmp_path):
        root, _ = pipeline
        err = run_fail([
            "split", "--corpus", str(root / "data" / "train.jsonl"),
            "--out-dir", str(tmp_path / "s"),
        ])
        assert "holdout" in err["error"]

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
        proc = subprocess.run(
            [sys.executable, "-m", "matchlab.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        for name in ("synth", "split", "pretrain-base", "train", "eval",
                     "sweep", "importance"):
            assert name in proc.stdout
