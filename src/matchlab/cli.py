"""Command-line pipeline: generate, split, pretrain, train, evaluate, sweep,
and inspect token importance.

Every subcommand accepts --config (a flat JSON file of flag values, read as
those flags placed before the command line's own) and embeds a digest of the
resolved configuration in its outputs so runs can be traced back to their
settings.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import sys
from pathlib import Path

from .corpus import (
    Corpus,
    CorpusError,
    SplitSpec,
    Vocab,
    build_vocab,
    load_corpus,
    most_frequent_categories,
    split_by_category,
    synth_generate,
    write_corpus,
)
from .encoder import init_model
from .evaluation import (
    evaluate,
    sweep_interpolation,
    write_report_csv,
    write_report_json,
    write_sweep_csv,
)
from .interventions import (
    importance_report,
    write_importance_summary,
    write_importance_tsv,
)
from .objectives import REGULARIZER_KINDS, RegularizerConfig
from .trainer import (
    LOSS_KINDS,
    NEGATIVE_STRATEGIES,
    TrainConfig,
    TrainRun,
    load_checkpoint,
    save_checkpoint,
    train,
    write_loss_trace,
)

DEFAULT_EPOCHS = {"contrastive": TrainConfig.epochs, "mse": 5}


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        print(json.dumps({"error": message}), file=sys.stderr)
        raise SystemExit(2)


def _comma_list(text: str, kind: type, what: str) -> list:
    """The non-blank entries of a comma-separated flag value, each read as kind."""
    try:
        vals = [kind(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise CliError(f"could not parse {what} list {text!r}") from None
    if not vals:
        raise CliError(f"empty {what} list")
    return vals


def _default(fn, name: str):
    """The default of ``fn``'s parameter ``name``, which the flag feeding it
    repeats."""
    return inspect.signature(fn).parameters[name].default


def _seed(text: str) -> int:
    """A --seed value: a non-negative integer, as numpy's generators take."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _config_flags(path: str, actions: dict[str, argparse.Action]) -> list[str]:
    """A flat JSON config read as the flags it stands for, in `--flag=value`
    form so that a value such as "-x" stays a value. A list for a repeatable
    flag stands for one flag per entry."""
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"could not read config {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise CliError("config file must hold a JSON object of flag values")
    flags = []
    for key, value in cfg.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise CliError(f"config key {key!r} is not a flag of this subcommand")
        if value is None and action.default is None:
            continue
        flag = action.option_strings[0]
        if (isinstance(action, argparse._AppendAction) and isinstance(value, list)
                and all(isinstance(v, str) for v in value)):
            flags += [f"{flag}={v}" for v in value]
            continue
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise CliError(f"config key {key!r} has invalid value {value!r}")
        flags.append(f"{flag}={value}")
    return flags


def _resolved(ns: argparse.Namespace) -> tuple[dict, str]:
    """The run's resolved flag values and their digest."""
    resolved = {
        k: v for k, v in sorted(vars(ns).items())
        if k not in ("func", "config") and not k.startswith("_")
    }
    blob = json.dumps(resolved, sort_keys=True, default=str)
    return resolved, hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _write_config_sidecar(ns: argparse.Namespace, path: Path) -> str:
    resolved, digest = _resolved(ns)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"config_digest": digest, "config": resolved}, fh,
                  indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return digest


def _resolve_epochs(ns: argparse.Namespace) -> int:
    if ns.epochs is not None:
        return ns.epochs
    return DEFAULT_EPOCHS[ns.loss]


def _write_splits(ns: argparse.Namespace, splits: tuple[Corpus, Corpus, Corpus],
                  summary: dict) -> int:
    """Write the (train, iid_eval, ood_eval) JSONL files and the config
    sidecar to --out-dir, then print the summary with the config digest."""
    out = Path(ns.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, corpus in zip(("train", "iid_eval", "ood_eval"), splits):
        write_corpus(corpus, out / f"{name}.jsonl")
    digest = _write_config_sidecar(ns, out / "config.json")
    print(json.dumps({**summary, "config_digest": digest}))
    return 0


def cmd_synth(ns: argparse.Namespace) -> int:
    train_c, iid_c, ood_c = synth_generate(
        ns.brands, ns.categories, ns.queries_per_brand, ns.noise_tokens, ns.seed,
        items_per_brand=ns.items_per_brand,
        eval_queries_per_brand=ns.eval_queries_per_brand,
        descriptors_per_category=ns.descriptors_per_category,
        descriptors_per_sentence=ns.descriptors_per_sentence,
        noise_per_sentence=ns.noise_per_sentence,
    )
    return _write_splits(ns, (train_c, iid_c, ood_c), {
        "train_queries": len(train_c.queries),
        "items": len(train_c.items),
        "iid_queries": len(iid_c.queries),
        "ood_queries": len(ood_c.queries),
    })


def cmd_split(ns: argparse.Namespace) -> int:
    corpus = load_corpus(ns.corpus)
    if ns.holdout:
        holdout = tuple(_comma_list(ns.holdout, str, "held-out category"))
    elif ns.holdout_k is not None:
        holdout = most_frequent_categories(corpus, ns.holdout_k)
    else:
        raise CliError("give --holdout names or --holdout-k")
    spec = SplitSpec(holdout=holdout, seed=ns.seed,
                     train_fraction=ns.train_fraction)
    train_c, iid_c, ood_c = split_by_category(corpus, spec)
    return _write_splits(ns, (train_c, iid_c, ood_c), {
        "held_out": list(holdout),
        "train_queries": len(train_c.queries),
        "iid_queries": len(iid_c.queries),
        "ood_queries": len(ood_c.queries),
    })


def _fit(ns: argparse.Namespace, corpus, theta_init, theta0,
         regularizer: RegularizerConfig) -> tuple[TrainRun, TrainConfig, str]:
    """Train with the common training flags, then write the checkpoint, its
    config sidecar and the optional loss trace."""
    config = TrainConfig(
        loss_kind=ns.loss,
        regularizer=regularizer,
        epochs=_resolve_epochs(ns),
        batch_size=ns.batch_size,
        learning_rate=ns.lr,
        seed=ns.seed,
        negative_strategy=ns.negatives,
    )
    run = train(corpus, theta_init, theta0, config)
    save_checkpoint(run.theta, ns.out)
    digest = _write_config_sidecar(ns, Path(str(ns.out) + ".config.json"))
    if ns.trace_out:
        write_loss_trace(run, ns.trace_out, header_comment=f"config_digest={digest}")
    return run, config, digest


def cmd_pretrain_base(ns: argparse.Namespace) -> int:
    corpus = load_corpus(ns.corpus)
    vocab = build_vocab(corpus, min_freq=ns.min_freq)
    theta_init = init_model(vocab, dim=ns.dim, seed=ns.seed)
    # No anchor exists yet; train against a frozen copy of the init.
    run, config, digest = _fit(ns, corpus, theta_init, theta_init.copy(frozen=True),
                               RegularizerConfig(kind="none"))
    vocab.save(ns.vocab_out)
    print(json.dumps({
        "checkpoint": str(ns.out),
        "vocab": str(ns.vocab_out),
        "vocab_size": len(vocab),
        "epochs": config.epochs,
        "final_total_loss": run.trace[-1][2],
        "config_digest": digest,
    }))
    return 0


def cmd_train(ns: argparse.Namespace) -> int:
    corpus = load_corpus(ns.corpus)
    vocab = Vocab.load(ns.vocab)
    theta0 = load_checkpoint(ns.base, vocab).freeze()
    if ns.init == "base":
        theta_init = theta0.copy()
    else:
        theta_init = init_model(vocab, dim=theta0.dim, seed=ns.seed)
    regularizer = RegularizerConfig(kind=ns.reg, lam=ns.reg_lambda,
                                    mask_fraction=ns.mask_fraction,
                                    dropout_rate=ns.dropout_rate,
                                    itvaug_fraction=ns.itvaug_fraction)
    run, config, digest = _fit(ns, corpus, theta_init, theta0, regularizer)
    print(json.dumps({
        "checkpoint": str(ns.out),
        "epochs": config.epochs,
        "regularizer": config.regularizer.kind,
        "final_total_loss": run.trace[-1][2],
        "skipped": run.skipped,
        "config_digest": digest,
    }))
    return 0


def cmd_eval(ns: argparse.Namespace) -> int:
    corpus = load_corpus(ns.corpus)
    vocab = Vocab.load(ns.vocab)
    theta = load_checkpoint(ns.checkpoint, vocab)
    ks = _comma_list(ns.ks, int, "k")
    report = evaluate(theta, corpus, ks=ks, n_bins=ns.bins, split=ns.split_tag)
    digest = _resolved(ns)[1]
    write_report_json(report, ns.out, config_digest=digest)
    if ns.csv:
        write_report_csv(report, ns.csv, config_digest=digest)
    print(json.dumps(report.to_json_dict(digest)))
    return 0


def cmd_sweep(ns: argparse.Namespace) -> int:
    iid_c = load_corpus(ns.iid)
    pool_c = load_corpus(ns.pool)
    vocab = Vocab.load(ns.vocab)
    fractions = _comma_list(ns.fractions, float, "fraction")
    ks = _comma_list(ns.ks, int, "k")
    sweeps = {}
    for spec in ns.model:
        if "=" not in spec:
            raise CliError(f"--model needs NAME=CHECKPOINT, got {spec!r}")
        name, ckpt = spec.split("=", 1)
        if name in sweeps:
            raise CliError(f"--model name {name!r} given twice")
        theta = load_checkpoint(ckpt, vocab)
        sweeps[name] = sweep_interpolation(
            theta, iid_c, pool_c, fractions, ns.seed, ks=ks, n_bins=ns.bins
        )
    digest = _resolved(ns)[1]
    write_sweep_csv(sweeps, ns.out, config_digest=digest)
    print(json.dumps({"models": sorted(sweeps), "fractions": fractions,
                      "out": str(ns.out), "config_digest": digest}))
    return 0


def cmd_importance(ns: argparse.Namespace) -> int:
    if ns.limit is not None and ns.limit < 1:
        raise CliError(f"--limit must be >= 1, got {ns.limit}")
    corpus = load_corpus(ns.corpus)
    vocab = Vocab.load(ns.vocab)
    theta = load_checkpoint(ns.checkpoint, vocab)
    theta0 = load_checkpoint(ns.base, vocab).freeze()
    source = corpus.queries if ns.source == "queries" else corpus.items
    if ns.ids:
        wanted = _comma_list(ns.ids, str, "id")
        missing = [i for i in wanted if i not in source]
        if missing:
            raise CliError(f"{ns.source} id {missing[0]!r} not in corpus")
    else:
        wanted = sorted(source)[: ns.limit]
    out = Path(ns.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    reports = []
    for rid in wanted:
        rep = importance_report(theta, theta0, vocab.encode(source[rid]))
        write_importance_tsv(rep, out / f"{rid}.tsv")
        reports.append(rep)
    write_importance_summary(reports, out / "summary.tsv")
    digest = _write_config_sidecar(ns, out / "config.json")
    print(json.dumps({"sentences": len(reports), "out_dir": str(out),
                      "config_digest": digest}))
    return 0


def _add_common_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--loss", choices=LOSS_KINDS, default=TrainConfig.loss_kind,
                   help="fitting loss")
    p.add_argument("--epochs", type=int, default=None,
                   help="training epochs (default: " + ", ".join(
                       f"{n} {kind}" for kind, n in DEFAULT_EPOCHS.items()) + ")")
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size,
                   help="examples per batch")
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate,
                   help="Adam learning rate")
    p.add_argument("--seed", type=_seed, default=TrainConfig.seed, help="run seed")
    p.add_argument("--negatives", choices=NEGATIVE_STRATEGIES,
                   default=TrainConfig.negative_strategy, help="negative mining strategy")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="matchlab",
        description="Train and evaluate bag-of-words matching models with "
                    "base-anchored regularization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.add_argument("--config", default=None,
                       help="flat JSON file of flag values, read as flags "
                            "placed before the command line's")
        return p

    p = add("synth", "generate the synthetic spurious-correlation benchmark")
    p.add_argument("--out-dir", required=True, help="directory for the three JSONL splits")
    p.add_argument("--brands", type=int, default=12, help="number of brand tokens")
    p.add_argument("--categories", type=int, default=4, help="number of categories")
    p.add_argument("--queries-per-brand", type=int, default=42,
                   help="training queries per brand")
    p.add_argument("--noise-tokens", type=int, default=30, help="size of the noise pool")
    p.add_argument("--items-per-brand", type=int, default=None,
                   help="candidate items per brand (default: queries-per-brand/5)")
    p.add_argument("--eval-queries-per-brand", type=int, default=None,
                   help="eval queries per brand (default: queries-per-brand/5)")
    p.add_argument("--descriptors-per-category", type=int,
                   default=_default(synth_generate, "descriptors_per_category"),
                   help="descriptor vocabulary per category")
    p.add_argument("--descriptors-per-sentence", type=int, default=None,
                   help="descriptors drawn per sentence (default: all of them)")
    p.add_argument("--noise-per-sentence", type=int,
                   default=_default(synth_generate, "noise_per_sentence"),
                   help="filler tokens drawn per sentence")
    p.add_argument("--seed", type=_seed, default=0, help="generator seed")
    p.set_defaults(func=cmd_synth)

    p = add("split", "category-holdout split of a JSONL corpus")
    p.add_argument("--corpus", required=True, help="input JSONL corpus")
    p.add_argument("--out-dir", required=True, help="directory for the three JSONL splits")
    p.add_argument("--holdout", default=None, help="comma-separated held-out categories")
    p.add_argument("--holdout-k", type=int, default=None,
                   help="hold out the k most frequent categories instead")
    p.add_argument("--train-fraction", type=float, default=SplitSpec.train_fraction,
                   help="train share of the non-held-out queries")
    p.add_argument("--seed", type=_seed, default=SplitSpec.seed, help="shuffle seed")
    p.set_defaults(func=cmd_split)

    p = add("pretrain-base", "manufacture a frozen base model from a broad corpus")
    p.add_argument("--corpus", required=True, help="broad-corpus JSONL")
    p.add_argument("--out", required=True, help="checkpoint path to write")
    p.add_argument("--vocab-out", required=True, help="vocabulary TSV path to write")
    p.add_argument("--trace-out", default=None, help="optional loss-trace CSV")
    p.add_argument("--dim", type=int, default=_default(init_model, "dim"),
                   help="embedding dimension")
    p.add_argument("--min-freq", type=int, default=_default(build_vocab, "min_freq"),
                   help="vocabulary frequency floor")
    _add_common_train_flags(p)
    p.set_defaults(func=cmd_pretrain_base)

    p = add("train", "fine-tune from a base checkpoint, optionally regularized")
    p.add_argument("--corpus", required=True, help="training JSONL corpus")
    p.add_argument("--base", required=True, help="base-model checkpoint (the anchor)")
    p.add_argument("--vocab", required=True, help="vocabulary TSV")
    p.add_argument("--out", required=True, help="checkpoint path to write")
    p.add_argument("--trace-out", default=None, help="optional loss-trace CSV")
    p.add_argument("--init", choices=["base", "random"], default="base",
                   help="start from the base table or a fresh seeded init")
    p.add_argument("--reg", choices=list(REGULARIZER_KINDS), default=RegularizerConfig.kind,
                   help="regularizer kind")
    p.add_argument("--reg-lambda", type=float, default=RegularizerConfig.lam,
                   help="penalty weight")
    by_fraction: dict[float, list[str]] = {}  # the masking kinds by default fraction
    for kind in ("itvreg", "itvaug", "maskreg"):
        by_fraction.setdefault(RegularizerConfig(kind=kind).resolved_mask_fraction, []).append(kind)
    p.add_argument("--mask-fraction", type=float, default=RegularizerConfig.mask_fraction,
                   help="intervention mask fraction (default: " + ", ".join(
                       f"{f:g} {'/'.join(kinds)}" for f, kinds in by_fraction.items()) + ")")
    p.add_argument("--dropout-rate", type=float, default=RegularizerConfig.dropout_rate,
                   help="simcse dropout rate")
    p.add_argument("--itvaug-fraction", type=float, default=RegularizerConfig.itvaug_fraction,
                   help="fraction of queries given augmented pairs")
    _add_common_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = add("eval", "score a checkpoint against a corpus")
    p.add_argument("--corpus", required=True, help="evaluation JSONL corpus")
    p.add_argument("--checkpoint", required=True, help="model checkpoint")
    p.add_argument("--vocab", required=True, help="vocabulary TSV")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--csv", default=None, help="optional flat CSV row")
    p.add_argument("--ks", default=",".join(map(str, _default(evaluate, "ks"))),
                   help="comma-separated precision cutoffs")
    p.add_argument("--bins", type=int, default=_default(evaluate, "n_bins"),
                   help="item-frequency quantile bins")
    p.add_argument("--split-tag", default=_default(evaluate, "split"),
                   help="label recorded in the report")
    p.set_defaults(func=cmd_eval)

    p = add("sweep", "interpolate OOD items into an IID corpus and evaluate")
    p.add_argument("--iid", required=True, help="IID eval JSONL corpus")
    p.add_argument("--pool", required=True, help="OOD pool JSONL corpus")
    p.add_argument("--vocab", required=True, help="vocabulary TSV")
    p.add_argument("--model", action="append", required=True,
                   help="NAME=CHECKPOINT; repeat for several models")
    p.add_argument("--fractions", default="0,0.25,0.5,0.75,1",
                   help="comma-separated pool fractions")
    p.add_argument("--ks", default=",".join(map(str, _default(sweep_interpolation, "ks"))),
                   help="comma-separated precision cutoffs")
    p.add_argument("--bins", type=int, default=_default(sweep_interpolation, "n_bins"),
                   help="item-frequency quantile bins")
    p.add_argument("--seed", type=_seed, default=0, help="pool sampling seed")
    p.add_argument("--out", required=True, help="sweep CSV path")
    p.set_defaults(func=cmd_sweep)

    p = add("importance", "per-token importance against the base model")
    p.add_argument("--corpus", required=True, help="JSONL corpus to read sentences from")
    p.add_argument("--checkpoint", required=True, help="fine-tuned checkpoint")
    p.add_argument("--base", required=True, help="base checkpoint")
    p.add_argument("--vocab", required=True, help="vocabulary TSV")
    p.add_argument("--source", choices=["queries", "items"], default="queries",
                   help="which side of the corpus to score")
    p.add_argument("--ids", default=None, help="comma-separated ids (default: all)")
    p.add_argument("--limit", type=int, default=None,
                   help="cap the number of sentences (at least 1)")
    p.add_argument("--out-dir", required=True, help="directory for per-sentence TSVs")
    p.set_defaults(func=cmd_importance)

    return parser


def _subcommand_actions(parser: argparse.ArgumentParser, command: str) -> dict:
    sub = parser._subparsers._group_actions[0].choices[command]
    return {a.dest: a for a in sub._actions if a.dest != "help"}


def _command_line(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """The command line parsed alone, with required flags left to the full
    parse so that a config can supply them."""
    required = [a for sub in parser._subparsers._group_actions[0].choices.values()
                for a in sub._actions if a.required]
    for action in required:
        action.required = False
    try:
        return parser.parse_args(argv)
    finally:
        for action in required:
            action.required = True


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    ns = _command_line(parser, argv)
    try:
        flags = (_config_flags(ns.config, _subcommand_actions(parser, ns.command))
                 if ns.config else [])
        try:  # the last occurrence of a flag wins, so typed flags beat the config
            ns = parser.parse_args([ns.command, *flags, *argv[1:]])
        except SystemExit as exc:  # a missing flag or a rejected value, already printed
            return exc.code
        return ns.func(ns)
    except (CliError, CorpusError, ValueError, RuntimeError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
