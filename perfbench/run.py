#!/usr/bin/env python3
"""matchlab's benchmark: drives the package from outside through its public API.

    python3 perfbench/run.py --workload finetune-itvreg --seed 0 --seconds 30 --trace 0

One process, closed loop, one caller. The workload's inputs are made from
--seed; set-up runs SETUP_REPS times, interleaved with rounds of the timed
operations, and `setup_s` is its median. Rounds repeat while the next one
fits in --seconds. Outputs are checked against plain-numpy brute force after
timing.

Timed operations are sampled in short units: each evaluate, rank and
importance call, and each batch step of train() (StepClock). The small
shared hosts this runs on switch between a fast and a ~1.8x slower speed
every few tens of milliseconds, in a mix that drifts from minute to minute,
so a mean, median or high percentile over a run measures the neighbours'
load. Every timing metric is therefore taken from the fastest unit of the
run, which is in the fast speed if any unit is: `rank_ms.min` is the
fastest rank_items call, and each rate is one over the fewest seconds per
example of a batch step, per query of an evaluate call or per importance
report.

--trace 0 prints every end-to-end metric. --trace 1 runs one untraced round,
then traced rounds with every public function of the six layer modules
wrapped, and prints per-layer metrics per round (set-up ones per set-up for
`corpus`); spans go to perfbench/out/. Both print a `facts` line and end
with one JSON result line; the exit code is 1 if any output check failed.
"""

from __future__ import annotations

import os
import sys

# numpy reads its BLAS thread count once, at import: cap it at the cores this
# process may run on before anything imports numpy.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    _cur = os.environ.get(_var, "")
    os.environ[_var] = str(min(int(_cur), NPROC) if _cur.isdigit() and int(_cur) > 0 else NPROC)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import matchlab as ml  # noqa: E402

if not Path(ml.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"matchlab imported from {ml.__file__}, not from {ROOT / 'src'}")

import checks  # noqa: E402
from tracer import StepClock, Tracer  # noqa: E402
from workloads import WORKLOADS, Round, Spec, State, examples_used, input_facts, run_round, setup  # noqa: E402

SETUP_REPS = 5

# (name, unit, better, bound); BENCHMARK.json repeats this table. Timing
# bounds are the largest allowed, 0.25: the fastest units of the same work
# still differ by up to ~10% between processes.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("train_examples_per_s", "1/s", "higher", 0.25),
    ("iid_p1", "ratio", "higher", 0.25),
    ("ood_p1", "ratio", "higher", 0.25),
    ("eval_queries_per_s", "1/s", "higher", 0.25),
    ("rank_ms.min", "ms", "lower", 0.25),
    ("importance_sentences_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# (name, unit). Values are per round of the timed region, `corpus.*` per
# set-up; functions not called read 0.
PER_LAYER = (
    ("corpus.self_s", "s"),
    ("corpus.synth_generate.self_s", "s"),
    ("corpus.synth_pretrain.self_s", "s"),
    ("corpus.build_vocab.self_s", "s"),
    ("encoder.self_s", "s"),
    ("encoder.encode.calls", "count"),
    ("encoder.encode.self_s", "s"),
    ("encoder.encode.rows", "count"),
    ("encoder.encode_backward.calls", "count"),
    ("encoder.encode_backward.self_s", "s"),
    ("encoder.encode_with_dropout.calls", "count"),
    ("encoder.encode_with_dropout.self_s", "s"),
    ("encoder.encode_dropout_backward.calls", "count"),
    ("encoder.encode_dropout_backward.self_s", "s"),
    ("interventions.self_s", "s"),
    ("interventions.mask_fraction.calls", "count"),
    ("interventions.mask_fraction.self_s", "s"),
    ("interventions.importance_scores.calls", "count"),
    ("interventions.importance_scores.self_s", "s"),
    ("interventions.mask_single.calls", "count"),
    ("objectives.self_s", "s"),
    ("objectives.total_loss.calls", "count"),
    ("objectives.total_loss.self_s", "s"),
    ("objectives.intervention_seed.calls", "count"),
    ("objectives.intervention_seed.self_s", "s"),
    ("objectives.contrastive_loss.calls", "count"),
    ("objectives.contrastive_loss.self_s", "s"),
    ("objectives.itvreg_penalty.calls", "count"),
    ("objectives.itvreg_penalty.self_s", "s"),
    ("objectives.mse_loss.calls", "count"),
    ("objectives.mse_loss.self_s", "s"),
    ("objectives.simcse_penalty.calls", "count"),
    ("objectives.simcse_penalty.self_s", "s"),
    ("objectives.penalty_terms", "count"),
    ("objectives.penalty_skipped", "count"),
    ("objectives.penalty_useful_ratio", "ratio"),
    ("objectives.grad_rows", "count"),
    ("trainer.self_s", "s"),
    ("trainer.steps", "count"),
    ("trainer.mine_negatives.calls", "count"),
    ("trainer.mine_negatives.self_s", "s"),
    ("trainer.examples", "count"),
    ("trainer.skipped.no_negative", "count"),
    ("trainer.skipped.degenerate", "count"),
    ("trainer.skipped.short_batch", "count"),
    ("trainer.examples_useful_ratio", "ratio"),
    ("evaluation.self_s", "s"),
    ("evaluation.evaluate.calls", "count"),
    ("evaluation.evaluate.self_s", "s"),
    ("evaluation.rank_items.calls", "count"),
    ("evaluation.rank_items.self_s", "s"),
    ("evaluation.auc_partial.calls", "count"),
    ("evaluation.auc_partial.self_s", "s"),
    ("evaluation.excluded_items", "count"),
    ("trace.overhead_frac", "ratio"),
)


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_cap": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
    }


@dataclass
class Played:
    """A timed round with its state's checksums before and after it."""

    round: Round
    base_sums: tuple[str, str]
    model_sums: tuple[str | None, str | None]


def checksums(state: State) -> tuple[str, str | None]:
    return state.base.checksum(), state.model.checksum() if state.model else None


def verify(state: State, played: list[Played], reference: Round | None) -> list[tuple[int, str]]:
    """(failed operations, message) for every wrong output, one entry per
    operation. Every round must equal the first, and a traced round the
    untraced reference, so the detailed checks run on the first round, with
    its state, only."""
    problems: list[tuple[int, str]] = []

    def add(units: int, messages: list[str]) -> None:
        if messages:
            problems.append((units, "; ".join(messages)))

    want = (reference or played[0].round).fingerprint()
    for i, p in enumerate(played):
        r = p.round
        if r.fingerprint() != want:
            add(1, [f"round {i} computed other outputs than "
                    f"{'the untraced round' if reference else 'round 0'}"])
        for op, units, msg in r.errors:
            add(units, [f"{op} raised {msg}"])
        if r.train_run is not None:
            add(r.train_attempted, checks.check_training(r.train_run, *p.base_sums))
        if p.model_sums[0] != p.model_sums[1]:
            add(1, ["scoring changed the scored model"])
    first = played[0].round
    if first.model is None:
        return problems

    n = len(played)
    cat = checks.Catalogue(first.model.table, state.catalogue)
    base_cat = checks.Catalogue(state.base.table, state.catalogue)
    for split, corpus, report, _ in first.evals:
        queries = {q: state.vocab.encode(t) for q, t in corpus.queries.items()}
        add(n * len(queries), checks.check_evaluation(
            base_cat if split.startswith("base-") else cat,
            queries, corpus.relevant_by_query(), report))
    p1 = precision_at_1(first)
    if state.spec.fixture and "iid" in p1 and "ood" in p1:
        add(n, checks.check_fixture(state.seed, p1["iid"], p1["ood"]))
    for prefix, q, res, _ in first.ranks:
        add(n, checks.check_ranking(base_cat if prefix else cat, q, res.ranked, res.excluded,
                                    state.spec.top_k))
    for rep in first.importance:
        add(n, checks.check_importance(first.model.table, state.base.table, rep))
    return problems


def precision_at_1(r: Round) -> dict[str, float]:
    """P@1 per split over all of the round's evaluate calls."""
    hits: Counter = Counter()
    queries: Counter = Counter()
    for split, _, rep, _ in r.evals:
        hits[split] += rep.precision_at[1] * rep.n_queries
        queries[split] += rep.n_queries
    return {split: hits[split] / queries[split] for split in queries}


def end_to_end(setups: list[tuple[float, list[float]]], rounds: list[Round],
               rss_mb: float) -> dict[str, float]:
    """Rates are one over the fewest seconds per unit of work: per example of
    a batch step of train(), per query of an evaluate call, per importance
    report. On `score` the training rate is that of the set-up fine-tunes
    that made the scored model."""
    steps = [s for r in rounds for s in r.train_steps] or [s for _, st in setups for s in st]
    p1 = precision_at_1(rounds[0])
    return {
        "setup_s": statistics.median(sec for sec, _ in setups),
        "train_examples_per_s": 1.0 / min(steps),
        "iid_p1": p1.get("iid"),
        "ood_p1": p1.get("ood"),
        "eval_queries_per_s": 1.0 / min(
            sec / rep.n_queries for r in rounds for *_, rep, sec in r.evals),
        "rank_ms.min": 1e3 * min(sec for r in rounds for *_, sec in r.ranks),
        "importance_sentences_per_s": 1.0 / min(
            sec for r in rounds for sec in r.importance_seconds),
        "peak_rss_mb": rss_mb,
    }


def per_layer(tr: Tracer, ranges: dict[str, list], counts: Counter,
              rounds: list[Round], reference: Round) -> dict[str, float]:
    n = len(rounds)
    out = tr.layer_totals(ranges["round"], n)
    out.update((k, v) for k, v in tr.layer_totals(ranges["setup"], len(ranges["setup"])).items()
               if k.startswith("corpus."))
    out.update((k, v / n) for k, v in counts.items())
    trained = [r for r in rounds if r.train_run is not None]
    attempted = sum(r.train_attempted for r in trained)
    used = sum(examples_used(r.train_run, r.train_attempted) for r in trained)
    out["trainer.examples"] = used / n
    for reason in ("no_negative", "degenerate", "short_batch"):
        out[f"trainer.skipped.{reason}"] = sum(r.train_run.skipped[reason] for r in trained) / n
    out["trainer.examples_useful_ratio"] = used / attempted if attempted else 1.0
    terms = out.get("objectives.penalty_terms", 0.0)
    tried = terms + out.get("objectives.penalty_skipped", 0.0)
    out["objectives.penalty_useful_ratio"] = terms / tried if tried else 1.0
    out["evaluation.excluded_items"] = sum(
        len(rep.excluded_items) for r in rounds for *_, rep, _ in r.evals) / n + sum(
        len(res.excluded) for r in rounds for _, _, res, _ in r.ranks) / n
    out["trace.overhead_frac"] = statistics.mean(r.seconds for r in rounds) / reference.seconds - 1
    return out


def run(spec: Spec, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, facts).

    A fresh set-up precedes each of the first SETUP_REPS rounds, so set-up
    samples spread over the run like the timed ones; set-up time does not
    count against --seconds. Rounds repeat while the next is expected to end
    within --seconds.
    """
    tr = Tracer() if trace else None
    clock = None if trace else StepClock()
    ranges: dict[str, list[tuple[int, int]]] = {"setup": [], "round": []}
    counts: Counter = Counter()

    def call(kind, fn, *args):
        if tr is None:
            return fn(*args)
        lo = len(tr)
        tr.counts.clear()
        tr.install()
        try:
            return fn(*args)
        finally:
            tr.uninstall()
            ranges[kind].append((lo, len(tr)))
            if kind == "round":
                counts.update(tr.counts)

    setups: list[tuple[float, list[float]]] = []

    def new_state() -> State:
        t0 = time.perf_counter()
        st = call("setup", setup, spec, seed, clock)
        setups.append((time.perf_counter() - t0, st.setup_steps))
        return st

    if clock is not None:
        clock.install()
    try:
        state = first_state = new_state()
        # The traced run's untraced baseline, for overhead and equality of outputs.
        reference = run_round(state) if tr is not None else None
        budget = seconds - (reference.seconds if reference else 0.0)
        played: list[Played] = []
        while True:
            before = checksums(state)
            r = call("round", run_round, state, clock)
            after = checksums(state)
            played.append(Played(r, (before[0], after[0]), (before[1], after[1])))
            if len(played) == 1:
                # Peak memory through the first set-up and round: later rounds
                # add only this benchmark's records of their outputs, and how
                # many rounds fit depends on the machine's speed.
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            spent = sum(p.round.seconds for p in played)
            if spent * (len(played) + 1) / len(played) > budget:
                break
            if len(setups) < SETUP_REPS:
                state = new_state()
        while len(setups) < SETUP_REPS:
            new_state()
    finally:
        if clock is not None:
            clock.uninstall()
    rounds = [p.round for p in played]

    problems = verify(first_state, played, reference)
    attempted = failed = 0
    for r in rounds:
        attempted += (r.train_attempted + sum(rep.n_queries for *_, rep, _ in r.evals)
                      + len(r.ranks) + len(r.importance) + sum(e[1] for e in r.errors))
        if r.train_run is not None:
            failed += r.train_attempted - examples_used(r.train_run, r.train_attempted)
    failed += sum(units for units, _ in problems)

    facts = {"machine": machine_facts(), "inputs": input_facts(first_state),
             "samples": {"setups": len(setups), "rounds": len(rounds),
                         "rank_calls": sum(len(r.ranks) for r in rounds),
                         "evaluate_calls": sum(len(r.evals) for r in rounds),
                         "importance_calls": sum(len(r.importance) for r in rounds),
                         "finetunes": sum(r.train_run is not None for r in rounds),
                         "train_steps": sum(len(r.train_steps) for r in rounds)
                         or sum(len(st) for _, st in setups)},
             "problems": [m for _, m in problems[:20]]}
    if tr is not None:
        values = per_layer(tr, ranges, counts, rounds, reference)
        table = PER_LAYER
        tr.save(OUT / f"trace-{spec.name}-seed{seed}.npz",
                setup_ranges=np.array(ranges["setup"]), round_ranges=np.array(ranges["round"]),
                per_layer=json.dumps(values, sort_keys=True), facts=json.dumps(facts))
    else:
        values = end_to_end(setups, rounds, rss_mb)
        table = [m[:2] for m in END_TO_END]
    metrics = {name: {"value": float(values.get(name) or 0.0), "unit": unit}
               for name, unit in table}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, facts


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result, facts = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"facts": facts}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
