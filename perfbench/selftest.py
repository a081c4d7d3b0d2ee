#!/usr/bin/env python3
"""Self-test of the benchmark at reduced size (a few seconds):

    python3 perfbench/selftest.py

It checks that BENCHMARK.json matches the metric tables and workloads in
run.py, that every run prints every named metric with its unit, that tracing
changes no P@1 value or ranking, that the step clock times every batch step
and changes nothing, that the tracer finds a public function it was never
told about, that the per-workload zero counts hold, and that the output
checks reject wrong outputs. Exits 1 on the first failure.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import run  # sets the BLAS cap and the import path before numpy loads
import checks
import workloads as w
from tracer import StepClock, Tracer

import matchlab as ml
import matchlab.encoder
import matchlab.objectives
import matchlab.trainer


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def small(spec: w.Spec) -> w.Spec:
    return dataclasses.replace(
        spec, queries_per_brand=6, eval_queries_per_brand=3, fixture=False,
        items_per_brand=8 if spec.name == w.SCORE else None,
        epochs=2, rank_calls=12, warmup_queries=16, graded_pairs_per_query=4)


def test_benchmark_json() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([[m["name"], m["unit"], m["better"], m["bound"]] for m in bench["end_to_end"]]
           == [list(m) for m in run.END_TO_END], "BENCHMARK.json end_to_end matches run.py")
    expect([[m["name"], m["unit"]] for m in bench["per_layer"]]
           == [list(m) for m in run.PER_LAYER], "BENCHMARK.json per_layer matches run.py")
    expect({x["name"]: x["why"] for x in bench["workloads"]}
           == {s.name: s.why for s in w.WORKLOADS.values()}, "workload reasons match")


def test_runs() -> None:
    for spec in map(small, w.WORKLOADS.values()):
        for trace, table in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            result, facts = run.run(spec, seed=3, seconds=0.1, trace=trace)
            label = f"{spec.name} trace={int(trace)}"
            expect(result["correct"] and result["failed"] == 0,
                   f"{label}: outputs correct, nothing failed {facts['problems']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == {m[0]: m[1] for m in table}, f"{label}: every metric with its unit")
            expect(all(isinstance(v["value"], float) and math.isfinite(v["value"])
                       for v in result["metrics"].values()), f"{label}: finite values")
            if not trace:
                expect(all(v["value"] > 0 for v in result["metrics"].values()),
                       f"{label}: end-to-end metrics never 0")
                continue
            m = {k: v["value"] for k, v in result["metrics"].items()}
            expect(m["encoder.encode.calls"] > 0 and m["corpus.synth_generate.self_s"] > 0,
                   f"{label}: spans recorded in set-up and timed region")
            if spec.name == w.GRADED:
                expect(m["trainer.mine_negatives.calls"] == m["interventions.mask_fraction.calls"]
                       == m["objectives.itvreg_penalty.calls"] == 0,
                       f"{label}: no mining, masking or itvreg")
            if spec.name == w.SCORE:
                expect(m["encoder.encode_backward.calls"] == 0 and m["trainer.steps"] == 0,
                       f"{label}: no backward pass or optimizer step")


def test_tracing_changes_nothing() -> None:
    state = w.setup(small(w.WORKLOADS[w.TRAIN]), seed=5)
    plain = w.run_round(state)
    tr = Tracer()
    tr.install()
    try:
        traced = w.run_round(state)
    finally:
        tr.uninstall()
    expect(len(tr) > 0 and ml.train is not None and not hasattr(ml.train, "__wrapped__"),
           "tracer records spans and restores every binding")
    p1 = [rep.precision_at for *_, rep, _ in plain.evals]
    expect(p1 == [rep.precision_at for *_, rep, _ in traced.evals]
           and [r.ranked for *_, r, _ in plain.ranks] == [r.ranked for *_, r, _ in traced.ranks]
           and plain.fingerprint() == traced.fingerprint(),
           "traced round gives the same P@1 values, rankings and losses")


def test_step_clock() -> None:
    state = w.setup(small(w.WORKLOADS[w.GRADED]), seed=2)
    plain = w.run_round(state)
    clock = StepClock()
    clock.install()
    try:
        timed = w.run_round(state, clock)
    finally:
        clock.uninstall()
    batches = math.ceil(len(state.fit_corpus.pairs) / state.config.batch_size)
    expect(len(timed.train_steps) == state.config.epochs * batches
           and all(s > 0 for s in timed.train_steps) and not timed.errors,
           "the step clock times every batch step of the fine-tune")
    expect(not hasattr(matchlab.trainer.total_loss, "__wrapped__")
           and plain.fingerprint() == timed.fingerprint(),
           "the step clock restores every binding and changes no output")


def test_new_function_is_traced() -> None:
    def probe(model, sentence):
        return len(sentence)

    probe.__module__ = "matchlab.encoder"
    matchlab.encoder.probe = probe
    matchlab.objectives.probe = probe  # a second binding, as `from .encoder import` makes
    tr = Tracer()
    try:
        tr.install()
        matchlab.objectives.probe(None, (1, 2))
        tr.uninstall()
        expect("encoder.probe" in tr.names and len(tr) == 1
               and matchlab.objectives.probe is probe,
               "a public function the tracer was not told about is traced at every binding")
    finally:
        tr.uninstall()
        del matchlab.encoder.probe, matchlab.objectives.probe


def test_checks_reject_wrong_outputs() -> None:
    state = w.setup(small(w.WORKLOADS[w.SCORE]), seed=1)
    model = state.model
    cat = checks.Catalogue(model.table, state.catalogue)
    q = state.rank_queries[0]
    res = ml.rank_items(model, q, state.catalogue, 10)
    expect(not checks.check_ranking(cat, q, res.ranked, res.excluded, 10), "right ranking passes")
    swapped = [res.ranked[0], res.ranked[-1]] + res.ranked[1:-1]
    dropped = res.ranked[:-1] + [(i, cat.scores(q)[cat.row[i]]) for i in cat.ids
                                 if i not in dict(res.ranked)][-1:]
    shifted = [(i, s + 1e-6) for i, s in res.ranked]
    for label, bad in (("out of order", swapped), ("a lower item swapped in", dropped),
                       ("scores off", shifted)):
        expect(bool(checks.check_ranking(cat, q, bad, [], 10)), f"ranking {label} is rejected")
    rep = ml.importance_report(model, state.base, state.importance_sentences[0])
    expect(not checks.check_importance(model.table, state.base.table, rep), "right importance passes")
    rep.s_theta[0] += 1e-9
    expect(bool(checks.check_importance(model.table, state.base.table, rep)),
           "importance off by 1e-9 is rejected")
    expect(bool(checks.check_fixture(0, 1.0, 0.9)) and not checks.check_fixture(0, 1.0, 0.98),
           "fixture check applies the acceptance gate's 0.03")


if __name__ == "__main__":
    test_benchmark_json()
    test_tracing_changes_nothing()
    test_step_clock()
    test_new_function_is_traced()
    test_checks_reject_wrong_outputs()
    test_runs()
    print("selftest passed")
