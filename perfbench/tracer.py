"""Span tracer for matchlab's public functions.

Each public function of a layer module is wrapped at every module attribute
that binds it: the package re-exports names and the modules import each
other's names directly (``from .encoder import encode``), so patching the
defining module alone would miss most calls. Functions are discovered at
install time, so a public function added to a layer later is traced without
editing this file.

A span is (name id, start ns, end ns, parent span index), kept in compact
in-memory arrays and written out once, when the benchmark ends.

StepClock is the one wrapper the untraced run keeps: it times train()'s
batch steps for the end-to-end training rate.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable

import numpy as np

# `cli` is not a layer: it parses flags, reads and writes small files and
# then calls the same functions as these modules.
LAYERS = ("corpus", "encoder", "interventions", "objectives", "trainer", "evaluation")


def _sentence_rows(args, kwargs, result) -> dict[str, int]:
    sentence = args[1] if len(args) > 1 else kwargs["sentence"]
    return {"encoder.encode.rows": len(sentence)}


def _loss_counts(args, kwargs, result) -> dict[str, int]:
    # Every total_loss that returns is followed by one optimizer step in
    # train(), over exactly the rows of its gradient.
    return {
        "objectives.penalty_terms": result.n_penalty_terms,
        "objectives.penalty_skipped": result.n_skipped_penalty,
        "objectives.grad_rows": len(result.gradient),
        "trainer.steps": 1,
    }


# Work counts taken from a call's arguments or result, keyed by span name.
COUNT_HOOKS: dict[str, Callable] = {
    "encoder.encode": _sentence_rows,
    "objectives.total_loss": _loss_counts,
}


def rebind(replacements: dict[int, Callable]) -> list[tuple[object, str, Callable]]:
    """Point every attribute of every loaded matchlab module that holds a
    function whose id is a key at its replacement; return (module,
    attribute, original) for each attribute changed."""
    patches = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "matchlab" and not mod_name.startswith("matchlab."):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replacements:
                setattr(mod, attr, replacements[id(obj)])
                patches.append((mod, attr, obj))
    return patches


def unbind(patches: list[tuple[object, str, Callable]]) -> None:
    for mod, attr, fn in patches:
        setattr(mod, attr, fn)
    patches.clear()


class Tracer:
    """Records spans of every public layer function while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: array = array("q")
        self.parent: array = array("q")
        self.start: array = array("q")
        self.end: array = array("q")
        self.counts: Counter = Counter()
        self._stack: list[int] = [-1]
        self._patches: list[tuple[object, str, Callable]] = []
        self._wrappers: dict[int, Callable] = {}

    def __len__(self) -> int:
        return len(self.name_id)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns
        hook = COUNT_HOOKS.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                counts.update(hook(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        """Replace every binding of every public layer function with a wrapper."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        originals: dict[int, tuple[Callable, str]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"matchlab.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (obj, f"{layer}.{attr}")
        wrappers = self._wrappers
        for fn, name in originals.values():
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, name)
        self._patches = rebind({i: wrappers[i] for i in originals})

    def uninstall(self) -> None:
        unbind(self._patches)

    def arrays(self) -> dict[str, np.ndarray]:
        # Copies: a live view would stop the span arrays from growing.
        return {
            key: np.frombuffer(buf, dtype=np.int64).copy()
            for key, buf in (("name_id", self.name_id), ("parent", self.parent),
                             ("start_ns", self.start), ("end_ns", self.end))
        }

    def self_seconds(self) -> np.ndarray:
        """Per-span duration minus the time covered by its child spans."""
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return (dur - child) * 1e-9

    def layer_totals(self, ranges: list[tuple[int, int]], n: int) -> dict[str, float]:
        """``<name>.calls`` and ``<name>.self_s`` for every traced function,
        and ``<layer>.self_s`` per layer, over the spans in the index ranges,
        divided by n."""
        pick = np.concatenate([np.arange(lo, hi) for lo, hi in ranges] or [np.arange(0)])
        ids = self.arrays()["name_id"][pick]
        calls = np.bincount(ids, minlength=len(self.names))
        secs = np.bincount(ids, weights=self.self_seconds()[pick], minlength=len(self.names))
        out: dict[str, float] = {layer + ".self_s": 0.0 for layer in LAYERS}
        for nid, name in enumerate(self.names):
            out[name + ".calls"] = calls[nid] / n
            out[name + ".self_s"] = secs[nid] / n
            out[name.split(".")[0] + ".self_s"] += secs[nid] / n
        return out

    def save(self, path: Path, **extra) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays(), **extra)


class StepClock:
    """Times every batch step of train() while installed.

    train() calls ``objectives.total_loss`` once per batch; the clock wraps
    it at every binding and notes the time of each call and the batch's
    example count. One step runs from one such call to the next. The wrapper
    costs about a microsecond against steps of tens of milliseconds, so it
    stays installed while end-to-end metrics are measured, unlike the tracer.
    """

    def __init__(self) -> None:
        self.marks: list[tuple[float, int]] = []
        self._patches: list[tuple[object, str, Callable]] = []

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("step clock is already installed")
        fn = importlib.import_module("matchlab.objectives").total_loss
        marks, clock = self.marks, time.perf_counter

        def timed(theta, theta0, batch, *args, **kwargs):
            marks.append((clock(), len(batch.examples)))
            return fn(theta, theta0, batch, *args, **kwargs)

        timed.__wrapped__ = fn
        self._patches = rebind({id(fn): timed})

    def uninstall(self) -> None:
        unbind(self._patches)

    def seconds_per_example(self, since: int, end: float) -> list[float]:
        """Per step from mark `since` on: its duration over its batch's
        examples. The last step ends at `end`, when train() returned."""
        marks = self.marks[since:]
        ends = [t for t, _ in marks[1:]] + [end]
        return [(stop - t) / n for (t, n), stop in zip(marks, ends) if n]
