"""Timing and tracing hooks for the fedsurrogate round pipeline, installed
from outside the package by replacing the module attributes through
which ``harness`` and ``defense`` call each stage.

- ``TimedHooks`` times ``harness.run_experiment`` with two hooks only:
  the server step (``harness.fedsurrogate_round``) and the first
  ``harness.local_train`` call of an experiment, the model warm-up that
  ends set-up.
- ``Tracer`` records a span around every wrapped stage, plus work counts.
- ``RoundChecker`` recomputes each round's results independently.
"""
from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent


def load_package():
    """Import ``harness`` and ``defense`` from the ``src`` tree next to
    this directory, never from an installed copy."""
    pkg = ROOT / "src" / "fedsurrogate"
    if not (pkg / "__init__.py").is_file():
        raise FileNotFoundError(f"no fedsurrogate sources at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    harness = importlib.import_module("fedsurrogate.harness")
    defense = importlib.import_module("fedsurrogate.defense")
    if Path(harness.__file__).resolve().parent != pkg.resolve():
        raise ImportError(f"fedsurrogate imported from {harness.__file__}, not {pkg}")
    return harness, defense


class Patches:
    """Replaces module attributes by wrappers and puts the originals back
    on exit. A name the module no longer has is noted in ``absent``."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def wrap(self, module, attr: str, make) -> bool:
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(f"{module.__name__.rsplit('.', 1)[-1]}.{attr}")
            return False
        self._saved.append((module, attr, fn))
        setattr(module, attr, make(fn))
        return True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


# ---------------------------------------------------------------------------
# Timed runs
# ---------------------------------------------------------------------------

@dataclass
class Experiment:
    """What a timed run keeps of one experiment: timings, the report, and
    per round only the flagged set, so peak memory is the program's."""

    report: object = None
    wall_s: float = 0.0
    setup_s: float = 0.0
    round_ends: list[float] = field(default_factory=list)
    defense_s: list[float] = field(default_factory=list)
    flagged: list[frozenset[int]] = field(default_factory=list)
    clients: dict[int, tuple[int, bool]] = field(default_factory=dict)

    @property
    def round_intervals(self) -> list[float]:
        """Time between successive server-step returns."""
        return [b - a for a, b in zip(self.round_ends, self.round_ends[1:])]


class _SetupDone(Exception):
    """Ends a set-up probe once the warm-up has returned."""


class TimedHooks(Patches):
    """Hooks for the end-to-end runs: the server step and the warm-up."""

    def __init__(self, harness):
        super().__init__()
        self._harness = harness
        self._exp = Experiment()
        self._start = 0.0
        self._setup_only = False
        for attr, make in (("fedsurrogate_round", self._wrap_step),
                           ("local_train", self._wrap_warmup)):
            if not self.wrap(harness, attr, make):
                self.__exit__()
                raise AttributeError(f"harness.{attr} is gone; the timed run hooks it")

    def run(self, cfg) -> Experiment:
        self._exp, self._setup_only = Experiment(), False
        self._start = time.perf_counter()
        report = self._harness.run_experiment(cfg)
        self._exp.wall_s = time.perf_counter() - self._start
        self._exp.report = report
        if not self._exp.setup_s:
            raise RuntimeError("experiment ended without a warm-up call")
        return self._exp

    def setup(self, cfg) -> float:
        """Set-up time alone: run_experiment stopped once warm-up returns."""
        self._exp, self._setup_only = Experiment(), True
        self._start = time.perf_counter()
        try:
            self._harness.run_experiment(cfg)
        except _SetupDone:
            return self._exp.setup_s
        raise RuntimeError("experiment ended without a warm-up call")

    def _wrap_warmup(self, fn):
        @functools.wraps(fn)
        def local_train(*args, **kwargs):
            result = fn(*args, **kwargs)
            if not self._exp.setup_s:
                self._exp.setup_s = time.perf_counter() - self._start
                if self._setup_only:
                    raise _SetupDone
            return result
        return local_train

    def _wrap_step(self, fn):
        @functools.wraps(fn)
        def fedsurrogate_round(updates, *args, **kwargs):
            start = time.perf_counter()
            result = fn(updates, *args, **kwargs)
            end = time.perf_counter()
            exp = self._exp
            exp.defense_s.append(end - start)
            exp.round_ends.append(end)
            exp.flagged.append(frozenset(result[1].confirmed_malicious))
            if not exp.clients:
                exp.clients = {u.client_id: (u.sample_count, u.true_role == "malicious")
                               for u in updates}
            return result
        return fedsurrogate_round


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

def _attack_count(args, kwargs, result):
    return {"attacks.train_calls": 1}


def _pairs(args, kwargs, result):
    updates = _arg(args, kwargs, 0, "updates")
    n = len(updates)
    return {"defense.divergence_pairs": n * (n - 1) // 2 * len(result)}


# (module, attribute, span name, counter) for every stage but the two the
# Tracer handles itself: harness.local_train and harness.fedsurrogate_round.
TRACED = (
    ("harness", "generate_synthetic", "data.generate_synthetic", None),
    ("harness", "dirichlet_partition", "data.dirichlet_partition", None),
    *(("harness", f"{a}_train", f"attacks.{a}_train", _attack_count)
      for a in ("cba", "dba", "neurotoxin", "csa", "cla")),
    ("harness", "compute_update", "params.compute_update", None),
    ("harness", "main_task_accuracy", "metrics.main_task_accuracy", None),
    ("harness", "asr", "metrics.asr", None),
    ("harness", "tally_round", "metrics.tally_round", None),
    ("defense", "layer_divergence", "defense.layer_divergence", _pairs),
    ("defense", "select_critical_layers", "defense.select_critical_layers", None),
    ("defense", "coarse_cluster", "defense.coarse_cluster", None),
    ("defense", "pairwise_distance_matrix", "params.pairwise_distance_matrix", None),
    ("defense", "hdbscan", "clustering.hdbscan", None),
    ("defense", "alignment_scores", "defense.alignment_scores", None),
    ("defense", "update_memory", "defense.update_memory", None),
    ("defense", "screen_trusted", "defense.screen_trusted",
     lambda a, k, r: {"defense.demoted": len(r)}),
    ("defense", "rescue_suspects", "defense.rescue_suspects",
     lambda a, k, r: {"defense.rescued": len(r[0])}),
    ("defense", "select_donor", "defense.select_donor",
     lambda a, k, r: {"defense.select_donor_calls": 1,
                      "defense.donor_candidates": len(_arg(a, k, 1, "trusted"))}),
    ("defense", "build_surrogate", "defense.build_surrogate", None),
    ("defense", "aggregate", "defense.aggregate", None),
)

RUN_SPAN = "harness.run_experiment"
CHECK_SPAN = "bench.check"
# Spans whose metric is named for its self time explicitly; every span's
# metric is its self time, which equals its duration when no wrapped
# stage runs inside it.
SELF_NAMES = {
    RUN_SPAN: "harness.self_s",
    "defense.coarse_cluster": "defense.coarse_cluster_self_s",
    "defense.fedsurrogate_round": "defense.fedsurrogate_round_self_s",
}

# (metric, unit) in the order printed; BENCHMARK.json lists the same.
PER_LAYER = (
    ("data.generate_synthetic_s", "s"),
    ("data.dirichlet_partition_s", "s"),
    ("model.warmup_s", "s"),
    ("model.local_train_s", "s"),
    ("model.local_train_calls", "count"),
    ("model.sgd_steps", "count"),
    ("model.train_samples_per_s", "1/s"),
    *((f"attacks.{a}_train_s", "s") for a in ("cba", "dba", "neurotoxin", "csa", "cla")),
    ("attacks.train_calls", "count"),
    ("defense.layer_divergence_s", "s"),
    ("defense.divergence_pairs", "count"),
    ("defense.select_critical_layers_s", "s"),
    ("params.pairwise_distance_matrix_s", "s"),
    ("clustering.hdbscan_s", "s"),
    ("defense.coarse_cluster_self_s", "s"),
    ("defense.alignment_scores_s", "s"),
    ("defense.update_memory_s", "s"),
    ("defense.screen_trusted_s", "s"),
    ("defense.rescue_suspects_s", "s"),
    ("defense.demoted", "count"),
    ("defense.rescued", "count"),
    ("defense.select_donor_s", "s"),
    ("defense.select_donor_calls", "count"),
    ("defense.donor_candidates", "count"),
    ("defense.build_surrogate_s", "s"),
    ("defense.aggregate_s", "s"),
    ("defense.fedsurrogate_round_self_s", "s"),
    ("params.compute_update_s", "s"),
    ("metrics.main_task_accuracy_s", "s"),
    ("metrics.asr_s", "s"),
    ("metrics.tally_round_s", "s"),
    ("harness.self_s", "s"),
    ("harness.client_updates", "count"),
)


class Tracer:
    """Spans kept in memory as [name, start, end, parent, round].

    The round id of a span is the server step it leads up to: -1 during
    set-up, then k from the end of warm-up (k = 0) or of server step
    k - 1 until server step k returns, so the evaluation of round k
    carries k + 1, as in the round intervals of the timed runs.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.round = -1
        self._open: list[int] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.round])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> float:
        end = time.perf_counter()
        self.spans[idx][2] = end
        self._open.pop()
        return end - self.spans[idx][1]

    def wrap(self, name: str, count=None):
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(idx)
                if count is not None:
                    self.counts.update(count(args, kwargs, result))
                return result
            return traced
        return make

    def _wrap_local_train(self, fn):
        @functools.wraps(fn)
        def local_train(*args, **kwargs):
            warmup = self.round < 0
            idx = self.open("model.warmup" if warmup else "model.local_train")
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if warmup:
                self.round = 0
            else:
                data, cfg = _arg(args, kwargs, 2, "data"), _arg(args, kwargs, 3, "cfg")
                self.counts.update({
                    "model.local_train_calls": 1,
                    "model.sgd_steps": cfg.epochs * math.ceil(len(data) / cfg.batch_size),
                    "model.train_samples": cfg.epochs * len(data),
                })
            return result
        return local_train

    def _wrap_step(self, fn):
        traced = self.wrap("defense.fedsurrogate_round", lambda a, k, r: {
            "harness.client_updates": len(_arg(a, k, 0, "updates"))})(fn)

        @functools.wraps(fn)
        def fedsurrogate_round(*args, **kwargs):
            result = traced(*args, **kwargs)
            self.round += 1
            return result
        return fedsurrogate_round

    def install(self, patches: Patches, harness, defense) -> None:
        modules = {"harness": harness, "defense": defense}
        patches.wrap(harness, "local_train", self._wrap_local_train)
        patches.wrap(harness, "fedsurrogate_round", self._wrap_step)
        for module, attr, name, count in TRACED:
            patches.wrap(modules[module], attr, self.wrap(name, count))

    def run(self, harness, cfg):
        """run_experiment under a span; returns (report, wall time less
        the time spent in checks)."""
        self.round = -1
        first = len(self.spans)
        idx = self.open(RUN_SPAN)
        try:
            report = harness.run_experiment(cfg)
        finally:
            wall = self.close(idx)
        checked = sum(e - s for name, s, e, _, _ in self.spans[first:] if name == CHECK_SPAN)
        return report, wall - checked

    def self_times(self) -> Counter:
        children = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals: Counter = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, children):
            totals[name] += end - start - inner
        return totals

    def metrics(self, passes: int) -> dict[str, float]:
        """Every per-layer metric, per pass over the workload's experiments."""
        values = {SELF_NAMES.get(name, f"{name}_s"): t / passes
                  for name, t in self.self_times().items() if name != CHECK_SPAN}
        values.update({name: n / passes for name, n in self.counts.items()})
        train_s = values.get("model.local_train_s", 0.0)
        samples = values.pop("model.train_samples", 0)
        values["model.train_samples_per_s"] = samples / train_s if train_s else 0.0
        return {name: values.get(name, 0) for name, _ in PER_LAYER}


# ---------------------------------------------------------------------------
# Independent recomputation of each traced round
# ---------------------------------------------------------------------------

class RoundChecker:
    """Recomputes every round of a traced experiment with the numpy code
    in ``checks``: divergence, critical layers, partition, donors, the new
    global model and MTA. Check time is spanned so it is left out of
    every stage's time."""

    def __init__(self, tracer: Tracer, cfg):
        self._tracer = tracer
        self._cfg = cfg
        self._divergence = None
        self._global = None
        self.rounds = 0
        self.mta: list[tuple[float, int, int]] = []   # (recomputed, near ties, n_test)
        self.failures: list[str] = []

    def install(self, patches: Patches, harness, defense) -> None:
        patches.wrap(defense, "layer_divergence", self._wrap_divergence)
        patches.wrap(harness, "fedsurrogate_round", self._wrap_step)
        patches.wrap(harness, "main_task_accuracy", self._wrap_mta)

    def _fail(self, messages: list[str]) -> None:
        self.failures += [f"round {self.rounds}: {m}" for m in messages]

    def _wrap_divergence(self, fn):
        @functools.wraps(fn)
        def layer_divergence(*args, **kwargs):
            self._divergence = fn(*args, **kwargs)
            return self._divergence
        return layer_divergence

    def _wrap_step(self, fn):
        @functools.wraps(fn)
        def fedsurrogate_round(*args, **kwargs):
            self._divergence = None
            result = fn(*args, **kwargs)
            idx = self._tracer.open(CHECK_SPAN)
            try:
                self._check_round(_arg(args, kwargs, 0, "updates"),
                                  _arg(args, kwargs, 1, "global_model"), *result[:2])
            finally:
                self._tracer.close(idx)
            self._global = result[0]
            self.rounds += 1
            return result
        return fedsurrogate_round

    def _check_round(self, updates, previous, new_global, outcome) -> None:
        ids = [u.client_id for u in updates]
        slices = {name: slice(lo, lo + size) for name, lo, size in updates[0].delta.schema.layers}
        deltas = np.stack([u.delta.values for u in updates])
        models = np.stack([u.model.values for u in updates])
        divergence = checks.layer_divergence({n: deltas[:, s] for n, s in slices.items()})
        if self._divergence is not None:
            self._fail(checks.check_divergence(divergence, self._divergence))
        self._fail(checks.check_critical_layers(
            divergence, self._cfg.lca.top_k, outcome.critical_layers))
        self._fail(checks.check_partition(
            ids, outcome.coarse_trusted, outcome.demoted, outcome.rescued,
            outcome.confirmed_malicious, outcome.degenerate))
        critical = [slices[n] for n in outcome.critical_layers]
        features = {c: np.concatenate([deltas[i, s] for s in critical]) for i, c in enumerate(ids)}
        self._fail(checks.check_donors(
            features, outcome.coarse_trusted | outcome.rescued,
            outcome.confirmed_malicious, outcome.donors))
        expected = checks.expected_aggregate(
            dict(zip(ids, models)), outcome.coarse_trusted, outcome.rescued,
            outcome.donors, critical, previous.values)
        self._fail(checks.check_aggregate(expected, new_global.values))

    def _wrap_mta(self, fn):
        @functools.wraps(fn)
        def main_task_accuracy(arch, params, test, *args, **kwargs):
            result = fn(arch, params, test, *args, **kwargs)
            idx = self._tracer.open(CHECK_SPAN)
            try:
                if self._global is None or not np.array_equal(params.values, self._global.values):
                    self._fail(["MTA evaluated a model other than the new global model"])
                dims = (test.features.shape[1], *self._cfg.hidden_dims, test.num_classes)
                acc, ties = checks.accuracy(dims, params.values, test.features, test.labels)
                self.mta.append((acc, ties, len(test.labels)))
            finally:
                self._tracer.close(idx)
            return result
        return main_task_accuracy

    def check_report(self, report) -> list[str]:
        """Compare the report's MTA column with the recomputed accuracies."""
        failures = list(self.failures)
        if self.rounds != len(report.records):
            failures.append(f"{self.rounds} server steps for {len(report.records)} rounds")
        if self.mta and len(self.mta) != len(report.records):
            failures.append(f"{len(self.mta)} MTA evaluations for {len(report.records)} rounds")
        for record, (acc, ties, n) in zip(report.records, self.mta):
            failures += [f"round {record.round}: {m}"
                         for m in checks.check_mta(acc, ties, n, record.mta)]
        return failures
