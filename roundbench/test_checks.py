"""Tests of the benchmark's own checks and hooks: each check passes on a
correct input and fails on a deliberately wrong one.

    python3 -m pytest roundbench
"""
import dataclasses
import json
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import checks
import hooks
import run

harness, defense = hooks.load_package()


def _brute_divergence(X):
    n, total = len(X), 0.0
    for i in range(n):
        for j in range(i + 1, n):
            a, b = X[i], X[j]
            na, nb = np.linalg.norm(a), np.linalg.norm(b)
            if na < 1e-12 or nb < 1e-12:
                total += 1.0
            else:
                total += 1.0 - max(-1.0, min(1.0, float(a @ b) / (na * nb)))
    return total * 2 / (n * (n - 1))


def test_divergence_matches_pairwise_loop_and_rejects_a_perturbed_value():
    rng = np.random.default_rng(0)
    layers = {"fc1": rng.normal(size=(7, 30)), "fc2": rng.normal(size=(7, 5))}
    layers["fc2"][3] = 0.0   # a zero delta takes the degenerate distance
    expected = {name: _brute_divergence(X) for name, X in layers.items()}
    got = checks.layer_divergence(layers)
    assert checks.check_divergence(got, expected) == []
    assert checks.check_divergence(got, {**expected, "fc2": expected["fc2"] + 1e-7})
    assert checks.check_divergence(got, {"fc2": expected["fc2"], "fc1": expected["fc1"]})


def test_critical_layers_must_be_the_top_k_in_schema_order():
    div = {"fc1": 0.5, "fc2": 0.9, "fc3": 0.7}
    assert checks.check_critical_layers(div, 2, ("fc2", "fc3")) == []
    assert checks.check_critical_layers(div, 2, ("fc1", "fc2"))
    assert checks.check_critical_layers(div, 2, ("fc3", "fc2"))
    assert checks.check_critical_layers(div, 2, ("fc2",))
    assert checks.check_critical_layers(div, 5, ("fc1", "fc2", "fc3")) == []
    tie = {"fc1": 0.7, "fc2": 0.9, "fc3": 0.7 + 1e-12}
    assert checks.check_critical_layers(tie, 2, ("fc1", "fc2")) == []
    zero = {"fc1": 0.0, "fc2": 0.0, "fc3": 0.0}
    assert checks.check_critical_layers(zero, 2, ("fc1", "fc2")) == []
    assert checks.check_critical_layers(zero, 2, ("fc2", "fc3"))


def test_partition_and_majority():
    ids = list(range(10))
    ok = dict(coarse=frozenset(range(6)), demoted=frozenset(), rescued=frozenset({6}),
              confirmed=frozenset({7, 8, 9}), degenerate=False)
    assert checks.check_partition(ids, **ok) == []
    assert checks.check_partition(ids, **{**ok, "rescued": frozenset({5, 6})})
    assert checks.check_partition(ids, **{**ok, "confirmed": frozenset({7, 8})})
    assert checks.check_partition(ids, **{**ok, "demoted": frozenset({0})})
    minority = dict(coarse=frozenset(range(4)), demoted=frozenset({4}),
                    rescued=frozenset({4, 5}), confirmed=frozenset({6, 7, 8, 9}))
    assert checks.check_partition(ids, **minority, degenerate=False)
    assert checks.check_partition(ids, **minority, degenerate=True) == []


def _donor_case():
    rng = np.random.default_rng(1)
    features = {c: rng.normal(size=12) for c in range(8)}
    trusted = frozenset(range(5))
    confirmed = frozenset({5, 6, 7})
    donors = {}
    for f in confirmed:
        d = checks.cosine_distances(features[f], np.stack([features[t] for t in sorted(trusted)]))
        donors[f] = sorted(trusted)[int(np.argmin(d))]
    return features, trusted, confirmed, donors


def test_donor_must_be_a_nearest_trusted_client():
    features, trusted, confirmed, donors = _donor_case()
    assert checks.check_donors(features, trusted, confirmed, donors) == []
    wrong = next(t for t in trusted if t != donors[5])
    assert checks.check_donors(features, trusted, confirmed, {**donors, 5: wrong})
    assert checks.check_donors(features, trusted, confirmed, {**donors, 5: 6})
    assert checks.check_donors(features, trusted, confirmed,
                               {k: v for k, v in donors.items() if k != 7})
    assert checks.check_donors(features, frozenset(), confirmed, {}) == []


def test_aggregate_weights_and_surrogates_and_rejects_a_perturbation():
    models = {c: np.full(4, float(c)) for c in range(4)}
    critical = [slice(0, 2)]
    got = checks.expected_aggregate(models, frozenset({0, 1}), frozenset({2}), {3: 1},
                                    critical, np.zeros(4))
    # client 3's surrogate takes coordinates 0-1 from donor 1
    surrogate = np.array([1.0, 1.0, 3.0, 3.0])
    hand = (1.0 * models[0] + 1.0 * models[1] + 0.7 * models[2] + 0.3 * surrogate) / 3.0
    np.testing.assert_allclose(got, hand, rtol=0, atol=1e-15)
    assert checks.check_aggregate(got, hand) == []
    assert checks.check_aggregate(got, hand + np.array([0, 0, 1e-6, 0]))
    nothing = checks.expected_aggregate({}, frozenset(), frozenset(), {}, critical, np.ones(4))
    assert checks.check_aggregate(nothing, np.ones(4)) == []


def test_accuracy_of_a_hand_set_network():
    dims = (2, 2, 2)
    # identity first layer, swapped second layer: class 1 wins when x0 > x1
    params = np.array([1, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0], dtype=float)
    x = np.array([[1.0, 0.0], [0.0, 1.0], [3.0, 2.0], [1.0, 1.0]])
    acc, ties = checks.accuracy(dims, params, x, np.array([1, 0, 1, 0]))
    assert (acc, ties) == (1.0, 1)   # the last sample is an exact tie
    assert checks.check_mta(acc, ties, 4, 0.75) == []
    assert checks.check_mta(acc, ties, 4, 0.5)
    with pytest.raises(ValueError):
        checks.accuracy((2, 3, 2), params, x, np.zeros(4, dtype=int))


def test_report_properties():
    clients = {0: (10, True), 1: (2, True), 2: (10, False), 3: (10, False)}
    assert checks.effective_attackers(clients, 0.3) == frozenset({0})
    flagged = [frozenset({0}), frozenset({0, 1})]
    base = dict(final_asr=0.0, final_mta=1.0, tpr=0.75, fpr=0.0, flagged_per_round=flagged,
                clients=clients, pdr=0.3, attacked=True, limits=checks.GATES)
    assert checks.check_report(**base) == []
    assert checks.check_report(**{**base, "final_asr": 0.6}) == []
    assert checks.check_report(**{**base, "final_asr": 0.2, "limits": checks.PAPER})
    assert checks.check_report(**{**base, "final_mta": 0.5})
    assert checks.check_report(**{**base, "tpr": 1.0})
    bad_fpr = [frozenset({0, 2}), frozenset({0, 1})]
    assert checks.check_report(**{**base, "flagged_per_round": bad_fpr, "fpr": 0.25}) == []
    assert checks.check_report(**{**base, "flagged_per_round": bad_fpr, "fpr": 0.25,
                                  "limits": checks.PAPER})
    flag_all = [frozenset({0, 2, 3}), frozenset({0, 1})]
    assert checks.check_report(**{**base, "flagged_per_round": flag_all, "fpr": 0.5})
    missed = [frozenset({1}), frozenset({1})]
    assert checks.check_report(**{**base, "flagged_per_round": missed, "tpr": 0.5})
    half = [frozenset({1}), frozenset({0, 1})]
    assert checks.check_report(**{**base, "flagged_per_round": half}) == []
    assert checks.check_report(**{**base, "flagged_per_round": half, "limits": checks.PAPER})


def test_fedavg_control_and_report_bytes():
    assert checks.check_fedavg_asr([0.1, 0.9, 0.4], checks.PAPER) == []
    assert checks.check_fedavg_asr([0.1, 0.2], checks.PAPER)
    assert checks.check_fedavg_asr([0.1, 0.2], checks.GATES) == []
    assert checks.check_same_bytes(b"a,b\n", b"a,b\n") == []
    assert checks.check_same_bytes(b"a,b\n", b"a,c\n")


SMALL = harness.ExperimentConfig(n_clients=10, rounds=3, seed=3)


def _traced(cfg=SMALL):
    tracer = hooks.Tracer()
    checker = hooks.RoundChecker(tracer, cfg)
    with hooks.Patches() as patches:
        tracer.install(patches, harness, defense)
        checker.install(patches, harness, defense)
        report, wall = tracer.run(harness, cfg)
    return tracer, checker, report, patches, wall


def test_traced_run_passes_every_recomputation_and_keeps_the_csv():
    tracer, checker, report, patches, wall = _traced()
    assert checker.check_report(report) == []
    assert patches.absent == []
    plain = harness.run_experiment(SMALL)
    assert harness.report_to_csv(report) == harness.report_to_csv(plain)
    m = tracer.metrics(1)
    assert [name for name, _ in hooks.PER_LAYER] == list(m)
    assert m["harness.client_updates"] == 30
    assert m["model.local_train_calls"] == 24 and m["attacks.train_calls"] == 6
    assert m["defense.divergence_pairs"] == 3 * 45 * 3
    # self times add up to the experiment's wall time less the checks
    total = sum(v for (name, unit), v in zip(hooks.PER_LAYER, m.values()) if unit == "s")
    assert total == pytest.approx(wall, rel=1e-9)


def _sabotaged(monkeypatch, attr, make):
    monkeypatch.setattr(defense, attr, make(getattr(defense, attr)))
    _, checker, report, _, _ = _traced()
    assert checker.rounds == SMALL.rounds
    return checker.check_report(report)


def test_traced_run_catches_a_swapped_donor(monkeypatch):
    def make(fn):
        def farthest(flagged, trusted, D, index_of, metric="cosine", features=None):
            nearest = fn(flagged, trusted, D, index_of, metric, features)
            return max(t for t in trusted if t != nearest) if len(trusted) > 1 else nearest
        return farthest
    assert any("donor" in m for m in _sabotaged(monkeypatch, "select_donor", make))


def test_traced_run_catches_a_perturbed_aggregate(monkeypatch):
    def make(fn):
        def perturbed(models, roles, weights):
            out = fn(models, roles, weights)
            return dataclasses.replace(out, values=out.values + 1e-6)
        return perturbed
    assert any("new global model" in m for m in _sabotaged(monkeypatch, "aggregate", make))


def test_traced_run_catches_a_wrong_divergence_and_critical_set(monkeypatch):
    def make(fn):
        def skewed(updates):
            div = fn(updates)
            return {**div, max(div, key=div.get): -1.0}   # the top layer drops out
        return skewed
    lca = dataclasses.replace(SMALL.lca, top_k=1)
    monkeypatch.setattr(defense, "layer_divergence", make(defense.layer_divergence))
    _, checker, report, _, _ = _traced(dataclasses.replace(SMALL, lca=lca))
    failures = checker.check_report(report)
    assert any("divergence of" in m for m in failures)
    assert any("diverges more than a chosen critical layer" in m for m in failures)


def test_traced_run_catches_a_wrong_mta(monkeypatch):
    monkeypatch.setattr(harness, "main_task_accuracy", lambda arch, params, test: 0.5)
    _, checker, report, _, _ = _traced()
    assert any("MTA reported" in m for m in checker.check_report(report))


def test_a_wrapped_name_that_is_gone_is_absent_not_a_failure():
    module = types.SimpleNamespace(__name__="fedsurrogate.defense")
    tracer = hooks.Tracer()
    with hooks.Patches() as patches:
        assert not patches.wrap(module, "hdbscan", tracer.wrap("clustering.hdbscan"))
    assert patches.absent == ["defense.hdbscan"]
    assert tracer.metrics(1)["clustering.hdbscan_s"] == 0


def test_timed_hooks_measure_setup_rounds_and_flags():
    with hooks.TimedHooks(harness) as timed:
        setup = timed.setup(SMALL)
        exp = timed.run(SMALL)
    assert harness.fedsurrogate_round is defense.fedsurrogate_round
    assert 0 < setup < exp.wall_s and 0 < exp.setup_s < exp.wall_s
    assert len(exp.defense_s) == 3 and len(exp.round_intervals) == 2
    assert len(exp.flagged) == 3 and len(exp.clients) == 10
    assert run._property_failures(SMALL, exp, checks.GATES) == []


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((hooks.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(hooks.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(hooks.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(hooks.ROOT / "roundbench", tmp_path / "roundbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "roundbench/run.py", "--workload", "scale-n320", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
