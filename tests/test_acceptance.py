"""End-to-end acceptance suite: ten numbered criteria, each printing a
PASS/FAIL line in the terminal summary (see conftest.py)."""
import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import spearmanr

from fedsurrogate.clustering import hdbscan
from fedsurrogate.data import generate_synthetic
from fedsurrogate.defense import (
    FilterConfig,
    LcaConfig,
    ScoreMemory,
    layer_divergence,
    rescue_suspects,
    screen_trusted,
    select_critical_layers,
    update_memory,
)
from fedsurrogate.harness import ExperimentConfig, run_experiment
from fedsurrogate.model import MlpArchitecture, forward, init_model
from fedsurrogate.params import (
    ClientUpdate,
    LayerSchema,
    ParameterVector,
    pairwise_distance_matrix,
)

from conftest import record_criterion
from hdbscan_oracle import hdbscan_reference
from model_oracle import backward, cross_entropy

SEEDS = (1, 11, 13)


def cfg(**overrides):
    return dataclasses.replace(ExperimentConfig(), **overrides)


def run_matrix(**overrides):
    return {s: run_experiment(cfg(seed=s, **overrides)) for s in SEEDS}


@pytest.fixture(scope="module")
def cba_runs():
    return {
        "undef": run_matrix(defense="fedavg"),
        "def": run_matrix(),
        "control": run_matrix(defense="fedavg", attack_kind="none"),
    }


@pytest.fixture(scope="module")
def dba_runs():
    return {
        "undef": run_matrix(defense="fedavg", attack_kind="dba"),
        "def": run_matrix(attack_kind="dba"),
    }


@pytest.fixture(scope="module")
def ntx_runs():
    return {
        "undef": run_matrix(defense="fedavg", attack_kind="neurotoxin"),
        "def": run_matrix(attack_kind="neurotoxin"),
    }


class TestCriterion1:
    def test_defense_efficacy(self, cba_runs):
        undef_asr = [cba_runs["undef"][s].final_asr for s in SEEDS]
        def_asr = [cba_runs["def"][s].final_asr for s in SEEDS]
        gaps = [
            abs(cba_runs["def"][s].final_mta - cba_runs["control"][s].final_mta)
            for s in SEEDS
        ]
        total = sum(r.wall_clock for runs in cba_runs.values() for r in runs.values())
        ok = (
            min(undef_asr) >= 0.80
            and max(def_asr) <= 0.05
            and max(gaps) <= 0.03
            and total < 300.0
        )
        record_criterion(
            1, ok,
            f"undefended ASR min {min(undef_asr):.2f} (>=0.80), defended ASR max "
            f"{max(def_asr):.3f} (<=0.05), MTA gap max {max(gaps):.3f} (<=0.03), "
            f"wall clock {total:.0f}s (<300s)",
        )
        assert ok


class TestCriterion2:
    def test_detection_rates(self, cba_runs, dba_runs, ntx_runs):
        # identical per-round denominators across seeds, so the seed mean
        # equals the pooled rate
        stats = {}
        for name, runs in (("cba", cba_runs["def"]), ("dba", dba_runs["def"]),
                           ("neurotoxin", ntx_runs["def"])):
            tpr = float(np.mean([runs[s].tpr for s in SEEDS]))
            fpr = float(np.mean([runs[s].fpr for s in SEEDS]))
            stats[name] = (tpr, fpr)
        ok = all(t >= 0.90 and f <= 0.10 for t, f in stats.values())
        detail = ", ".join(
            f"{k} TPR {t:.2f}/FPR {f:.3f}" for k, (t, f) in stats.items()
        )
        record_criterion(2, ok, detail + " (TPR>=0.90, FPR<=0.10)")
        assert ok


class TestCriterion3:
    def test_dba_neurotoxin_efficacy(self, dba_runs, ntx_runs):
        dba_asr = max(dba_runs["def"][s].final_asr for s in SEEDS)
        ntx_asr = max(ntx_runs["def"][s].final_asr for s in SEEDS)
        ntx_undef = float(np.mean([ntx_runs["undef"][s].final_asr for s in SEEDS]))
        ok = dba_asr <= 0.05 and ntx_asr <= 0.05 and ntx_undef >= 0.5
        record_criterion(
            3, ok,
            f"defended ASR max: dba {dba_asr:.3f}, neurotoxin {ntx_asr:.3f} "
            f"(<=0.05); undefended neurotoxin ASR {ntx_undef:.2f} (>=0.5)",
        )
        assert ok


class TestCriterion4:
    def test_adaptive_attacks(self):
        stats = {}
        for kind in ("csa", "cla"):
            runs = run_matrix(attack_kind=kind)
            stats[kind] = (
                max(r.final_asr for r in runs.values()),
                max(r.fpr for r in runs.values()),
            )
        ok = all(a <= 0.10 and f <= 0.15 for a, f in stats.values())
        detail = ", ".join(f"{k} ASR {a:.3f}/FPR {f:.3f}" for k, (a, f) in stats.items())
        record_criterion(4, ok, detail + " (ASR<=0.10, FPR<=0.15)")
        assert ok


class TestCriterion5:
    def test_zeta_sensitivity(self):
        zetas = (0.1, 0.2, 0.3, 0.4, 0.5)
        mean_fpr, mean_tpr = [], []
        for z in zetas:
            flt = dataclasses.replace(ExperimentConfig().filter, zeta=z)
            runs = run_matrix(filter=flt)
            mean_fpr.append(float(np.mean([r.fpr for r in runs.values()])))
            mean_tpr.append(float(np.mean([r.tpr for r in runs.values()])))
        rho = float(spearmanr(zetas, mean_fpr).statistic)
        tpr_at_04 = mean_tpr[zetas.index(0.4)]
        ok = rho < 0 and tpr_at_04 >= max(mean_tpr) - 0.05
        record_criterion(
            5, ok,
            f"FPR by zeta {['%.3f' % f for f in mean_fpr]}, Spearman rho {rho:.2f} "
            f"(<0); TPR@0.4 {tpr_at_04:.2f} vs max {max(mean_tpr):.2f} (gap<=0.05)",
        )
        assert ok


class TestCriterion6:
    def test_mcr_robustness(self):
        asr_by_mcr = {}
        for m in (0.1, 0.2, 0.3, 0.45):
            runs = run_matrix(mcr=m)
            asr_by_mcr[m] = [r.final_asr for r in runs.values()]
        low_ok = all(max(asr_by_mcr[m]) <= 0.05 for m in (0.1, 0.2, 0.3))
        breakdown = float(np.mean(asr_by_mcr[0.45])) >= 5.0 * float(np.mean(asr_by_mcr[0.2]))
        ok = low_ok and breakdown
        record_criterion(
            6, ok,
            f"ASR max at 0.1/0.2/0.3: "
            f"{['%.3f' % max(asr_by_mcr[m]) for m in (0.1, 0.2, 0.3)]} (<=0.05); "
            f"mean ASR at 0.45 {np.mean(asr_by_mcr[0.45]):.2f} >= 5x mean at 0.2 "
            f"{np.mean(asr_by_mcr[0.2]):.3f}",
        )
        assert ok


class TestCriterion7:
    def test_scalability(self):
        worst_asr, worst_gap = 0.0, 0.0
        for n in (10, 20, 40):
            attacked = run_matrix(n_clients=n)
            control = run_matrix(n_clients=n, defense="fedavg", attack_kind="none")
            worst_asr = max(worst_asr, max(r.final_asr for r in attacked.values()))
            worst_gap = max(
                worst_gap,
                max(abs(attacked[s].final_mta - control[s].final_mta) for s in SEEDS),
            )
        ok = worst_asr <= 0.05 and worst_gap <= 0.05
        record_criterion(
            7, ok,
            f"n in (10,20,40): ASR max {worst_asr:.3f} (<=0.05), "
            f"MTA gap max {worst_gap:.3f} (<=0.05)",
        )
        assert ok


def planted_matrix(rng):
    """Random blob structure: 1-4 planted groups plus optional stragglers."""
    k = int(rng.integers(1, 5))
    sizes = [int(rng.integers(3, 9)) for _ in range(k)]
    n_extra = int(rng.integers(0, 3))
    centers = rng.uniform(-5, 5, size=(k, 3))
    pts = [c + 0.05 * rng.standard_normal(3) for i, c in enumerate(centers)
           for _ in range(sizes[i])]
    pts += [rng.uniform(-20, 20, size=3) for _ in range(n_extra)]
    pts = np.array(pts[:30])
    return np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)


class TestCriterion8:
    def test_oracle_equivalence(self):
        rng = np.random.default_rng(2024)
        mismatches = 0
        for _ in range(200):
            D = planted_matrix(rng)
            mcs = int(rng.integers(2, 6))
            ms = int(rng.integers(1, min(mcs, len(D) - 1) + 1))
            eps = float(rng.choice([0.0, 0.1, 0.5]))
            a = hdbscan(D, mcs, ms, selection_epsilon=eps)
            b = hdbscan_reference(D, mcs, ms, selection_epsilon=eps)
            if a.labels != b.labels or a.cluster_sizes != b.cluster_sizes:
                mismatches += 1

        screen_bad = rescue_bad = 0
        flt = FilterConfig(zeta=0.4, iqr_multiplier=1.5)
        for _ in range(1000):
            scores = rng.uniform(0, 1, size=int(rng.integers(4, 15)))
            mem = ScoreMemory(dict(enumerate(scores.tolist())),
                              {i: 1 for i in range(len(scores))})
            got = screen_trusted(mem, frozenset(range(len(scores))), flt)
            q1, q3 = np.percentile(scores, [25.0, 75.0])
            fence = q3 + 1.5 * (q3 - q1)
            if got != frozenset(int(i) for i in np.flatnonzero(scores > fence)):
                screen_bad += 1
            rescued, confirmed = rescue_suspects(
                mem, frozenset(range(len(scores))), flt
            )
            cutoff = min(0.4, float(np.median(scores)))
            expect = frozenset(int(i) for i in np.flatnonzero(scores <= cutoff))
            if rescued != expect or confirmed != frozenset(range(len(scores))) - expect:
                rescue_bad += 1

        mem_err = 0.0
        for _ in range(20):
            mem = ScoreMemory()
            history = {i: [] for i in range(5)}
            for _ in range(40):
                raw = {i: float(rng.uniform(-1, 1)) for i in history}
                vals = np.array(list(raw.values()))
                lo, hi = vals.min(), vals.max()
                for i, s in raw.items():
                    history[i].append(0.5 if hi - lo < 1e-12 else (s - lo) / (hi - lo))
                mem = update_memory(mem, raw)
            for i, seq in history.items():
                mem_err = max(mem_err, abs(mem.score(i) - float(np.mean(seq))))

        ok = mismatches == 0 and screen_bad == 0 and rescue_bad == 0 and mem_err < 1e-12
        record_criterion(
            8, ok,
            f"clustering mismatches {mismatches}/200, screening oracle misses "
            f"{screen_bad}/1000, rescue oracle misses {rescue_bad}/1000, "
            f"memory running-mean error {mem_err:.1e} (<1e-12)",
        )
        assert ok


class TestCriterion9:
    def test_numerical_checks(self):
        rng = np.random.default_rng(9)
        worst_rel = 0.0
        for _ in range(5):
            arch = MlpArchitecture((5, 4, 3))
            params = init_model(arch, int(rng.integers(0, 1000)))
            feats = rng.uniform(0, 1, size=(4, 5))
            labels = rng.integers(0, 3, size=4)
            _, cache = forward(arch, params, feats)
            grad = backward(arch, params, cache, labels).values
            num = np.empty_like(grad)
            eps = 1e-6
            for i in range(len(grad)):
                up, dn = params.values.copy(), params.values.copy()
                up[i] += eps
                dn[i] -= eps
                lu, _ = forward(arch, ParameterVector(up, params.schema), feats)
                ld, _ = forward(arch, ParameterVector(dn, params.schema), feats)
                num[i] = (cross_entropy(lu, labels) - cross_entropy(ld, labels)) / (2 * eps)
            rel = np.max(np.abs(grad - num) / np.maximum(np.abs(num), 1e-3))
            worst_rel = max(worst_rel, float(rel))

        # cosine-geometry scale invariance of layer ranking and clustering
        schema = LayerSchema.from_lengths([("fc1", 3), ("fc2", 3)])
        ups, ups_scaled = [], []
        for i in range(8):
            d = rng.standard_normal(6)
            v = ParameterVector(d, schema)
            vs = ParameterVector(4.2 * d, schema)
            ups.append(ClientUpdate(i, v, v, 1))
            ups_scaled.append(ClientUpdate(i, vs, vs, 1))
        sel_a, _ = select_critical_layers(layer_divergence(ups), LcaConfig(top_k=1))
        sel_b, _ = select_critical_layers(layer_divergence(ups_scaled), LcaConfig(top_k=1))
        feats = [u.delta.values for u in ups]
        D1 = pairwise_distance_matrix(feats, metric="cosine")
        D2 = pairwise_distance_matrix([4.2 * f for f in feats], metric="cosine")
        part_a = hdbscan(D1, 3, 2)
        part_b = hdbscan(D2, 3, 2)
        scale_ok = sel_a == sel_b and part_a.labels == part_b.labels

        from fedsurrogate.defense import AggregationWeights, aggregate, build_surrogate

        s2 = LayerSchema.from_lengths([("a", 1), ("b", 1)])
        flaggedv = ParameterVector(np.array([1.0, 2.0]), s2)
        donorv = ParameterVector(np.array([9.0, 8.0]), s2)
        surr = build_surrogate(flaggedv, donorv, ["a"])
        slice_ok = (surr.values.tolist() == [9.0, 2.0])

        models = {
            0: ParameterVector(np.array([1.0, 1.0]), s2),
            1: ParameterVector(np.array([3.0, 3.0]), s2),
            2: ParameterVector(np.array([10.0, 10.0]), s2),
        }
        roles = {0: "trusted", 1: "trusted", 2: "surrogate"}
        agg = aggregate(models, roles, AggregationWeights(surrogate=0.3))
        agg_err = float(np.max(np.abs(agg.values - 14.0 / 4.6)))

        ok = worst_rel < 1e-5 and scale_ok and slice_ok and agg_err < 1e-9
        record_criterion(
            9, ok,
            f"gradient rel err {worst_rel:.1e} (<1e-5); scale invariance "
            f"{'ok' if scale_ok else 'BROKEN'}; surrogate slices "
            f"{'ok' if slice_ok else 'BROKEN'}; aggregation error {agg_err:.1e} (<1e-9)",
        )
        assert ok


class TestCriterion10:
    def test_determinism(self, tmp_path):
        flags = [
            "run", "--rounds", "5", "--n-clients", "8", "--warmup-epochs", "2",
            "--dataset-per-class", "80", "--dataset-test-per-class", "20",
            "--seed", "3",
        ]

        def run_cli(out_dir, threads):
            env = dict(os.environ)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = str(threads)
            env["FEDSURROGATE_OUTPUT_DIR"] = str(out_dir)
            out_dir.mkdir(exist_ok=True)
            proc = subprocess.run(
                [sys.executable, "-m", "fedsurrogate.cli", *flags],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            (path,) = out_dir.glob("run_*.csv")
            return path.read_bytes()

        a = run_cli(tmp_path / "a", 1)
        b = run_cli(tmp_path / "b", 1)
        c = run_cli(tmp_path / "c", 4)
        ok = a == b == c
        record_criterion(
            10, ok,
            f"CSV bytes: rerun identical {a == b}, 1-thread vs 4-thread identical "
            f"{a == c} ({len(a)} bytes)",
        )
        assert ok

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs two CPUs to compare with one",
    )
    def test_determinism_across_cpu_counts(self, tmp_path):
        """At n=40 the distance matrices are split over two threads, or
        computed on one when the process is pinned to one CPU; the CSV
        bytes must not depend on it."""
        flags = [
            "run", "--rounds", "3", "--n-clients", "40", "--warmup-epochs", "2",
            "--dataset-per-class", "160", "--dataset-test-per-class", "20",
            "--seed", "3",
        ]
        child = (
            "import os, sys\n"
            "if sys.argv[1] == 'pin':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from fedsurrogate import cli, params\n"
            "print('cpus', params._cpu_count())\n"
            "raise SystemExit(cli.main(sys.argv[2:]))\n"
        )

        def run_cli(out_dir, pin):
            env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                       MKL_NUM_THREADS="1", FEDSURROGATE_OUTPUT_DIR=str(out_dir))
            out_dir.mkdir()
            proc = subprocess.run(
                [sys.executable, "-c", child, pin, *flags],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            (path,) = out_dir.glob("run_*.csv")
            return int(proc.stdout.split()[1]), path.read_bytes()

        pinned_cpus, pinned = run_cli(tmp_path / "pinned", "pin")
        free_cpus, free = run_cli(tmp_path / "free", "free")
        assert pinned_cpus == 1 and free_cpus >= 2
        assert pinned == free
