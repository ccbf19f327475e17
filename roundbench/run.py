"""Round-pipeline benchmark for fedsurrogate.

    python3 roundbench/run.py --workload attack-mix-n20 --seed 1 --seconds 20 --trace 0

Runs one workload in this single process through the public entry point
``harness.run_experiment`` for ``--seconds`` seconds, checks every
result, and prints one JSON object as the last line of standard output:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``. Exits 2 when the package sources are
missing, 1 when no experiment completed.
"""
import os

# BLAS must be pinned to one thread before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import checks  # noqa: E402
import hooks  # noqa: E402

# setup_s is the median of this many set-ups, each on its own seed derived
# from the run's seed and stopped after warm-up, cycling through the
# workload's configs. The timed experiments all share the run's seed, so
# their set-ups are left out: the Dirichlet partition's redraws make set-up
# cost depend on the seed, and at n=320 a median over 8 seeds still
# spread by 0.48 across runs, over 32 seeds by 0.18.
SETUP_PROBES = 32

END_TO_END = (
    ("setup_s", "s"),
    ("experiment_s", "s"),
    ("round_ms_p50", "ms"),
    ("defense_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
)


def _attack_mix(h, seed):
    return [h.ExperimentConfig(n_clients=20, mcr=0.2, alpha=0.5, rounds=30,
                               attack_kind=a, seed=seed)
            for a in ("cba", "dba", "neurotoxin", "csa", "cla")]


def _scale(h, seed):
    # 1200 samples per class keep every Dirichlet shard of 320 clients
    # non-empty and as large on average as the default 80-client shards.
    # Six rounds let the undefended FedAvg control reach ASR >= 0.5 on
    # 40 of 41 seeds surveyed; at five it stays near 0.4 on more.
    return [h.ExperimentConfig(n_clients=320, mcr=0.2, alpha=0.5, rounds=6,
                               attack_kind="cba", seed=seed,
                               dataset=h.DatasetSpec(per_class=1200))]


# workload name -> (harness, seed) -> the ExperimentConfigs of one pass
WORKLOADS = {
    "attack-mix-n20": _attack_mix,
    "scale-n320": _scale,
}


def _property_failures(cfg, exp: hooks.Experiment, limits: checks.Limits) -> list[str]:
    r = exp.report
    return checks.check_report(
        r.final_asr, r.final_mta, r.tpr, r.fpr, exp.flagged, exp.clients,
        cfg.pdr, cfg.attack_kind != "none", limits)


def _timed_pass(timed: hooks.TimedHooks, configs, log) -> tuple[list, int]:
    """One timed experiment per config; returns ([(config, experiment)],
    number that raised)."""
    done, failed = [], 0
    for cfg in configs:
        try:
            exp = timed.run(cfg)
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        done.append((cfg, exp))
        for msg in _property_failures(cfg, exp, checks.GATES):
            log(f"{cfg.attack_kind} seed {cfg.seed}: {msg}")
    return done, failed


def _last_pass(started: float, deadline: float) -> bool:
    """Stop when another pass as long as the last would end more than
    half of it past the deadline, so runs overshoot by half a pass at
    most instead of a whole one."""
    now = time.perf_counter()
    return now + (now - started) / 2 >= deadline


def _report_claims(harness, done) -> None:
    """Print which experiments of one pass met the paper's claims. Each
    attacked config also gets an untimed FedAvg control on the same seed:
    a low defended ASR means little where the undefended one is low too.
    Later passes repeat the same seeded results."""
    missed = {}
    for cfg, exp in done:
        msgs = _property_failures(cfg, exp, checks.PAPER)
        if cfg.attack_kind != "none":
            control = harness.run_experiment(dataclasses.replace(cfg, defense="fedavg"))
            msgs += checks.check_fedavg_asr([r.asr for r in control.records], checks.PAPER)
        missed[cfg.attack_kind] = msgs
    held = sum(not msgs for msgs in missed.values())
    print(f"claim: the paper's claims held in {held} of {len(done)} experiments")
    for kind, msgs in missed.items():
        for msg in msgs:
            print(f"claim missed: {kind}: {msg}")


def run_end_to_end(harness, workload, seed: int, seconds: float, log):
    configs = workload(harness, seed)
    deadline = time.perf_counter() + seconds
    experiments, pass_walls, failed, attempted = [], [], 0, 0
    with hooks.TimedHooks(harness) as timed:
        setups = [timed.setup(dataclasses.replace(configs[j % len(configs)],
                                                  seed=seed * SETUP_PROBES + j))
                  for j in range(SETUP_PROBES)]
        while True:
            started = time.perf_counter()
            done, n_failed = _timed_pass(timed, configs, log)
            attempted += len(configs)
            failed += n_failed
            experiments += [exp for _, exp in done]
            if not n_failed:
                pass_walls.append(sum(exp.wall_s for _, exp in done))
            if _last_pass(started, deadline):
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _report_claims(harness, done)
    if not pass_walls:
        return None, attempted, failed
    metrics = {
        "setup_s": statistics.median(setups),
        # every pass repeats the same seeded work, so the mean over the
        # whole run is the steadier estimate of one pass's wall time
        "experiment_s": statistics.fmean(pass_walls),
        "round_ms_p50": 1e3 * statistics.median(
            [dt for e in experiments for dt in e.round_intervals]),
        "defense_ms_p50": 1e3 * statistics.median([dt for e in experiments for dt in e.defense_s]),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}, \
        attempted, failed


def run_traced(harness, defense, workload, seed: int, seconds: float, log, out_path):
    """Alternate an untraced and a traced pass until ``seconds`` are up.
    Every traced round is recomputed, and each traced report must be
    byte-identical to the untraced one."""
    configs = workload(harness, seed)
    tracer = hooks.Tracer()
    deadline = time.perf_counter() + seconds
    untraced_walls, traced_walls, absent, attempted, failed = [], [], set(), 0, 0
    while True:
        started = time.perf_counter()
        with hooks.TimedHooks(harness) as timed:
            done, n_failed = _timed_pass(timed, configs, log)
        attempted += len(configs)
        failed += n_failed
        if n_failed:
            break
        untraced_walls.append(sum(exp.wall_s for _, exp in done))
        wall = 0.0
        for cfg, plain in done:
            checker = hooks.RoundChecker(tracer, cfg)
            attempted += 1
            try:
                with hooks.Patches() as patches:
                    tracer.install(patches, harness, defense)
                    checker.install(patches, harness, defense)
                    report, dt = tracer.run(harness, cfg)
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            absent.update(patches.absent)
            wall += dt
            msgs = checker.check_report(report) + checks.check_same_bytes(
                harness.report_to_csv(report).encode(),
                harness.report_to_csv(plain.report).encode())
            for msg in msgs:
                log(f"traced {cfg.attack_kind} seed {cfg.seed}: {msg}")
        traced_walls.append(wall)
        if _last_pass(started, deadline):
            break
    if not traced_walls:
        return None, attempted, failed
    with open(out_path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, rnd in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "round": rnd}) + "\n")
    untraced, traced = statistics.fmean(untraced_walls), statistics.fmean(traced_walls)
    print(f"trace: {len(traced_walls)} traced passes, experiment_s untraced {untraced:.4f} "
          f"traced {traced:.4f} overhead {traced - untraced:+.4f} s; spans in {out_path}")
    for name in sorted(absent):
        print(f"absent: {name} is no longer defined; its metrics read 0")
    values = tracer.metrics(len(traced_walls))
    units = dict(hooks.PER_LAYER)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in hooks.PER_LAYER}, \
        attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness, defense = hooks.load_package()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failures: list[str] = []

    def log(msg: str) -> None:
        failures.append(msg)
        print(f"check failed: {msg}", file=sys.stderr)

    workload = WORKLOADS[args.workload]
    if args.trace:
        out_dir = hooks.ROOT / "roundbench" / "out"
        out_dir.mkdir(exist_ok=True)
        metrics, attempted, failed = run_traced(
            harness, defense, workload, args.seed, args.seconds, log,
            out_dir / f"{args.workload}-seed{args.seed}.trace.jsonl")
    else:
        metrics, attempted, failed = run_end_to_end(
            harness, workload, args.seed, args.seconds, log)
    if metrics is None:
        print("error: no experiment completed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
