"""Print a sha256 digest of the reports of a fixed set of experiments.

Each line holds one config's digest of ``report_to_csv`` followed by
``report_to_json``, then the last line one overall digest of those
lines. Two commits that print the same overall digest write the same
report bytes for every config of the set, so a change meant to keep
behaviour is checked by running, in each commit's checkout,

    PYTHONPATH=src python scripts/report_digest.py
"""
from __future__ import annotations

import dataclasses
import hashlib
from typing import Sequence

from fedsurrogate.defense import LcaConfig
from fedsurrogate.harness import (
    ATTACKS,
    DatasetSpec,
    ExperimentConfig,
    report_to_csv,
    report_to_json,
    run_experiment,
)

# Stage 1 and Stage 3 settings other than the defaults, each run on seeds
# 1 and 3 (under the default CBA attack)
_VARIANTS = {
    "top_k=1": dict(lca=LcaConfig(top_k=1)),
    "top_k=2": dict(lca=LcaConfig(top_k=2)),
    "mad_threshold": dict(lca=LcaConfig(mode="mad_threshold")),
    "euclidean top_k=2": dict(donor_metric="euclidean", lca=LcaConfig(top_k=2)),
    "variant=stage1": dict(variant="stage1"),
    "variant=no_rescue": dict(variant="no_rescue"),
    "variant=exclude": dict(variant="exclude"),
}


def config_set() -> list[tuple[str, ExperimentConfig]]:
    """The fixed set, as (name, config) pairs in print order."""
    base = ExperimentConfig()
    out = [(f"seed={seed} attack={attack}",
            dataclasses.replace(base, seed=seed, attack_kind=attack, rounds=12))
           for seed in (1, 2, 50511426) for attack in ATTACKS]
    out += [(f"seed={seed} {name}", dataclasses.replace(base, seed=seed, **fields))
            for seed in (1, 3) for name, fields in _VARIANTS.items()]
    out.append(("n=80 attack=none",
                dataclasses.replace(base, n_clients=80, attack_kind="none", rounds=10)))
    out.append(("n=320 attack=cba",
                dataclasses.replace(base, n_clients=320, attack_kind="cba", rounds=3,
                                    dataset=DatasetSpec(per_class=1200))))
    return out


def print_digests(configs: Sequence[tuple[str, ExperimentConfig]]) -> str:
    """Run each config, print its report digest and name, then the
    overall digest, which is returned."""
    overall = hashlib.sha256()
    for name, cfg in configs:
        report = run_experiment(cfg)
        digest = hashlib.sha256(
            (report_to_csv(report) + report_to_json(report)).encode()).hexdigest()
        print(f"{digest}  {name}", flush=True)
        overall.update(f"{digest}  {name}\n".encode())
    print(f"{overall.hexdigest()}  overall")
    return overall.hexdigest()


if __name__ == "__main__":
    print_digests(config_set())
