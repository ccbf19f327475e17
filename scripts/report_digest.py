"""Print a sha256 digest of the reports of a fixed set of experiments.

Each line holds one config's digest of ``report_to_csv`` followed by
``report_to_json``, then the last line one overall digest of those
lines. Two commits that print the same overall digest write the same
report bytes for every config of the set, so a change meant to keep
behaviour is checked by running, in each commit's checkout,

    PYTHONPATH=src python scripts/report_digest.py [--expect HEX]

With ``--expect HEX`` the script exits 1 when the overall digest is not
HEX, naming on stderr each config whose line is not in the listing of
``report_digests.txt`` beside it, which holds the output of a run whose
overall digest is HEX. A change of behaviour on purpose rewrites that
file with this script's output.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path
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

RECORDED = Path(__file__).with_name("report_digests.txt")

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


def print_digests(configs: Sequence[tuple[str, ExperimentConfig]],
                  expect: str | None = None) -> str:
    """Run each config, print its report digest and name, then the
    overall digest, which is returned. When ``expect`` is given and the
    overall digest is not it, each config whose line is not in
    RECORDED is named on stderr."""
    overall, lines = hashlib.sha256(), []
    for name, cfg in configs:
        report = run_experiment(cfg)
        digest = hashlib.sha256(
            (report_to_csv(report) + report_to_json(report)).encode()).hexdigest()
        lines.append(f"{digest}  {name}")
        print(lines[-1], flush=True)
        overall.update(f"{lines[-1]}\n".encode())
    print(f"{overall.hexdigest()}  overall")
    if expect not in (None, overall.hexdigest()):
        print(f"error: the overall digest is not {expect}", file=sys.stderr)
        recorded = RECORDED.read_text().splitlines() if RECORDED.exists() else []
        if f"{expect}  overall" not in recorded:
            print(f"error: {RECORDED.name} holds no listing of {expect}, "
                  "so the configs that differ are not named", file=sys.stderr)
        else:
            for line in lines:
                if line not in recorded:
                    print(f"differs: {line[66:]}", file=sys.stderr)
    return overall.hexdigest()


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--expect", metavar="HEX", type=str.lower,
                        help="exit 1, naming the configs that differ, unless the "
                             "overall digest is HEX")
    expect = parser.parse_args(argv).expect
    overall = print_digests(config_set(), expect)
    return int(expect is not None and overall != expect)


if __name__ == "__main__":
    sys.exit(main())
