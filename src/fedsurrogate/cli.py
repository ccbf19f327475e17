"""Command-line interface: ``run``, ``sweep``, and ``ablate``.

Each config leaf's dotted path (``filter.zeta``) is its YAML key within
its section, its flag (``--filter-zeta``) and its ``sweep --parameter``
name; a sweep over a tuple leaf separates its tuples with ``;``
(``--values "24,12;32,16"``, reports tagged ``24-12`` and ``32-16``).
A YAML config file, such as a report's JSON ``config`` block, may
supply any subset of fields, each key once, and explicit flags
override it. The ``FEDSURROGATE_OUTPUT_DIR`` environment variable
overrides the output directory.

Each command is a list of experiments, all configs checked before the
first runs. Each report is written, and its line
``{label}: MTA ... ASR ... TPR ... FPR ... -> {path}`` printed, as its
experiment ends, so a sweep that fails on a later value keeps the
reports of the earlier ones. Exit status is 2 on any validation, YAML
or run failure.

BLAS thread pools are pinned to a single thread before numpy is first
imported so results are bit-identical regardless of host parallelism.
"""
from __future__ import annotations

import argparse
import os
import sys
import typing

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")

import yaml  # noqa: E402

from .defense import VARIANTS  # noqa: E402
from .harness import (  # noqa: E402
    ExperimentConfig,
    config_fields,
    config_hash,
    emit_report,
    run_experiment,
    set_fields,
)

OUTPUT_DIR_ENV = "FEDSURROGATE_OUTPUT_DIR"


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="YAML config file; flags override it")
    p.add_argument("--output-dir", default=".",
                   help=f"output directory (overridden by ${OUTPUT_DIR_ENV})")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    for path in config_fields():
        p.add_argument("--" + path.replace(".", "-").replace("_", "-"), dest=path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsurrogate",
        description="Deterministic federated-learning backdoor-defense simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment")
    _add_common_flags(p_run)
    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--parameter", required=True,
                         help="config field to sweep (e.g. filter.zeta, mcr, n_clients)")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated sweep values; for a tuple field, "
                              "semicolon-separated tuples (24,12;32,16)")
    p_ablate = sub.add_parser("ablate", help="run the pipeline ablation variants")
    _add_common_flags(p_ablate)
    return parser


def _from_text(typ, text: str):
    """A flag or sweep value as YAML would type it: a tuple splits on
    commas, a number parses. Text that does not parse is left for the
    config's coercion to reject by name."""
    if typing.get_origin(typ) is tuple:
        return [_from_text(typing.get_args(typ)[0], part.strip()) for part in text.split(",")]
    if typ in (int, float):
        try:
            return typ(text)
        except ValueError:
            pass
    return text


def _yaml_paths(mapping: dict, prefix: str = "") -> dict:
    out: dict = {}
    for key, value in mapping.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_yaml_paths(value, path + "."))
        else:
            out[path] = value
    return out


class _UniqueKeyLoader(yaml.SafeLoader):
    """A safe loader that rejects a mapping key given twice (YAML keeps the last)."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key, _ in node.value:
            if isinstance(key, yaml.ScalarNode):
                if key.value in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"config key {key.value!r} is given twice", key.start_mark)
                seen.add(key.value)
        return super().construct_mapping(node, deep)


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Build an ExperimentConfig from the config file plus CLI overrides."""
    values: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = yaml.load(fh, Loader=_UniqueKeyLoader)
        if not isinstance(loaded, dict | None):  # an empty file loads as None
            raise ValueError("config file must contain a mapping")
        values = _yaml_paths(loaded or {})
    for path, typ in config_fields().items():
        text = getattr(args, path)
        if text is not None:
            values[path] = _from_text(typ, text)
    return set_fields(ExperimentConfig(), values)


def _jobs(args: argparse.Namespace,
          cfg: ExperimentConfig) -> list[tuple[str, str, ExperimentConfig]]:
    """(report file prefix, label, config) of each experiment the command
    runs: ``run`` one, ``sweep`` one per value, ``ablate`` one per
    variant. Every config is built, so checked, before any runs."""
    if args.command == "run":
        return [("run_", "run", cfg)]
    if args.command == "sweep":
        key, prefix = args.parameter, f"sweep_{args.parameter}_"
        typ = config_fields().get(key, str)
        sep = ";" if typing.get_origin(typ) is tuple else ","  # a tuple holds commas
        values = [_from_text(typ, chunk.strip()) for chunk in args.values.split(sep)
                  if chunk.strip()]
        if not values:
            raise ValueError("empty sweep value list")
    else:
        if cfg.defense != "fedsurrogate":
            raise ValueError("ablation requires the fedsurrogate defense")
        key, prefix, values = "variant", "ablate_", VARIANTS
    texts = [",".join(map(str, v)) if isinstance(v, list) else str(v) for v in values]
    return [(f"{prefix}{text.replace(',', '-').replace('.', 'p')}_", f"{key}={text}",
             set_fields(cfg, {key: v})) for text, v in zip(texts, values)]


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        jobs = _jobs(args, resolve_config(args))
        out_dir = os.environ.get(OUTPUT_DIR_ENV) or args.output_dir
        os.makedirs(out_dir, exist_ok=True)
        for prefix, label, cfg in jobs:  # each report is written as its run ends
            report = run_experiment(cfg)
            path = os.path.join(out_dir, f"{prefix}{config_hash(cfg)}.{args.format}")
            emit_report(report, path, format=args.format)
            print(f"{label}: MTA {report.final_mta:.4f} ASR {report.final_asr:.4f} "
                  f"TPR {report.tpr:.4f} FPR {report.fpr:.4f} -> {path}", flush=True)
    except (ValueError, OSError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
