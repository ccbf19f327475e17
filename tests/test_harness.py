import dataclasses
import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from fedsurrogate import data, harness, metrics
from fedsurrogate.cli import build_parser, resolve_config
from fedsurrogate.cli import main as cli_main
from fedsurrogate.harness import (
    DatasetSpec,
    ExperimentConfig,
    HonestMajorityWarning,
    _derive_seed,
    ablate,
    config_fields,
    config_hash,
    emit_report,
    report_to_csv,
    report_to_json,
    run_experiment,
    sweep,
)


def quick_config(**overrides):
    base = dict(
        n_clients=8,
        rounds=3,
        warmup_epochs=2,
        seed=1,
        dataset=DatasetSpec(per_class=60, test_per_class=20),
        attack=dataclasses.replace(ExperimentConfig().attack, boost=2.0),
    )
    base.update(overrides)
    return dataclasses.replace(ExperimentConfig(), **base)


@pytest.fixture(scope="module")
def quick_report():
    return run_experiment(quick_config())


class TestConfigValidation:
    def test_bad_mcr(self):
        with pytest.raises(ValueError):
            quick_config(mcr=1.5)

    def test_bad_attack(self):
        with pytest.raises(ValueError):
            quick_config(attack_kind="sybil")

    def test_bad_defense(self):
        with pytest.raises(ValueError):
            quick_config(defense="krum")

    def test_n_malicious_zero_without_attack(self):
        cfg = quick_config(attack_kind="none", mcr=0.4)
        assert cfg.n_malicious == 0

    def test_n_malicious_floor(self):
        assert quick_config(n_clients=20, mcr=0.3).n_malicious == 6

    def test_rescue_layers_checked_against_hidden_dims(self):
        with pytest.raises(ValueError, match="fc3"):
            quick_config(hidden_dims=(32,))
        with pytest.raises(ValueError, match="rescue_layers"):
            quick_config(filter=dataclasses.replace(ExperimentConfig().filter,
                                                    rescue_layers=()))
        flt = dataclasses.replace(ExperimentConfig().filter, rescue_layers=("fc2",))
        assert quick_config(hidden_dims=(32,), filter=flt).hidden_dims == (32,)

    def test_attack_config_reaches_the_attack(self, monkeypatch):
        seen = []
        real = harness.cba_train
        monkeypatch.setattr(harness, "cba_train",
                            lambda *a: seen.append(a[-1]) or real(*a))
        attack = dataclasses.replace(ExperimentConfig().attack,
                                     poison_rate=0.9, malicious_epochs=1)
        run_experiment(quick_config(rounds=1, attack=attack))
        assert seen and all(a == attack for a in seen)
        assert quick_config(attack=attack).pdr == 0.9

    def test_honest_majority_warned(self):
        cfg = quick_config(n_clients=4, mcr=0.5, rounds=1)
        with pytest.warns(HonestMajorityWarning):
            run_experiment(cfg)


class TestSeedDerivation:
    def test_deterministic(self):
        assert _derive_seed(7, 1, 2) == _derive_seed(7, 1, 2)

    def test_tag_sensitivity(self):
        seeds = {_derive_seed(7, tag) for tag in range(10)}
        assert len(seeds) == 10

    def test_master_sensitivity(self):
        assert _derive_seed(7, 1) != _derive_seed(8, 1)


@pytest.mark.parametrize("defense", harness.DEFENSES)
@pytest.mark.parametrize("attack_kind", harness.ATTACKS)
def test_run_raises_no_floating_point_warning(attack_kind, defense):
    """A whole n=20 run of 10 rounds, with every numpy floating-point
    warning raised as an error: no divide by zero, overflow or invalid
    value anywhere in training, the defense or the metrics."""
    cfg = dataclasses.replace(ExperimentConfig(), rounds=10, seed=5,
                              attack_kind=attack_kind, defense=defense)
    with np.errstate(all="raise"):
        report = run_experiment(cfg)
    assert len(report.records) == 10


class TestConfigHash:
    def test_stable(self):
        assert config_hash(quick_config()) == config_hash(quick_config())

    def test_changes_with_any_field(self):
        base = config_hash(quick_config())
        assert config_hash(quick_config(seed=2)) != base
        assert config_hash(quick_config(mcr=0.25)) != base
        zeta = dataclasses.replace(ExperimentConfig().filter, zeta=0.3)
        assert config_hash(quick_config(filter=zeta)) != base


class TestReports:
    def test_csv_line_count(self, quick_report):
        lines = report_to_csv(quick_report).strip().split("\n")
        assert len(lines) == quick_report.config.rounds + 2
        assert lines[0].startswith("round,")
        assert lines[-1].startswith("summary,")

    def test_json_round_trip(self, quick_report):
        payload = json.loads(report_to_json(quick_report))
        assert payload["seed"] == quick_report.seed
        assert payload["tpr"] == quick_report.tpr
        assert len(payload["records"]) == quick_report.config.rounds
        assert payload["config"]["n_clients"] == quick_report.config.n_clients
        assert payload["config_hash"] == config_hash(quick_report.config)

    def test_emit_formats(self, quick_report, tmp_path):
        emit_report(quick_report, str(tmp_path / "r.csv"), "csv")
        emit_report(quick_report, str(tmp_path / "r.json"), "json")
        assert (tmp_path / "r.csv").read_text().startswith("round,")
        json.loads((tmp_path / "r.json").read_text())
        with pytest.raises(ValueError):
            emit_report(quick_report, str(tmp_path / "r.xml"), "xml")

    def test_two_runs_byte_identical(self, quick_report):
        again = run_experiment(quick_config())
        assert report_to_csv(again) == report_to_csv(quick_report)
        assert report_to_json(again) == report_to_json(quick_report)

    @pytest.mark.parametrize("attack_kind, builds", [("cba", 1), ("none", 0)])
    def test_triggered_test_set_built_once_per_run(self, attack_kind, builds, monkeypatch):
        built, build = [], data.triggered_test_set

        def counted(*args, **kwargs):
            built.append(1)
            return build(*args, **kwargs)

        # every module that holds the name, so a build anywhere counts
        for module in (data, metrics, harness):
            monkeypatch.setattr(module, "triggered_test_set", counted)
        report = run_experiment(quick_config(attack_kind=attack_kind))
        monkeypatch.undo()
        assert len(report.records) == 3 and len(built) == builds


class TestSweepAblate:
    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            sweep(quick_config(), "nonsense", [1])

    def test_sweep_applies_values(self):
        reports = sweep(quick_config(rounds=1), "mcr", [0.1, 0.2])
        assert [r.config.mcr for r in reports] == [0.1, 0.2]

    def test_ablate_requires_fedsurrogate(self):
        with pytest.raises(ValueError):
            ablate(quick_config(defense="fedavg"))

    def test_ablate_variants(self):
        reports = ablate(quick_config(rounds=1))
        assert [r.config.variant for r in reports] == [
            "stage1", "no_rescue", "exclude", "full"
        ]


class TestCli:
    def test_run_writes_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDSURROGATE_OUTPUT_DIR", str(tmp_path))
        rc = cli_main([
            "run", "--rounds", "2", "--n-clients", "6", "--warmup-epochs", "1",
            "--dataset-per-class", "40", "--dataset-test-per-class", "10",
        ])
        assert rc == 0
        files = list(tmp_path.glob("run_*.csv"))
        assert len(files) == 1
        assert files[0].read_text().startswith("round,")

    def test_validation_failure_nonzero_exit(self, capsys):
        assert cli_main(["run", "--mcr", "1.5"]) != 0
        assert "error" in capsys.readouterr().err

    def test_yaml_config_with_override(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "rounds: 2\nn_clients: 6\nwarmup_epochs: 1\nseed: 5\n"
            "dataset:\n  per_class: 40\n  test_per_class: 10\n"
            "filter:\n  zeta: 0.2\n"
        )
        out = tmp_path / "out"
        monkeypatch.setenv("FEDSURROGATE_OUTPUT_DIR", str(out))
        rc = cli_main(["run", "--config", str(cfg), "--seed", "9", "--format", "json"])
        assert rc == 0
        payload = json.loads(next(out.glob("run_*.json")).read_text())
        assert payload["config"]["seed"] == 9          # CLI wins
        assert payload["config"]["rounds"] == 2        # file value kept
        assert payload["config"]["filter"]["zeta"] == 0.2

    def test_unpartitionable_dataset_is_an_error_exit(self, tmp_path, monkeypatch, capsys):
        # 320 clients over the default 300 samples per class: every
        # Dirichlet draw leaves some client empty
        monkeypatch.setenv("FEDSURROGATE_OUTPUT_DIR", str(tmp_path))
        assert cli_main(["run", "--n-clients", "320", "--rounds", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: no partition gives each of 320")

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("roundz: 2\n")
        assert cli_main(["run", "--config", str(cfg)]) != 0

    def test_sweep_subcommand(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDSURROGATE_OUTPUT_DIR", str(tmp_path))
        rc = cli_main([
            "sweep", "--parameter", "filter.zeta", "--values", "0.2,0.4",
            "--rounds", "1", "--n-clients", "6", "--warmup-epochs", "1",
            "--dataset-per-class", "40", "--dataset-test-per-class", "10",
        ])
        assert rc == 0
        assert len(list(tmp_path.glob("sweep_filter.zeta_*.csv"))) == 2

    def test_ablate_subcommand(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDSURROGATE_OUTPUT_DIR", str(tmp_path))
        rc = cli_main([
            "ablate", "--rounds", "1", "--n-clients", "6", "--warmup-epochs", "1",
            "--dataset-per-class", "40", "--dataset-test-per-class", "10",
        ])
        assert rc == 0
        names = {p.name.split("_", 2)[1] for p in tmp_path.glob("ablate_*.csv")}
        assert {"stage1", "no", "exclude", "full"} <= names


# a valid non-default value for each leaf a +1 / x0.9 rule cannot give
_OTHER = {
    "attack_kind": "dba", "defense": "fedavg", "lca.mode": "mad_threshold",
    "donor_metric": "euclidean", "variant": "stage1",
    "filter.rescue_layers": ("fc2",), "hidden_dims": (24, 12), "dataset.dim": 49,
}
_PATHS = [p for p in config_fields() if p.startswith("dataset.") and p.endswith("_path")]


def _leaf(cfg, path):
    return functools.reduce(getattr, path.split("."), cfg)


def _settings(path):
    """Values that set ``path`` to a valid non-default value: an IDX
    path needs its three companions."""
    if path in _PATHS:
        return {p: f"{p}.idx" for p in _PATHS}
    if path in _OTHER:
        return {path: _OTHER[path]}
    default = _leaf(ExperimentConfig(), path)
    return {path: default + 1 if isinstance(default, int) else default * 0.9}


def _nested(values):
    out: dict = {}
    for path, value in values.items():
        *sections, name = path.split(".")
        node = out
        for section in sections:
            node = node.setdefault(section, {})
        node[name] = list(value) if isinstance(value, tuple) else value
    return out


def _resolve(*argv):
    return resolve_config(build_parser().parse_args(["run", *argv]))


class TestConfigSchema:
    @pytest.mark.parametrize("path", list(config_fields()))
    def test_every_leaf_settable_from_yaml(self, path, tmp_path):
        values = _settings(path)
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text(yaml.safe_dump(_nested(values)))
        cfg = _resolve("--config", str(cfg_file))
        assert _leaf(cfg, path) == values[path] != _leaf(ExperimentConfig(), path)

    @pytest.mark.parametrize("path", list(config_fields()))
    def test_every_leaf_settable_from_its_flag(self, path):
        values = _settings(path)
        argv = []
        for p, v in values.items():
            text = ",".join(map(str, v)) if isinstance(v, tuple) else str(v)
            argv += ["--" + p.replace(".", "-").replace("_", "-"), text]
        cfg = _resolve(*argv)
        assert _leaf(cfg, path) == values[path] != _leaf(ExperimentConfig(), path)

    @pytest.mark.parametrize("text, key", [
        ("zeta: 0.9\n", "'zeta'"),
        ("filter:\n  zetta: 0.2\n", "'filter.zetta'"),
        ("rounds: 2.7\n", "'rounds'"),
        ("mcr: true\n", "'mcr'"),
        ("pdr: 0.5\n", "'pdr'"),
        ("dataset: 3\n", "'dataset'"),
        ("alpha: " + "9" * 400 + "\n", "'alpha'"),
        ("seed: -1\n", "'seed'"),
        ("dataset:\n  dim: 10\n", "'dataset.dim'"),
        ("dataset:\n  background: 2.0\n", "'dataset.background'"),
        ("dataset:\n  num_classes: 20\n  dim: 9\n", "'dataset.num_classes'"),
        ("filter:\n  rescue_layers: [fc2, fc2]\n", "'filter.rescue_layers'"),
    ])
    def test_bad_key_exits_2_naming_it(self, text, key, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text(text)
        assert cli_main(["run", "--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err

    @pytest.mark.parametrize("flag, value", [
        ("--rounds", "2.7"), ("--mcr", "true"), ("--hidden-dims", "32,x"),
    ])
    def test_bad_flag_value_exits_2(self, flag, value, capsys):
        assert cli_main(["run", flag, value]) == 2
        assert capsys.readouterr().err.startswith("error: config key")

    @pytest.mark.parametrize("text", ["nan", "inf"])
    @pytest.mark.parametrize("path", [p for p, t in config_fields().items() if t is float])
    def test_non_finite_float_exits_2_naming_it(self, path, text, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text(yaml.safe_dump(_nested({path: float(text)})))
        flag = "--" + path.replace(".", "-").replace("_", "-")
        for argv in (["--config", str(cfg_file)], [flag, text]):
            assert cli_main(["run", *argv]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: config key") and repr(path) in err

    def test_null_path_stays_none(self, tmp_path):
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text("dataset:\n  images_path: null\n")
        assert _resolve("--config", str(cfg_file)).dataset.images_path is None

    def test_report_config_block_reproduces_hash(self, quick_report, tmp_path):
        payload = json.loads(report_to_json(quick_report))
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(payload["config"]))
        cfg = _resolve("--config", str(cfg_file))
        assert cfg == quick_report.config
        assert config_hash(cfg) == payload["config_hash"]

    def test_readme_yaml_example_resolves(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (example,) = re.findall(r"```yaml\n(.*?)```", readme, re.S)
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text(example)
        cfg = _resolve("--config", str(cfg_file))
        assert cfg != ExperimentConfig()


class TestIdxIntegration:
    def test_idx_dataset_runs(self, tmp_path):
        import numpy as np
        from test_data import write_idx_pair

        rng = np.random.default_rng(0)
        n, side = 240, 8
        images = rng.integers(0, 256, size=(n, side, side)).astype(np.uint8)
        labels = rng.integers(0, 4, size=n).astype(np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        test_dir = tmp_path / "test"
        test_dir.mkdir()
        timg, tlbl = write_idx_pair(test_dir, images[:40], labels[:40])
        spec = DatasetSpec(
            per_class=60, test_per_class=10,
            images_path=img, labels_path=lbl,
            test_images_path=timg, test_labels_path=tlbl,
        )
        report = run_experiment(quick_config(rounds=1, dataset=spec, attack_kind="none"))
        assert len(report.records) == 1
