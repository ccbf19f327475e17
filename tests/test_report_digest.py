"""Smoke test of ``scripts/report_digest.py`` on two tiny configs."""
import dataclasses
import hashlib
import importlib.util
from pathlib import Path

from fedsurrogate.harness import DatasetSpec, ExperimentConfig

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "report_digest.py"


def _load():
    spec = importlib.util.spec_from_file_location("report_digest", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_two_tiny_configs(capsys):
    digest = _load()
    tiny = dataclasses.replace(ExperimentConfig(), n_clients=6, rounds=2, warmup_epochs=1,
                               dataset=DatasetSpec(per_class=40, test_per_class=10))
    configs = [("a", tiny), ("b", dataclasses.replace(tiny, seed=8, attack_kind="dba"))]
    overall = digest.print_digests(configs)
    lines = capsys.readouterr().out.splitlines()
    assert [line[66:] for line in lines] == ["a", "b", "overall"]
    assert all(len(line[:64]) == 64 and line[64:66] == "  " for line in lines)
    assert lines[0][:64] != lines[1][:64]
    assert lines[2][:64] == overall == hashlib.sha256(
        "".join(line + "\n" for line in lines[:2]).encode()).hexdigest()
    assert digest.print_digests(configs) == overall   # the same bytes on a rerun


def test_config_set_builds_34_named_configs():
    names = [name for name, _ in _load().config_set()]
    assert len(names) == 34 and len(set(names)) == 34
