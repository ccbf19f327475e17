"""Tests of ``scripts/report_digest.py`` on two tiny configs, and of the
listing it keeps in ``scripts/report_digests.txt``."""
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


def _tiny_configs():
    tiny = dataclasses.replace(ExperimentConfig(), n_clients=6, rounds=2, warmup_epochs=1,
                               dataset=DatasetSpec(per_class=40, test_per_class=10))
    return [("a", tiny), ("b", dataclasses.replace(tiny, seed=8, attack_kind="dba"))]


def test_digests_two_tiny_configs(capsys):
    digest = _load()
    configs = _tiny_configs()
    overall = digest.print_digests(configs)
    lines = capsys.readouterr().out.splitlines()
    assert [line[66:] for line in lines] == ["a", "b", "overall"]
    assert all(len(line[:64]) == 64 and line[64:66] == "  " for line in lines)
    assert lines[0][:64] != lines[1][:64]
    assert lines[2][:64] == overall == hashlib.sha256(
        "".join(line + "\n" for line in lines[:2]).encode()).hexdigest()
    assert digest.print_digests(configs) == overall   # the same bytes on a rerun


def test_expect_exits_1_naming_the_configs_that_differ(tmp_path, monkeypatch, capsys):
    digest = _load()
    configs = _tiny_configs()
    monkeypatch.setattr(digest, "config_set", lambda: configs)
    monkeypatch.setattr(digest, "RECORDED", tmp_path / "report_digests.txt")
    assert digest.main([]) == 0
    listing = capsys.readouterr().out
    overall = listing.splitlines()[-1][:64]
    assert digest.main(["--expect", overall]) == 0
    assert digest.main(["--expect", overall.upper()]) == 0
    assert capsys.readouterr().err == ""

    digest.RECORDED.write_text(listing)
    a, b = configs
    changed = [a, ("b", dataclasses.replace(b[1], seed=9))]
    monkeypatch.setattr(digest, "config_set", lambda: changed)
    assert digest.main(["--expect", overall]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: the overall digest is not {overall}", "differs: b"]

    # a digest with no recorded listing still fails, naming no config
    assert digest.main(["--expect", "0" * 64]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and "holds no listing" in err[1]


def test_the_recorded_listing_is_of_the_fixed_set():
    digest = _load()
    lines = digest.RECORDED.read_text().splitlines()
    assert [line[66:] for line in lines] == [name for name, _ in digest.config_set()] + ["overall"]
    assert lines[-1][:64] == hashlib.sha256(
        "".join(line + "\n" for line in lines[:-1]).encode()).hexdigest()


def test_config_set_builds_34_named_configs():
    names = [name for name, _ in _load().config_set()]
    assert len(names) == 34 and len(set(names)) == 34
