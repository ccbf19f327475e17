"""Tests of ``scripts/report_digest.py`` on two tiny configs, and of the
listing it keeps in ``scripts/report_digests.txt``."""
import dataclasses
import hashlib
import importlib.util
from pathlib import Path

import pytest

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
    assert digest.main(["--expect", overall[:8]]) == 0   # the prefix the docs cite
    assert capsys.readouterr().err == ""
    # a prefix shorter than 8 digits, or not hex, is a usage error
    for bad in (overall[:7], "g" + overall[1:8], overall + "0"):
        with pytest.raises(SystemExit) as exit_:
            digest.main(["--expect", bad])
        assert exit_.value.code == 2 and "--expect takes 8 to 64 hex digits" in capsys.readouterr().err

    digest.RECORDED.write_text(listing)
    a, b = configs
    changed = [a, ("b", dataclasses.replace(b[1], seed=9))]
    monkeypatch.setattr(digest, "config_set", lambda: changed)
    assert digest.main(["--expect", overall]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: the overall digest is not {overall}", "differs: b"]
    assert digest.main(["--expect", overall[:8]]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: the overall digest is not {overall[:8]}", "differs: b"]

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


def test_config_set_builds_40_named_configs():
    names = [name for name, _ in _load().config_set()]
    assert len(names) == 40 and len(set(names)) == 40


def test_the_fixed_set_gives_the_recorded_digest(capsys):
    """The byte check: every config of the set writes the recorded report
    bytes. A mismatch names on stderr the configs that differ."""
    digest = _load()
    recorded = digest.RECORDED.read_text().splitlines()[-1][:64]
    assert digest.print_digests(digest.config_set(), expect=recorded) == recorded
