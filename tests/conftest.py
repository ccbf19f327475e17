"""Shared pytest plumbing: a recorder that prints one PASS/FAIL line per
acceptance criterion in the terminal summary, and the environment of a
child Python process."""
import os
from pathlib import Path

import fedsurrogate

_CRITERION_LINES: dict[int, str] = {}


def record_criterion(number: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    _CRITERION_LINES[number] = f"CRITERION {number}: {verdict} - {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERION_LINES):
        terminalreporter.write_line(_CRITERION_LINES[number])


def child_env(**overrides: str) -> dict[str, str]:
    """This process's environment plus ``overrides``, with the directory
    this run imports ``fedsurrogate`` from first on PYTHONPATH, so a child
    Python imports the same sources."""
    src = str(Path(fedsurrogate.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **overrides)
