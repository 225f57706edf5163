"""Shared fixtures, the Hypothesis profile and the acceptance-result banner.

Preset binaries and their ground-truth documents are built once per
session; criterion outcomes from test_acceptance.py are collected and
printed as one line each at the end of the run.
"""
from __future__ import annotations

import pytest
from hypothesis import settings

from bintruth import elf, forge, normalize

# Every run draws the same examples, and none of them has a deadline.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

_CRITERIA: dict[int, tuple[str, str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, title): acceptance criterion metadata"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None or report.when != "call":
        return
    num, title = marker.args
    _CRITERIA[num] = (title, "PASS" if report.passed else "FAIL")


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(_CRITERIA):
        title, verdict = _CRITERIA[num]
        terminalreporter.write_line(f"criterion {num:2d} [{verdict}] {title}")


def _build_doc(data: bytes, config=None):
    image = elf.parse_image(data)
    return normalize.build_ground_truth(image, config)


@pytest.fixture(scope="session")
def preset_bytes():
    return {name: forge.emit(forge.preset(name)) for name in forge.PRESETS}


@pytest.fixture(scope="session")
def preset_images(preset_bytes):
    return {name: elf.parse_image(data) for name, data in preset_bytes.items()}


@pytest.fixture(scope="session")
def preset_docs(preset_bytes):
    return {name: _build_doc(data) for name, data in preset_bytes.items()}


@pytest.fixture(scope="session")
def build_doc():
    return _build_doc


@pytest.fixture(scope="session")
def small_corpus():
    """25 randomized fixtures shared by the unit tests."""
    return forge.generate_corpus(seed=1, count=25)
