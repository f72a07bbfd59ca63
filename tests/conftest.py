"""Fixtures shared by the CLI test modules."""

import json

import pytest


def _refuse(constant):
    raise ValueError(f"report.json holds {constant}, which JSON (RFC 8259) does not allow")


@pytest.fixture
def strict_reports(tmp_path):
    """After the test, every ``report.json`` under its ``tmp_path`` parses
    as strict JSON: no ``NaN``, ``Infinity`` or ``-Infinity``."""
    yield
    for path in sorted(tmp_path.rglob("report.json")):
        if path.is_file():  # a test may make a directory of that name
            json.loads(path.read_text(encoding="utf-8"), parse_constant=_refuse)
