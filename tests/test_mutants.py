"""The mutant corpus in ``mutants.py`` stays applicable: each mutant's old text
occurs exactly once under ``src/omcert``, in the file it names, and its
killing test is defined where its node id says."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]
SOURCES = {path.name: path.read_text() for path in (ROOT / "src" / "omcert").glob("*.py")}


@pytest.mark.parametrize("name", MUTANTS)
def test_old_text_occurs_once(name):
    file, old, new, _ = MUTANTS[name]
    assert old != new
    assert {f: text.count(old) for f, text in SOURCES.items() if old in text} == {file: 1}


@pytest.mark.parametrize("name", MUTANTS)
def test_killing_test_exists(name):
    path, *scopes = MUTANTS[name][3].split("::")
    text = (ROOT / path).read_text()
    *classes, function = scopes
    for cls in classes:
        assert re.search(rf"^class {cls}\b", text, re.M), cls
    assert re.search(rf"^\s*def {function.partition('[')[0]}\(", text, re.M), function
