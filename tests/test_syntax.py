"""Every Python file of the project parses as Python 3.10, the oldest version
``pyproject.toml`` supports.  ``ast.parse`` with ``feature_version`` rejects
newer syntax such as ``except*`` on any newer interpreter too."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


def test_every_directory_has_sources():
    assert {p.relative_to(ROOT).parts[0] for p in SOURCES} == {"src", "tests", "bench"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_newer_syntax_is_rejected():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
