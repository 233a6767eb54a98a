"""The package's source parses as the oldest Python that pyproject.toml admits."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _oldest_python() -> tuple[int, int]:
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()
    return int(major), int(minor)


def test_every_module_parses_as_the_oldest_python_admitted():
    # Grammar only: feature_version refuses newer syntax such as `except*` or a `type` alias,
    # but not library behaviour that needs a newer Python, such as the possessive quantifiers
    # and atomic groups that `re` only reads from 3.11 on.
    version = _oldest_python()
    modules = sorted((ROOT / "src" / "smoothcam").glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)


@pytest.mark.parametrize("source", ["try:\n    pass\nexcept* ValueError:\n    pass\n",
                                    "type Pair = tuple[int, int]\n"])
def test_the_grammar_check_refuses_newer_syntax(source):
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=_oldest_python())
