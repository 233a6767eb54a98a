"""The package's source parses as the oldest Python that pyproject.toml admits, and neither
it nor the tests import a name they never use."""

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


def _unused_imports(source: str) -> list[str]:
    """Each name an import binds and the module never reads, as "line: name". `__future__`
    imports and lines marked `# noqa: F401` (imported for a side effect) are left out."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
               and getattr(node, "module", None) != "__future__"
               and "# noqa: F401" not in lines[node.lineno - 1]]
    bound = [(node.lineno, alias.asname or alias.name.split(".")[0])
             for node in imports for alias in node.names]
    return [f"{line}: {name}" for line, name in bound if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    # The package's __init__ imports only to re-export, so it is left out.
    paths = [path for path in sorted((ROOT / "src" / "smoothcam").glob("*.py"))
             if path.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))
    assert len(paths) > 10
    unused = {path.name: _unused_imports(path.read_text(encoding="utf-8")) for path in paths}
    assert {name: found for name, found in unused.items() if found} == {}


def test_the_unused_import_check_finds_one():
    source = ("from __future__ import annotations\nimport os\nimport sys  # noqa: F401\n"
              "import numpy as np\nfrom re import (\n    compile,\n    escape,\n)\n"
              "np.zeros(1)\ncompile('a')\n")
    assert _unused_imports(source) == ["2: os", "5: escape"]
