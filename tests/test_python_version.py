"""The package's source parses as the oldest Python that pyproject.toml admits, neither it nor
the tests import a name they never use, and no function of it computes with a caller's number
that a rule has read instead of with what the rule returned."""

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


RULES = {"integer", "real", "ints"}  # tensor's number rules; each returns the value it read


def _rebinds(call: ast.Call, name: str, parents: dict) -> bool:
    """Whether the statement or walrus holding `call` binds `name` from it."""
    node = call
    while not isinstance(node, ast.stmt):
        node = parents[node]
        if isinstance(node, ast.NamedExpr) and node.target.id == name:
            return True
    targets = node.targets if isinstance(node, ast.Assign) else []
    return any(isinstance(t, ast.Name) and t.id == name
               for target in targets for t in ast.walk(target))


def _raw_uses(source: str) -> list[str]:
    """Each number read through a rule whose result is dropped, as "line: name": a parameter
    passed to a rule, not rebound from that call and read again outside a `raise`; or a field
    that a `__post_init__` reads through a rule without storing it back by
    `object.__setattr__`."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        params = {a.arg for a in func.args.posonlyargs + func.args.args + func.args.kwonlyargs}
        parents = {child: node for node in ast.walk(func) for child in ast.iter_child_nodes(node)}
        in_raise = {id(n) for r in ast.walk(func) if isinstance(r, ast.Raise) for n in ast.walk(r)}
        for call in ast.walk(func):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id in RULES and call.args):
                continue
            arg, end = call.args[0], (call.end_lineno, call.end_col_offset)
            if isinstance(arg, ast.Name) and arg.id in params:
                later = [n for n in ast.walk(func) if isinstance(n, ast.Name) and n.id == arg.id
                         and (n.lineno, n.col_offset) > end and id(n) not in in_raise]
                if later and not _rebinds(call, arg.id, parents):
                    found.add(f"{call.lineno}: {arg.id}")
            elif (func.name == "__post_init__" and isinstance(arg, ast.Attribute)
                  and ast.unparse(arg.value) == "self"):
                stored = f"object.__setattr__(self, {arg.attr!r}, {ast.unparse(call)})"
                if ast.unparse(parents[call]) != stored:
                    found.add(f"{call.lineno}: self.{arg.attr}")
    return sorted(found, key=lambda entry: int(entry.split(":")[0]))


def test_no_module_computes_with_a_number_its_rule_has_read():
    # A numpy scalar that passed `real` or `integer` and is then used raw picks the arithmetic:
    # a float32 blend changed overlay bytes, and a long double past a float's range, which
    # `float()` reads as inf, passed sigma's `< inf` check and drew infinite noise.
    paths = sorted((ROOT / "src" / "smoothcam").glob("*.py"))
    raw = {path.name: _raw_uses(path.read_text(encoding="utf-8")) for path in paths}
    assert {name: found for name, found in raw.items() if found} == {}


def test_the_raw_number_check_finds_one():
    source = ("def scale(x, sigma, blend, h, n):\n"
              "    if not 0 <= real(sigma, 'sigma'):\n"
              "        raise ParamError(f'bad {sigma}')\n"
              "    blend = real(blend, 'blend')\n"
              "    if not 0 < (h := real(h, 'h')):\n"
              "        raise ParamError(f'bad {h}')\n"
              "    integer(n, 'n')\n"
              "    return x * sigma * blend * h\n"
              "class Request:\n"
              "    def __post_init__(self):\n"
              "        object.__setattr__(self, 'n', integer(self.n, 'n'))\n"
              "        if not 0 <= real(self.sigma, 'sigma') < 1:\n"
              "            raise ParamError('sigma')\n")
    assert _raw_uses(source) == ["2: sigma", "12: self.sigma"]
