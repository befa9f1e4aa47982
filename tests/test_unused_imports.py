"""Every name a module of the package imports is used in that module.

No linter is a test dependency, so this walks each module's syntax tree with
the standard library's ``ast``. ``__init__.py`` is left out: its imports are
the package's exports.
"""

import ast
import pathlib

import oslr

PACKAGE = pathlib.Path(oslr.__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that nothing else reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        f"{name} (line {line})" for name, line in imported.items() if name not in used
    )


def test_the_check_finds_an_unused_import():
    source = (
        "import os\nimport sys\nfrom json import dumps, loads as read\n"
        "print(sys.argv, read)\n"
    )
    assert unused_imports(source) == ["dumps (line 3)", "os (line 1)"]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}
