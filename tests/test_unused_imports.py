"""Every name a module of the package imports is used in that module, and
every name a module defines is read somewhere in the package or exported.

No linter is a test dependency, so this walks each module's syntax tree with
the standard library's ``ast``. ``__init__.py`` is left out of the import
check: its imports are the package's exports. The import check also reads the
tests and ``data/generate.py``.
"""

import ast
import pathlib

import oslr

PACKAGE = pathlib.Path(oslr.__file__).resolve().parent
TESTS = pathlib.Path(__file__).resolve().parent


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
    """The package's modules, the tests and the bundled data's generator."""
    package = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    tests = sorted(TESTS.glob("*.py"))
    modules = [*package, *tests, TESTS.parent / "data" / "generate.py"]
    assert package and tests
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def defined_names(tree: ast.Module) -> dict[str, int]:
    """Functions, classes and constants that a module's top level binds,
    dunder names (``__all__``, ``__getattr__``, ...) left out."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    return {
        name: line
        for name, line in defined.items()
        if not (name.startswith("__") and name.endswith("__"))
    }


def unused_names(sources: dict[str, str], exported) -> list[str]:
    """Top-level names of ``sources`` (module name -> source) that no module
    reads, as a bare name or as an attribute of a module name
    (``_kernels.FIT_OK``), and that ``exported`` does not list."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                read.add(node.attr)
    return sorted(
        f"{module}.{name} (line {line})"
        for module, tree in trees.items()
        for name, line in defined_names(tree).items()
        if name not in read and name not in exported
    )


def test_the_check_finds_an_unused_name():
    sources = {
        "a": "LIMIT = 3\n_SPARE, USED = 1, 2\ndef helper():\n    return USED\n"
        "class Kept:\n    pass\ndef orphan():\n    return helper()\n",
        "b": "from . import a\nprint(a.LIMIT)\n",
    }
    assert unused_names(sources, exported={"Kept"}) == [
        "a._SPARE (line 2)",
        "a.orphan (line 7)",
    ]


def test_every_module_level_name_is_read_or_exported():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unused_names(sources, exported=set(oslr.__all__)) == []
