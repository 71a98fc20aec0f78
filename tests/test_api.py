"""Every name the package exports is used: by the package itself, beyond its
own definition, or by the benchmark under perfbench/. A law that only the
tests use belongs in tests/laws.py."""

import ast
import pathlib

import wedgebm

ROOT = pathlib.Path(wedgebm.__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "wedgebm"


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _used(paths):
    """Names loaded or looked up as attributes in the code of `paths`; a
    definition, an import or a mention in a string or comment is no use."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_exported_name_is_used_by_the_package_or_the_benchmark():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    unused = _exported() - _used(sources)
    assert not unused, f"exported but never used: {sorted(unused)}"
