"""Every name the package exports, and every public function, class and
method it defines, is used: by the package itself, beyond its own
definition, or by the benchmark under perfbench/. A law that only the tests
use belongs in tests/laws.py."""

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


def _public_definitions():
    """(dotted name, bare name) of every public module-level function and
    class of the package, and of every public method of a public class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) \
                            and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def _package_and_benchmark_uses():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    return _used(sources)


def test_every_exported_name_is_used_by_the_package_or_the_benchmark():
    unused = _exported() - _package_and_benchmark_uses()
    assert not unused, f"exported but never used: {sorted(unused)}"


def test_every_public_definition_is_used_by_the_package_or_the_benchmark():
    used = _package_and_benchmark_uses()
    unused = [dotted for dotted, name in _public_definitions() if name not in used]
    assert not unused, f"defined but never used: {unused}"
