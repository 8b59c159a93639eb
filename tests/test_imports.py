"""Every module-level import in the package source is used by its module
(`__init__.py` is left out: its imports are the package's re-exports)."""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sturmlab"


def _unused_imports(path) -> list:
    tree = ast.parse(path.read_text())
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_no_unused_module_imports():
    unused = {p.name: _unused_imports(p) for p in sorted(SRC.glob("*.py"))
              if p.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}
