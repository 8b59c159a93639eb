"""Every module-level import in the package source is used by its module
(`__init__.py` is left out: its imports are the package's re-exports), and
every dataclass field in the package source is read somewhere."""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sturmlab"

# (class, field) -> why the field stays although src/ and tests/ never read it
UNREAD_FIELDS = {
    ("MinimaSample", "gray"): "set from the P argument of minima_candidates, which "
                              "the benchmark under sturmbench/ passes",
}


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


def _is_dataclass(cls) -> bool:
    for dec in cls.decorator_list:
        f = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(f, "id", None) == "dataclass" or getattr(f, "attr", None) == "dataclass":
            return True
    return False


def _dataclass_fields() -> list:
    out = []
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
                out += [(cls.name, st.target.id) for st in cls.body
                        if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)]
    return out


def _names_read() -> set:
    """Attribute names loaded anywhere in src/ or tests/, and the constant
    names passed to getattr."""
    names = set()
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
                  and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)):
                names.add(node.args[1].value)
    return names


def test_every_dataclass_field_is_read():
    read = _names_read()
    unread = {f for f in _dataclass_fields() if f[1] not in read}
    assert unread - set(UNREAD_FIELDS) == set()
    # an exception whose field has gained a reader is stale
    assert set(UNREAD_FIELDS) - unread == set()
