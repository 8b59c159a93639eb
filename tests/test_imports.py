"""Every module-level import in the package source is used by its module
(`__init__.py` is left out: its imports are the package's re-exports), every
dataclass field in the package source is read somewhere, and every public
function and method is reached from the package or the benchmark, and every
keyword default is overridden by some caller there, every exception the
package defines is a ValueError, and the package loads no numpy."""
import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sturmlab"

# (class, field) -> why the field stays although src/ and tests/ never read it
UNREAD_FIELDS = {
    ("MinimaSample", "gray"): "set from the P argument of minima_candidates, which "
                              "the benchmark under sturmbench/ passes",
}


# (class or None, function) -> why it stays although only tests/ reads its name
TEST_ONLY_FUNCTIONS = {
    ("DualityReport", "non_growing"): "acceptance criterion 8 reads it",
    ("ComparisonReport", "non_growing"): "acceptance criterion 7 reads it",
    ("SturmianProgram", "all_ones"): "the test fixtures build the Fibonacci program with it",
    (None, "compare"): "acceptance criterion 7 calls it",
}


# (class or None, function, parameter) -> why the default stays although no
# caller in the package or the benchmark sets the parameter
TEST_ONLY_DEFAULTS = {
    (None, "compare", "window_of"): "acceptance criterion 7 splits the samples at k = 8 with it",
    ("SystemBreakpoints", "in_gray", "margin"): "acceptance criterion 12 widens the gray "
                                                "intervals with it",
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


def _names_read(dirs=("src/sturmlab", "tests")) -> set:
    """Attribute names loaded anywhere in `dirs` and the constant names passed
    to getattr."""
    names = set()
    for path in sorted(p for d in dirs for p in (ROOT / d).glob("*.py")):
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


def _public_functions() -> list:
    """(module, class or None, name) of every public top-level function and
    public method in the package source."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                defs = [(None, node.name)]
            elif isinstance(node, ast.ClassDef):
                defs = [(node.name, f.name) for f in node.body if isinstance(f, ast.FunctionDef)]
            else:
                continue
            out += [(path.stem, *d) for d in defs if not d[1].startswith("_")]
    return out


def _functions_called(dirs=("src/sturmlab", "sturmbench")) -> set:
    """Bare names loaded anywhere in `dirs`, and `<module>.<name>` for every
    attribute loaded from a plain name."""
    names = set()
    for path in sorted(p for d in dirs for p in (ROOT / d).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name)):
                names.add(f"{node.value.id}.{node.attr}")
    return names


def test_every_public_function_is_reached():
    # a method is reached through any attribute of its name; a top-level
    # function only by its bare name or as <module>.<name>, so that a method
    # of the same name does not count for it
    attrs = _names_read(("src/sturmlab", "sturmbench"))
    called = _functions_called()
    test_only = {(cls, name) for module, cls, name in _public_functions()
                 if (name not in attrs if cls else
                     not {name, f"{module}.{name}"} & called)}
    assert test_only - set(TEST_ONLY_FUNCTIONS) == set()
    # an exception whose function has gained a reader is stale
    assert set(TEST_ONLY_FUNCTIONS) - test_only == set()


def _keyword_defaults() -> list:
    """(class or None, function, parameter, position or None) of every
    parameter with a default in the package source; the position counts the
    arguments a caller passes, so it leaves out a method's self."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                defs = [(None, node, 0)]
            elif isinstance(node, ast.ClassDef):
                defs = [(node.name, f, 0 if any(getattr(d, "id", None) == "staticmethod"
                                                for d in f.decorator_list) else 1)
                        for f in node.body if isinstance(f, ast.FunctionDef)]
            else:
                continue
            for cls, f, skip in defs:
                params = f.args.posonlyargs + f.args.args
                for pos in range(len(params) - len(f.args.defaults), len(params)):
                    out.append((cls, f.name, params[pos].arg, pos - skip))
                out += [(cls, f.name, a.arg, None)
                        for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults) if d is not None]
    return out


def _arguments_set(dirs=("src/sturmlab", "sturmbench")) -> dict:
    """Called name -> the positions and keywords its calls in `dirs` pass
    ("*" for a call that unpacks *args or **kwargs)."""
    out = {}
    for path in sorted(p for d in dirs for p in (ROOT / d).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            got = out.setdefault(name, set())
            got.update(range(len(node.args)))
            got.update(k.arg if k.arg is not None else "*" for k in node.keywords)
            if any(isinstance(a, ast.Starred) for a in node.args):
                got.add("*")
    return out


def test_every_keyword_default_is_set_by_a_caller():
    # functions are matched by name; a call to a class is a call to its __init__
    passed = _arguments_set()
    never_set = set()
    for cls, fn, param, pos in _keyword_defaults():
        got = passed.get(cls if fn == "__init__" else fn, set())
        if not ({"*", param, pos} & got):
            never_set.add((cls, fn, param))
    assert never_set - set(TEST_ONLY_DEFAULTS) == set()
    # an exception whose default has gained a caller is stale
    assert set(TEST_ONLY_DEFAULTS) - never_set == set()


def test_every_exception_is_a_value_error():
    # cli.main maps ValueError to an exit code; any other exception escapes it
    # as a traceback
    for path in sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"):
        module = importlib.import_module("sturmlab." + path.stem)
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, BaseException) and cls.__module__ == module.__name__:
                assert issubclass(cls, ValueError), f"{module.__name__}.{name}"


def test_numpy_is_not_loaded():
    code = "import sys, sturmlab.cli, sturmlab.paramgeo; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "False"
