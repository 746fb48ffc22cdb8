"""Structural rules of the package, read from its source with `ast`.

numpy is an optional extra that costs start-up time and memory, so one
private module holds every use of it.  Code outside the carriers asks
a carrier through its API (`denominator`, `ratio`, `fraction`, ...)
instead of testing which concrete carrier it is.  A kernel's dense
`rows` cost |X| |Y| entries, so the transforms and the builders of the
translate and triangular kernels work on its bands only.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qkit"
CONCRETE_CARRIERS = {"ChainQuantale", "FloatUnitQuantale"}
BAND_ONLY = {
    "transform.py": ("_direct", "_inverse"),
    "_int64.py": ("_array_direct", "_array_inverse"),
    "morphology.py": ("kernel_of_structuring",),
    "fuzzy.py": ("luk_kernel",),
}


def _trees():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules under {SRC}"
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def _imports_numpy(tree) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            return True
    return False


def _names(node) -> set:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_one_module_imports_numpy():
    importers = [name for name, tree in _trees().items() if _imports_numpy(tree)]
    assert importers == ["_int64.py"]


def test_no_isinstance_names_a_concrete_carrier():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and _names(node.args[1]) & CONCRETE_CARRIERS
    ]
    assert found == []


def test_hot_paths_never_read_dense_rows():
    trees = _trees()
    found = []
    for module, names in BAND_ONLY.items():
        functions = {
            node.name: node
            for node in trees[module].body
            if isinstance(node, ast.FunctionDef)
        }
        found += [
            f"{module}:{name}:{node.lineno}"
            for name in names
            for node in ast.walk(functions[name])
            if isinstance(node, ast.Attribute) and node.attr == "rows"
        ]
    assert found == []
