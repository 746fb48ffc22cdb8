"""Structural rules of the package, read from its source with `ast`.

numpy is an optional extra that costs start-up time and memory, so one
private module holds every use of it.  Code outside the carriers asks
a carrier through its API (`denominator`, `ratio`, `fraction`, ...)
instead of testing which concrete carrier it is.  A kernel's dense
`rows` cost |X| |Y| entries, so every kernel the package builds, and
every transform, works on its bands only: in the modules that build or
apply kernels, only the functions named in `ROWS_READERS` may read
`.rows`.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qkit"
CONCRETE_CARRIERS = {"ChainQuantale", "FloatUnitQuantale"}
# the public constructor keeps the rows it is given, `Kernel.rows`
# derives them, and the text form writes them out
ROWS_READERS = {
    "transform.py": {"Kernel.__init__", "Kernel.rows", "save_kernel"},
    "fuzzy.py": set(),
    "morphology.py": set(),
    "_int64.py": set(),
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


def _rows_reads(tree):
    """(qualified name of the enclosing function or class, line) of every
    `.rows` read in tree, "" outside any.  A `.rows()` call is an image's
    row view, not a kernel's rows, and is left out."""
    calls = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "rows" and id(child) not in calls:
                found.append((scope, child.lineno))
            visit(child, scope)

    visit(tree, "")
    return found


def test_only_the_named_functions_read_dense_rows():
    trees = _trees()
    found = [
        f"{module}:{scope or '<module>'}:{line}"
        for module, allowed in ROWS_READERS.items()
        for scope, line in _rows_reads(trees[module])
        if scope not in allowed
    ]
    assert found == []


def test_the_rows_rule_sees_methods_and_nested_functions():
    tree = ast.parse(
        "class K:\n"
        "    def f(self, p):\n"
        "        def g():\n"
        "            return p.rows\n"
        "        return image.rows(), g\n"
        "x = k.rows\n"
    )
    assert _rows_reads(tree) == [("K.f.g", 4), ("", 6)]
