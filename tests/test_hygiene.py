"""Static checks over the package source, by AST and without a linter: every
imported name is used, the intra-package import graph has no cycle
(function-level imports included), cli opens no file for writing, and only
errors.py calls math.isfinite."""
import ast
from pathlib import Path

import pytest

import uamnoise

PACKAGE = "uamnoise"
MODULES = {p.stem: ast.parse(p.read_text(), filename=str(p))
           for p in sorted(Path(uamnoise.__file__).parent.glob("*.py"))}


def _imported_names(tree):
    """(bound name, line) for every import statement, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _package_deps(tree):
    """Package modules imported anywhere in the module."""
    deps = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"{PACKAGE}.{base}" if base else PACKAGE
            targets = ([f"{base}.{alias.name}" for alias in node.names]
                       if base == PACKAGE else [base])
        else:
            continue
        for target in targets:
            parts = target.split(".")
            if parts[0] == PACKAGE and len(parts) > 1 and parts[1] in MODULES:
                deps.add(parts[1])
    return deps


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_unused_imports(module):
    tree = MODULES[module]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree)
              if name not in used]
    assert not unused, f"{module} imports names it never uses: {unused}"


def test_import_graph_acyclic():
    graph = {mod: _package_deps(tree) - {mod} for mod, tree in MODULES.items()}
    done: set[str] = set()

    def visit(path):
        for dep in sorted(graph[path[-1]]):
            if dep in path:
                pytest.fail("import cycle: " + " -> ".join(path[path.index(dep):] + [dep]))
            if dep not in done:
                visit(path + [dep])
        done.add(path[-1])

    for mod in sorted(graph):
        if mod not in done:
            visit([mod])


def _write_opens(tree):
    """Lines of open(...) calls whose mode is not a constant read-only mode."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if any(not (isinstance(m, ast.Constant) and set(m.value) <= set("rbt"))
                   for m in modes):
                yield node.lineno


def test_cli_opens_no_file_for_writing():
    # reports go through the metrics writers, checkpoints through rl
    assert list(_write_opens(ast.parse("open(p)\nopen(p, 'rb')"))) == []
    assert list(_write_opens(ast.parse("open(p, 'w')\nopen(p, mode=m)"))) == [1, 2]
    lines = list(_write_opens(MODULES["cli"]))
    assert not lines, f"cli opens files for writing at lines {lines}"


def _isfinite_calls(tree):
    """Lines that call math.isfinite, as an attribute of math or by a name
    imported from it."""
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "math"
               for alias in node.names if alias.name == "isfinite"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "isfinite"
                    and isinstance(func.value, ast.Name) and func.value.id == "math") \
                    or (isinstance(func, ast.Name) and func.id in aliases):
                yield node.lineno


def test_only_errors_calls_math_isfinite():
    # check_number states the finite rule for every number from outside;
    # np.isfinite over arrays is another matter and is not counted.
    sample = "math.isfinite(x)\nnp.isfinite(a)\nfrom math import isfinite as f\nf(y)"
    assert list(_isfinite_calls(ast.parse(sample))) == [1, 4]
    found = {mod: lines for mod, tree in MODULES.items()
             if mod != "errors" and (lines := list(_isfinite_calls(tree)))}
    assert not found, f"math.isfinite is called outside errors.py: {found}"
