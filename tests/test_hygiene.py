"""Static checks over the package source, by AST and without a linter: every
imported name is used, the intra-package import graph has no cycle
(function-level imports included), cli opens no file for writing, only
errors.py calls math.isfinite, every public function is called, every
dataclass field is read and every optional parameter is passed from the
package or the benchmark."""
import ast
from collections import Counter
from pathlib import Path

import pytest

import uamnoise

PACKAGE = "uamnoise"
MODULES = {p.stem: ast.parse(p.read_text(), filename=str(p))
           for p in sorted(Path(uamnoise.__file__).parent.glob("*.py"))}
# The benchmark's scripts, read only: a name they use is in use.
BENCH = [ast.parse(p.read_text(), filename=str(p))
         for p in sorted((Path(__file__).resolve().parent.parent / "bench").glob("*.py"))]


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


# Library entry points that nothing in the package or the benchmark calls.
UNCALLED_ENTRY_POINTS = {
    "load_network": "reads a network file without flights, for scripts that generate traffic",
    "save_scenario": "writes a scenario file that load_scenario reads back",
    "histogram_entropy": "the altitude-spread measure of criterion 9; no report prints it",
}


def _public_functions():
    """(qualified name, def node) of each public, undecorated module-level
    function and World method."""
    for mod, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "World":
                yield from ((f"World.{fn.name}", fn) for fn in node.body
                            if isinstance(fn, ast.FunctionDef))
            elif isinstance(node, ast.FunctionDef):
                yield f"{mod}.{node.name}", node


def _used_names(tree):
    """Count of each name used as a variable or an attribute; names in
    strings do not count."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_public_function_is_called():
    # a function only the tests call is a second way into a calculation
    used = sum((_used_names(tree) for tree in [*MODULES.values(), *BENCH]), Counter())
    assert BENCH and used["run_episode"]  # the benchmark's scripts were read
    uncalled = {name: fn.name for name, fn in _public_functions()
                if not fn.name.startswith("_") and not fn.decorator_list
                and used[fn.name] - _used_names(fn)[fn.name] <= 0}
    # the allowlist names only functions that exist and are still uncalled
    assert sorted(UNCALLED_ENTRY_POINTS) == sorted(
        n for n in uncalled.values() if n in UNCALLED_ENTRY_POINTS)
    extra = [name for name, n in uncalled.items() if n not in UNCALLED_ENTRY_POINTS]
    assert not extra, f"public functions called from neither src/ nor bench/: {extra}"


# Dataclasses whose fields the package need not read, and why.
UNREAD_FIELDS_OK = {
    "LosEvent": "src reads only the event count; tests compare whole events",
}


def _dataclass_fields(tree):
    """(class, field) for each annotated field of each @dataclass class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(d, ast.Name) and d.id == "dataclass" for d in node.decorator_list):
            yield from ((node.name, st.target.id) for st in node.body
                        if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name))


def _attribute_reads(tree):
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read():
    # a field nothing reads restates a value the caller already holds
    sample = ast.parse("@dataclass\nclass A:\n    x: int\n    y: int = 0\nprint(a.x)\na.y = 1")
    assert [f for f in _dataclass_fields(sample) if f[1] not in _attribute_reads(sample)] \
        == [("A", "y")]
    reads = set().union(*map(_attribute_reads, [*MODULES.values(), *BENCH]))
    unread = [f"{cls}.{name}" for tree in MODULES.values()
              for cls, name in _dataclass_fields(tree)
              if name not in reads and cls not in UNREAD_FIELDS_OK]
    assert not unread, f"dataclass fields read in neither src/ nor bench/: {unread}"


def _optional_parameters():
    """(qualified name, called name, parameter, its position in a call or
    None if keyword-only) for each defaulted parameter of each public
    function, public method and class __init__; a class is called by its
    name, and a method's first parameter (self or cls) is not in the call."""
    def defaulted(fn, skip):
        pos = fn.args.posonlyargs + fn.args.args
        first = len(pos) - len(fn.args.defaults)
        yield from ((arg.arg, i - skip) for i, arg in enumerate(pos) if i >= first)
        yield from ((arg.arg, None) for arg, default in
                    zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None)

    for mod, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                for param, pos in defaulted(node, 0):
                    yield f"{mod}.{node.name}", node.name, param, pos
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and (
                            fn.name == "__init__" or not fn.name.startswith("_")):
                        called = node.name if fn.name == "__init__" else fn.name
                        for param, pos in defaulted(fn, 1):
                            yield f"{node.name}.{fn.name}", called, param, pos


def _passes(call, param, pos):
    """Whether call may pass param: by keyword, at position pos, or through a
    * or ** splat."""
    return (any(k.arg in (param, None) for k in call.keywords)
            or (pos is not None and len(call.args) > pos)
            or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_optional_parameter_is_passed():
    # a default no caller overrides is a knob only tests set
    calls: dict[str, list[ast.Call]] = {}
    for tree in [*MODULES.values(), *BENCH]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    sample = ast.parse("f(1, b=2)")
    call = sample.body[0].value
    assert [_passes(call, p, i) for p, i in (("a", 0), ("b", 1), ("c", 2), ("d", None))] \
        == [True, True, False, False]
    unpassed = [f"{qual}({param})" for qual, called, param, pos in _optional_parameters()
                if not any(_passes(c, param, pos) for c in calls.get(called, []))]
    assert not unpassed, f"optional parameters passed from neither src/ nor bench/: {unpassed}"
