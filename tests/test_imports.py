"""The package's modules import one another without a cycle, every name
the package defines, class methods included, is used by the program, and
every field of its classes is read by the program.

Function-level imports count, since they run whenever the function does;
imports under `if TYPE_CHECKING:` never run and do not count.
"""

import ast
import importlib
from pathlib import Path

import mdistinct

PACKAGE = Path(mdistinct.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
# where the program's callers live; tests are not among them
PROGRAM = ("src", "perfbench", "scripts")


def _is_type_checking(test: ast.expr) -> bool:
    """`TYPE_CHECKING` or `typing.TYPE_CHECKING`."""
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"


def runtime_imports(source: str, modules: set[str]) -> set[str]:
    """The sibling modules a module's source imports at run time."""
    found: set[str] = set()
    stack: list[ast.AST] = [ast.parse(source)]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return found & modules


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as a path that ends where it starts, or None."""
    done: set[str] = set()
    path: list[str] = []

    def visit(name: str) -> list[str] | None:
        if name in path:
            return path[path.index(name):] + [name]
        if name in done:
            return None
        path.append(name)
        for dep in sorted(graph[name]):
            cycle = visit(dep)
            if cycle:
                return cycle
        path.pop()
        done.add(name)
        return None

    for name in sorted(graph):
        cycle = visit(name)
        if cycle:
            return cycle
    return None


def test_collector_counts_function_level_and_skips_type_checking():
    source = (
        "from typing import TYPE_CHECKING\n"
        "from .model import Record\n"
        "from . import errors\n"
        "if TYPE_CHECKING:\n"
        "    from .engine import EngineState\n"
        "else:\n"
        "    from .sug import RiskReport\n"
        "if not TYPE_CHECKING:\n"
        "    from .updates import uss_of\n"
        "def run():\n"
        "    from .fileio import load_microdata\n")
    modules = {"model", "errors", "engine", "sug", "updates", "fileio"}
    assert runtime_imports(source, modules) == {"model", "errors", "sug",
                                                "updates", "fileio"}


def test_find_cycle_reports_a_closed_path():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None
    assert find_cycle({"a": {"b"}, "b": {"a"}}) == ["a", "b", "a"]


def test_package_has_no_import_cycle():
    files = {p.stem: p for p in PACKAGE.glob("*.py")}
    modules = set(files)
    graph = {name: runtime_imports(path.read_text(), modules)
             for name, path in files.items()}
    assert find_cycle(graph) is None


# ---------------------------------------------------------------------------
# dead code: library names that only tests reach


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def module_names(tree: ast.Module) -> dict[str, ast.stmt]:
    """The functions, classes and constants a module defines at its top
    level, and the methods of its classes as `Class.method`; dunder names
    such as `__all__` or `__init__` aside."""
    found: dict[str, ast.stmt] = {}
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Name) and not _dunder(target.id):
                    found[target.id] = node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if (isinstance(method, FUNCTIONS)
                        and not _dunder(method.name)):
                    found[f"{node.name}.{method.name}"] = method
    return found


def references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name a tree reads and every attribute it names, outside the
    `skip` subtree.  Import statements and strings (`__all__` entries
    among them) are no references."""
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def unused_names(package: dict[str, ast.Module],
                 callers: list[ast.Module]) -> list[str]:
    """`module.name` for every name a package module defines that no
    caller module references outside the name's own definition.  A method
    counts as referenced wherever an attribute of its name is read, on
    whatever object: names are matched, not types, so a method named like
    one the program calls on another type (`set.add`) is never reported."""
    everywhere = [references(tree) for tree in callers]
    unused = []
    for module, tree in sorted(package.items()):
        for name, node in module_names(tree).items():
            attr = name.rpartition(".")[2]
            if not any(attr in (references(tree, skip=node)
                                if other is tree else refs)
                       for other, refs in zip(callers, everywhere)):
                unused.append(f"{module}.{name}")
    return unused


def test_collector_skips_definitions_strings_and_imports():
    lib = ast.parse(
        "LIMIT = 3\n"
        "USED = 4\n"
        "__all__ = ['helper', 'Kept']\n"
        "def helper(n):\n"
        "    return helper(n - 1) if n else USED\n"
        "class Kept:\n"
        "    def __init__(self):\n"
        "        self.ready = self._check()\n"
        "    def _check(self):\n"
        "        return True\n"
        "    def spare(self):\n"
        "        return self.spare()\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 0\n")
    caller = ast.parse("from .lib import LIMIT, helper\n"
                       "print(lib.Kept().size)\n")
    # helper only calls itself, LIMIT is only imported, and USED is read
    # inside helper's own definition, which still counts for USED; the
    # same holds for methods, and __init__ needs no caller
    assert unused_names({"lib": lib}, [lib, caller]) == [
        "lib.LIMIT", "lib.helper", "lib.Kept.spare"]


def overrides_a_base(name: str) -> bool:
    """Whether `module.Class.method` redefines a method of a base class,
    whose own code calls it (argparse calls `ArgumentParser.error`)."""
    module, _, qualname = name.partition(".")
    if "." not in qualname:
        return False
    cls_name, method = qualname.split(".")
    cls = getattr(importlib.import_module(f"mdistinct.{module}"), cls_name)
    return any(method in vars(base) for base in cls.__mro__[1:])


def test_override_check_sees_base_classes():
    assert overrides_a_base("cli._Parser.error")
    assert not overrides_a_base("cli._Parser")
    assert not overrides_a_base("sug.Sug.node_count")


# The attack no longer calls these; the tests' reference attack does, and
# perfbench/tracer.py wraps them by name, a string the scan does not read.
NAMED_BY_STRING = ("sug.prune", "sug.disclosure_risks")


def test_every_library_name_has_a_caller_in_the_program():
    trees = {p: ast.parse(p.read_text()) for d in PROGRAM
             for p in sorted((ROOT / d).rglob("*.py"))}
    package = {p.stem: tree for p, tree in trees.items()
               if p.parent == ROOT / "src" / "mdistinct"}
    callers = list(trees.values())
    assert len(callers) > len(package)   # perfbench and scripts were found
    strings = {node.value for tree in callers for node in ast.walk(tree)
               if isinstance(node, ast.Constant)
               and isinstance(node.value, str)}
    assert all(name.rpartition(".")[2] in strings
               for name in NAMED_BY_STRING)
    assert [name for name in unused_names(package, callers)
            if not overrides_a_base(name)
            and name not in NAMED_BY_STRING] == []


# ---------------------------------------------------------------------------
# dead fields: data a class carries that no program code reads


def class_fields(tree: ast.Module) -> list[str]:
    """`Class.field` for every field a module's classes declare: the
    annotated names of a class body (dataclass and named-tuple fields) and
    the attributes its methods assign on `self`."""
    found: dict[str, None] = {}
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if (isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)):
                found[f"{node.name}.{item.target.id}"] = None
            elif isinstance(item, FUNCTIONS):
                for sub in ast.walk(item):
                    if (isinstance(sub, ast.Attribute)
                            and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name)
                            and sub.value.id == "self"):
                        found[f"{node.name}.{sub.attr}"] = None
    return list(found)


def reads(tree: ast.AST) -> set[str]:
    """Every attribute name a tree reads; stores and deletes are no
    reads."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def unread_fields(package: dict[str, ast.Module],
                  callers: list[ast.Module]) -> list[str]:
    """`module.Class.field` for every field no caller reads, matched by
    name as methods are."""
    read = set().union(*map(reads, callers))
    return [f"{module}.{name}" for module, tree in sorted(package.items())
            for name in class_fields(tree)
            if name.rpartition(".")[2] not in read]


def test_field_collector_sees_fields_and_reads():
    lib = ast.parse(
        "from typing import NamedTuple\n"
        "class Point(NamedTuple):\n"
        "    x: int\n"
        "    y: int\n"
        "    label = 'p'\n"
        "class Counter:\n"
        "    def __init__(self):\n"
        "        self.count = 0\n"
        "        self.spare = 0\n"
        "        self.seen = []\n"
        "    def bump(self):\n"
        "        self.count += 1\n"
        "        self.seen.append(self.count)\n")
    caller = ast.parse("p = Point(1, 2)\n"
                       "p.y = 3\n"
                       "print(p.x)\n")
    # y and spare are only written; seen is read for its append
    assert class_fields(lib) == ["Point.x", "Point.y", "Counter.count",
                                 "Counter.spare", "Counter.seen"]
    assert unread_fields({"lib": lib}, [lib, caller]) == [
        "lib.Point.y", "lib.Counter.spare"]


def test_every_field_is_read_by_the_program():
    trees = {p: ast.parse(p.read_text()) for d in PROGRAM
             for p in sorted((ROOT / d).rglob("*.py"))}
    package = {p.stem: tree for p, tree in trees.items()
               if p.parent == ROOT / "src" / "mdistinct"}
    assert sum(len(class_fields(tree)) for tree in package.values()) > 50
    assert unread_fields(package, list(trees.values())) == []
