"""The package's modules import one another without a cycle.

Function-level imports count, since they run whenever the function does;
imports under `if TYPE_CHECKING:` never run and do not count.
"""

import ast
from pathlib import Path

import mdistinct

PACKAGE = Path(mdistinct.__file__).parent


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
