"""The package's modules import one another without a cycle, every name
the package defines, class methods included, is used by the program, and
every field of its classes is read by the program.

Function-level imports count, since they run whenever the function does;
imports under `if TYPE_CHECKING:` never run and do not count.
"""

import ast
import importlib
from pathlib import Path
from typing import Sequence

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


# A read `obj.name` counts for the class of `obj` when the AST gives that
# class: `self`, an annotated parameter, a call of a class or of a function
# or method with a return annotation, a field or property annotated on a
# known class, an element of an annotated container, and names bound from
# any of these.  A read on a value whose type is foreign to the program (an
# `int`, an `ndarray`, a module, a list) reads no field.  Any other read is
# untyped and counts, by its bare name, for every field of that name.
#
# A type is None (unknown), a class or foreign type name, ("cls", name) for
# a class object, ("seq", item), ("map", key, value), ("tup", items), or
# ("union", members).

SEQUENCES = {"list", "List", "tuple", "set", "Set", "frozenset", "FrozenSet",
             "Sequence", "MutableSequence", "Iterable", "Iterator",
             "Collection", "AbstractSet", "Generator", "deque"}
MAPPINGS = {"dict", "Dict", "Mapping", "MutableMapping", "defaultdict",
            "Counter"}
TYPING = SEQUENCES | MAPPINGS | {"Union", "Optional", "Tuple"}
OPAQUE = {"Any", "object"}          # annotations that name no type
NONE = {"None", "NoneType"}         # a read on None would raise
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
TO_SEQUENCE = {"list", "tuple", "sorted", "reversed", "set", "frozenset",
               "iter"}


def _members(t) -> tuple:
    return tuple(t[1]) if isinstance(t, tuple) and t[0] == "union" else (t,)


def union(*types):
    """The union of types; unknown if any of them is."""
    out: set = set()
    for t in types:
        if t is None:
            return None
        out.update(_members(t))
    if not out:
        return None
    return next(iter(out)) if len(out) == 1 else ("union", frozenset(out))


def item_type(t):
    """The type of what iterating a value of type t yields."""
    if t is None:
        return None
    out = []
    for m in _members(t):
        if m in NONE:
            continue
        if isinstance(m, tuple) and m[0] in ("seq", "map"):
            out.append(m[1])
        elif isinstance(m, tuple) and m[0] == "tup":
            out.extend(m[1])
        elif m == "str":
            out.append("str")
        else:
            return None
    return union(*out)


def _name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class FieldReads:
    """The field reads of a program: `typed` holds (class, field) for the
    reads the AST types, `untyped` the bare names of all other reads."""

    def __init__(self, trees: Sequence[ast.Module]):
        self.classes: dict[str, list[ast.ClassDef]] = {}
        self.functions: dict[str, list[ast.expr | None]] = {}
        self.aliases: dict[str, ast.expr] = {}
        for tree in trees:
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    self.classes.setdefault(node.name, []).append(node)
                elif isinstance(node, FUNCTIONS):
                    self.functions.setdefault(node.name, []).append(
                        node.returns)
                elif (isinstance(node, ast.Assign) and len(node.targets) == 1
                      and isinstance(node.targets[0], ast.Name)
                      and self._is_alias(node.value)):
                    self.aliases[node.targets[0].id] = node.value
        self.fields = {name: set(class_fields(ast.Module(nodes, [])))
                       for name, nodes in self.classes.items()}
        self.typed: set[tuple[str, str]] = set()
        self.untyped: set[str] = set()
        for tree in trees:
            self._module(tree)

    @staticmethod
    def _is_alias(value: ast.expr) -> bool:
        if isinstance(value, ast.BinOp):
            return isinstance(value.op, ast.BitOr)
        return (isinstance(value, ast.Subscript)
                and _name(value.value) in TYPING)

    # -- types of annotations, fields and methods

    def ann(self, node: ast.expr | None, depth: int = 0):
        if node is None or depth > 20:
            return None
        if isinstance(node, ast.Constant):
            if node.value is None:
                return "None"
            if isinstance(node.value, str):
                return self.ann(ast.parse(node.value, mode="eval").body,
                                depth + 1)
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return union(self.ann(node.left, depth + 1),
                         self.ann(node.right, depth + 1))
        if isinstance(node, ast.Subscript):
            base = _name(node.value)
            args = (node.slice.elts if isinstance(node.slice, ast.Tuple)
                    else [node.slice])
            types = [self.ann(a, depth + 1) for a in args]
            if base == "Optional":
                return union(types[0], "None")
            if base == "Union":
                return union(*types)
            if base in ("tuple", "Tuple"):
                if (len(args) == 2 and isinstance(args[1], ast.Constant)
                        and args[1].value is Ellipsis):
                    return ("seq", types[0])
                return ("tup", tuple(types))
            if base in SEQUENCES:
                return ("seq", types[0])
            if base in MAPPINGS:
                return ("map", types[0], types[-1])
            return self.ann(node.value, depth + 1)
        name = _name(node)
        if name is None or name in OPAQUE:
            return None
        if name in self.aliases:
            return self.ann(self.aliases[name], depth + 1)
        if name in SEQUENCES:
            return ("seq", None)
        if name in MAPPINGS:
            return ("map", None, None)
        return name

    def _mro(self, cls: str) -> list[ast.ClassDef]:
        out, todo = [], [cls]
        while todo:
            for node in self.classes.get(todo.pop(0), ()):
                out.append(node)
                todo.extend(filter(None, map(_name, node.bases)))
        return out

    def owner(self, cls: str, attr: str) -> str | None:
        """The class in cls's ancestry that declares field `attr`."""
        for node in self._mro(cls):
            if f"{node.name}.{attr}" in self.fields[node.name]:
                return node.name
        return None

    def member_type(self, cls: str, attr: str, called: bool):
        """The type of `obj.attr` (of `obj.attr(...)` if `called`) on an
        instance of cls: a field's annotation, a property's or method's
        return annotation."""
        for node in self._mro(cls):
            for item in node.body:
                if (isinstance(item, ast.AnnAssign)
                        and _name(item.target) == attr and not called):
                    return self.ann(item.annotation)
                if isinstance(item, FUNCTIONS) and item.name == attr:
                    prop = any(_name(d) == "property"
                               for d in item.decorator_list)
                    return self.ann(item.returns) if prop != called else None
                if isinstance(item, FUNCTIONS):
                    for sub in ast.walk(item):
                        if (isinstance(sub, ast.AnnAssign)
                                and isinstance(sub.target, ast.Attribute)
                                and _name(sub.target.value) == "self"
                                and sub.target.attr == attr and not called):
                            return self.ann(sub.annotation)
        return None

    # -- types of expressions

    def typeof(self, node: ast.expr, env: dict):
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            return ("cls", node.id) if node.id in self.classes else None
        if isinstance(node, ast.Constant):
            return type(node.value).__name__
        if isinstance(node, ast.JoinedStr):
            return "str"
        if isinstance(node, ast.Attribute):
            return self._member(self.typeof(node.value, env), node.attr,
                                False)
        if isinstance(node, ast.Call):
            return self._call(node, env)
        if isinstance(node, ast.Subscript):
            return self._subscript(self.typeof(node.value, env), node.slice)
        if isinstance(node, ast.IfExp):
            return union(self.typeof(node.body, env),
                         self.typeof(node.orelse, env))
        if isinstance(node, ast.BoolOp):
            return union(*(self.typeof(v, env) for v in node.values))
        if isinstance(node, ast.Tuple):
            if any(isinstance(e, ast.Starred) for e in node.elts):
                return None
            return ("tup", tuple(self.typeof(e, env) for e in node.elts))
        if isinstance(node, (ast.List, ast.Set)):
            return ("seq", union(*(self.typeof(e, env) for e in node.elts)))
        if isinstance(node, COMPREHENSIONS):
            inner = dict(env)
            for gen in node.generators:
                self._bind(gen.target,
                           item_type(self.typeof(gen.iter, inner)), inner)
            if isinstance(node, ast.DictComp):
                return ("map", self.typeof(node.key, inner),
                        self.typeof(node.value, inner))
            return ("seq", self.typeof(node.elt, inner))
        if isinstance(node, ast.Dict):
            return ("map", None, None)
        if isinstance(node, ast.Compare):
            return "bool"
        return None

    def _member(self, t, attr: str, called: bool):
        if t is None:
            return None
        out = []
        for m in _members(t):
            if m in NONE:
                continue
            if isinstance(m, str) and m in self.classes:
                out.append(self.member_type(m, attr, called))
            elif isinstance(m, tuple) and m[0] == "cls" and called:
                out.append(self.member_type(m[1], attr, True))
            elif m == "module" and called:
                out.append(self._function(attr))
            elif m == "module":
                out.append(("cls", attr) if attr in self.classes else None)
            elif isinstance(m, tuple) and m[0] == "map" and called:
                out.append(self._map_method(m, attr))
            else:
                return None
        return union(*out)

    @staticmethod
    def _map_method(t, attr: str):
        _, key, value = t
        if attr in ("get", "pop", "setdefault"):
            return value
        if attr == "items":
            return ("seq", ("tup", (key, value)))
        if attr == "values":
            return ("seq", value)
        if attr == "keys":
            return ("seq", key)
        return None

    def _function(self, name: str):
        if name in self.classes:
            return name
        if name not in self.functions:
            return None
        return union(*(self.ann(r) for r in self.functions[name]))

    def _call(self, node: ast.Call, env: dict):
        func, args = node.func, node.args
        if isinstance(func, ast.Attribute):
            return self._member(self.typeof(func.value, env), func.attr, True)
        if not isinstance(func, ast.Name) or func.id in env:
            return None
        name = func.id
        first = self.typeof(args[0], env) if args else None
        if name in TO_SEQUENCE and args:
            return ("seq", item_type(first))
        if name == "zip":
            return ("seq", ("tup", tuple(item_type(self.typeof(a, env))
                                         for a in args)))
        if name == "enumerate" and args:
            return ("seq", ("tup", ("int", item_type(first))))
        if name in ("min", "max", "next"):
            if len(args) == 1:
                return item_type(first)
            return union(*(self.typeof(a, env) for a in args))
        if name in ("len", "sum", "int", "abs", "round", "hash"):
            return "int"
        if name in ("str", "repr"):
            return "str"
        return self._function(name)

    def _subscript(self, t, index: ast.expr):
        if t is None:
            return None
        out = []
        for m in _members(t):
            if m in NONE:
                continue
            if isinstance(m, tuple) and m[0] == "seq":
                out.append(m if isinstance(index, ast.Slice) else m[1])
            elif isinstance(m, tuple) and m[0] == "map":
                out.append(m[2])
            elif (isinstance(m, tuple) and m[0] == "tup"
                  and isinstance(index, ast.Constant)
                  and isinstance(index.value, int)
                  and -len(m[1]) <= index.value < len(m[1])):
                out.append(m[1][index.value])
            elif m == "str":
                out.append("str")
            else:
                return None
        return union(*out)

    # -- scopes

    def _bind(self, target: ast.expr, t, env: dict) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = (union(env[target.id], t) if target.id in env
                              else t)
        elif isinstance(target, (ast.Tuple, ast.List)):
            n = len(target.elts)
            items = [None] * n
            if isinstance(t, tuple) and t[0] == "tup" and len(t[1]) == n:
                items = list(t[1])
            elif isinstance(t, tuple) and t[0] == "seq":
                items = [t[1]] * n
            for sub, item in zip(target.elts, items):
                if isinstance(sub, ast.Starred):
                    self._bind(sub.value, None, env)
                else:
                    self._bind(sub, item, env)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, None, env)

    def _scan(self, nodes, env: dict, cls: str | None,
              defs_env: dict | None = None) -> None:
        """Bind names and record reads over `nodes` in source order, then
        go into the functions and classes they define, which see
        `defs_env` (a class body's names are not visible in its methods)."""
        nested: list[tuple[ast.AST, dict]] = []

        def visit(node: ast.AST) -> None:
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                for d in node.decorator_list:
                    visit(d)
                nested.append((node, env if defs_env is None else defs_env))
                return
            if isinstance(node, ast.Lambda):
                inner = dict(env)
                for a in ast.walk(node.args):
                    if isinstance(a, ast.arg):
                        inner[a.arg] = None
                self._scan([node.body], inner, cls)
                return
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)):
                # the value is read before the targets are bound
                for child in ast.iter_child_nodes(node):
                    visit(child)
                if isinstance(node, ast.AnnAssign):
                    self._bind(node.target, self.ann(node.annotation), env)
                else:
                    t = self.typeof(node.value, env)
                    targets = (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                    for target in targets:
                        self._bind(target, t, env)
                return
            if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
                self._bind(node.target, item_type(self.typeof(node.iter, env)),
                           env)
            elif isinstance(node, ast.withitem) and node.optional_vars:
                self._bind(node.optional_vars, None, env)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                env[node.name] = None
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if (name not in self.classes
                            and name not in self.functions):
                        env[name] = "module"
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                self._read(node, env)
            children = list(ast.iter_child_nodes(node))
            if isinstance(node, COMPREHENSIONS):
                children = node.generators + children[:-len(node.generators)]
            for child in children:
                visit(child)

        for node in nodes:
            visit(node)
        for node, outer in nested:
            if isinstance(node, ast.ClassDef):
                self._scan(node.body, dict(outer), node.name, outer)
            else:
                self._function_scope(node, outer, cls)

    def _function_scope(self, fn, outer: dict, cls: str | None) -> None:
        env = dict(outer)
        a = fn.args
        decorators = {_name(d) for d in fn.decorator_list}
        positional = [*a.posonlyargs, *a.args]
        for i, arg in enumerate(positional):
            if i == 0 and cls and "staticmethod" not in decorators:
                env[arg.arg] = (("cls", cls) if "classmethod" in decorators
                                else cls)
            else:
                env[arg.arg] = self.ann(arg.annotation)
        for arg in a.kwonlyargs:
            env[arg.arg] = self.ann(arg.annotation)
        if a.vararg:
            env[a.vararg.arg] = ("seq", self.ann(a.vararg.annotation))
        if a.kwarg:
            env[a.kwarg.arg] = ("map", "str", self.ann(a.kwarg.annotation))
        self._scan(fn.body, env, None)

    def _module(self, tree: ast.Module) -> None:
        self._scan(tree.body, {}, None)

    def _read(self, node: ast.Attribute, env: dict) -> None:
        t = self.typeof(node.value, env)
        if t is None:
            self.untyped.add(node.attr)
            return
        for m in _members(t):
            cls = m[1] if isinstance(m, tuple) and m[0] == "cls" else m
            if isinstance(cls, str) and cls in self.classes:
                owner = self.owner(cls, node.attr)
                if owner:
                    self.typed.add((owner, node.attr))


def unread_fields(package: dict[str, ast.Module],
                  callers: list[ast.Module]) -> list[str]:
    """`module.Class.field` for every field no caller reads: no typed read
    reaches the class, and no untyped read has the field's name."""
    found = FieldReads(callers)
    return [f"{module}.{name}" for module, tree in sorted(package.items())
            for name in class_fields(tree)
            if tuple(name.split(".")) not in found.typed
            and name.rpartition(".")[2] not in found.untyped]


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


def test_field_reads_resolve_through_annotations():
    lib = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Stats:\n"
        "    index: int\n"
        "    total: int\n"
        "@dataclass\n"
        "class Row:\n"
        "    index: int\n"
        "    stats: Stats\n"
        "class Report:\n"
        "    def __init__(self, rows: list[Row]):\n"
        "        self.rows: list[Row] = rows\n"
        "        self.index = {r.index: r for r in rows}\n"
        "    def first(self) -> Row:\n"
        "        return self.rows[0]\n"
        "def make() -> Report:\n"
        "    return Report([])\n"
        "def use(report: Report, n: int) -> int:\n"
        "    out = [row.stats.total for row in report.rows]\n"
        "    return make().first().index + n.index + len(out)\n")
    found = FieldReads([lib])
    # through self, a parameter, a return annotation, a container's items
    # and a field's annotation; `n.index` reads an int, no field
    assert found.typed == {("Report", "rows"), ("Row", "index"),
                           ("Row", "stats"), ("Stats", "total")}
    assert found.untyped == set()
    assert unread_fields({"lib": lib}, [lib]) == ["lib.Stats.index",
                                                  "lib.Report.index"]
    # an untyped read still counts for every field of its name
    loose = ast.parse("def loose(x):\n    return x.index\n")
    assert unread_fields({"lib": lib}, [lib, loose]) == []


def _program():
    trees = {p: ast.parse(p.read_text()) for d in PROGRAM
             for p in sorted((ROOT / d).rglob("*.py"))}
    package = {p.stem: tree for p, tree in trees.items()
               if p.parent == ROOT / "src" / "mdistinct"}
    return package, list(trees.values())


def test_every_field_is_read_by_the_program():
    package, callers = _program()
    assert sum(len(class_fields(tree)) for tree in package.values()) > 50
    assert unread_fields(package, callers) == []


def test_fields_sharing_a_name_are_read_as_their_own_class():
    """A name-matched read cannot tell apart the fields that two classes
    share a name for, so each of those needs a read the AST types."""
    package, callers = _program()
    owners: dict[str, list[str]] = {}
    for tree in package.values():
        for name in class_fields(tree):
            cls, _, attr = name.partition(".")
            owners.setdefault(attr, []).append(cls)
    shared = [(cls, attr) for attr, classes in owners.items()
              if len(classes) > 1 for cls in classes]
    assert len(shared) > 20
    typed = FieldReads(callers).typed
    assert [f"{cls}.{attr}" for cls, attr in shared
            if (cls, attr) not in typed] == []
