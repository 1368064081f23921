"""Import hygiene of the package (stdlib ast only):

* every module, and every test module, reads each name it imports;
* a function body imports nothing, from the package or outside it.  The
  package's import graph is acyclic, so every import can sit at the module
  top;
* no module imports a private (underscore) name from another module of the
  package;
* every module-level function or class of the package is read by production
  code: the package, `scripts`, `benchmark/*.py` and
  `tests/test_acceptance.py`.  Code that only unit tests call is deleted;
* every defaulted parameter of a module-level function of the package is
  passed, by keyword or by position, by some call in production code.  An
  option that only unit tests set is deleted;
* the same two rules hold for the members of the package's classes: every
  non-dunder method is read by production code, and every defaulted method
  parameter is passed by it.  These match a member by its name alone.

`__init__.py` is exempt from the first rule: its imports are re-exports.

These gates see definitions and options, not branches: a branch that only
unit tests reach passes them.  To find such code, run
`python scripts/line_trace.py`, which lists per module the lines that the
acceptance tests, the CLI tests and every benchmark cell at seeds 0 and 1
never run.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dworklab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))
PRODUCTION = [
    *sorted(PACKAGE.glob("*.py")),
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted((ROOT / "benchmark").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]
# Definitions that production code does not read and that stay anyway.
# lambda_at_teichmuller is an independent route to the Lambda of a fibre:
# test_two_route_agreement compares it with lambda_unit_root.
KEEP = {"lambda_at_teichmuller"}
# Defaulted parameters that production code does not pass and that stay
# anyway: the tests drive the CLI through cli_main's argv.
KEEP_OPTIONS = {("cli", "cli_main", "argv")}
# Methods, as "Class.method", and (module, "Class.method", parameter) method
# options that production code does not reach and that stay anyway: none.
KEEP_MEMBERS = set()
KEEP_MEMBER_OPTIONS = set()


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - read)


def function_imports(source: str) -> list:
    """(line, module) of every import inside a function body; a relative
    module keeps its leading dots."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Import):
                found.update((node.lineno, a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                found.add((node.lineno, "." * node.level + (node.module or "")))
    return sorted(found)


def test_checker_flags_an_unread_import():
    source = "import os.path\nfrom math import gcd, isqrt as r\nprint(r(4))\n"
    assert unused_imports(source) == ["gcd", "os"]


def test_checker_flags_a_function_import():
    source = (
        "import math\n"
        "def f():\n"
        "    import itertools as it\n"
        "    from .laurent import LaurentPoly\n"
        "    def g():\n"
        "        from math import gcd\n"
        "    return it, LaurentPoly, g, math\n"
    )
    assert function_imports(source) == [(3, "itertools"), (4, ".laurent"), (6, "math")]


def private_imports(source: str) -> list:
    """(module, name) of every underscore name imported from the package."""
    return sorted(
        ("." * node.level + (node.module or ""), a.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level
        for a in node.names
        if a.name.startswith("_")
    )


def test_checker_flags_a_private_import():
    source = "from .cartier import _PowerTable, expand_origin\nfrom os import _exit\n"
    assert private_imports(source) == [(".cartier", "_PowerTable")]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    assert function_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_import_across_modules(path):
    assert private_imports(path.read_text()) == []


def referenced_names(source: str) -> set:
    """Every name that `source` reads: a loaded Name, an Attribute, an
    imported name, or a part of a string constant that is a name or a dotted
    name (the benchmark tracer patches functions and methods by name)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


def unreached(package: dict, production: list) -> list:
    """(module, name) of every module-level function or class of `package`
    (module name -> source) that no source in `production` reads."""
    read = set().union(*map(referenced_names, production))
    return sorted(
        (module, node.name)
        for module, source in package.items()
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in read
    )


def test_checker_flags_an_unreached_definition():
    package = {
        "m": "def used(): pass\ndef dead(): used()\nclass Patched: pass\n"
             "def aliased(): pass\n",
        "n": "import m\nx = m.used\ndead = 1\n",
    }
    production = [
        package["n"],
        "from m import aliased as a\nTARGETS = [('m', 'Patched.__mul__')]\n",
    ]
    assert unreached(package, production) == [("m", "dead")]


def test_production_reads_every_definition():
    package = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    production = [p.read_text() for p in PRODUCTION]
    assert {name for _, name in unreached(package, production)} == KEEP


def defaults(args: ast.arguments, skip: int = 0) -> list:
    """(position or None, name) of every parameter with a default; the first
    `skip` positional parameters (self or cls) take no position, and
    keyword-only parameters have none."""
    positional = (args.posonlyargs + args.args)[skip:]
    first = len(positional) - len(args.defaults)
    return [(i, a.arg) for i, a in enumerate(positional) if i >= first] + [
        (None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    ]


def defaulted_parameters(source: str) -> list:
    """(function, position or None, name) of every parameter with a default
    of a module-level function."""
    return [
        (node.name, i, name)
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for i, name in defaults(node.args)
    ]


def passed_arguments(source: str) -> set:
    """(callee, argument) for every call in `source` by a name or an
    attribute: the argument is the number of positional arguments, or "*"
    when they are unpacked, and each keyword, or "**" when they are
    unpacked."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name is None:
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        found.add((name, "*" if starred else len(node.args)))
        found.update((name, k.arg or "**") for k in node.keywords)
    return found


def is_passed(calls: set, fn: str, i, name: str) -> bool:
    """Whether some call in `calls` (see `passed_arguments`) to a callee
    named `fn` passes the parameter `name` at position `i`."""
    if {(fn, name), (fn, "**")} & calls:
        return True
    return i is not None and any(
        callee == fn and (arg == "*" or type(arg) is int and arg > i)
        for callee, arg in calls
    )


def unpassed(package: dict, production: list) -> list:
    """(module, function, parameter) of every defaulted parameter of a
    module-level function of `package` that no call in `production` passes."""
    calls = set().union(*map(passed_arguments, production))
    return sorted(
        (module, fn, name)
        for module, source in package.items()
        for fn, i, name in defaulted_parameters(source)
        if not is_passed(calls, fn, i, name)
    )


def test_checker_flags_an_unpassed_option():
    package = {
        "m": "def f(a, b=1, c=2, *, d=3, e=None): pass\n"
             "def g(x=0): pass\ndef h(y=0): pass\ndef k(z=0): pass\n",
    }
    production = [
        "import m\nm.f(0, 1)\nf(0, e=5)\ng(*args)\nh(**opts)\n",
        "def k(z=0): pass\nk\n",
    ]
    assert unpassed(package, production) == [("m", "f", "c"), ("m", "f", "d"), ("m", "k", "z")]


def test_production_passes_every_option():
    package = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    production = [p.read_text() for p in PRODUCTION]
    assert set(unpassed(package, production)) == KEEP_OPTIONS


# -- class members ------------------------------------------------------
#
# The two gates below match a member by its name alone, as the calls they
# read carry no type: a member whose name another class of the package also
# uses counts as read, or its option as passed, when the other one is.


def methods(source: str) -> list:
    """(class, method node, is static) for every method of a module-level
    class."""
    return [
        (node.name, item, any(getattr(d, "id", None) == "staticmethod"
                              for d in item.decorator_list))
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def unreached_members(package: dict, production: list) -> list:
    """(module, "Class.method") of every non-dunder method of a class of
    `package` whose name no source in `production` reads."""
    read = set().union(*map(referenced_names, production))
    return sorted(
        (module, f"{cls}.{fn.name}")
        for module, source in package.items()
        for cls, fn, _ in methods(source)
        if not (fn.name.startswith("__") and fn.name.endswith("__")) and fn.name not in read
    )


def test_checker_flags_an_unreached_member():
    package = {
        "m": "class A:\n"
             "    def __mul__(self, o): pass\n"
             "    def used(self): self.helper()\n"
             "    def helper(self): pass\n"
             "    @staticmethod\n"
             "    def dead(): pass\n"
             "    def patched(self): pass\n",
    }
    production = [package["m"], "a.used()\nTARGETS = [('m', 'A.patched')]\n"]
    assert unreached_members(package, production) == [("m", "A.dead")]


def test_production_reads_every_member():
    package = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    production = [p.read_text() for p in PRODUCTION]
    assert {name for _, name in unreached_members(package, production)} == KEEP_MEMBERS


def unpassed_member_options(package: dict, production: list) -> list:
    """(module, "Class.method", parameter) of every defaulted parameter of a
    method of a class of `package` that no call in `production` passes.  A
    non-static method's positions start after self (or cls), and `__init__`
    is called by the class name."""
    calls = set().union(*map(passed_arguments, production))
    return sorted(
        (module, f"{cls}.{fn.name}", name)
        for module, source in package.items()
        for cls, fn, static in methods(source)
        for i, name in defaults(fn.args, 0 if static else 1)
        if not is_passed(calls, cls if fn.name == "__init__" else fn.name, i, name)
    )


def test_checker_flags_an_unpassed_member_option():
    package = {
        "m": "class A:\n"
             "    def __init__(self, a, b=0, c=0): pass\n"
             "    def f(self, x, y=1, *, z=2): pass\n"
             "    @staticmethod\n"
             "    def g(u, v=1): pass\n"
             "    @classmethod\n"
             "    def h(cls, w=1): pass\n",
    }
    production = ["A(0, 1)\na.f(0, 1)\nA.g(0, 1)\nA.h()\n"]
    assert unpassed_member_options(package, production) == [
        ("m", "A.__init__", "c"), ("m", "A.f", "z"), ("m", "A.h", "w"),
    ]


def test_production_passes_every_member_option():
    package = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    production = [p.read_text() for p in PRODUCTION]
    assert set(unpassed_member_options(package, production)) == KEEP_MEMBER_OPTIONS
