"""Every name `lowk` exports has a caller outside the tests, no lowk module
imports another's private (underscore) names, the options lowk takes
are the ones listed in `OPTIONS`, each library option is set by some
call outside the tests, and the brute-force bound is set only by the CLI.

A name counts as used when another lowk module, or the same module outside
the name's own definition, reads it, or when the benchmark under
`perfbench/` does.  `perfbench/tracing.py` names the functions it wraps as
strings in `TARGETS`, so those strings count too.
"""

import argparse
import ast
import importlib
from pathlib import Path

import lowk
from lowk.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lowk"
PERFBENCH = ROOT / "perfbench"

# Every option lowk takes: `module.function(parameter)` for each defaulted
# parameter of a public library function (a public class's constructor and
# public methods included), and `command option` for each option a CLI
# subcommand declares.  Adding or removing an option means editing this set.
OPTIONS = {
    "census.count_blocks(exponents)",
    "cli.main(argv)",
    "groups.FiniteGroup.from_closure(family)",
    "groups.closure(limit)",
    "report.group_report(field_descriptor)",
    "report.group_report(invariants)",
    "report.group_report(k)",
    "report.group_report(m)",
    "group --m",
    "group --k",
    "group --invariants",
    "group --field",
    "group --max-brute-force",
    "group --format",
    "lambda --m",
    "lambda --format",
    "classify --n",
    "classify --vc",
    "classify --format",
    "b4 verify --suite",
    "b4 verify --format",
    "b4 report --format",
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _names_read(tree, skip=None):
    """Names read as a bare name or an attribute, outside the definition named `skip`."""
    read = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return read


def _traced_names():
    """The function names in `perfbench/tracing.py`'s TARGETS list."""
    for node in _parse(PERFBENCH / "tracing.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return {
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            }
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def exported_names():
    """(defining module, name) for every name lowk/__init__.py imports, or
    lists in its `_LAZY` table of names it loads on first use."""
    body = _parse(SRC / "__init__.py").body
    lazy = next(
        ast.literal_eval(node.value) for node in body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "_LAZY" for t in node.targets)
    )
    return [
        (node.module, alias.asname or alias.name)
        for node in body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ] + [(module, name) for name, module in lazy.items()]


def test_every_exported_name_is_the_defining_modules_object():
    names = dir(lowk)
    for module, name in exported_names():
        assert name in names
        assert getattr(lowk, name) is getattr(importlib.import_module(f"lowk.{module}"), name)


def unused_exports():
    """Exported names that nothing outside the tests reads."""
    modules = {p.stem: _parse(p) for p in SRC.glob("*.py") if p.stem != "__init__"}
    read_by = {stem: _names_read(tree) for stem, tree in modules.items()}
    read_in_perfbench = _traced_names()
    for path in PERFBENCH.glob("*.py"):
        if not path.name.startswith("test_"):
            read_in_perfbench |= _names_read(_parse(path))
    return {
        name for module, name in exported_names()
        if name not in read_in_perfbench
        and not any(name in read for other, read in read_by.items() if other != module)
        and name not in _names_read(modules[module], skip=name)
    }


def test_every_exported_name_has_a_caller():
    unused = unused_exports()
    assert not unused, f"exported, but only tests use them: {sorted(unused)}"


def test_no_module_imports_another_modules_private_names():
    private = sorted(
        (path.stem, alias.name)
        for path in SRC.glob("*.py")
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "lowk")
        for alias in node.names
        if alias.name.startswith("_")
    )
    assert not private, f"(module, name) of private names imported across lowk: {private}"


def _defaulted(fn, bound):
    """(parameter, position in a call or None if keyword-only) for each defaulted
    parameter of `fn`; `bound` is 1 for a method, whose self or cls no call passes."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    named = [(a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
    named += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return named


def library_parameters():
    """(option, name a call uses, parameter, position or None) for the defaulted
    parameters of public functions; a constructor is called by its class name."""
    for path in SRC.glob("*.py"):
        for node in _parse(path).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                for a, pos in _defaulted(node, 0):
                    yield f"{path.stem}.{node.name}({a})", node.name, a, pos
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and (
                        method.name == "__init__" or not method.name.startswith("_")
                    ):
                        called = node.name if method.name == "__init__" else method.name
                        for a, pos in _defaulted(method, 1):
                            yield f"{path.stem}.{node.name}.{method.name}({a})", called, a, pos


def library_options():
    """`module.function(parameter)` for the defaulted parameters of public functions."""
    return {option for option, *_ in library_parameters()}


def _calls_outside_tests():
    """The (name, keyword) pairs, and per name the most positional arguments,
    of the calls in lowk and the benchmark."""
    keywords, most_positional = set(), {}
    paths = [*SRC.glob("*.py"), *(p for p in PERFBENCH.glob("*.py") if not p.name.startswith("test_"))]
    for path in paths:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                keywords.update((name, k.arg) for k in node.keywords)
                most_positional[name] = max(most_positional.get(name, 0), len(node.args))
    return keywords, most_positional


def test_every_library_option_is_set_outside_the_tests():
    keywords, most_positional = _calls_outside_tests()
    unset = sorted(
        option for option, name, parameter, position in library_parameters()
        if (name, parameter) not in keywords
        and (position is None or most_positional.get(name, 0) <= position)
    )
    assert not unset, f"options no call in src/lowk or perfbench sets: {unset}"


def cli_options(parser=None, command=""):
    """`command option` for each option the parser and its subparsers declare."""
    parser = parser or build_parser()
    out = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out |= cli_options(sub, f"{command} {name}".strip())
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            out.add(f"{command or 'lowk'} {max(action.option_strings, key=len)}")
    return out


def test_option_inventory_is_pinned():
    assert library_options() | cli_options() == OPTIONS


def test_the_brute_force_bound_is_set_only_by_the_cli():
    # the census bound is the context variable census.BOUND, not a parameter
    takes_max_size, sets_bound = set(), set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.arg) and node.arg == "max_size":
                takes_max_size.add(path.name)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                owner = node.func.value  # BOUND or census.BOUND
                if node.func.attr == "set" and "BOUND" in (
                    getattr(owner, "id", None), getattr(owner, "attr", None)
                ):
                    sets_bound.add(path.name)
    assert not takes_max_size, f"modules with a max_size parameter: {takes_max_size}"
    assert sets_bound == {"cli.py"}
