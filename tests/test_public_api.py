"""Every name `lowk` exports has a caller outside the tests, and no lowk
module imports another's private (underscore) names.

A name counts as used when another lowk module, or the same module outside
the name's own definition, reads it, or when the benchmark under
`perfbench/` does.  `perfbench/tracing.py` names the functions it wraps as
strings in `TARGETS`, so those strings count too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lowk"
PERFBENCH = ROOT / "perfbench"

# Exported ahead of their caller: the periodicity checks wait for the
# per-strand-count report (ROADMAP item 2), bhs_decompose for the Nil block
# assembled from the virtually cyclic classes of B4(S^2) (ROADMAP item 3).
AWAITING_CALLER = {"check_p2_condition", "check_2p_condition", "check_milnor", "bhs_decompose"}


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
    """(defining module, name) for every name lowk/__init__.py imports."""
    return [
        (node.module, alias.asname or alias.name)
        for node in _parse(SRC / "__init__.py").body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


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
    unused = unused_exports() - AWAITING_CALLER
    assert not unused, f"exported, but only tests use them: {sorted(unused)}"


def test_names_awaiting_a_caller_are_exported_and_still_unused():
    assert AWAITING_CALLER <= unused_exports()



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
