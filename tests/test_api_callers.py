"""Every function, class and method defined in ``src/netbell/`` has a caller.

The check parses the package, the benchmark (``perfbench/``) and the
scripts (``scripts/``) with ``ast`` and collects every name they use: a
bare name, an attribute, and a string constant that is a dotted identifier
such as ``"RoundBatch.to_csv"`` (the benchmark names the functions it
wraps by string).  Docstrings are prose and do not count.  A definition
passes when its name is used somewhere outside its own body; dunders are
called by the language and are left out.  Code that only the tests call
belongs in the tests.

The check is a floor, not a proof: it matches names, not bindings, so a
definition whose name another identifier shares (a method ``step`` and a
loop variable ``step``, a function ``product`` and ``itertools.product``)
passes whether or not anything calls it.  So a second check asks that no
module binds one top-level name twice: a copied definition would otherwise
pass on the callers of its twin.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "netbell"
CALLER_DIRS = (PACKAGE, ROOT / "perfbench", ROOT / "scripts")
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
_DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the string constants that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_DEFINITION)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(id(first.value))
    return out


def _uses(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of every name the code uses."""
    docs = _docstrings(tree)
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            uses.append((node.attr, node.lineno))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs and _DOTTED.fullmatch(node.value)):
            uses += [(part, node.lineno) for part in node.value.split(".")]
    return uses


def _parse(path: pathlib.Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def uncalled_definitions() -> list[str]:
    """``file:line name`` of each definition that nothing outside it names."""
    used_at: dict[str, list[tuple[pathlib.Path, int]]] = {}
    for folder in CALLER_DIRS:
        for path in sorted(folder.rglob("*.py")):
            for name, line in _uses(_parse(path)):
                used_at.setdefault(name, []).append((path, line))
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if not isinstance(node, _DEFINITION) or re.fullmatch(r"__\w+__", node.name):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(where != path or line not in inside
                       for where, line in used_at.get(node.name, ())):
                missing.append(f"{path.name}:{node.lineno} {node.name}")
    return missing


def test_every_definition_in_the_package_has_a_caller_outside_the_tests():
    assert uncalled_definitions() == []


def duplicate_bindings() -> list[str]:
    """``file:line name`` of each top-level def, class or assignment that
    binds a name its module bound before."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        seen = set()
        for node in _parse(path).body:
            if isinstance(node, _DEFINITION):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name in seen:
                    found.append(f"{path.name}:{node.lineno} {name}")
                seen.add(name)
    return found


def test_no_module_binds_a_top_level_name_twice():
    assert duplicate_bindings() == []
