"""The tail-rule decision stays in one module.

Past the prefix, the library reads a tail as a periodic block
(``EnumerationSpec.block_pairs``) or an affine line.  Only the spec's
construction, the tail's JSON form and the append demonstration may ask
whether a tail is a ``Constant`` or a ``Cycle``.
"""

import ast
from pathlib import Path

import escapepoint

SOURCE = Path(escapepoint.__file__).parent
ALLOWED = {"EnumerationSpec.__post_init__", "tail_to_jsonable", "adjoin_escape_demo"}
PERIODIC_RULES = {"Constant", "Cycle"}


def periodic_rule_tests(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing definition, line) of each isinstance call that names Constant or Cycle."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope += (node.name,)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            named = {
                part.id if isinstance(part, ast.Name) else part.attr
                for arg in node.args[1:]
                for part in ast.walk(arg)
                if isinstance(part, (ast.Name, ast.Attribute))
            }
            if named & PERIODIC_RULES:
                found.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_the_walker_sees_names_tuples_and_attributes():
    tree = ast.parse(
        "def f(t):\n"
        "    return isinstance(t, Cycle)\n"
        "class S:\n"
        "    def g(self, t):\n"
        "        return isinstance(t, (Affine, enumeration.Constant)) or isinstance(t, Affine)\n"
    )
    assert periodic_rule_tests(tree) == [("f", 2), ("S.g", 5)]


def test_only_the_allowed_places_name_a_periodic_rule():
    found: dict[str, list[str]] = {}
    for path in sorted(SOURCE.glob("*.py")):
        for scope, line in periodic_rule_tests(ast.parse(path.read_text(), str(path))):
            found.setdefault(scope, []).append(f"{path.name}:{line}")
    assert {scope: lines for scope, lines in found.items() if scope not in ALLOWED} == {}
    assert set(found) == ALLOWED  # each allowed place still decides, so the walk reads the source
