"""Two decisions stay where they belong.

Past the prefix, the library reads a tail as a periodic block
(``EnumerationSpec.block_pairs``) or an affine line.  Only the spec's
construction, the tail's JSON form and the append demonstration may ask
whether a tail is a ``Constant`` or a ``Cycle``.  And the supremum sweep
reads the map from its step structure alone.
"""

import ast
from pathlib import Path

import escapepoint

SOURCE = Path(escapepoint.__file__).parent
ALLOWED = {"EnumerationSpec.__post_init__", "tail_to_jsonable", "adjoin_escape_demo"}
PERIODIC_RULES = {"Constant", "Cycle"}
CLOSED_FORM = {"weight_below", "_plus_tail", "_below", "tail_weight_sum"}  # the map's evaluators


def scoped_calls(tree: ast.AST) -> list[tuple[str, ast.Call]]:
    """(enclosing definition, call) of each call in the tree, in source order."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope += (node.name,)
        if isinstance(node, ast.Call):
            found.append((".".join(scope), node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def periodic_rule_tests(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing definition, line) of each isinstance call that names Constant or Cycle."""
    found = []
    for scope, node in scoped_calls(tree):
        if isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            named = {
                part.id if isinstance(part, ast.Name) else part.attr
                for arg in node.args[1:]
                for part in ast.walk(arg)
                if isinstance(part, (ast.Name, ast.Attribute))
            }
            if named & PERIODIC_RULES:
                found.append((scope, node.lineno))
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


def closed_form_calls(tree: ast.AST) -> list[tuple[str, str, int]]:
    """(enclosing definition, callee, line) of each call that names a closed-form evaluator."""
    found = []
    for scope, node in scoped_calls(tree):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in CLOSED_FORM:
            found.append((scope, name, node.lineno))
    return found


def test_the_call_walker_sees_names_attributes_and_nested_calls():
    tree = ast.parse(
        "def sup_postfix_oracle(spec):\n"
        "    return weight_below(spec, 2)\n"
        "class StepStructure:\n"
        "    def at(self, k):\n"
        "        return max(k, enumeration._plus_tail(self, 1, 1, 0))\n"
        "def step_structure(spec):\n"
        "    return tail_weight_sum(spec, 0) + weight_sum(spec)\n"
    )
    assert closed_form_calls(tree) == [
        ("sup_postfix_oracle", "weight_below", 2),
        ("StepStructure.at", "_plus_tail", 5),
        ("step_structure", "tail_weight_sum", 7),
    ]


def test_the_sweep_and_the_step_structure_never_evaluate_the_map():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        found += closed_form_calls(ast.parse(path.read_text(), str(path)))
    readers = [call for call in found if call[0] == "sup_postfix_oracle" or call[0].startswith("StepStructure.")]
    assert readers == []
    # the builder takes the map's value at 2, so the walk does read the source
    assert ("step_structure", "weight_below") in {(scope, name) for scope, name, _ in found}
