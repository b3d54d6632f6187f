"""Five decisions stay where they belong.

Past the prefix, the library reads a tail as a periodic block
(``EnumerationSpec.block_pairs``) or an affine line.  Only the spec's
construction, the tail's JSON form and the append demonstration may ask
whether a tail is a ``Constant`` or a ``Cycle``.  The supremum sweep
reads the map from its step structure alone.  Only the spec's
construction takes an affine tail's cuts at 0 and 2 (``EnumerationSpec.window``);
everything else reads them from the spec.  In the escape module only
the verdict pass reads enumerated values to compare them with x0: the
prefix pairs, and the tail places of ``enumeration._tail_places``, so a
tail hit is refused there and nowhere else.  And a certificate row is a
place and its value: only ``_verdict`` derives a relation or a gap from
it, and the certificate's constructor reads no row.
"""

import ast
from fractions import Fraction
from pathlib import Path

import escapepoint

SOURCE = Path(escapepoint.__file__).parent
ALLOWED = {"EnumerationSpec._of_pairs", "tail_to_jsonable", "adjoin_escape_demo"}
PERIODIC_RULES = {"Constant", "Cycle"}
CLOSED_FORM = {"weight_below", "_plus_tail", "_below", "tail_weight_sum"}  # the map's evaluators
# what reads an enumerated value: the spec's pairs, the tail's line, and the helpers that answer from them
ENUMERATED = {"prefix_pairs", "block_pairs", "line", "value_at", "_pair_at", "tail_hits", "_line_index", "_cut"}


def scoped_nodes(tree: ast.AST) -> list[tuple[str, ast.AST]]:
    """(enclosing definition, node) of each node in the tree, in source order."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope += (node.name,)
        found.append((".".join(scope), node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def scoped_calls(tree: ast.AST) -> list[tuple[str, ast.Call]]:
    """(enclosing definition, call) of each call in the tree, in source order."""
    return [(scope, node) for scope, node in scoped_nodes(tree) if isinstance(node, ast.Call)]


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


def constant(node: ast.AST):
    """The number a node spells as a literal, bare or wrapped once as in Fraction(2); else None."""
    if isinstance(node, ast.Call) and len(node.args) == 1 and not node.keywords:
        node = node.args[0]
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    return None


def window_cuts(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing definition, line) of each _cut call whose p and q spell a constant 0 or 2."""
    found = []
    for scope, node in scoped_calls(tree):
        func = node.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != "_cut":
            continue
        x = [constant(arg) for arg in node.args[1:3]]
        if len(x) == 2 and None not in x and x[1] != 0 and Fraction(*x) in (0, 2):
            found.append((scope, node.lineno))
    return found


def test_the_cut_walker_sees_constants_bare_and_wrapped():
    tree = ast.parse(
        "def f(spec, x):\n"
        "    return _cut(spec, 0, 1), enumeration._cut(spec, F(2), F(1)), _cut(spec, x, 1)\n"
        "class S:\n"
        "    def g(self):\n"
        "        return _cut(self, 4, 2) + _cut(self, 2, q) + _cut(self, 1, 1) + max(self, 0, 2)\n"
        "def h(spec):\n"
        "    return _cut(spec, 0, 1) + _cut(spec, 2, 0)\n"
    )
    assert window_cuts(tree) == [("f", 2), ("f", 2), ("S.g", 5), ("h", 7)]


def test_only_the_spec_takes_the_window_cuts():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        found += window_cuts(ast.parse(path.read_text(), str(path)))
    # both cuts, in the one place that takes them, so the walk reads the source
    assert [scope for scope, _ in found] == ["EnumerationSpec._of_pairs"] * 2


def enumerated_reads(tree: ast.AST) -> list[tuple[str, str, int]]:
    """(enclosing definition, name, line) of each name or attribute in ``ENUMERATED``."""
    found = []
    for scope, node in scoped_nodes(tree):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name in ENUMERATED:
            found.append((scope, name, node.lineno))
    return found


def test_the_read_walker_sees_names_attributes_and_calls():
    tree = ast.parse(
        "def compute_escape(spec, x0):\n"
        "    return tail_hits(spec, x0) or enumeration.value_at(spec, 0)\n"
        "class C:\n"
        "    def m(self, spec):\n"
        "        return spec.block_pairs, spec.tail.line, spec.prefix, spec.window\n"
    )
    assert enumerated_reads(tree) == [
        ("compute_escape", "tail_hits", 2),
        ("compute_escape", "value_at", 2),
        ("C.m", "block_pairs", 5),
        ("C.m", "line", 5),
    ]


def test_only_the_verdict_pass_reads_enumerated_values_in_escape():
    path = SOURCE / "escape.py"
    tree = ast.parse(path.read_text(), str(path))
    # the pass reads the prefix pairs, so the walk reads the source
    assert [(scope, name) for scope, name, _ in enumerated_reads(tree)] == [("_verdicts", "prefix_pairs")]
    # and takes the tail's places from the one tail solver, with no block, line, window or cut of its own
    names = {node.id if isinstance(node, ast.Name) else node.attr
             for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    assert names & {"block_pairs", "line", "window", "_cut"} == set() and "_tail_places" in names


RELATIONS = {"below", "above"}


def verdict_decisions(tree: ast.AST) -> list[tuple[str, str, int]]:
    """(enclosing definition, what, line) of each gcd call and each choice between "below" and "above".

    A choice is a conditional expression with a relation word for a branch;
    a membership test against the words decides nothing, so it is not one.
    """
    found = []
    for scope, node in scoped_nodes(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "gcd":
                found.append((scope, "gcd", node.lineno))
        elif isinstance(node, ast.IfExp):
            branches = {getattr(branch, "value", None) for branch in (node.body, node.orelse)}
            if branches & RELATIONS:
                found.append((scope, "relation", node.lineno))
    return found


def test_the_verdict_walker_sees_gcds_and_relation_choices():
    tree = ast.parse(
        "def f(a, b):\n"
        "    return math.gcd(a, b), gcd(b, a), 'below' if a < b else 'above'\n"
        "class C:\n"
        "    def m(self, d, r):\n"
        "        return ('above' if d > 0 else r), r in ('below', 'above'), 'below', lcm(d, r)\n"
    )
    assert verdict_decisions(tree) == [("f", "gcd", 2), ("f", "gcd", 2), ("f", "relation", 2),
                                       ("C.m", "relation", 5)]


def test_only_the_verdict_formula_derives_a_relation_or_a_gap():
    path = SOURCE / "escape.py"
    tree = ast.parse(path.read_text(), str(path))
    # the formula does both, so the walk reads the source
    assert sorted({(scope, what) for scope, what, _ in verdict_decisions(tree)}) == [
        ("_verdict", "gcd"), ("_verdict", "relation")]
    # and the constructor takes the rows as they come, with no loop over them
    of_rows = [node for scope, node in scoped_nodes(tree) if scope == "EscapeCertificate._of_rows"]
    assert of_rows and not [node for node in of_rows if isinstance(node, (ast.For, ast.While, ast.comprehension))]
