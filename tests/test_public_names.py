"""Every public name in src/bpmf has a caller outside the tests."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "bpmf").glob("*.py"))
# public method names that more than one class defines: an attribute
# reference to one cannot be told from a reference to the other
SHARED_METHOD_NAMES = {"k"}


def references(node, kinds=(ast.Name, ast.Attribute)) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, kinds))


def public_definitions(tree):
    """(definition, is a method) for each public top-level function and class,
    and each public method of those classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node, False
        for member in node.body if isinstance(node, ast.ClassDef) else []:
            if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                yield member, True


def test_every_public_name_has_a_caller():
    # a public function or class must be referenced in src/bpmf or demos/,
    # outside its own definition (a mention in README.md is no caller); a public
    # method only counts references of the form ``obj.name``, so a local variable
    # of the same spelling is no caller; a re-export is an import, not a reference
    trees = {path: ast.parse(path.read_text()) for path in [*PACKAGE, *ROOT.glob("demos/*.py")]}
    used = sum((references(tree) for tree in trees.values()), Counter())
    attributes = sum((references(tree, ast.Attribute) for tree in trees.values()), Counter())
    unused = []
    for path in PACKAGE:
        for item, is_method in public_definitions(trees[path]):
            kinds = ast.Attribute if is_method else (ast.Name, ast.Attribute)
            callers = attributes if is_method else used
            if callers[item.name] == references(item, kinds)[item.name]:
                unused.append(f"{path.name}: {item.name}")
    assert not unused, f"public names that nothing calls: {unused}"


def test_shared_method_names_are_the_tolerated_set():
    # a new name shared by two classes weakens the guard above for both, so
    # it must be added here on purpose
    methods = Counter(item.name for path in PACKAGE
                      for item, is_method in public_definitions(ast.parse(path.read_text()))
                      if is_method)
    assert {name for name, count in methods.items() if count > 1} == SHARED_METHOD_NAMES
