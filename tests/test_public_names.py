"""Every public name in src/bpmf has a caller outside the tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_has_a_caller():
    # a public function, class or method must be referenced in src/bpmf or
    # demos/, or named in README.md; a re-export is an import, not a reference
    package = sorted((ROOT / "src" / "bpmf").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in [*package, *ROOT.glob("demos/*.py")]}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    used |= set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    unused = []
    for path in package:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            members = node.body if isinstance(node, ast.ClassDef) else []
            for item in [node, *(m for m in members if isinstance(m, ast.FunctionDef))]:
                if not item.name.startswith("_") and item.name not in used:
                    unused.append(f"{path.name}: {item.name}")
    assert not unused, f"public names that nothing calls: {unused}"
