"""Every public name in src/bpmf has a caller outside the tests."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def references(node) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_public_name_has_a_caller():
    # a public function, class or method must be referenced in src/bpmf or
    # demos/, outside its own definition, or named in README.md; a re-export
    # is an import, not a reference
    package = sorted((ROOT / "src" / "bpmf").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in [*package, *ROOT.glob("demos/*.py")]}
    used = sum((references(tree) for tree in trees.values()), Counter())
    named = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    unused = []
    for path in package:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            members = node.body if isinstance(node, ast.ClassDef) else []
            for item in [node, *(m for m in members if isinstance(m, ast.FunctionDef))]:
                if (not item.name.startswith("_") and item.name not in named
                        and used[item.name] == references(item)[item.name]):
                    unused.append(f"{path.name}: {item.name}")
    assert not unused, f"public names that nothing calls: {unused}"
