"""The public API holds only what the package itself or the benchmark uses.

A module-level public function or class that nothing in `src/minklab` or
`perfbench/` refers to (by name or as an attribute) is a test-only wrapper:
its behaviour belongs in the tests, not in the package.  Imports and
`__all__` strings are not references.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# expected_accel_curl is the closed-form reference that test_rigid compares
# accel_curl against; it shares _jerk_bracket with expected_lie_accel, which
# the rigid suite uses.
ALLOWED_UNREFERENCED = {"expected_accel_curl"}


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield d, ast.parse(path.read_text(), filename=str(path))


def unreferenced_public_names() -> set[str]:
    defined, used = set(), set()
    for d, tree in _trees("src/minklab", "perfbench"):
        if d == "src/minklab":
            defined |= {node.name for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and not node.name.startswith("_")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined - used


def test_every_public_name_is_used():
    assert unreferenced_public_names() == ALLOWED_UNREFERENCED
