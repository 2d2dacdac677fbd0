"""The public API holds only what the package itself or the benchmark uses,
and every function reads every parameter it takes.

A module-level public function or class that nothing in `src/minklab` or
`perfbench/` refers to (by name or as an attribute) is a test-only wrapper:
its behaviour belongs in the tests, not in the package.  Imports and
`__all__` strings are not references.  The same holds for the members of
a public class: a public method, property, classmethod or dataclass field
that nothing in `src/minklab` or `perfbench/` reads as an attribute is
test-only too; dunder methods are exempt, since Python calls them through
operators.  An attribute read on a string constant or on a `str(...)` call
reads a `str` method, not a member.  A parameter that its function never reads is a knob that
changes nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# expected_accel_curl is the closed-form reference that test_rigid compares
# the curl of the split's nested jet against; it shares _jerk_bracket with
# worldline._lie_accel_at, the closed form the rigid suite compares
# lie_accel against.
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


def _member_name(stmt) -> str | None:
    """The name a class-body statement defines as a member: a method,
    property or classmethod, or an annotated (dataclass) field."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return stmt.name
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return stmt.target.id
    return None


def unreferenced_public_members() -> set[str]:
    """`Class.member` for each public method, property, classmethod and
    dataclass field of a public class in src/minklab that src/minklab and
    perfbench/ never read as an attribute."""
    members, read = set(), set()
    for d, tree in _trees("src/minklab", "perfbench"):
        if d == "src/minklab":
            members |= {(cls.name, name) for cls in tree.body
                        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
                        for name in map(_member_name, cls.body)
                        if name is not None and not name.startswith("_")}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                 and not _is_string(node.value)}
    return {f"{cls}.{name}" for cls, name in members if name not in read}


def _is_string(node) -> bool:
    """Whether an expression is a string constant or a `str(...)` call."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "str")


def test_every_public_member_is_read():
    assert unreferenced_public_members() == set()


def unread_parameters() -> set[str]:
    """Parameters of functions in src/minklab that their body never reads.

    Nested functions count as part of the body, so a closure that reads a
    parameter reads it.  `del name` marks a parameter that an interface
    keeps on purpose (`meet` takes the mode that `join` needs).  Lambdas are
    exempt: an interface such as a field's domain fixes their signature,
    and `lambda x: True` reads nothing.
    """
    found = set()
    for _, tree in _trees("src/minklab"):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs]
            params += [p for p in (a.vararg, a.kwarg) if p is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, (ast.Load, ast.Del))}
            found |= {f"{node.name}({p.arg})" for p in params if p.arg not in read}
    return found


def test_every_parameter_is_read():
    assert unread_parameters() == set()
