"""The public API holds only what the package itself or the benchmark uses,
and every function reads every parameter it takes.  Records that hold
arrays or coordinates compare and hash by identity.

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
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import minklab
from minklab.core import AffineFrame, Event, Hyperplane, MinkVector
from minklab.isometry import AffineIsometry, Dilation, Reflection
from minklab.projective import FLBoost, ProjectiveMap
from minklab.rigid import KinematicDecomposition
from minklab.simultaneity import WorldLine

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


# one small instance of each record that holds arrays or coordinates
RECORDS = {
    AffineFrame: lambda: AffineFrame(Event([0.0, 0.0]), (MinkVector([1.0, 0.0]),
                                                         MinkVector([0.0, 1.0]))),
    AffineIsometry: lambda: AffineIsometry(np.eye(2), np.ones(2)),
    Dilation: lambda: Dilation(2.0, Event([0.0, 0.0])),
    FLBoost: lambda: FLBoost(np.array([0.5, 0.0, 0.0]), c=1.0, R=10.0),
    Hyperplane: lambda: Hyperplane(MinkVector([1.0, 0.0]), Event([0.0, 0.0])),
    KinematicDecomposition: lambda: KinematicDecomposition(np.eye(2), np.zeros((2, 2)),
                                                           np.ones(2)),
    ProjectiveMap: lambda: ProjectiveMap.worked_example(2),
    Reflection: lambda: Reflection(np.array([1.0, 0.5])),
    WorldLine: lambda: WorldLine(Event([0.0, 1.0]), MinkVector([1.0, 0.0])),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_compare_and_hash_by_identity(cls):
    x, twin = RECORDS[cls](), RECORDS[cls]()
    assert x == x and not x != x
    assert x != twin and not x == twin
    assert hash(x) == hash(x) and hash(x) != hash(twin)


def _holds_arrays(field: dataclasses.Field) -> bool:
    """Whether a dataclass field is annotated with an array or a coordinate
    record (a callable that takes arrays is neither)."""
    return (any(name in field.type for name in ("ndarray", "Event", "MinkVector"))
            and not field.type.startswith("Callable"))


def test_every_record_holding_arrays_is_listed_and_compares_by_identity():
    # a generated __eq__ on an ndarray field raises, and on a coordinate
    # record compares by identity anyway
    found = set()
    for info in pkgutil.walk_packages(minklab.__path__, "minklab."):
        module = importlib.import_module(info.name)
        found |= {cls for cls in vars(module).values()
                  if isinstance(cls, type) and cls.__module__ == info.name
                  and dataclasses.is_dataclass(cls) and not cls.__name__.startswith("_")
                  and any(map(_holds_arrays, dataclasses.fields(cls)))}
    # events, vectors and lattice regions are not among the nine records
    # built above, and compare by identity too
    assert {c.__name__ for c in found - set(RECORDS)} == {"Event", "MinkVector", "Region"}
    assert not [c for c in found if c.__dataclass_params__.eq]
