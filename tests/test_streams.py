"""Every sampled check draws from its own seeded stream, `suites._stream`.

A check's inputs depend on no other check's draws: a sweep run alone on its
stream reports what the full suite reports, and an extra draw in one stream
moves no other check.  Sweeps draw whole arrays; the AST tests below keep
per-sample draw loops out of `suites.py` and `isometry.random_lorentz`, and
the raw seed out of every call in a suite but `_stream`.
"""

import ast
import inspect
import textwrap
import zlib
from pathlib import Path

import numpy as np
import pytest

from minklab import isometry, projective, suites

SUITES_TREE = ast.parse(Path(suites.__file__).read_text())

# every public method of a Generator except those that draw nothing
DRAW_METHODS = {name for name in dir(np.random.Generator)
                if not name.startswith("_")} - {"bit_generator", "spawn"}


def _stream_names() -> list[str]:
    """The name argument of every `_stream(seed, name)` call in suites.py;
    each must be a string literal."""
    names = []
    for node in ast.walk(SUITES_TREE):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_stream":
            arg = node.args[1]
            assert isinstance(arg, ast.Constant) and isinstance(arg.value, str), ast.dump(arg)
            names.append(arg.value)
    return names


STREAMS = _stream_names()


def _repeated_parts(node: ast.AST):
    """The parts of a loop or comprehension that run once per iteration."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return node.body + node.orelse
    if isinstance(node, ast.While):
        return [node.test] + node.body + node.orelse
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        first, *rest = node.generators
        return [node.elt, *first.ifs, *(part for g in rest for part in (g.iter, *g.ifs))]
    if isinstance(node, ast.DictComp):
        first, *rest = node.generators
        return [node.key, node.value, *first.ifs,
                *(part for g in rest for part in (g.iter, *g.ifs))]
    return []


def _draws_in_loops(tree: ast.AST) -> list[str]:
    """Generator draw calls that sit in a loop body or comprehension element,
    as 'line: source'."""
    found = []
    for loop in ast.walk(tree):
        for part in _repeated_parts(loop):
            for node in ast.walk(part):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in DRAW_METHODS):
                    found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def _reads_seed(node: ast.AST) -> bool:
    """Whether the expression reads `seed` outside the calls nested in it."""
    if isinstance(node, ast.Name):
        return node.id == "seed"
    return not isinstance(node, ast.Call) and any(
        _reads_seed(child) for child in ast.iter_child_nodes(node))


def _seed_takers(tree: ast.AST) -> set[str]:
    """The calls inside the `suite_*` functions that take `seed` in an
    argument, as source of the called function."""
    return {ast.unparse(node.func)
            for top in tree.body
            if isinstance(top, ast.FunctionDef) and top.name.startswith("suite_")
            for node in ast.walk(top)
            if isinstance(node, ast.Call) and any(
                _reads_seed(arg) for arg in (*node.args, *(k.value for k in node.keywords)))}


class TestNoDrawLoops:
    def test_default_rng_only_in_stream(self):
        callers = []
        for top in SUITES_TREE.body:
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                if isinstance(node, ast.Call) and "default_rng" in (
                        getattr(func, "attr", None), getattr(func, "id", None)):
                    callers.append(getattr(top, "name", f"module line {node.lineno}"))
        assert callers == ["_stream"]

    def test_suites_draw_no_sample_in_a_loop(self):
        assert _draws_in_loops(SUITES_TREE) == []

    def test_random_lorentz_draws_no_sample_in_a_loop(self):
        tree = ast.parse(textwrap.dedent(inspect.getsource(isometry.random_lorentz)))
        assert _draws_in_loops(tree) == []

    def test_a_loop_that_draws_is_caught(self):
        tree = ast.parse("for _ in range(3):\n    x = rng.uniform(0, 1)\n"
                         "y = [rng.standard_normal(2) for _ in range(4)]\n"
                         "z = [r for r in rng.random((4, 2))]\n")
        assert _draws_in_loops(tree) == ["2: rng.uniform(0, 1)", "3: rng.standard_normal(2)"]

    def test_suites_pass_the_seed_to_stream_alone(self):
        assert _seed_takers(SUITES_TREE) == {"_stream"}

    def test_a_call_that_takes_the_seed_is_caught(self):
        tree = ast.parse("def suite_x(seed, config):\n"
                         "    a = f(g(seed + 1), _stream(seed, 'x'))\n"
                         "    b = h(1, seed=seed)\n"
                         "def other(seed):\n    return k(seed)\n")
        assert _seed_takers(tree) == {"g", "_stream", "h"}

    def test_stream_names_and_keys_are_distinct(self):
        assert len(STREAMS) >= 20
        assert len(set(STREAMS)) == len(STREAMS)
        assert len({zlib.crc32(name.encode()) for name in STREAMS}) == len(STREAMS)


def _reads(check: str, stream: str) -> bool:
    """Whether the check reads the stream: streams are named by their
    check, or by the prefix of the checks that share its draws."""
    return check == stream or check.startswith(stream + ".")


def _report_bytes(seed: int, config: suites.Config) -> dict:
    return {c["name"]: (np.float64(c["residual"]).tobytes(), c["passed"], c["note"])
            for c in suites.run_suite("all", seed, config)["checks"]}


def test_every_stream_is_built_once_per_run(monkeypatch):
    built = []
    stream = suites._stream

    def recording(seed, name):
        built.append(name)
        return stream(seed, name)

    monkeypatch.setattr(suites, "_stream", recording)
    checks = [c["name"] for c in suites.run_suite("all", 3, suites.Config())["checks"]]
    assert sorted(built) == sorted(STREAMS)
    for name in STREAMS:
        assert any(_reads(check, name) for check in checks), name


@pytest.mark.parametrize("name", STREAMS)
def test_an_extra_draw_in_one_stream_moves_no_other_check(monkeypatch, name):
    config = suites.Config()
    before = _report_bytes(5, config)
    stream = suites._stream

    def with_extra_draw(seed, stream_name):
        rng = stream(seed, stream_name)
        if stream_name == name:
            rng.random()
        return rng

    monkeypatch.setattr(suites, "_stream", with_extra_draw)
    after = _report_bytes(5, config)
    assert after.keys() == before.keys()
    moved = {check for check in before if after[check] != before[check]}
    assert all(_reads(check, name) for check in moved), moved


def _sweeps_alone(seed: int, samples: int) -> dict:
    """Each sampled sweep run alone on its own stream: check name -> residual."""
    def s(name):
        return suites._stream(seed, name)

    b = projective.FLBoost(np.array([0.5, 0, 0]), c=1.0, R=10.0)
    n = min(100, samples)
    out = {
        "orientation.transitive": suites._orientation_sweep(s("orientation.transitive"), samples),
        "cartan_dieudonne.reconstruction": suites._cartan_dieudonne_sweep(
            s("cartan_dieudonne.reconstruction"), max(20, samples // 4)),
        "rapidity.additive": suites._rapidity_sweep(s("rapidity.additive"), samples),
        "boost1d.hyperbolic_form": suites._hyperbolic_form_sweep(
            s("boost1d.hyperbolic_form"), samples),
        "boost1d.reciprocity": suites._reciprocity_sweep(s("boost1d.reciprocity"), samples),
        "compose.associative": suites._associativity_sweep(s("compose.associative"), samples),
        "proj.lines_to_lines": suites._lines_sweep(s("proj.lines_to_lines"))[0],
        "fl.conjugation": suites._fl_sweep(projective._conjugation_rows, b,
                                           s("fl.conjugation"), samples)[0],
        "fl.inverse": suites._fl_sweep(suites._inverse_rows, b, s("fl.inverse"), n)[0],
        "fl.large_scale_limit": suites._large_scale_sweep(
            *suites._fl_samples(s("fl.large_scale_limit"), n)),
        "fl.slab_table": suites._slab_sweep(s("fl.slab_table"), samples)[0],
        "mutual.orthogonality": suites._mutual_sweep(s("mutual.orthogonality"), samples // 4),
    }
    out["boost3d.isometry"], out["boost3d.equivariance"] = suites._boost3d_sweep(s("boost3d"))
    out["radar.orthogonal"], out["radar.product_identity"] = suites._radar_sweep(
        s("radar"), samples // 4)
    return out


@pytest.mark.parametrize("samples", [200, 800])
@pytest.mark.parametrize("seed", range(5))
def test_a_sweep_alone_reports_what_the_suite_reports(seed, samples):
    report = suites.run_suite("all", seed, suites.Config(samples=samples))
    reported = {c["name"]: c["residual"] for c in report["checks"]}
    alone = _sweeps_alone(seed, samples)
    assert {name: np.float64(reported[name]).tobytes() for name in alone} == {
        name: np.float64(value).tobytes() for name, value in alone.items()}
    assert report["passed"]
