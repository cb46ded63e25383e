"""A structural guard: each step that several modules share has one home.
Payloads come from ``serialization.envelope``, check reports share one
``to_json``, ``ClassLayout.of`` labels components, a tree distance climbs once,
and only ``ball`` marks a window as a ball."""

import ast
import inspect
import pathlib

import coarsekit as ck
from coarsekit import amenability, cli, components, covers, errors, maps, operators, serialization, spaces

MODULES = (amenability, cli, components, covers, errors, maps, operators, serialization, spaces)


def _tree(module):
    return ast.parse(pathlib.Path(module.__file__).read_text())


def test_one_class_defines_the_report_to_json():
    reports = {c for m in MODULES for _, c in inspect.getmembers(m, inspect.isclass)
               if c.__module__ == m.__name__ and hasattr(c, "passed")}
    assert {c.__name__ for c in reports} == {
        "CoverReport", "SegmentConditionReport", "ParadoxReport", "ProperInfiniteReport", "QuasiReport",
        "OmegaMembershipReport"}
    assert {c.to_json.__qualname__ for c in reports} == {"Report.to_json"}


def test_the_cli_builds_no_payload_by_hand():
    tree = _tree(cli)
    keys = {k.value for d in ast.walk(tree) if isinstance(d, ast.Dict)
            for k in d.keys if isinstance(k, ast.Constant)}
    assert "schema" not in keys
    assigned = [t.slice.value for a in ast.walk(tree) if isinstance(a, ast.Assign) for t in a.targets
                if isinstance(t, ast.Subscript) and isinstance(t.slice, ast.Constant)]
    assert "kind" not in assigned and "verification" in assigned


def test_one_function_labels_components():
    def names(node):
        return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
                | {a.name for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))
                   for a in n.names})

    callers = []
    for m in MODULES:
        tree = _tree(m)
        assert not any("connected_components" in names(node) for node in tree.body
                       if not isinstance(node, (ast.ClassDef, ast.FunctionDef)))
        callers += [f"{m.__name__}.{f.name}" for f in ast.walk(tree)
                    if isinstance(f, ast.FunctionDef) and "connected_components" in names(f)]
    assert callers == ["coarsekit.components.of"]


def test_tree_distance_and_ball_windows_have_one_path():
    assert not hasattr(spaces.TreeSpace, "depth")
    assert list(inspect.signature(spaces.Window).parameters) == ["space", "points"]
    w = ck.ball(ck.make_space({"kind": "grid", "dim": 1}), [2], 3)
    assert (w.ball_center, w.ball_radius, w.is_ball) == ((2,), 3, True)
    assert not spaces.Window(w.space, w.points).is_ball
