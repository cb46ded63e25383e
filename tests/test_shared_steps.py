"""A structural guard: each step that several modules share has one home.
Payloads come from ``serialization.envelope``, check reports share one
``to_json``, ``ClassLayout.of`` labels components, a tree distance climbs once,
only ``ball`` marks a window as a ball, and ``Window.ids`` turns points into
window indices."""

import ast
import functools
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
    # components are labelled by the numpy union-find behind ClassLayout.of:
    # no module names scipy's labelling routine, no function but ``of`` calls
    # the union-find, and no module builds a ClassLayout from labels of its own
    for path in pathlib.Path(components.__file__).parent.glob("*.py"):
        assert "connected_components" not in path.read_text(), path.name
    callers, built = [], []
    for m in MODULES:
        tree = _tree(m)
        for f in ast.walk(tree):
            if isinstance(f, ast.FunctionDef):
                calls = {c.func.id for c in ast.walk(f) if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
                callers += [f"{m.__name__}.{f.name}"] if "_hook_and_shortcut" in calls else []
        built += [c for c in ast.walk(tree) if isinstance(c, ast.Call)
                  and getattr(c.func, "id", getattr(c.func, "attr", None)) == "ClassLayout"]
    assert callers == ["coarsekit.components.of"]
    assert built == []


def test_tree_distance_and_ball_windows_have_one_path():
    assert not hasattr(spaces.TreeSpace, "depth")
    assert list(inspect.signature(spaces.Window).parameters) == ["space", "points"]
    w = ck.ball(ck.make_space({"kind": "grid", "dim": 1}), [2], 3)
    assert (w.ball_center, w.ball_radius, w.is_ball) == ((2,), 3, True)
    assert not spaces.Window(w.space, w.points).is_ball


def _scopes(tree):
    """Each node of a module with the names of the classes and functions around
    it, and whether a loop or comprehension encloses it."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

    def visit(node, names, in_loop):
        yield node, names, in_loop
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names = names + (node.name,)
        in_loop = in_loop or isinstance(node, loops)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, names, in_loop)

    return visit(tree, (), False)


def test_one_method_looks_points_up_in_a_window():
    readers, loop_lookups = set(), set()
    for m in MODULES:
        for node, names, in_loop in _scopes(_tree(m)):
            if (isinstance(node, ast.Attribute) and node.attr == "_index"
                    or isinstance(node, ast.Name) and node.id == "_same_types"):
                readers.add((m.__name__, names[:1]))
            if (in_loop and isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("index", "ids")):
                loop_lookups.add((m.__name__, ast.unparse(node.func.value)))
    # _same_types names itself in its own recursion
    assert readers == {("coarsekit.spaces", ("Window",)), ("coarsekit.spaces", ("_same_types",))}
    # the one lookup in a loop is list.index on the free-group generator's list of
    # words: no w.index, and no w.ids, which takes a whole field in one call
    assert loop_lookups == {("coarsekit.spaces", "kids")}
    for name in ("_canon", "_point_ids", "_image_ids"):
        assert not any(hasattr(m, name) for m in MODULES) and not hasattr(spaces.Window, name)
    # the window's dict is its one point index: no second one is cached beside it
    cached = [k for k, v in vars(spaces.Window).items() if isinstance(v, functools.cached_property)]
    assert cached == ["layout"]
