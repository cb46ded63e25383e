"""The 0/1 operators that move window points come from one builder,
``operators._moves``.  Structure: no builder but ``make_operator`` hands
``BandedOperator`` a dict, none passes ``exact=``, and the cancellation witness
reads its projections off the shift's moves.  Oracles: each builder against the
dict definition it had before, on inputs where a move repeats."""

import ast
import pathlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import coarsekit as ck
from coarsekit.components import SegmentFamily
from coarsekit.errors import NoProbe
from coarsekit.operators import BandedOperator
from coarsekit.spaces import ProductFiniteSpace

SRC = pathlib.Path(ck.__file__).parent
Z = ck.make_space({"kind": "grid", "dim": 1})
Z2 = ck.make_space({"kind": "grid", "dim": 2})


def _is_dict(node) -> bool:
    """A dict display, a dict comprehension, or a dict(...) / dict.fromkeys(...) call."""
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return True
    f = node.func if isinstance(node, ast.Call) else None
    return (isinstance(f, ast.Name) and f.id == "dict"
            or isinstance(f, ast.Attribute) and f.attr == "fromkeys" and getattr(f.value, "id", None) == "dict")


def _functions():
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                yield path.name, fn


def test_only_make_operator_hands_banded_operator_a_dict():
    calls, given_dicts = 0, []
    for module, fn in _functions():
        # names bound to a dict in the function, annotated or not
        dicts = {t.id for node in ast.walk(fn) if isinstance(node, (ast.Assign, ast.AnnAssign))
                 and node.value is not None and _is_dict(node.value)
                 for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                 if isinstance(t, ast.Name)}
        for call in ast.walk(fn):
            if not (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "BandedOperator"):
                continue
            calls += 1
            assert not [k for k in call.keywords if k.arg == "exact"], (module, fn.name, call.lineno)
            entries = call.args[1]
            if _is_dict(entries) or isinstance(entries, ast.Name) and entries.id in dicts:
                given_dicts.append(fn.name)
    assert calls > 5 and given_dicts == ["make_operator"]


def test_the_cancellation_witness_reads_its_projections_off_the_moves():
    (fn,) = [fn for module, fn in _functions() if fn.name == "cancellation_witness"]
    called = {getattr(c.func, "id", None) or getattr(c.func, "attr", None)
              for c in ast.walk(fn) if isinstance(c, ast.Call)}
    assert "_shift_moves" in called and not called & {"char_projection", "canonical_sorted", "segment_shift"}


# -- the dict definitions the builders replaced --------------------------------

def _dict_projection(S, w):
    return BandedOperator(w, {(i, i): 1 for i in w.ids(S).tolist()})


def _dict_segment_shift(fam, w):
    ids = w.ids(fam.all_points()).tolist()
    entries = {(i, i): 1 for i in range(len(w)) if i not in set(ids)}
    for seg in fam.segments:
        run = [w.index(p) for p in seg]
        entries.update({(b, a): 1 for a, b in zip(run, run[1:])})
    return BandedOperator(w, entries)


def _dict_uf(wZ2, levels, f):
    prod = ProductFiniteSpace(Z2, levels)
    w = ck.Window(prod, [(p, n) for p in wZ2.points for n in range(1, levels + 1)])
    entries = {}
    for j, ((x, y), n) in enumerate(w.points):
        fx = f(x)
        target = ((x + 1, y), n) if 0 < n <= fx else ((x - 1, y), n) if 0 < n <= -fx else ((x, y), n)
        if target in w:
            entries[(w.index(target), j)] = 1
    return BandedOperator(w, entries)


def _same(op, ref):
    """Equal canonical matrices: int64, the same indptr, indices and ones."""
    A, B = op.matrix, ref.matrix
    assert A.dtype == B.dtype == np.int64 and A.has_canonical_format
    assert A.indptr.tolist() == B.indptr.tolist() and A.indices.tolist() == B.indices.tolist()
    assert A.data.tolist() == B.data.tolist() == [1] * A.nnz


def test_a_projection_onto_a_list_that_repeats_a_point():
    w = ck.ball(Z, (0,), 6)
    for S in ([(2,)] * 3, [(0,), (-6,), (0,), (6,), (-6,)], [], list(w.points) * 2):
        _same(ck.char_projection(S, w), _dict_projection(S, w))
    _same(ck.zero_operator(w), _dict_projection([], w))


_SEGMENTS = st.lists(st.lists(st.integers(-8, 8), max_size=6), max_size=5)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(segs=_SEGMENTS)
def test_segment_shift_and_cancellation_projections_match_their_definitions(segs):
    # overlapping segments, a point repeated inside one, one-point and empty
    # segments, and the empty family
    w = ck.ball(Z, (0,), 8)
    fam = SegmentFamily(Z, 1, tuple(tuple((x,) for x in s) for s in segs))
    _same(ck.segment_shift(fam, w), _dict_segment_shift(fam, w))
    if not any(segs) or not all(segs):  # a probe needs every segment to have a first point
        return
    try:
        cw = ck.cancellation_witness(fam, w, 1)
    except NoProbe:
        return
    A = {p for seg in fam.segments for p in seg[:-1]}
    B = {p for seg in fam.segments for p in seg[1:]}
    rest = [p for p in w.points if p not in set(fam.all_points())]
    _same(cw.p, _dict_projection(sorted(A) + rest, w))
    _same(cw.q, _dict_projection(sorted(B) + rest, w))
    _same(cw.v, _dict_segment_shift(fam, w))


def test_build_uf_for_an_f_that_is_not_a_permutation():
    # f = 1 on even columns only: column 2k and 2k + 1 both send level 1 to
    # column 2k + 1, so a row holds two ones and a column none
    w2 = ck.ball(Z2, (0, 0), 4)
    for levels, f in ((2, lambda x: int(x % 2 == 0)), (3, lambda x: (x % 3) - 1 + (x % 2)),
                      (1, lambda x: -1 if x > 0 else 1)):
        _same(ck.build_uf(w2, levels, f), _dict_uf(w2, levels, f))
    u = ck.build_uf(w2, 2, lambda x: int(x % 2 == 0))
    assert int(np.diff(u.matrix.indptr).max()) == 2
