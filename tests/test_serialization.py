"""Round trips through the JSON envelopes, independent of the CLI."""

import copy
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coarsekit as ck
from coarsekit import serialization as ser
from coarsekit.amenability import MatchingOutcome
from coarsekit.errors import CoarseKitError, MalformedSpec, SegmentOutsideWindow
from coarsekit.operators import make_operator
from coarsekit.spaces import FreeGroupSpace, GridSpace

Z = ck.make_space({"kind": "grid", "dim": 1})
F2 = ck.make_space({"kind": "free_group", "rank": 2})


def test_window_json_both_forms():
    b = ck.ball(F2, "a", 2)
    again = ck.window_from_json(F2, b.to_json())
    assert again.points == b.points and again.is_ball

    w = ck.Window(Z, [(3,), (-1,), (7,)])
    again = ck.window_from_json(Z, w.to_json())
    assert again.points == w.points and not again.is_ball


def test_operator_payload_round_trip():
    w = ck.ball(Z, (0,), 4)
    a = make_operator(
        w, {((1,), (0,)): 1, ((0,), (0,)): complex(0.5, -0.25), ((-3,), (-4,)): 2}
    )
    payload = ser.operator_to_payload(a)
    text = ser.canonical_dumps(payload)
    again = ser.operator_from_payload(json.loads(text))
    assert again.equals(a, tol=0)
    assert again.propagation == a.propagation


def test_cover_payload_round_trip():
    w = ck.Window(Z, [(x,) for x in range(-40, 41)])
    cover = ck.witness_line(3, w)
    again = ser.cover_from_payload(json.loads(ser.canonical_dumps(ser.cover_to_payload(cover))))
    assert again.colors == cover.colors
    assert again.r == cover.r and again.bound == cover.bound
    ok, _ = ser.verify_payload(ser.cover_to_payload(cover))
    assert ok


def test_segment_payload_round_trip():
    fam = ck.extract_segments(Z, 1, 3, ck.ball(Z, (0,), 200))
    payload = ser.segments_to_payload(fam)
    again = ser.segments_from_payload(json.loads(ser.canonical_dumps(payload)))
    assert again.segments == fam.segments
    ok, _ = ser.verify_payload(payload)
    assert ok


def test_doubling_payload_round_trip():
    out = ck.matching_certificate(ck.ball(F2, "", 3), 1)
    payload = ser.doubling_to_payload(out.doubling)
    again = ser.doubling_from_payload(json.loads(ser.canonical_dumps(payload)))
    assert ck.verify_doubling(again)["ok"]
    assert again.u_plus == out.doubling.u_plus


def test_paradox_payload_detects_tampering():
    p = ck.paradox_free_group(2)
    w = ck.ball(F2, "", 3)
    payload = ser.paradox_to_payload(p, w)
    ok, _ = ser.verify_payload(payload)
    assert ok
    tampered = json.loads(ser.canonical_dumps(payload))
    # rewire one pair so the translation collides
    tampered["t_plus"][0][1] = tampered["t_plus"][1][1]
    ok2, report = ser.verify_payload(tampered)
    assert not ok2
    assert not report["injective_ok"]["plus"]


def test_canonical_dumps_is_stable():
    payload = {"b": 1, "a": {"z": [3, 2], "y": None}}
    assert ser.canonical_dumps(payload) == ser.canonical_dumps(json.loads(ser.canonical_dumps(payload)))


def test_operator_payload_entries_must_be_a_list():
    payload = ser.operator_to_payload(make_operator(ck.ball(Z, (0,), 2), {((0,), (0,)): 1}))
    for entries in ({"[0]": 1}, None):
        payload["entries"] = entries
        with pytest.raises(MalformedSpec, match="'entries' list"):
            ser.operator_from_payload(payload)


# -- the field table: every kind, every field, mutated ------------------------

Z2 = ck.make_space({"kind": "grid", "dim": 2})


def _valid_payloads() -> dict:
    """One small valid payload per kind in FIELDS, as JSON would hand it back."""
    line = ck.Window(Z, [(x,) for x in range(-12, 13)])
    budget = ck.ball(Z, (0,), 40)
    b3 = ck.ball(F2, "", 3)
    z_ball = ck.ball(Z, (0,), 8)
    cut = ck.matching_certificate(z_ball, 1)
    cert = ck.folner_search_report(Z2, 1, Fraction(1, 2), ck.FolnerBudget()).certificate
    out = {
        "colored_cover": ser.cover_to_payload(ck.witness_line(2, line)),
        "scale_partition": ser.partition_to_payload(ck.components_at_scale(ck.ball(Z2, (0, 0), 2), 1)),
        "segment_family": ser.segments_to_payload(ck.extract_segments(Z, 1, 3, budget), budget),
        "folner_certificate": ser.folner_to_payload(cert),
        "windowed_doubling": ser.doubling_to_payload(ck.matching_certificate(b3, 1).doubling),
        "paradox_window": ser.paradox_to_payload(ck.paradox_free_group(2), b3),
        "matching_cut": ser.matching_cut_to_payload(z_ball, 1, cut),
        "banded_operator": ser.operator_to_payload(
            make_operator(z_ball, {((1,), (0,)): 1, ((0,), (0,)): complex(0.5, -0.25)})),
    }
    return {kind: json.loads(ser.canonical_dumps(p)) for kind, p in out.items()}


VALID = _valid_payloads()
DROP = "<drop>"
# drop, retype, bool, null, negative; [] keeps a list-typed field's type
MUTATIONS = [DROP, "x", [], {}, True, None, -1, 1.5]
# the segment family's budget window is optional
OPTIONAL = {("segment_family", "window")}


def _paths(kind):
    """Every field of a kind in FIELDS, and the fields nested in its window."""
    out = [(name,) for name in ser.FIELDS[kind]]
    for form, inner in VALID[kind].get("window", {}).items():
        out += [("window", form)] if form == "points" else [("window", form, k) for k in inner]
    return out


def _mutate(payload, path, m):
    data = copy.deepcopy(payload)
    *outer, last = path
    node = data
    for key in outer:
        node = node[key]
    if m == DROP:
        del node[last]
    else:
        node[last] = m
    return data


def _get(payload, path):
    for key in path:
        payload = payload[key]
    return payload


def _breaks_type(kind, path, m) -> bool:
    """Whether the mutation leaves the JSON types that FIELDS accepts; a ball
    center is a point, whose type the space checks (UnknownPoint)."""
    if path[-1] == "center" and m != DROP:
        return False
    if len(path) == 1 and (kind, path[0]) in OPTIONAL and m in (DROP, None):
        return False
    return not (m == [] and isinstance(_get(VALID[kind], path), list))


def test_valid_payloads_verify_and_round_trip():
    readers = {
        "colored_cover": lambda d: ser.cover_to_payload(ser.cover_from_payload(d)),
        "scale_partition": lambda d: ser.partition_to_payload(
            ck.ScalePartition(**ser.read_payload(d, "scale_partition")[1])),
        "segment_family": lambda d: ser.segments_to_payload(
            ser.segments_from_payload(d), ser.read_payload(d, "segment_family")[1]["window"]),
        "folner_certificate": lambda d: ser.folner_to_payload(ser.folner_from_payload(d)),
        "windowed_doubling": lambda d: ser.doubling_to_payload(ser.doubling_from_payload(d)),
        "paradox_window": lambda d: ser.paradox_to_payload(
            ser.paradox_from_payload(d), ser.read_payload(d, "paradox_window")[1]["window"]),
        "matching_cut": _matching_cut_round_trip,
        "banded_operator": lambda d: ser.operator_to_payload(ser.operator_from_payload(d)),
    }
    assert set(VALID) == set(ser.FIELDS) == set(readers)
    for kind, payload in VALID.items():
        if kind in ser.VERIFIERS:
            assert ser.verify_payload(payload)[0], kind
        text = ser.canonical_dumps(payload)
        assert ser.canonical_dumps(readers[kind](json.loads(text))) == text, kind


def _matching_cut_round_trip(d):
    f = ser.read_payload(d, "matching_cut")[1]
    outcome = MatchingOutcome(False, None, f["cut"], f["cut_neighborhood_size"], d["flow_value"])
    return ser.matching_cut_to_payload(f["window"], f["r"], outcome)


def test_field_mutations_raise_only_coarsekit_errors():
    """Every field of every kind, and every field of its window, mutated each way."""
    for kind in ser.FIELDS:
        for path in _paths(kind):
            for m in MUTATIONS:
                bad = _mutate(VALID[kind], path, m)
                try:
                    ser.verify_payload(bad)
                except CoarseKitError:
                    pass
                if _breaks_type(kind, path, m):
                    with pytest.raises(MalformedSpec):
                        ser.read_payload(bad, kind)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats(-3, 8) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_fuzzed_values_raise_only_coarsekit_errors(data):
    """Any JSON value in place of a field, or of the first element some lists
    deep inside it, is verified or refused with a CoarseKitError."""
    kind = data.draw(st.sampled_from(sorted(ser.FIELDS)), label="kind")
    path = data.draw(st.sampled_from(_paths(kind)), label="path")
    node = _get(VALID[kind], path)
    for _ in range(data.draw(st.integers(0, 3), label="depth")):
        if not (isinstance(node, list) and node):
            break
        path, node = (*path, 0), node[0]
    bad = _mutate(VALID[kind], path, data.draw(JSON, label="value"))
    try:
        ser.verify_payload(bad)
    except CoarseKitError:
        pass


@pytest.mark.parametrize("kind", [["colored_cover"], {"k": 1}, None, 7, "space_report"])
def test_unverifiable_kinds_are_malformed(kind):
    with pytest.raises(MalformedSpec, match="cannot verify payload of kind"):
        ser.verify_payload(dict(VALID["colored_cover"], kind=kind))


def test_mistyped_field_error_names_kind_and_field():
    with pytest.raises(MalformedSpec, match="a colored_cover payload needs a 'r' int >= 0"):
        ser.verify_payload(dict(VALID["colored_cover"], r=True))
    with pytest.raises(MalformedSpec, match="a windowed_doubling payload needs a 'u_plus' list of"):
        ser.verify_payload(dict(VALID["windowed_doubling"], u_plus=[["a", "b", "A"]]))


def test_cli_verify_of_mutated_payloads_exits_cleanly(tmp_path):
    """A sample through the real entry point: exit 0, 1 or 3, never a traceback."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"), os.environ.get("PYTHONPATH", "")]))
    sample = [("colored_cover", ("colors",), 1.5), ("paradox_window", ("window", "ball", "radius"), "3"),
              ("segment_family", ("segments",), []), ("folner_certificate", ("eps",), None)]
    for n, (kind, path, m) in enumerate(sample):
        f = tmp_path / f"p{n}.json"
        f.write_text(json.dumps(_mutate(VALID[kind], path, m)))
        proc = subprocess.run([sys.executable, "-m", "coarsekit.cli", "verify", "--file", str(f)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode in (0, 1, 3), (kind, path, proc.stderr)
        assert "Traceback" not in proc.stderr, proc.stderr


# -- regressions: degenerate and mistyped certificates -------------------------

def test_empty_segment_family_fails():
    for segments in ([], [[], [[0], [1]]]):
        ok, report = ser.verify_payload(dict(VALID["segment_family"], segments=segments))
        assert not ok and report["first_violation"] == {"condition": "lengths"}


def test_stated_folner_ratio_must_match_recomputation():
    cert = VALID["folner_certificate"]
    assert cert["ratio"] != "2"
    ok, report = ser.verify_payload(dict(cert, ratio="2"))
    assert not ok and report["reason"] == "ratio"
    # an empty F fails by name before any ratio is formed
    ok, report = ser.verify_payload(dict(cert, F=[], neighborhood_size=0, ratio="0"))
    assert not ok and report["reason"] == "empty_F"


@pytest.mark.parametrize("c", [2**63 + 5, 2**63 - 1])
def test_folner_neighbourhoods_beyond_int64_are_counted_exactly(c):
    # |N_1({c})| = 3 in Z; a float or wrapped int64 coordinate miscounts it
    cert = {"schema": "coarsekit/1", "kind": "folner_certificate", "space": {"kind": "grid", "dim": 1},
            "F": [[c]], "r": 1, "eps": "1/2", "neighborhood_size": 1, "ratio": "1"}
    ok, report = ser.verify_payload(cert)
    assert not ok and report["recomputed"] == 3
    assert ser.verify_payload(dict(cert, eps="2", neighborhood_size=3, ratio="3"))[0]


def test_stated_paradox_carrier_must_match_recomputation():
    payload = VALID["paradox_window"]
    for carrier in ([], payload["carrier"][1:], payload["carrier"][::-1]):
        ok, report = ser.verify_payload(dict(payload, carrier=carrier))
        assert not ok and report["witness"] == {"kind": "stated_carrier"}


def test_segments_outside_their_budget_window_are_refused():
    payload = dict(VALID["segment_family"], window={"ball": {"center": [0], "radius": 2}})
    with pytest.raises(SegmentOutsideWindow):
        ser.verify_payload(payload)
    # without a window there is nothing to leave
    del payload["window"]
    assert ser.verify_payload(payload)[0]


@pytest.mark.parametrize("kind, field, value", [
    ("colored_cover", "r", True), ("colored_cover", "r", -1), ("folner_certificate", "eps", 1.5),
])
def test_mistyped_numbers_are_malformed(kind, field, value):
    with pytest.raises(MalformedSpec, match=f"{kind} payload needs a '{field}'"):
        ser.verify_payload(dict(VALID[kind], **{field: value}))


@pytest.mark.parametrize("spec", [
    {"ball": {"center": [0]}}, {"ball": {"center": [0], "radius": "3"}},
    {"ball": {"center": [0], "radius": True}}, {"ball": {"center": [0], "radius": -1}},
    {"ball": [0, 3]}, {"points": 5}, {}, [0, 3], None,
])
def test_window_from_json_refuses_malformed_specs(spec):
    with pytest.raises(MalformedSpec):
        ck.window_from_json(Z, spec)


# -- the normalize gate: each payload point is normalised once ------------------

def _normalize_calls(monkeypatch, cls, payload) -> int:
    calls = []
    orig = cls.normalize
    monkeypatch.setattr(cls, "normalize", lambda self, x: calls.append(1) or orig(self, x))
    ok, _ = ser.verify_payload(json.loads(ser.canonical_dumps(payload)))
    monkeypatch.undo()
    assert ok
    return len(calls)


def test_verify_payload_normalize_calls_may_only_fall(monkeypatch):
    b6 = ck.ball(F2, "", 6)
    paradox = ser.paradox_to_payload(ck.paradox_free_group(2), b6)
    cover = ser.cover_to_payload(ck.witness_line(3, ck.ball(Z, (0,), 4000)))
    doubling = ser.doubling_to_payload(ck.matching_certificate(b6, 1).doubling)
    assert _normalize_calls(monkeypatch, FreeGroupSpace, paradox) <= 4372
    assert _normalize_calls(monkeypatch, GridSpace, cover) <= 8002
    assert _normalize_calls(monkeypatch, FreeGroupSpace, doubling) <= 2426
