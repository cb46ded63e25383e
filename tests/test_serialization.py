"""Round trips through the JSON envelopes, independent of the CLI."""

import json

import pytest

import coarsekit as ck
from coarsekit import serialization as ser
from coarsekit.errors import MalformedSpec
from coarsekit.operators import make_operator

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
