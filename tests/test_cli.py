"""Exit-code contract, round-trip serialization, and determinism, one command
per subcommand."""

import json
import math
import os
import subprocess
import sys
import time

import pytest

import coarsekit as ck
from coarsekit import serialization
from coarsekit.cli import main, run
from coarsekit.errors import IntegerOverflow

Z = ck.make_space({"kind": "grid", "dim": 1})


@pytest.fixture
def specs(tmp_path):
    paths = {}
    for name, spec in {
        "z": {"kind": "grid", "dim": 1},
        "z2": {"kind": "grid", "dim": 2},
        "fg2": {"kind": "free_group", "rank": 2},
        "pl": {"kind": "point_line", "coords": [2**k for k in range(13)]},
    }.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(spec))
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def payload_bytes(result):
    return serialization.canonical_dumps(result.payload)


def test_space_command(specs):
    res = run(["space", "--space", specs["z"], "--window-radius", "10", "--r", "1"])
    assert res.exit_code == 0
    assert res.payload["bounded_geometry_profile"] == 3
    assert res.payload["metric_check"]["ok"]


def test_space_command_malformed(specs, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "grid", "dim": 0}))
    assert run(["space", "--space", str(bad), "--window-radius", "2"]).exit_code == 3


def test_components_round_trip(specs):
    res = run(["components", "--space", specs["pl"], "--r", "3"])
    assert res.exit_code == 0
    ok, _ = serialization.verify_payload(res.payload)
    assert ok


def test_components_profile_tags(specs):
    res = run(["components", "--space", specs["z"], "--r", "1",
               "--profile-radii", "2,5,9"])
    assert res.exit_code == 0
    assert res.payload["profile"] == [5, 11, 19]
    assert res.payload["tag"] == "growing"
    res2 = run(["components", "--space", specs["pl"], "--r", "3",
                "--profile-radii", "20,200,2000"])
    assert res2.payload["profile"] == [3, 3, 3]
    assert res2.payload["tag"] == "bounded so far"


def test_segments_command(specs, tmp_path):
    res = run(
        ["segments", "--space", specs["z"], "--r", "1", "--count", "4", "--budget-radius", "400"]
    )
    assert res.exit_code == 0
    assert res.payload["verification"]["passed"]
    saved = tmp_path / "segs.json"
    saved.write_text(serialization.canonical_dumps(res.payload))
    assert run(["verify", "--file", str(saved)]).exit_code == 0
    res2 = run(
        ["segments", "--space", specs["pl"], "--r", "1", "--count", "2", "--budget-radius", "1"]
    )
    assert res2.exit_code == 2


def test_asdim_witness_verify_cycle(specs, tmp_path):
    cover_file = tmp_path / "cover.json"
    res = run(
        [
            "asdim", "witness", "--construction", "line", "--space", specs["z"],
            "--window-radius", "40", "--r", "2", "--out", str(cover_file),
        ]
    )
    assert res.exit_code == 0
    res2 = run(["asdim", "verify", "--cover", str(cover_file)])
    assert res2.exit_code == 0
    # corrupt the cover: drop a piece, partition must fail
    data = json.loads(cover_file.read_text())
    data["colors"][0] = data["colors"][0][1:]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    assert run(["asdim", "verify", "--cover", str(broken)]).exit_code == 1


def test_asdim_greedy(specs):
    res = run(
        ["asdim", "greedy", "--space", specs["z"], "--window-radius", "30",
         "--r", "2", "--d", "1", "--bound", "10"]
    )
    assert res.exit_code == 0
    res2 = run(
        ["asdim", "greedy", "--space", specs["z"], "--window-radius", "30",
         "--r", "2", "--d", "0", "--bound", "10"]
    )
    assert res2.exit_code == 2


def test_folner_exit_codes(specs):
    res = run(["folner", "--space", specs["z"], "--r", "1", "--eps", "1/10"])
    assert res.exit_code == 0
    ok, _ = serialization.verify_payload(res.payload)
    assert ok
    res2 = run(
        ["folner", "--space", specs["fg2"], "--r", "1", "--eps", "1/10",
         "--budget", "subsets-of-ball:1"]
    )
    assert res2.exit_code == 2


def test_folner_local_budget_improves_on_the_best_ball(specs, tmp_path):
    # on Z at r = 1, eps = 1/3 no ball of radius <= 2 passes; local moves from
    # the best of them reach a 6-point interval, ratio 8/6
    argv = ["folner", "--space", specs["z"], "--r", "1", "--eps", "1/3", "--budget"]
    balls = run(argv + ["balls:2"])
    assert balls.exit_code == 2
    assert (balls.payload["best_ratio"], balls.payload["candidates_tested"]) == ("7/5", 3)
    out = str(tmp_path / "folner.json")
    local = run(argv + ["local:2,1", "--out", out])
    assert local.exit_code == 0
    p = local.payload
    assert (len(p["F"]), p["neighborhood_size"], p["ratio"], p["candidates_tested"]) == (6, 8, "4/3", 9)
    assert run(["verify", "--file", out]).exit_code == 0


def test_paradox_command(specs):
    res = run(["paradox", "--space", specs["fg2"], "--window-radius", "4"])
    assert res.exit_code == 0
    ok, _ = serialization.verify_payload(res.payload)
    assert ok


def test_matching_command(specs):
    res = run(["matching", "--space", specs["fg2"], "--window-radius", "4", "--r", "1"])
    assert res.exit_code == 0
    ok, _ = serialization.verify_payload(res.payload)
    assert ok
    res2 = run(["matching", "--space", specs["z"], "--window-radius", "50", "--r", "1"])
    assert res2.exit_code == 2
    assert res2.payload["cut_neighborhood_size"] < 2 * len(res2.payload["cut"])
    # the infeasibility cut is itself a re-checkable certificate
    ok2, _ = serialization.verify_payload(res2.payload)
    assert ok2


def test_op_commands(specs, tmp_path):
    op_file = tmp_path / "a.json"
    op_file.write_text(json.dumps({"entries": [[[0], [0], 0.9, 0], [[1], [1], 0.9, 0]]}))
    base = ["--space", specs["z"], "--window-radius", "1", "--a", str(op_file)]
    res = run(["op", *base, "--action", "norm"])
    assert res.exit_code == 0
    assert abs(res.payload["value"] - 0.9) < 1e-12
    res2 = run(["op", *base, "--action", "quasi-projection", "--r", "0"])
    assert res2.exit_code == 0
    half = tmp_path / "b.json"
    half.write_text(json.dumps({"entries": [[[0], [0], 0.5, 0], [[1], [1], 0.5, 0]]}))
    res3 = run(["op", "--space", specs["z"], "--window-radius", "1", "--a", str(half),
                "--action", "quasi-projection", "--r", "0"])
    assert res3.exit_code == 1


def test_quasi_projection_fails_on_one_large_deviation(specs, tmp_path):
    # one point of 801 at |a^2 - a| = 0.12500125, the rest at 0.1249875; a
    # norm by power iteration over the whole window read 0.1249875 and exited 0
    root = lambda v: (1 - math.sqrt(1 - 4 * v)) / 2  # a - a^2 = v
    op_file = tmp_path / "a.json"
    op_file.write_text(json.dumps({"entries": [
        [[x], [x], root(0.12500125 if x == 0 else 0.1249875), 0] for x in range(-400, 401)]}))
    res = run(["op", "--space", specs["z"], "--window-radius", "400", "--a", str(op_file),
               "--action", "quasi-projection", "--r", "0", "--eps", "0.125"])
    assert res.exit_code == 1
    assert res.payload["deviations"]["idempotent"] > 0.125


def test_op_arithmetic_actions(specs, tmp_path):
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"entries": [[[1], [0], 1, 0]]}))
    b = tmp_path / "b.json"
    b.write_text(json.dumps({"entries": [[[0], [1], 0, 1]]}))
    base = ["--space", specs["z"], "--window-radius", "2"]
    res = run(["op", *base, "--a", str(a), "--b", str(b), "--action", "mul"])
    assert res.exit_code == 0
    assert res.payload["entries"] == [[[1], [1], 0.0, 1.0]]
    res2 = run(["op", *base, "--a", str(a), "--b", str(b), "--action", "add"])
    assert res2.exit_code == 0 and len(res2.payload["entries"]) == 2
    res3 = run(["op", *base, "--a", str(a), "--action", "adjoint"])
    assert res3.exit_code == 0
    assert res3.payload["entries"] == [[[0], [1], 1.0, 0.0]]
    res4 = run(["op", *base, "--a", str(a), "--action", "mul"])  # missing --b
    assert res4.exit_code == 3


def test_window_file_form(specs, tmp_path):
    wf = tmp_path / "w.json"
    wf.write_text(json.dumps({"points": [[0], [1], [2], [10]]}))
    res = run(["components", "--space", specs["z"], "--window-file", str(wf), "--r", "1"])
    assert res.exit_code == 0
    assert [len(c) for c in res.payload["classes"]] == [3, 1]


@pytest.mark.parametrize("sub", ["components", "matching"])
def test_tiny_tree_window_at_a_huge_scale(sub, tmp_path):
    # the 3-ary tree's balls grow about 3x per unit of radius: at r = 12 the
    # scale pairs and the interior used to enumerate one per point
    tree, wf = tmp_path / "t3.json", tmp_path / "w.json"
    tree.write_text(json.dumps({"kind": "tree", "branching": 3}))
    wf.write_text(json.dumps({"points": [0, 5, 17, 100]}))
    payloads = {}
    for r in ("8", "1000"):
        start = time.perf_counter()
        res = run([sub, "--space", str(tree), "--window-file", str(wf), "--r", r])
        assert time.perf_counter() - start < 1 and res.exit_code == 0
        payloads[r] = {k: v for k, v in res.payload.items() if k != "r"}
    # the r = 8 payload, as the per-point code printed it
    assert payloads["1000"] == payloads["8"]
    if sub == "components":
        assert payloads["8"]["classes"] == [[0, 5, 17, 100]]
    else:
        assert payloads["8"]["interior"] == [] and payloads["8"]["flow_value"] == 0


def test_af_approx_propagation_outside_int64_exits_3(tmp_path):
    wf, op = tmp_path / "w.json", tmp_path / "a.json"
    wf.write_text(json.dumps({"points": [[-2**62], [2**62]]}))
    op.write_text(json.dumps({"entries": [[[-2**62], [2**62], 1, 0]]}))
    z = tmp_path / "z.json"
    z.write_text(json.dumps({"kind": "grid", "dim": 1}))
    res = run(["af-approx", "--space", str(z), "--window-file", str(wf), "--a", str(op),
               "--r", "1", "--eps", "0.1"])
    # before, the distance came back as a Python int and was reported as too large a propagation
    assert res.exit_code == 3 and res.payload["error"] == "IntegerOverflow"


def test_classify_without_target_window(specs, tmp_path):
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps({"pairs": [[[x], [x]] for x in range(-5, 6)]}))
    res = run(["classify", "--space", specs["z"], "--window-radius", "5",
               "--map", str(mp), "--target-space", specs["z"]])
    assert res.exit_code == 0
    assert res.payload["equivalence"] is None
    assert res.payload["uniformly_expansive"]


def test_af_approx_command(specs, tmp_path):
    op_file = tmp_path / "a.json"
    op_file.write_text(json.dumps({"entries": [[[x], [x], 1, 0] for x in range(-5, 6)]}))
    res = run(
        ["af-approx", "--space", specs["z"], "--window-radius", "5", "--a", str(op_file),
         "--r", "1", "--eps", "0.25"]
    )
    assert res.exit_code == 0
    assert res.payload["error"] < 0.25


def test_mv_split_command(specs, tmp_path):
    cover_file = tmp_path / "cover.json"
    run(
        ["asdim", "witness", "--construction", "line", "--space", specs["z"],
         "--window-radius", "50", "--r", "5", "--out", str(cover_file)]
    )
    op_file = tmp_path / "shift.json"
    op_file.write_text(
        json.dumps({"entries": [[[x + 1], [x], 1, 0] for x in range(-50, 50)]})
    )
    res = run(
        ["mv-split", "--space", specs["z"], "--window-radius", "50",
         "--a", str(op_file), "--cover", str(cover_file)]
    )
    assert res.exit_code == 0
    assert res.payload["sum_exact"]


def test_classify_command(specs, tmp_path):
    map_file = tmp_path / "map.json"
    map_file.write_text(json.dumps({"pairs": [[[x], [2 * x]] for x in range(-10, 11)]}))
    res = run(
        ["classify", "--space", specs["z"], "--window-radius", "10", "--map", str(map_file),
         "--target-space", specs["z"], "--target-window-radius", "20", "--c", "1"]
    )
    assert res.exit_code == 0
    assert res.payload["equivalence"] and res.payload["bi_lipschitz"]


def test_verify_dispatch_and_unknown_kind(specs, tmp_path):
    res = run(["folner", "--space", specs["z"], "--r", "1", "--eps", "1/10"])
    cert = tmp_path / "cert.json"
    cert.write_text(serialization.canonical_dumps(res.payload))
    assert run(["verify", "--file", str(cert)]).exit_code == 0
    junk = tmp_path / "junk.json"
    junk.write_text(json.dumps({"schema": "coarsekit/1", "kind": "mystery"}))
    assert run(["verify", "--file", str(junk)]).exit_code == 3


def test_byte_identical_reruns(specs):
    argv = ["matching", "--space", specs["fg2"], "--window-radius", "4", "--r", "1"]
    first = payload_bytes(run(argv))
    second = payload_bytes(run(argv))
    assert first == second
    argv2 = ["components", "--space", specs["pl"], "--r", "3"]
    assert payload_bytes(run(argv2)) == payload_bytes(run(argv2))


@pytest.mark.parametrize("space, center", [
    ({"kind": "grid", "dim": 1}, [0]),
    ({"kind": "free_group", "rank": 2}, ""),
])
def test_verify_rejects_forged_empty_paradox(tmp_path, space, center):
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps({
        "schema": "coarsekit/1", "kind": "paradox_window", "space": space,
        "window": {"ball": {"center": center, "radius": 3}}, "displacement": 1,
        "carrier": [], "plus": [], "minus": [], "t_plus": [], "t_minus": [], "tag": ""}))
    res = run(["verify", "--file", str(forged)])
    assert res.exit_code == 1
    assert res.payload["report"]["witness"] == {"kind": "empty_carrier"}


def test_verify_rejects_empty_folner_set(tmp_path):
    cert = tmp_path / "empty.json"
    cert.write_text(json.dumps({
        "schema": "coarsekit/1", "kind": "folner_certificate",
        "space": {"kind": "grid", "dim": 1}, "F": [], "r": 1, "eps": "1/10",
        "neighborhood_size": 0, "ratio": "0"}))
    res = run(["verify", "--file", str(cert)])
    assert res.exit_code == 1
    assert res.payload["report"]["reason"] == "empty_F"


# -- operator files checked at the boundary ------------------------------------------

def _op_file(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


@pytest.mark.parametrize("flag", ["--a", "--b"])
def test_op_file_without_entries_exits_3(specs, tmp_path, flag):
    files = {"--a": _op_file(tmp_path, "good.json", {"entries": [[[0], [0], 1, 0]]}),
             "--b": _op_file(tmp_path, "good.json", {"entries": [[[0], [0], 1, 0]]})}
    files[flag] = _op_file(tmp_path, "empty.json", {})
    res = run(["op", "--space", specs["z"], "--window-radius", "3",
               "--a", files["--a"], "--b", files["--b"], "--action", "add"])
    assert res.exit_code == 3 and res.payload["error"] == "MalformedSpec"


def test_af_approx_and_mv_split_without_entries_exit_3(specs, tmp_path):
    empty = _op_file(tmp_path, "empty.json", {"kind": "banded_operator"})
    res = run(["af-approx", "--space", specs["z"], "--window-radius", "3", "--a", empty,
               "--r", "1", "--eps", "0.25"])
    assert res.exit_code == 3 and res.payload["error"] == "MalformedSpec"
    cover = str(tmp_path / "cover.json")
    run(["asdim", "witness", "--construction", "line", "--space", specs["z"],
         "--window-radius", "10", "--r", "1", "--out", cover])
    res = run(["mv-split", "--space", specs["z"], "--window-radius", "10", "--a", empty,
               "--cover", cover])
    assert res.exit_code == 3 and res.payload["error"] == "MalformedSpec"


@pytest.mark.parametrize("entry, eps", [
    ([[0], [0], 1, 0], "nan"),
    ([[0], [0], 1e308, 1], "0.1"),  # the lattice coordinate leaves float range
])
def test_af_approx_bad_eps_exits_3(specs, tmp_path, entry, eps):
    a = _op_file(tmp_path, "a.json", {"entries": [entry]})
    res = run(["af-approx", "--space", specs["z"], "--window-radius", "2", "--a", a,
               "--r", "1", "--eps", eps])
    assert res.exit_code == 3 and res.payload["error"] == "MalformedSpec"


@pytest.mark.parametrize("action", ["quasi-projection", "quasi-unitary"])
def test_op_quasi_eps_nan_or_negative_exits_3(specs, tmp_path, action):
    a = _op_file(tmp_path, "a.json", {"entries": [[[x], [x], 1, 0] for x in range(-2, 3)]})
    base = ["op", "--space", specs["z"], "--window-radius", "2", "--a", a, "--action", action,
            "--r", "0", "--eps"]
    for eps in ("nan", "-1"):
        res = run([*base, eps])
        assert res.exit_code == 3 and res.payload["error"] == "MalformedSpec"
    assert run([*base, "0"]).exit_code == 0


@pytest.mark.parametrize("entries", [
    [[[0], [0], 1]],            # three fields
    [[[0], [0], "x", 0]],       # a string coefficient
    [[[0], [0], 1, 0, 0]],      # five fields
    [7],                        # not a row
    [[[0], [0], float("nan"), 0]],  # NaN, which json reads and writes
    [[[0], [0], 1, float("inf")]],
    [[[0], [0], 10**400, 0]],   # an int beyond any float
    {"x": 1},                   # not a list
])
def test_op_malformed_rows_exit_3(specs, tmp_path, entries):
    a = _op_file(tmp_path, "a.json", {"entries": entries})
    res = run(["op", "--space", specs["z"], "--window-radius", "3", "--a", a, "--action", "norm"])
    assert res.exit_code == 3 and res.payload["error"] == "MalformedSpec"


def test_op_integral_entry_outside_int64_exits_3(specs, tmp_path):
    a = _op_file(tmp_path, "a.json", {"entries": [[[0], [0], 1e300, 0]]})
    res = run(["op", "--space", specs["z"], "--window-radius", "3", "--a", a, "--action", "adjoint"])
    assert res.exit_code == 3 and res.payload["error"] == "IntegerOverflow"


def test_op_exact_product_raises_before_leaving_int64(specs, tmp_path):
    base = ["op", "--space", specs["z"], "--window-radius", "3", "--action", "mul"]
    # 3037000500^2 = 9223372037000250000 > 2^63 - 1
    a = _op_file(tmp_path, "a.json", {"entries": [[[0], [1], 3037000500, 0]]})
    b = _op_file(tmp_path, "b.json", {"entries": [[[1], [0], 3037000500, 0]]})
    res = run([*base, "--a", a, "--b", b])
    assert res.exit_code == 3 and res.payload["error"] == "IntegerOverflow"
    # 2^31 * 2^31 = 2^62 fits
    a = _op_file(tmp_path, "a.json", {"entries": [[[0], [1], 2**31, 0]]})
    b = _op_file(tmp_path, "b.json", {"entries": [[[1], [0], 2**31, 0]]})
    res = run([*base, "--a", a, "--b", b])
    assert res.exit_code == 0
    assert res.payload["entries"] == [[[0], [0], float(2**62), 0.0]]


# -- malformed input raises MalformedSpec at the boundary ----------------------------

BAD_WINDOWS = {
    "ball_without_radius": {"ball": {"center": [0]}},
    "radius_a_string": {"ball": {"center": [0], "radius": "3"}},
    "radius_a_bool": {"ball": {"center": [0], "radius": True}},
    "radius_negative": {"ball": {"center": [0], "radius": -1}},
    "points_not_a_list": {"points": 5},
}

# each of these exited 1 with a ValueError or TypeError traceback
UNCHECKED_INPUTS = {
    "profile_radius_not_an_int": ["components", "--space", "{z}", "--r", "1", "--profile-radii", "5,x"],
    "map_pair_of_one_point": ["classify", "--space", "{z}", "--window-radius", "0", "--map", "{pair_of_one}",
                              "--target-space", "{z}"],
    "map_pair_not_a_list": ["classify", "--space", "{z}", "--window-radius", "0", "--map", "{pair_an_int}",
                            "--target-space", "{z}"],
    "line_witness_without_r": ["asdim", "witness", "--construction", "line", "--space", "{z}",
                               "--window-radius", "3"],
    "tree_witness_without_r": ["asdim", "witness", "--construction", "tree", "--space", "{fg2}",
                               "--window-radius", "2"],
    "greedy_without_r": ["asdim", "greedy", "--space", "{z}", "--window-radius", "3", "--d", "1",
                         "--bound", "4"],
    "witness_without_space": ["asdim", "witness", "--construction", "line", "--window-radius", "3",
                              "--r", "1"],
    "greedy_without_space": ["asdim", "greedy", "--window-radius", "3", "--r", "1", "--d", "1",
                             "--bound", "4"],
    "greedy_negative_r": ["asdim", "greedy", "--space", "{z}", "--window-radius", "3", "--r", "-1",
                          "--d", "1", "--bound", "4"],
    "quasi_negative_r": ["op", "--space", "{z}", "--window-radius", "3", "--a", "{diag}",
                         "--action", "quasi-projection", "--r", "-1"],
    "subsets_budget_negative": ["folner", "--space", "{z}", "--r", "1", "--eps", "1/2",
                                "--budget", "subsets-of-ball:-3"],
    "balls_budget_negative": ["folner", "--space", "{fg2}", "--r", "1", "--eps", "1/2", "--budget", "balls:-1"],
    "local_rounds_negative": ["folner", "--space", "{fg2}", "--r", "1", "--eps", "1/2", "--budget", "local:2,-1"],
    "local_radius_negative": ["folner", "--space", "{z}", "--r", "1", "--eps", "1/2", "--budget", "local:-2,3"],
    "classify_negative_c": ["classify", "--space", "{z}", "--window-radius", "1", "--map", "{three_pairs}",
                            "--target-space", "{z}", "--target-window-radius", "2", "--c", "-1"],
    "classify_c_without_target_window": ["classify", "--space", "{z}", "--window-radius", "1", "--map",
                                         "{three_pairs}", "--target-space", "{z}", "--c", "5"],
}


@pytest.mark.parametrize("argv", [
    ["folner", "--space", "{z}", "--r", "1", "--eps", "abc"],
    ["folner", "--space", "{z}", "--r", "1", "--eps", "1/10", "--budget", "balls:x"],
    ["components", "--space", "{z}", "--r", "1", "--window-radius", "3", "--center", "[0"],
    ["asdim", "witness", "--construction", "tree", "--space", "{fg2}", "--window-radius", "3",
     "--r", "1", "--root", '"a'],
    ["verify", "--file", "{nospace}"],
    ["verify", "--file", "{list}"],
    ["classify", "--space", "{z}", "--window-radius", "3", "--map", "{nopairs}",
     "--target-space", "{z}"],
    *(["components", "--space", "{z}", "--r", "1", "--window-file", "{%s}" % name]
      for name in BAD_WINDOWS),
    *UNCHECKED_INPUTS.values(),
], ids=["eps_not_a_number", "budget_not_a_number", "center_not_json", "root_not_json",
        "payload_without_space", "payload_is_a_list", "map_without_pairs", *BAD_WINDOWS, *UNCHECKED_INPUTS])
def test_malformed_input_exits_3(specs, tmp_path, argv):
    files = dict(specs, list=_op_file(tmp_path, "list.json", [1, 2]),
                 **{name: _op_file(tmp_path, f"{name}.json", w) for name, w in BAD_WINDOWS.items()},
                 nopairs=_op_file(tmp_path, "map.json", {"pair": []}),
                 pair_of_one=_op_file(tmp_path, "short.json", {"pairs": [[[0]]]}),
                 pair_an_int=_op_file(tmp_path, "int.json", {"pairs": [5]}),
                 three_pairs=_op_file(tmp_path, "three.json", {"pairs": [[[-1], [0]], [[0], [0]], [[1], [1]]]}),
                 diag=_op_file(tmp_path, "diag.json", {"entries": [[[0], [0], 1, 0]]}),
                 nospace=_op_file(tmp_path, "nospace.json", {
                     "schema": "coarsekit/1", "kind": "colored_cover",
                     "window": {"ball": {"center": [0], "radius": 3}}, "r": 1, "bound": 1,
                     "colors": []}))
    res = run([a.format(**files) for a in argv])
    assert res.exit_code == 3 and res.payload["error"] == "MalformedSpec"


# -- verify refuses degenerate and mistyped certificates ------------------------------

def _segments_payload(**changes):
    fam = ck.extract_segments(Z, 1, 3, ck.ball(Z, (0,), 40))
    return dict(serialization.segments_to_payload(fam, ck.ball(Z, (0,), 40)), **changes)


def _cover_payload(**changes):
    cover = ck.witness_line(1, ck.ball(Z, (0,), 10))
    return dict(serialization.cover_to_payload(cover), **changes)


def _folner_payload(**changes):
    cert = ck.folner_search_report(Z, 1, "1/2").certificate
    return dict(serialization.folner_to_payload(cert), **changes)


def _paradox_payload(**changes):
    F2 = ck.make_space({"kind": "free_group", "rank": 2})
    return dict(serialization.paradox_to_payload(ck.paradox_free_group(2), ck.ball(F2, "", 3)), **changes)


@pytest.mark.parametrize("payload, code, error", [
    (lambda: _segments_payload(segments=[]), 1, None),
    (lambda: _segments_payload(window={"ball": {"center": [0], "radius": 2}}), 3, "SegmentOutsideWindow"),
    (lambda: _cover_payload(r=True), 3, "MalformedSpec"),
    (lambda: _cover_payload(r=-1), 3, "MalformedSpec"),
    (lambda: _folner_payload(eps=1.5), 3, "MalformedSpec"),
    (lambda: _folner_payload(ratio="x"), 3, "MalformedSpec"),
    (lambda: _folner_payload(ratio="1/7"), 1, None),
    (lambda: _paradox_payload(carrier=[]), 1, None),
], ids=["empty_segment_family", "segments_outside_budget", "r_a_bool", "r_negative", "eps_a_float",
        "ratio_not_rational", "ratio_false", "carrier_empty"])
def test_verify_refuses_degenerate_certificates(tmp_path, payload, code, error):
    path = _op_file(tmp_path, "cert.json", payload())
    res = run(["verify", "--file", path])
    assert res.exit_code == code
    assert res.payload.get("error") == error


def test_segments_payload_carries_its_budget_and_verify_refuses_a_point_outside(specs, tmp_path):
    out = tmp_path / "segments.json"
    res = run(["segments", "--space", specs["z"], "--r", "1", "--count", "2", "--budget-radius", "10",
               "--out", str(out)])
    assert res.exit_code == 0
    data = json.loads(out.read_text())
    assert data["window"] == {"ball": {"center": [0], "radius": 10}}
    assert run(["verify", "--file", str(out)]).exit_code == 0
    data["segments"][-1].append([11])  # one step past the last point, and past the budget
    out.write_text(json.dumps(data))
    res = run(["verify", "--file", str(out)])
    assert res.exit_code == 3 and res.payload["error"] == "SegmentOutsideWindow"


# -- grid coordinates near and beyond int64 -----------------------------------

def _cli_process(argv):
    """The real entry point in a child process: (exit code, stderr)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "coarsekit.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stderr


_FAR2 = [[-2**62, 0], [2**62, 0]]  # l1 distance 2^63: int64 differences wrap to -2^63
_FAR3 = [[-2**61] * 3, [2**61] * 3]  # l1 distance 3 * 2^62


def _forged(tmp_path, name):
    """A forged input that wrapped at int64, and the CLI command that reads it."""
    z2, z3 = {"kind": "grid", "dim": 2}, {"kind": "grid", "dim": 3}
    head = {"schema": "coarsekit/1", "r": 1, "window": {"points": _FAR2}}
    if name == "cover_bound_0":
        data = dict(head, kind="colored_cover", space=z2, bound=0, colors=[[_FAR2]])
    elif name == "partition_one_class":
        data = dict(head, kind="scale_partition", space=z2, classes=[_FAR2])
    else:
        space = _op_file(tmp_path, "z3.json", z3)
        window = _op_file(tmp_path, "w3.json", {"points": _FAR3})
        return ["components", "--space", space, "--window-file", window, "--r", "1"]
    return ["verify", "--file", _op_file(tmp_path, f"{name}.json", data)]


@pytest.mark.parametrize("name", ["cover_bound_0", "partition_one_class", "z3_components"])
def test_wrapped_grid_distances_never_pass(tmp_path, name):
    # each of these exited 0: the two points looked 0 or -2^63 apart
    argv = _forged(tmp_path, name)
    res = run(argv)
    assert res.exit_code == 3 and res.payload["error"] == "IntegerOverflow"
    code, err = _cli_process(argv)
    assert code == 3 and "Traceback" not in err and "IntegerOverflow" in err


def test_wrapped_grid_distances_in_the_library():
    Z2, Z3 = (ck.make_space({"kind": "grid", "dim": d}) for d in (2, 3))
    far2 = tuple(map(tuple, _FAR2))
    cover = ck.ColoredCover(ck.Window(Z2, far2), 1, 0, ((far2,),))
    with pytest.raises(IntegerOverflow):
        ck.verify_decomposition(cover)
    with pytest.raises(IntegerOverflow):
        Z2.diameter(far2)
    with pytest.raises(IntegerOverflow):
        ck.components_at_scale(ck.Window(Z3, _FAR3), 1)


@pytest.mark.parametrize("command", ["components", "space"])
def test_ball_beyond_int64_is_exact(specs, command):
    # exited 1 with an OverflowError traceback
    argv = [command, "--space", specs["z"], "--window-radius", "2", "--center", json.dumps([2**70]),
            "--r", "1"]
    res = run(argv)
    assert res.exit_code == 0
    if command == "components":
        assert len(res.payload["classes"]) == 1
    else:
        assert res.payload["bounded_geometry_profile"] == 3 and res.payload["metric_check"]["ok"]
    code, err = _cli_process(argv)
    assert code == 0 and "Traceback" not in err


def test_window_spanning_beyond_int64_exits_3(specs, tmp_path):
    window = _op_file(tmp_path, "w.json", {"points": [[2**70], [2**70 + 1], [5]]})
    argv = ["components", "--space", specs["z"], "--window-file", window, "--r", "1"]
    res = run(argv)
    assert res.exit_code == 3 and res.payload["error"] == "IntegerOverflow"
    code, err = _cli_process(argv)
    assert code == 3 and "Traceback" not in err


def test_unchecked_input_exits_3_without_a_traceback(specs):
    code, err = _cli_process(UNCHECKED_INPUTS["greedy_without_space"])
    assert code == 3 and "Traceback" not in err and "MalformedSpec" in err


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0), (["space", "--help"], 0), (["space"], 3), ([], 3), (["nosuch"], 3),
], ids=["help", "subcommand_help", "missing_flag", "no_subcommand", "unknown_subcommand"])
def test_help_exits_0_and_a_parse_failure_exits_3(argv, code, capsys):
    # run() mapped every SystemExit of argparse to exit 3, a help request too
    res = run(argv)
    assert res.exit_code == code and res.payload == {}
    assert ("usage: coarsekit" in capsys.readouterr().out) == (code == 0)


# -- malformed space specs ----------------------------------------------------

# each exited 1 with a traceback, but the two past int64, which were reported
# as a negative distance (or raised a RuntimeWarning under -W error); the last
# item is what the refusal must name: the kind or the field
_MALFORMED_SPECS = [
    ({"kind": "custom", "points": [0, 1], "dist": [[0, 1], [1]]}, "custom"),
    ({"kind": "custom", "points": [0, 1], "dist": [["a", "b"], ["b", "a"]]}, "distance table"),
    ({"kind": "custom", "points": [0, 1], "dist": [["0", "1"], ["1", "0"]]}, "distance table"),
    ({"kind": "custom", "points": 5, "dist": [[0]]}, "custom"),
    ({"kind": "custom", "points": [[1, 2], [3, 4]], "dist": [[0, 1], [1, 0]]}, "custom"),
    ({"kind": "custom", "points": [0, 1], "dist": [[0, 2**63 + 5], [2**63 + 5, 0]]}, "custom dist"),
    ({"kind": "custom", "points": [0, 1], "dist": [[0, 1e30], [1e30, 0]]}, "custom dist"),
    ({"kind": "tree", "edges": [["a", "b"]]}, "tree"),
    ({"kind": "tree", "edges": [5]}, "tree"),
    ({"kind": "tree", "edges": 5}, "tree"),
    ({"kind": "disjoint_union", "blocks": 5, "gaps": []}, "disjoint_union"),
    ({"kind": "disjoint_union", "blocks": [{"kind": "point_line", "coords": [0]}], "gaps": 5}, "disjoint_union"),
    ({"kind": "point_line", "coords": 5}, "point_line"),
    # these two built a space: the str and the dict were iterated
    ({"kind": "tree", "edges": {}}, "'edges' must be a JSON list"),
    ({"kind": "custom", "points": "ab", "dist": [[0, 1], [1, 0]]}, "'points' must be a JSON list"),
]


def test_metric_check_at_the_int64_top_passes(tmp_path, capsys):
    # d(0,1) + d(1,0) wrapped in int64 and read as a failed triangle d(1,1) > ...
    top = 2**63 - 1
    spec = _op_file(tmp_path, "top.json", {"kind": "custom", "points": [0, 1], "dist": [[0, top], [top, 0]]})
    assert main(["space", "--space", spec]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["metric_check"] == {"identity": True, "ok": True, "symmetry": True, "triangle": True,
                                       "witness": None}


def test_malformed_specs_exit_3_with_a_named_error(tmp_path, capsys):
    cases = [(["space", "--space", _op_file(tmp_path, f"s{k}.json", spec)], "MalformedSpec", name)
             for k, (spec, name) in enumerate(_MALFORMED_SPECS)]
    # an unhashable point of a custom space raised TypeError
    custom = _op_file(tmp_path, "custom.json", {"kind": "custom", "points": [0, 1], "dist": [[0, 1], [1, 0]]})
    window = _op_file(tmp_path, "w.json", {"points": [[0], 1]})
    cases += [(["space", "--space", custom, "--center", "[1]", "--window-radius", "1"], "UnknownPoint", "[1]"),
              (["space", "--space", custom, "--window-file", window], "UnknownPoint", "[0]")]
    for argv, error, name in cases:
        code = main(argv)
        out, err = capsys.readouterr()
        payload = json.loads(out)
        assert (code, payload["error"]) == (3, error), argv
        assert name in payload["reason"] and "Traceback" not in err
