"""Start-up import contract: a coarsekit process loads scipy.sparse and its
csgraph only when a command calls into them.  Scale pairs, their rows and
their classes are numpy, so the commands that read only those load neither.
The test process already holds scipy, so each case runs in a fresh
interpreter."""

import json
import os
import subprocess
import sys

import pytest

SPARSE, CSGRAPH = "scipy.sparse", "scipy.sparse.csgraph"

# Runs argv through the console entry point (or only imports the package when
# argv is empty), then prints the exit code and which watched modules loaded.
CHILD = f"""
import json, sys
argv = json.loads(sys.argv[1])
if argv:
    from coarsekit.cli import main
    code = main(argv)
else:
    import coarsekit
    code = 0
    if sys.argv[2] == "cli":
        import coarsekit.cli
sys.stdout.write("\\n" + json.dumps({{"exit": code,
                                     "loaded": [m for m in {[SPARSE, CSGRAPH]!r} if m in sys.modules]}}))
"""


@pytest.fixture
def files(tmp_path):
    def put(name, data):
        p = tmp_path / name
        p.write_text(json.dumps(data))
        return str(p)

    out = {name: put(f"{name}.json", spec) for name, spec in {
        "z": {"kind": "grid", "dim": 1},
        "z2": {"kind": "grid", "dim": 2},
        "fg2": {"kind": "free_group", "rank": 2},
        "t3": {"kind": "tree", "branching": 3},
    }.items()}
    out["a"] = put("a.json", {"entries": [[[x], [x + 1], 1, 0] for x in range(-3, 3)]})
    out["b"] = put("b.json", {"entries": [[[x], [x], 2, 0] for x in range(-3, 4)]})
    out["map"] = put("map.json", {"pairs": [[[x], [2 * x]] for x in range(-5, 6)]})
    out["window"] = put("window.json", {"points": [[x, x % 3] for x in range(-6, 7)]})
    for name, argv in {"cover": ["asdim", "witness", "--construction", "line", "--space", out["z"],
                                 "--window-radius", "30", "--r", "2"],
                       "partition": ["components", "--space", out["z2"], "--window-radius", "4", "--r", "1"]}.items():
        out[name] = str(tmp_path / f"{name}_cert.json")
        assert _child([*argv, "--out", out[name]])[0] == 0
    out["paradox"] = str(tmp_path / "paradox_cert.json")
    assert _child(["paradox", "--space", out["fg2"], "--window-radius", "3",
                   "--out", out["paradox"]])[0] == 0
    out["cut"] = str(tmp_path / "cut_cert.json")
    assert _child(["matching", "--space", out["z"], "--window-radius", "50", "--r", "1",
                   "--out", out["cut"]])[0] == 2
    return out


def _child(argv, what="cli"):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv), what],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.rsplit("\n", 1)[1])
    return report["exit"], set(report["loaded"])


@pytest.mark.parametrize("what,argv,absent", [
    ("package", [], {SPARSE, CSGRAPH}),
    ("cli", [], {SPARSE, CSGRAPH}),
    ("cli", ["paradox", "--space", "{fg2}", "--window-radius", "3"], {SPARSE, CSGRAPH}),
    ("cli", ["folner", "--space", "{z2}", "--r", "1", "--eps", "1/5"], {SPARSE, CSGRAPH}),
    ("cli", ["classify", "--space", "{z}", "--window-radius", "5", "--map", "{map}",
             "--target-space", "{z}"], {SPARSE, CSGRAPH}),
    ("cli", ["verify", "--file", "{paradox}"], {SPARSE, CSGRAPH}),
    ("cli", ["verify", "--file", "{cut}"], {SPARSE, CSGRAPH}),
    ("cli", ["space", "--space", "{z2}", "--window-radius", "6", "--r", "1"], {SPARSE, CSGRAPH}),
    ("cli", ["space", "--space", "{z2}", "--window-file", "{window}", "--r", "2"], {SPARSE, CSGRAPH}),
    ("cli", ["components", "--space", "{fg2}", "--window-radius", "3", "--r", "2"], {SPARSE, CSGRAPH}),
    ("cli", ["components", "--space", "{z2}", "--r", "1", "--profile-radii", "2,4,6"], {SPARSE, CSGRAPH}),
    ("cli", ["asdim", "witness", "--construction", "line", "--space", "{z}", "--window-radius", "40",
             "--r", "3"], {SPARSE, CSGRAPH}),
    ("cli", ["asdim", "witness", "--construction", "tree", "--space", "{t3}", "--window-radius", "4",
             "--r", "1", "--root", "0"], {SPARSE, CSGRAPH}),
    ("cli", ["asdim", "greedy", "--space", "{z2}", "--window-radius", "6", "--r", "1", "--d", "3",
             "--bound", "6"], {SPARSE, CSGRAPH}),
    ("cli", ["asdim", "verify", "--cover", "{cover}"], {SPARSE, CSGRAPH}),
    ("cli", ["verify", "--file", "{cover}"], {SPARSE, CSGRAPH}),
    ("cli", ["verify", "--file", "{partition}"], {SPARSE, CSGRAPH}),
    ("cli", ["op", "--space", "{z}", "--window-radius", "3", "--a", "{a}", "--b", "{b}",
             "--action", "add"], {CSGRAPH}),
    ("cli", ["op", "--space", "{z}", "--window-radius", "3", "--a", "{a}", "--action", "norm"], {CSGRAPH}),
    ("cli", ["af-approx", "--space", "{z}", "--window-radius", "3", "--a", "{b}", "--r", "1",
             "--eps", "0.5"], {CSGRAPH}),
], ids=["import_coarsekit", "import_cli", "paradox", "folner", "classify", "verify_paradox",
        "verify_matching_cut", "space", "space_window_file", "components", "components_profile",
        "asdim_witness_line", "asdim_witness_tree", "asdim_greedy", "asdim_verify", "verify_cover",
        "verify_partition", "op_add", "op_norm", "af_approx"])
def test_process_loads_no_unused_scipy(files, what, argv, absent):
    code, loaded = _child([a.format(**files) for a in argv], what)
    assert code == 0
    assert not loaded & absent, f"loaded {sorted(loaded & absent)}"


def test_graph_commands_still_load_csgraph(files):
    # the watch list must name real modules: a command that runs a graph
    # routine (here max flow, which finds a Hall cut: exit 2) does load them
    code, loaded = _child(["matching", "--space", files["z2"], "--window-radius", "4", "--r", "1"])
    assert code == 2 and loaded == {SPARSE, CSGRAPH}
