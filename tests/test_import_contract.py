"""Start-up import contract: a coarsekit process loads scipy.sparse and its
csgraph only when a command calls into them.  The test process already holds
scipy, so each case runs in a fresh interpreter."""

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
    }.items()}
    out["a"] = put("a.json", {"entries": [[[x], [x + 1], 1, 0] for x in range(-3, 3)]})
    out["b"] = put("b.json", {"entries": [[[x], [x], 2, 0] for x in range(-3, 4)]})
    out["map"] = put("map.json", {"pairs": [[[x], [2 * x]] for x in range(-5, 6)]})
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
    ("cli", ["space", "--space", "{z2}", "--window-radius", "6", "--r", "1"], {CSGRAPH}),
    ("cli", ["op", "--space", "{z}", "--window-radius", "3", "--a", "{a}", "--b", "{b}",
             "--action", "add"], {CSGRAPH}),
], ids=["import_coarsekit", "import_cli", "paradox", "folner", "classify", "verify_paradox",
        "verify_matching_cut", "space", "op_add"])
def test_process_loads_no_unused_scipy(files, what, argv, absent):
    code, loaded = _child([a.format(**files) for a in argv], what)
    assert code == 0
    assert not loaded & absent, f"loaded {sorted(loaded & absent)}"


def test_graph_commands_still_load_csgraph(files):
    # the watch list must name real modules: a command that runs a graph
    # routine does load them
    code, loaded = _child(["components", "--space", files["fg2"], "--window-radius", "3",
                           "--r", "2"])
    assert code == 0 and loaded == {SPARSE, CSGRAPH}
