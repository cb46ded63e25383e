"""Golden digests of the CLI: each invocation below is pinned to its exit code
and to the SHA-256 of the stdout that ``coarsekit`` prints for it (the
canonical payload JSON, or nothing when there is no payload).

The table was generated at commit f58ec5b.  A refactor must leave every row
as it is; a change to the bytes on purpose must edit the table and say so in
CHANGES.md.  ``op --action norm``, the quasi checks and ``af-approx`` are left
out: their floats depend on the LAPACK build.
"""

import hashlib
import json

import pytest

from coarsekit import serialization
from coarsekit.cli import run

# run again under two string-hash seeds (see pyproject.toml)
pytestmark = pytest.mark.hashseed

FILES = {
    "z": {"kind": "grid", "dim": 1},
    "z2": {"kind": "grid", "dim": 2},
    "z0": {"kind": "grid", "dim": 0},
    "fg2": {"kind": "free_group", "rank": 2},
    "pl": {"kind": "point_line", "coords": [2**k for k in range(13)]},
    "du": {"kind": "disjoint_union", "gaps": [2, 5, 3], "blocks": [
        {"kind": "point_line", "coords": [0, 1, 3, 7]},
        {"kind": "custom", "points": ["p", "q", "s"], "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
        {"kind": "tree", "edges": [[0, 1], [1, 2], [1, 3], [3, 4]]},
        {"kind": "product_finite", "base": {"kind": "point_line", "coords": [0, 2, 5]}, "n": 2},
    ]},
    "prod_z2": {"kind": "product_finite", "base": {"kind": "grid", "dim": 2}, "n": 2},
    "prod_t3": {"kind": "product_finite", "base": {"kind": "tree", "branching": 3}, "n": 3},
    "w": {"points": [[0], [1], [2], [10]]},
    "a": {"entries": [[[1], [0], 1, 0]]},
    "b": {"entries": [[[0], [1], 0, 1]]},
    "shift": {"entries": [[[x + 1], [x], 1, 0] for x in range(-50, 50)]},
    "double": {"pairs": [[[x], [2 * x]] for x in range(-10, 11)]},
    "identity": {"pairs": [[[x], [x]] for x in range(-5, 6)]},
    "junk": {"schema": "coarsekit/1", "kind": "mystery"},
}

Z_BALL = ["--space", "{z}", "--window-radius"]
LINE_COVER = ["asdim", "witness", "--construction", "line", *Z_BALL, "50", "--r", "5",
              "--out", "{out}/cover.json"]

# (id, argvs, exit code, sha256): every argv but the last writes a file the last one reads
CASES = [
    ("space_z", [["space", *Z_BALL, "10", "--r", "1"]], 0,
     "b4940be6a471fc004451497bf8c29ca6150cf4abf7ca7c38c9ff2b2a655bb07b"),
    ("space_union", [["space", "--space", "{du}", "--r", "2"]], 0,
     "e32061021a28c34c7fd3c6670c38510ce347422d812a8999c084a17a4e4ff25a"),
    ("space_product_z2", [["space", "--space", "{prod_z2}", "--window-radius", "3", "--r", "1"]], 0,
     "87e07bf8518cb208ea21f7f3e203aef568a7a1301688c74958c67e3e8afe35e4"),
    ("space_malformed", [["space", "--space", "{z0}", "--window-radius", "2"]], 3,
     "ac65e61a4213be12b97031dcadb768083c950f327bf46e9a0cb49668494d30f3"),
    ("components_point_line", [["components", "--space", "{pl}", "--r", "3"]], 0,
     "be27cee463b4170b6da6fe216605c64baffca6b8a45ee82ca7b91e8e32071c1b"),
    ("components_window_file", [["components", "--space", "{z}", "--window-file", "{w}", "--r", "1"]], 0,
     "5b1750c4ad3631c1808a17b9b95f24b264bec49944ecfc599d1c6c6806183c25"),
    ("components_profile", [["components", "--space", "{z}", "--r", "1", "--profile-radii", "2,5,9"]], 0,
     "d697ce39b0a3ae66c95622592e914a8af0c9c8fa5758680cb224a313fe952894"),
    ("components_union", [["components", "--space", "{du}", "--r", "4"]], 0,
     "4ff6963ba8f542fe0ab8a3e7a4395b3c784e85fde3308fd5aa5265be628fc40e"),
    ("components_product_tree", [["components", "--space", "{prod_t3}", "--window-radius", "3",
                                  "--r", "2"]], 0,
     "15a4e7481737763033e0a6562ea6bd9bd12d69b8b3cab676534f4c86560d928f"),
    ("segments", [["segments", "--space", "{z}", "--r", "1", "--count", "4", "--budget-radius", "400"]], 0,
     "71977790d6b6961627ea58cded691cdb3b5c73bc44586aa82b1838a97aea5183"),
    ("segments_none", [["segments", "--space", "{pl}", "--r", "1", "--count", "2", "--budget-radius", "1"]], 2,
     "5935f8603475d8e3a86555ecfa4e50c964966b215c40c4ede812c0a4d7978d53"),
    ("asdim_witness_line", [["asdim", "witness", "--construction", "line", *Z_BALL, "40", "--r", "2"]], 0,
     "baac4a7b3f2138cbd7b8c9cb0cdb405e8d742f5051bc75bfa34a88442703254e"),
    ("asdim_witness_grid2", [["asdim", "witness", "--construction", "grid2", "--space", "{z2}",
                              "--window-radius", "12", "--r", "2"]], 0,
     "75cc0db4d44c8ace2023c27df19941cf523a7108b11885f3badfb72831e184d6"),
    ("asdim_witness_tree", [["asdim", "witness", "--construction", "tree", "--space", "{fg2}",
                             "--window-radius", "3", "--r", "1", "--root", '""']], 0,
     "8cfc3ab7b056e8871c1df96eab756057969aba54a90b9d98f14e24f56d364cab"),
    ("asdim_verify", [LINE_COVER, ["asdim", "verify", "--cover", "{out}/cover.json"]], 0,
     "90d08a68b3abbbbb7b5906932080d13df4acc77e423c93853fcbf4a56a932bed"),
    ("asdim_greedy", [["asdim", "greedy", *Z_BALL, "30", "--r", "2", "--d", "1", "--bound", "10"]], 0,
     "f49719e5ea99d717c04ce57f439bb4e23c2641b89f95f347e2d041c57e767636"),
    ("asdim_greedy_exhausted", [["asdim", "greedy", *Z_BALL, "30", "--r", "2", "--d", "0",
                                 "--bound", "10"]], 2,
     "012dd039f30de56306f69b63274d41d866ecdab1996b410b9b66be838890d67d"),
    ("folner", [["folner", "--space", "{z}", "--r", "1", "--eps", "1/10"]], 0,
     "335141a3cbbf5387a8b91ea026996cf5b5e60309f5976134166d75bc2f1f5d65"),
    ("folner_empty", [["folner", "--space", "{fg2}", "--r", "1", "--eps", "1/10",
                       "--budget", "subsets-of-ball:1"]], 2,
     "e80eff08a3a6d906aa5b78ac36dcfd0c1c95566c2b0e6ba5f1ff2d16aa2d8c8a"),
    ("paradox", [["paradox", "--space", "{fg2}", "--window-radius", "4"]], 0,
     "c3d3efd16743f5a5aac12800ba14cedc8b92535f300c06b5239cbd618cb893e2"),
    ("matching", [["matching", "--space", "{fg2}", "--window-radius", "4", "--r", "1"]], 0,
     "622bc29a7dc246f30684edeaab19c56d752472d8d28e54a71099453f18ed3cc8"),
    ("matching_cut", [["matching", *Z_BALL, "50", "--r", "1"]], 2,
     "0cb9e550d20f124333da86066fefd64ef7fa84384611ee1268d8678985360383"),
    ("op_add", [["op", *Z_BALL, "2", "--a", "{a}", "--b", "{b}", "--action", "add"]], 0,
     "a61b95bc893280af9a0fec310b5b789e265ceb158dbbe9499ddd5816afeffc77"),
    ("op_mul", [["op", *Z_BALL, "2", "--a", "{a}", "--b", "{b}", "--action", "mul"]], 0,
     "2c28aa7ac4927be5a8d56da9792b383ed0d27dfb59c68965d5fca82fe70d0b05"),
    ("op_adjoint", [["op", *Z_BALL, "2", "--a", "{a}", "--action", "adjoint"]], 0,
     "ed88d874d4881fd9b9711d0951b10960a6ebe65f6a7aee8c07740372051b038b"),
    ("op_mul_without_b", [["op", *Z_BALL, "2", "--a", "{a}", "--action", "mul"]], 3,
     "8ea1e00f8329028e56676f64caf79711f0cf77054b85c21f29fe2b4c75105d32"),
    ("mv_split", [LINE_COVER, ["mv-split", *Z_BALL, "50", "--a", "{shift}",
                               "--cover", "{out}/cover.json"]], 0,
     "d481a96a77f7d347dab606da970663a1dc3546f89d6644adccd20bd564c54df5"),
    ("classify", [["classify", *Z_BALL, "10", "--map", "{double}", "--target-space", "{z}",
                   "--target-window-radius", "20", "--c", "1"]], 0,
     "b1f227f60827c6e99c4d6254e69fc3ea44e687b43c8d6643d3488cfdef7578ed"),
    ("classify_no_target", [["classify", *Z_BALL, "5", "--map", "{identity}", "--target-space", "{z}"]], 0,
     "f2064983634c217f99bf68ff7b993a0fee7ce3797cc58070932759316189b45a"),
    ("verify_segments", [["segments", "--space", "{z}", "--r", "2", "--count", "3", "--budget-radius", "200",
                          "--out", "{out}/cert.json"], ["verify", "--file", "{out}/cert.json"]], 0,
     "603e5a818287f5ab19cabcb94d7332112d6039b7d52f2aa7d21c0c35df7d7ebf"),
    ("verify_paradox", [["paradox", "--space", "{fg2}", "--window-radius", "3", "--out", "{out}/cert.json"],
                        ["verify", "--file", "{out}/cert.json"]], 0,
     "cfaf7cb1c0739ee5b5e589f56632d6fc415ef9f4ced9225d50e8a34151692219"),
    ("verify_doubling", [["matching", "--space", "{fg2}", "--window-radius", "3", "--r", "1",
                          "--out", "{out}/cert.json"], ["verify", "--file", "{out}/cert.json"]], 0,
     "345be77e7250631ff18f23629ab0d11939031f8e8277142f8538a68aafa843d1"),
    ("verify_unknown_kind", [["verify", "--file", "{junk}"]], 3,
     "9296c61a978d86eee96e9d4b1a66d8347c105ee3ac7c9a90a38844bd5024f002"),
]


def _stdout_digest(result) -> str:
    out = serialization.canonical_dumps(result.payload) if result.payload else ""
    return hashlib.sha256(out.encode()).hexdigest()


def _run_case(tmp_path, argvs):
    files = {"out": str(tmp_path)}
    for name, data in FILES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        files[name] = str(path)
    for argv in argvs[:-1]:
        assert run([a.format(**files) for a in argv]).exit_code == 0
    return run([a.format(**files) for a in argvs[-1]])


@pytest.mark.parametrize("argvs, code, digest", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_cli_payload_matches_golden_digest(tmp_path, argvs, code, digest):
    res = _run_case(tmp_path, argvs)
    assert (res.exit_code, _stdout_digest(res)) == (code, digest)
