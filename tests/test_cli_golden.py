"""Golden CLI outputs: exit code and stdout sha256 per subcommand.

The digests pin byte-identical output of every subcommand that reads a
fixture file on the banana and K4 curves, plus a few larger or decorated
cases: the degeneracy poset of C5, a small evidence scan and the full
one the benchmark runs (five vertices, seven edges), chi bookkeeping
on a curve with genera and a non-free loop, and the large documents of
the orbit listings of C5 and K4 plus a 2-path and the degeneracy
subsets and posets of K5 and C6 up to symmetry.  A change to any
of them is a change of observable behaviour and must be deliberate.
"""

import hashlib
import json

import pytest

from vstab.cli import main

BANANA = {"genera": [0, 0], "edges": [[0, 1], [0, 1]]}
K4 = {
    "genera": [0, 0, 0, 0],
    "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
}


def _stability(chi, values):
    return {
        "chi": chi,
        "values": [{"subcurve": list(Y), "s": v} for Y, v in values],
    }


K4_SUBCURVES = (
    (0,), (1,), (0, 1), (2,), (0, 2), (1, 2), (0, 1, 2),
    (3,), (0, 3), (1, 3), (0, 1, 3), (2, 3), (0, 2, 3), (1, 2, 3),
)
K4_VALUES = (0, 1, 0, 0, -1, 0, 0, 3, 2, 3, 3, 3, 2, 3)

FIXTURES = {
    "banana": {
        "graph": BANANA,
        "stability": _stability(0, [((0,), 0), ((1,), 0)]),
        "shifted": _stability(2, [((0,), 2), ((1,), 0)]),
        "invalid": _stability(0, [((0,), 0), ((1,), 2)]),
        "sheaf": {"support": [0, 1], "multidegree": {"0": 0, "1": 0}, "nonfree": []},
        "partition": "1|0",
        "multidegree": "5,-5",
    },
    "K4": {
        "graph": K4,
        "stability": _stability(2, zip(K4_SUBCURVES, K4_VALUES)),
        "shifted": _stability(2, zip(K4_SUBCURVES, K4_VALUES)),
        "invalid": _stability(2, zip(K4_SUBCURVES, (5,) + K4_VALUES[1:])),
        "sheaf": {
            "support": [0, 1, 2, 3],
            "multidegree": {"0": 2, "1": 1, "2": 0, "3": 1},
            "nonfree": [0],
        },
        "partition": "0,1|2,3",
        "multidegree": "7,-3,2,-2",
    },
}

# argv after the subcommand; {name} is replaced by the fixture file path
COMMANDS = {
    "validate": ["validate", "--stability", "{stability}"],
    "validate-invalid": ["validate", "--stability", "{invalid}"],
    "classical": ["classical", "--stability", "{stability}"],
    "semistable": ["semistable", "--stability", "{stability}"],
    "semistable-all-supports": ["semistable", "--stability", "{stability}", "--all-supports"],
    "semistable-window": ["semistable", "--stability", "{shifted}", "--window", "2"],
    "limit": ["limit", "--stability", "{stability}", "--multidegree", "{multidegree}"],
    "specialize": ["specialize", "--sheaf", "{sheaf}", "--partition", "{partition}"],
    "normal-form": ["normal-form", "--stability", "{shifted}"],
    "poset-deg-dot": ["poset", "--kind", "deg", "--format", "dot"],
    "poset-deg-table": ["poset", "--kind", "deg", "--format", "table"],
    "poset-vstab-dot": ["poset", "--kind", "vstab", "--format", "dot"],
    "poset-vstab-table": ["poset", "--kind", "vstab", "--format", "table"],
}

# (exit code, sha256 of stdout), recorded before the component-search and
# cache refactor of the library
GOLDEN = {
    ('K4', 'classical'):
        (0, "0d4b67428474b4b53c49676d159f484d21c4e7a9b0dc95f162dc2633501d8c05"),
    ('K4', 'limit'):
        (0, "0b93590bfdd2f52203f847531aa40e284233272d1ea733ce9f05ee3b2e38444b"),
    ('K4', 'normal-form'):
        (0, "71a1a3cb81fc3d155da7ba8be54b600e8483c5b4c8999ae6534ca61e9bd9e490"),
    ('K4', 'poset-deg-dot'):
        (0, "99717ce652d5db9b945d1e79b4c80dd262e136d0dd55421960c5590ee64c4392"),
    ('K4', 'poset-deg-table'):
        (0, "c7205987fca8bcda06730ea07ac499edc40459d50a6661424f7430b92b8abf91"),
    ('K4', 'poset-vstab-dot'):
        (0, "6787b49571caa05dbaff4468bdf1458a5c3d1fa5b8e941a81cdb370ba73dd551"),
    ('K4', 'poset-vstab-table'):
        (0, "6e274231ad7f03d052ec2b8bd843ee732ebf5b51ee40027b23c504c41cb1a185"),
    ('K4', 'semistable'):
        (0, "6391a593d75370bb48c445aed3cbafe62a381043091f55999e0e6e0d0f07928a"),
    ('K4', 'semistable-all-supports'):
        (0, "b4c0124ebc6ce90c083a2de967a84b1e0f6903bf69dae786113c44de65ae1873"),
    ('K4', 'semistable-window'):
        (0, "246a72ef71f69d223eb8a24a108927ad43a480f468178691ca2cfaa3c2518f8c"),
    ('K4', 'specialize'):
        (0, "a909caf96b75ea3f3a38684ab4ef179df853d5b0f06c6f2fe5d626d3454fcde0"),
    ('K4', 'validate'):
        (0, "7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c"),
    ('K4', 'validate-invalid'):
        (1, "7aa235777ae1cdb0022639f349c4463297cb5dd4d4872e03af18e5858074724d"),
    ('banana', 'classical'):
        (0, "9fb2c0a70d2a4f0bfb48ecd98275749a39bf4298d0fdfc2cdd347c94b8307481"),
    ('banana', 'limit'):
        (0, "7a27ba46fb651bc2b73adfe029259cae34aaf2da224524e4c4050d771603b44e"),
    ('banana', 'normal-form'):
        (0, "c5b86c98e538f8907b1100dcb34489ddb694c2821bea3e98257c29f10e36c6f5"),
    ('banana', 'poset-deg-dot'):
        (0, "ade78674b97737cba62021997ff21b30cd2355d84b5941eda2e9a53c26743169"),
    ('banana', 'poset-deg-table'):
        (0, "9202e5666ba9f9be42d6ef3cd42cee8ef501b44cc022c0ecc8b5fd0036df9994"),
    ('banana', 'poset-vstab-dot'):
        (0, "4fc278ae746138b7e6ddacd0d1c7c31cf1ddc53e90eccf7d71a900e49cc343b0"),
    ('banana', 'poset-vstab-table'):
        (0, "6f3657255068415696fafb894d230cac725ec0648e7301f535533c2363883157"),
    ('banana', 'semistable'):
        (0, "8c72a5dc26772c8db5dbcb99a14264277253e22361e871b0e9e60ac13c8a26c0"),
    ('banana', 'semistable-all-supports'):
        (0, "83d2a3ade4fa4eb2b6e6550fa8afd1b3bcda772349e7ec0f3f2bb3255437a670"),
    ('banana', 'semistable-window'):
        (0, "f8f5463806ec9a7bc233350ee6df1fc2a1ba512a3ef7d9c1a11c9fb668d11447"),
    ('banana', 'specialize'):
        (0, "a9146f4ce873314fdd568ed2861b46b3d21b965a05d5789f1fe7e00218d39004"),
    ('banana', 'validate'):
        (0, "7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c"),
    ('banana', 'validate-invalid'):
        (1, "e146f08f8b3c93404796993dbe244ed672c3988ee1271251689a82b1486304c7"),
}


def run_case(tmp_path, fixture, command):
    spec = FIXTURES[fixture]
    paths = {}
    for key in ("graph", "stability", "shifted", "invalid", "sheaf"):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(spec[key]))
        paths[key] = str(path)
    fill = {**paths, "partition": spec["partition"], "multidegree": spec["multidegree"]}
    argv = [arg.format(**fill) for arg in COMMANDS[command]]
    return main(argv[:1] + ["--graph", paths["graph"]] + argv[1:])


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_golden_output(tmp_path, capsys, fixture, command):
    code = run_case(tmp_path, fixture, command)
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == GOLDEN[fixture, command]


C5 = {"genera": [0] * 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]}
C6 = {"genera": [0] * 6, "edges": [[i, (i + 1) % 6] for i in range(6)]}
K5 = {"genera": [0] * 5, "edges": [[i, j] for i in range(5) for j in range(i + 1, 5)]}
# K4 on {0, 1, 2, 3} plus the path 3-4-5
K4P2 = {"genera": [0] * 6, "edges": K4["edges"] + [[3, 4], [4, 5]]}
# the banana with genera and a loop of conftest.genus_decorated; edge 2 is
# the loop, non-free in the sheaf
GENUS_DECORATED = {"genera": [1, 2], "edges": [[0, 1], [0, 1], [1, 1]]}
LOOP_DOCS = {
    "stability": _stability(0, [((0,), 0), ((1,), 0)]),
    "sheaf": {"support": [0, 1], "multidegree": {"0": 1, "1": 2}, "nonfree": [2]},
}

# graph (None for qdeg-scan), argv after the subcommand with {name}
# replaced by the path of LOOP_DOCS[name], and (exit code, sha256 of
# stdout), recorded before the one-owner refactor of the subcurve rules
EXTRA = {
    "C5-poset-deg-json": (
        C5, ["poset", "--kind", "deg"],
        (0, "616010648b85de9cf588ef839b7776cb2c684038a8836dfc724df124fa194d2a")),
    "C5-poset-deg-json-mod-symmetry": (
        C5, ["poset", "--kind", "deg", "--mod-symmetry"],
        (0, "a18c04f693c3e1c3703cb3e0526e5a20714b689295ead82b829b81400c6a57cd")),
    "qdeg-scan-4-5": (
        None, ["qdeg-scan", "--max-vertices", "4", "--max-edges", "5"],
        (0, "3a96cd34feb1b5546881cbbb6125d99f9281ee8fd4873459ea73123e705d04ac")),
    "loop-semistable-all-supports": (
        GENUS_DECORATED, ["semistable", "--stability", "{stability}", "--all-supports"],
        (0, "6ab567fead8a897b2779f6dadf15abd0d7af6c9ac02bf1473ce388da161d9510")),
    "loop-specialize": (
        GENUS_DECORATED, ["specialize", "--sheaf", "{sheaf}", "--partition", "1|0"],
        (0, "6d189fd71cd4a14317d04e33f3eed980f8eae817448a39b5bf83fc36dbc94839")),
    # the benchmark's scan, recorded with the n! catalogue
    "qdeg-scan-5-7": (
        None, ["qdeg-scan", "--max-vertices", "5", "--max-edges", "7"],
        (0, "4de4db755bebb0b0190e76d49e284ff02916a5dd27e0f3127755c5aee3b8d54f")),
    # large documents, recorded with the stdlib's indenting JSON encoder,
    # the permute_mask symmetry key and the normal-form orbit filter
    "C5-enum-orbits": (
        C5, ["enum-orbits"],
        (0, "a6ecd8a8d41f6cd7e96cef45ab4e9e0d04c78d1b1f071b61635c35f17b56e673")),
    "K4p2-enum-orbits": (
        K4P2, ["enum-orbits"],
        (0, "eff7cbadb188ed127f98f80b7353d0dcb28cf8aa1ff906554066891440f49f55")),
    "K5-enum-deg-mod-symmetry": (
        K5, ["enum-deg", "--mod-symmetry"],
        (0, "6e5bc3687d1684855db9fb58a3fbbe4eed4fe00c0674d30cefd96e1f47fc9b6d")),
    "K5-poset-deg-json-mod-symmetry": (
        K5, ["poset", "--kind", "deg", "--mod-symmetry"],
        (0, "eadea3b10e3f31e3baca09581a45eecdeb7d889e09061fd31827e234ec4d3667")),
    "C6-enum-deg-mod-symmetry": (
        C6, ["enum-deg", "--mod-symmetry"],
        (0, "6dc7a61003bfa637b5b6b1c152f7a3fd2a2132bb1e0765bdf2f1ad6b3a67abaf")),
    "C6-poset-deg-json-mod-symmetry": (
        C6, ["poset", "--kind", "deg", "--mod-symmetry"],
        (0, "b9278161c8bbbe638b0fb1b98aba893cec098af66808937ac5430d7db6ec0d34")),
}


@pytest.mark.parametrize("case", sorted(EXTRA))
def test_golden_extra_output(tmp_path, capsys, case):
    graph, argv, golden = EXTRA[case]
    paths = {}
    for key, doc in LOOP_DOCS.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(doc))
    argv = [arg.format(**paths) for arg in argv]
    if graph is not None:
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(graph))
        argv[1:1] = ["--graph", str(path)]
    code = main(argv)
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == golden


C5_SUBCURVES = (
    (0,), (1,), (0, 1), (2,), (1, 2), (0, 1, 2), (3,), (2, 3), (1, 2, 3),
    (0, 1, 2, 3), (4,), (0, 4), (0, 1, 4), (0, 1, 2, 4), (3, 4), (0, 3, 4),
    (0, 1, 3, 4), (2, 3, 4), (0, 2, 3, 4), (1, 2, 3, 4),
)
C5_VALUES = (0, 1, 0, 1, 1, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1)
K5_SUBCURVES = tuple(
    tuple(v for v in range(5) if (mask >> v) & 1) for mask in range(1, 31)
)
K5_VALUES = (
    -1, 1, 0, 1, 0, 1, 0, 1, -1, 1, 0, 1, 0, 2, 0,
    1, -1, 1, 0, 1, 0, 2, 0, 1, 0, 1, 0, 1, 0, 2,
)
K5_TAU = (2, -1, 0, 1, 1)

# graph, stability document and (exit code, sha256 of stdout) of
# ``vstab classical``: general stabilities whose witnesses need several
# rounds of midpoints (denominators 16 on C5, 64 on K5), and a K5 translate
# with chi = 3; recorded with the Fraction elimination
CLASSICAL = {
    "C5": (C5, _stability(0, zip(C5_SUBCURVES, C5_VALUES)),
           (0, "46d36019e37ee024fa29927e19dbb34bd9ea5136e7b510831bd2333512e5b5ad")),
    "K5": (K5, _stability(0, zip(K5_SUBCURVES, K5_VALUES)),
           (0, "f57f4e4f0447974ef79fa427aaf6dcf68bdde704482e099492ea2b7d0e38993a")),
    "K5-translate": (K5, _stability(sum(K5_TAU), (
        (Y, v + sum(K5_TAU[i] for i in Y)) for Y, v in zip(K5_SUBCURVES, K5_VALUES)
    )), (0, "5c146c3709eade9dff87b467b37f71d6e9fe1191b7d72c0301a524d9d340953e")),
}


@pytest.mark.parametrize("case", sorted(CLASSICAL))
def test_golden_classical_output(tmp_path, capsys, case):
    graph, stability, golden = CLASSICAL[case]
    paths = {}
    for key, doc in (("graph", graph), ("stability", stability)):
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(doc))
    code = main(["classical", "--graph", str(paths["graph"]),
                 "--stability", str(paths["stability"])])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == golden


# graph, argv after the subcommand, stability document (or None) and (exit
# code, sha256 of stdout) of documents that hold stabilities, recorded
# with one dict per stability value: --chi translates on K4, a curve with
# no biconnected subcurve ("values": []), a curve with genera and a loop,
# and the normal form of the K5 translate with chi = 3
STABILITY_DOCS = {
    "K4-enum-orbits-chi-3": (
        K4, ["enum-orbits", "--chi", "3"], None,
        (0, "e4b7c388c1f05250669bb3a6cdfa1ca9540caaee66ae89ef1c95e487bae0ce17")),
    "K4-enum-orbits-chi-minus-2": (
        K4, ["enum-orbits", "--chi", "-2"], None,
        (0, "81756dd91faf962d9a99efcd468684cf63fc2c8857472c196e0e0f2542ae9640")),
    "genus-1-loop-enum-orbits": (
        {"genera": [1], "edges": [[0, 0]]}, ["enum-orbits"], None,
        (0, "ad3c2def575d4b5e7e960386a473f16b145119b1ab8b2a54e440b1beb8103b8b")),
    "loop-enum-orbits": (
        GENUS_DECORATED, ["enum-orbits"], None,
        (0, "14cba7a11843f966d178b73dac528d05bdc28a5be260d9a0605df4399e76ed45")),
    "K5-translate-normal-form": (
        K5, ["normal-form"], CLASSICAL["K5-translate"][1],
        (0, "7c12b3e69e058b7b73ae0aca9de7922b2f67c7c6d2c0bce809e57fd297e8797d")),
}


@pytest.mark.parametrize("case", sorted(STABILITY_DOCS))
def test_golden_stability_documents(tmp_path, capsys, case):
    graph, argv, stability, golden = STABILITY_DOCS[case]
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    argv = argv[:1] + ["--graph", str(path)] + argv[1:]
    if stability is not None:
        path = tmp_path / "stability.json"
        path.write_text(json.dumps(stability))
        argv += ["--stability", str(path)]
    code = main(argv)
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == golden
