import gc
import json
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

import vstab
from vstab import DualGraph, SheafData, VStability, cli
from vstab.cli import main
from vstab.posets import (
    deg_symmetry_classes,
    enumerate_degeneracy_subsets,
    enumerate_orbits,
    translate,
)
from vstab.sheaves import enumerate_semistable
from vstab.serialize import (
    SchemaError,
    graph_from_json,
    graph_to_json,
    polarization_from_json,
    polarization_to_json,
    sheaf_from_json,
    sheaf_to_json,
    stability_from_json,
    stability_to_json,
)

from conftest import (
    K33_MINUS_EDGE_NONCLASSICAL,
    LADDER,
    banana,
    cycle5,
    k4,
    k4_plus_path2,
    k5,
    k33_minus_edge,
    triangle,
)

HUGE = 10 ** 30     # a vertex index whose mask bit would not fit in memory


@pytest.fixture
def banana_files(tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(graph_to_json(banana())))

    def stability_file(values, chi=0, name="stability.json"):
        path = tmp_path / name
        s = VStability.from_dict(banana(), chi, values)
        path.write_text(json.dumps(stability_to_json(s)))
        return str(path)

    return str(graph), stability_file


class TestRoundTrips:
    def test_graph(self):
        for g in [banana(), triangle(), k4(), DualGraph((2,), ((0, 0),))]:
            assert graph_from_json(graph_to_json(g)) == g

    def test_stability(self):
        g = banana()
        s = VStability.from_dict(g, 3, {1: 1, 2: 2})
        assert stability_from_json(g, stability_to_json(s)) == s

    def test_polarization(self):
        from vstab import from_ample
        p = from_ample(triangle(), (1, 2, 3), 5)
        assert polarization_from_json(triangle(), polarization_to_json(p)) == p

    def test_sheaf(self):
        g = banana()
        I = SheafData(g, 0b11, (2, -1), frozenset({1}))
        assert sheaf_from_json(g, sheaf_to_json(I)) == I

    def test_missing_key(self):
        with pytest.raises(SchemaError):
            graph_from_json({"genera": [0, 0]})

    def test_wrong_subcurves(self):
        with pytest.raises(SchemaError):
            stability_from_json(banana(), {"chi": 0, "values": []})


class TestValidateCommand:
    def test_valid_exit_zero(self, banana_files, capsys):
        graph, stability = banana_files
        code = main(["validate", "--graph", graph,
                     "--stability", stability({1: 0, 2: 0})])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True

    def test_invalid_exit_one(self, banana_files, capsys):
        graph, stability = banana_files
        code = main(["validate", "--graph", graph,
                     "--stability", stability({1: 0, 2: 2})])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"][0]["kind"] == "pair-sum"

    def test_malformed_exit_two(self, banana_files, tmp_path, capsys):
        graph, _ = banana_files
        bad = tmp_path / "bad.json"
        bad.write_text('{"chi": 0}')
        code = main(["validate", "--graph", graph, "--stability", str(bad)])
        assert code == 2


class TestEnumCommands:
    def test_enum_orbits_banana(self, banana_files, capsys):
        graph, _ = banana_files
        assert main(["enum-orbits", "--graph", graph]) == 0
        doc = json.loads(capsys.readouterr().out)
        values = [
            sorted((tuple(e["subcurve"]), e["s"]) for e in orbit["values"])
            for orbit in doc["orbits"]
        ]
        assert values == [
            [((0,), 0), ((1,), 0)],
            [((0,), 0), ((1,), 1)],
        ]

    def test_enum_deg_banana(self, banana_files, capsys):
        graph, _ = banana_files
        assert main(["enum-deg", "--graph", graph]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["degeneracy_subsets"]) == 2

    @pytest.mark.parametrize("argv, key", [
        (["enum-deg", "--mod-symmetry"], "degeneracy_subsets"),
        (["poset", "--kind", "deg", "--mod-symmetry"], "elements"),
    ], ids=["enum-deg", "poset"])
    def test_k5_symmetry_classes(self, tmp_path, capsys, argv, key):
        # some K5 members decompose into minimal elements in two ways
        g = k5()
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(graph_to_json(g)))
        assert main(argv[:1] + ["--graph", str(graph)] + argv[1:]) == 0
        doc = json.loads(capsys.readouterr().out)
        reps, _ = deg_symmetry_classes(g, enumerate_degeneracy_subsets(g))
        assert len(doc[key]) == len(reps) == 13
        if key == "elements":
            assert len(doc["covers"]) == 21

    def test_poset_dot(self, banana_files, capsys):
        graph, _ = banana_files
        assert main(["poset", "--graph", graph, "--kind", "deg",
                     "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph") and "->" in out

    @pytest.mark.parametrize("chi, code", [("0", 0), ("3", 2), ("-1", 2)])
    def test_deg_poset_refuses_a_nonzero_chi(self, banana_files, capsys, chi, code):
        # degeneracy subsets do not depend on chi, so a nonzero --chi is
        # refused rather than ignored
        graph, _ = banana_files
        assert main(["poset", "--graph", graph, "--kind", "deg", "--chi", chi]) == code
        captured = capsys.readouterr()
        assert bool(captured.out) == (code == 0)
        assert ("--chi" in captured.err) == (code == 2)

    @pytest.mark.parametrize("kind, code", [("deg", 0), ("vstab", 2)])
    def test_vstab_poset_refuses_mod_symmetry(self, banana_files, capsys, kind, code):
        # window stabilities are not grouped by symmetry, so the flag is
        # refused with --kind vstab rather than ignored
        graph, _ = banana_files
        assert main(["poset", "--graph", graph, "--kind", kind, "--mod-symmetry"]) == code
        captured = capsys.readouterr()
        assert bool(captured.out) == (code == 0)
        assert ("--mod-symmetry" in captured.err) == (code == 2)

    def test_vstab_poset_over_budget_exits_two(self, tmp_path, capsys):
        # K5's window has 16 321 stabilities: refused after the enumeration,
        # before the quadratic Hasse diagram
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(graph_to_json(k5())))
        start = time.process_time()
        assert main(["poset", "--graph", str(graph), "--kind", "vstab"]) == 2
        assert time.process_time() - start < 10
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "16321" in captured.err and str(cli.MAX_POSET_ELEMENTS) in captured.err

    @pytest.mark.parametrize("mod_symmetry", [[], ["--mod-symmetry"]], ids=["plain", "mod"])
    def test_deg_poset_over_budget_exits_two(self, tmp_path, capsys, mod_symmetry):
        # K6 has 3708 degeneracy subsets: refused after the enumeration,
        # before the symmetry classes and the quadratic Hasse diagram
        k6 = DualGraph((0,) * 6, tuple((i, j) for i in range(6) for j in range(i + 1, 6)))
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(graph_to_json(k6)))
        start = time.process_time()
        assert main(["poset", "--graph", str(graph), "--kind", "deg", *mod_symmetry]) == 2
        assert time.process_time() - start < 10
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "3708" in captured.err and str(cli.MAX_POSET_ELEMENTS) in captured.err

    @pytest.mark.parametrize("budget, code", [(2, 0), (1, 2)])
    def test_deg_poset_budget_is_inclusive(self, banana_files, capsys, monkeypatch,
                                           budget, code):
        # the banana has two degeneracy subsets
        graph, _ = banana_files
        monkeypatch.setattr(cli, "MAX_POSET_ELEMENTS", budget)
        assert main(["poset", "--graph", graph, "--kind", "deg"]) == code
        assert bool(capsys.readouterr().out) == (code == 0)

    @pytest.mark.parametrize("budget, code", [(3, 0), (2, 2)])
    def test_vstab_poset_budget_is_inclusive(self, banana_files, capsys, monkeypatch,
                                             budget, code):
        # the banana window has three stabilities
        graph, _ = banana_files
        monkeypatch.setattr(cli, "MAX_POSET_ELEMENTS", budget)
        assert main(["poset", "--graph", graph, "--kind", "vstab"]) == code
        assert bool(capsys.readouterr().out) == (code == 0)

    def test_enum_orbits_over_budget_exits_two_at_once(self, tmp_path, capsys):
        # K6 has 31 complementary pairs and 242 002 orbits: refused before
        # the search
        k6 = DualGraph((0,) * 6, tuple((i, j) for i in range(6) for j in range(i + 1, 6)))
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(graph_to_json(k6)))
        start = time.process_time()
        assert main(["enum-orbits", "--graph", str(graph)]) == 2
        assert time.process_time() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "31 complementary pairs" in captured.err
        assert str(cli.MAX_ORBIT_PAIRS) in captured.err

    @pytest.mark.parametrize("budget, code", [(1, 0), (0, 2)])
    def test_enum_orbits_budget_is_inclusive(self, banana_files, capsys, monkeypatch,
                                             budget, code):
        # the banana has one complementary pair
        graph, _ = banana_files
        monkeypatch.setattr(cli, "MAX_ORBIT_PAIRS", budget)
        assert main(["enum-orbits", "--graph", graph]) == code
        assert bool(capsys.readouterr().out) == (code == 0)

    def test_enum_orbits_budget_admits_the_ladder(self):
        assert max(len(make().bcon_pairs) for make in LADDER) <= cli.MAX_ORBIT_PAIRS

    @pytest.mark.parametrize("extra", [[], ["--mod-symmetry"]], ids=["plain", "mod-symmetry"])
    def test_enum_deg_over_budget_exits_two_at_once(self, tmp_path, capsys, extra):
        # K7 has 63 complementary pairs: refused before the search, which
        # on a seven-vertex graph of 48 pairs took 51 s for 245 001 subsets
        k7 = DualGraph((0,) * 7, tuple((i, j) for i in range(7) for j in range(i + 1, 7)))
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(graph_to_json(k7)))
        start = time.process_time()
        assert main(["enum-deg", "--graph", str(graph)] + extra) == 2
        assert time.process_time() - start < 0.5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "63 complementary pairs" in captured.err
        assert str(cli.MAX_DEG_PAIRS) in captured.err

    @pytest.mark.parametrize("extra", [[], ["--mod-symmetry"]], ids=["plain", "mod-symmetry"])
    @pytest.mark.parametrize("budget, code", [(1, 0), (0, 2)])
    def test_enum_deg_budget_is_inclusive(self, banana_files, capsys, monkeypatch,
                                          extra, budget, code):
        # the banana has one complementary pair
        graph, _ = banana_files
        monkeypatch.setattr(cli, "MAX_DEG_PAIRS", budget)
        assert main(["enum-deg", "--graph", graph] + extra) == code
        assert bool(capsys.readouterr().out) == (code == 0)

    def test_deg_poset_over_pair_budget_exits_two_at_once(self, tmp_path, capsys):
        # the wheel on seven vertices plus two chords has 48 complementary
        # pairs and 245 001 degeneracy subsets: refused before the search,
        # which took 11.3 s of CPU time before the element budget refused it
        rim = [(i, i % 6 + 1) for i in range(1, 7)]
        wheel = DualGraph((0,) * 7, [(0, i) for i in range(1, 7)] + rim + [(1, 4), (2, 5)])
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(graph_to_json(wheel)))
        start = time.process_time()
        assert main(["poset", "--graph", str(graph), "--kind", "deg"]) == 2
        assert time.process_time() - start < 0.5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "poset --kind deg" in captured.err
        assert "48 complementary pairs" in captured.err
        assert str(cli.MAX_DEG_PAIRS) in captured.err

    @pytest.mark.parametrize("budget, code", [(1, 0), (0, 2)])
    def test_deg_poset_pair_budget_is_inclusive(self, banana_files, capsys, monkeypatch,
                                                budget, code):
        # the banana has one complementary pair
        graph, _ = banana_files
        monkeypatch.setattr(cli, "MAX_DEG_PAIRS", budget)
        assert main(["poset", "--graph", graph, "--kind", "deg"]) == code
        assert bool(capsys.readouterr().out) == (code == 0)

    def test_enum_deg_budget_admits_the_ladder_and_k6(self):
        k6 = DualGraph((0,) * 6, tuple((i, j) for i in range(6) for j in range(i + 1, 6)))
        assert max(len(make().bcon_pairs) for make in LADDER) <= cli.MAX_DEG_PAIRS
        assert len(k6.bcon_pairs) <= cli.MAX_DEG_PAIRS

    MOD_SYMMETRY = [["enum-deg", "--mod-symmetry"], ["poset", "--kind", "deg", "--mod-symmetry"]]

    @pytest.mark.parametrize("argv", MOD_SYMMETRY, ids=["enum-deg", "poset"])
    @pytest.mark.parametrize("bound, code", [(2, 0), (1, 2)])
    def test_mod_symmetry_bound_is_inclusive(self, banana_files, capsys, monkeypatch,
                                             argv, bound, code):
        # the banana has two components
        graph, _ = banana_files
        monkeypatch.setattr(cli, "MAX_SYMMETRY_VERTICES", bound)
        assert main(argv[:1] + ["--graph", graph] + argv[1:]) == code
        assert bool(capsys.readouterr().out) == (code == 0)

    def test_mod_symmetry_admits_a_path_at_the_bound(self, tmp_path, capsys):
        n = cli.MAX_SYMMETRY_VERTICES
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"genera": [0] * n, "edges": [[i, i + 1] for i in range(n - 1)]}))
        assert main(["enum-deg", "--graph", str(graph), "--mod-symmetry"]) == 0
        assert json.loads(capsys.readouterr().out)["mod_symmetry"] is True

    @pytest.mark.parametrize("argv", MOD_SYMMETRY, ids=["enum-deg", "poset"])
    def test_mod_symmetry_refuses_a_long_path(self, tmp_path, capsys, argv):
        # the bound refuses n = 12 before any work; the path has few
        # degeneracy subsets, so no other budget stops it
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"genera": [0] * 12, "edges": [[i, i + 1] for i in range(11)]}))
        start = time.process_time()
        assert main(argv[:1] + ["--graph", str(graph)] + argv[1:]) == 2
        assert time.process_time() - start < 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "12 components" in captured.err
        assert str(cli.MAX_SYMMETRY_VERTICES) in captured.err


class TestVerdictCommands:
    def test_classical_witness(self, banana_files, capsys):
        graph, stability = banana_files
        code = main(["classical", "--graph", graph,
                     "--stability", stability({1: 0, 2: 0})])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classical"] is True
        assert doc["witness"]["psi"] == [["0", "1"], ["0", "1"]]

    def test_classical_refusal(self, tmp_path, capsys):
        # a general stability that no polarization induces: exit 1 and the
        # bare verdict, with no witness, indented as every document is
        g = k33_minus_edge()
        s = VStability(g, 0, K33_MINUS_EDGE_NONCLASSICAL)
        graph, stability = tmp_path / "graph.json", tmp_path / "stability.json"
        graph.write_text(json.dumps(graph_to_json(g)))
        stability.write_text(json.dumps(stability_to_json(s)))
        code = main(["classical", "--graph", str(graph), "--stability", str(stability)])
        assert code == 1
        assert capsys.readouterr().out == '{\n  "classical": false\n}\n'

    def test_semistable_enumeration(self, banana_files, capsys):
        graph, stability = banana_files
        code = main(["semistable", "--graph", graph,
                     "--stability", stability({1: 0, 2: 0})])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["semistable"]) == 8

    def test_limit_trace(self, banana_files, capsys):
        graph, stability = banana_files
        code = main(["limit", "--graph", graph,
                     "--stability", stability({1: 0, 2: 0}),
                     "--multidegree", "5,-5"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"] == [1, -1]
        assert doc["steps"][0] == {"Y": [1], "beta_min": -4, "d": [3, -3], "lemma_step": True}
        assert doc["used_fallback"] is False

    def test_limit_trace_shows_fallback_steps(self, tmp_path, capsys):
        # the stalled C5 instance of criterion 09's literal-iteration xfail:
        # its first step comes from the monotone expansion
        g = cycle5()
        values = (-1, 0, -1, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0, 1)
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(graph_to_json(g)))
        stability = tmp_path / "stability.json"
        stability.write_text(json.dumps(stability_to_json(VStability(g, 0, values))))
        assert main(["limit", "--graph", str(graph), "--stability", str(stability),
                     "--multidegree=-1,-2,1,0,2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["used_fallback"] is True
        assert [step["lemma_step"] for step in doc["steps"]] == [False, True]
        assert doc["result"] == [-1, 0, 1, -1, 1]

    def test_long_limit_walk(self, banana_files, capsys):
        # 1500 twists, deeper than the interpreter's recursion limit
        graph, stability = banana_files
        assert main(["limit", "--graph", graph, "--stability", stability({1: 0, 2: 0}),
                     "--multidegree", "3000,-3000"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"] == [0, 0] and len(doc["steps"]) == 1500

    @pytest.mark.parametrize("offset, code", [(0, 0), (1, 2)])
    def test_limit_degree_budget_is_inclusive(self, banana_files, capsys, offset, code):
        graph, stability = banana_files
        bound = cli.MAX_LIMIT_DEGREE + offset
        assert main(["limit", "--graph", graph, "--stability", stability({1: 0, 2: 0}),
                     "--multidegree", f"{bound},{-bound}"]) == code
        assert bool(capsys.readouterr().out) == (code == 0)

    def test_limit_over_degree_budget_exits_two_at_once(self, banana_files, capsys):
        graph, stability = banana_files
        start = time.process_time()
        assert main(["limit", "--graph", graph, "--stability", stability({1: 0, 2: 0}),
                     "--multidegree", f"{10 ** 9},{-10 ** 9}"]) == 2
        assert time.process_time() - start < 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--multidegree" in captured.err and str(cli.MAX_LIMIT_DEGREE) in captured.err

    def test_limit_over_deficit_budget_exits_two_at_once(self, banana_files, capsys):
        # small entries against a translated stability: the walk from (0, 0)
        # is the walk from (-10**9, 10**9) against the untranslated one
        graph, stability = banana_files
        start = time.process_time()
        assert main(["limit", "--graph", graph,
                     "--stability", stability({1: 10 ** 9, 2: -10 ** 9}),
                     "--multidegree", "0,0"]) == 2
        assert time.process_time() - start < 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "beta deficit" in captured.err and str(10 ** 9 - 1) in captured.err
        assert str(cli.MAX_LIMIT_DEGREE) in captured.err

    @pytest.mark.parametrize("value, code", [(1, 0), (2, 2)])
    def test_limit_deficit_budget_is_inclusive(self, banana_files, capsys, value, code):
        # entries at the bound, deficit 4999 + value against a translate
        graph, stability = banana_files
        bound = cli.MAX_LIMIT_DEGREE
        assert main(["limit", "--graph", graph,
                     "--stability", stability({1: -value, 2: value}),
                     "--multidegree", f"{bound},{-bound}"]) == code
        assert bool(capsys.readouterr().out) == (code == 0)

    @pytest.mark.parametrize("entry, code", [(5, 0), (6, 2)])
    def test_limit_deficit_budget_shrinks_with_components(self, banana_files, capsys,
                                                          monkeypatch, entry, code):
        # a work budget of 4 * 4**2 leaves the banana (n = 2) a deficit of 4
        graph, stability = banana_files
        monkeypatch.setattr(cli, "MAX_LIMIT_WORK", 4 * 4 ** 2)
        assert main(["limit", "--graph", graph, "--stability", stability({1: 0, 2: 0}),
                     "--multidegree", f"{entry},{-entry}"]) == code
        captured = capsys.readouterr()
        assert bool(captured.out) == (code == 0)
        assert code == 0 or "above 4," in captured.err

    def test_semistable_limit_on_twelve_components_builds_no_shift_table(self, tmp_path, capsys):
        # the zero degrees against the zero stability of the 12-cycle have
        # deficit 0, so no walk starts and no 4**12-entry shift table is built
        g = DualGraph((0,) * 12, tuple((v, (v + 1) % 12) for v in range(12)))
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(graph_to_json(g)))
        stability = tmp_path / "stability.json"
        zero = VStability(g, 0, (0,) * len(g.biconnected_subcurves))
        stability.write_text(json.dumps(stability_to_json(zero)))
        start = time.process_time()
        assert main(["limit", "--graph", str(graph), "--stability", str(stability),
                     "--multidegree", ",".join("0" * 12)]) == 0
        assert time.process_time() - start < 0.5
        doc = json.loads(capsys.readouterr().out)
        assert doc["steps"] == [] and doc["result"] == [0] * 12

    def test_semistable_on_k4_with_a_two_path_is_quick(self, tmp_path, capsys):
        # 2**8 non-free sets on the full support of the first orbit, built
        # level by level from its line bundles; testing every candidate of
        # the forced windows took 2.0 s of CPU time
        g = k4_plus_path2()
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(graph_to_json(g)))
        stability = tmp_path / "stability.json"
        stability.write_text(json.dumps(stability_to_json(enumerate_orbits(g)[0])))
        start = time.process_time()
        assert main(["semistable", "--graph", str(graph), "--stability", str(stability)]) == 0
        assert time.process_time() - start < 0.5
        assert len(json.loads(capsys.readouterr().out)["semistable"]) == 1584

    @pytest.mark.parametrize("multidegree", [
        "5_0,-50", "+5,-5", "5,-\u0665", "5,", "5,-5x", "1" * 5000 + ",0",
    ], ids=["underscore", "plus", "non-ascii-digit", "empty", "suffix", "5000-digits"])
    def test_malformed_multidegree_exits_two(self, banana_files, capsys, multidegree):
        graph, stability = banana_files
        code = main(["limit", "--graph", graph, "--stability", stability({1: 0, 2: 0}),
                     "--multidegree", multidegree])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--multidegree entry" in captured.err

    def test_integer_tokens_may_carry_surrounding_spaces(self, banana_files, tmp_path, capsys):
        graph, stability = banana_files
        assert main(["limit", "--graph", graph, "--stability", stability({1: 0, 2: 0}),
                     "--multidegree", " 5 , -5 "]) == 0
        assert json.loads(capsys.readouterr().out)["result"] == [1, -1]
        sheaf = tmp_path / "sheaf.json"
        sheaf.write_text(json.dumps(sheaf_to_json(SheafData.line_bundle(banana(), (0, 0)))))
        assert main(["specialize", "--graph", graph, "--sheaf", str(sheaf),
                     "--partition", " 1 | 0 "]) == 0

    def test_normal_form(self, banana_files, capsys):
        graph, _ = banana_files
        g = banana()
        s = VStability.from_dict(g, 0, {1: 3, 2: -2})
        import json as _json
        import os
        path = os.path.join(os.path.dirname(graph), "nf.json")
        with open(path, "w") as fh:
            _json.dump(stability_to_json(s), fh)
        code = main(["normal-form", "--graph", graph, "--stability", path])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tau"] == [-3, 3]
        assert doc["normal_form"]["chi"] == 0

    def test_specialize(self, banana_files, tmp_path, capsys):
        graph, _ = banana_files
        I = SheafData.line_bundle(banana(), (0, 0))
        sheaf = tmp_path / "sheaf.json"
        sheaf.write_text(json.dumps(sheaf_to_json(I)))
        code = main(["specialize", "--graph", graph, "--sheaf", str(sheaf),
                     "--partition", "1|0"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["multidegree"] == {"0": -2, "1": 0}
        assert doc["nonfree"] == [0, 1]


class TestScanCommand:
    def test_qdeg_scan_tiny(self, capsys):
        assert main(["qdeg-scan", "--max-vertices", "2", "--max-edges", "3"]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert all(r["is_partial_order"] for r in lines)
        assert all(r["degeneracy_map_surjective"] for r in lines)
        banana_row = next(r for r in lines if r["edges"] == [[0, 1], [0, 1]])
        assert banana_row["ranked"] is True and banana_row["rank"] == 1


    def test_qdeg_scan_holds_one_graph_at_a_time(self, capsys, monkeypatch):
        # each catalogue graph, with its cached tables, is freed once its
        # report is written; a graph holds no reference cycle, so this
        # holds with the cyclic collector off
        seen, alive = [], []
        scan = cli.posets.qdeg_scan

        def spy(g):
            alive.append(sum(ref() is not None for ref in seen))
            seen.append(weakref.ref(g))
            return scan(g)

        monkeypatch.setattr(cli.posets, "qdeg_scan", spy)
        gc.collect()
        gc.disable()
        try:
            assert main(["qdeg-scan", "--max-vertices", "4", "--max-edges", "5"]) == 0
        finally:
            gc.enable()
        assert len(alive) == len(capsys.readouterr().out.splitlines()) > 10
        assert not any(alive)


class TestClosedPipe:
    def test_reader_closing_stdout_exits_141_without_traceback(self, tmp_path):
        # the K5 orbit document (3.7 MB) overfills the pipe, so the writer
        # is still writing when the reader goes; it once exited 1 with a
        # BrokenPipeError traceback
        graph = tmp_path / "k5.json"
        graph.write_text(json.dumps(graph_to_json(k5())))
        env = dict(os.environ, PYTHONPATH=str(Path(vstab.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "vstab", "enum-orbits", "--graph", str(graph)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == cli.EXIT_PIPE == 141
        assert b"Traceback" not in err


class TestDeterminism:
    def test_byte_identical_outputs(self, banana_files, capsys):
        graph, stability = banana_files
        spath = stability({1: 0, 2: 0})
        main(["enum-orbits", "--graph", graph])
        first = capsys.readouterr().out
        main(["enum-orbits", "--graph", graph])
        second = capsys.readouterr().out
        assert first == second


    def test_repeated_calls_share_one_parser_and_print_identical_bytes(
            self, banana_files, capsys):
        # the parser is built once per process; successes, refusals and
        # argparse's own exits print the same bytes on every call
        graph, stability = banana_files
        spath = stability({1: 0, 2: 0})
        calls = [
            ["enum-deg", "--graph", graph],
            ["poset", "--graph", graph, "--kind", "vstab", "--format", "table"],
            ["validate", "--graph", graph, "--stability", spath],
            ["poset", "--graph", graph, "--kind", "deg", "--chi", "3"],
            ["qdeg-scan", "--max-vertices", "0"],
            ["enum-deg"],
            ["no-such-command"],
            ["poset", "--graph", graph, "--kind", "neither"],
        ]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        first = [run(argv) for argv in calls]
        assert [code for code, _, _ in first] == [0, 0, 0, 2, 2, ("exit", 2), ("exit", 2), ("exit", 2)]
        assert all(out or err for _, out, err in first)
        assert [run(argv) for argv in calls] == first
        assert cli.build_parser() is cli.build_parser()


class TestWindowAndBounds:
    def test_window_zero_is_the_box_at_zero(self, banana_files, capsys):
        graph, stability = banana_files
        s = translate(enumerate_orbits(banana())[0], (2, 0))
        path = stability(s.as_dict(), chi=s.chi)
        expected = enumerate_semistable(
            banana(), s, full_support_only=True, degree_window=0
        )
        assert main(["semistable", "--graph", graph, "--stability", path,
                     "--window", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["semistable"]) == len(expected) == 0
        assert main(["semistable", "--graph", graph, "--stability", path,
                     "--window", "3"]) == 0
        assert len(json.loads(capsys.readouterr().out)["semistable"]) == 8

    def test_negative_window_exits_two(self, banana_files, capsys):
        graph, stability = banana_files
        code = main(["semistable", "--graph", graph,
                     "--stability", stability({1: 0, 2: 0}), "--window", "-1"])
        assert code == 2
        assert "--window" in capsys.readouterr().err

    @pytest.mark.parametrize("window", ["56", str(HUGE)])
    def test_window_over_budget_exits_two_at_once(self, tmp_path, capsys, window):
        # the triangle at W = 56 spans a box of 8 * 113**2 sheaf classes
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(graph_to_json(triangle())))
        stability = tmp_path / "stability.json"
        stability.write_text(json.dumps(stability_to_json(enumerate_orbits(triangle())[0])))
        start = time.process_time()
        assert main(["semistable", "--graph", str(graph), "--stability", str(stability),
                     "--window", window]) == 2
        assert time.process_time() - start < 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--window" in captured.err and str(cli.MAX_WINDOW_WORK) in captured.err

    @pytest.mark.parametrize("supports, work", [([], 4 * 7), (["--all-supports"], 2 + 4 * 7)])
    @pytest.mark.parametrize("slack, code", [(0, 0), (-1, 2)])
    def test_window_budget_is_inclusive(self, banana_files, capsys, monkeypatch,
                                        supports, work, slack, code):
        # the banana at W = 3: 2**2 node sets times 7 degree vectors on the
        # full support, plus one of each on the two single components
        graph, stability = banana_files
        monkeypatch.setattr(cli, "MAX_WINDOW_WORK", work + slack)
        assert main(["semistable", "--graph", graph, "--stability", stability({1: 0, 2: 0}),
                     "--window", "3", *supports]) == code
        assert bool(capsys.readouterr().out) == (code == 0)

    def test_window_budget_charges_each_support_its_own_edges(self):
        # C5 at W = 3: 2**5 * 7**4 on the full support; a proper support of
        # k vertices with e cycle edges inside adds 2**e * 7**(k-1), which
        # sums to 5 + 105 + 1470 + 13720 over k = 1 to 4
        g = cycle5()
        assert cli._window_work(g, 3, False) == 76_832
        assert cli._window_work(g, 3, True) == 76_832 + 5 + 105 + 1470 + 13_720
        assert cli._window_work(g, 3, True) <= cli.MAX_WINDOW_WORK

    @pytest.mark.parametrize("flag, bound", [
        pytest.param("--max-vertices", "0", id="0"),
        pytest.param("--max-vertices", "-3", id="-3"),
        pytest.param("--max-edges", "-4", id="max-edges--4"),
    ])
    def test_nonpositive_scan_bound_exits_two(self, flag, bound, capsys):
        assert main(["qdeg-scan", flag, bound]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and flag in captured.err

    @pytest.mark.parametrize("vertices, edges", [
        pytest.param("7", "9", id="7-9"),
        pytest.param("2", "1000000", id="2-1000000"),
        pytest.param(str(HUGE), str(HUGE), id="huge"),
    ])
    def test_scan_over_budget_exits_two_at_once(self, vertices, edges, capsys):
        start = time.perf_counter()
        assert main(["qdeg-scan", "--max-vertices", vertices, "--max-edges", edges]) == 2
        assert time.perf_counter() - start < 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--max-vertices" in captured.err and "--max-edges" in captured.err

    def test_zero_max_edges_scans_the_single_vertex(self, capsys):
        assert main(["qdeg-scan", "--max-vertices", "3", "--max-edges", "0"]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [(r["genera"], r["edges"]) for r in lines] == [([0], [])]

    @pytest.mark.parametrize("vertices, edges", [
        pytest.param("1", "1000000000", id="1-1000000000"),
        pytest.param("1000000000", "0", id="1000000000-0"),
    ])
    def test_scan_of_one_vertex_ends_at_once(self, vertices, edges, capsys):
        start = time.perf_counter()
        assert main(["qdeg-scan", "--max-vertices", vertices, "--max-edges", edges]) == 0
        assert time.perf_counter() - start < 2
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [(r["genera"], r["edges"]) for r in lines] == [([0], [])]


class TestStrictSchemas:
    def test_negative_multidegree_key(self):
        doc = {"support": [0, 1], "multidegree": {"-1": 5, "0": 0}, "nonfree": []}
        with pytest.raises(SchemaError):
            sheaf_from_json(banana(), doc)

    @pytest.mark.parametrize("key", ["2", "01", " 1", "x"])
    def test_multidegree_key_must_name_a_component(self, key):
        doc = {"support": [0, 1], "multidegree": {key: 1}, "nonfree": []}
        with pytest.raises(SchemaError):
            sheaf_from_json(banana(), doc)

    @pytest.mark.parametrize("doc", [
        {"support": [0, 1], "multidegree": [0, 0], "nonfree": []},
        {"support": [0, 5], "multidegree": {"0": 0}, "nonfree": []},
        {"support": [], "multidegree": {}, "nonfree": []},
    ])
    def test_malformed_sheaf(self, doc):
        with pytest.raises(SchemaError):
            sheaf_from_json(banana(), doc)

    def test_fractional_edge_endpoint(self):
        with pytest.raises(SchemaError):
            graph_from_json({"genera": [0, 0], "edges": [[0, 1.7]]})

    @pytest.mark.parametrize("genus", [1.0, True, "1"])
    def test_genus_must_be_an_integer(self, genus):
        with pytest.raises(SchemaError):
            graph_from_json({"genera": [genus, 0], "edges": [[0, 1]]})

    def test_cli_exits_two(self, tmp_path, capsys):
        graph = tmp_path / "graph.json"
        graph.write_text('{"genera": [0, 0], "edges": [[0, 1.7], [0, 1]]}')
        assert main(["enum-orbits", "--graph", str(graph)]) == 2
        assert "edge endpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [[1.5, "1"], [True, "1"], [1, "1"], ["1", 2], "12"])
    def test_psi_entries_are_integer_strings(self, entry):
        doc = {"chi": 1, "psi": [entry, ["0", "1"], ["0", "1"]]}
        with pytest.raises(SchemaError):
            polarization_from_json(triangle(), doc)

    def test_psi_sum_mismatch_is_a_schema_error(self):
        doc = {"chi": 5, "psi": [["1", "1"], ["0", "1"], ["0", "1"]]}
        with pytest.raises(SchemaError):
            polarization_from_json(triangle(), doc)

    @pytest.mark.parametrize("values", [
        pytest.param([{"subcurve": [0], "s": 5}, {"subcurve": [0], "s": 0},
                      {"subcurve": [1], "s": 0}], id="subcurve-twice"),
        pytest.param([{"subcurve": [0], "s": 0}, {"subcurve": [1, 1], "s": 0}],
                     id="vertex-twice"),
    ])
    def test_repeated_stability_entry(self, values):
        with pytest.raises(SchemaError, match="two entries|repeat"):
            stability_from_json(banana(), {"chi": 0, "values": values})

    @pytest.mark.parametrize("doc", [
        pytest.param({"support": [0, 1, 1], "multidegree": {}, "nonfree": []},
                     id="support-vertex-twice"),
        pytest.param({"support": [0, 1], "multidegree": {}, "nonfree": [0, 0]},
                     id="nonfree-edge-twice"),
    ])
    def test_repeated_sheaf_entry(self, doc):
        with pytest.raises(SchemaError, match="repeat"):
            sheaf_from_json(banana(), doc)

    def test_repeated_entry_exits_two(self, banana_files, tmp_path, capsys):
        graph, _ = banana_files
        path = tmp_path / "twice.json"
        path.write_text(json.dumps({"chi": 0, "values": [
            {"subcurve": [0], "s": 5}, {"subcurve": [0], "s": 0},
            {"subcurve": [1], "s": 0}]}))
        assert main(["validate", "--graph", graph, "--stability", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "two entries" in captured.err

    def test_huge_subcurve_vertex_exits_two(self, banana_files, tmp_path, capsys):
        # the index is range-checked before any mask is built
        graph, _ = banana_files
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"chi": 0, "values": [
            {"subcurve": [HUGE], "s": 0}, {"subcurve": [1], "s": 0}]}))
        assert main(["validate", "--graph", graph, "--stability", str(path)]) == 2
        assert str(HUGE) in capsys.readouterr().err


SHEAF = {"support": [0, 1], "multidegree": {"0": 0, "1": 0}, "nonfree": []}


class TestSpecializeInput:
    @pytest.mark.parametrize("sheaf, partition, message", [
        pytest.param({"support": [], "multidegree": {}, "nonfree": []}, "0|1",
                     "support", id="empty-support"),
        pytest.param(SHEAF, "0|0,1", "disjoint", id="overlap"),
        pytest.param(SHEAF, "0||1", "nonempty", id="empty-part"),
        pytest.param(SHEAF, "0", "cover", id="not-covering"),
        pytest.param(SHEAF, "0|2", "--partition vertex 2", id="vertex-out-of-range"),
        pytest.param(SHEAF, "0,0|1", "repeat", id="repeated-partition-vertex"),
        pytest.param(SHEAF, "0|0_1", "--partition vertex '0_1'", id="underscore-digits"),
        pytest.param(SHEAF, "+0|1", "--partition vertex '+0'", id="plus-sign"),
        pytest.param(SHEAF, "0|\u0661", "--partition vertex", id="non-ascii-digit"),
        pytest.param(SHEAF, "0,|1", "--partition vertex ''", id="blank-token"),
        pytest.param(SHEAF, f"0|1,{HUGE}", str(HUGE), id="huge-partition-vertex"),
        pytest.param({"support": [0, HUGE], "multidegree": {"0": 0}, "nonfree": []},
                     "0", str(HUGE), id="huge-support-vertex"),
    ])
    def test_malformed_input_exits_two(self, tmp_path, capsys, sheaf, partition, message):
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(graph_to_json(banana())))
        path = tmp_path / "sheaf.json"
        path.write_text(json.dumps(sheaf))
        assert main(["specialize", "--graph", str(graph), "--sheaf", str(path),
                     "--partition", partition]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["validate", "--graph", "g.json", "--stability", "s.json", "--chi", "3"],
        ["enum-orbits", "--graph", "g.json", "--seed", "7"],
        ["enum-deg", "--graph", "g.json", "--format", "dot"],
        ["classical", "--graph", "g.json", "--stability", "s.json", "--window", "2"],
        ["normal-form", "--graph", "g.json", "--stability", "s.json", "--mod-symmetry"],
        ["limit", "--graph", "g.json", "--stability", "s.json",
         "--multidegree", "0,0", "--max-vertices", "3"],
        ["qdeg-scan", "--seed", "1"],
    ])
    def test_flags_a_subcommand_does_not_read_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
