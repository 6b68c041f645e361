"""Manifest parsing round-trips and command line behaviour.

The CLI contract under test: exit 0 on success, 1 on a violated
verified property, 2 on invalid input, 3 on an unmet precondition;
--json output byte-identical across runs.
"""

import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from quasigenus.cli import main
from quasigenus.errors import InputError
from quasigenus.manifest import (_CONSTRUCTORS, _SECTIONS, Manifest,
                                 _build_polytope, _checked_size,
                                 parse_expression, parse_manifest,
                                 serialize_expression, serialize_manifest)

REPO = Path(__file__).resolve().parent.parent
MANIFESTS = REPO / "manifests"

CP2 = str(MANIFESTS / "cp2.ini")
CP3_TWISTED = str(MANIFESTS / "cp3_twisted.ini")
S2_BOUNDING = str(MANIFESTS / "s2_bounding.ini")
S2XS2 = str(MANIFESTS / "s2xs2_spin.ini")

# the sections after an explicit [polytope] listing of the segment
SEGMENT_REST = "[characteristic]\nrow = 1 1\n[spinc]\ngamma = 1 1\n"


def _projective_manifest(n):
    """CP^n over simplex(n): the identity matrix with a column of -1s."""
    rows = "".join("row = " + " ".join(
        str(1 if i == j else -(j == n)) for j in range(n + 1)) + "\n"
                   for i in range(n))
    return (f"[polytope]\nconstruct = simplex({n})\n\n[characteristic]\n"
            f"{rows}\n[spinc]\ngamma = {' '.join(['1'] * (n + 1))}\n")


class TestExpressions:
    def test_round_trip(self):
        for text in [
                "simplex(3)",
                "cube(2)",
                "polygon(5)",
                "product(simplex(1), simplex(2))",
                "vertex_cut(simplex(3), {1 2 3})",
                "connected_sum(simplex(2), {1 2}, simplex(2), {1 2})",
                "product(vertex_cut(simplex(3), {1 2 3}), cube(2))",
        ]:
            spec = parse_expression(text)
            assert serialize_expression(spec) == text
            assert parse_expression(serialize_expression(spec)) == spec

    def test_predicted_size_matches_the_built_polytope(self):
        for text in [
                "simplex(12)",
                "cube(4)",
                "polygon(24)",
                "product(simplex(1), polygon(12))",
                "vertex_cut(simplex(12), {1 2 3 4 5 6 7 8 9 10 11 12})",
                "connected_sum(simplex(12), {1 2 3 4 5 6 7 8 9 10 11 12}, "
                "simplex(12), {2 3 4 5 6 7 8 9 10 11 12 13})",
                "product(vertex_cut(simplex(3), {1 2 3}), cube(2))",
        ]:
            spec = parse_expression(text)
            poly = _build_polytope(spec)
            assert _checked_size(spec) == (
                poly.dimension, len(poly.vertices))

    def test_errors(self):
        for bad in ["simplex", "simplex(", "simplex(2,3)", "frustum(2)",
                    "product(simplex(2))", "simplex(x)", "cube(2) extra"]:
            with pytest.raises(InputError):
                parse_expression(bad)


class TestManifestFiles:
    def test_sample_files_round_trip(self):
        for path in sorted(MANIFESTS.glob("*.ini")):
            text = path.read_text()
            m = parse_manifest(text)
            again = parse_manifest(serialize_manifest(m))
            assert m == again
            m.build_manifold()

    def test_explicit_polytope(self):
        text = """
[polytope]
dimension = 1
facets = 2
vertex = {1}
vertex = {2}

[characteristic]
row = 1 1

[spinc]
gamma = 1 1
"""
        m = parse_manifest(text)
        assert m.polytope_spec[0] == "explicit"
        assert parse_manifest(serialize_manifest(m)) == m

    def test_bundles_and_circle_survive(self):
        m = parse_manifest(Path(CP3_TWISTED).read_text())
        assert m.v_lines == ((0, 0, 0, 2),)
        assert m.w_lines == ((0, 0, 0, 2),)
        assert m.circle == (1, 2, 5)
        again = parse_manifest(serialize_manifest(m))
        assert again.circle == (1, 2, 5)

    @pytest.mark.parametrize("text,fragment", [
        ("x = 1", "before any section"),
        ("[nope]\n", "unknown section"),
        ("[polytope]\nconstruct = simplex(2)\n[characteristic]\nrow = a b\n",
         "expected integers"),
        ("[polytope]\nconstruct = simplex(2)\n[characteristic]\nrow = 1 0 -1\n",
         "missing"),
        ("[polytope]\ndimension = 2\n", "explicit polytopes need"),
        ("[polytope]\nconstruct = simplex(2)\nconstruct = cube(2)\n",
         "no other keys"),
        ("[polytope]\nconstruct = product(polygon(5), polygon(5))\n",
         "25 vertices, over the limit 24"),
        ("[polytope]\nconstruct = "
         "vertex_cut(product(polygon(4), polygon(6)), {1 2 5 6})\n",
         "27 vertices"),
        ("[polytope]\nconstruct = "
         "connected_sum(cube(4), {1 2 3 4}, cube(4), {1 2 3 4})\n",
         "30 vertices"),
        ("[polytope]\ndimension = 13\nfacets = 14\n"
         "vertex = {1 2 3 4 5 6 7 8 9 10 11 12 13}\n", "dimension 13"),
        # dimension and facets each take exactly one line of one integer
        ("[polytope]\ndimension = 1 7\nfacets = 2\nvertex = {1}\n"
         "vertex = {2}\n" + SEGMENT_REST, "line 2: expected one integer"),
        ("[polytope]\ndimension = 1\nfacets = 2 9\nvertex = {1}\n"
         "vertex = {2}\n" + SEGMENT_REST, "line 3: expected one integer"),
        ("[polytope]\ndimension = 1\nfacets = 2\ndimension = 1\n"
         "vertex = {1}\nvertex = {2}\n" + SEGMENT_REST,
         "line 4: duplicate dimension"),
        ("[polytope]\nconstruct = simplex(2)\n[bundles]\nu = 0 0 1\n",
         r"line 4: \[bundles\] takes the keys v, w, not 'u'"),
        # a vertex is a set of facets: a copy, in any order, is refused
        ("[polytope]\ndimension = 1\nfacets = 2\nvertex = {1}\n"
         "vertex = {2}\nvertex = {1}\n" + SEGMENT_REST,
         r"line 6: vertex \{1\} is listed again \(first at line 4\)"),
        ("[polytope]\ndimension = 2\nfacets = 3\nvertex = {1 2}\n"
         "vertex = {1 3}\nvertex = {2 3}\nvertex = {2 1}\n"
         "[characteristic]\nrow = 1 0 -1\nrow = 0 1 -1\n"
         "[spinc]\ngamma = 1 1 1\n",
         r"line 7: vertex \{1 2\} is listed again \(first at line 4\)"),
    ])
    def test_diagnostics(self, text, fragment):
        with pytest.raises(InputError, match=fragment):
            parse_manifest(text)

    def test_line_numbers_in_messages(self):
        text = "[polytope]\nconstruct = simplex(2)\nbogus\n"
        with pytest.raises(InputError, match="line 3"):
            parse_manifest(text)


class TestFormatDoc:
    """docs/manifest_format.md names what quasigenus.manifest declares."""

    DOC = (REPO / "docs" / "manifest_format.md").read_text()

    def test_grammar_names_the_constructors(self):
        grammar = re.search(r"^name +::=(.*(?:\n +\|.*)*)", self.DOC, re.M)
        names = re.findall(r'"(\w+)"', grammar.group(1))
        assert sorted(names) == sorted(_CONSTRUCTORS)

    def test_every_key_is_documented(self):
        for name, keys in _SECTIONS.items():
            assert f"### `[{name}]`" in self.DOC
            for key in keys:
                assert f"\n{key} = " in self.DOC, key


class TestCliExitCodes:
    def test_describe(self, capsys):
        assert main(["describe", CP2]) == 0
        out = capsys.readouterr().out
        assert "dimension: 2" in out
        assert "spin: no" in out

    def test_genus_values(self, capsys):
        assert main(["genus", CP2, "--q-order", "2"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["q^0: 1", "q^1: 3", "q^2: 9"]

    def test_signature(self, capsys):
        assert main(["genus", CP2, "--twist", "signature"]) == 0
        assert "signature: 1" in capsys.readouterr().out

    @pytest.mark.parametrize("xi", ["0,0", "1,2,3"])
    def test_signature_refuses_a_circle(self, capsys, xi):
        assert main(["genus", CP2, "--twist", "signature",
                     "--equivariant", xi]) == 2
        assert "--equivariant" in capsys.readouterr().err

    def test_custom_twist(self, capsys):
        assert main(["genus", CP3_TWISTED, "--twist", "custom",
                     "--q-order", "1"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["q^0: 4", "q^1: 16"]

    def test_equivariant_output(self, capsys):
        assert main(["genus", S2_BOUNDING, "--q-order", "1",
                     "--equivariant", "1"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["q^0: 0", "q^1: 0"]

    @pytest.mark.parametrize("xi", ["", " , "])
    def test_empty_circle(self, capsys, xi):
        assert main(["genus", CP2, "--q-order", "1", "--equivariant", xi]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "empty circle vector" in captured.err

    def test_witten_requires_spin(self, capsys):
        assert main(["genus", CP2, "--twist", "witten"]) == 3
        assert "not spin" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["describe", "/no/such/file.ini"]) == 2

    def test_bad_manifest(self, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text("garbage\n")
        assert main(["describe", str(p)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_negative_cube_dimension(self, tmp_path, capsys):
        p = tmp_path / "cube.ini"
        p.write_text("[polytope]\nconstruct = cube(-1)\n\n"
                     "[characteristic]\nrow = 1 0\n\n[spinc]\ngamma = 1 1\n")
        assert main(["describe", str(p)]) == 2
        assert "at least 1" in capsys.readouterr().err

    def test_deep_nesting_rejected(self, tmp_path, capsys):
        depth = 3000
        p = tmp_path / "deep.ini"
        p.write_text("[polytope]\nconstruct = " + "product(" * depth
                     + "simplex(1), simplex(1)" + ")" * depth
                     + "\n\n[characteristic]\nrow = 1 0\n\n[spinc]\ngamma = 1 1\n")
        assert main(["describe", str(p)]) == 2
        assert "nests deeper than 64" in capsys.readouterr().err

    def test_threads_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["genus", CP2, "--threads", "2"])
        assert exc.value.code == 2

    def test_bad_circle_vector(self, capsys):
        assert main(["genus", CP2, "--equivariant", "a,b"]) == 2

    def test_degenerate_circle(self, capsys):
        assert main(["genus", S2XS2, "--q-order", "0",
                     "--equivariant", "1,0"]) == 3

    def test_circle_search_over_the_limit(self, tmp_path, capsys):
        # simplex(12) passes every manifest limit, but the generic circle
        # search on CP^12 passes MAX_CIRCLE_NODES
        path = tmp_path / "cp12.ini"
        path.write_text(_projective_manifest(12))
        start = time.perf_counter()
        assert main(["genus", str(path), "--q-order", "1"]) == 2
        assert time.perf_counter() - start < 2
        assert "circle search in dimension 12" in capsys.readouterr().err

    def test_largest_projective_space_under_the_circle_limit(self, tmp_path,
                                                            capsys):
        path = tmp_path / "cp6.ini"
        path.write_text(_projective_manifest(6))
        assert main(["genus", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "q^0: 1", "q^1: 35", "q^2: 273", "q^3: 1190", "q^4: 3675"]

    @pytest.mark.parametrize("argv, fragment", [
        (["genus", CP2, "--equivariant", "100000000,1", "--q-order", "1"],
         "localization degree"),
        (["genus", CP2, "--q-order", "400"], "q-order"),
        (["genus", CP2, "--q-order", "-1"], "q-order"),
        (["census", "--n", "40", "--k", "2", "--bound", "1"], "census"),
        (["census", "--n", "3", "--k", "2", "--bound", "40"], "census"),
        (["describe", "cube(40)"], "dimension 40, over the limit 12"),
        (["describe", "simplex(3000)"], "dimension 3000, over the limit 12"),
    ])
    def test_oversized_work_refused_quickly(self, tmp_path, capsys, argv,
                                            fragment):
        if argv[0] == "describe":
            # argv[1] is a constructor expression; wrap it in a manifest
            path = tmp_path / "big.ini"
            path.write_text(f"[polytope]\nconstruct = {argv[1]}\n\n"
                            "[characteristic]\nrow = 1 0\n\n[spinc]\ngamma = 1 1\n")
            argv = ["describe", str(path)]
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 3
        assert fragment in capsys.readouterr().err


class TestCliVerify:
    def test_circle_hypothesis_failure(self, capsys):
        assert main(["verify", CP2, "--theorem", "circle"]) == 3

    def test_anomaly_pass(self, capsys):
        assert main(["verify", S2_BOUNDING, "--theorem", "index-I"]) == 0
        out = capsys.readouterr().out
        assert "I = -1" in out
        assert "PASS" in out

    def test_twist_class_check(self, tmp_path, capsys):
        p = tmp_path / "cp1.ini"
        p.write_text("""
[polytope]
construct = simplex(1)

[characteristic]
row = 1 -1

[spinc]
gamma = 1 1

[bundles]
v = 1 1
""")
        assert main(["verify", str(p), "--theorem", "thm34"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_twist_class_wrong_count(self, capsys):
        assert main(["verify", CP3_TWISTED, "--theorem", "thm34"]) == 2

    def test_bundle_construction(self, capsys):
        assert main(["verify", CP3_TWISTED, "--theorem", "lemma52"]) == 0
        out = capsys.readouterr().out
        assert "beta: [4]" in out

    def test_table(self, capsys):
        assert main(["verify", "--theorem", "table1"]) == 0
        assert "30/30" in capsys.readouterr().out

    def test_verify_needs_manifest(self, capsys):
        assert main(["verify", "--theorem", "circle"]) == 2


class TestCliJson:
    def test_json_deterministic(self, capsys):
        outputs = []
        for _ in range(2):
            assert main(["genus", CP2, "--q-order", "1", "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        data = json.loads(outputs[0])
        assert data["coefficients"] == {"0": "1", "1": "3"}
        assert list(data) == sorted(data)

    def test_census_json(self, capsys):
        assert main(["census", "--n", "3", "--k", "1", "--bound", "1",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["all_within_bound"] is True
        assert data["beta_vectors"] == [[4]]

    def test_describe_json(self, capsys):
        assert main(["describe", S2XS2, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["spin"] is True
        assert data["betti"] == [1, 2, 1]


    def test_successive_calls_share_no_state(self, capsys):
        # the parser is built once per process; a flag or option given to
        # one call must not leak into the next
        assert main(["genus", CP2, "--q-order", "1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["q_order"] == 1
        assert main(["genus", CP2]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "q^0: 1", "q^1: 3", "q^2: 9", "q^3: 12", "q^4: 21"]
        assert main(["genus", CP2, "--q-order", "2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3
        assert main(["genus", CP2, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["q_order"] == 4


class TestCliEnvironment:
    def test_census_precondition_exit(self, capsys):
        assert main(["census", "--n", "3", "--k", "3", "--bound", "1"]) == 3

    def test_module_entry_point_keeps_the_exit_codes(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))

        def run(*args):
            return subprocess.run([sys.executable, "-m", "quasigenus", *args],
                                  capture_output=True, text=True, env=env,
                                  cwd=REPO, timeout=60)

        done = run("describe", CP2, "--json")
        assert done.returncode == 0
        assert json.loads(done.stdout)["betti"] == [1, 1, 1]
        refused = run("census", "--n", "13", "--k", "1", "--bound", "1")
        assert refused.returncode == 2
        assert "over the limit 12" in refused.stderr


def _mutate(text, rng):
    """One to three seeded edits of a manifest: an integer replaced by a
    small one, a line deleted, duplicated or swapped, a character replaced
    or the text cut short."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        at = rng.randrange(len(lines))
        op = rng.randrange(6)
        if op == 0:
            tokens = lines[at].split(" ")
            spots = [i for i, tok in enumerate(tokens) if tok.lstrip("-").isdigit()]
            if spots:
                tokens[rng.choice(spots)] = str(rng.randint(-3, 4))
                lines[at] = " ".join(tokens)
        elif op == 1:
            del lines[at]
        elif op == 2:
            lines.insert(at, lines[at])
        elif op == 3:
            other = rng.randrange(len(lines))
            lines[at], lines[other] = lines[other], lines[at]
        elif op == 4 and lines[at]:
            i = rng.randrange(len(lines[at]))
            lines[at] = (lines[at][:i] + rng.choice("0123-() {},=[]#xv\t")
                         + lines[at][i + 1:])
        else:
            lines = lines[:at]
    return "\n".join(lines) + "\n"


class TestCliGuard:
    def test_unexpected_exception_is_one_line(self, monkeypatch, capsys):
        def broken(args):
            raise ZeroDivisionError("division by zero")
        monkeypatch.setattr("quasigenus.cli.cmd_describe", broken)
        assert main(["describe", CP2]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: ZeroDivisionError: division by zero\n"

    def test_keyboard_interrupt_passes_through(self, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt
        monkeypatch.setattr("quasigenus.cli.cmd_describe", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["describe", CP2])

    def test_mutated_manifests_never_reach_the_guard(self, tmp_path, capsys):
        # every mutated manifest maps to the exit-code contract on its own,
        # so the last-resort guard never fires
        rng = random.Random(2024)
        sources = [p.read_text() for p in sorted(MANIFESTS.glob("*.ini"))]
        path = tmp_path / "mutated.ini"
        codes = []
        for case in range(200):
            path.write_text(_mutate(sources[case % len(sources)], rng))
            for argv in (["describe", str(path), "--json"],
                         ["genus", str(path), "--q-order", "1"],
                         *(["verify", str(path), "--theorem", theorem,
                            "--q-order", "1"]
                           for theorem in ("circle", "index-I", "thm34",
                                           "lemma52"))):
                codes.append(main(argv))
                err = capsys.readouterr().err
                assert codes[-1] in (0, 1, 2, 3), (path.read_text(), argv)
                assert "internal error" not in err, (path.read_text(), argv, err)
        assert {0, 2, 3} <= set(codes)
