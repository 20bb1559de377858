import json

import pytest

from freesplit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerdictCommands:
    def test_indecomposable_text(self, capsys):
        code, out, _ = run(capsys, "indecomposable", "--rank", "2", "abAB")
        assert code == 0 and out == "INDECOMPOSABLE\n"

    def test_decomposable_is_not_an_error(self, capsys):
        code, out, _ = run(capsys, "indecomposable", "--rank", "2", "a")
        assert code == 0 and out == "DECOMPOSABLE {a}|{b}\n"

    def test_basis(self, capsys):
        code, out, _ = run(capsys, "basis", "--rank", "2", "ab", "b")
        assert code == 0 and out == "BASIS\n"
        code, out, _ = run(capsys, "basis", "--rank", "2", "aa", "b")
        assert code == 0 and out == "NOT A BASIS\n"

    def test_minimize(self, capsys):
        code, out, _ = run(capsys, "minimize", "--rank", "2", "ab", "b")
        assert code == 0
        assert out.endswith("minimized: a b\n")

    def test_numeric_form_words(self, capsys):
        code, out, _ = run(capsys, "indecomposable", "--rank", "2", "1 2 -1 -2")
        assert code == 0 and out == "INDECOMPOSABLE\n"


class TestGraphCommand:
    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "graph", "--rank", "2", "--format", "dot", "abAB")
        assert code == 0
        for vertex in ('"a"', '"A"', '"b"', '"B"'):
            assert vertex in out
        assert out.count(" -- ") == 4

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "graph", "--rank", "2", "--format", "json", "abAB")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["command", "input", "verdict", "certificate"]
        assert payload["certificate"]["graph"]["edges"] == [
            ["a", "b", 1], ["a", "B", 1], ["A", "b", 1], ["A", "B", 1],
        ]


class TestTreeCommands:
    def test_ball_counts(self, capsys):
        code, out, _ = run(capsys, "tree", "ball", "--rank", "2", "--radius", "2")
        assert code == 0 and out == "vertices 17\nedges 16\n"

    def test_counts_edge_values(self, capsys):
        code, out, _ = run(
            capsys, "tree", "counts", "--rank", "2", "--radius", "2", "abAB"
        )
        assert code == 0
        assert "1 -- a: 2\n" in out

    def test_certificate(self, capsys):
        code, out, _ = run(
            capsys, "tree", "certificate", "--rank", "2", "--radius", "3", "abAB"
        )
        assert code == 0 and out == "CERTIFIED\n"
        code, out, _ = run(
            capsys, "tree", "certificate", "--rank", "2", "--radius", "3", "a"
        )
        assert code == 0 and out == "NOT CERTIFIED (vertex 1)\n"

    def test_profile(self, capsys):
        code, out, _ = run(
            capsys, "tree", "profile", "--rank", "2", "--max-radius", "4", "abAB"
        )
        assert code == 0
        assert out == "radius 1: 1\nradius 2: 1\nradius 3: 1\nradius 4: 1\n"

    def test_axes_json(self, capsys):
        code, out, _ = run(
            capsys, "tree", "axes", "--rank", "2", "--radius", "1", "--format", "json", "a"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["certificate"]["axes"]) == 3

    def test_star_matches_graph_command(self, capsys):
        code, star_out, _ = run(
            capsys, "tree", "star", "--rank", "2", "--radius", "2", "abAB"
        )
        assert code == 0
        code, graph_out, _ = run(capsys, "graph", "--rank", "2", "abAB")
        assert star_out == graph_out.replace("total 4\n", "")

    def test_cap_exit_code(self, capsys):
        code, out, err = run(capsys, "tree", "ball", "--rank", "2", "--radius", "20")
        assert code == 2 and out == ""
        assert "cap" in err

    def test_words_before_flags_also_accepted(self, capsys):
        code, out, _ = run(capsys, "tree", "certificate", "abAB", "--rank", "2", "--radius", "3")
        assert code == 0 and out == "CERTIFIED\n"


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("graph", "abAB"),
            ("tree", "ball", "--rank", "2", "--radius", "x"),
            ("tree",),
            ("tree", "profile", "--rank", "2"),
            ("graph", "--rank", "2", "--cap", "5", "abAB"),
            ("minimize", "--rank", "2", "--format", "dot", "ab"),
            ("tree", "ball", "--rank", "2", "--radius", "2", "abAB"),
            ("tree", "ball", "--rank", "2", "--strict"),
            ("tree", "profile", "--rank", "2", "--radius", "3", "abAB"),
            ("tree", "certificate", "--rank", "2", "--max-radius", "3", "abAB"),
            ("one-ended", "--format", "dot", "x.gog"),
            ("present", "--strict", "x.gog"),
        ],
    )
    def test_usage_error_exits_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [("--help",), ("tree", "--help"), ("tree", "star", "-h")])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 0
        assert "usage: freesplit" in capsys.readouterr().out

    def test_tree_analyses_take_cap(self, capsys):
        code, _, err = run(capsys, "tree", "ball", "--rank", "2", "--radius", "3", "--cap", "5")
        assert code == 2 and "cap 5" in err


class TestWordHygiene:
    def test_auto_reduction_warns(self, capsys):
        code, out, err = run(capsys, "indecomposable", "--rank", "2", "baB")
        assert code == 0 and out == "DECOMPOSABLE {a}|{b}\n"
        assert "auto-reduced" in err

    def test_strict_rejects_unreduced(self, capsys):
        code, out, err = run(capsys, "indecomposable", "--rank", "2", "--strict", "baB")
        assert code == 1 and "auto-reduced" in err

    def test_trivial_word_rejected(self, capsys):
        code, _, err = run(capsys, "indecomposable", "--rank", "2", "abBA")
        assert code == 1 and "trivial" in err

    def test_bad_syntax_rejected(self, capsys):
        code, _, err = run(capsys, "indecomposable", "--rank", "2", "a1b")
        assert code == 1


class TestGraphOfGroupsCommands:
    def test_double_one_ended_round_trip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "double", "--rank", "2", "abAB")
        assert code == 0
        path = tmp_path / "double.gog"
        path.write_text(out)
        code, verdict_out, err = run(capsys, "one-ended", str(path))
        assert code == 0 and verdict_out == "ONE-ENDED\n" and err == ""

    def test_not_one_ended_message(self, capsys, tmp_path):
        code, out, _ = run(capsys, "double", "--rank", "2", "a")
        path = tmp_path / "split.gog"
        path.write_text(out)
        code, out, _ = run(capsys, "one-ended", str(path))
        assert code == 0
        assert out == "NOT ONE-ENDED (vertex v1: factor split {a}|{b})\n"

    def test_double_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.gog"
        code, out, _ = run(capsys, "double", "--rank", "2", "-o", str(target), "a", "b")
        assert code == 0 and str(target) in out
        assert target.read_text().count("edge") == 2

    def test_present(self, capsys, tmp_path):
        code, out, _ = run(capsys, "double", "--rank", "2", "abAB")
        path = tmp_path / "d.gog"
        path.write_text(out)
        code, out, _ = run(capsys, "present", str(path))
        assert code == 0 and out == "< a, b, c, d | abAB = cdCD >\n"

    def test_parse_error_exit_one(self, capsys, tmp_path):
        path = tmp_path / "bad.gog"
        path.write_text("vertex v1 free 2\nedge e1 v1 vX ab ab\n")
        code, _, err = run(capsys, "one-ended", str(path))
        assert code == 1 and "line 2" in err

    def test_lone_cyclic_vertex_is_not_one_ended(self, capsys, tmp_path):
        path = tmp_path / "z.gog"
        path.write_text("vertex v cyclic\n")
        code, out, _ = run(capsys, "one-ended", str(path))
        assert code == 0
        assert out == (
            "NOT ONE-ENDED (vertex v: cyclic vertex v has no incident edges"
            " and splits freely)\n"
        )

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "one-ended", "/nonexistent/file.gog")
        assert code == 1


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("indecomposable", "--rank", "2", "--format", "json", "abAB"),
            ("minimize", "--rank", "2", "--format", "json", "ab", "b"),
            ("tree", "counts", "--rank", "2", "--radius", "2", "--format", "json", "abAB"),
            ("tree", "axes", "--rank", "2", "--radius", "2", "--format", "json", "a"),
            ("double", "--rank", "2", "ab", "BA", "b"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
