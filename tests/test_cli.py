import io
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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

    def test_minimize_rank_26_primitive_word(self, capsys):
        # a1 a2 ... a26 is primitive, so the descent ends at one letter;
        # every step shortens it by one
        code, out, _ = run(capsys, "minimize", "--rank", "26", "abcdefghijklmnopqrstuvwxyz")
        lines = out.splitlines()
        assert code == 0 and lines[-1] == "minimized: z"
        assert [line.split()[-1] for line in lines[:-1]] == [str(n) for n in range(25, 0, -1)]

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

    def test_text_axes_label_only_printed_bases(self):
        # a rank-1 ball of radius 100,000 has one line; labelling all of its
        # 200,001 vertices took memory quadratic in the radius
        code, out, err = run_limited("tree", "axes", "--rank", "1", "--radius", "100000", "a")
        assert (code, out, err) == (0, "axis base=1 period=a\ntotal 1\n", "")

    @pytest.mark.parametrize("analysis, lines",
                             [("counts", 60000), ("axes", 60000), ("profile", 1)])
    def test_radius_1_ball_of_high_rank(self, analysis, lines):
        # a radius-1 ball has 1 + 2n vertices; the per-letter child table
        # of (2n)(2n - 1) entries, 3.6 billion here, is never built
        radius = "--max-radius" if analysis == "profile" else "--radius"
        code, out, err = run_limited("tree", analysis, "--rank", "30000", radius, "1", "a")
        assert (code, out.count("\n"), err) == (0, lines, "")

    def test_words_before_flags_also_accepted(self, capsys):
        code, out, _ = run(capsys, "tree", "certificate", "abAB", "--rank", "2", "--radius", "3")
        assert code == 0 and out == "CERTIFIED\n"


def run_limited(*argv):
    """``python -m freesplit`` in a child process limited to 1 GB of address
    space and 20 s, so an unbounded refusal fails instead of exhausting memory."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))

    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-m", "freesplit", *argv], capture_output=True,
                          text=True, timeout=20, preexec_fn=limit,
                          env={**os.environ, "PYTHONPATH": src})
    return done.returncode, done.stdout, done.stderr


class TestBoundedRefusals:
    """Refusals exit 2 with one short stderr line, in bounded time and memory."""

    BIG_RANK_GOG = "vertex v free 400000000\nvertex w cyclic\nedge e v w ab 2\n"
    BIG_EXPONENT_GOG = "vertex u cyclic\nvertex w free 1\nedge e u w 3000000000 a\n"

    @pytest.mark.parametrize("radius", ["9000", "10000", "100000000"])
    def test_huge_ball_refused_quickly(self, capsys, radius):
        start = time.perf_counter()
        code, out, err = run(capsys, "tree", "ball", "--rank", "2", "--radius", radius)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == (f"error: ball of rank 2, radius {radius} has more than"
                       " 1000000000000000000 vertices (cap 2000000)\n")

    def test_huge_rank_1_ball_refused(self, capsys):
        code, _, err = run(capsys, "tree", "ball", "--rank", "1", "--radius", str(10**30))
        assert code == 2 and "has more than 1000000000000000000 vertices" in err

    def test_whitehead_graph_rank_refused(self, capsys):
        code, out, err = run(capsys, "graph", "--rank", "1000001", "ab")
        assert code == 2 and out == ""
        assert err == "error: Whitehead graph of rank 1000001 has 2000002 vertices (cap 2000000)\n"

    def test_presentation_generators_refused(self, capsys, tmp_path):
        # rank 2,000,000 plus the cyclic vertex's generator is one past the cap
        path = tmp_path / "over_cap.gog"
        path.write_text(self.BIG_RANK_GOG.replace("400000000", "2000000"))
        code, out, err = run(capsys, "present", str(path))
        assert code == 2 and out == ""
        assert err == "error: presentation has 2000001 generators (cap 2000000)\n"

    def test_presentation_relation_letters_refused(self, capsys, tmp_path):
        # the exponent alone is 3,000,000,000 letters, and the word a one more
        path = tmp_path / "big_exponent.gog"
        path.write_text(self.BIG_EXPONENT_GOG)
        code, out, err = run(capsys, "present", str(path))
        assert code == 2 and out == ""
        assert err == "error: presentation has 3000000001 relation letters (cap 2000000)\n"

    @pytest.mark.parametrize("argv", [
        ("tree", "ball", "--rank", "2", "--radius", "10000"),
        ("tree", "ball", "--rank", "2", "--radius", "100000000"),
        ("indecomposable", "--rank", "400000000", "ab"),
        ("one-ended", "BIG_RANK_GOG"),
        ("present", "BIG_RANK_GOG"),
        ("present", "BIG_EXPONENT_GOG"),
        ("tree", "ball", "--rank", "100000000", "--radius", "0"),
        ("one-ended", "/dev/zero"),
        ("present", "/dev/zero"),
        ("basis", "--rank", "400000000", "ab"),  # one word, read before its length
    ])
    def test_refusal_in_bounded_memory(self, tmp_path, argv):
        if argv[-1].endswith("_GOG"):
            path = tmp_path / "input.gog"
            path.write_text(getattr(self, argv[-1]))
            argv = argv[:-1] + (str(path),)
        code, out, err = run_limited(*argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


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


class TestOneLineErrors:
    """An error is one stderr line, even when the text it quotes holds a line break."""

    @pytest.mark.parametrize("arg, shown", [("-x\ny", "-x\\ny"), ("-x\ry", "-x\\ry")])
    def test_unrecognized_argument_with_a_line_break(self, capsys, arg, shown):
        code, out, err = run(capsys, "graph", "--rank", "2", "a", arg)
        assert (code, out) == (1, "")
        assert err == f"error: unrecognized arguments: {shown}\n"


class TestWordHygiene:
    def test_auto_reduction_warns(self, capsys):
        code, out, err = run(capsys, "indecomposable", "--rank", "2", "baB")
        assert code == 0 and out == "DECOMPOSABLE {a}|{b}\n"
        assert "auto-reduced" in err

    def test_strict_rejects_unreduced(self, capsys):
        code, out, err = run(capsys, "indecomposable", "--rank", "2", "--strict", "baB")
        assert code == 1 and "auto-reduced" in err

    @pytest.mark.parametrize("word", ["BAba", "ba"])
    def test_rotation_is_not_a_reduction(self, capsys, word):
        # a cyclically reduced word is taken as given, in any rotation
        for strict in ((), ("--strict",)):
            code, _, err = run(capsys, "indecomposable", "--rank", "2", *strict, word)
            assert code == 0 and err == ""

    def test_trivial_word_rejected(self, capsys):
        code, _, err = run(capsys, "indecomposable", "--rank", "2", "abBA")
        assert code == 1 and "trivial" in err

    def test_unicode_digit_word(self, capsys):
        code, out, err = run(capsys, "indecomposable", "--rank", "2", "1 ²")
        assert (code, out) == (1, "")
        assert err == "error: mixed or malformed word syntax: '1 ²'\n"

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

    def test_unicode_digit_rank(self, capsys, tmp_path):
        # "²" passes str.isdigit, but int() refuses it
        path = tmp_path / "u.gog"
        path.write_text("vertex v free ²\n", encoding="utf-8")
        code, out, err = run(capsys, "one-ended", str(path))
        assert (code, out) == (1, "")
        assert err == "error: line 1: free vertex needs a positive rank\n"

    def test_unicode_digit_attachment(self, capsys, tmp_path):
        path = tmp_path / "u.gog"
        path.write_text("vertex v free 2\nvertex w cyclic\nedge e v w 1,² 2\n", encoding="utf-8")
        code, out, err = run(capsys, "one-ended", str(path))
        assert (code, out) == (1, "")
        assert err == (
            "error: line 3: bad attachment word '1,²': mixed or malformed word syntax: '1 ²'\n"
        )

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "one-ended", "/nonexistent/file.gog")
        assert code == 1

    @pytest.mark.parametrize("command", ["one-ended", "present"])
    def test_file_not_utf8(self, capsys, tmp_path, command):
        path = tmp_path / "bad.gog"
        path.write_bytes(b"vertex v free 2\n\xff\xfe\n")
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (1, "")
        assert err == "error: line 2: not UTF-8 text (invalid start byte)\n"


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


def run_quietly(argv):
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=60)
# Fragments of the graph-file and word syntax, so that fuzzed input gets
# past the first check often enough to reach the later ones.
_FRAGMENTS = st.sampled_from([
    "vertex", "edge", "free", "cyclic", "opaque", "v", "w", "e", "1", "2", "-1", "0", "²",
    "ab", "aA", "AbaB", "1,2", "1,-1", "-", "t", "#", "\n", " ", "\t", "\r", "\x85",
])
_SOUP = st.lists(st.one_of(_FRAGMENTS, _TEXT), max_size=25).map("".join)


class TestFrontEndFuzz:
    """Any text in a graph file or a word argument gives a verdict (exit 0)
    or one error line (exit 1), never a traceback, and the same output twice."""

    @pytest.fixture(scope="class")
    def gog_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "g.gog"

    @settings(max_examples=150, deadline=None)
    @given(text=st.one_of(_TEXT, _SOUP), command=st.sampled_from(["one-ended", "present"]),
           form=st.sampled_from(["text", "json"]))
    def test_graph_file_text(self, gog_path, text, command, form):
        gog_path.write_text(text, encoding="utf-8")
        argv = [command, "--format", form, str(gog_path)]
        first = run_quietly(argv)
        code, out, err = first
        assert code in (0, 1)
        if code == 0:
            assert err == ""
        else:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
            assert err.endswith("\n") and "Traceback" not in err
        assert run_quietly(argv) == first

    @settings(max_examples=150, deadline=None)
    @given(text=st.one_of(_TEXT, _SOUP),
           command=st.sampled_from(["indecomposable", "minimize", "basis", "graph"]),
           rank=st.integers(1, 3))
    def test_word_text(self, text, command, rank):
        argv = [command, "--rank", str(rank), "--", text]
        first = run_quietly(argv)
        code, out, err = first
        assert code in (0, 1)
        lines = err.splitlines()
        assert all(line.startswith("warning: ") for line in lines[:-1])
        if code == 0:
            assert not lines or lines[-1].startswith("warning: ")
        else:
            assert out == "" and lines[-1].startswith("error: ")
        assert "Traceback" not in err
        assert run_quietly(argv) == first
